"""Greedy k-way boundary refinement (paper Sec. II.A.3).

During un-coarsening, boundary vertices are visited in gain order and
moved to the adjacent partition with the largest edge-cut reduction,
"however, the balance among the partitions should be maintained after
this movement".  A vectorised snapshot computes candidate moves; each
application re-validates the gain against current state (neighbors may
have moved earlier in the pass), so a pass can only ever reduce the cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._segments import segmented_argmax
from ..graphs.csr import CSRGraph
from ..graphs.metrics import boundary_from_labels, edge_cut, imbalance
from ..runtime.trace import Step, Trace

__all__ = [
    "KwayPassResult",
    "balance_limits",
    "connectivity_to",
    "kway_connectivity",
    "kway_refine_pass",
    "kway_refine",
    "rebalance_pass",
    "final_rebalance",
]


@dataclass(frozen=True)
class KwayPassResult(Step):
    """One refinement pass: the step an engine files, plus the arcs it read."""

    edge_scans: int


def balance_limits(
    graph: CSRGraph, part: np.ndarray, k: int, ubfactor: float
) -> tuple[np.ndarray, float, float]:
    """``(pweights, max_pweight, min_pweight)`` for refining ``part``: its
    partition weights, the ``ubfactor`` cap, and Metis's (2 - ubfactor)
    floor, which keeps any partition from emptying out."""
    ideal = graph.total_vertex_weight / k if k else 0.0
    pweights = np.bincount(part, weights=graph.vwgt.astype(np.float64), minlength=k)
    return pweights, ubfactor * ideal, max(0.0, (2.0 - ubfactor) * ideal)


def kway_connectivity(
    graph: CSRGraph, part: np.ndarray, k: int, vertices: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edge weight from each of ``vertices`` to each partition it touches.

    The refinement snapshot kernel, from one gather of neighbor labels
    ``part[graph.adjncy]``: ``vertices`` defaults to the boundary
    (:func:`~repro.graphs.metrics.boundary_from_labels`, ascending);
    given, they must be distinct and may come in any order.  Returns
    ``(vertices, rows, parts, weights)``, one pair per (vertex,
    partition) with an edge between them, sorted by row and then
    partition; ``rows`` index ``vertices`` and a vertex without neighbors
    has no pairs.  Each row's best pair is then ``segmented_argmax(weights,
    np.bincount(rows, minlength=len(vertices)), valid)``, its first
    maximum being the lowest partition id.  The sums pass through a
    ``(len(vertices) + 1) x k`` float64 table, whose last row absorbs
    every other vertex's arcs, so time and memory are O(|arcs| +
    len(vertices) k); the sums are exact below 2**53 total edge weight.
    """
    deg = graph.degrees()
    nbr = part[graph.adjncy]
    if vertices is None:
        vertices = boundary_from_labels(graph, part, nbr)
    m = vertices.shape[0]
    base = np.full(graph.num_vertices, m * k, dtype=np.int64)
    base[vertices] = np.arange(0, m * k, k, dtype=np.int64)
    key = np.repeat(base, deg)
    key += nbr
    del nbr
    sums = np.bincount(key, weights=graph.adjwgt)[: m * k]
    del key
    # Edge weights are positive, so only untouched slots are zero (an arc
    # of weight 0 yields no pair, though its ends are on the boundary).
    keys = np.flatnonzero(sums != 0)
    rows, parts = np.divmod(keys, k)
    return vertices, rows, parts, sums[keys].astype(np.int64)


def connectivity_to(
    rows: np.ndarray, parts: np.ndarray, weights: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Per row, its weight to partition ``target[row]`` (0 without a pair)."""
    hit = parts == target[rows]
    out = np.zeros(target.shape[0], dtype=np.int64)
    out[rows[hit]] = weights[hit]
    return out


def kway_refine_pass(
    graph: CSRGraph,
    part: np.ndarray,
    pweights: np.ndarray,
    k: int,
    max_pweight: float,
    min_pweight: float,
) -> KwayPassResult:
    """One refinement pass; mutates ``part`` and ``pweights`` in place."""
    boundary, rows, parts, weights = kway_connectivity(graph, part, k)
    edge_scans = int(graph.num_directed_edges)
    if boundary.size == 0:
        return KwayPassResult(0, 0, 0, edge_scans)

    own = part[boundary]
    win = segmented_argmax(
        weights, np.bincount(rows, minlength=boundary.shape[0]),
        valid=parts != own[rows],
    )
    # A boundary row whose external arcs all weigh 0 has no external pair
    # (win = -1): it reads the appended 0 and is no candidate.
    best_gain = np.append(weights, 0)[win] - connectivity_to(rows, parts, weights, own)
    cand = best_gain > 0
    order = np.argsort(-best_gain[cand], kind="stable")
    cand_v = boundary[cand][order]
    cand_d = parts[win[cand]][order]
    edge_scans += int((graph.adjp[boundary + 1] - graph.adjp[boundary]).sum())

    adjp, adjncy, adjwgt, vwgt = graph.adjp, graph.adjncy, graph.adjwgt, graph.vwgt
    committed = 0
    realised = 0
    for v, d in zip(cand_v, cand_d):
        s = int(part[v])
        if s == d:
            continue
        w = int(vwgt[v])
        if pweights[d] + w > max_pweight or pweights[s] - w < min_pweight:
            continue
        # Re-validate gain against current labels (vectorised per vertex).
        a, b = adjp[v], adjp[v + 1]
        nbr_parts = part[adjncy[a:b]]
        ws = adjwgt[a:b]
        gain = int(ws[nbr_parts == d].sum()) - int(ws[nbr_parts == s].sum())
        edge_scans += int(b - a)
        if gain <= 0:
            continue
        part[v] = d
        pweights[s] -= w
        pweights[d] += w
        committed += 1
        realised += gain
    return KwayPassResult(int(cand_v.shape[0]), committed, realised, edge_scans)


def rebalance_pass(
    graph: CSRGraph,
    part: np.ndarray,
    pweights: np.ndarray,
    k: int,
    max_pweight: float,
) -> Step:
    """Evacuate overweight partitions by cheapest boundary moves.

    Moves vertices out of partitions above ``max_pweight`` into their
    best-connected underweight neighbor partition, preferring moves that
    damage the cut least.  Returns a balancing step: the vertices it
    tried to move, its moves and their exact (usually negative) gain.
    """
    tried = moves = gain = 0
    adjp, adjncy, adjwgt, vwgt = graph.adjp, graph.adjncy, graph.adjwgt, graph.vwgt
    for _ in range(k):  # at most k evacuation rounds
        heavy = np.where(pweights > max_pweight)[0]
        if heavy.size == 0:
            break
        heavy_set = set(heavy.tolist())
        candidates = np.where(np.isin(part, heavy))[0]
        if candidates.size == 0:
            break
        _, rows, parts, weights = kway_connectivity(graph, part, k, candidates)
        own = part[candidates]
        win = segmented_argmax(
            weights, np.bincount(rows, minlength=candidates.shape[0]),
            valid=parts != own[rows],
        )
        # A vertex touching no other partition (win = -1) reads the
        # appended 0: an untouched partition has connectivity 0.
        loss = connectivity_to(rows, parts, weights, own) - np.append(weights, 0)[win]
        order = np.argsort(loss, kind="stable")
        progressed = False
        for i in order:
            v = int(candidates[i])
            s = int(part[v])
            if s not in heavy_set or pweights[s] <= max_pweight:
                continue
            w = int(vwgt[v])
            # Destination: best-connected partition with headroom; fall
            # back to the globally lightest partition.
            a, b = adjp[v], adjp[v + 1]
            nbr_parts = part[adjncy[a:b]]
            ws = adjwgt[a:b]
            tried += 1
            d = -1
            best_c = -1
            for p in np.unique(nbr_parts):
                if p == s:
                    continue
                if pweights[p] + w <= max_pweight:
                    c = int(ws[nbr_parts == p].sum())
                    if c > best_c:
                        best_c = c
                        d = int(p)
            if d < 0:
                d = int(np.argmin(pweights))
                if d == s or pweights[d] + w > max_pweight:
                    continue
            part[v] = d
            pweights[s] -= w
            pweights[d] += w
            moves += 1
            gain += int(ws[nbr_parts == d].sum()) - int(ws[nbr_parts == s].sum())
            progressed = True
        if not progressed:
            break
    return Step(tried, moves, gain, balancing=True)


def final_rebalance(
    graph: CSRGraph, part: np.ndarray, k: int, ubfactor: float,
    trace: Trace, engine: str,
) -> int | None:
    """The engines' closing balance guarantee at the finest level.

    When ``part`` (mutated in place) exceeds ``ubfactor``, runs
    :func:`rebalance_pass` against ``ubfactor`` x the ideal part weight,
    files it in ``trace`` as a balancing step of level 0 under the label
    ``engine``, and returns its move count; returns ``None`` when no
    pass was needed.  The caller charges the pass to its own cost model.
    """
    if k <= 1 or imbalance(graph, part, k) <= ubfactor:
        return None
    pweights, max_pw, _ = balance_limits(graph, part, k, ubfactor)
    res = rebalance_pass(graph, part, pweights, k, max_pw)
    cut = trace.cut_after(0)
    if cut is None:  # level 0 was not refined: no chain to continue
        cut = edge_cut(graph, part) + res.gain_realised
    trace.file_steps(0, engine, cut, [res])
    return res.moves_committed


def kway_refine(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    ubfactor: float = 1.03,
    max_passes: int = 4,
) -> tuple[np.ndarray, list[Step]]:
    """Run refinement passes until no move commits or the pass budget ends;
    returns the labels and the level's steps in order, a
    :func:`rebalance_pass` first when a partition starts overweight."""
    part = np.asarray(part, dtype=np.int64).copy()
    pweights, max_pw, min_pw = balance_limits(graph, part, k, ubfactor)
    results: list[Step] = []
    if k > 1 and pweights.max(initial=0.0) > max_pw:
        results.append(rebalance_pass(graph, part, pweights, k, max_pw))
    for _ in range(max_passes):
        res = kway_refine_pass(graph, part, pweights, k, max_pw, min_pw)
        results.append(res)
        if res.moves_committed == 0:
            break
    return part, results
