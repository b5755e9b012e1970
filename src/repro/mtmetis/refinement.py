"""Lock-free buffered k-way refinement (mt-metis Sec. II.C, GP-metis Sec. III.C).

Each pass runs two sub-iterations with opposite move directions: vertices
may first move only to *higher*-numbered partitions, then only to
*lower*-numbered ones — "this prevents concurrent exchanges of two
vertices between two neighbor partitions, which may result in increasing
the edge cut."

A sub-iteration:

1. **propose** — every boundary vertex computes (from the shared, shared-
   snapshot partition vector) its best destination: the adjacent
   partition with maximal positive gain that respects the direction and
   would not underweight the source or overweight the destination.
2. **commit** — requests land in per-partition buffers (atomic-counter
   slots); one worker per partition sorts its buffer by gain and accepts
   moves while its partition stays under the weight cap.

Proposals use snapshot gains; a commit re-reads its request's gain on
the current labels and drops it once non-positive, so a refinement
sub-iteration never raises the cut (balancing ones, direction 0, skip
that check and may).  Both mt-metis and GP-metis run this algorithm;
they differ in worker counts and in cost accounting, which the caller
supplies via the returned statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .._segments import segmented_argmax
from ..graphs.csr import CSRGraph
from ..runtime.trace import Step
from ..serial.kway import balance_limits, connectivity_to, kway_connectivity

__all__ = [
    "SubIterationStats",
    "propose_moves",
    "propose_balance_moves",
    "commit_moves",
    "balance_rounds",
    "sub_iterations",
    "refine_level",
]


@dataclass
class SubIterationStats:
    """Everything a cost model needs to charge one sub-iteration."""

    direction: int  # 0 for a balancing sub-iteration
    boundary_size: int = 0
    proposals: int = 0
    committed: int = 0
    #: Exact cut reduction: each move's gain re-read on the labels it meets.
    gain_realised: int = 0
    edge_scans: int = 0
    #: Requests received per partition buffer (length k).
    requests_per_partition: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Per-boundary-vertex adjacency lengths (for SIMT divergence models).
    boundary_degrees: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def step(self) -> Step:
        return Step(
            self.proposals, self.committed, self.gain_realised,
            balancing=self.direction == 0,
        )


#: ``(vertices, destinations, gains, stats)`` of one sub-iteration.
Proposal = tuple[np.ndarray, np.ndarray, np.ndarray, SubIterationStats]


def propose_moves(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    direction: int | tuple[int, ...],
    pweights: np.ndarray,
    max_pweight: float,
    min_pweight: float,
) -> Proposal | list[Proposal]:
    """Compute each boundary vertex's movement request from a snapshot.

    Returns ``(vertices, destinations, gains, stats)`` of the proposals.
    ``direction=+1`` permits only moves to higher partition ids, ``-1``
    only lower.  Given a tuple of directions, one label sweep
    (:func:`~repro.serial.kway.kway_connectivity`: the boundary and its
    connectivity) serves them all, and the result is a list with one such
    proposal per direction, each as if proposed alone on this snapshot.
    """
    directions = direction if isinstance(direction, tuple) else (direction,)
    boundary, rows, parts, weights = kway_connectivity(graph, part, k)
    degs = (graph.adjp[boundary + 1] - graph.adjp[boundary]).astype(np.int64)
    own = part[boundary]
    own_conn = connectivity_to(rows, parts, weights, own)
    own_of_pair = own[rows]
    # Destination cap and source floor from the snapshot weights.
    vw = graph.vwgt[boundary]
    allowed = (pweights[parts] + vw[rows] <= max_pweight) & (
        (pweights[own] - vw >= min_pweight)[rows]
    )
    edge_scans = int(graph.num_directed_edges) + int(degs.sum())
    lens = np.bincount(rows, minlength=boundary.shape[0])
    # A row without a valid pair (win = -1) reads the appended 0, so its
    # gain is not positive: it proposes nothing.
    padded = np.append(weights, 0)
    proposals = []
    for d in directions:
        ahead = parts > own_of_pair if d > 0 else parts < own_of_pair
        win = segmented_argmax(weights, lens, valid=allowed & ahead)
        gains = padded[win] - own_conn
        sel = gains > 0
        stats = SubIterationStats(
            direction=d,
            boundary_size=int(boundary.shape[0]),
            proposals=int(sel.sum()),
            edge_scans=edge_scans,
            boundary_degrees=degs,
        )
        proposals.append((boundary[sel], parts[win[sel]], gains[sel], stats))
    return proposals if isinstance(direction, tuple) else proposals[0]


def commit_moves(
    graph: CSRGraph,
    part: np.ndarray,
    pweights: np.ndarray,
    vertices: np.ndarray,
    destinations: np.ndarray,
    gains: np.ndarray,
    k: int,
    max_pweight: float,
    stats: SubIterationStats,
    recheck_gains: bool = True,
) -> int:
    """The explore step: per-partition workers accept gain-sorted requests.

    Each destination partition's worker sorts its buffer by gain
    (descending) and accepts requests while the partition's weight — which
    only it updates — stays within the cap.  With ``recheck_gains`` the
    worker drops requests whose gain, re-read on the current labels of the
    request's neighborhood, is not positive — the "confirm or undo" step;
    balancing rounds pass ``recheck_gains=False`` (their gains may be
    negative).  The re-read gains sum into ``stats.gain_realised``.
    Mutates ``part`` and ``pweights``; returns the committed move count.
    """
    stats.requests_per_partition = np.bincount(destinations, minlength=k).astype(
        np.int64
    )
    if vertices.size == 0:
        return 0
    vw = graph.vwgt[vertices].astype(np.float64)
    # Sort requests by (destination, -gain): each partition's buffer in
    # gain order, processed independently.
    order = np.lexsort((-gains, destinations))
    d_sorted = destinations[order]
    v_sorted = vertices[order]
    w_sorted = vw[order]
    adjp, adjncy, adjwgt = graph.adjp, graph.adjncy, graph.adjwgt

    committed = 0
    realised = 0
    start = 0
    while start < d_sorted.shape[0]:
        d = d_sorted[start]
        end = start
        while end < d_sorted.shape[0] and d_sorted[end] == d:
            end += 1
        # The worker walks its gain-sorted buffer sequentially, skipping
        # any request that would break the cap (a later lighter request
        # may still fit).
        w_acc = 0.0
        for i in range(start, end):
            if pweights[d] + w_acc + w_sorted[i] > max_pweight:
                continue
            v = int(v_sorted[i])
            s = int(part[v])
            if s == d:
                continue
            a, b = adjp[v], adjp[v + 1]
            nbr_parts = part[adjncy[a:b]]
            ws = adjwgt[a:b]
            gain = int(ws[nbr_parts == d].sum()) - int(ws[nbr_parts == s].sum())
            if recheck_gains and gain <= 0:
                continue
            realised += gain
            part[v] = d
            w_acc += w_sorted[i]
            pweights[d] += w_sorted[i]
            pweights[s] -= w_sorted[i]
            committed += 1
        start = end

    stats.committed = committed
    stats.gain_realised = realised
    return committed


def propose_balance_moves(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    pweights: np.ndarray,
    max_pweight: float,
) -> Proposal:
    """Balancing sub-iteration: evacuate overweight partitions.

    Boundary vertices of overweight partitions propose their
    least-cut-damaging move into an adjacent partition with headroom —
    gain may be negative (a balancing move, in the combined
    balancing/refinement style the paper cites from Jostle).  Returns the
    same (vertices, destinations, gains, stats) shape as
    :func:`propose_moves`.
    """
    stats = SubIterationStats(direction=0)
    heavy = pweights > max_pweight
    if not np.any(heavy):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), stats
    boundary, rows, parts, weights = kway_connectivity(graph, part, k)
    # Keep the rows of overweight partitions, renumbered in order.
    mine = heavy[part[boundary]]
    boundary = boundary[mine]
    keep = mine[rows]
    rows = (np.cumsum(mine) - 1)[rows[keep]]
    parts, weights = parts[keep], weights[keep]
    degs = (graph.adjp[boundary + 1] - graph.adjp[boundary]).astype(np.int64)
    stats.boundary_size = int(boundary.shape[0])
    stats.boundary_degrees = degs
    stats.edge_scans = int(graph.num_directed_edges) + int(degs.sum())

    own = part[boundary]
    vw = graph.vwgt[boundary]
    # Prefer the best-connected destination; among unconnected ones the
    # lightest (a tiny weight bias breaks the conn=0 tie), so landlocked
    # overweight partitions can still shed load.
    bias = 1e-12 * pweights
    values = weights - bias[parts]
    win = segmented_argmax(
        values, np.bincount(rows, minlength=boundary.shape[0]),
        valid=(parts != own[rows]) & (pweights[parts] + vw[rows] <= max_pweight),
    )
    # A row without a valid pair (win = -1) reads the appended -1 and -inf.
    best_dest = np.append(parts, -1)[win]
    best_val = np.append(values, -np.inf)[win]
    # Rows without a positive adjacent value may land in a partition they
    # do not touch (value -bias): score those rows over all k partitions.
    landlocked = np.flatnonzero(~(best_val > 0))
    if landlocked.size:
        slot = np.full(boundary.shape[0], -1, dtype=np.int64)
        slot[landlocked] = np.arange(landlocked.size)
        mine = slot[rows] >= 0
        masked = np.zeros((landlocked.size, k))
        masked[slot[rows[mine]], parts[mine]] = weights[mine]
        masked -= bias
        masked[slot[landlocked], own[landlocked]] = -np.inf
        masked[pweights + vw[landlocked, None] > max_pweight] = -np.inf
        best_dest[landlocked] = masked.argmax(axis=1)
        best_val[landlocked] = masked.max(axis=1)
    sel = np.isfinite(best_val)
    verts = boundary[sel]
    dests = best_dest[sel]
    gains = (
        connectivity_to(rows, parts, weights, best_dest)
        - connectivity_to(rows, parts, weights, own)
    )[sel]

    # Each overweight partition only needs to shed its *excess*: keep the
    # least-damaging (highest-gain) proposals whose cumulative weight
    # covers the excess, drop the rest — evacuating the whole boundary
    # would trade far more cut than balance requires.
    if verts.size:
        srcs = part[verts]
        vws = graph.vwgt[verts].astype(np.float64)
        order = np.lexsort((-gains, srcs))
        keep = np.zeros(verts.shape[0], dtype=bool)
        i = 0
        while i < order.shape[0]:
            s = srcs[order[i]]
            excess = pweights[s] - max_pweight
            acc = 0.0
            j = i
            while j < order.shape[0] and srcs[order[j]] == s:
                if acc < excess:
                    keep[order[j]] = True
                    acc += vws[order[j]]
                j += 1
            i = j
        verts, dests, gains = verts[keep], dests[keep], gains[keep]

    stats.proposals = int(verts.shape[0])
    return verts, dests, gains, stats


def balance_rounds(
    graph: CSRGraph,
    part: np.ndarray,
    pweights: np.ndarray,
    k: int,
    max_pweight: float,
    max_rounds: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, SubIterationStats]]:
    """Evacuate overweight partitions, one balancing round at a time.

    Each round proposes balancing moves and commits them without a gain
    recheck, updating ``part`` and ``pweights`` in place, then yields
    ``(vertices, destinations, moved, stats)``: the proposals, the
    vertices that did move, and the round's statistics, for the caller
    to charge.  The rounds stop once no partition is overweight, after a
    round that commits nothing, or after ``max_rounds`` rounds.
    """
    for _ in range(max_rounds):
        if pweights.max(initial=0.0) <= max_pweight:
            return
        vs, ds, gs, stats = propose_balance_moves(graph, part, k, pweights, max_pweight)
        before = part[vs]
        commit_moves(
            graph, part, pweights, vs, ds, gs, k, max_pweight, stats,
            recheck_gains=False,
        )
        yield vs, ds, vs[part[vs] != before], stats
        if stats.committed == 0:
            return


def sub_iterations(
    graph: CSRGraph,
    part: np.ndarray,
    pweights: np.ndarray,
    k: int,
    max_pweight: float,
    min_pweight: float,
    max_passes: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, SubIterationStats]]:
    """Refinement passes: a balancing sub-iteration (direction 0) when the
    snapshot is overweight, then directions +1 and -1, each committed in
    place and yielded as ``(vertices, destinations, stats)`` for the
    caller to charge; the passes stop after one that commits no move."""
    for _ in range(max_passes):
        pass_committed = 0
        overweight = pweights.max(initial=0.0) > max_pweight
        for direction in (0, +1, -1) if overweight else (+1, -1):
            if direction == 0:
                vs, ds, gs, stats = propose_balance_moves(
                    graph, part, k, pweights, max_pweight
                )
            else:
                vs, ds, gs, stats = propose_moves(
                    graph, part, k, direction, pweights, max_pweight, min_pweight
                )
            commit_moves(
                graph, part, pweights, vs, ds, gs, k, max_pweight, stats,
                recheck_gains=(direction != 0),
            )
            yield vs, ds, stats
            pass_committed += stats.committed
        if pass_committed == 0:
            return


def refine_level(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    ubfactor: float,
    max_passes: int,
) -> tuple[np.ndarray, list[SubIterationStats]]:
    """Run direction-alternating lock-free refinement at one level.

    Returns the refined labels and per-sub-iteration statistics
    (:func:`sub_iterations`, then the level-exit balance rounds).
    """
    part = np.asarray(part, dtype=np.int64).copy()
    pweights, max_pw, min_pw = balance_limits(graph, part, k, ubfactor)
    passes = sub_iterations(graph, part, pweights, k, max_pw, min_pw, max_passes)
    # Level-exit balance guarantee: keep evacuating while any partition is
    # overweight and progress is possible, so the finest level never needs
    # a quality-destroying global rebalance.
    exits = balance_rounds(graph, part, pweights, k, max_pw, k)
    return part, [stats for *_, stats in passes] + [stats for *_, stats in exits]
