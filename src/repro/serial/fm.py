"""Fiduccia-Mattheyses boundary refinement for bisections.

The "modified Kernighan-Lin" of paper Sec. II.A.3: boundary vertices move
between the two sides in gain order under a balance constraint; a pass
allows negative-gain hill climbing and rolls back to the best prefix.
Used after each GGGP bisection and inside the parallel partitioners'
initial-partitioning stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph

__all__ = ["FMResult", "fm_refine_bisection", "bisection_gains"]

#: Abort a pass after this many consecutive non-improving moves.
_STALL_LIMIT = 64


@dataclass(frozen=True)
class FMResult:
    part: np.ndarray
    cut: int
    passes_run: int
    moves_committed: int


def bisection_gains(graph: CSRGraph, part: np.ndarray) -> np.ndarray:
    """FM gain of every vertex: external minus internal incident weight."""
    src = graph.source_array()
    same = part[src] == part[graph.adjncy]
    signed = np.where(same, -graph.adjwgt, graph.adjwgt)
    gains = np.zeros(graph.num_vertices, dtype=np.int64)
    np.add.at(gains, src, signed)
    return gains


def fm_refine_bisection(
    graph: CSRGraph,
    part: np.ndarray,
    target_weights: tuple[int, int],
    ubfactor: float = 1.03,
    max_passes: int = 4,
    pinned: np.ndarray | None = None,
) -> FMResult:
    """Refine a 0/1 partition in place semantics (returns a new array).

    ``target_weights`` are the ideal side weights (unequal for non-power-
    of-two recursive bisection); a side may not exceed ``ubfactor x
    target``.  Each pass moves vertices in best-gain order with lockout,
    the lowest id on ties, tracks the best prefix, and reverts the tail;
    it ends when no unlocked vertex fits the other side, or after
    ``_STALL_LIMIT`` moves without a better cut.  ``pinned`` vertices
    contribute gains as context but never move (interface-region halos).

    Each side keeps a lazy max-heap of ``(-gain, vertex)`` per distinct
    vertex weight, over Python-list copies of the CSR: the vertices that
    fit are a prefix of the side's weights in ascending order, so a pick
    reads that prefix's valid tops (unlocked, with exactly that gain)
    rather than all n vertices.  Keys are Python ints while float64
    holds every gain exactly (absolute edge weights summing below
    2**51), float64 past that, so a pick is always the ``np.argmax``
    over float64 gains.  Preconditions (CSR invariants): no adjacency
    list holds a vertex twice, and the total vertex weight is below
    2**53, where integer side weights meet the float caps as float64
    would.
    """
    part = np.asarray(part, dtype=np.int64).copy()
    n = graph.num_vertices
    if part.shape != (n,):
        raise InvalidParameterError(
            f"part has shape {part.shape}, expected ({n},)"
        )
    if np.any((part != 0) & (part != 1)):
        raise InvalidParameterError("bisection labels must be 0 or 1")
    if pinned is not None and np.shape(pinned) != (n,):
        raise InvalidParameterError(
            f"pinned has shape {np.shape(pinned)}, expected ({n},)"
        )
    if n == 0:
        return FMResult(part, 0, 0, 0)
    movable = (
        range(n) if pinned is None
        else np.flatnonzero(~np.asarray(pinned, dtype=bool)).tolist()
    )
    adjp = graph.adjp.tolist()
    adjncy = graph.adjncy.tolist()
    exact = np.abs(graph.adjwgt).sum(dtype=np.float64) < 2**51
    gain_type = np.int64 if exact else np.float64
    # A move shifts each neighbor's gain by twice the edge weight.
    shift = (2 * graph.adjwgt).astype(gain_type).tolist()
    vwgt = graph.vwgt.tolist()
    maxw = (ubfactor * target_weights[0], ubfactor * target_weights[1])

    side_w = [int(graph.vwgt[part == 0].sum()), int(graph.vwgt[part == 1].sum())]
    from ..graphs.metrics import edge_cut

    cut = edge_cut(graph, part)
    labels = part.tolist()
    total_moves = 0
    passes_run = 0

    for _ in range(max_passes):
        passes_run += 1
        neg_gain = (-bisection_gains(graph, part).astype(gain_type)).tolist()
        # key[v]: v's current -gain while it may move, None once locked.
        key: list[int | float | None] = [None] * n
        heap_of: list[list | None] = [None] * n
        classes = ({}, {})
        for v in movable:
            key[v] = neg_gain[v]
            heap = heap_of[v] = classes[labels[v]].setdefault(vwgt[v], [])
            heap.append((neg_gain[v], v))
        by_weight = []
        for side in classes:
            for heap in side.values():
                heapify(heap)
            by_weight.append(sorted(side.items()))
        history: list[int] = []
        best_prefix = 0
        best_cut = cut
        running_cut = cut
        stall = 0

        while True:
            pick = None
            for s in (0, 1):
                dest_w, cap = side_w[1 - s], maxw[1 - s]
                for w, heap in by_weight[s]:
                    if not dest_w + w <= cap:
                        break  # heavier classes do not fit either
                    while heap:
                        top = heap[0]
                        if key[top[1]] == top[0]:
                            if pick is None or top < pick:
                                pick = top
                            break
                        heappop(heap)
            if pick is None:
                break
            g = int(-pick[0])
            v = pick[1]
            s = labels[v]
            d = 1 - s
            labels[v] = d
            side_w[s] -= vwgt[v]
            side_w[d] += vwgt[v]
            key[v] = None
            running_cut -= g
            history.append(v)
            # Incremental neighbor gain update: an edge to v's new side
            # just became internal for same-side neighbors (their gain
            # drops) and external for the ones left behind (gain rises).
            for i in range(adjp[v], adjp[v + 1]):
                u = adjncy[i]
                k = key[u]
                if k is not None:
                    k = k + shift[i] if labels[u] == d else k - shift[i]
                    key[u] = k
                    heappush(heap_of[u], (k, u))

            if running_cut < best_cut:
                best_cut = running_cut
                best_prefix = len(history)
                stall = 0
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    break

        # Roll back moves after the best prefix.
        for v in reversed(history[best_prefix:]):
            d = labels[v]
            s = 1 - d
            labels[v] = s
            side_w[d] -= vwgt[v]
            side_w[s] += vwgt[v]
        part = np.array(labels, dtype=np.int64)
        total_moves += best_prefix
        if best_cut >= cut:
            cut = best_cut
            break
        cut = best_cut

    return FMResult(part, cut, passes_run, total_moves)
