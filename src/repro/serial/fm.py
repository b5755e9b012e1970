"""Fiduccia-Mattheyses boundary refinement for bisections.

The "modified Kernighan-Lin" of paper Sec. II.A.3: boundary vertices move
between the two sides in gain order under a balance constraint; a pass
allows negative-gain hill climbing and rolls back to the best prefix.
Used after each GGGP bisection and inside the parallel partitioners'
initial-partitioning stages.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    tracks the best prefix, and reverts the tail.  ``pinned`` vertices
    contribute gains as context but never move (interface-region halos).
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
    pinned_mask = (
        np.zeros(n, dtype=bool) if pinned is None else np.asarray(pinned, dtype=bool)
    )
    vwgt = graph.vwgt
    adjp, adjncy, adjwgt = graph.adjp, graph.adjncy, graph.adjwgt
    maxw = (ubfactor * target_weights[0], ubfactor * target_weights[1])

    side_w = [int(vwgt[part == 0].sum()), int(vwgt[part == 1].sum())]
    from ..graphs.metrics import edge_cut

    cut = edge_cut(graph, part)
    total_moves = 0
    passes_run = 0

    for _ in range(max_passes):
        passes_run += 1
        gains = bisection_gains(graph, part).astype(np.float64)
        locked = pinned_mask.copy()
        history: list[int] = []
        best_prefix = 0
        best_cut = cut
        running_cut = cut
        stall = 0

        while True:
            # Movable: unlocked and balance-feasible after the move.
            cand = gains.copy()
            cand[locked] = -np.inf
            dest = 1 - part
            feasible = (
                np.array(side_w)[dest] + vwgt <= np.array(maxw)[dest]
            )
            cand[~feasible] = -np.inf
            v = int(np.argmax(cand))
            if not np.isfinite(cand[v]):
                break
            g = int(gains[v])
            s = int(part[v])
            d = 1 - s
            part[v] = d
            side_w[s] -= int(vwgt[v])
            side_w[d] += int(vwgt[v])
            locked[v] = True
            running_cut -= g
            history.append(v)
            # Incremental neighbor gain update: an edge to v's new side
            # just became internal for same-side neighbors (their gain
            # drops) and external for the ones left behind (gain rises).
            a, b = adjp[v], adjp[v + 1]
            nbrs = adjncy[a:b]
            ws = adjwgt[a:b]
            same_side = part[nbrs] == d
            gains[nbrs[same_side]] -= 2 * ws[same_side]
            gains[nbrs[~same_side]] += 2 * ws[~same_side]
            gains[v] = -g

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
            d = int(part[v])
            s = 1 - d
            part[v] = s
            side_w[d] -= int(vwgt[v])
            side_w[s] += int(vwgt[v])
        total_moves += best_prefix
        if best_cut >= cut:
            cut = best_cut
            break
        cut = best_cut

    return FMResult(part, cut, passes_run, total_moves)
