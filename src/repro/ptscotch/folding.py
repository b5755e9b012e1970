"""PT-Scotch's fold-and-duplicate coarsening (paper Sec. II.B).

"To reduce the communication overhead among the processors, a folding
technique is used after several coarsening levels in which the vertices
of the coarser graph are duplicated and redistributed to two groups,
each to P/2 of the processors.  The two groups can continue the matching
phase independently.  This folding process continues recursively (P/4,
P/8, ...) until each sub-graph is reduced to a single processor.  Then a
serial recursive bi-sectioning is performed on each processor and the
best initial partitioning is chosen."

The fold itself is a *distribution* change, not a graph change: after a
fold, the same coarse graph lives (duplicated) on each group, so the
groups' subsequent matchings diverge only by their random seeds — which
is exactly what buys the "best of P" initial partitions at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.csr import CSRGraph
from ..runtime.mpi import MpiSim

__all__ = ["FoldState", "should_fold", "fold"]


@dataclass
class FoldState:
    """Which rank group this (duplicated) graph instance belongs to."""

    group_size: int       # ranks in this group
    generation: int = 0   # how many folds happened so far

    @property
    def is_single_rank(self) -> bool:
        return self.group_size <= 1


def should_fold(graph: CSRGraph, state: FoldState, fold_threshold: int) -> bool:
    """Fold when the per-rank share of the graph drops under the
    threshold — communication then costs more than duplicating."""
    if state.is_single_rank:
        return False
    return graph.num_vertices // state.group_size < fold_threshold


def fold(
    graph: CSRGraph, state: FoldState, mpi: MpiSim
) -> FoldState:
    """Charge the duplication/redistribution and halve the group.

    Every rank of one half receives the other half's share of the graph:
    an allgather within the group of the full CSR payload.
    """
    mpi.allgather(
        graph.nbytes / max(1, state.group_size),
        detail=f"fold gen{state.generation} ({state.group_size}->"
               f"{state.group_size // 2} ranks)",
    )
    return FoldState(
        group_size=max(1, state.group_size // 2),
        generation=state.generation + 1,
    )
