"""The coarsening ladder every multilevel engine climbs, and Metis's level loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..graphs.csr import CSRGraph
from ..runtime.clock import SimClock
from ..runtime.machine import CpuSpec
from ..runtime.trace import LevelRecord, Trace
from .contraction import contract
from .matching import sequential_match
from .options import MIN_SHRINK, SerialOptions

__all__ = ["CoarseningLadder", "CoarseningLevel", "coarsen_graph"]


@dataclass
class CoarseningLevel:
    """One rung of the multilevel ladder (finer graph + its cmap down)."""

    graph: CSRGraph
    cmap: np.ndarray  # maps this graph's vertices to the next-coarser graph


class CoarseningLadder:
    """The coarsening half of the multilevel cycle (paper Sec. II.A).

    Iterating yields ``(level, graph)`` while ``graph`` has more than
    ``target`` vertices and the last level shrank it by at least
    ``min_shrink``; ``level`` counts this ladder's rungs from 0.  Each
    loop body matches and contracts ``graph`` and ends with :meth:`add`
    (or leaves the loop with ``break``).  Afterwards :attr:`levels` holds
    the rungs, finest first, and :attr:`coarsest` the graph the loop
    stopped at.  The engines vary the body, never the loop.
    """

    def __init__(
        self,
        graph: CSRGraph,
        target: int,
        trace: Trace | None = None,
        *,
        min_shrink: float = MIN_SHRINK,
        level_offset: int = 0,
    ) -> None:
        self.target = target
        self.trace = trace
        self.min_shrink = min_shrink
        self.level_offset = level_offset
        self.levels: list[CoarseningLevel] = []
        self.coarsest = graph
        self._stalled = False

    def stalls(self, fine_n: int, coarse_n: int) -> bool:
        """Whether a level from ``fine_n`` to ``coarse_n`` vertices shrank
        the graph too little to climb on (Metis's "difference ... less
        than a threshold value")."""
        return 1.0 - coarse_n / fine_n < self.min_shrink

    def __iter__(self) -> Iterator[tuple[int, CSRGraph]]:
        while not self._stalled and self.coarsest.num_vertices > self.target:
            yield len(self.levels), self.coarsest

    def add(
        self, coarse: CSRGraph, cmap: np.ndarray, *, engine: str, conflicts: int = 0
    ) -> None:
        """File the level that contracted :attr:`coarsest` into ``coarse``.

        Contraction merges each matched pair into one vertex, so the
        level's pair and self-match counts follow from the two sizes.
        """
        fine = self.coarsest
        pairs = fine.num_vertices - coarse.num_vertices
        if self.trace is not None:
            self.trace.levels.append(
                LevelRecord(
                    level=self.level_offset + len(self.levels),
                    num_vertices=fine.num_vertices,
                    num_edges=fine.num_edges,
                    matched_pairs=pairs,
                    conflicts=conflicts,
                    self_matches=fine.num_vertices - 2 * pairs,
                    engine=engine,
                )
            )
        self.levels.append(CoarseningLevel(graph=fine, cmap=cmap))
        self.coarsest = coarse
        self._stalled = self.stalls(fine.num_vertices, coarse.num_vertices)


def coarsen_graph(
    graph: CSRGraph,
    k: int,
    opts: SerialOptions,
    clock: SimClock | None = None,
    cpu: CpuSpec | None = None,
    trace: Trace | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[list[CoarseningLevel], CSRGraph]:
    """Coarsen with sequential matching until the target size or a stall.

    Returns the ladder of levels (finest first) and the coarsest graph.
    Every level's work is charged to ``clock`` under the CPU model:
    matching scans + contraction traverse all arcs once each.
    """
    rng = rng or np.random.default_rng(opts.seed)
    ladder = CoarseningLadder(graph, opts.coarsen_target(k), trace)
    for level_idx, current in ladder:
        mres = sequential_match(current, opts.matching, rng)
        coarse, cmap = contract(current, mres.match)
        if clock is not None and cpu is not None:
            edge_work = mres.edge_scans + current.num_directed_edges
            avg_deg = 2 * current.num_edges / max(1, current.num_vertices)
            edge_sec = cpu.edge_seconds(edge_work, avg_degree=avg_deg)
            vert_sec = cpu.vertex_seconds(2 * current.num_vertices)
            clock.charge(
                "compute", edge_sec + vert_sec,
                count=float(edge_work),
                detail=f"coarsen level {level_idx}",
            )
            hw = getattr(clock, "hw", None)
            if hw is not None:
                hw.record_cpu("edge", float(edge_work), edge_sec,
                              edge_sec / cpu.num_cores)
                hw.record_cpu("vertex", float(2 * current.num_vertices),
                              vert_sec, vert_sec / cpu.num_cores)
                # Matching chases adjacency lists in vertex order — one
                # scattered 8 B read per scanned arc.
                hw.record_random_bytes(8.0 * mres.edge_scans)
        ladder.add(coarse, cmap, engine="cpu-serial")
    return ladder.levels, ladder.coarsest
