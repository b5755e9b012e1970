"""The coarsening level loop with Metis-style stop criteria."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..runtime.clock import SimClock
from ..runtime.machine import CpuSpec
from ..runtime.trace import LevelRecord, Trace
from .contraction import contract
from .matching import sequential_match
from .options import MIN_SHRINK, SerialOptions

__all__ = ["CoarseningLevel", "coarsen_graph"]


@dataclass
class CoarseningLevel:
    """One rung of the multilevel ladder (finer graph + its cmap down)."""

    graph: CSRGraph
    cmap: np.ndarray  # maps this graph's vertices to the next-coarser graph


def coarsen_graph(
    graph: CSRGraph,
    k: int,
    opts: SerialOptions,
    clock: SimClock | None = None,
    cpu: CpuSpec | None = None,
    trace: Trace | None = None,
    rng: np.random.Generator | None = None,
    target: int | None = None,
    engine_label: str = "cpu-serial",
) -> tuple[list[CoarseningLevel], CSRGraph]:
    """Coarsen until the target size or shrink stall.

    Returns the ladder of levels (finest first) and the coarsest graph.
    Every level's work is charged to ``clock`` under the CPU model:
    matching scans + contraction traverse all arcs once each.
    """
    rng = rng or np.random.default_rng(opts.seed)
    target = target if target is not None else opts.coarsen_target(k)
    levels: list[CoarseningLevel] = []
    current = graph
    level_idx = 0
    while current.num_vertices > target:
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
        if trace is not None:
            trace.levels.append(
                LevelRecord(
                    level=level_idx,
                    num_vertices=current.num_vertices,
                    num_edges=current.num_edges,
                    matched_pairs=mres.pairs,
                    self_matches=current.num_vertices - 2 * mres.pairs,
                    engine=engine_label,
                )
            )
        shrink = 1.0 - coarse.num_vertices / current.num_vertices
        levels.append(CoarseningLevel(graph=current, cmap=cmap))
        current = coarse
        level_idx += 1
        if shrink < MIN_SHRINK:
            break
    return levels, current
