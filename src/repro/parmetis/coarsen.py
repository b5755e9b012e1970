"""Distributed coarsening (ParMetis Sec. II.B).

After the match-request protocol, "the processors decide in parallel how
to collapse the vertices to create the next coarser graph."  Pairs whose
endpoints live on different ranks must ship one endpoint's adjacency list
to the other's owner; that migration volume plus the local merge work is
the level's cost.  The coarse graph itself equals the serial contraction.
"""

from __future__ import annotations

import numpy as np

from ..obs.spans import clock_span
from ..runtime.mpi import MpiSim
from ..runtime.trace import LevelRecord, Trace
from ..serial.coarsen import CoarseningLevel
from ..serial.contraction import contract
from ..serial.options import MIN_SHRINK
from .distgraph import DistGraph
from .matching import distributed_match
from .options import ParMetisOptions

__all__ = ["distributed_coarsen"]


def distributed_coarsen(
    dist: DistGraph,
    k: int,
    opts: ParMetisOptions,
    mpi: MpiSim,
    trace: Trace,
    rng: np.random.Generator,
) -> tuple[list[CoarseningLevel], DistGraph]:
    """Coarsen the distributed graph down to the initial-partitioning size."""
    target = opts.coarsen_target(k)
    levels: list[CoarseningLevel] = []
    current = dist
    level_idx = 0
    while current.graph.num_vertices > target:
        with clock_span(
            mpi.clock, f"level {level_idx}", category="level",
            engine="mpi", num_vertices=current.graph.num_vertices,
        ):
            match, mstats = distributed_match(
                current, mpi, scheme=opts.matching, rng=rng
            )
            # Adjacency migration for cross-rank pairs: the higher-id
            # endpoint's list moves to the lower-id endpoint's owner (8 B
            # per arc entry x 2 for the id+weight pair).
            ids = np.arange(current.graph.num_vertices, dtype=np.int64)
            cross = (match > ids) & (current.rank_of[ids] != current.rank_of[match])
            if np.any(cross):
                movers = match[cross]  # vertices whose lists migrate
                deg = (
                    current.graph.adjp[movers + 1] - current.graph.adjp[movers]
                ).astype(np.float64)
                mpi.exchange(
                    current.rank_of[movers],
                    current.rank_of[ids[cross]],
                    deg * 16.0,
                    detail=f"adjacency migration L{level_idx}",
                )
            # Local contraction work: every rank merges its pairs' lists.
            src_rank = current.arcs_src_rank()
            per_rank = np.bincount(
                src_rank, minlength=current.num_ranks
            ).astype(np.float64)
            mpi.compute(
                per_rank, detail=f"contract L{level_idx}",
                avg_degree=2 * current.graph.num_edges
                / max(1, current.graph.num_vertices),
            )

            coarse_graph, cmap = contract(current.graph, match)
        trace.levels.append(
            LevelRecord(
                level=level_idx,
                num_vertices=current.graph.num_vertices,
                num_edges=current.graph.num_edges,
                matched_pairs=mstats.pairs,
                self_matches=mstats.self_matches,
                engine="mpi",
            )
        )
        shrink = 1.0 - coarse_graph.num_vertices / current.graph.num_vertices
        levels.append(CoarseningLevel(graph=current.graph, cmap=cmap))
        current = DistGraph.distribute(coarse_graph, current.num_ranks)
        level_idx += 1
        if shrink < MIN_SHRINK:
            break
    return levels, current
