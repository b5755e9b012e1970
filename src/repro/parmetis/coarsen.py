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
from ..runtime.trace import Trace
from ..serial.coarsen import CoarseningLadder, CoarseningLevel
from ..serial.contraction import contract
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
    ladder = CoarseningLadder(dist.graph, opts.coarsen_target(k), trace)
    for level_idx, graph in ladder:
        # Each rung is block-distributed afresh (bookkeeping only: no charge).
        current = DistGraph.distribute(graph, dist.num_ranks)
        with clock_span(
            mpi.clock, f"level {level_idx}", category="level",
            engine="mpi", num_vertices=graph.num_vertices,
        ):
            match, _ = distributed_match(current, mpi, scheme=opts.matching, rng=rng)
            # Adjacency migration for cross-rank pairs: the higher-id
            # endpoint's list moves to the lower-id endpoint's owner (8 B
            # per arc entry x 2 for the id+weight pair).
            ids = np.arange(graph.num_vertices, dtype=np.int64)
            cross = (match > ids) & (current.rank_of[ids] != current.rank_of[match])
            if np.any(cross):
                movers = match[cross]  # vertices whose lists migrate
                deg = (graph.adjp[movers + 1] - graph.adjp[movers]).astype(np.float64)
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
                avg_degree=2 * graph.num_edges / max(1, graph.num_vertices),
            )

            coarse_graph, cmap = contract(graph, match)
        ladder.add(coarse_graph, cmap, engine="mpi")
    return ladder.levels, DistGraph.distribute(ladder.coarsest, dist.num_ranks)
