"""Distributed refinement (ParMetis Sec. II.B, un-coarsening).

"At the end of each pass, the requests for movement of vertices across
the partitions are communicated among the processors, and the movements
that do not violate the balance constraints are committed."

The move semantics are the same bulk-synchronous propose/commit scheme as
the shared-memory refinement (alternating direction, snapshot gains,
per-partition weight caps) — ParMetis pays for it in messages instead of
barriers: each pass ships movement requests and label updates for cut
arcs across ranks.
"""

from __future__ import annotations

import numpy as np

from ..graphs.metrics import edge_cut
from ..mtmetis.refinement import balance_rounds, sub_iterations
from ..runtime.mpi import MpiSim
from ..runtime.trace import Trace
from ..serial.kway import balance_limits
from .distgraph import DistGraph

__all__ = ["distributed_refine_level"]


def distributed_refine_level(
    dist: DistGraph,
    part: np.ndarray,
    k: int,
    ubfactor: float,
    max_passes: int,
    mpi: MpiSim,
    trace: Trace,
    level_idx: int,
) -> np.ndarray:
    """Refine one level on the MPI model; returns new labels.

    Files each sub-iteration (a balancing superstep, then the two move
    directions) and each level-exit balance superstep in ``trace``.
    """
    graph = dist.graph
    cut = edge_cut(graph, part)
    part = np.asarray(part, dtype=np.int64).copy()
    pweights, max_pw, min_pw = balance_limits(graph, part, k, ubfactor)
    # The halo and each rank's scan depend on the graph and its
    # distribution only, never on the labels: build them once per level.
    # Each rank scans its owned vertices' arcs plus the ghost arcs it
    # replicates (ParMetis keeps remote endpoints duplicated), plus
    # message pack/unpack work per halo item.
    halo = dist.ghost_exchange_payload()
    scan = (
        dist.per_rank_edges() + dist.ghost_arcs_per_rank()
        + 2.0 * np.bincount(halo[0], minlength=dist.num_ranks)
    )

    steps = []
    # One superstep per sub-iteration (a balancing one first when overweight).
    for vs, ds, stats in sub_iterations(
        graph, part, pweights, k, max_pw, min_pw, max_passes
    ):
        steps.append(stats.step)
        mpi.compute(
            scan, detail=f"refine scan L{level_idx}",
            avg_degree=2 * graph.num_edges / max(1, graph.num_vertices),
        )
        # Movement requests: proposals owned by one rank, decided by the
        # partition's coordinator rank (partition p -> rank p % P).
        if vs.size:
            src_rank = dist.rank_of[vs]
            dst_rank = (ds % dist.num_ranks).astype(np.int64)
            mpi.exchange(
                src_rank, dst_rank, np.full(vs.shape[0], 24.0),
                detail=f"move requests L{level_idx}",
            )
        # Committed labels propagate along cut arcs (halo update).
        mpi.exchange(*halo, detail=f"halo update L{level_idx}")
    # Level-exit balance supersteps, as in the shared-memory engine.
    for vs, ds, _, stats in balance_rounds(graph, part, pweights, k, max_pw, k):
        steps.append(stats.step)
        if vs.size:
            mpi.exchange(
                dist.rank_of[vs], (ds % dist.num_ranks).astype(np.int64),
                np.full(vs.shape[0], 24.0), detail=f"balance moves L{level_idx}",
            )
    trace.file_steps(level_idx, "mpi", cut, steps)
    return part
