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
from ..mtmetis.refinement import (
    balance_rounds,
    commit_moves,
    propose_balance_moves,
    propose_moves,
)
from ..runtime.mpi import MpiSim
from ..runtime.trace import RefinementRecord, Trace
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
    """Refine one level on the MPI model; returns new labels."""
    graph = dist.graph
    part = np.asarray(part, dtype=np.int64).copy()
    total = graph.total_vertex_weight
    ideal = total / k if k else 0.0
    max_pw = ubfactor * ideal
    min_pw = max(0.0, (2.0 - ubfactor) * ideal)
    pweights = np.bincount(part, weights=graph.vwgt.astype(np.float64), minlength=k)
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

    for pass_i in range(max_passes):
        pass_committed = 0
        cut_before = edge_cut(graph, part)
        rounds: list[int] = []
        if pweights.max(initial=0.0) > max_pw:
            rounds.append(0)  # balancing superstep
        rounds += [+1, -1]
        for direction in rounds:
            if direction == 0:
                vs, ds, gs, stats = propose_balance_moves(
                    graph, part, k, pweights, max_pw
                )
            else:
                vs, ds, gs, stats = propose_moves(
                    graph, part, k, direction, pweights, max_pw, min_pw
                )
            commit_moves(
                graph, part, pweights, vs, ds, gs, k, max_pw, stats,
                recheck_gains=(direction != 0),
            )
            pass_committed += stats.committed

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
        cut_after = edge_cut(graph, part)
        trace.refinements.append(
            RefinementRecord(
                level=level_idx, pass_index=pass_i,
                moves_proposed=pass_committed, moves_committed=pass_committed,
                cut_before=cut_before, cut_after=cut_after, engine="mpi",
            )
        )
        if pass_committed == 0:
            break
    # Level-exit balance supersteps, as in the shared-memory engine.
    for vs, ds, _, _ in balance_rounds(graph, part, pweights, k, max_pw, k):
        if vs.size:
            mpi.exchange(
                dist.rank_of[vs], (ds % dist.num_ranks).astype(np.int64),
                np.full(vs.shape[0], 24.0), detail=f"balance moves L{level_idx}",
            )
    return part
