"""The parallel Jostle driver (paper Sec. II.A/II.B background system).

Jostle's signature moves, per the paper:

* coarsening continues until "the number of vertices in the coarse graph
  is equal to the number of required partitions", making "the initial
  partitioning phase ... trivial";
* parallel Jostle coarsens distributed until a threshold, then
  all-to-all broadcasts the coarse graph and finishes independently;
* uncoarsening uses "a combined balancing and refinement algorithm" — a
  move "is accepted even if it makes the partitions unbalanced", fixed
  in following steps — executed on isolated interface regions pair by
  pair with serial KL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import Engine, EngineOptions, PhaseOutput
from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut
from ..parmetis.distgraph import DistGraph
from ..parmetis.matching import distributed_match
from ..runtime.clock import SimClock
from ..runtime.mpi import MpiSim
from ..runtime.trace import Step, Trace
from ..serial.coarsen import CoarseningLadder
from ..serial.contraction import contract
from ..serial.kway import balance_limits, final_rebalance
from ..serial.matching import check_scheme, sequential_match
from ..mtmetis.refinement import balance_rounds
from ..serial.project import project_partition
from .interface import FM_PASSES, refine_interfaces

__all__ = ["Jostle", "JostleOptions"]

#: Stop coarsening at ~this multiple of k (1 = the paper's "equal to the
#: number of required partitions"; slightly above keeps the trivial
#: assignment balanced on weighted coarse vertices).
COARSEN_TO_FACTOR = 2
#: Stop if a level shrinks the graph by less than this fraction.
MIN_SHRINK = 0.02
#: Interface-refinement sweeps per uncoarsening level.
REFINE_SWEEPS = 2


@dataclass(frozen=True)
class JostleOptions(EngineOptions):
    """Knobs of the parallel Jostle reproduction."""

    num_ranks: int = 8
    #: Matching scheme: "hem" (heavy edge), "rm" (random), "lem" (light edge).
    matching: str = "hem"
    #: Switch from distributed to replicated coarsening below this size.
    broadcast_threshold: int = 4096

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_ranks < 1:
            raise InvalidParameterError("num_ranks must be >= 1")
        check_scheme(self.matching)


class Jostle(Engine):
    """Parallel multilevel partitioner in Jostle's style."""

    name = "jostle"
    options_class = JostleOptions

    @staticmethod
    def _trivial_assignment(coarse: CSRGraph, k: int) -> np.ndarray:
        """Deal coarse vertices to partitions, one greedy sweep.

        When coarsening reaches exactly k vertices this is the identity
        (the paper's "trivial" initial partitioning); above k, vertices
        join the best-connected partition with headroom (lightest as the
        tie-break/fallback) in descending weight order, so each partition
        stays one near-connected cluster.
        """
        n = coarse.num_vertices
        part = np.full(n, -1, dtype=np.int64)
        if n <= k:
            return np.arange(n, dtype=np.int64)
        cap = 1.10 * coarse.total_vertex_weight / k
        weights = np.zeros(k, dtype=np.float64)
        order = np.argsort(-coarse.vwgt.astype(np.int64), kind="stable")
        # Seed the k partitions with the k heaviest vertices.
        for p, v in enumerate(order[:k]):
            part[v] = p
            weights[p] = float(coarse.vwgt[v])
        for v in order[k:]:
            nbrs = coarse.neighbors(int(v))
            ws = coarse.edge_weights(int(v))
            conn = np.zeros(k, dtype=np.float64)
            assigned = part[nbrs] >= 0
            np.add.at(conn, part[nbrs[assigned]], ws[assigned].astype(np.float64))
            conn[weights + coarse.vwgt[v] > cap] = -1.0
            p = int(np.argmax(conn))
            if conn[p] <= 0:
                p = int(np.argmin(weights))
            part[v] = p
            weights[p] += float(coarse.vwgt[v])
        return part

    def run_phases(self, graph: CSRGraph, k: int, clock: SimClock) -> PhaseOutput:
        opts = self.options
        trace = Trace()
        mpi = MpiSim(opts.num_ranks, self.machine.cpu, self.machine.interconnect, clock)
        rng = np.random.default_rng(opts.seed)

        # --------------------------------------------------------------
        # Coarsening: distributed, then broadcast + replicated, down to
        # ~k vertices.
        # --------------------------------------------------------------
        clock.set_phase("coarsening")
        ladder = CoarseningLadder(
            graph, COARSEN_TO_FACTOR * k, trace, min_shrink=MIN_SHRINK
        )
        broadcast_done = False
        for level_idx, current in ladder:
            avg_deg = 2 * current.num_edges / max(1, current.num_vertices)
            if not broadcast_done and current.num_vertices <= opts.broadcast_threshold:
                mpi.allgather(
                    current.nbytes / max(1, opts.num_ranks),
                    detail="all-to-all broadcast before replicated coarsening",
                )
                broadcast_done = True
            if broadcast_done:
                mres = sequential_match(current, opts.matching, rng)
                match = mres.match
                per_rank = np.zeros(mpi.num_ranks)
                per_rank[0] = mres.edge_scans  # replicated: every rank does it
                mpi.compute(per_rank, detail=f"replicated match L{level_idx}",
                            avg_degree=avg_deg)
            else:
                dist = DistGraph.distribute(current, opts.num_ranks)
                match, _ = distributed_match(dist, mpi, scheme=opts.matching, rng=rng)
            coarse, cmap = contract(current, match)
            ladder.add(
                coarse, cmap, engine="mpi-replicated" if broadcast_done else "mpi"
            )
        levels, coarsest = ladder.levels, ladder.coarsest

        # --------------------------------------------------------------
        # Trivial initial partitioning: coarse vertices dealt to the k
        # partitions, heaviest first to the lightest partition.
        # --------------------------------------------------------------
        clock.set_phase("initpart")
        part = self._trivial_assignment(coarsest, k)
        mpi.compute_vertices(
            np.full(mpi.num_ranks, coarsest.num_vertices / mpi.num_ranks),
            detail="trivial initpart",
        )

        # --------------------------------------------------------------
        # Uncoarsening: combined balance/refinement on interface regions.
        # --------------------------------------------------------------
        clock.set_phase("uncoarsening")
        for li in range(len(levels) - 1, -1, -1):
            level = levels[li]
            part = project_partition(part, level.cmap)
            cut = cut_before = edge_cut(level.graph, part)
            steps = []
            # Jostle accepts unbalancing moves mid-sweep; give FM slack
            # and let the following sweep (and finer levels) rebalance.
            sweep_ub = opts.ubfactor + 0.15
            for sweep in range(REFINE_SWEEPS):
                part, round_stats = refine_interfaces(
                    level.graph, part, k,
                    ubfactor=opts.ubfactor if sweep else sweep_ub,
                )
                for rs in round_stats:
                    # A round's pairs spread over the ranks: wall time is
                    # the larger of the slowest region and the average
                    # per-rank share of the round's total work.
                    avg_deg = 1 + 2 * level.graph.num_edges / max(
                        1, level.graph.num_vertices
                    )
                    sizes = rs.region_sizes
                    critical = max(
                        max(sizes, default=0),
                        sum(sizes) / max(1, mpi.num_ranks),
                    ) * avg_deg * (1 + FM_PASSES)
                    per_rank = np.zeros(mpi.num_ranks)
                    per_rank[0] = critical
                    mpi.compute(per_rank, detail=f"interface round L{li}")
                # FM reports its regions' cuts, not the sweep's gain.
                tried = sum(rs.moves_tried for rs in round_stats)
                kept = sum(rs.moves_kept for rs in round_stats)
                before, cut = cut, edge_cut(level.graph, part)
                steps.append(Step(tried, kept, before - cut))
                dist = DistGraph.distribute(level.graph, opts.num_ranks)
                s, d, b = dist.ghost_exchange_payload()
                mpi.exchange(s, d, b, detail=f"interface halo L{li}")
            # The balancing half of "combined balancing and refinement":
            # diffuse excess weight out of overweight partitions before
            # descending to the finer level.
            pweights, max_pw, _ = balance_limits(level.graph, part, k, opts.ubfactor)
            for *_, st in balance_rounds(level.graph, part, pweights, k, max_pw, k):
                steps.append(st.step)
            trace.file_steps(li, "mpi-interface", cut_before, steps)

        final_rebalance(graph, part, k, opts.ubfactor, trace, "mpi")
        return PhaseOutput(
            part,
            trace,
            extras={"num_ranks": opts.num_ranks, "messages": mpi.messages_sent},
            attrs={"num_ranks": opts.num_ranks},
        )
