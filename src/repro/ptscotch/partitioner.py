"""The PT-Scotch driver (paper Sec. II.B background system).

Pipeline: Monte-Carlo matching with folding during coarsening; once each
group is down to one rank, serial recursive bisection per rank with the
best initial partition elected; banded refinement during uncoarsening.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import Engine, PhaseOutput
from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut
from ..parmetis.distgraph import DistGraph
from ..runtime.clock import SimClock
from ..runtime.mpi import MpiSim
from ..runtime.trace import RefinementRecord, Trace
from ..serial.bisection import bisection_sweeps, recursive_bisection
from ..serial.coarsen import CoarseningLadder
from ..serial.contraction import contract
from ..serial.kway import final_rebalance
from ..serial.options import MultilevelOptions
from ..serial.project import project_partition
from .band import band_refine
from .folding import FoldState, fold, should_fold
from .matching import montecarlo_match

__all__ = ["PTScotch", "PTScotchOptions"]


@dataclass(frozen=True)
class PTScotchOptions(MultilevelOptions):
    """Knobs of the PT-Scotch reproduction."""

    num_ranks: int = 8
    #: Fold when the per-rank vertex share drops below this.
    fold_threshold: int = 2048
    refine_passes: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_ranks < 1:
            raise InvalidParameterError("num_ranks must be >= 1")
        if self.refine_passes < 1:
            raise InvalidParameterError("refine_passes must be >= 1")


class PTScotch(Engine):
    """Distributed multilevel partitioner in PT-Scotch's style."""

    name = "pt-scotch"
    options_class = PTScotchOptions

    def run_phases(self, graph: CSRGraph, k: int, clock: SimClock) -> PhaseOutput:
        opts = self.options
        trace = Trace()
        mpi = MpiSim(opts.num_ranks, self.machine.cpu, self.machine.interconnect, clock)
        rng = np.random.default_rng(opts.seed)

        # --------------------------------------------------------------
        # Coarsening with Monte-Carlo matching + folding.
        # --------------------------------------------------------------
        clock.set_phase("coarsening")
        state = FoldState(group_size=opts.num_ranks)
        folds = 0
        ladder = CoarseningLadder(graph, opts.coarsen_target(k), trace)
        for level_idx, current in ladder:
            dist = DistGraph.distribute(current, max(1, state.group_size))
            match, _ = montecarlo_match(dist, mpi, scheme=opts.matching, rng=rng)
            coarse, cmap = contract(current, match)
            per_rank = np.bincount(
                dist.arcs_src_rank(), minlength=dist.num_ranks
            ).astype(np.float64)
            mpi_sub = per_rank if dist.num_ranks == mpi.num_ranks else np.pad(
                per_rank, (0, mpi.num_ranks - dist.num_ranks)
            )
            mpi.compute(mpi_sub, detail=f"contract L{level_idx}",
                        avg_degree=2 * current.num_edges / max(1, current.num_vertices))
            ladder.add(coarse, cmap, engine=f"mpi-fold{state.generation}")
            if should_fold(coarse, state, opts.fold_threshold):
                state = fold(coarse, state, mpi)
                folds += 1
        coarsest = ladder.coarsest

        # --------------------------------------------------------------
        # Per-rank serial RB; elect the best initial partition.
        # --------------------------------------------------------------
        clock.set_phase("initpart")
        best_part = None
        best_cut = None
        trials = max(1, opts.num_ranks >> state.generation) if state.generation else opts.num_ranks
        for t in range(min(trials, opts.num_ranks)):
            cand = recursive_bisection(
                coarsest, k, opts.serial_options(),
                rng=np.random.default_rng(opts.seed + 101 * t),
            )
            cut = edge_cut(coarsest, cand)
            if best_cut is None or cut < best_cut:
                best_cut, best_part = cut, cand
        assert best_part is not None
        part = best_part
        per_rank = np.zeros(mpi.num_ranks)
        per_rank[0] = bisection_sweeps(k) * coarsest.num_directed_edges
        mpi.compute(per_rank, detail="per-rank serial RB",
                    avg_degree=2 * coarsest.num_edges / max(1, coarsest.num_vertices))
        mpi.allreduce(detail="initpart best-cut election")

        # --------------------------------------------------------------
        # Uncoarsening with banded refinement.
        # --------------------------------------------------------------
        clock.set_phase("uncoarsening")
        for li in range(len(ladder.levels) - 1, -1, -1):
            level = ladder.levels[li]
            part = project_partition(part, level.cmap)
            cut_before = edge_cut(level.graph, part)
            part, band_size = band_refine(
                level.graph, part, k, opts.ubfactor, opts.refine_passes
            )
            dist = DistGraph.distribute(level.graph, opts.num_ranks)
            band_share = band_size / max(1, level.graph.num_vertices)
            mpi.compute(
                dist.per_rank_edges() * band_share + band_size,
                detail=f"band refine L{li}",
                avg_degree=2 * level.graph.num_edges / max(1, level.graph.num_vertices),
            )
            s, d, b = dist.ghost_exchange_payload()
            mpi.exchange(s, d, b, detail=f"band halo L{li}")
            trace.refinements.append(
                RefinementRecord(
                    level=li, pass_index=0,
                    moves_proposed=band_size, moves_committed=band_size,
                    cut_before=cut_before, cut_after=edge_cut(level.graph, part),
                    engine="mpi-band",
                )
            )

        final_rebalance(graph, part, k, opts.ubfactor)
        trace.note(f"{folds} folds performed")
        return PhaseOutput(
            part,
            trace,
            extras={"num_ranks": opts.num_ranks, "folds": folds,
                    "messages": mpi.messages_sent},
            attrs={"num_ranks": opts.num_ranks},
        )
