"""The ParMetis driver: coarse-grained MPI multilevel partitioning."""

from __future__ import annotations

import numpy as np

from ..engine import Engine, PhaseOutput
from ..graphs.csr import CSRGraph
from ..obs.spans import clock_span
from ..runtime.clock import SimClock
from ..runtime.mpi import MpiSim
from ..runtime.trace import Trace
from ..serial.kway import final_rebalance
from ..serial.project import project_partition
from .coarsen import distributed_coarsen
from .distgraph import DistGraph
from .initpart import distributed_initial_partition
from .options import ParMetisOptions
from .refinement import distributed_refine_level

__all__ = ["ParMetis"]


class ParMetis(Engine):
    """Distributed-memory parallel multilevel k-way partitioner (ParMetis)."""

    name = "parmetis"
    options_class = ParMetisOptions

    def run_phases(self, graph: CSRGraph, k: int, clock: SimClock) -> PhaseOutput:
        opts = self.options
        trace = Trace()
        mpi = MpiSim(opts.num_ranks, self.machine.cpu, self.machine.interconnect, clock)
        rng = np.random.default_rng(opts.seed)

        clock.set_phase("coarsening")
        dist = DistGraph.distribute(graph, opts.num_ranks)
        levels, coarsest = distributed_coarsen(dist, k, opts, mpi, trace, rng)

        clock.set_phase("initpart")
        part = distributed_initial_partition(
            coarsest.graph, k, opts.serial_options(), mpi, rng
        )

        clock.set_phase("uncoarsening")
        for level_idx in range(len(levels) - 1, -1, -1):
            level = levels[level_idx]
            with clock_span(
                clock, f"level {level_idx}", category="level",
                engine="mpi", num_vertices=level.graph.num_vertices,
            ):
                part = project_partition(part, level.cmap)
                level_dist = DistGraph.distribute(level.graph, opts.num_ranks)
                mpi.compute_vertices(
                    level_dist.per_rank_vertices(), detail=f"project L{level_idx}"
                )
                part = distributed_refine_level(
                    level_dist, part, k, opts.ubfactor, opts.refine_passes,
                    mpi, trace, level_idx,
                )

        if final_rebalance(graph, part, k, opts.ubfactor, trace, "mpi") is not None:
            mpi.compute(
                DistGraph.distribute(graph, opts.num_ranks).per_rank_edges(),
                detail="final rebalance",
            )
        return PhaseOutput(
            part,
            trace,
            extras={
                "num_ranks": opts.num_ranks,
                "messages": mpi.messages_sent,
                "message_bytes": mpi.bytes_sent,
                "supersteps": mpi.supersteps,
            },
            attrs={"num_ranks": opts.num_ranks},
        )
