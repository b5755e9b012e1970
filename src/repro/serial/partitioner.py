"""The serial multilevel partitioner (the paper's Metis baseline).

Coarsen with sequential HEM, bisect the coarsest graph recursively with
GGGP + FM, then project back level by level with greedy k-way refinement
— the three-phase structure of paper Sec. II.A.  All work is charged to
the single-core CPU model, making this the denominator of every speedup
in Fig. 5.
"""

from __future__ import annotations

import numpy as np

from ..engine import Engine, PhaseOutput
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut
from ..runtime.clock import SimClock
from ..runtime.trace import Trace
from .bisection import bisection_sweeps, recursive_bisection
from .coarsen import coarsen_graph
from .kway import kway_refine
from .options import SerialOptions
from .project import project_partition

__all__ = ["SerialMetis"]


class SerialMetis(Engine):
    """Serial Metis-style multilevel k-way partitioner.

    A single-core engine has no faultable substrate (no device, pool or
    MPI layer): a fault plan attaches but never fires, and the metrics
    report that honestly.
    """

    name = "metis"
    options_class = SerialOptions

    def run_phases(self, graph: CSRGraph, k: int, clock: SimClock) -> PhaseOutput:
        opts = self.options
        trace = Trace()
        rng = np.random.default_rng(opts.seed)

        # Phase 1: coarsening.
        clock.set_phase("coarsening")
        levels, coarsest = coarsen_graph(
            graph, k, opts, clock=clock, cpu=self.machine.cpu, trace=trace, rng=rng
        )

        # Phase 2: initial partitioning on the coarsest graph.
        clock.set_phase("initpart")
        part = recursive_bisection(coarsest, k, opts, rng=rng)
        sweeps = bisection_sweeps(k)
        bisect_sec = self.machine.cpu.edge_seconds(
            sweeps * coarsest.num_directed_edges,
            avg_degree=2 * coarsest.num_edges / max(1, coarsest.num_vertices),
        )
        clock.charge(
            "compute", bisect_sec,
            count=float(sweeps * coarsest.num_directed_edges),
            detail="recursive bisection",
        )
        hw = getattr(clock, "hw", None)
        if hw is not None:
            hw.record_cpu("edge", float(sweeps * coarsest.num_directed_edges),
                          bisect_sec, bisect_sec / self.machine.cpu.num_cores)

        # Phase 3: uncoarsening with greedy k-way refinement.
        clock.set_phase("uncoarsening")
        for level_idx in range(len(levels) - 1, -1, -1):
            level = levels[level_idx]
            part = project_partition(part, level.cmap)
            project_sec = self.machine.cpu.vertex_seconds(level.graph.num_vertices)
            clock.charge(
                "compute", project_sec,
                count=float(level.graph.num_vertices),
                detail=f"project level {level_idx}",
            )
            if hw is not None:
                hw.record_cpu("vertex", float(level.graph.num_vertices),
                              project_sec,
                              project_sec / self.machine.cpu.num_cores)
                # part[cmap] gathers one 8 B label per fine vertex.
                hw.record_random_bytes(8.0 * level.graph.num_vertices)
            cut = edge_cut(level.graph, part)
            part, passes = kway_refine(level.graph, part, k, ubfactor=opts.ubfactor)
            trace.file_steps(level_idx, "cpu-serial", cut, passes)
            for pres in passes:
                if pres.balancing:  # the level-start rebalance is not charged
                    continue
                pass_sec = self.machine.cpu.edge_seconds(
                    pres.edge_scans,
                    avg_degree=2 * level.graph.num_edges
                    / max(1, level.graph.num_vertices),
                )
                clock.charge(
                    "compute", pass_sec,
                    count=float(pres.edge_scans),
                    detail=f"kway pass level {level_idx}",
                )
                if hw is not None:
                    hw.record_cpu("edge", float(pres.edge_scans), pass_sec,
                                  pass_sec / self.machine.cpu.num_cores)
        return PhaseOutput(part, trace)
