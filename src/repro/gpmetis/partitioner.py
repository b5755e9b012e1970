"""The GP-metis driver (the paper's contribution)."""

from __future__ import annotations

import numpy as np

from ..engine import Engine, PhaseOutput
from ..graphs.csr import CSRGraph
from ..runtime.clock import SimClock
from .hybrid import run_hybrid
from .options import GPMetisOptions

__all__ = ["GPMetis"]


class GPMetis(Engine):
    """Hybrid CPU-GPU multilevel k-way partitioner (GP-metis).

    The GPU handles the parallel-rich fine levels of coarsening and
    un-coarsening; an mt-metis CPU stage covers the small coarse levels
    and the initial partitioning (paper Fig. 1).  Runtime includes the
    CPU<->GPU transfers, as in the paper's Table II.
    """

    name = "gp-metis"
    options_class = GPMetisOptions

    def run_phases(self, graph: CSRGraph, k: int, clock: SimClock) -> PhaseOutput:
        outcome = run_hybrid(graph, k, self.options, self.machine, clock)
        return PhaseOutput(
            np.asarray(outcome.part, dtype=np.int64),
            outcome.trace,
            extras={
                "device_stats": outcome.device.stats,
                "gpu_levels": outcome.gpu_levels,
                "cpu_levels": outcome.cpu_levels,
                "fell_back_to_cpu": outcome.fell_back_to_cpu,
                "merge_fallbacks": outcome.merge_fallbacks,
                "merge_strategy": self.options.merge_strategy,
                "sanitizer": outcome.device.sanitizer,
                "degraded": outcome.degraded,
            },
            attrs={
                "gpu_levels": outcome.gpu_levels,
                "cpu_levels": outcome.cpu_levels,
                "fell_back_to_cpu": outcome.fell_back_to_cpu,
            },
            device_stats=outcome.device.stats,
        )
