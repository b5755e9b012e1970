"""GPU<->CPU switch policy (paper Sec. III, Fig. 1).

"The coarsening continues level-by-level until reaching a threshold,
beyond which coarsening is faster on the CPU than on the GPU due to the
lack of sufficient parallel tasks.  Thus, at the threshold level, the
coarse graph is transferred to the CPU ..."  The same threshold governs
when the partitioned graph returns to the GPU during un-coarsening.

The policy is exposed separately so the threshold-sweep ablation (A3 in
DESIGN.md) can vary it without touching the driver.
"""

from __future__ import annotations

from ..runtime.machine import GpuSpec
from .options import GPMetisOptions

__all__ = ["gpu_stop_size"]


def gpu_stop_size(opts: GPMetisOptions, k: int) -> int:
    """Vertex count at which coarsening hands over to the CPU.

    Never below the initial-partitioning target: the CPU stage must have
    levels of its own only if the switch size exceeds the target.
    """
    return max(opts.gpu_threshold(k), opts.coarsen_target(k))


def breakeven_estimate(gpu: GpuSpec, cpu_edge_ops_per_sec: float, avg_degree: float) -> float:
    """Analytic break-even |V| where one GPU coarsening level's overheads
    (launches + scans) equal the CPU's per-level sweep time.

    Used by the threshold ablation to sanity-check the default: below this
    size the GPU's ~10 kernel launches per level dominate the work.
    """
    launches_per_level = 10.0
    overhead = launches_per_level * gpu.kernel_launch_seconds
    # CPU sweep: ~2 passes over the arcs; GPU memory time for the same.
    per_vertex_cpu = 2.0 * avg_degree / cpu_edge_ops_per_sec
    per_vertex_gpu = 2.0 * avg_degree * 8.0 / gpu.effective_bandwidth
    denom = per_vertex_cpu - per_vertex_gpu
    if denom <= 0:
        return float("inf")
    return overhead / denom
