"""Device-memory planning for the hybrid pipeline.

The paper's constraint #1 (Sec. V): "memory constraints to hold large
graphs".  GP-metis keeps every GPU coarsening level's arrays resident
(the "pointer arrays" of Sec. III.A), so the footprint is the sum of a
geometric ladder of CSR levels plus per-level cmap/match scratch.  This
module predicts that footprint *before* any allocation, letting callers
decide between the GPU pipeline and CPU fallback up front instead of
discovering OOM mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.csr import CSRGraph
from ..runtime.machine import GpuSpec
from .options import MAX_GPU_THREADS, GPMetisOptions
from .thresholds import gpu_stop_size

__all__ = ["MemoryPlan", "plan_device_memory"]

_INT = 8  # bytes per int64 element


@dataclass(frozen=True)
class MemoryPlan:
    """Predicted device footprint of a GP-metis run."""

    input_bytes: int
    ladder_bytes: int       # all retained coarsening levels
    scratch_bytes: int      # staging arrays of the largest contraction
    hash_table_bytes: int   # per-thread tables if the hash merge is used
    total_bytes: int
    device_bytes: int
    predicted_gpu_levels: int
    #: Extra staging residency of the double-buffered async schedule
    #: (in-flight copy buffers held alongside the buffers kernels read).
    #: Zero for the serial schedule.
    staging_bytes: int = 0

    @property
    def fits(self) -> bool:
        return self.total_bytes + self.staging_bytes <= self.device_bytes

    @property
    def recommended_devices(self) -> int:
        """How many paper-spec GPUs a multi-GPU run would need."""
        if self.device_bytes <= 0:
            return 1
        return max(1, -(-self.total_bytes // self.device_bytes))


def plan_device_memory(
    graph: CSRGraph,
    k: int,
    opts: GPMetisOptions | None = None,
    gpu: GpuSpec | None = None,
    shrink_per_level: float = 0.62,
    double_buffer: bool = False,
) -> MemoryPlan:
    """Estimate the run's device footprint.

    ``shrink_per_level`` is the typical per-level vertex-count ratio for
    lock-free HEM on irregular graphs (conflicts leave ~35-45 % of
    vertices self-matched per the measured traces).

    ``double_buffer=True`` plans for the async-streams schedule: while an
    upload/download is in flight on the copy stream, its buffer must stay
    live alongside whatever the compute stream is using, so the peak
    grows by one copy of the largest level's CSR.  The hybrid engine
    checks this plan against the Titan's 6 GB and drops back to the
    single-buffer (serial-transfer) schedule when it would not fit —
    degrading bandwidth, never correctness, instead of OOM-evacuating
    mid-run.
    """
    opts = opts or GPMetisOptions()
    gpu = gpu or GpuSpec()
    stop_at = gpu_stop_size(opts, k)

    n, m2 = graph.num_vertices, graph.num_directed_edges
    csr = (n + 1) * _INT + 2 * m2 * _INT + n * _INT  # adjp + adjncy/adjwgt + vwgt
    input_bytes = csr

    ladder = 0
    scratch_peak = 0
    levels = 0
    cur_n, cur_m2 = n, m2
    while cur_n > stop_at:
        # Level arrays retained for projection: CSR + cmap + match.
        level_csr = (cur_n + 1) * _INT + 2 * cur_m2 * _INT + cur_n * _INT
        ladder += level_csr + 2 * cur_n * _INT
        # Contraction staging peaks at tadjncy+tadjwgt (~ 2x arcs) + temps.
        scratch_peak = max(scratch_peak, 2 * cur_m2 * _INT + 4 * MAX_GPU_THREADS * _INT)
        cur_n = max(1, int(cur_n * shrink_per_level))
        cur_m2 = max(0, int(cur_m2 * shrink_per_level))
        levels += 1
        if levels > 64:
            break

    hash_bytes = 0
    if opts.merge_strategy == "hash" and levels:
        first_coarse = max(1, int(n * shrink_per_level))
        hash_bytes = first_coarse * min(n, MAX_GPU_THREADS) * 16

    # The input CSR *is* the ladder's level 0; don't count it twice.  A
    # run with no GPU levels still holds the input on the device.
    total = max(input_bytes, ladder) + scratch_peak
    staging = input_bytes if double_buffer else 0
    return MemoryPlan(
        input_bytes=input_bytes,
        ladder_bytes=ladder,
        scratch_bytes=scratch_peak,
        hash_table_bytes=hash_bytes,
        total_bytes=total,
        device_bytes=gpu.memory_bytes,
        predicted_gpu_levels=levels,
        staging_bytes=staging,
    )
