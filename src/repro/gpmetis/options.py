"""Control parameters of GP-metis (the paper's partitioner)."""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import InvalidParameterError
from ..mtmetis.options import MtMetisOptions
from ..serial.options import MultilevelOptions

__all__ = ["GPMetisOptions", "MAX_GPU_THREADS"]

#: Max GPU threads per kernel; per Sec. III.A the count shrinks with the
#: graph ("we reduce the number of launched threads in the following
#: levels") — one thread per vertex up to this cap (14 SMs x 2048).
MAX_GPU_THREADS = 14 * 2048


@dataclass(frozen=True)
class GPMetisOptions(MultilevelOptions):
    """Knobs of :class:`repro.gpmetis.GPMetis`.

    The hybrid thresholds bound where GPU execution stops paying off
    (Sec. III: "beyond which coarsening is faster on the CPU than on the
    GPU due to the lack of sufficient parallel tasks").
    """

    #: Adjacency-merge strategy for contraction: "hash" (clustered hash
    #: table) or "sort" (per-thread quicksort + dedup) — Sec. III.A.
    merge_strategy: str = "hash"
    #: Merge implementation: "vectorized" computes the identical coarse
    #: graph with numpy (fast path; costs still follow merge_strategy);
    #: "reference" runs the per-vertex hash table / sort-dedup loops
    #: exactly as a CUDA thread would (slow; used by tests/small graphs).
    merge_impl: str = "vectorized"
    #: Hand the graph to the CPU when the coarse graph drops below
    #: max(gpu_threshold_factor * k, gpu_threshold_min) vertices.
    gpu_threshold_factor: int = 64
    gpu_threshold_min: int = 4096
    #: Number of CPU threads for the mt-metis middle stage (paper: 8).
    cpu_threads: int = 8
    refine_passes: int = 4
    #: Enable the gpusim data-race sanitizer: every GPU kernel launch
    #: records per-thread read/write sets, is checked for conflicting
    #: non-atomic accesses, and is replayed under ``fuzz_schedules``
    #: adversarial thread orderings.  Reports land in ``Trace.race_reports``.
    sanitize: bool = False
    #: Number of fuzzed thread schedules per launch when ``sanitize`` is on.
    fuzz_schedules: int = 3
    #: Overlap PCIe transfers with kernel execution on asynchronous
    #: streams (double-buffered pipelining + fused match/resolve launch).
    #: ``False`` keeps the old fully serial schedule — the differential
    #: oracle: partition vectors are byte-identical either way, only the
    #: modeled wall time changes.
    async_streams: bool = True

    #: Fields that change scheduling/accounting but never the computed
    #: partition; the ledger's config fingerprint ignores them so on/off
    #: runs of the same workload stay comparable (and gateable).
    __fingerprint_exclude__ = frozenset({"async_streams"})

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.merge_strategy not in ("hash", "sort"):
            raise InvalidParameterError(f"unknown merge strategy {self.merge_strategy!r}")
        if self.merge_impl not in ("vectorized", "reference"):
            raise InvalidParameterError(f"unknown merge impl {self.merge_impl!r}")
        if self.gpu_threshold_min < 2 or self.gpu_threshold_factor < 1:
            raise InvalidParameterError("gpu thresholds out of range")
        if self.cpu_threads < 1:
            raise InvalidParameterError("cpu_threads must be >= 1")
        if self.refine_passes < 1:
            raise InvalidParameterError("refine_passes must be >= 1")
        if self.fuzz_schedules < 1:
            raise InvalidParameterError("fuzz_schedules must be >= 1")

    def gpu_threshold(self, k: int) -> int:
        """Vertex count below which the graph moves to the CPU."""
        return max(self.gpu_threshold_min, self.gpu_threshold_factor * k)

    def mtmetis_options(self) -> MtMetisOptions:
        """Options of the CPU middle stage (paper Sec. III.B: mt-metis)."""
        return MtMetisOptions(
            num_threads=self.cpu_threads,
            ubfactor=self.ubfactor,
            matching=self.matching,
            coarsen_min=self.coarsen_min,
            refine_passes=self.refine_passes,
            seed=self.seed,
        )
