"""Control parameters of GP-metis (the paper's partitioner)."""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import InvalidParameterError
from ..mtmetis.options import MtMetisOptions
from ..serial.matching import check_scheme

__all__ = ["GPMetisOptions"]


@dataclass(frozen=True)
class GPMetisOptions:
    """Knobs of :class:`repro.gpmetis.GPMetis`.

    The hybrid thresholds bound where GPU execution stops paying off
    (Sec. III: "beyond which coarsening is faster on the CPU than on the
    GPU due to the lack of sufficient parallel tasks").
    """

    ubfactor: float = 1.03
    matching: str = "hem"
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
    coarsen_to_factor: int = 20
    coarsen_min: int = 64
    min_shrink: float = 0.05
    refine_passes: int = 4
    #: Max GPU threads per kernel; per Sec. III.A the count shrinks with
    #: the graph ("we reduce the number of launched threads in the
    #: following levels") — one thread per vertex up to this cap.
    max_gpu_threads: int = 14 * 2048
    seed: int = 1
    #: Enable the gpusim data-race sanitizer: every GPU kernel launch
    #: records per-thread read/write sets, is checked for conflicting
    #: non-atomic accesses, and is replayed under ``fuzz_schedules``
    #: adversarial thread orderings.  Reports land in ``Trace.race_reports``.
    sanitize: bool = False
    #: Number of fuzzed thread schedules per launch when ``sanitize`` is on.
    fuzz_schedules: int = 3
    #: Optional fault plan (see :mod:`repro.faults`): a FaultPlan, a plan
    #: dict, or a path to a plan JSON file.  ``None`` disables injection.
    fault_plan: object = None
    #: Respond to injected faults with retry/degradation (True) or let
    #: them crash the run (False — the mutation ``repro selfcheck`` runs).
    fault_recovery: bool = True
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
        if self.ubfactor < 1.0:
            raise InvalidParameterError("ubfactor must be >= 1.0")
        check_scheme(self.matching)
        if self.merge_strategy not in ("hash", "sort"):
            raise InvalidParameterError(f"unknown merge strategy {self.merge_strategy!r}")
        if self.merge_impl not in ("vectorized", "reference"):
            raise InvalidParameterError(f"unknown merge impl {self.merge_impl!r}")
        if self.gpu_threshold_min < 2 or self.gpu_threshold_factor < 1:
            raise InvalidParameterError("gpu thresholds out of range")
        if self.cpu_threads < 1 or self.max_gpu_threads < 32:
            raise InvalidParameterError("thread counts out of range")
        if self.refine_passes < 1:
            raise InvalidParameterError("refine_passes must be >= 1")
        if self.fuzz_schedules < 1:
            raise InvalidParameterError("fuzz_schedules must be >= 1")

    def gpu_threshold(self, k: int) -> int:
        """Vertex count below which the graph moves to the CPU."""
        return max(self.gpu_threshold_min, self.gpu_threshold_factor * k)

    def coarsen_target(self, k: int) -> int:
        """Size the initial partitioning runs at (same rule as Metis)."""
        return max(self.coarsen_min, self.coarsen_to_factor * k)

    def mtmetis_options(self) -> MtMetisOptions:
        """Options of the CPU middle stage (paper Sec. III.B: mt-metis)."""
        return MtMetisOptions(
            num_threads=self.cpu_threads,
            ubfactor=self.ubfactor,
            matching=self.matching,
            coarsen_to_factor=self.coarsen_to_factor,
            coarsen_min=self.coarsen_min,
            min_shrink=self.min_shrink,
            refine_passes=self.refine_passes,
            seed=self.seed,
        )
