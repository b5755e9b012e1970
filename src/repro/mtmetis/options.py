"""Control parameters of the mt-metis reproduction."""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import InvalidParameterError
from ..serial.matching import check_scheme
from ..serial.options import SerialOptions

__all__ = ["MtMetisOptions"]


@dataclass(frozen=True)
class MtMetisOptions:
    """Knobs of :class:`repro.mtmetis.MtMetis` (paper defaults: 8 threads)."""

    num_threads: int = 8
    ubfactor: float = 1.03
    matching: str = "hem"
    coarsen_to_factor: int = 20
    coarsen_min: int = 64
    min_shrink: float = 0.05
    refine_passes: int = 4
    #: Conflicted vertices get one lock-free retry round before
    #: self-matching (mt-metis "the corresponding vertices are matched
    #: again"); GP-metis sets this to 0 (straight to self-match).
    match_retry_rounds: int = 1
    seed: int = 1
    #: Optional fault plan (see :mod:`repro.faults`): a FaultPlan, a plan
    #: dict, or a path to a plan JSON file.  ``None`` disables injection.
    fault_plan: object = None
    #: Respond to injected faults with retry/degradation (True) or let
    #: them crash the run (False — the mutation ``repro selfcheck`` runs).
    fault_recovery: bool = True

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise InvalidParameterError("num_threads must be >= 1")
        if self.ubfactor < 1.0:
            raise InvalidParameterError("ubfactor must be >= 1.0")
        check_scheme(self.matching)
        if self.refine_passes < 1:
            raise InvalidParameterError("refine_passes must be >= 1")
        if self.match_retry_rounds < 0:
            raise InvalidParameterError("match_retry_rounds must be >= 0")

    def coarsen_target(self, k: int) -> int:
        return max(self.coarsen_min, self.coarsen_to_factor * k)

    def serial_options(self) -> SerialOptions:
        """Options for serial sub-phases (bisections on the coarsest graph)."""
        return SerialOptions(
            ubfactor=self.ubfactor,
            matching=self.matching,
            coarsen_to_factor=self.coarsen_to_factor,
            coarsen_min=self.coarsen_min,
            min_shrink=self.min_shrink,
            seed=self.seed,
        )
