"""Control parameters of the ParMetis reproduction."""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import InvalidParameterError
from ..serial.matching import check_scheme
from ..serial.options import SerialOptions

__all__ = ["ParMetisOptions"]


@dataclass(frozen=True)
class ParMetisOptions:
    """Knobs of :class:`repro.parmetis.ParMetis` (paper defaults: 8 ranks)."""

    num_ranks: int = 8
    ubfactor: float = 1.03
    matching: str = "hem"
    #: Alternating-direction match passes per level ("after a few passes,
    #: a maximal set is reached").
    match_passes: int = 4
    coarsen_to_factor: int = 20
    coarsen_min: int = 64
    min_shrink: float = 0.05
    refine_passes: int = 4
    seed: int = 1
    #: Optional fault plan (see :mod:`repro.faults`): a FaultPlan, a plan
    #: dict, or a path to a plan JSON file.  ``None`` disables injection.
    fault_plan: object = None
    #: Respond to injected faults with retry/degradation (True) or let
    #: them crash the run (False — the mutation ``repro selfcheck`` runs).
    fault_recovery: bool = True

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise InvalidParameterError("num_ranks must be >= 1")
        if self.ubfactor < 1.0:
            raise InvalidParameterError("ubfactor must be >= 1.0")
        check_scheme(self.matching)
        if self.match_passes < 1 or self.refine_passes < 1:
            raise InvalidParameterError("pass counts must be >= 1")

    def coarsen_target(self, k: int) -> int:
        return max(self.coarsen_min, self.coarsen_to_factor * k)

    def serial_options(self) -> SerialOptions:
        return SerialOptions(
            ubfactor=self.ubfactor,
            matching=self.matching,
            coarsen_to_factor=self.coarsen_to_factor,
            coarsen_min=self.coarsen_min,
            min_shrink=self.min_shrink,
            seed=self.seed,
        )
