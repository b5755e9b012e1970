"""Control parameters of the serial multilevel partitioner.

Defaults follow Metis (Karypis & Kumar, SIAM JSC 20(1)) and the paper's
experimental setup: 3 % imbalance tolerance, HEM matching, coarsening
until the graph has ~max(COARSEN_FACTOR x k, COARSEN_MIN) vertices or
shrinkage stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import InvalidParameterError
from .matching import check_scheme

__all__ = ["SerialOptions"]


@dataclass(frozen=True)
class SerialOptions:
    """Knobs of :class:`repro.serial.SerialMetis`."""

    #: Balance tolerance: max part weight <= ubfactor x ideal (paper: 1.03).
    ubfactor: float = 1.03
    #: Matching scheme: "hem" (heavy edge), "rm" (random), "lem" (light edge).
    matching: str = "hem"
    #: Stop coarsening when |V| <= coarsen_to_factor * k ...
    coarsen_to_factor: int = 20
    #: ... but never below this floor.
    coarsen_min: int = 64
    #: Stop if a level shrinks the graph by less than this fraction
    #: (Metis's "difference ... less than a threshold value").
    min_shrink: float = 0.05
    #: GGGP restarts per bisection; the best cut wins (Metis uses 4).
    gggp_trials: int = 4
    #: FM refinement passes per bisection level.
    fm_passes: int = 4
    #: Greedy k-way refinement passes per uncoarsening level.
    kway_passes: int = 4
    #: RNG seed for matching order and GGGP seeds.
    seed: int = 1
    #: Optional fault plan (see :mod:`repro.faults`): a FaultPlan, a plan
    #: dict, or a path to a plan JSON file.  ``None`` disables injection.
    fault_plan: object = None
    #: Respond to injected faults with retry/degradation (True) or let
    #: them crash the run (False — the mutation ``repro selfcheck`` runs).
    fault_recovery: bool = True

    def __post_init__(self) -> None:
        if self.ubfactor < 1.0:
            raise InvalidParameterError("ubfactor must be >= 1.0")
        check_scheme(self.matching)
        if self.coarsen_to_factor < 1 or self.coarsen_min < 2:
            raise InvalidParameterError("coarsening thresholds out of range")
        if not (0.0 <= self.min_shrink < 1.0):
            raise InvalidParameterError("min_shrink must be in [0, 1)")
        if min(self.gggp_trials, self.fm_passes, self.kway_passes) < 1:
            raise InvalidParameterError("trial/pass counts must be >= 1")

    def coarsen_target(self, k: int) -> int:
        return max(self.coarsen_min, self.coarsen_to_factor * k)
