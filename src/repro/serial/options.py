"""Control parameters of the Metis-style multilevel engines.

Defaults follow Metis (Karypis & Kumar, SIAM JSC 20(1)) and the paper's
experimental setup: 3 % imbalance tolerance, HEM matching, coarsening
until the graph has ~max(COARSEN_TO_FACTOR x k, coarsen_min) vertices or
shrinkage stalls.  The paper runs every engine at this one setting, so
the rule's factor and stall threshold and the bisection's trial and
pass counts are constants here, not options.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import EngineOptions
from ..exceptions import InvalidParameterError
from .matching import check_scheme

__all__ = [
    "COARSEN_TO_FACTOR",
    "FM_PASSES",
    "GGGP_TRIALS",
    "MIN_SHRINK",
    "MultilevelOptions",
    "SerialOptions",
]

#: Stop coarsening when |V| <= COARSEN_TO_FACTOR * k (never below
#: ``coarsen_min``).
COARSEN_TO_FACTOR = 20
#: Stop if a level shrinks the graph by less than this fraction (Metis's
#: "difference ... less than a threshold value").  It must stay above 0:
#: a level that matches nothing shrinks the graph by exactly 0.
MIN_SHRINK = 0.05
#: GGGP restarts per bisection; the best cut wins (Metis uses 4).
GGGP_TRIALS = 4
#: FM refinement passes per bisection.
FM_PASSES = 4


@dataclass(frozen=True)
class MultilevelOptions(EngineOptions):
    """The options of every engine that coarsens by Metis's rule."""

    #: Matching scheme: "hem" (heavy edge), "rm" (random), "lem" (light edge).
    matching: str = "hem"
    #: Floor of the coarsening target.
    coarsen_min: int = 64

    def __post_init__(self) -> None:
        super().__post_init__()
        check_scheme(self.matching)
        if self.coarsen_min < 2:
            raise InvalidParameterError("coarsen_min must be >= 2")

    def coarsen_target(self, k: int) -> int:
        """Size the initial partitioning runs at."""
        return max(self.coarsen_min, COARSEN_TO_FACTOR * k)

    def serial_options(self) -> SerialOptions:
        """Options for serial sub-phases (bisections on the coarsest graph)."""
        return SerialOptions(
            ubfactor=self.ubfactor,
            matching=self.matching,
            coarsen_min=self.coarsen_min,
            seed=self.seed,
        )


@dataclass(frozen=True)
class SerialOptions(MultilevelOptions):
    """Knobs of :class:`repro.serial.SerialMetis`."""
