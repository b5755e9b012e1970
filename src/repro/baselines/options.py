"""Options dataclasses of the non-multilevel baselines.

Each carries the canonical field set every engine's options share
(``ubfactor``, ``seed``, ``fault_plan``, ``fault_recovery``), so the
baselines sit in the one-lookup-path API (`repro.api.PARTITIONERS`),
the options-hash config fingerprint and the fault-injection plumbing
like the multilevel engines.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import InvalidParameterError

__all__ = ["RandomOptions", "BlockOptions", "SpectralOptions"]


@dataclass(frozen=True)
class _BaselineOptions:
    """Canonical fields shared by every baseline."""

    #: Balance tolerance: max part weight <= ubfactor x ideal.
    ubfactor: float = 1.03
    #: RNG seed (assignment order for random, Lanczos start for spectral).
    seed: int = 1
    #: Optional fault plan (see :mod:`repro.faults`): a FaultPlan, a plan
    #: dict, or a path to a plan JSON file.  ``None`` disables injection.
    fault_plan: object = None
    #: Respond to injected faults with retry/degradation (True) or let
    #: them crash the run (False).
    fault_recovery: bool = True

    def __post_init__(self) -> None:
        if self.ubfactor < 1.0:
            raise InvalidParameterError("ubfactor must be >= 1.0")


@dataclass(frozen=True)
class RandomOptions(_BaselineOptions):
    """Knobs of :class:`repro.baselines.RandomPartitioner`."""


@dataclass(frozen=True)
class BlockOptions(_BaselineOptions):
    """Knobs of :class:`repro.baselines.BlockPartitioner`."""


@dataclass(frozen=True)
class SpectralOptions(_BaselineOptions):
    """Knobs of :class:`repro.baselines.SpectralPartitioner`."""

    #: Modeled Lanczos sweeps per bisection (drives the cost model).
    lanczos_iterations: int = 60

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lanczos_iterations < 1:
            raise InvalidParameterError("lanczos_iterations must be >= 1")
