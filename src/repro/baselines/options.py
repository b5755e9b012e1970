"""Options dataclasses of the non-multilevel baselines.

Each is an :class:`~repro.engine.EngineOptions` with nothing added, so
the baselines sit in the one-lookup-path API
(`repro.api.PARTITIONERS`), the options-hash config fingerprint and the
fault-injection plumbing like the multilevel engines.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import EngineOptions

__all__ = ["RandomOptions", "BlockOptions", "SpectralOptions"]


@dataclass(frozen=True)
class RandomOptions(EngineOptions):
    """Knobs of :class:`repro.baselines.RandomPartitioner`."""


@dataclass(frozen=True)
class BlockOptions(EngineOptions):
    """Knobs of :class:`repro.baselines.BlockPartitioner`."""


@dataclass(frozen=True)
class SpectralOptions(EngineOptions):
    """Knobs of :class:`repro.baselines.SpectralPartitioner`."""
