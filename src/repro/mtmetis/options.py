"""Control parameters of the mt-metis reproduction."""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import InvalidParameterError
from ..serial.options import MultilevelOptions

__all__ = ["MtMetisOptions"]


@dataclass(frozen=True)
class MtMetisOptions(MultilevelOptions):
    """Knobs of :class:`repro.mtmetis.MtMetis` (paper defaults: 8 threads)."""

    num_threads: int = 8
    refine_passes: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_threads < 1:
            raise InvalidParameterError("num_threads must be >= 1")
        if self.refine_passes < 1:
            raise InvalidParameterError("refine_passes must be >= 1")
