"""Control parameters of the ParMetis reproduction."""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import InvalidParameterError
from ..serial.options import MultilevelOptions

__all__ = ["ParMetisOptions"]


@dataclass(frozen=True)
class ParMetisOptions(MultilevelOptions):
    """Knobs of :class:`repro.parmetis.ParMetis` (paper defaults: 8 ranks)."""

    num_ranks: int = 8
    refine_passes: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_ranks < 1:
            raise InvalidParameterError("num_ranks must be >= 1")
        if self.refine_passes < 1:
            raise InvalidParameterError("refine_passes must be >= 1")
