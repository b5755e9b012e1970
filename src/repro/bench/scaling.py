"""Strong-scaling studies: speedup vs processor count.

Fig. 5 compares the partitioners at the paper's fixed configuration
(8 threads / 8 ranks / one GPU).  This module sweeps the processor count
to expose each engine's scaling curve and its limiter — barriers for the
thread pool, alpha-beta messages for MPI, occupancy and the serial CPU
stage for the hybrid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api import make_partitioner
from ..graphs.csr import CSRGraph
from ..runtime.machine import PAPER_MACHINE, MachineSpec

__all__ = ["ScalingPoint", "ScalingStudy", "run_scaling_study", "render_scaling"]

#: method -> the option that sets its processor count.
_PROC_OPTION = {
    "mt-metis": "num_threads",
    "parmetis": "num_ranks",
    "pt-scotch": "num_ranks",
    "jostle": "num_ranks",
}


@dataclass(frozen=True)
class ScalingPoint:
    processors: int
    modeled_seconds: float
    cut: int
    speedup: float       # vs the same method at 1 processor
    efficiency: float    # speedup / processors


@dataclass
class ScalingStudy:
    method: str
    graph_name: str
    k: int
    points: list[ScalingPoint] = field(default_factory=list)

    @property
    def max_speedup(self) -> float:
        return max((p.speedup for p in self.points), default=0.0)

    def efficiency_at(self, processors: int) -> float:
        for p in self.points:
            if p.processors == processors:
                return p.efficiency
        raise KeyError(processors)


def run_scaling_study(
    method: str,
    graph: CSRGraph,
    k: int,
    processor_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    machine: MachineSpec | None = None,
    seed: int = 1,
    **options,
) -> ScalingStudy:
    """Sweep the processor count for one method on one graph.

    Raises ``KeyError`` for methods without a processor knob (serial
    Metis, GP-metis whose GPU size is fixed, the trivial baselines).
    """
    knob = _PROC_OPTION[method]
    machine = machine or PAPER_MACHINE
    study = ScalingStudy(method=method, graph_name=graph.name, k=k)
    base_seconds = None
    for p in processor_counts:
        res = make_partitioner(
            method, machine=machine, seed=seed, **{knob: p}, **options
        ).partition(graph, k)
        if base_seconds is None:
            base_seconds = res.modeled_seconds
        speedup = base_seconds / res.modeled_seconds
        study.points.append(
            ScalingPoint(
                processors=p,
                modeled_seconds=res.modeled_seconds,
                cut=res.quality(graph).cut,
                speedup=speedup,
                efficiency=speedup / p,
            )
        )
    return study


def render_scaling(studies: list[ScalingStudy], width: int = 36) -> str:
    """ASCII strong-scaling chart for several methods side by side."""
    lines: list[str] = ["Strong scaling (speedup over 1 processor)"]
    peak = max((s.max_speedup for s in studies), default=1.0)
    for study in studies:
        lines.append(f"  {study.method} on {study.graph_name} (k={study.k}):")
        for p in study.points:
            bar = "#" * max(1, int(round(p.speedup / peak * width)))
            lines.append(
                f"    P={p.processors:<3d} {bar} {p.speedup:.2f}x "
                f"(eff {p.efficiency:.2f}, cut {p.cut})"
            )
    return "\n".join(lines)
