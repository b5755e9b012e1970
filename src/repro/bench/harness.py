"""The experiment runner behind every table and figure.

One :func:`run_experiment` call reproduces the paper's whole evaluation
protocol (Sec. IV): the four Table I graphs, k = 64, 3 % imbalance, all
four partitioners, minimum-of-``repeats`` timing.  Each run yields a
:class:`MethodRun` with the partition quality (exact, algorithmic) and
two modeled times:

* ``modeled_seconds`` — the machine models evaluated at the benchmark's
  (scaled-down) graph size;
* ``paper_scale_seconds`` — the same cost ledger re-evaluated at the
  paper's graph size (volume terms scaled by the size ratio, per-level
  overheads by the level-count ratio) — the series Fig. 5 and Table II
  report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api import make_partitioner
from ..graphs.csr import CSRGraph
from ..graphs.datasets import PAPER_DATASETS
from ..graphs.metrics import PartitionQuality
from ..result import PartitionResult
from ..runtime.machine import PAPER_MACHINE, MachineSpec

__all__ = [
    "DEFAULT_SCALES",
    "DEFAULT_METHODS",
    "ExperimentConfig",
    "MethodRun",
    "ExperimentResults",
    "run_experiment",
    "run_method_on_graph",
]

#: Default per-dataset linear scales: large enough for the multilevel
#: structure to be real (~10-100 k vertices), small enough for pure
#: Python.  Chosen so every analogue builds + partitions in seconds.
DEFAULT_SCALES: dict[str, float] = {
    "ldoor": 0.01,
    "delaunay": 0.02,
    "hugebubble": 0.002,
    "usa_roads": 0.002,
}

#: Table/figure order of methods (Fig. 5's series).
DEFAULT_METHODS = ("metis", "parmetis", "mt-metis", "gp-metis")


@dataclass(frozen=True)
class ExperimentConfig:
    """The paper's experimental setup, parameterised."""

    k: int = 64
    ubfactor: float = 1.03
    datasets: tuple[str, ...] = tuple(PAPER_DATASETS)
    methods: tuple[str, ...] = DEFAULT_METHODS
    scales: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_SCALES))
    #: "we use the minimum runtime of three experiments" — seeds per method.
    repeats: int = 1
    seed: int = 1


@dataclass
class MethodRun:
    """One (dataset, method) cell of the evaluation."""

    dataset: str
    method: str
    quality: PartitionQuality
    modeled_seconds: float
    paper_scale_seconds: float
    wall_seconds: float
    volume_factor: float
    result: PartitionResult

    @property
    def cut(self) -> int:
        return self.quality.cut


@dataclass
class ExperimentResults:
    """All runs, indexed by (dataset, method)."""

    config: ExperimentConfig
    graphs: dict[str, CSRGraph]
    runs: dict[tuple[str, str], MethodRun]

    def run(self, dataset: str, method: str) -> MethodRun:
        return self.runs[(dataset, method)]

    def speedup(self, dataset: str, method: str, paper_scale: bool = True) -> float:
        """Runtime of serial Metis over the method's runtime (Fig. 5)."""
        base = self.run(dataset, "metis")
        r = self.run(dataset, method)
        if paper_scale:
            return base.paper_scale_seconds / r.paper_scale_seconds
        return base.modeled_seconds / r.modeled_seconds

    def edgecut_ratio(self, dataset: str, method: str) -> float:
        """Edge cut relative to serial Metis (Table III)."""
        return self.run(dataset, method).cut / self.run(dataset, "metis").cut


def _volume_factor(spec_name: str, graph: CSRGraph) -> float:
    """Paper-size over bench-size work volume (vertices + arcs)."""
    spec = PAPER_DATASETS[spec_name]
    paper = spec.paper_vertices + 2.0 * spec.paper_edges
    bench = graph.num_vertices + 2.0 * graph.num_edges
    return paper / max(1.0, bench)


def run_method_on_graph(
    method: str,
    graph: CSRGraph,
    k: int,
    ubfactor: float = 1.03,
    repeats: int = 1,
    seed: int = 1,
    machine: MachineSpec | None = None,
    **options,
) -> PartitionResult:
    """Run one method, keeping the minimum-modeled-time repeat
    ("we use the minimum runtime of three experiments")."""
    machine = machine or PAPER_MACHINE
    best: PartitionResult | None = None
    for r in range(max(1, repeats)):
        p = make_partitioner(
            method, machine=machine, ubfactor=ubfactor, seed=seed + r, **options
        )
        res = p.partition(graph, k)
        if best is None or res.modeled_seconds < best.modeled_seconds:
            best = res
    assert best is not None
    return best


def run_experiment(
    config: ExperimentConfig | None = None,
    machine: MachineSpec | None = None,
    verbose: bool = False,
) -> ExperimentResults:
    """Run the full evaluation grid."""
    config = config or ExperimentConfig()
    machine = machine or PAPER_MACHINE
    graphs: dict[str, CSRGraph] = {}
    runs: dict[tuple[str, str], MethodRun] = {}
    for ds in config.datasets:
        scale = config.scales.get(ds, 0.01)
        graph = PAPER_DATASETS[ds].build(scale=scale, seed=config.seed)
        graphs[ds] = graph
        vf = _volume_factor(ds, graph)
        for method in config.methods:
            res = run_method_on_graph(
                method, graph, config.k, config.ubfactor,
                repeats=config.repeats, seed=config.seed, machine=machine,
            )
            run = MethodRun(
                dataset=ds,
                method=method,
                quality=res.quality(graph),
                modeled_seconds=res.modeled_seconds,
                paper_scale_seconds=res.clock.extrapolated_seconds(vf),
                wall_seconds=res.wall_seconds,
                volume_factor=vf,
                result=res,
            )
            runs[(ds, method)] = run
            if verbose:
                print(
                    f"{ds:>11s} {method:>9s}: cut={run.cut:>8d} "
                    f"imb={run.quality.imbalance:.3f} "
                    f"t(bench)={run.modeled_seconds:.4f}s "
                    f"t(paper-scale)={run.paper_scale_seconds:.2f}s"
                )
    return ExperimentResults(config=config, graphs=graphs, runs=runs)
