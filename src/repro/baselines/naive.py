"""Trivial baselines: random and block partitioning.

These anchor the benchmark suite — any heuristic worth running must beat
them on cut (random) while matching their balance (both are perfectly
balanced by construction on unit weights).

Like the multilevel engines, both are built from a frozen options
dataclass (:class:`~repro.baselines.options.RandomOptions` /
:class:`~repro.baselines.options.BlockOptions`) and a machine, report
through :func:`repro.obs.profile_run` / :func:`repro.obs.finish_run` (so
served and profiled runs land in the run ledger with a config
fingerprint), and accept ``fault_plan`` / ``fault_recovery``.
"""

from __future__ import annotations

import time

import numpy as np

from ..exceptions import InvalidParameterError
from ..faults import attach_injector
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut, imbalance
from ..obs.hooks import finish_run, profile_run
from ..result import PartitionResult
from ..runtime.clock import SimClock
from ..runtime.machine import PAPER_MACHINE, MachineSpec
from ..runtime.trace import Trace
from .options import BlockOptions, RandomOptions

__all__ = ["RandomPartitioner", "BlockPartitioner"]


class _TrivialBase:
    """A baseline built from ``(options, machine)``.  Subclasses set
    ``name`` and ``options_class`` and either supply ``_labels`` or
    override ``partition``."""

    options_class: type = None  # set by subclasses

    def __init__(self, options=None, machine: MachineSpec | None = None) -> None:
        if options is not None and not isinstance(options, self.options_class):
            raise InvalidParameterError(
                f"{self.name!r} takes a {self.options_class.__name__} options "
                f"dataclass, got {type(options).__name__}"
            )
        if machine is not None and not isinstance(machine, MachineSpec):
            raise InvalidParameterError(
                f"machine must be a MachineSpec, got {type(machine).__name__}"
            )
        self.options = options or self.options_class()
        self.machine = machine or PAPER_MACHINE

    def _labels(self, graph: CSRGraph, k: int) -> np.ndarray:
        raise NotImplementedError

    def partition(self, graph: CSRGraph, k: int) -> PartitionResult:
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        opts = self.options
        clock = SimClock()
        injector = attach_injector(
            clock, opts.fault_plan, recover=opts.fault_recovery
        )
        trace = Trace()
        profiler = profile_run(
            clock, engine=self.name, graph=graph, k=k, options=opts,
        )
        clock.set_phase("assign")
        t0 = time.perf_counter()
        part = self._labels(graph, k)
        clock.charge(
            "compute",
            self.machine.cpu.vertex_seconds(graph.num_vertices),
            count=float(graph.num_vertices),
            detail="label assignment",
        )
        finish_run(
            profiler,
            trace=trace,
            injector=injector,
            machine=self.machine,
            cut=edge_cut(graph, part),
            imbalance=imbalance(graph, part, k),
        )
        extras = {}
        if injector is not None:
            extras["degraded"] = injector.degraded
            extras["fault_events"] = list(injector.events)
        return PartitionResult(
            method=self.name,  # type: ignore[attr-defined]
            graph_name=graph.name,
            k=k,
            part=part,
            clock=clock,
            trace=trace,
            wall_seconds=time.perf_counter() - t0,
            extras=extras,
        )


class RandomPartitioner(_TrivialBase):
    """Balanced random assignment: shuffle, then deal round-robin."""

    name = "random"
    options_class = RandomOptions

    def _labels(self, graph: CSRGraph, k: int) -> np.ndarray:
        rng = np.random.default_rng(self.options.seed)
        order = rng.permutation(graph.num_vertices)
        part = np.empty(graph.num_vertices, dtype=np.int64)
        part[order] = np.arange(graph.num_vertices, dtype=np.int64) % k
        return part


class BlockPartitioner(_TrivialBase):
    """Contiguous index ranges — what a naive code does without a
    partitioner.  Quality depends entirely on the input labeling's
    locality (good for BFS/RCM-ordered meshes, terrible for shuffled
    ones), which the coalescing ablation exploits."""

    name = "block"
    options_class = BlockOptions

    def _labels(self, graph: CSRGraph, k: int) -> np.ndarray:
        n = graph.num_vertices
        if n == 0:
            return np.empty(0, dtype=np.int64)
        per = -(-n // k)
        return np.minimum(np.arange(n, dtype=np.int64) // per, k - 1)
