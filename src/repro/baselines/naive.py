"""Trivial baselines: random and block partitioning.

These anchor the benchmark suite — any heuristic worth running must beat
them on cut (random) while matching their balance (both are perfectly
balanced by construction on unit weights).

Like the multilevel engines, both are :class:`repro.engine.Engine`
subclasses built from a frozen options dataclass
(:class:`~repro.baselines.options.RandomOptions` /
:class:`~repro.baselines.options.BlockOptions`) and a machine, so their
runs are profiled, ledgered and fault-injectable like every other.
"""

from __future__ import annotations

import numpy as np

from ..engine import Engine, PhaseOutput
from ..graphs.csr import CSRGraph
from ..runtime.clock import SimClock
from ..runtime.trace import Trace
from .options import BlockOptions, RandomOptions

__all__ = ["RandomPartitioner", "BlockPartitioner"]


class _LabelBaseline(Engine):
    """A baseline whose one phase writes a label per vertex; subclasses
    supply the labels."""

    def _labels(self, graph: CSRGraph, k: int) -> np.ndarray:
        raise NotImplementedError

    def run_phases(self, graph: CSRGraph, k: int, clock: SimClock) -> PhaseOutput:
        clock.set_phase("assign")
        part = self._labels(graph, k)
        clock.charge(
            "compute",
            self.machine.cpu.vertex_seconds(graph.num_vertices),
            count=float(graph.num_vertices),
            detail="label assignment",
        )
        return PhaseOutput(part, Trace())


class RandomPartitioner(_LabelBaseline):
    """Balanced random assignment: shuffle, then deal round-robin."""

    name = "random"
    options_class = RandomOptions

    def _labels(self, graph: CSRGraph, k: int) -> np.ndarray:
        rng = np.random.default_rng(self.options.seed)
        order = rng.permutation(graph.num_vertices)
        part = np.empty(graph.num_vertices, dtype=np.int64)
        part[order] = np.arange(graph.num_vertices, dtype=np.int64) % k
        return part


class BlockPartitioner(_LabelBaseline):
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
