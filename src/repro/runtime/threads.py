"""Simulated shared-memory thread pool (the mt-metis substrate).

The pool does not run OS threads (this environment has a single core and
the algorithms are executed as vectorised numpy); instead it models an
OpenMP-style fork-join region deterministically:

* items (vertices) are assigned to threads by a static *ownership* map,
  as in mt-metis's persistent-thread paradigm;
* the caller reports the per-item work of a parallel region; the pool
  charges ``max over threads of its items' work`` to the clock, plus a
  barrier — exactly the critical-path model of a fork-join region;
* a *lockstep schedule* is provided for simulating lock-free concurrent
  phases: it yields batches of items such that batch ``j`` contains the
  ``j``-th item of every thread.  Reads in a batch see state from before
  the batch; writes land after.  This is how cross-thread matching
  conflicts arise deterministically (DESIGN.md, experiment A6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError
from .clock import SimClock
from .machine import CpuSpec

__all__ = ["ThreadPoolSim", "block_ownership", "cyclic_ownership"]


def block_ownership(n_items: int, n_threads: int) -> np.ndarray:
    """Thread id per item, contiguous blocks (mt-metis vertex distribution)."""
    if n_threads < 1:
        raise InvalidParameterError("n_threads must be >= 1")
    if n_items == 0:
        return np.empty(0, dtype=np.int64)
    per = -(-n_items // n_threads)
    return np.minimum(np.arange(n_items, dtype=np.int64) // per, n_threads - 1)


def cyclic_ownership(n_items: int, n_threads: int) -> np.ndarray:
    """Thread id per item, round-robin (the GPU's coalesced distribution)."""
    if n_threads < 1:
        raise InvalidParameterError("n_threads must be >= 1")
    return np.arange(n_items, dtype=np.int64) % n_threads


@dataclass
class ThreadPoolSim:
    """A deterministic model of ``num_threads`` shared-memory workers."""

    num_threads: int
    cpu: CpuSpec
    clock: SimClock

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise InvalidParameterError("num_threads must be >= 1")
        if self.num_threads > self.cpu.num_cores:
            # Oversubscription: threads time-share cores; model keeps the
            # thread count for semantics but throughput caps at num_cores.
            self._active_cores = self.cpu.num_cores
        else:
            self._active_cores = self.num_threads

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def parallel_edge_work(
        self,
        per_item_edges: np.ndarray,
        ownership: np.ndarray,
        detail: str = "",
        avg_degree: float | None = None,
    ) -> None:
        """Charge a fork-join region whose item ``i`` traverses
        ``per_item_edges[i]`` arcs, items distributed by ``ownership``."""
        per_thread = self._per_thread(per_item_edges, ownership)
        critical = float(per_thread.max(initial=0.0))
        total = float(per_item_edges.sum())
        seconds = self.cpu.edge_seconds(critical, avg_degree) * self._slowdown()
        self.clock.charge("compute", seconds, count=total, detail=detail)
        hw = getattr(self.clock, "hw", None)
        if hw is not None:
            hw.record_cpu(
                "edge", total, seconds,
                self.cpu.edge_seconds(total, avg_degree) / self.cpu.num_cores,
            )
        self.barrier()

    def parallel_vertex_work(
        self, per_item_ops: np.ndarray, ownership: np.ndarray, detail: str = ""
    ) -> None:
        per_thread = self._per_thread(per_item_ops, ownership)
        critical = float(per_thread.max(initial=0.0))
        total = float(per_item_ops.sum())
        seconds = self.cpu.vertex_seconds(critical) * self._slowdown()
        self.clock.charge("compute", seconds, count=total, detail=detail)
        hw = getattr(self.clock, "hw", None)
        if hw is not None:
            hw.record_cpu(
                "vertex", total, seconds,
                self.cpu.vertex_seconds(total) / self.cpu.num_cores,
            )
        self.barrier()

    def serial_edge_work(
        self, n_edges: float, detail: str = "", avg_degree: float | None = None
    ) -> None:
        """A region executed by one thread while others wait."""
        seconds = self.cpu.edge_seconds(float(n_edges), avg_degree)
        self.clock.charge("compute", seconds, count=float(n_edges), detail=detail)
        hw = getattr(self.clock, "hw", None)
        if hw is not None:
            hw.record_cpu("edge", float(n_edges), seconds,
                          seconds / self.cpu.num_cores)

    def barrier(self) -> None:
        injector = getattr(self.clock, "injector", None)
        if injector is not None:
            for spec in injector.fire("thread.stall"):
                if spec.kind == "stall":
                    # A straggler: every other worker waits out the stall.
                    self.clock.charge(
                        "barrier", spec.seconds, count=1.0,
                        detail="injected straggler stall",
                    )
                elif injector.recover:
                    # Deadlock watchdog: wait out the timeout, then the
                    # survivors steal the stalled worker's items.
                    self.clock.charge(
                        "barrier", spec.seconds, count=1.0,
                        detail="deadlock watchdog",
                    )
                    injector.record_recovery(
                        "thread.stall", "work-steal",
                        "stalled worker's items reassigned to survivors",
                    )
                else:
                    injector.raise_for(spec)
        self.clock.charge("barrier", self.cpu.barrier_seconds, count=1.0)

    def _slowdown(self) -> float:
        """Oversubscription factor when num_threads > cores."""
        return self.num_threads / self._active_cores if self._active_cores else 1.0

    def _per_thread(self, per_item: np.ndarray, ownership: np.ndarray) -> np.ndarray:
        per_item = np.asarray(per_item, dtype=np.float64)
        ownership = np.asarray(ownership, dtype=np.int64)
        if per_item.shape != ownership.shape:
            raise InvalidParameterError("per_item and ownership must align")
        if per_item.size == 0:
            return np.zeros(self.num_threads)
        return np.bincount(ownership, weights=per_item, minlength=self.num_threads)

    # ------------------------------------------------------------------
    # Lockstep scheduling for lock-free phases
    # ------------------------------------------------------------------
    def lockstep_batches(self, items: np.ndarray, ownership: np.ndarray):
        """Yield item batches emulating threads advancing in lockstep.

        Batch ``j`` holds the ``j``-th item of every thread's worklist (in
        thread order).  Within a batch, concurrent lock-free reads must be
        resolved against the pre-batch state; ties are broken by position
        in the batch (thread id), mirroring warp-/core-arbitration order.
        """
        items = np.asarray(items, dtype=np.int64)
        ownership = np.asarray(ownership, dtype=np.int64)
        if items.shape != ownership.shape:
            raise InvalidParameterError("items and ownership must align")
        if items.size == 0:
            return
        order = np.argsort(ownership, kind="stable")
        sorted_owner = ownership[order]
        counts = np.bincount(sorted_owner, minlength=self.num_threads)
        starts = np.cumsum(counts) - counts
        # An item's position in its thread's worklist is its batch; a
        # stable sort by it keeps thread order within each batch.
        rank = np.arange(items.size) - starts[sorted_owner]
        schedule = items[order][np.argsort(rank, kind="stable")]
        start = 0
        for end in np.cumsum(np.bincount(rank)).tolist():
            yield schedule[start:end]
            start = end
