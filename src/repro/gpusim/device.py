"""The simulated CUDA device: memory manager and kernel launcher.

``Device`` owns a capacity-limited global memory (allocations fail with
:class:`DeviceMemoryError` when the GTX Titan's 6 GB would be exceeded —
the constraint paper Sec. III calls out), a :class:`SimClock` to charge
time against, and per-kernel statistics.

Kernels are written as context managers::

    with dev.kernel("coarsen.match", n_threads=nt) as k:
        k.gather(d_adjncy, idx)          # irregular read
        k.stream_read(d_match)           # coalesced sweep
        k.scatter(d_match, vs)           # irregular write
        k.compute(per_thread_ops)        # SIMT compute, divergence-aware

On exit, the launch charges ``launch_overhead + max(memory_time,
compute_time) + atomic_time`` — the standard roofline view of a
memory-bound CUDA kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import DeviceMemoryError, KernelLaunchError
from ..runtime.clock import SimClock
from ..runtime.machine import GpuSpec
from .memory import DeviceArray, stream_transactions, warp_transactions
from .simt import warp_divergent_ops
from .stats import DeviceStats
from .streams import HostStream, Stream

__all__ = ["Device", "KernelContext"]


@dataclass
class Device:
    """One simulated CUDA GPU."""

    spec: GpuSpec
    clock: SimClock
    stats: DeviceStats = field(default_factory=DeviceStats)
    allocated_bytes: int = 0
    #: Opt-in data-race sanitizer (see :mod:`repro.gpusim.sanitizer`).
    #: ``None`` disables all access recording — the default fast path.
    sanitizer: object | None = None
    #: The blocking host stream (CUDA's legacy default stream): copies
    #: and launches on it charge the host cursor.
    host: HostStream = field(init=False, repr=False, compare=False)
    #: Where kernels launched without an explicit ``stream=`` argument
    #: enqueue: the host stream, unless engine code routes every kernel
    #: of a region onto a compute stream (the CUDA default-stream idiom)
    #: without threading a parameter through each kernel helper.
    default_stream: Stream | HostStream = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.host = HostStream(self)
        self.default_stream = self.host

    def stream(self, name: str) -> Stream:
        """Create a named asynchronous stream on this device."""
        return Stream(self, name)

    def enable_sanitizer(self, fuzz_schedules: int = 3, seed: int = 0, **kwargs):
        """Attach a :class:`~repro.gpusim.sanitizer.RaceSanitizer`.

        Every subsequent kernel launch records per-thread read/write sets,
        is checked for conflicting non-atomic accesses, and has its writes
        replayed under ``fuzz_schedules`` adversarial thread orderings.
        Returns the sanitizer so callers can inspect ``.reports``.
        """
        from .sanitizer import RaceSanitizer

        self.sanitizer = RaceSanitizer(
            fuzz_schedules=fuzz_schedules,
            seed=seed,
            warp_size=self.spec.warp_size,
            **kwargs,
        )
        return self.sanitizer

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def alloc(self, shape, dtype=np.int64, label: str = "") -> DeviceArray:
        """cudaMalloc: zero-initialised device array."""
        arr = np.zeros(shape, dtype=dtype)
        return self._register(arr, label)

    def alloc_like(self, host: np.ndarray, label: str = "") -> DeviceArray:
        return self.alloc(host.shape, host.dtype, label)

    def adopt(self, host: np.ndarray, label: str = "") -> DeviceArray:
        """Place an existing host buffer in device memory *without* a PCIe
        transfer charge — used for device-resident intermediates."""
        return self._register(host, label)

    def _register(self, arr: np.ndarray, label: str) -> DeviceArray:
        nbytes = int(arr.nbytes)
        capacity = self.spec.memory_bytes
        injector = getattr(self.clock, "injector", None)
        if injector is not None:
            # A capacity squeeze shrinks usable memory for the whole run;
            # an alloc fault fails this one cudaMalloc outright.
            capacity = injector.capacity_bytes(capacity)
            for spec in injector.fire("gpu.alloc", label):
                injector.raise_for(spec, label)
        if self.allocated_bytes + nbytes > capacity:
            raise DeviceMemoryError(
                f"device OOM allocating {nbytes} B for {label!r}: "
                f"{self.allocated_bytes} B in use of {capacity} B"
            )
        self.allocated_bytes += nbytes
        self.stats.peak_memory_bytes = max(self.stats.peak_memory_bytes, self.allocated_bytes)
        return DeviceArray(arr, self, label)

    def _release(self, darr: DeviceArray) -> None:
        self.allocated_bytes -= darr.nbytes

    @property
    def free_bytes(self) -> int:
        return self.spec.memory_bytes - self.allocated_bytes

    # ------------------------------------------------------------------
    # Kernel launching
    # ------------------------------------------------------------------
    def kernel(self, name: str, n_threads: int, stream=None) -> "KernelContext":
        if n_threads < 1:
            raise KernelLaunchError(f"kernel {name!r} launched with {n_threads} threads")
        return KernelContext(self, name, int(n_threads), stream=stream)


class KernelContext:
    """Accumulates one kernel launch's memory/compute/atomic work."""

    def __init__(self, device: Device, name: str, n_threads: int, stream=None) -> None:
        self.device = device
        self.name = name
        self.n_threads = n_threads
        #: The stream this launch enqueues on: the explicit argument or
        #: the device's default stream (the host stream unless rerouted).
        self.stream = stream if stream is not None else device.default_stream
        self._transactions = 0.0
        #: Transactions beyond the perfectly-coalesced minimum: these are
        #: random DRAM accesses and pay the (lower) gather bandwidth.
        self._random_transactions = 0.0
        #: Random transactions into arrays that fit the L2 cache: they
        #: avoid DRAM and pay the (intermediate) cached-gather bandwidth.
        self._cached_transactions = 0.0
        self._bytes_requested = 0.0
        self._compute_ops = 0.0
        self._atomic_ops = 0.0
        self._atomic_conflicts = 0.0
        self._entered = False
        self._san = device.sanitizer
        self._accesses: list | None = [] if self._san is not None else None
        self._seq = 0
        self._epoch = 0

    def grid_sync(self) -> None:
        """A device-wide barrier *inside* the kernel (cooperative-groups
        ``grid.sync()``), used by fused kernels: accesses after the
        barrier cannot race with accesses before it, so the sanitizer
        analyzes each epoch independently.  The barrier itself is free in
        the cost model — fusing trades it against a whole kernel launch."""
        self._epoch += 1

    # -- context protocol ------------------------------------------------
    def __enter__(self) -> "KernelContext":
        injector = getattr(self.device.clock, "injector", None)
        if injector is not None:
            # Faulted launches abort before any work lands, so device
            # arrays never hold a half-executed kernel's writes; a
            # timeout burns its watchdog interval first.
            for spec in injector.fire("kernel.launch", self.name):
                if spec.kind == "timeout":
                    self.device.clock.charge(
                        "launch", spec.seconds, count=1.0,
                        detail=f"{self.name} (watchdog timeout)",
                    )
                injector.raise_for(spec, self.name)
        self._entered = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._commit()

    # -- sanitizer recording ----------------------------------------------
    def _record(
        self,
        darr: DeviceArray,
        elements: np.ndarray,
        kind: str,
        values=None,
        threads: np.ndarray | None = None,
    ) -> None:
        """Log one access batch for the race sanitizer (sanitize mode only).

        ``threads`` names the logical owning thread of each access;
        without it the Fig. 2 layout applies (access ``i`` -> thread
        ``i % n_threads``).
        """
        if self._accesses is None:
            return
        from .sanitizer import AccessRecord

        elems = np.asarray(elements, dtype=np.int64).ravel()
        if threads is None:
            thr = np.arange(elems.shape[0], dtype=np.int64) % self.n_threads
        else:
            thr = np.asarray(threads, dtype=np.int64).ravel() % self.n_threads
        vals = None
        if values is not None:
            vals = np.broadcast_to(
                np.asarray(values, dtype=darr.dtype), elems.shape
            ).ravel()
        self._accesses.append(
            AccessRecord(
                darr.uid, darr.label, elems, thr, kind, vals, self._seq, self._epoch
            )
        )
        self._seq += 1

    # -- access recording -------------------------------------------------
    def _account_indexed(self, darr: DeviceArray, idx: np.ndarray) -> None:
        spec = self.device.spec
        txns = warp_transactions(idx, darr.itemsize, spec.warp_size, spec.transaction_bytes)
        nbytes = idx.size * darr.itemsize
        # A perfectly coalesced indexed access behaves like a stream; only
        # the transactions *beyond* that minimum are random traffic —
        # served from L2 when the whole array fits, from DRAM otherwise.
        ideal = stream_transactions(nbytes, spec.transaction_bytes)
        self._transactions += txns
        excess = max(0.0, txns - ideal)
        if darr.nbytes <= spec.l2_bytes:
            self._cached_transactions += excess
        else:
            self._random_transactions += excess
        self._bytes_requested += nbytes

    def gather(
        self,
        darr: DeviceArray,
        indices: np.ndarray,
        threads: np.ndarray | None = None,
    ) -> np.ndarray:
        """Warp-ordered irregular read; returns the gathered values."""
        darr._require_live()
        idx = np.asarray(indices, dtype=np.int64)
        self._account_indexed(darr, idx)
        self._record(darr, idx, "read", threads=threads)
        return darr.data[idx]

    def scatter(
        self,
        darr: DeviceArray,
        indices: np.ndarray,
        values,
        threads: np.ndarray | None = None,
    ) -> None:
        """Warp-ordered irregular write (duplicate indices: last writer wins)."""
        darr._require_live()
        idx = np.asarray(indices, dtype=np.int64)
        self._account_indexed(darr, idx)
        self._record(darr, idx, "write", values=values, threads=threads)
        darr.data[idx] = values

    def stream_read(self, darr: DeviceArray, n_elements: int | None = None) -> np.ndarray:
        """Fully coalesced sequential read of the array (or a prefix)."""
        darr._require_live()
        n = darr.size if n_elements is None else int(n_elements)
        nbytes = n * darr.itemsize
        self._transactions += stream_transactions(nbytes, self.device.spec.transaction_bytes)
        self._bytes_requested += nbytes
        if self._accesses is not None:
            self._record(darr, np.arange(n, dtype=np.int64), "read")
        return darr.data[:n] if n_elements is not None else darr.data

    def stream_write(self, darr: DeviceArray, values, n_elements: int | None = None) -> None:
        """Fully coalesced sequential write."""
        darr._require_live()
        n = darr.size if n_elements is None else int(n_elements)
        nbytes = n * darr.itemsize
        self._transactions += stream_transactions(nbytes, self.device.spec.transaction_bytes)
        self._bytes_requested += nbytes
        if self._accesses is not None:
            self._record(darr, np.arange(n, dtype=np.int64), "write", values=values)
        if n_elements is None:
            darr.data[...] = values
        else:
            darr.data[:n] = values

    def compute(self, ops: float) -> None:
        """Uniform arithmetic work (total simple ops across all threads)."""
        self._compute_ops += float(ops)

    def compute_divergent(self, per_thread_ops: np.ndarray) -> None:
        """SIMT compute where threads of a warp do unequal work.

        Charged at the warp-synchronous rate: each warp costs
        ``warp_size x max(ops of its threads)`` — the paper's workload-
        imbalance penalty for irregular graphs.
        """
        self._compute_ops += warp_divergent_ops(
            np.asarray(per_thread_ops, dtype=np.float64), self.device.spec.warp_size
        )

    def atomic(
        self,
        n_ops: int,
        distinct_targets: int | None = None,
        darr: DeviceArray | None = None,
        targets: np.ndarray | None = None,
        threads: np.ndarray | None = None,
    ) -> None:
        """n_ops atomic RMWs; contention modeled from target multiplicity.

        ``darr``/``targets`` optionally name the counter array and the
        element each RMW hits so the sanitizer can prove the accesses
        atomic (atomic adds commute — concurrent same-element RMWs are
        race-free by construction, unlike plain stores).
        """
        n_ops = int(n_ops)
        if darr is not None and targets is not None:
            self._record(darr, targets, "atomic", threads=threads)
        self._atomic_ops += n_ops
        if distinct_targets is not None and distinct_targets > 0 and n_ops > distinct_targets:
            # Ops beyond one-per-target serialise on the memory controller.
            self._atomic_conflicts += n_ops - distinct_targets

    # -- commit ------------------------------------------------------------
    def _commit(self) -> None:
        spec = self.device.spec
        stream = self.stream
        # The launch occupies its stream from the enqueue point: the host
        # cursor on the host stream, a track on an asynchronous one.
        t_start = stream.cursor
        streamed = (
            self._transactions - self._random_transactions - self._cached_transactions
        )
        occupancy = spec.occupancy(self.n_threads)
        mem_t = (
            spec.transaction_seconds(streamed)
            + spec.gather_transaction_seconds(self._random_transactions)
            + spec.cached_gather_transaction_seconds(self._cached_transactions)
        ) / occupancy
        cmp_t = spec.compute_seconds(self._compute_ops) / occupancy
        atomic_t = (
            self._atomic_ops * spec.atomic_seconds
            + self._atomic_conflicts * spec.atomic_contention_seconds
        )
        body = max(mem_t, cmp_t) + atomic_t
        total = spec.kernel_launch_seconds + body

        stream.charge("launch", spec.kernel_launch_seconds, count=1.0, detail=self.name)
        if body > 0:
            if mem_t >= cmp_t:
                stream.charge("memory", mem_t, count=self._transactions, detail=self.name)
            else:
                stream.charge("compute", cmp_t, count=self._compute_ops, detail=self.name)
            if atomic_t:
                stream.charge("atomic", atomic_t, count=self._atomic_ops, detail=self.name)

        if self._san is not None:
            self._san.analyze_launch(self.name, self.n_threads, self._accesses)

        k = self.device.stats.kernel(self.name)
        k.launches += 1
        k.threads_launched += self.n_threads
        k.memory_transactions += self._transactions
        k.random_transactions += self._random_transactions
        k.cached_transactions += self._cached_transactions
        k.bytes_requested += self._bytes_requested
        k.compute_ops += self._compute_ops
        k.atomic_ops += self._atomic_ops
        k.atomic_conflicts += self._atomic_conflicts
        k.seconds += total
        k.mem_seconds += mem_t
        k.compute_seconds += cmp_t
        k.atomic_seconds += atomic_t
        k.launch_seconds += spec.kernel_launch_seconds
        k.transaction_bytes = spec.transaction_bytes

        if spec.kernel_launch_seconds >= body:
            launch_bound = "latency"
        elif atomic_t > max(mem_t, cmp_t):
            launch_bound = "atomic"
        elif mem_t >= cmp_t:
            launch_bound = "dram-bandwidth"
        else:
            launch_bound = "compute"

        if self.device.clock.profiler is not None:
            moved = self._transactions * spec.transaction_bytes
            coalescing = (
                min(1.0, self._bytes_requested / moved) if moved
                else (1.0 if self._bytes_requested <= 0.0 else 0.0)
            )
            stream.span(
                self.name,
                t_start,
                stream.cursor,
                "kernel",
                threads=self.n_threads,
                transactions=self._transactions,
                bytes_requested=self._bytes_requested,
                coalescing=coalescing,
                compute_ops=self._compute_ops,
                atomic_ops=self._atomic_ops,
                bound=launch_bound,
            )
