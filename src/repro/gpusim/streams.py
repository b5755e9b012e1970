"""Asynchronous CUDA-style streams for the simulated device.

Real GP-metis implementations hide PCIe traffic behind kernel execution
with ``cudaMemcpyAsync`` on a copy stream while kernels run on a compute
stream.  This module gives the simulator the same vocabulary:

- :class:`Stream` — an in-order command queue.  Work enqueued on a
  stream occupies its own *track* on the shared :class:`SimClock`
  timeline, starting at ``max(track end, host now)``; concurrent streams
  therefore advance in parallel and wall time is the busy-union of the
  tracks (mirroring how ``ThreadPoolSim`` folds CPU threads), never the
  serial sum.
- :class:`Event` — a marker recorded on a stream.  Other streams
  :meth:`~Stream.wait` on it (``cudaStreamWaitEvent``) and the host
  :meth:`~Event.synchronize`\\ s on it, which advances the host cursor
  without charging anything — the waiting time is already covered by the
  producing stream's events.
- :func:`h2d_async` / :func:`d2h_async` — ``cudaMemcpyAsync``: the same
  alpha-beta PCIe model, fault sites and end-to-end corruption verify as
  the synchronous copies in :mod:`repro.gpusim.transfer`, but charged to
  the stream's track.  Injected faults fire *at enqueue time* in the
  same order as the serial schedule, so a fault plan that fails the
  third H2D copy fails it identically with overlap on or off; retries
  burn track time (the DMA engine backs off, the host does not block).

The simulation itself stays eager — data moves when the call is made —
only the *accounting* is deferred onto the track.  That keeps partition
vectors byte-identical between the overlapped and serial schedules,
which is exactly the differential oracle ``repro selfcheck`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import TransferError
from ..faults.retry import RetryPolicy
from ..runtime.machine import InterconnectSpec
from .device import Device
from .memory import DeviceArray
from .transfer import _corrupt

__all__ = ["Event", "Stream", "h2d_async", "d2h_async"]


@dataclass(frozen=True)
class Event:
    """A point on a stream's timeline (``cudaEventRecord``)."""

    stream: "Stream"
    time: float

    def synchronize(self) -> None:
        """Block the host until the event completes (no charge: the wait
        is covered by the producing stream's own events)."""
        self.stream.device.clock.wait_until(self.time)


class Stream:
    """An in-order asynchronous command queue on a simulated device."""

    def __init__(self, device: Device, name: str):
        self.device = device
        self.name = name
        self.track = f"stream:{name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream({self.name!r}, cursor={self.cursor:.6f})"

    @property
    def cursor(self) -> float:
        """Where the next command enqueued on this stream would start."""
        return self.device.clock.track_end(self.track)

    def record(self) -> Event:
        """Record an event that completes with the work queued so far."""
        return Event(self, self.cursor)

    def wait(self, event: Event) -> None:
        """``cudaStreamWaitEvent``: later work on this stream starts no
        earlier than ``event`` (idle gap on the track, nothing charged)."""
        self.device.clock.advance_track(self.track, event.time)

    def synchronize(self) -> None:
        """``cudaStreamSynchronize``: fold this stream into wall time."""
        self.device.clock.sync_tracks([self.track])


# ----------------------------------------------------------------------
# Async copies: the transfer.py model, charged to a stream's track.


def _async_span(
    stream: Stream, direction: str, label: str, start: float, end: float, nbytes: int
) -> None:
    profiler = getattr(stream.device.clock, "profiler", None)
    if profiler is not None:
        profiler.add_span(
            f"{direction}.{label}" if label else direction,
            start,
            end,
            category="transfer",
            direction=direction,
            bytes=nbytes,
            stream=stream.name,
        )


def _fire_async_faults(stream: Stream, site: str, label: str, net: InterconnectSpec):
    """Async twin of ``transfer._fire_transfer_faults``: a hard failure
    burns the wire latency on the stream's track, then raises."""
    dev = stream.device
    injector = getattr(dev.clock, "injector", None)
    if injector is None:
        return None, []
    fired = injector.fire(site, label)
    for spec in fired:
        if spec.kind == "fail":
            dev.clock.charge_at(
                stream.track, "transfer_latency", net.pcie_latency_seconds,
                count=1.0, detail=f"{label} (failed)",
            )
            injector.raise_for(spec, label)
    return injector, fired


def _charge_async_copy(stream: Stream, nbytes: int, net: InterconnectSpec, label: str):
    """Charge one copy's alpha-beta cost to the track; returns its span."""
    clock = stream.device.clock
    seconds = net.pcie_seconds(nbytes)
    start, _ = clock.charge_at(
        stream.track, "transfer_latency", net.pcie_latency_seconds,
        count=1.0, detail=label,
    )
    _, end = clock.charge_at(
        stream.track, "transfer_bytes", seconds - net.pcie_latency_seconds,
        count=float(nbytes), detail=label,
    )
    return start, end


def _with_stream_retry(fn, stream: Stream, site: str, detail: str = ""):
    """Async analogue of :func:`repro.faults.with_retry`: the backoff and
    the failed attempts' wire time burn *track* time (the host is not
    blocked), and both are wrapped in ``retry``-category spans so
    critical-path attribution can move them out of the transfer bucket."""
    clock = stream.device.clock
    injector = getattr(clock, "injector", None)
    if injector is None:
        return fn()
    policy = RetryPolicy()
    attempt = 0
    while True:
        t0 = stream.cursor
        try:
            return fn()
        except TransferError as exc:
            if not injector.recover:
                raise
            attempt += 1
            if attempt > policy.max_retries:
                raise
            profiler = getattr(clock, "profiler", None)
            if profiler is not None:
                profiler.add_span(
                    f"retry {site} attempt", t0, stream.cursor,
                    category="retry", attempt=attempt,
                    max_retries=policy.max_retries, stream=stream.name,
                )
            bs, be = clock.charge_at(
                stream.track, "sync", policy.backoff(attempt), count=1.0,
                detail=f"retry backoff {site}" + (f" {detail}" if detail else ""),
            )
            if profiler is not None:
                profiler.add_span(
                    f"retry {site}", bs, be, category="retry",
                    attempt=attempt, max_retries=policy.max_retries,
                    stream=stream.name,
                )
            injector.record_recovery(
                site, "retry", f"attempt {attempt}/{policy.max_retries}: {exc}"
            )


def _h2d_async_once(
    stream: Stream, host: np.ndarray, net: InterconnectSpec, label: str
) -> DeviceArray:
    dev = stream.device
    injector, fired = _fire_async_faults(stream, "transfer.h2d", label, net)
    darr = dev.adopt(host.copy(), label=label)
    start, end = _charge_async_copy(stream, int(host.nbytes), net, label)
    dev.stats.h2d_transfers += 1
    dev.stats.h2d_bytes += int(host.nbytes)
    _async_span(stream, "h2d", label, start, end, int(host.nbytes))
    for spec in fired:
        if spec.kind == "corrupt":
            _corrupt(darr.data, [0xC0, injector.plan.seed, dev.stats.h2d_transfers])
    if fired and not np.array_equal(darr.data, host):
        darr.free()
        injector.raise_for(next(s for s in fired if s.kind == "corrupt"), label)
    return darr


def h2d_async(
    stream: Stream,
    host: np.ndarray,
    net: InterconnectSpec,
    label: str = "",
    after: tuple[Event, ...] = (),
) -> tuple[DeviceArray, Event]:
    """``cudaMemcpyAsync`` host->device on ``stream``.

    ``after`` events gate the copy (``cudaStreamWaitEvent`` first).
    Returns the device array plus an event that completes when the copy
    does; consumers on other streams wait on it before touching the
    array.  Transient injected faults retry on the track; the final
    error escapes at the enqueue call site, exactly where the serial
    schedule's would, so degradation ladders need no special casing.
    """
    for event in after:
        stream.wait(event)
    darr = _with_stream_retry(
        lambda: _h2d_async_once(stream, host, net, label),
        stream, "transfer.h2d", detail=label,
    )
    return darr, stream.record()


def _d2h_async_once(
    stream: Stream, darr: DeviceArray, net: InterconnectSpec, label: str
) -> np.ndarray:
    darr._require_live()
    dev = darr.device
    injector, fired = _fire_async_faults(stream, "transfer.d2h", label, net)
    start, end = _charge_async_copy(stream, int(darr.nbytes), net, label)
    dev.stats.d2h_transfers += 1
    dev.stats.d2h_bytes += int(darr.nbytes)
    _async_span(stream, "d2h", label, start, end, int(darr.nbytes))
    out = darr.data.copy()
    for spec in fired:
        if spec.kind == "corrupt":
            _corrupt(out, [0xD2, injector.plan.seed, dev.stats.d2h_transfers])
    if fired and not np.array_equal(out, darr.data):
        injector.raise_for(next(s for s in fired if s.kind == "corrupt"), label)
    return out


def d2h_async(
    stream: Stream,
    darr: DeviceArray,
    net: InterconnectSpec,
    label: str = "",
    after: tuple[Event, ...] = (),
) -> tuple[np.ndarray, Event]:
    """``cudaMemcpyAsync`` device->host on ``stream``; see
    :func:`h2d_async` for the fault/event contract.  The host must
    :meth:`~Event.synchronize` on the returned event before reading the
    buffer (the hybrid engine does, right before first use)."""
    for event in after:
        stream.wait(event)
    out = _with_stream_retry(
        lambda: _d2h_async_once(stream, darr, net, label),
        stream, "transfer.d2h", detail=label,
    )
    return out, stream.record()
