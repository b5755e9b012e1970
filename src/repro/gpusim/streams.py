"""CUDA-style streams for the simulated device.

Real GP-metis implementations hide PCIe traffic behind kernel execution
with ``cudaMemcpyAsync`` on a copy stream while kernels run on a compute
stream.  This module gives the simulator the same vocabulary:

- :class:`Stream` — an in-order asynchronous command queue.  Work
  enqueued on a stream occupies its own *track* on the shared
  :class:`SimClock` timeline, starting at ``max(track end, host now)``;
  concurrent streams therefore advance in parallel and wall time is the
  busy-union of the tracks (mirroring how ``ThreadPoolSim`` folds CPU
  threads), never the serial sum.
- :class:`HostStream` — every device's blocking stream, CUDA's legacy
  default stream: work on it charges the host cursor exactly as
  :meth:`SimClock.charge` does.  The serial schedule is the same copy,
  kernel and retry code run on this stream.
- :class:`Event` — a marker recorded on a stream.  Other streams
  :meth:`~Stream.wait` on it (``cudaStreamWaitEvent``) and the host
  :meth:`~Event.synchronize`\\ s on it, which advances the host cursor
  without charging anything — the waiting time is already covered by the
  producing stream's events.

Every stream offers ``cursor``, ``charge`` (returns the charged
interval) and ``span`` (a profiler span, tagged with the stream's name
on an asynchronous stream).  The copies that run on a stream live in
:mod:`repro.gpusim.transfer`.

The simulation itself stays eager — data moves when the call is made —
only the *accounting* is deferred onto the track.  That keeps partition
vectors byte-identical between the overlapped and serial schedules,
which is exactly the differential oracle ``repro selfcheck`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..runtime.clock import HostTimeline

if TYPE_CHECKING:
    from .device import Device

__all__ = ["Event", "HostStream", "Stream"]


@dataclass(frozen=True)
class Event:
    """A point on a stream's timeline (``cudaEventRecord``)."""

    stream: "Stream | HostStream"
    time: float

    def synchronize(self) -> None:
        """Block the host until the event completes (no charge: the wait
        is covered by the producing stream's own events)."""
        self.stream.clock.wait_until(self.time)


class Stream:
    """An in-order asynchronous command queue on a simulated device."""

    def __init__(self, device: Device, name: str):
        self.device = device
        self.clock = device.clock
        self.name = name
        self.track = f"stream:{name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream({self.name!r}, cursor={self.cursor:.6f})"

    @property
    def cursor(self) -> float:
        """Where the next command enqueued on this stream would start."""
        return self.clock.track_end(self.track)

    def charge(
        self, category: str, seconds: float, count: float = 0.0, detail: str = ""
    ) -> tuple[float, float]:
        """Enqueue one cost on this stream's track (the host cursor does
        not move); returns the ``(start, end)`` interval."""
        return self.clock.charge_at(
            self.track, category, seconds, count=count, detail=detail
        )

    def span(self, name: str, start: float, end: float, category: str, **attrs) -> None:
        """Add a complete span for work on this stream, tagged with its name."""
        profiler = self.clock.profiler
        if profiler is not None:
            profiler.add_span(
                name, start, end, category=category, **attrs, stream=self.name
            )

    def record(self) -> Event:
        """Record an event that completes with the work queued so far."""
        return Event(self, self.cursor)

    def wait(self, event: Event) -> None:
        """``cudaStreamWaitEvent``: later work on this stream starts no
        earlier than ``event`` (idle gap on the track, nothing charged)."""
        self.clock.advance_track(self.track, event.time)

    def synchronize(self) -> None:
        """``cudaStreamSynchronize``: fold this stream into wall time."""
        self.clock.sync_tracks([self.track])


class HostStream(HostTimeline):
    """A device's blocking host stream (CUDA's legacy default stream).

    Work on it runs on the host timeline, so nothing is ever in flight:
    waiting on an event is the host's own :meth:`Event.synchronize`, and
    :meth:`synchronize` has nothing to fold in.
    """

    def __init__(self, device: Device):
        super().__init__(device.clock)
        self.device = device

    def record(self) -> Event:
        """An event that completes with the work issued so far (now)."""
        return Event(self, self.cursor)

    def wait(self, event: Event) -> None:
        """Block the host on ``event``."""
        event.synchronize()

    def synchronize(self) -> None:
        """Nothing is in flight on the host stream."""
