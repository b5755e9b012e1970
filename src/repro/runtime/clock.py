"""Simulated-time accounting.

Every simulated engine (CPU, thread pool, MPI cluster, GPU) charges its
work to a :class:`SimClock` as *cost events*.  An event carries a phase
(coarsening / initpart / uncoarsening / transfer), a category (compute,
memory, launch, barrier, message, ...), a scalar ``seconds`` cost, and the
raw ``count`` it was derived from.  Keeping the raw counts lets the
benchmark harness re-evaluate the model at a different problem scale
(paper-scale extrapolation, see DESIGN.md Sec. 2) without re-running the
algorithm.

Categories are tagged as either *volume* (grow linearly with graph size:
memory traffic, per-edge compute) or *overhead* (grow with the number of
levels/passes: kernel launches, barriers, message latencies).  The
extrapolation scales the two groups by different factors.

Overlap-aware tracks (PR 10): the clock keeps a *host cursor* plus one
cursor per named asynchronous track (a simulated CUDA stream).  A plain
:meth:`~SimClock.charge` advances the host cursor — serial semantics,
identical to the original sum-of-events clock.  :meth:`~SimClock.charge_at`
places an event on a track at an explicit start time *without* advancing
the host, so concurrent streams advance on parallel timelines and
:attr:`~SimClock.total_seconds` (the wall clock) becomes the busy-union of
the tracks — the max of overlapping spans, mirroring how ``ThreadPoolSim``
folds CPU threads — never the serial sum.  :attr:`~SimClock.busy_seconds`
keeps the serial sum for utilization math.  :class:`HostTimeline` is the
host cursor seen as a timeline to charge, the blocking counterpart of a
track: the simulated device's host stream is one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable

__all__ = [
    "CostEvent",
    "HostTimeline",
    "SimClock",
    "VOLUME_CATEGORIES",
    "OVERHEAD_CATEGORIES",
    "KNOWN_CATEGORIES",
]

#: Categories whose seconds scale with data volume.
VOLUME_CATEGORIES = frozenset(
    {"compute", "memory", "transfer_bytes", "message_bytes", "atomic", "sort", "hash"}
)
#: Categories whose seconds scale with the number of steps/levels/passes.
OVERHEAD_CATEGORIES = frozenset(
    {"launch", "barrier", "message_latency", "transfer_latency", "sync"}
)
#: Every category must belong to exactly one scaling group; ``charge``
#: rejects anything else so a typo cannot silently skew extrapolation.
KNOWN_CATEGORIES = VOLUME_CATEGORIES | OVERHEAD_CATEGORIES


@dataclass(frozen=True)
class CostEvent:
    """One charge against the simulated clock.

    ``track`` is empty for ordinary host-timeline charges; asynchronous
    charges (:meth:`SimClock.charge_at`) carry the stream's track name and
    an explicit ``start`` on the shared timeline (host events keep the
    ``-1.0`` sentinel — their position is implied by accumulation order).
    """

    phase: str
    category: str
    seconds: float
    count: float = 0.0
    detail: str = ""
    track: str = ""
    start: float = -1.0


@dataclass
class SimClock:
    """Accumulates simulated seconds, broken down by phase and category."""

    events: list[CostEvent] = field(default_factory=list)
    _phase: str = "setup"
    #: Optional :class:`repro.obs.Profiler` observing this clock.  Set by
    #: the profiler itself; ``set_phase`` notifies it so every engine that
    #: labels phases gets a run -> phase span tree without extra wiring.
    profiler: object | None = None
    #: Optional :class:`repro.faults.FaultInjector`.  Substrates that share
    #: this clock (device, thread pool, MPI layer, transfers) discover it
    #: here — the same pattern as ``profiler`` — so fault sites need no
    #: extra plumbing through the engine call chains.
    injector: object | None = None
    #: Optional :class:`repro.runtime.hwcount.HwCounters`.  Attached by the
    #: profiler (same discovery pattern again); CPU/MPI substrates record
    #: hardware-utilization counters here alongside their cost charges.
    hw: object | None = None
    #: Host-timeline cursor.  Equals the sum of host-event seconds for a
    #: purely serial run; async tracks can run ahead of it until synced.
    _now: float = 0.0
    #: End cursor of each named async track (simulated stream).
    _tracks: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def set_phase(self, phase: str) -> None:
        """Set the phase label charged by subsequent events.

        A phase boundary is a synchronization point: any async track still
        running is folded into the wall clock first, so phase spans always
        contain the async work charged within them.
        """
        self.sync_tracks()
        self._phase = phase
        if self.profiler is not None:
            self.profiler.on_phase(phase)

    @property
    def phase(self) -> str:
        return self._phase

    def charge(
        self, category: str, seconds: float, count: float = 0.0, detail: str = ""
    ) -> None:
        """Record a cost event in the current phase.

        ``category`` must belong to :data:`VOLUME_CATEGORIES` or
        :data:`OVERHEAD_CATEGORIES`; an unknown category would silently
        land in neither scaling group of :meth:`extrapolated_seconds`.
        """
        if seconds < 0:
            raise ValueError(f"negative cost: {seconds}")
        if category not in KNOWN_CATEGORIES:
            raise ValueError(
                f"unknown cost category {category!r}; known categories: "
                f"{', '.join(sorted(KNOWN_CATEGORIES))}"
            )
        self.events.append(CostEvent(self._phase, category, seconds, count, detail))
        self._now += seconds

    def charge_at(
        self,
        track: str,
        category: str,
        seconds: float,
        start: float | None = None,
        count: float = 0.0,
        detail: str = "",
    ) -> tuple[float, float]:
        """Record an asynchronous cost event on a named track.

        The event occupies ``[start, start + seconds]`` on the shared
        timeline; ``start`` defaults to the track's enqueue point,
        ``max(track end, host now)`` — a stream command cannot begin
        before the commands already queued on its stream, nor before the
        host issued it.  The host cursor does *not* advance; the track's
        end cursor does.  Returns the ``(start, end)`` interval so callers
        can emit matching profiler spans.
        """
        if not track:
            raise ValueError("charge_at requires a non-empty track name")
        if seconds < 0:
            raise ValueError(f"negative cost: {seconds}")
        if category not in KNOWN_CATEGORIES:
            raise ValueError(
                f"unknown cost category {category!r}; known categories: "
                f"{', '.join(sorted(KNOWN_CATEGORIES))}"
            )
        if start is None:
            start = self.track_end(track)
        elif start < 0:
            raise ValueError(f"negative track start: {start}")
        end = start + seconds
        self.events.append(
            CostEvent(self._phase, category, seconds, count, detail, track, start)
        )
        self._tracks[track] = max(self._tracks.get(track, 0.0), end)
        return start, end

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The host-timeline cursor (excludes unsynced async tracks)."""
        return self._now

    def track_end(self, track: str) -> float:
        """Where the next command enqueued on ``track`` would start."""
        return max(self._tracks.get(track, 0.0), self._now)

    def advance_track(self, track: str, timestamp: float) -> None:
        """Insert an idle gap on ``track`` up to ``timestamp`` (a stream
        waiting on another stream's event; nothing is charged)."""
        self._tracks[track] = max(self._tracks.get(track, 0.0), timestamp)

    def wait_until(self, timestamp: float) -> None:
        """Advance the host cursor to ``timestamp`` (host-side wait on an
        async event; a no-op when the host is already past it)."""
        self._now = max(self._now, timestamp)

    def sync_tracks(self, tracks: Iterable[str] | None = None) -> None:
        """Fold async track time into the wall clock (device synchronize).

        Advances the host cursor to the end of the named tracks (all
        tracks by default) without charging any event: the waiting time is
        already covered by the tracks' own events, so wall time becomes
        the busy-union, never the serial sum.
        """
        names = list(self._tracks) if tracks is None else list(tracks)
        for name in names:
            self._now = max(self._now, self._tracks.get(name, 0.0))

    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds: the host cursor.

        Identical to :attr:`busy_seconds` for serial runs; under async
        overlap it is the busy-union of the host and stream tracks (after
        the owning engine synchronizes), which is what phase spans,
        ledger totals and the benchmark tables report.
        """
        return self._now

    @property
    def busy_seconds(self) -> float:
        """Serial sum of every charge — the pre-overlap measure, used for
        utilization ratios and extrapolation."""
        return sum(e.seconds for e in self.events)

    def seconds_by_phase(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for e in self.events:
            out[e.phase] += e.seconds
        return dict(out)

    def seconds_by_category(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for e in self.events:
            out[e.category] += e.seconds
        return dict(out)

    def seconds_for(self, phase: str | None = None, category: str | None = None) -> float:
        return sum(
            e.seconds
            for e in self.events
            if (phase is None or e.phase == phase)
            and (category is None or e.category == category)
        )

    def counts_by_category(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for e in self.events:
            out[e.category] += e.count
        return dict(out)

    # ------------------------------------------------------------------
    def extrapolated_seconds(
        self, volume_factor: float, overhead_factor: float | None = None
    ) -> float:
        """Re-evaluate total time as if the problem were ``volume_factor``
        times larger.

        Volume-scaling categories (memory traffic, compute) multiply by
        ``volume_factor``; overhead categories (launches, barriers, message
        latencies) multiply by ``overhead_factor``, which defaults to the
        ratio of coarsening-level counts, approximately
        ``1 + log2(volume_factor) / 20`` (levels grow logarithmically and a
        run has ~20 of them at bench scale).
        """
        if volume_factor <= 0:
            raise ValueError("volume_factor must be positive")
        if overhead_factor is None:
            import math

            overhead_factor = max(1.0, 1.0 + math.log2(volume_factor) / 20.0)
        total = 0.0
        for e in self.events:
            if e.category in VOLUME_CATEGORIES:
                total += e.seconds * volume_factor
            elif e.category in OVERHEAD_CATEGORIES:
                total += e.seconds * overhead_factor
            else:
                total += e.seconds * volume_factor  # conservative default
        # Busy time extrapolates per category; the overlap already won at
        # bench scale carries over as a constant wall/busy ratio (streams
        # hide the same *fraction* of the transfer stream at any scale).
        busy = self.busy_seconds
        wall = self.total_seconds
        if busy > 0.0 and wall < busy:
            total *= wall / busy
        return total

    def merge(self, others: Iterable["SimClock"]) -> None:
        """Absorb events from other clocks (used when sub-engines finish).

        The absorbed run executes after everything already on this clock:
        its async events are rebased by the current wall time and its wall
        seconds extend this clock's cursor.
        """
        for other in others:
            offset = self._now
            for e in other.events:
                if e.track and e.start >= 0.0:
                    self.events.append(replace(e, start=e.start + offset))
                else:
                    self.events.append(e)
            other_tracks = getattr(other, "_tracks", {})
            other_wall = max(
                other.total_seconds, max(other_tracks.values(), default=0.0)
            )
            self._now += other_wall
            for track, end in other_tracks.items():
                self._tracks[track] = max(
                    self._tracks.get(track, 0.0), end + offset
                )

    def breakdown(self, by: str | None = None) -> str | dict[str, float]:
        """Phase/category shares of the total modeled time.

        With ``by="phase"`` or ``by="category"``, returns percent shares
        (values summing to 100 when any time was charged).  With no
        argument, returns the human-readable phase table for reports.
        """
        if by is not None:
            if by == "phase":
                seconds = self.seconds_by_phase()
            elif by == "category":
                seconds = self.seconds_by_category()
            else:
                raise ValueError(f"breakdown by must be 'phase' or 'category', got {by!r}")
            total = self.total_seconds
            if total <= 0:
                return {key: 0.0 for key in seconds}
            return {key: 100.0 * value / total for key, value in seconds.items()}
        lines = [f"total modeled time: {self.total_seconds:.6f} s"]
        for phase, secs in sorted(self.seconds_by_phase().items()):
            lines.append(f"  {phase:<16s} {secs:.6f} s")
        return "\n".join(lines)


class HostTimeline:
    """The host cursor of a :class:`SimClock`, as a timeline to charge.

    Blocking work runs here: :meth:`charge` is :meth:`SimClock.charge`
    returning the charged interval, and spans carry no ``stream``
    attribute.  An asynchronous stream offers the same three members on
    its own track, so code that charges "wherever this work runs" (a
    PCIe copy, a kernel launch, a retry backoff) is written once for
    both schedules.
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock

    @property
    def cursor(self) -> float:
        """Where the next charge starts: the host cursor."""
        return self.clock.total_seconds

    def charge(
        self, category: str, seconds: float, count: float = 0.0, detail: str = ""
    ) -> tuple[float, float]:
        """Charge the host cursor; returns the ``(start, end)`` interval."""
        start = self.clock.total_seconds
        self.clock.charge(category, seconds, count=count, detail=detail)
        return start, self.clock.total_seconds

    def span(self, name: str, start: float, end: float, category: str, **attrs) -> None:
        """Add a complete span for work on this timeline, when a profiler
        observes the clock."""
        profiler = self.clock.profiler
        if profiler is not None:
            profiler.add_span(name, start, end, category=category, **attrs)
