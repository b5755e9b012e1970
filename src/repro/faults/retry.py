"""Retry with exponential backoff over simulated time.

The first rung of every engine's degradation ladder: transient faults
(failed/corrupt PCIe copies, dropped messages) are retried a bounded
number of times, each attempt separated by an exponentially growing
backoff that is *charged to the simulated clock* — recovering from
faults costs modeled time, exactly like the real system it stands for.

When the injector's recovery switch is off, or the retry budget runs
out, the last exception propagates and the caller moves to the next
rung (shrink the GPU working set, fall back to the CPU path, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ReproError
from ..runtime.clock import HostTimeline

__all__ = ["RetryPolicy", "with_retry"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff (defaults: 3 retries, 0.1 ms doubling)."""

    max_retries: int = 3
    backoff_seconds: float = 1e-4
    backoff_factor: float = 2.0

    def backoff(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        return self.backoff_seconds * self.backoff_factor ** (attempt - 1)


def with_retry(
    fn,
    clock,
    site: str,
    policy: RetryPolicy | None = None,
    retryable: tuple[type[BaseException], ...] = (ReproError,),
    detail: str = "",
    stream=None,
):
    """Run ``fn`` retrying injected transient faults under ``policy``.

    Retries happen only while the clock carries an injector whose
    recovery switch is on; without one, the first exception propagates
    untouched (the fault-free fast path adds no try/except overhead
    beyond this wrapper).  The failed attempts and the backoff land on
    ``stream``, the timeline the work runs on (a
    :class:`~repro.gpusim.streams.Stream` burns its own track, so the
    host is not blocked); without one, on the clock's host cursor.
    Backoff is charged under the ``sync`` category and every retry is
    recorded as a recovery event.
    """
    injector = getattr(clock, "injector", None)
    if injector is None:
        return fn()
    policy = policy or RetryPolicy()
    on = HostTimeline(clock) if stream is None else stream
    attempt = 0
    while True:
        t0 = on.cursor
        try:
            return fn()
        except retryable as exc:
            if not injector.recover:
                raise
            attempt += 1
            if attempt > policy.max_retries:
                raise
            # The failed attempt's own charges (e.g. the PCIe latency a
            # failed copy burned) are retry cost, not useful transfer
            # time: cover them with a retry-category span so latency
            # attribution can move them into the ``retry`` bucket.  The
            # backoff gets its own span, so retries show up in the run's
            # trace (and in request critical paths).
            if on.cursor > t0:
                on.span(
                    f"retry {site} attempt", t0, on.cursor, "retry",
                    attempt=attempt, max_retries=policy.max_retries,
                )
            start, end = on.charge(
                "sync", policy.backoff(attempt), count=1.0,
                detail=f"retry backoff {site}" + (f" {detail}" if detail else ""),
            )
            on.span(
                f"retry {site}", start, end, "retry",
                attempt=attempt, max_retries=policy.max_retries,
            )
            injector.record_recovery(
                site, "retry",
                f"attempt {attempt}/{policy.max_retries}: {exc}",
            )
