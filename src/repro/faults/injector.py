"""The deterministic fault injector.

One :class:`FaultInjector` is attached per run to the engine's
:class:`~repro.runtime.clock.SimClock` (``clock.injector``, mirroring
``clock.profiler``), where every simulated substrate that shares the
clock — the device allocator, kernel launcher, PCIe transfers, the
thread pool and the MPI layer — can reach it without new plumbing.

Each :class:`~repro.faults.plan.FaultSpec` owns an independent seeded
random stream (``default_rng([plan.seed, spec_index])``), so whether a
site fires depends only on the plan and on how many times *that* site
was checked — never on unrelated sites or dict ordering.  Every firing
and every recovery action is appended to :attr:`events` and, when a
profiler observes the clock, emitted as an instant obs span
(``category="fault"`` / ``category="recovery"``), which is how fault
schedules land in the run ledger.

The injector also carries the run's single recovery switch
(:attr:`recover`): engines consult it before retrying or degrading, and
``python -m repro selfcheck`` flips it off to prove the recovery
machinery is what keeps a faulted run alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import (
    DeviceMemoryError,
    KernelAbortError,
    MessageLossError,
    TransferError,
    WorkerStallError,
)
from .plan import FaultPlan, FaultSpec, load_plan

__all__ = ["FaultEvent", "FaultInjector", "attach_injector"]

#: Recovery actions that change the execution path (vs. merely costing
#: time); any of these marks the run result ``degraded``.
DEGRADING_ACTIONS = frozenset(
    {"cpu-fallback", "gpu-shrink", "skip-gpu-refine", "work-steal"}
)

#: site -> exception type raised for its hard-failure kinds.
_RAISES = {
    "gpu.alloc": DeviceMemoryError,
    "kernel.launch": KernelAbortError,
    "transfer.h2d": TransferError,
    "transfer.d2h": TransferError,
    "thread.stall": WorkerStallError,
    "mpi.message": MessageLossError,
}


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault or one recovery action, in simulated time."""

    t: float
    site: str
    kind: str
    detail: str = ""
    #: "fault" for an injection, "recovery" for an engine response.
    category: str = "fault"

    def render(self) -> str:
        tag = "FAULT  " if self.category == "fault" else "RECOVER"
        detail = f" ({self.detail})" if self.detail else ""
        return f"  [{self.t:.6f}s] {tag} {self.site}/{self.kind}{detail}"


class FaultInjector:
    """Executes a :class:`FaultPlan` deterministically against one run."""

    def __init__(self, plan: FaultPlan, recover: bool = True, clock=None) -> None:
        self.plan = plan
        self.recover = recover
        self.clock = clock
        self.events: list[FaultEvent] = []
        self._fires = [0] * len(plan.specs)
        self._rngs = [
            np.random.default_rng([0xFA17, int(plan.seed), i])
            for i in range(len(plan.specs))
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def faults_injected(self) -> int:
        return sum(1 for e in self.events if e.category == "fault")

    @property
    def recoveries(self) -> int:
        return sum(1 for e in self.events if e.category == "recovery")

    @property
    def degraded(self) -> bool:
        """True when any recovery changed the execution path."""
        return any(
            e.category == "recovery" and e.kind in DEGRADING_ACTIONS
            for e in self.events
        )

    def render(self) -> str:
        if not self.events:
            return "  (no faults fired)"
        return "\n".join(e.render() for e in self.events)

    # ------------------------------------------------------------------
    # Decision + recording
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self.clock.total_seconds if self.clock is not None else 0.0

    def _record(self, site: str, kind: str, detail: str, category: str) -> FaultEvent:
        event = FaultEvent(self._now(), site, kind, detail, category)
        self.events.append(event)
        profiler = getattr(self.clock, "profiler", None)
        if profiler is not None:
            profiler.add_span(
                f"{category}.{site}.{kind}",
                event.t,
                event.t,
                category=category,
                site=site,
                kind=kind,
                detail=detail,
            )
        return event

    def fire(self, site: str, detail: str = "") -> list[FaultSpec]:
        """All specs at ``site`` that fire for this operation, recorded.

        Each matching spec draws from its own stream and honours its
        ``max_fires`` cap; the returned list is usually empty (the fast
        path costs one loop over the plan's specs).
        """
        fired: list[FaultSpec] = []
        for i, spec in enumerate(self.plan.specs):
            if spec.site != site:
                continue
            if spec.match and spec.match not in detail:
                continue
            if spec.max_fires and self._fires[i] >= spec.max_fires:
                continue
            if spec.probability < 1.0 and self._rngs[i].random() >= spec.probability:
                continue
            self._fires[i] += 1
            self._record(site, spec.kind, detail, "fault")
            fired.append(spec)
        return fired

    def record_recovery(self, site: str, action: str, detail: str = "") -> None:
        """Log one engine recovery action (retry, fallback, dedup, ...)."""
        self._record(site, action, detail, "recovery")

    # ------------------------------------------------------------------
    # Site helpers (one per substrate hook, to keep call sites tiny)
    # ------------------------------------------------------------------
    def raise_for(self, spec: FaultSpec, detail: str = "") -> None:
        """Raise the site's exception type, tagged as injected."""
        exc = _RAISES[spec.site](
            f"injected {spec.kind} at {spec.site}"
            + (f" ({detail})" if detail else "")
        )
        exc.injected = True
        exc.site = spec.site
        exc.kind = spec.kind
        raise exc

    def capacity_bytes(self, default: int) -> int:
        """Device capacity after any ``gpu.capacity``/``squeeze`` spec.

        The squeeze is a standing condition, not an event: the factor
        applies for the whole run and is recorded once, on first use.
        """
        factor = 1.0
        for i, spec in enumerate(self.plan.specs):
            if spec.site != "gpu.capacity":
                continue
            if self._fires[i] == 0:
                if spec.probability < 1.0 and (
                    self._rngs[i].random() >= spec.probability
                ):
                    self._fires[i] = -1  # decided: never squeezes
                    continue
                self._fires[i] = 1
                self._record(
                    "gpu.capacity", "squeeze", f"factor={spec.factor}", "fault"
                )
            if self._fires[i] > 0:
                factor = min(factor, spec.factor)
        return int(default * factor)


def attach_injector(clock, plan, recover: bool = True) -> FaultInjector | None:
    """Build an injector from a plan source and attach it to ``clock``.

    ``plan`` may be ``None`` (returns ``None``: the zero-overhead default
    path), a :class:`FaultPlan`, a plan dict, or a JSON file path —
    whatever the engine's ``fault_plan`` option carries.
    """
    plan = load_plan(plan)
    if not plan.specs:
        return None
    injector = FaultInjector(plan, recover=recover, clock=clock)
    clock.injector = injector
    return injector
