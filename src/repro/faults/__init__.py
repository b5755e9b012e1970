"""Deterministic fault injection with graceful degradation.

``repro.faults`` makes the simulated hardware *unreliable on demand*: a
seeded :class:`FaultPlan` decides which injection sites fire (device
OOM and capacity squeezes, failed/corrupt PCIe copies, kernel aborts
and timeouts, worker stalls, dropped/duplicated MPI messages), the
:class:`FaultInjector` executes it deterministically against one run,
and the engines respond through a retry/backoff layer plus per-engine
degradation ladders — GP-metis retries transients, shrinks its GPU
working set on OOM, and falls back to the mt-metis CPU path when the
GPU phase is unrecoverable, always returning a valid partition with a
``degraded`` flag.

Entry points:

* options: every engine takes ``fault_plan=...`` (a plan, dict, or JSON
  path) and ``fault_recovery=True/False``;
* CLI: ``python -m repro faults`` (run under a plan, print the fault and
  recovery log); ``python -m repro selfcheck`` runs the exhaustive plan
  with recovery on and off;
* docs: ``docs/FAULTS.md`` documents the sites, the plan schema and each
  engine's degradation ladder.
"""

from .injector import DEGRADING_ACTIONS, FaultEvent, FaultInjector, attach_injector
from .plan import (
    FAULT_PLAN_SCHEMA,
    SITES,
    FaultPlan,
    FaultSpec,
    load_plan,
    validate_fault_plan,
)
from .retry import RetryPolicy, with_retry

__all__ = [
    "FAULT_PLAN_SCHEMA",
    "SITES",
    "DEGRADING_ACTIONS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "attach_injector",
    "load_plan",
    "validate_fault_plan",
    "with_retry",
]
