"""The run lifecycle every registered partitioner shares.

The paper's engines differ only in their coarsening, initial-partitioning
and uncoarsening phases (Sec. II-III), which is also how Table II breaks
their runtime down.  Everything around those phases is the same for all
ten engines and lives here, in :meth:`Engine.partition`:

* argument checks — ``options`` must be the engine's ``options_class``,
  ``machine`` a :class:`~repro.runtime.machine.MachineSpec` and ``k`` an
  integer >= 1, else :class:`~repro.exceptions.InvalidParameterError`;
* a fresh :class:`~repro.runtime.clock.SimClock` with the options' fault
  plan attached (:func:`repro.faults.attach_injector`);
* the standard run-root span (:func:`repro.obs.profile_run`), closed with
  the final cut and imbalance by :func:`repro.obs.finish_run` — which is
  also where the run-ledger record is appended;
* the wall time, the ``degraded`` / ``fault_events`` extras and the
  :class:`~repro.result.PartitionResult`.

An engine subclasses :class:`Engine`, sets ``name`` and
``options_class`` (a subclass of :class:`EngineOptions`), and writes
:meth:`Engine.run_phases`: charge the phases to the clock, return a
:class:`PhaseOutput`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidParameterError
from .faults import attach_injector
from .graphs.csr import CSRGraph
from .graphs.metrics import edge_cut, imbalance
from .obs.hooks import finish_run, profile_run
from .result import PartitionResult
from .runtime.clock import SimClock
from .runtime.machine import PAPER_MACHINE, MachineSpec
from .runtime.trace import Trace

__all__ = ["Engine", "EngineOptions", "PhaseOutput", "check_k"]


def check_k(k) -> None:
    """Reject a part count that is not an integer >= 1.

    NumPy integers pass (a ``k`` read from an array is common); bools
    and floats do not, even when they compare equal to an integer.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidParameterError(f"k must be an int >= 1, got {k!r}")


@dataclass(frozen=True)
class EngineOptions:
    """The options every engine has: what :meth:`Engine.partition` reads."""

    #: Balance tolerance: max part weight <= ubfactor x ideal (paper: 1.03).
    ubfactor: float = 1.03
    #: RNG seed (matching order, GGGP seeds, random assignment, ...).
    seed: int = 1
    #: Optional fault plan (see :mod:`repro.faults`): a FaultPlan, a plan
    #: dict, or a path to a plan JSON file.  ``None`` disables injection.
    fault_plan: object = None
    #: Respond to injected faults with retry/degradation (True) or let
    #: them crash the run (False — the mutation ``repro selfcheck`` runs).
    fault_recovery: bool = True

    def __post_init__(self) -> None:
        if self.ubfactor < 1.0:
            raise InvalidParameterError("ubfactor must be >= 1.0")


@dataclass
class PhaseOutput:
    """What an engine's phases hand back to the lifecycle."""

    part: np.ndarray
    trace: Trace
    #: Engine-specific ``PartitionResult.extras``.  A ``degraded`` entry
    #: here is kept over the fault injector's verdict.
    extras: dict = field(default_factory=dict)
    #: Extra run-root span attributes (e.g. ``num_ranks``), ledgered.
    attrs: dict = field(default_factory=dict)
    #: The simulated GPU's counters, for the kernel/transfer metrics.
    device_stats: object = None


class Engine:
    """A partitioner built from ``(options, machine)``.

    Subclasses set ``name`` (the registry key) and ``options_class`` (a
    frozen :class:`EngineOptions` subclass) and implement
    :meth:`run_phases`.
    """

    name: str
    options_class: type

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
        self.options = options if options is not None else self.options_class()
        self.machine = machine if machine is not None else PAPER_MACHINE

    def run_phases(self, graph: CSRGraph, k: int, clock: SimClock) -> PhaseOutput:
        """Run the engine's phases against ``clock``; see :class:`PhaseOutput`."""
        raise NotImplementedError

    def partition(self, graph: CSRGraph, k: int) -> PartitionResult:
        """Partition ``graph`` into ``k`` parts: the lifecycle above
        wrapped around :meth:`run_phases`."""
        check_k(k)
        opts = self.options
        clock = SimClock()
        injector = attach_injector(
            clock, opts.fault_plan, recover=opts.fault_recovery
        )
        profiler = profile_run(
            clock, engine=self.name, graph=graph, k=k, options=opts
        )
        t0 = time.perf_counter()
        out = self.run_phases(graph, k, clock)
        finish_run(
            profiler,
            trace=out.trace,
            device_stats=out.device_stats,
            injector=injector,
            machine=self.machine,
            cut=edge_cut(graph, out.part),
            imbalance=imbalance(graph, out.part, k),
            **out.attrs,
        )
        extras = out.extras
        if injector is not None:
            extras.setdefault("degraded", injector.degraded)
            extras["fault_events"] = list(injector.events)
        return PartitionResult(
            method=self.name,
            graph_name=graph.name,
            k=k,
            part=out.part,
            clock=clock,
            trace=out.trace,
            wall_seconds=time.perf_counter() - t0,
            extras=extras,
        )
