"""The concurrent partition service: queueing, batching, caching.

:class:`PartitionService` accepts :class:`~repro.service.PartitionRequest`
submissions into bounded per-priority lanes and serves them over a
simulated :class:`~repro.service.workers.WorkerPool` — CPU workers plus
a shared GPU lease so concurrent gp-metis jobs serialize on the one
simulated Titan instead of oversubscribing it.

Concurrency is a *discrete-event simulation*: ``drain`` executes the
queued requests sequentially in deterministic (lane, submission) order
and lays the resulting modeled durations out on the pool's timeline.
Queue waits, latencies and throughput therefore respond to the pool
shape, while partition vectors, cache hit sequences and ledger contents
are bit-identical whatever ``num_workers`` is — the property the
determinism tests pin down.

Served requests hit three cost reducers:

* the **result cache** (:class:`~repro.service.cache.ResultCache`),
  keyed by the request's config fingerprint (the ledger config block
  plus a content digest of the graph's CSR arrays);
* **batching**: requests in one drain sharing (engine, graph) form a
  batch; the first executed miss pays the engine's full modeled cost,
  followers get the one-time CSR build/H2D-transfer seconds
  (the ``csr.*``-labelled transfer charges) refunded, modeling the graph
  arrays already resident on the shared GPU across a k/seed sweep;
* **retries**: transient engine faults (see :mod:`repro.faults`) are
  retried under a :class:`~repro.faults.retry.RetryPolicy`, each backoff
  charged to the request's service time.  Requests carrying a *fault
  plan* are exempt: a plan is a seeded schedule that replays identically
  on every attempt, so a fault the engine's own recovery ladder could
  not absorb can never succeed on a service re-run — those fail fast as
  ``status="failed"`` instead of burning doomed re-executions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..exceptions import (
    GraphFormatError,
    InvalidGraphError,
    InvalidParameterError,
    PartitioningError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
)
from ..faults.retry import RetryPolicy
from ..obs.critical import attribution_totals, request_entry
from ..obs.hw import (
    BOUND_KINDS,
    exposed_span_seconds,
    hw_metrics,
    hw_section,
    transfer_avoidance_ratio,
)
from ..obs.ledger import (
    append_record,
    get_default_ledger,
    ledger_record,
    options_hash,
)
from ..obs.spans import Profiler
from ..obs.tracectx import TraceContext, request_trace_id, use_trace_context
from ..result import PartitionResult
from ..runtime.clock import SimClock
from ..runtime.hwcount import HwCounters
from ..runtime.machine import PAPER_MACHINE
from .cache import ResultCache
from .request import PartitionRequest
from .stats import ServiceStats
from .workers import GPU_ENGINES, WorkerPool

__all__ = ["ServiceConfig", "Ticket", "PartitionService"]

#: Engine errors worth retrying: simulated-hardware transients.  Input
#: and algorithm errors are deterministic rejections — retrying them
#: would burn the budget to reach the same exception.
_NON_RETRYABLE = (
    InvalidParameterError,
    InvalidGraphError,
    GraphFormatError,
    PartitioningError,
    ServiceError,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Shape and policy of one :class:`PartitionService`."""

    num_workers: int = 4
    #: Concurrent GPU jobs the pool supports (the paper testbed has 1).
    gpu_slots: int = 1
    #: Admission limit per priority lane; a full lane rejects with
    #: :class:`~repro.exceptions.ServiceOverloadedError`.
    queue_limit: int = 64
    num_lanes: int = 3
    cache_entries: int = 128
    cache_enabled: bool = True
    batching: bool = True
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Fixed per-request dispatch overhead (modeled seconds).
    dispatch_seconds: float = 5e-6
    #: Optional JSONL ledger receiving one ``engine="service"`` record
    #: per drain (engine runs append their own records through the
    #: process-default ledger as usual).
    ledger: str | None = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise InvalidParameterError("num_workers must be >= 1")
        if self.num_lanes < 1:
            raise InvalidParameterError("num_lanes must be >= 1")
        if self.queue_limit < 1:
            raise InvalidParameterError("queue_limit must be >= 1")
        if self.dispatch_seconds < 0:
            raise InvalidParameterError("dispatch_seconds must be >= 0")


@dataclass
class Ticket:
    """The service's view of one submitted request, updated in place."""

    request: PartitionRequest
    seq: int
    lane: int
    engine: str
    fingerprint: str
    submitted_at: float
    status: str = "queued"  # queued | served | failed
    cache: str = "pending"  # pending | hit | miss | bypass
    result: PartitionResult | None = None
    error: Exception | None = None
    worker: int | None = None
    gpu_slot: int | None = None
    started_at: float = 0.0
    finished_at: float = 0.0
    queue_wait: float = 0.0
    service_seconds: float = 0.0
    latency: float = 0.0
    retries: int = 0
    retry_seconds: float = 0.0
    batch_id: int | None = None
    batch_leader: bool = False
    amortized_seconds: float = 0.0
    #: Slice of ``queue_wait`` spent behind this ticket's batch leader.
    batch_wait: float = 0.0
    #: Deterministic trace id (set at drain time; see repro.obs.tracectx).
    trace_id: str = ""
    #: Causal links to other traces (batch follower -> leader engine run).
    links: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "served"


def _csr_setup_seconds(result: PartitionResult) -> float:
    """The one-time CSR H2D transfer cost inside a result's run — the
    seconds a same-graph batch follower does not pay again.

    Only *exposed* seconds are refundable: under the async-streams
    schedule part of the CSR upload hides behind kernels and never
    reaches the critical path, so skipping it saves nothing.  Falls back
    to the clock's event sum when no profiler observed the run (the
    serial path, where nothing overlaps and the two agree).
    """
    profiler = getattr(result, "profiler", None)
    if profiler is not None:
        csr_spans = [
            s for s in profiler.root.find_category("transfer")
            if s.name.startswith("h2d.csr.")
        ]
        if csr_spans:
            return exposed_span_seconds(
                csr_spans, profiler.root.find_category("kernel")
            )
    return sum(
        e.seconds
        for e in result.clock.events
        if e.category in ("transfer_latency", "transfer_bytes")
        and e.detail.startswith("csr.")
    )


def _csr_setup_bytes(result: PartitionResult) -> tuple[float, int]:
    """(bytes, transfer count) of the CSR H2D charges in a result's clock
    — the PCIe traffic a batch follower did not actually generate."""
    nbytes = 0.0
    transfers = 0
    for e in result.clock.events:
        if not e.detail.startswith("csr."):
            continue
        if e.category == "transfer_bytes":
            nbytes += e.count
        elif e.category == "transfer_latency":
            transfers += int(e.count)
    return nbytes, transfers


class PartitionService:
    """Deterministic discrete-event partition service over a worker pool."""

    def __init__(self, config: ServiceConfig | None = None, **overrides) -> None:
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise InvalidParameterError(
                "pass either a ServiceConfig or keyword overrides, not both"
            )
        self.config = config
        self.pool = WorkerPool(config.num_workers, config.gpu_slots)
        self.cache = ResultCache(config.cache_entries)
        self.stats = ServiceStats()
        self.clock = SimClock()
        self._lanes: list[deque[Ticket]] = [deque() for _ in range(config.num_lanes)]
        self._seq = 0
        self._drains = 0
        self._batch_ids = 0
        #: Lifetime counter values already reported by earlier drain
        #: records — each drain's ledger record carries the delta.
        self._counter_marks: dict[str, float] = {}
        self.now = 0.0
        #: Profiler of the most recent drain (for ledger/gate harnesses).
        self.last_profiler: Profiler | None = None

    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        return sum(len(lane) for lane in self._lanes)

    def lane_of(self, request: PartitionRequest) -> int:
        return min(request.priority, self.config.num_lanes - 1)

    def submit(self, request: PartitionRequest) -> Ticket:
        """Admit a request into its priority lane.

        Resolves the engine and fingerprint eagerly, so malformed
        requests fail here — not on a worker — and raises
        :class:`~repro.exceptions.ServiceOverloadedError` when the lane
        is at ``queue_limit``.
        """
        if not isinstance(request, PartitionRequest):
            raise InvalidParameterError(
                f"submit takes a PartitionRequest, got {type(request).__name__}"
            )
        lane = self.lane_of(request)
        if len(self._lanes[lane]) >= self.config.queue_limit:
            self.stats.record_rejection(lane)
            raise ServiceOverloadedError(
                f"lane {lane} is full ({self.config.queue_limit} queued); "
                "drain the service or lower the request rate",
                lane=lane,
                queued=len(self._lanes[lane]),
                limit=self.config.queue_limit,
            )
        ticket = Ticket(
            request=request,
            seq=self._seq,
            lane=lane,
            engine=request.engine,
            fingerprint=request.fingerprint,
            submitted_at=self.now,
        )
        self._seq += 1
        self._lanes[lane].append(ticket)
        self.stats.record_submit(lane)
        return ticket

    # ------------------------------------------------------------------
    def _execute(self, ticket: Ticket):
        """Run the engine with fault-plan-aware retries.

        Returns ``(result, error)``; retry backoffs accumulate on the
        ticket.  Non-retryable errors (bad input, algorithm failure)
        surface immediately, and so do faults from a request that
        carries a fault plan: the plan is a deterministic schedule, so
        re-running the engine replays the identical fault sequence and a
        service-level retry can never succeed.
        """
        policy = self.config.retry_policy
        deterministic = (
            getattr(ticket.request.engine_options(), "fault_plan", None) is not None
        )
        max_retries = 0 if deterministic else policy.max_retries
        while True:
            try:
                return ticket.request.run(), None
            except _NON_RETRYABLE as exc:
                return None, exc
            except ReproError as exc:
                if ticket.retries >= max_retries:
                    return None, exc
                ticket.retries += 1
                ticket.retry_seconds += policy.backoff(ticket.retries)
                self.stats.record_retry()

    def _serve_hit(self, ticket: Ticket, entry, t0: float) -> None:
        ticket.status = "served"
        ticket.cache = "hit"
        ticket.result = entry.result
        ticket.started_at = t0
        ticket.finished_at = t0 + self.config.dispatch_seconds
        ticket.queue_wait = t0 - ticket.submitted_at
        ticket.service_seconds = self.config.dispatch_seconds
        ticket.latency = ticket.finished_at - ticket.submitted_at

    def _serve_miss(
        self, ticket: Ticket, batch_state: dict, t0: float, ctx: TraceContext
    ) -> None:
        # The engine profiler adopts the request's trace context, so the
        # whole phase/kernel/transfer tree (and any nested fallback
        # engine) joins this ticket's trace under its engine-run span.
        with use_trace_context(ctx):
            result, error = self._execute(ticket)
        key = (ticket.engine, id(ticket.request.graph))
        state = batch_state.setdefault(
            key, {"id": None, "paid": False, "members": 0, "leader": None}
        )
        if result is not None:
            setup = _csr_setup_seconds(result)
            if self.config.batching and setup > 0:
                if state["paid"]:
                    ticket.amortized_seconds = setup
                    leader = state["leader"]
                    if leader is not None:
                        # Causal link, not parentage: the follower's run
                        # amortizes the leader's CSR transfer.
                        ticket.links.append({
                            "trace_id": leader.trace_id,
                            "span_id": f"{leader.trace_id}:run",
                        })
                else:
                    state["paid"] = True
                    ticket.batch_leader = True
                    state["leader"] = ticket
                state["members"] += 1
                if state["id"] is None:
                    state["id"] = self._batch_ids
                    self._batch_ids += 1
                ticket.batch_id = state["id"]
            seconds = max(0.0, result.modeled_seconds - ticket.amortized_seconds)
            ticket.status = "served"
            ticket.result = result
            if self.config.cache_enabled:
                self.cache.put(ticket.fingerprint, ticket.request.config(), result)
        else:
            seconds = 0.0
            ticket.status = "failed"
            ticket.error = error
        seconds += ticket.retry_seconds + self.config.dispatch_seconds
        assignment = self.pool.assign(
            t0, seconds, needs_gpu=ticket.engine in GPU_ENGINES
        )
        ticket.worker = assignment.worker
        ticket.gpu_slot = assignment.gpu_slot
        ticket.started_at = assignment.start
        ticket.finished_at = assignment.start + seconds
        ticket.queue_wait = assignment.start - ticket.submitted_at
        ticket.service_seconds = seconds
        ticket.latency = ticket.finished_at - ticket.submitted_at
        leader = state["leader"]
        if leader is not None and leader is not ticket:
            # Queue time spent waiting behind the batch leader's run.
            ticket.batch_wait = max(
                0.0,
                min(ticket.started_at, leader.finished_at)
                - max(ticket.submitted_at, leader.started_at),
            )

    # ------------------------------------------------------------------
    def drain(self) -> list[Ticket]:
        """Serve every queued request; returns the tickets in service order.

        Execution order is (lane, submission sequence) — independent of
        the pool shape — so results and cache behaviour are identical
        across worker counts; only the timeline metadata changes.
        """
        tickets: list[Ticket] = []
        for lane in self._lanes:
            while lane:
                tickets.append(lane.popleft())
        tickets.sort(key=lambda t: (t.lane, t.seq))
        if not tickets:
            return []
        t0 = self.now
        self._drains += 1
        self.pool.reset_accounting()
        profiler = Profiler(
            self.clock,
            name=f"service drain {self._drains}",
            category="run",
            engine="service",
            graph=self._workload_label(tickets),
            num_vertices=0,
            num_edges=0,
            k=len(tickets),
            seed=0,
            options_hash=options_hash(
                {
                    "num_workers": self.config.num_workers,
                    "gpu_slots": self.config.gpu_slots,
                    "queue_limit": self.config.queue_limit,
                    "requests": [t.fingerprint for t in tickets],
                }
            ),
        )
        self.clock.set_phase("serve")
        cache_before = self.cache.stats()
        batch_state: dict = {}
        for ticket in tickets:
            ticket.trace_id = request_trace_id(
                ticket.fingerprint, self._drains, ticket.seq
            )
            entry = self.cache.get(ticket.fingerprint) if self.config.cache_enabled else None
            if not self.config.cache_enabled:
                ticket.cache = "bypass"
            if entry is not None:
                self._serve_hit(ticket, entry, t0)
            else:
                if ticket.cache != "bypass":
                    ticket.cache = "miss"
                ctx = TraceContext(ticket.trace_id, f"{ticket.trace_id}:run")
                self._serve_miss(ticket, batch_state, t0, ctx)
            self._add_request_spans(profiler, ticket)
            self.stats.record_ticket(ticket)
        entries = [
            request_entry(
                ticket,
                dispatch_seconds=self.config.dispatch_seconds,
                batch_wait=ticket.batch_wait,
                links=ticket.links,
            )
            for ticket in tickets
        ]
        for bucket, seconds in attribution_totals(entries).items():
            profiler.metrics.counter(
                f"service.attribution.{bucket}_seconds"
            ).inc(seconds)
        makespan_end = max(t.finished_at for t in tickets)
        served = sum(1 for t in tickets if t.ok)
        batches = sum(1 for s in batch_state.values() if s["members"] >= 2)
        self.clock.charge(
            "sync", makespan_end - t0, count=len(tickets), detail="serve makespan"
        )
        self.now = makespan_end
        makespan = makespan_end - t0
        utilization = self.pool.utilization(since=t0)
        self.stats.record_drain(
            makespan=makespan, served=served, utilization=utilization,
            batches=batches,
        )
        self.stats.record_cache(self.cache.stats())
        drain_hw = self._drain_hw_aggregate(tickets)
        self.stats.record_hw(drain_hw)
        self._fold_drain_metrics(
            profiler, tickets, cache_before,
            makespan=makespan, served=served, utilization=utilization,
            batches=batches,
        )
        profiler.finish(
            served=served,
            failed=len(tickets) - served,
            cache_hits=sum(1 for t in tickets if t.cache == "hit"),
            batches=batches,
        )
        self._attach_drain_hw(profiler, drain_hw)
        self.last_profiler = profiler
        ledger_path = self.config.ledger or get_default_ledger()
        if ledger_path is not None:
            append_record(
                ledger_path,
                ledger_record(profiler, sections={"requests": entries}),
            )
        return tickets

    def _add_request_spans(self, profiler: Profiler, ticket: Ticket) -> None:
        """File one ticket's span subtree under the drain profiler.

        The subtree lives in the *request's* trace (not the drain's):
        ``request -> queue-wait -> dispatch -> [retry] -> [engine-run]``,
        with deterministic span ids derived from the trace id so they
        are identical whatever the worker-pool shape.  The engine-run
        span id is exactly the context the engine profiler adopted in
        :meth:`_serve_miss`, which stitches the engine's own span tree
        (a separate profiler, a separate ledger record) onto this
        request as a child.
        """
        tid = ticket.trace_id
        req = profiler.add_span(
            f"{ticket.engine} {ticket.request.graph.name}",
            ticket.submitted_at,
            ticket.finished_at,
            category="request",
            trace_id=tid,
            span_id=f"{tid}:req",
            engine=ticket.engine,
            k=ticket.request.k,
            lane=ticket.lane,
            cache=ticket.cache,
            status=ticket.status,
            worker=ticket.worker,
            queue_wait=ticket.queue_wait,
            fingerprint=ticket.fingerprint,
        )
        if ticket.started_at > ticket.submitted_at:
            profiler.add_span(
                "queue-wait", ticket.submitted_at, ticket.started_at,
                category="queue", parent=req, trace_id=tid,
                span_id=f"{tid}:queue", lane=ticket.lane,
                batch_wait=ticket.batch_wait,
            )
        cursor = ticket.started_at
        profiler.add_span(
            "dispatch", cursor, cursor + self.config.dispatch_seconds,
            category="dispatch", parent=req, trace_id=tid,
            span_id=f"{tid}:dispatch", worker=ticket.worker,
        )
        cursor += self.config.dispatch_seconds
        if ticket.retry_seconds > 0:
            profiler.add_span(
                "retry-backoff", cursor, cursor + ticket.retry_seconds,
                category="retry", parent=req, trace_id=tid,
                span_id=f"{tid}:retry", retries=ticket.retries,
            )
            cursor += ticket.retry_seconds
        if ticket.result is not None and ticket.cache != "hit":
            profiler.add_span(
                "engine-run", cursor, ticket.finished_at,
                category="engine-run", parent=req, trace_id=tid,
                span_id=f"{tid}:run", links=tuple(ticket.links),
                engine=ticket.engine,
                amortized_seconds=ticket.amortized_seconds,
            )

    def _fold_drain_metrics(
        self, profiler: Profiler, tickets: list[Ticket], cache_before: dict, *,
        makespan: float, served: int, utilization: float, batches: int,
    ) -> None:
        """Copy a *per-drain* view of the ``service.*`` metrics into the
        drain's ledger record.

        The lifetime :class:`ServiceStats` registry keeps accumulating
        across drains (that is what :meth:`snapshot` reports), but each
        ledger record must stand alone: counters go in as deltas since
        the previous drain's record, and latency/queue-wait/cache gauges
        are recomputed over this drain's tickets only — otherwise a
        multi-drain run appends records whose totals double-count and
        whose percentiles span every earlier drain.
        """
        drain_stats = ServiceStats()
        for ticket in tickets:
            drain_stats.record_ticket(ticket)
        drain_stats.record_drain(
            makespan=makespan, served=served, utilization=utilization,
            batches=batches,
        )
        cache_now = self.cache.stats()
        hits = cache_now["hits"] - cache_before["hits"]
        lookups = hits + cache_now["misses"] - cache_before["misses"]
        drain_stats.record_cache({
            "entries": cache_now["entries"],
            "hit_rate": hits / lookups if lookups else 0.0,
            "saved_seconds": (
                cache_now["saved_seconds"] - cache_before["saved_seconds"]
            ),
        })
        for key, counter in self.stats.metrics.counters.items():
            profiler.metrics.counter(key).inc(
                counter.value - self._counter_marks.get(key, 0.0)
            )
            self._counter_marks[key] = counter.value
        for key, gauge in drain_stats.metrics.gauges.items():
            profiler.metrics.gauge(key).set(gauge.value)
        # Transplant the per-drain latency/queue-wait histograms (global
        # and per-lane) so the record's summaries cover this drain only.
        for key, hist in drain_stats.metrics.histograms.items():
            profiler.metrics.histograms[key] = hist

    def _drain_hw_aggregate(self, tickets: list[Ticket]) -> dict:
        """Hardware traffic this drain actually generated, summed over the
        tickets that ran an engine (cache hits moved no new bytes).

        Batch followers are credited for the CSR setup transfers the
        leader's device-resident graph satisfied: :meth:`_serve_miss`
        refunded the *seconds*, and the same ``csr.*`` charges identify
        the *bytes* that never crossed PCIe — exactly the traffic the
        transfer-avoidance ratio must not count against the bus.
        """
        counters = HwCounters()
        pcie_bytes = pcie_seconds = pcie_exposed = 0.0
        pcie_transfers = 0
        gpu_bytes = gpu_ops = gpu_seconds = coal_weighted = 0.0
        bound_seconds = {kind: 0.0 for kind in BOUND_KINDS}
        saw_gpu = False
        for t in tickets:
            if t.result is None or t.cache == "hit":
                continue
            run_prof = getattr(t.result, "profiler", None)
            if getattr(run_prof, "hw_counters", None) is not None:
                counters.merge(run_prof.hw_counters)
            run_hw = getattr(run_prof, "hw", None)
            if not run_hw:
                continue
            p = run_hw["pcie"]
            nbytes, transfers, seconds = p["bytes"], p["transfers"], p["seconds"]
            exposed = p["exposed_seconds"]
            if t.amortized_seconds > 0.0:
                csr_bytes, csr_transfers = _csr_setup_bytes(t.result)
                nbytes = max(0.0, nbytes - csr_bytes)
                transfers = max(0, transfers - csr_transfers)
                # The refund is the exposed CSR cost; total seconds drop
                # by the same amount the latency refund gave back.
                refund = _csr_setup_seconds(t.result)
                seconds = max(0.0, seconds - refund)
                exposed = max(0.0, exposed - refund)
            pcie_bytes += nbytes
            pcie_transfers += transfers
            pcie_seconds += seconds
            pcie_exposed += min(exposed, seconds)
            g = run_hw.get("gpu")
            if g is not None:
                saw_gpu = True
                gpu_bytes += g["bytes_moved"]
                gpu_ops += g["compute_ops"]
                gpu_seconds += g["kernel_seconds"]
                coal_weighted += g["coalescing"] * g["bytes_moved"]
                for kind, sec in g["bound_seconds"].items():
                    bound_seconds[kind] = bound_seconds.get(kind, 0.0) + sec
        return {
            "requests": len(tickets),
            "counters": counters,
            "pcie": {
                "bytes": pcie_bytes,
                "transfers": pcie_transfers,
                "seconds": pcie_seconds,
                "exposed_seconds": pcie_exposed,
            },
            "gpu": {
                "bytes_moved": gpu_bytes,
                "compute_ops": gpu_ops,
                "kernel_seconds": gpu_seconds,
                "coalescing_weighted": coal_weighted,
                "bound_seconds": bound_seconds,
            } if saw_gpu else None,
            "transfer_avoidance": transfer_avoidance_ratio(gpu_bytes, pcie_bytes),
            "bytes_per_request": pcie_bytes / len(tickets) if tickets else 0.0,
        }

    def _attach_drain_hw(self, profiler: Profiler, agg: dict) -> None:
        """Assemble the drain record's ``hw`` block and ``hw.*`` metrics.

        The drain profiler itself only charges scheduling bookkeeping, so
        its own counters are empty; the block carries the per-ticket
        aggregate from :meth:`_drain_hw_aggregate` instead, scored against
        the paper testbed's peaks (per-engine machine variants are scored
        in their own run records).
        """
        machine = PAPER_MACHINE
        section = hw_section(profiler, machine)
        counters = agg["counters"].as_dict()
        section["cpu"] = counters["cpu"]
        section["mpi"] = counters["mpi"]
        net = machine.interconnect
        p = agg["pcie"]
        seconds = p["seconds"]
        section["pcie"] = {
            "transfers": p["transfers"],
            "bytes": p["bytes"],
            "seconds": seconds,
            "exposed_seconds": p["exposed_seconds"],
            "overlap_ratio": (
                min(1.0, max(0.0, 1.0 - p["exposed_seconds"] / seconds))
                if seconds else 0.0
            ),
            "utilization": (
                min(1.0, p["bytes"] / net.pcie_bytes_per_sec / seconds)
                if seconds else 0.0
            ),
            "alpha_share": (
                min(1.0, p["transfers"] * net.pcie_latency_seconds / seconds)
                if seconds else 0.0
            ),
            "peak_bandwidth": net.pcie_bytes_per_sec,
            "bytes_per_request": agg["bytes_per_request"],
        }
        g = agg["gpu"]
        if g is not None:
            gpu_spec = machine.gpu
            ksec = g["kernel_seconds"]
            section["gpu"] = {
                "peak_bandwidth": gpu_spec.bandwidth_bytes_per_sec,
                "peak_flops": gpu_spec.compute_ops_per_sec,
                "kernel_seconds": ksec,
                "bytes_moved": g["bytes_moved"],
                "compute_ops": g["compute_ops"],
                "dram_utilization": (
                    min(1.0, g["bytes_moved"] / ksec / gpu_spec.bandwidth_bytes_per_sec)
                    if ksec else 0.0
                ),
                "compute_utilization": (
                    min(1.0, g["compute_ops"] / ksec / gpu_spec.compute_ops_per_sec)
                    if ksec else 0.0
                ),
                "coalescing": (
                    min(1.0, g["coalescing_weighted"] / g["bytes_moved"])
                    if g["bytes_moved"] else 1.0
                ),
                "bound_seconds": g["bound_seconds"],
                "kernels": [],
            }
            section["transfer_avoidance"] = agg["transfer_avoidance"]
        profiler.hw = section
        hw_metrics(profiler.metrics, section)
        profiler.metrics.gauge("hw.pcie.bytes_per_request").set(
            agg["bytes_per_request"]
        )

    def serve(self, requests) -> list[Ticket]:
        """Submit a batch of requests and drain; rejected submissions
        raise — use :meth:`submit` directly for shedding semantics."""
        for request in requests:
            self.submit(request)
        return self.drain()

    # ------------------------------------------------------------------
    def invalidate(self, fingerprint: str | None = None, *, graph: str | None = None,
                   engine: str | None = None) -> int:
        """Explicitly drop cache entries (see :meth:`ResultCache.invalidate`)."""
        removed = self.cache.invalidate(fingerprint, graph=graph, engine=engine)
        self.stats.record_invalidation(removed)
        return removed

    @staticmethod
    def _workload_label(tickets: list[Ticket]) -> str:
        names = {t.request.graph.name for t in tickets}
        return names.pop() if len(names) == 1 else "mixed"

    def snapshot(self) -> dict:
        """JSON-ready state: headline stats + cache + pool breakdowns."""
        out = self.stats.snapshot()
        out["cache"] = self.cache.stats()
        out["pool"] = self.pool.stats()
        out["queued"] = self.queued
        out["now"] = self.now
        return out
