"""Load driver: deterministic mixed workloads against the service.

``python -m repro serve`` and ``python -m repro selfcheck`` both drive a
:class:`~repro.service.PartitionService` with the workload built here:
a round-robin mix of engines, k values and seeds over a couple of small
graphs, with deliberate repeats so the fingerprint cache sees hits.
:func:`run_load` handles backpressure (an overloaded lane triggers a
drain, then the submission is replayed — nothing is dropped below the
admission limit) and can differentially verify every unique
configuration against a direct :func:`repro.partition` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ServiceOverloadedError
from ..graphs import generators
from .request import PartitionRequest
from .scheduler import PartitionService

__all__ = ["WorkloadSpec", "build_workload", "run_load"]

#: Engine mix of the standard service workload: the paper's serial and
#: shared-memory/hybrid engines plus cheap baselines, so the GPU lease,
#: the CPU workers and the cache all see traffic.
DEFAULT_ENGINES = ("gp-metis", "mt-metis", "metis", "spectral", "random", "block")


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a generated workload (all fields deterministic)."""

    requests: int = 100
    graph_n: int = 600
    seed: int = 7
    engines: tuple[str, ...] = DEFAULT_ENGINES
    ks: tuple[int, ...] = (4, 8)
    seeds: tuple[int, ...] = (1, 2)


def build_workload(spec: WorkloadSpec | None = None) -> list[PartitionRequest]:
    """The standard mixed workload: ``spec.requests`` requests cycling a
    fixed template list (engine x k x seed x graph), so any workload
    longer than the template count repeats configurations and exercises
    the cache.  Priorities cycle the lanes 0..2."""
    spec = spec or WorkloadSpec()
    side = max(4, int(round(np.sqrt(spec.graph_n / 2))))
    graphs = [
        generators.grid2d(side, side),
        generators.delaunay(spec.graph_n, seed=spec.seed),
    ]
    templates = [
        (engine, k, seed, graph)
        for graph in graphs
        for engine in spec.engines
        for k in spec.ks
        for seed in spec.seeds
    ]
    requests = []
    for i in range(spec.requests):
        engine, k, seed, graph = templates[i % len(templates)]
        # Lower the hybrid's GPU threshold so the workload's small graphs
        # actually exercise the GPU lease and the CSR-transfer batching.
        options = {"gpu_threshold_min": 256} if engine == "gp-metis" else {}
        requests.append(
            PartitionRequest(
                graph=graph,
                k=k,
                method=engine,
                options=options,
                seed=seed,
                priority=i % 3,
                tags=("loadgen", f"req{i}"),
            )
        )
    return requests


def run_load(
    service: PartitionService,
    requests: list[PartitionRequest],
    *,
    verify: bool = False,
) -> dict:
    """Drive ``requests`` through ``service`` and report.

    Submissions rejected by admission control trigger a drain (serving
    the backlog) and are replayed, so every request is eventually served
    — ``resubmissions`` counts how often backpressure fired.  With
    ``verify=True``, each unique configuration's partition vector is
    compared against a direct synchronous run.
    """
    tickets = []
    resubmissions = 0
    for request in requests:
        try:
            tickets.append(service.submit(request))
        except ServiceOverloadedError:
            service.drain()
            resubmissions += 1
            tickets.append(service.submit(request))
    service.drain()

    failed = [t for t in tickets if t.status == "failed"]
    verification = None
    if verify:
        verification = _verify_against_direct(tickets)
    tracing = _verify_tracing(service, tickets)
    report = {
        "requests": len(requests),
        "completed": sum(1 for t in tickets if t.status in ("served", "failed")),
        "served": sum(1 for t in tickets if t.ok),
        "failed": len(failed),
        "dropped": len(requests) - len(tickets),
        "resubmissions": resubmissions,
        "cache_hits": sum(1 for t in tickets if t.cache == "hit"),
        "cache_misses": sum(1 for t in tickets if t.cache == "miss"),
        "batched_followers": sum(
            1 for t in tickets if t.batch_id is not None and not t.batch_leader
        ),
        "service": service.snapshot(),
        "tracing": tracing,
    }
    if verification is not None:
        report["verification"] = verification
    return report


def _verify_tracing(service, tickets) -> dict:
    """Check the request-tracing invariants over the served tickets.

    Every ticket carries a unique deterministic trace id; every span of
    the last drain's request subtrees shares its request's trace id; and
    each request's attribution buckets sum to its latency (to 1e-6).
    """
    from ..obs.critical import request_entry

    trace_ids = [t.trace_id for t in tickets]
    spans_share_trace = bool(tickets)
    profiler = service.last_profiler
    if profiler is not None:
        walk = [profiler.root]
        request_spans = []
        while walk:
            node = walk.pop()
            if node.category == "request":
                request_spans.append(node)
            else:
                walk.extend(node.children)
        for span in request_spans:
            tid = span.trace_id
            stack = [span]
            while stack:
                node = stack.pop()
                if node.trace_id != tid:
                    spans_share_trace = False
                stack.extend(node.children)
    attribution_ok = True
    max_residual = 0.0
    for ticket in tickets:
        entry = request_entry(
            ticket, dispatch_seconds=service.config.dispatch_seconds,
            batch_wait=ticket.batch_wait, links=ticket.links,
        )
        residual = abs(sum(entry["attribution"].values()) - entry["latency"])
        max_residual = max(max_residual, residual)
        if residual > 1e-6:
            attribution_ok = False
    return {
        "trace_ids_present": all(trace_ids),
        "trace_ids_unique": len(set(trace_ids)) == len(trace_ids),
        "spans_share_trace": spans_share_trace,
        "attribution_sums_to_latency": attribution_ok,
        "max_attribution_residual": max_residual,
        "ok": all(trace_ids)
        and len(set(trace_ids)) == len(trace_ids)
        and spans_share_trace
        and attribution_ok,
    }


def _verify_against_direct(tickets) -> dict:
    """Differential check: one direct run per unique fingerprint must
    produce the vector the service returned (hit or miss)."""
    checked: dict[str, np.ndarray] = {}
    mismatches = []
    for ticket in tickets:
        if ticket.result is None:
            continue
        direct = checked.get(ticket.fingerprint)
        if direct is None:
            direct = ticket.request.run().part
            checked[ticket.fingerprint] = direct
        if not np.array_equal(ticket.result.part, direct):
            mismatches.append(ticket.fingerprint)
    return {
        "unique_configs": len(checked),
        "mismatches": sorted(set(mismatches)),
        "ok": not mismatches,
    }
