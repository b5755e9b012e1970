"""Critical-path extraction and latency attribution for service requests.

A pure analysis layer: given the tickets of one
:meth:`~repro.service.PartitionService.drain` (or the ``requests``
section of a drain ledger record), explain *where each request's latency
went*.  Latency is bucketed the way the paper's Table II buckets runtime
— transfer / coarsening / initial partitioning / refinement — extended
with the service-side buckets the paper's single-run view cannot see:
queue wait, batch wait, dispatch overhead and retry backoff.

Two invariants the property tests pin down, for every request:

* the attribution buckets sum to the end-to-end latency (float-exactly,
  up to accumulation order);
* the critical path — queue-wait → dispatch → retry → engine phases laid
  end-to-end on the service timeline — spans exactly ``submitted_at`` to
  ``finished_at``, so its duration can never exceed the latency.

Batching followers get the leader's one-time CSR transfer refunded by
the scheduler; here that refund is taken out of the *transfer* bucket
(where the charge lives), so a follower's waterfall shows the thin
transfer slice it actually paid.
"""

from __future__ import annotations

__all__ = [
    "BUCKETS",
    "phase_bucket",
    "ticket_attribution",
    "ticket_critical_path",
    "request_entry",
    "attribution_totals",
    "render_waterfall",
    "requests_chrome_trace",
]

#: Latency buckets, in waterfall order.  ``queue`` is lane wait (minus
#: any batch overlap), ``batch_wait`` the slice of queue wait spent
#: behind the request's own batch leader, ``other`` whatever engine time
#: falls outside the recognized phases (e.g. baseline ``assign``).
BUCKETS = (
    "queue",
    "batch_wait",
    "dispatch",
    "retry",
    "transfer",
    "coarsen",
    "initpart",
    "refine",
    "other",
)


def phase_bucket(phase: str) -> str:
    """Map an engine phase name onto an attribution bucket.

    Handles both naming families: gp-metis' device-qualified phases
    (``coarsening-gpu``, ``uncoarsening-cpu``) and the CPU engines'
    plain ``coarsening`` / ``initpart`` / ``uncoarsening``.  The order
    matters: ``uncoarsening`` contains the substring ``coarsen``.
    """
    p = phase.lower()
    if "transfer" in p:
        return "transfer"
    if "uncoarsen" in p or "refine" in p:
        return "refine"
    if "coarsen" in p:
        return "coarsen"
    if "initpart" in p or "initial" in p:
        return "initpart"
    return "other"


def _phase_rows(result) -> list[tuple[str, float, float]]:
    """Ordered (phase, seconds, retry_seconds) rows of an engine run.

    ``retry_seconds`` is the slice of the phase spent inside
    fault-injected retry loops — failed attempts plus backoff, read off
    the ``retry``-category spans the fault layer emits — so attribution
    can charge it to the ``retry`` bucket instead of the phase's own.
    """
    profiler = getattr(result, "profiler", None)
    if profiler is None:
        return [
            (name, seconds, 0.0)
            for name, seconds in result.clock.seconds_by_phase().items()
        ]
    rows = []
    for span in profiler.root.children:
        if span.category != "phase" or not span.closed:
            continue
        retry_s = float(
            sum(s.duration for s in span.find_category("retry"))
        )
        rows.append((span.name, span.duration, min(retry_s, span.duration)))
    return rows


def _amortized_phases(ticket) -> list[tuple[str, str, float, float]]:
    """(phase, bucket, seconds, retry_seconds) with the batch refund
    taken out of the transfer slices — the engine time this ticket
    actually paid."""
    refund = ticket.amortized_seconds
    out = []
    for name, seconds, retry_s in _phase_rows(ticket.result):
        bucket = phase_bucket(name)
        if bucket == "transfer" and refund > 0:
            taken = min(refund, seconds)
            seconds -= taken
            refund -= taken
        out.append((name, bucket, seconds, min(retry_s, seconds)))
    return out


def ticket_attribution(ticket, *, dispatch_seconds: float,
                       batch_wait: float = 0.0) -> dict:
    """Bucket one ticket's latency; values sum to ``ticket.latency``."""
    att = dict.fromkeys(BUCKETS, 0.0)
    att["queue"] = ticket.queue_wait - batch_wait
    att["batch_wait"] = batch_wait
    att["dispatch"] = dispatch_seconds
    att["retry"] = ticket.retry_seconds
    if ticket.result is not None and ticket.cache != "hit":
        engine_total = ticket.result.modeled_seconds
        accounted = 0.0
        for _name, bucket, seconds, retry_s in _amortized_phases(ticket):
            att[bucket] += seconds - retry_s
            att["retry"] += retry_s
            accounted += seconds
        # Engine time outside any labelled phase (setup between phases).
        # When the phases cover the whole run the subtraction can land an
        # ulp below zero, which the monotone counters downstream reject.
        residual = (engine_total - ticket.amortized_seconds) - accounted
        att["other"] += residual if abs(residual) > 1e-15 else 0.0
    return att


def ticket_critical_path(ticket, *, dispatch_seconds: float) -> list[dict]:
    """The request's critical path as ordered timeline segments.

    Each segment is ``{"name", "bucket", "start", "end"}`` in service
    seconds; segments tile ``[submitted_at, finished_at]`` exactly, so
    the path's duration equals the latency.
    """
    segments: list[dict] = []

    def seg(name: str, bucket: str, start: float, end: float) -> float:
        segments.append({
            "name": name, "bucket": bucket, "start": start, "end": end,
        })
        return end

    cursor = ticket.submitted_at
    if ticket.started_at > cursor:
        cursor = seg("queue-wait", "queue", cursor, ticket.started_at)
    cursor = seg("dispatch", "dispatch", cursor, cursor + dispatch_seconds)
    if ticket.retry_seconds > 0:
        cursor = seg(
            "retry-backoff", "retry", cursor, cursor + ticket.retry_seconds
        )
    if ticket.result is not None and ticket.cache != "hit":
        engine_total = ticket.result.modeled_seconds
        accounted = 0.0
        for name, bucket, seconds, retry_s in _amortized_phases(ticket):
            if seconds <= 0:
                continue
            # Injected-retry time leads its phase as its own segment so
            # the waterfall shows the fault cost where attribution puts it.
            if retry_s > 0:
                cursor = seg(f"{name} retry", "retry", cursor, cursor + retry_s)
            if seconds - retry_s > 0:
                cursor = seg(name, bucket, cursor, cursor + (seconds - retry_s))
            accounted += seconds
        tail = (engine_total - ticket.amortized_seconds) - accounted
        if tail > 0:
            cursor = seg("engine-other", "other", cursor, cursor + tail)
    return segments


def request_entry(ticket, *, dispatch_seconds: float,
                  batch_wait: float = 0.0, links=()) -> dict:
    """One JSON-ready per-request entry for the drain's ledger record."""
    att = ticket_attribution(
        ticket, dispatch_seconds=dispatch_seconds, batch_wait=batch_wait
    )
    return {
        "trace_id": ticket.trace_id,
        "span_id": f"{ticket.trace_id}:req",
        "run_span_id": f"{ticket.trace_id}:run",
        "fingerprint": ticket.fingerprint,
        "engine": ticket.engine,
        "graph": ticket.request.graph.name,
        "k": ticket.request.k,
        "lane": ticket.lane,
        "seq": ticket.seq,
        "status": ticket.status,
        "cache": ticket.cache,
        "worker": ticket.worker,
        "gpu_slot": ticket.gpu_slot,
        "batch_id": ticket.batch_id,
        "batch_leader": ticket.batch_leader,
        "amortized_seconds": ticket.amortized_seconds,
        "retries": ticket.retries,
        "submitted_at": ticket.submitted_at,
        "started_at": ticket.started_at,
        "finished_at": ticket.finished_at,
        "queue_wait": ticket.queue_wait,
        "service_seconds": ticket.service_seconds,
        "latency": ticket.latency,
        "links": [dict(link) for link in links],
        "attribution": att,
        "critical_path": ticket_critical_path(
            ticket, dispatch_seconds=dispatch_seconds
        ),
    }


def attribution_totals(entries) -> dict:
    """Sum the attribution buckets across request entries."""
    totals = dict.fromkeys(BUCKETS, 0.0)
    for entry in entries:
        for bucket, seconds in entry["attribution"].items():
            totals[bucket] = totals.get(bucket, 0.0) + seconds
    return totals


# ----------------------------------------------------------------------
def render_waterfall(entry: dict, *, width: int = 48) -> str:
    """ASCII waterfall of one request entry (ledger ``requests`` row)."""
    t0 = entry["submitted_at"]
    t1 = entry["finished_at"]
    span = max(t1 - t0, 1e-12)
    lines = [
        f"request {entry['fingerprint']}  trace {entry['trace_id']}",
        f"  {entry['engine']} {entry['graph']} k={entry['k']}"
        f"  lane={entry['lane']} seq={entry['seq']}"
        f"  status={entry['status']} cache={entry['cache']}"
        + (
            f"  batch={entry['batch_id']}"
            f"{' (leader)' if entry['batch_leader'] else ''}"
            if entry["batch_id"] is not None else ""
        ),
        f"  latency {entry['latency'] * 1e3:.3f} ms"
        f"  (queue {entry['queue_wait'] * 1e3:.3f} ms"
        f" + service {entry['service_seconds'] * 1e3:.3f} ms)"
        + (
            f"  amortized {entry['amortized_seconds'] * 1e3:.3f} ms"
            if entry["amortized_seconds"] else ""
        ),
    ]
    for link in entry.get("links", ()):
        lines.append(
            f"  link -> trace {link.get('trace_id')}"
            f" span {link.get('span_id')} (batch leader)"
        )
    lines.append("")
    for seg in entry["critical_path"]:
        dur = seg["end"] - seg["start"]
        lo = int(round((seg["start"] - t0) / span * width))
        hi = int(round((seg["end"] - t0) / span * width))
        hi = max(hi, lo + 1) if dur > 0 else lo
        bar = "." * lo + "=" * (hi - lo) + "." * (width - hi)
        lines.append(
            f"  {seg['name']:<18.18s} {seg['bucket']:<10s}"
            f" {dur * 1e3:>10.4f} ms  |{bar}|"
        )
    lines.append("")
    lines.append("  attribution (sums to latency):")
    att = entry["attribution"]
    latency = max(entry["latency"], 1e-12)
    for bucket in BUCKETS:
        seconds = att.get(bucket, 0.0)
        if seconds <= 0:
            continue
        lines.append(
            f"    {bucket:<10s} {seconds * 1e3:>10.4f} ms"
            f"  {100.0 * seconds / latency:>5.1f}%"
        )
    return "\n".join(lines)


def requests_chrome_trace(record: dict) -> dict:
    """A drain ledger record's ``requests`` as a Chrome trace document.

    One thread lane per worker (cache hits land on a synthetic
    ``cache-hits`` lane), one "X" event per critical-path segment plus
    one enclosing request event, and flow ("s"/"f") arrows from each
    batch leader's request to its followers.
    """
    from .export import CHROME_TRACE_SCHEMA, _us

    entries = record.get("requests") or []
    if not entries:
        raise ValueError("ledger record carries no requests section")
    hit_tid = max(
        (e["worker"] for e in entries if e.get("worker") is not None), default=-1
    ) + 1
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": f"repro:service drain ({record.get('run_id', '?')})"},
    }]
    tids = set()
    by_run_span: dict[str, dict] = {}
    for entry in entries:
        tid = entry["worker"] if entry.get("worker") is not None else hit_tid
        tids.add(tid)
        by_run_span[entry["run_span_id"]] = {"entry": entry, "tid": tid}
        args = {
            "trace_id": entry["trace_id"],
            "span_id": entry["span_id"],
            "fingerprint": entry["fingerprint"],
            "lane": entry["lane"],
            "status": entry["status"],
            "cache": entry["cache"],
        }
        if entry.get("links"):
            args["links"] = [dict(link) for link in entry["links"]]
        events.append({
            "name": f"{entry['engine']} {entry['graph']} k={entry['k']}",
            "cat": "request", "ph": "X",
            "ts": _us(entry["submitted_at"]),
            "dur": _us(entry["finished_at"] - entry["submitted_at"]),
            "pid": 0, "tid": tid, "args": args,
        })
        for seg in entry["critical_path"]:
            events.append({
                "name": seg["name"], "cat": seg["bucket"], "ph": "X",
                "ts": _us(seg["start"]),
                "dur": _us(seg["end"] - seg["start"]),
                "pid": 0, "tid": tid,
                "args": {"trace_id": entry["trace_id"]},
            })
    for tid in sorted(tids):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
            "args": {
                "name": "cache-hits" if tid == hit_tid else f"worker {tid}"
            },
        })
    flow_id = 0
    for entry in entries:
        for link in entry.get("links", ()):
            target = by_run_span.get(link.get("span_id"))
            if target is None:
                continue
            flow_id += 1
            leader = target["entry"]
            events.append({
                "name": "batch", "cat": "flow", "ph": "s", "id": flow_id,
                "ts": _us(leader["started_at"]), "pid": 0,
                "tid": target["tid"],
            })
            follower_tid = (
                entry["worker"] if entry.get("worker") is not None else hit_tid
            )
            events.append({
                "name": "batch", "cat": "flow", "ph": "f", "bp": "e",
                "id": flow_id, "ts": _us(entry["started_at"]), "pid": 0,
                "tid": follower_tid,
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": CHROME_TRACE_SCHEMA,
            "run_id": record.get("run_id"),
            "engine": "service",
            "requests": len(entries),
        },
    }
