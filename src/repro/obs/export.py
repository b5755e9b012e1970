"""Exporters for the span tree and metrics registry.

Three formats:

* :func:`chrome_trace` — Chrome trace-event JSON (the ``traceEvents``
  array format).  Load it at ``chrome://tracing`` or https://ui.perfetto.dev
  to see the run -> phase -> level -> kernel waterfall over simulated time.
* :func:`metrics_json` — a flat, diff-friendly metrics document; every
  run-ledger record is built from one.
* :func:`render_tree` — ASCII span tree with durations and percent
  shares; when a :class:`~repro.runtime.trace.Trace` is attached it
  appends the coarsening funnel / refinement / sanitizer sections, so it
  subsumes ``Trace.render`` as the one-stop text report.
"""

from __future__ import annotations

import json

from .spans import Profiler, Span

__all__ = [
    "chrome_trace",
    "metrics_json",
    "render_tree",
    "write_chrome_trace",
    "write_metrics_json",
]

#: Schema tags embedded in the documents (checked by repro.obs.schema).
CHROME_TRACE_SCHEMA = "repro.obs.chrome-trace/1"
METRICS_SCHEMA = "repro.obs.metrics/1"

_US = 1e6  # trace-event timestamps are microseconds


def _us(seconds: float) -> float:
    return round(seconds * _US, 3)


def _span_args(span: Span) -> dict:
    """Span attrs plus the trace-identity fields, when present."""
    args = _jsonable(span.attrs)
    if span.trace_id is not None:
        args["trace_id"] = span.trace_id
    if span.span_id is not None:
        args["span_id"] = span.span_id
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    if span.links:
        args["links"] = [dict(link) for link in span.links]
    return args


def chrome_trace(profiler: Profiler, pid: int = 0, tid: int = 0) -> dict:
    """The span tree as a Chrome trace-event document.

    Every span becomes one complete ("X") event carrying its
    trace/span/parent ids in ``args``; span *links* (batching followers
    referencing the leader's engine run) become flow event pairs
    ("s" at the linked span, "f" at the linking span) so Perfetto draws
    the cross-request arrows.  Spans carrying a ``stream`` attribute (the
    async-streams schedule tags every kernel/transfer with the stream it
    ran on) render in their own named lane — one tid per stream — so the
    copy/compute overlap is visible as parallel tracks.  Trace notes
    become instant ("i") events at the run's end.  Timestamps are
    simulated microseconds, so the timeline is the *modeled* run.
    """
    engine = profiler.root.attrs.get("engine", "repro")
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": f"repro:{engine}"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": profiler.root.attrs.get("graph", "run")},
        },
    ]
    # Per-stream lanes: stream name -> tid, allocated past the host lane
    # in first-seen order (deterministic: the walk order is).
    stream_tids: dict[str, int] = {}

    def _tid_for(span: Span) -> int:
        stream = span.attrs.get("stream")
        if not isinstance(stream, str) or not stream:
            return tid
        lane = stream_tids.get(stream)
        if lane is None:
            lane = tid + 1 + len(stream_tids)
            stream_tids[stream] = lane
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": lane,
                "args": {"name": f"stream:{stream}"},
            })
        return lane

    by_span_id: dict[str, Span] = {}
    linked: list[Span] = []
    for span, _depth in profiler.root.walk():
        if span.span_id is not None:
            by_span_id[span.span_id] = span
        if span.links:
            linked.append(span)
        end = span.end if span.end is not None else span.start
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": _us(span.start),
                "dur": _us(end - span.start),
                "pid": pid,
                "tid": _tid_for(span),
                "args": _span_args(span),
            }
        )
    flow_id = 0
    for span in linked:
        for link in span.links:
            target = by_span_id.get(link.get("span_id"))
            if target is None:
                continue  # cross-document link: args still carry it
            flow_id += 1
            events.append({
                "name": "link", "cat": "flow", "ph": "s", "id": flow_id,
                "ts": _us(target.start), "pid": pid, "tid": tid,
            })
            events.append({
                "name": "link", "cat": "flow", "ph": "f", "bp": "e",
                "id": flow_id, "ts": _us(span.start), "pid": pid, "tid": tid,
            })
    if profiler.trace is not None:
        for note in profiler.trace.notes:
            events.append(
                {
                    "name": note,
                    "cat": "note",
                    "ph": "i",
                    "ts": _us(profiler.root.end or profiler.root.start),
                    "pid": pid,
                    "tid": tid,
                    "s": "p",
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": CHROME_TRACE_SCHEMA, **_jsonable(profiler.root.attrs)},
    }


def metrics_json(profiler: Profiler) -> dict:
    """Flat metrics document: run attributes, phase shares, registry."""
    root = profiler.root
    phases = {}
    for span in root.children:
        if span.category != "phase":
            continue
        entry = phases.setdefault(span.name, {"seconds": 0.0, "spans": 0})
        entry["seconds"] += span.duration
        entry["spans"] += 1
    total = root.duration
    for entry in phases.values():
        entry["share"] = entry["seconds"] / total if total else 0.0
    return {
        "schema": METRICS_SCHEMA,
        "run": {
            **_jsonable(root.attrs),
            "name": root.name,
            "modeled_seconds": total,
            "spans": sum(1 for _ in root.walk()),
            "max_depth": root.max_depth,
            "trace_id": root.trace_id,
            "span_id": root.span_id,
            "parent_id": root.parent_id,
        },
        "phases": phases,
        "metrics": profiler.metrics.as_dict(),
    }


def write_chrome_trace(profiler: Profiler, path) -> dict:
    doc = chrome_trace(profiler)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def write_metrics_json(profiler: Profiler, path) -> dict:
    doc = metrics_json(profiler)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return doc


# ----------------------------------------------------------------------
#: Kernel spans repeat per launch; the tree folds same-named siblings.
_FOLD_CATEGORIES = frozenset({"kernel", "transfer"})


def render_tree(profiler: Profiler, max_depth: int | None = None) -> str:
    """ASCII view: the span tree, then the attached trace's sections."""
    root = profiler.root
    total = root.duration or 1.0
    lines: list[str] = []

    def fmt(span: Span, prefix: str, label: str | None = None, extra: str = "") -> str:
        share = 100.0 * span.duration / total
        return (
            f"{prefix}{label or span.name:<{max(1, 46 - len(prefix))}s} "
            f"{span.duration * 1e3:>10.3f} ms {share:>5.1f}%{extra}"
        )

    def emit(span: Span, prefix: str, depth: int) -> None:
        lines.append(fmt(span, prefix))
        if max_depth is not None and depth + 1 >= max_depth:
            return
        child_prefix = prefix + "  "
        folded: dict[str, list[Span]] = {}
        ordered: list[tuple[str, Span]] = []
        for child in span.children:
            if child.category in _FOLD_CATEGORIES:
                if child.name not in folded:
                    ordered.append(("fold", child))
                folded.setdefault(child.name, []).append(child)
            else:
                ordered.append(("span", child))
        for kind, child in ordered:
            if kind == "span":
                emit(child, child_prefix, depth + 1)
            else:
                group = folded[child.name]
                agg = Span(
                    child.name,
                    child.category,
                    start=group[0].start,
                    end=group[0].start + sum(c.duration for c in group),
                )
                lines.append(
                    fmt(agg, child_prefix, extra=f"  x{len(group)}")
                    if len(group) > 1
                    else fmt(child, child_prefix)
                )

    lines.append(
        f"run: {root.name}  (modeled {root.duration:.6f} s, "
        f"{sum(1 for _ in root.walk())} spans)"
    )
    for key, value in sorted(root.attrs.items()):
        lines.append(f"  {key} = {value}")
    for child in root.children:
        emit(child, "  ", 1)
    if profiler.trace is not None:
        rendered = profiler.trace.render()
        if rendered:
            lines.append(rendered)
    return "\n".join(lines)


def _jsonable(attrs: dict) -> dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, (bool, int, float, str)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out
