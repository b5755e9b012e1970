"""Structural validation of the exported JSON documents.

Pure-Python checks (no jsonschema dependency): ``repro selfcheck``
and the run ledger call these so a malformed export fails loudly
instead of silently producing a trace Perfetto cannot open.
"""

from __future__ import annotations

from .export import CHROME_TRACE_SCHEMA, METRICS_SCHEMA

__all__ = [
    "LEDGER_SCHEMA",
    "GATE_POLICY_SCHEMA",
    "SLO_POLICY_SCHEMA",
    "SchemaError",
    "validate_chrome_trace",
    "validate_metrics",
    "validate_ledger_record",
    "validate_gate_policy",
    "validate_slo_policy",
]

#: Schema tag of one run-ledger JSONL record (see repro.obs.ledger).
#: The hardware-utilization block (``hw``) is optional: bare profilers
#: compute none.
LEDGER_SCHEMA = "repro.obs.ledger/2"
#: Schema tag of a regression-gate policy file (see repro.obs.gate).
GATE_POLICY_SCHEMA = "repro.obs.gate-policy/1"
#: Schema tag of a service-level-objective policy file (see repro.obs.slo).
SLO_POLICY_SCHEMA = "repro.obs.slo-policy/1"


class SchemaError(ValueError):
    """An exported document does not match its schema."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def validate_chrome_trace(doc: dict) -> None:
    """Check a :func:`repro.obs.export.chrome_trace` document."""
    _require(isinstance(doc, dict), "trace document must be an object")
    _require("traceEvents" in doc, "missing traceEvents")
    events = doc["traceEvents"]
    _require(isinstance(events, list) and events, "traceEvents must be a non-empty list")
    _require(
        doc.get("otherData", {}).get("schema") == CHROME_TRACE_SCHEMA,
        f"otherData.schema must be {CHROME_TRACE_SCHEMA!r}",
    )
    saw_complete = False
    for i, ev in enumerate(events):
        _require(isinstance(ev, dict), f"event {i} must be an object")
        _require("name" in ev and "ph" in ev, f"event {i} missing name/ph")
        ph = ev["ph"]
        _require(ph in ("X", "M", "i", "s", "f"), f"event {i} has unknown phase {ph!r}")
        _require("pid" in ev and "tid" in ev, f"event {i} missing pid/tid")
        if ph == "X":
            saw_complete = True
            _require("ts" in ev and "dur" in ev, f"event {i} missing ts/dur")
            _require(
                float(ev["dur"]) >= 0 and float(ev["ts"]) >= 0,
                f"event {i} has negative ts/dur",
            )
        elif ph in ("s", "f"):
            # Flow events bind by id; "f" must declare its binding point.
            _require("ts" in ev and "id" in ev, f"flow event {i} missing ts/id")
            if ph == "f":
                _require(ev.get("bp") == "e", f"flow event {i} missing bp='e'")
    _require(saw_complete, "no complete ('X') span events")


def validate_metrics(doc: dict) -> None:
    """Check a :func:`repro.obs.export.metrics_json` document."""
    _require(isinstance(doc, dict), "metrics document must be an object")
    _require(doc.get("schema") == METRICS_SCHEMA, f"schema must be {METRICS_SCHEMA!r}")
    run = doc.get("run")
    _require(isinstance(run, dict), "missing run block")
    for key in ("engine", "graph", "k", "modeled_seconds", "max_depth"):
        _require(key in run, f"run block missing {key!r}")
    phases = doc.get("phases")
    _require(isinstance(phases, dict), "missing phases block")
    for name, entry in phases.items():
        for key in ("seconds", "share", "spans"):
            _require(key in entry, f"phase {name!r} missing {key!r}")
    metrics = doc.get("metrics")
    _require(isinstance(metrics, dict), "missing metrics block")
    for kind in ("counters", "gauges", "histograms"):
        _require(isinstance(metrics.get(kind), dict), f"metrics missing {kind!r}")
    for key, value in metrics["counters"].items():
        _require(
            isinstance(value, (int, float)) and value >= 0,
            f"counter {key!r} must be a non-negative number",
        )
    for key, value in metrics["gauges"].items():
        _require(isinstance(value, (int, float)), f"gauge {key!r} must be a number")
    _validate_histograms(metrics["histograms"])


def _validate_histograms(histograms: dict) -> None:
    for key, value in histograms.items():
        _require(
            isinstance(value, dict) and "count" in value and "sum" in value,
            f"histogram {key!r} must carry count/sum",
        )
        if value.get("count"):
            for q in ("p50", "p95", "p99", "max"):
                _require(
                    isinstance(value.get(q), (int, float)),
                    f"histogram {key!r} with observations must carry {q!r}",
                )
            _require(
                value["p50"] <= value["p95"] <= value["p99"] <= value["max"],
                f"histogram {key!r} quantiles out of order "
                f"(p50={value['p50']}, p95={value['p95']}, "
                f"p99={value['p99']}, max={value['max']})",
            )


# ----------------------------------------------------------------------
def _validate_rollup_node(node, path: str) -> None:
    _require(isinstance(node, dict), f"span node {path!r} must be an object")
    for key in ("name", "category", "seconds", "count"):
        _require(key in node, f"span node {path!r} missing {key!r}")
    _require(
        isinstance(node["seconds"], (int, float)) and node["seconds"] >= 0,
        f"span node {path!r} seconds must be non-negative",
    )
    _require(
        isinstance(node["count"], int) and node["count"] >= 1,
        f"span node {path!r} count must be a positive integer",
    )
    children = node.get("children", [])
    _require(isinstance(children, list), f"span node {path!r} children must be a list")
    for child in children:
        name = child.get("name", "?") if isinstance(child, dict) else "?"
        _validate_rollup_node(child, f"{path}/{name}")


def validate_ledger_record(doc: dict) -> None:
    """Check one :mod:`repro.obs.ledger` JSONL record."""
    _require(isinstance(doc, dict), "ledger record must be an object")
    _require(
        doc.get("schema") == LEDGER_SCHEMA,
        f"schema must be {LEDGER_SCHEMA!r}, got {doc.get('schema')!r}",
    )
    for key in ("run_id", "fingerprint"):
        _require(
            isinstance(doc.get(key), str) and doc[key],
            f"ledger record missing {key!r}",
        )
    config = doc.get("config")
    _require(isinstance(config, dict), "ledger record missing config block")
    for key in ("engine", "graph", "k", "options_hash"):
        _require(key in config, f"config block missing {key!r}")
    run = doc.get("run")
    _require(isinstance(run, dict), "ledger record missing run block")
    _require(
        isinstance(run.get("modeled_seconds"), (int, float)),
        "run block missing modeled_seconds",
    )
    quality = doc.get("quality")
    _require(isinstance(quality, dict), "ledger record missing quality block")
    phases = doc.get("phases")
    _require(isinstance(phases, dict), "ledger record missing phases block")
    for name, entry in phases.items():
        for key in ("seconds", "share"):
            _require(
                isinstance(entry, dict) and key in entry,
                f"phase {name!r} missing {key!r}",
            )
    _validate_rollup_node(doc.get("spans"), doc.get("run_id", "record"))
    metrics = doc.get("metrics")
    _require(isinstance(metrics, dict), "ledger record missing metrics block")
    for kind in ("counters", "gauges", "histograms"):
        _require(isinstance(metrics.get(kind), dict), f"metrics missing {kind!r}")
    if "hw" in doc:
        from .hw import validate_hw_section

        try:
            validate_hw_section(doc["hw"])
        except ValueError as exc:
            raise SchemaError(str(exc)) from None


#: Quantities a gate rule may target (phase:/metric: take a suffix).
_GATE_QUANTITY_PREFIXES = ("phase:", "metric:")
_GATE_QUANTITY_PLAIN = ("total", "cut", "imbalance")
_GATE_DIRECTIONS = ("increase", "decrease", "both")


def validate_gate_policy(doc: dict) -> None:
    """Check a regression-gate policy document (see :mod:`repro.obs.gate`)."""
    _require(isinstance(doc, dict), "policy must be an object")
    _require(
        doc.get("schema") == GATE_POLICY_SCHEMA,
        f"schema must be {GATE_POLICY_SCHEMA!r}",
    )
    rules = doc.get("rules")
    _require(isinstance(rules, list) and rules, "policy must declare a rules list")
    for i, rule in enumerate(rules):
        _require(isinstance(rule, dict), f"rule {i} must be an object")
        quantity = rule.get("quantity")
        _require(isinstance(quantity, str) and quantity, f"rule {i} missing quantity")
        _require(
            quantity in _GATE_QUANTITY_PLAIN
            or any(
                quantity.startswith(p) and len(quantity) > len(p)
                for p in _GATE_QUANTITY_PREFIXES
            ),
            f"rule {i} quantity {quantity!r} must be one of "
            f"{_GATE_QUANTITY_PLAIN} or start with {_GATE_QUANTITY_PREFIXES}",
        )
        tolerance = rule.get("tolerance")
        _require(
            isinstance(tolerance, (int, float)) and tolerance >= 0,
            f"rule {i} ({quantity}) tolerance must be a non-negative number",
        )
        floor = rule.get("floor", 0.0)
        _require(
            isinstance(floor, (int, float)) and floor >= 0,
            f"rule {i} ({quantity}) floor must be a non-negative number",
        )
        direction = rule.get("direction", "increase")
        _require(
            direction in _GATE_DIRECTIONS,
            f"rule {i} ({quantity}) direction must be one of {_GATE_DIRECTIONS}",
        )
        match = rule.get("match", {})
        _require(
            isinstance(match, dict)
            and all(isinstance(k, str) for k in match)
            and all(
                isinstance(v, (str, int, float, bool)) or v is None
                for v in match.values()
            ),
            f"rule {i} ({quantity}) match must map config keys to scalars",
        )
        unknown = set(rule) - {
            "quantity", "tolerance", "floor", "direction", "note", "match"
        }
        _require(not unknown, f"rule {i} ({quantity}) has unknown keys {sorted(unknown)}")


#: Objective kinds an SLO policy may declare (see repro.obs.slo).
_SLO_KINDS = ("latency", "queue_wait", "error_rate", "degraded_rate", "quality")
_SLO_QUALITY_METRICS = ("cut", "imbalance")


def validate_slo_policy(doc: dict) -> None:
    """Check an SLO policy document (see :mod:`repro.obs.slo`)."""
    _require(isinstance(doc, dict), "SLO policy must be an object")
    _require(
        doc.get("schema") == SLO_POLICY_SCHEMA,
        f"schema must be {SLO_POLICY_SCHEMA!r}",
    )
    window = doc.get("window_drains", 0)
    _require(
        isinstance(window, int) and not isinstance(window, bool) and window >= 0,
        "window_drains must be an int >= 0 (0 = whole ledger)",
    )
    objectives = doc.get("objectives")
    _require(
        isinstance(objectives, list) and objectives,
        "policy must declare a non-empty objectives list",
    )
    known = {
        "name", "kind", "percentile", "threshold_seconds", "lane",
        "budget", "metric", "max_ratio", "max_value", "note",
    }
    for i, obj in enumerate(objectives):
        _require(isinstance(obj, dict), f"objective {i} must be an object")
        name = obj.get("name")
        _require(isinstance(name, str) and name, f"objective {i} missing name")
        kind = obj.get("kind")
        _require(
            kind in _SLO_KINDS,
            f"objective {i} ({name}) kind must be one of {_SLO_KINDS}",
        )
        unknown = set(obj) - known
        _require(
            not unknown,
            f"objective {i} ({name}) has unknown keys {sorted(unknown)}",
        )
        if kind in ("latency", "queue_wait"):
            pct = obj.get("percentile")
            _require(
                isinstance(pct, (int, float)) and 0 < pct < 100,
                f"objective {i} ({name}) percentile must be in (0, 100)",
            )
            threshold = obj.get("threshold_seconds")
            _require(
                isinstance(threshold, (int, float)) and threshold > 0,
                f"objective {i} ({name}) threshold_seconds must be > 0",
            )
            lane = obj.get("lane")
            _require(
                lane is None
                or (isinstance(lane, int) and not isinstance(lane, bool) and lane >= 0),
                f"objective {i} ({name}) lane must be an int >= 0",
            )
        elif kind in ("error_rate", "degraded_rate"):
            budget = obj.get("budget")
            _require(
                isinstance(budget, (int, float)) and 0 <= budget < 1,
                f"objective {i} ({name}) budget must be in [0, 1)",
            )
        else:  # quality
            metric = obj.get("metric", "cut")
            _require(
                metric in _SLO_QUALITY_METRICS,
                f"objective {i} ({name}) metric must be one of "
                f"{_SLO_QUALITY_METRICS}",
            )
            ratio = obj.get("max_ratio")
            value = obj.get("max_value")
            _require(
                ratio is not None or value is not None,
                f"objective {i} ({name}) needs max_ratio and/or max_value",
            )
            if ratio is not None:
                _require(
                    isinstance(ratio, (int, float)) and ratio >= 1.0,
                    f"objective {i} ({name}) max_ratio must be >= 1",
                )
            if value is not None:
                _require(
                    isinstance(value, (int, float)) and value > 0,
                    f"objective {i} ({name}) max_value must be > 0",
                )
