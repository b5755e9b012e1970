"""The perf-regression gate over ledger records.

Tolerances for any gated quantity (per-phase seconds, total, edge cut,
imbalance, any scalar metric such as PCIe bytes or the matching
conflict rate) are declared in one schema-validated policy file,
evaluated between a committed baseline ledger and a freshly collected
(or separately recorded) current ledger, and any violation makes the
gate exit non-zero.

Policy file (schema ``repro.obs.gate-policy/1``)::

    {
      "schema": "repro.obs.gate-policy/1",
      "rules": [
        {"quantity": "total",      "tolerance": 0.10, "floor": 1e-6},
        {"quantity": "phase:*",    "tolerance": 0.10, "floor": 1e-6},
        {"quantity": "cut",        "tolerance": 0.05},
        {"quantity": "metric:transfer.h2d_bytes", "tolerance": 0.10},
        {"quantity": "metric:kernel.coalescing_efficiency",
         "tolerance": 0.05, "direction": "decrease"}
      ]
    }

``quantity`` targets: ``total``, ``cut``, ``imbalance``,
``phase:<name>`` (``phase:*`` expands over the baseline's phases), and
``metric:<key>`` (a counter or gauge key, labels included; append
``#p50``/``#p95``/``#p99``/``#mean``/``#max``/``#count`` to read a
histogram summary stat).  A rule whose quantity is missing or
non-numeric on one side is WARN-skipped, never a crash; missing on both
sides is a silent non-match (service rules against engine records).
``direction`` declares which way is *worse*: ``increase`` (default),
``decrease`` (e.g. coalescing efficiency), or ``both``.  A violation
needs both the relative ``tolerance`` and the absolute ``floor``
exceeded, so microscopic quantities cannot fail the build.

A rule may carry ``"match": {"engine": "gp-metis"}`` (any config keys):
it then applies only to record pairs whose baseline ``config`` carries
those exact values, so per-engine expectations (the async-streams
overlap win, say) don't leak onto the CPU engines.

Baseline and current records are matched on (engine, graph, k, seed);
the config fingerprint additionally detects silent option drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .schema import GATE_POLICY_SCHEMA, validate_gate_policy

__all__ = [
    "GATE_POLICY_SCHEMA",
    "DEFAULT_POLICY",
    "Violation",
    "load_policy",
    "match_key",
    "resolve_quantity",
    "evaluate_gate",
    "render_gate",
    "gate_run",
    "run_workload",
    "collect_workload_records",
    "GATE_GRAPH_N",
    "GATE_K",
    "GATE_SEED",
    "GATE_METHODS",
    "GATE_PAPER_SCALES",
]

#: The policy the gate falls back to when none is given: phases, total
#: and cut at 10 %.
DEFAULT_POLICY: dict = {
    "schema": GATE_POLICY_SCHEMA,
    "rules": [
        {"quantity": "total", "tolerance": 0.10, "floor": 1e-6},
        {"quantity": "phase:*", "tolerance": 0.10, "floor": 1e-6},
        {"quantity": "cut", "tolerance": 0.10},
    ],
}


@dataclass(frozen=True)
class Violation:
    """One gated quantity that moved past its declared tolerance."""

    run_label: str
    quantity: str
    direction: str
    baseline: float
    current: float
    tolerance: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")


def load_policy(path) -> dict:
    """Read and schema-validate a gate policy file."""
    with open(path) as fh:
        doc = json.load(fh)
    validate_gate_policy(doc)
    return doc


def match_key(record: dict) -> tuple:
    """The identity baseline/current records are joined on."""
    cfg = record.get("config", {})
    return (cfg.get("engine"), cfg.get("graph"), cfg.get("k"), cfg.get("seed"))


def _latest_by_key(records: list[dict]) -> dict[tuple, dict]:
    out: dict[tuple, dict] = {}
    for record in records:  # append order; last record wins
        out[match_key(record)] = record
    return out


def resolve_quantity(record: dict, quantity: str):
    """The record's value for one rule target (None when absent)."""
    if quantity == "total":
        return record.get("run", {}).get("modeled_seconds")
    if quantity == "cut":
        return record.get("quality", {}).get("cut")
    if quantity == "imbalance":
        return record.get("quality", {}).get("imbalance")
    if quantity.startswith("phase:"):
        entry = record.get("phases", {}).get(quantity[len("phase:"):])
        return None if entry is None else entry.get("seconds")
    if quantity.startswith("metric:"):
        key = quantity[len("metric:"):]
        stat = None
        if "#" in key:
            key, stat = key.rsplit("#", 1)
        metrics = record.get("metrics", {})
        if stat is None:
            for kind in ("counters", "gauges"):
                if key in metrics.get(kind, {}):
                    return metrics[kind][key]
        hist = metrics.get("histograms", {}).get(key)
        if isinstance(hist, dict):
            # Histogram summary stat (``metric:<key>#p95``); may be None
            # for an empty histogram — the evaluator warns and skips.
            return hist.get(stat if stat is not None else "mean")
        return None
    raise ValueError(f"unknown gate quantity {quantity!r}")


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _rule_matches(rule: dict, record: dict) -> bool:
    """Whether a rule's ``match`` filter accepts this record's config."""
    cfg = record.get("config", {})
    return all(cfg.get(k) == v for k, v in rule.get("match", {}).items())


def _expand_rule(rule: dict, baseline: dict) -> list[dict]:
    if rule["quantity"] == "phase:*":
        return [
            {**rule, "quantity": f"phase:{name}"}
            for name in sorted(baseline.get("phases", {}))
        ]
    return [rule]


def _violates(rule: dict, base_value: float, cur_value: float) -> str | None:
    """The offending direction, or None when within tolerance."""
    tolerance = float(rule["tolerance"])
    floor = float(rule.get("floor", 0.0))
    direction = rule.get("direction", "increase")
    if direction in ("increase", "both"):
        if cur_value > base_value * (1.0 + tolerance) and (
            cur_value - base_value
        ) > floor:
            return "increase"
    if direction in ("decrease", "both"):
        if cur_value < base_value * (1.0 - tolerance) and (
            base_value - cur_value
        ) > floor:
            return "decrease"
    return None


def evaluate_gate(
    policy: dict, baseline_records: list[dict], current_records: list[dict]
) -> tuple[list[Violation], int, list[str]]:
    """Apply the policy to every matched (baseline, current) record pair.

    Returns ``(violations, checks_performed, notes)``.  Baseline records
    with no current counterpart produce a note (the workload shrank —
    that deserves eyes, not a silent pass); quantities missing on either
    side are skipped, so new phases/metrics fail nothing until a
    baseline containing them is committed.
    """
    validate_gate_policy(policy)
    violations: list[Violation] = []
    notes: list[str] = []
    checks = 0
    current_by_key = _latest_by_key(current_records)
    for key, base_record in _latest_by_key(baseline_records).items():
        cur_record = current_by_key.get(key)
        label = "{}/{} k={} seed={}".format(*key)
        if cur_record is None:
            notes.append(f"{label}: no current run to compare (baseline unmatched)")
            continue
        if base_record.get("fingerprint") != cur_record.get("fingerprint"):
            notes.append(
                f"{label}: config fingerprint changed "
                f"({base_record.get('fingerprint')} -> "
                f"{cur_record.get('fingerprint')}); options drifted?"
            )
        for rule in policy["rules"]:
            if not _rule_matches(rule, base_record):
                continue
            for concrete in _expand_rule(rule, base_record):
                base_value = resolve_quantity(base_record, concrete["quantity"])
                cur_value = resolve_quantity(cur_record, concrete["quantity"])
                if not _numeric(base_value) or not _numeric(cur_value):
                    if base_value is None and cur_value is None:
                        # Rule does not apply to this record pair (e.g.
                        # a service.* rule against an engine record).
                        continue
                    # Present on one side but missing/None/non-numeric on
                    # the other (an empty histogram's p50, a null gauge):
                    # warn and skip instead of crashing the gate run.
                    sides = []
                    if not _numeric(base_value):
                        sides.append(f"baseline={base_value!r}")
                    if not _numeric(cur_value):
                        sides.append(f"current={cur_value!r}")
                    notes.append(
                        f"WARN {label} {concrete['quantity']}: metric missing "
                        f"or non-numeric ({', '.join(sides)}); rule skipped"
                    )
                    continue
                checks += 1
                direction = _violates(concrete, float(base_value), float(cur_value))
                if direction is not None:
                    violations.append(
                        Violation(
                            run_label=label,
                            quantity=concrete["quantity"],
                            direction=direction,
                            baseline=float(base_value),
                            current=float(cur_value),
                            tolerance=float(concrete["tolerance"]),
                        )
                    )
    return violations, checks, notes


def render_gate(
    violations: list[Violation], checks: int, notes: list[str]
) -> str:
    """The gate verdict as a printable report."""
    lines: list[str] = []
    for note in notes:
        lines.append(f"note: {note}")
    for v in violations:
        worse = "above" if v.direction == "increase" else "below"
        lines.append(
            f"REGRESSED {v.run_label} {v.quantity}: "
            f"{v.baseline:g} -> {v.current:g} ({v.ratio:.2f}x), "
            f"{worse} the {v.tolerance:.0%} tolerance"
        )
    if violations:
        lines.append(
            f"FAIL: {len(violations)} violation(s) in {checks} gated checks"
        )
    else:
        lines.append(f"PASS: {checks} gated checks within tolerance")
    return "\n".join(lines)


# ----------------------------------------------------------------------
#: The gate's core workload: one Delaunay mesh of ``GATE_GRAPH_N``
#: vertices cut into ``GATE_K`` parts by each of ``GATE_METHODS`` (method
#: -> option overrides), all at ``GATE_SEED``.  gp-metis lowers its GPU
#: threshold so this small mesh's coarse levels still run on the device.
GATE_GRAPH_N = 6000
GATE_K = 16
GATE_SEED = 7
GATE_METHODS: dict[str, dict] = {
    "gp-metis": {"gpu_threshold_min": 2048},
    "mt-metis": {},
}

#: The gate's paper-dataset sweep: gp-metis on all four Table I analogue
#: graphs at CI-sized scales.  These are the records the async-streams
#: rules (scoped ``metric:hw.pcie.exposed_seconds`` / ``total``) gate —
#: regressing the overlap win on any of them fails the build.
GATE_PAPER_SCALES: dict[str, float] = {
    "ldoor": 0.008,
    "delaunay": 0.012,
    "hugebubble": 0.0006,
    "usa_roads": 0.0005,
}


def gate_run(graph, method: str, **overrides):
    """One gate-workload engine run: ``method`` on ``graph`` at
    ``GATE_K`` and ``GATE_SEED`` with its ``GATE_METHODS`` options, plus
    ``overrides`` (the self-check's streams-off reruns pass one)."""
    # Imported lazily: repro.api pulls in every engine, which itself
    # imports repro.obs.
    from ..api import partition

    result = partition(
        graph, GATE_K, method=method, seed=GATE_SEED,
        **{**GATE_METHODS[method], **overrides},
    )
    if result.profiler is None:
        raise RuntimeError(f"method {method!r} did not attach a profiler")
    return result


def run_workload() -> tuple[list[tuple], list[dict]]:
    """Run the standard gate workload once.

    The core workload (``GATE_METHODS`` on the Delaunay mesh), then one
    gp-metis run per Table I analogue dataset (``GATE_PAPER_SCALES``) —
    the workload the paper's end-to-end claim and the async-streams
    overlap win are asserted on — and one concurrent partition service
    drain (a fixed mixed workload on a 4-worker pool).

    Returns ``(runs, records)``: ``runs`` holds one ``(graph, result)``
    pair per engine run, in that order, and ``records`` their ledger
    records followed by the drain's ``engine="service"`` record, so
    ``metric:service.*`` rules gate throughput, latency percentiles and
    cache behaviour alongside the engine runs.
    """
    from ..graphs.datasets import PAPER_DATASETS
    from ..graphs.generators import delaunay
    from .ledger import ledger_record

    mesh = delaunay(GATE_GRAPH_N, seed=GATE_SEED)
    runs = [(mesh, gate_run(mesh, method)) for method in GATE_METHODS]
    for name, scale in GATE_PAPER_SCALES.items():
        graph = PAPER_DATASETS[name].build(scale=scale, seed=GATE_SEED)
        runs.append((graph, gate_run(graph, "gp-metis")))
    records = [ledger_record(result.profiler) for _, result in runs]
    records.append(_service_workload_record())
    return runs, records


def collect_workload_records() -> list[dict]:
    """Freshly profile the standard gate workload into ledger records."""
    return run_workload()[1]


def _service_workload_record() -> dict:
    """One deterministic service drain as a gateable ledger record."""
    from ..service import PartitionService, ServiceConfig, WorkloadSpec, build_workload
    from .critical import request_entry
    from .ledger import ledger_record

    service = PartitionService(ServiceConfig(num_workers=4, gpu_slots=1))
    for request in build_workload(WorkloadSpec(requests=30, graph_n=400)):
        service.submit(request)
    tickets = service.drain()
    assert service.last_profiler is not None
    entries = [
        request_entry(
            t, dispatch_seconds=service.config.dispatch_seconds,
            batch_wait=t.batch_wait, links=t.links,
        )
        for t in tickets
    ]
    return ledger_record(
        service.last_profiler, sections={"requests": entries}
    )
