"""The self-check: ``python -m repro selfcheck``.

One command checks the paper's design end to end on a plain install: it
needs neither the test dependencies nor any file of the repository.  It
prints one ``PASS <check>`` or ``FAIL <check>`` line per check and
:func:`run_selfcheck` returns False (exit status 1) when any failed.

* **Gate workload** (:func:`repro.obs.gate.run_workload`, run once):
  every ledger record and hw section validates; the gp-metis mesh run's
  span tree reaches run -> phase -> kernel, its Chrome-trace and metrics
  exports validate and carry :data:`REQUIRED_METRICS`, and its roofline
  chart and kernel table render; on each paper dataset a rerun with
  ``async_streams=False`` gives the identical partition vector in more
  modeled time and more exposed PCIe time (the streams hide transfers
  behind kernels); the service drain's request timeline exports as a
  valid Chrome trace.
* **Service**: the standard 100-request mixed workload on a default
  :class:`~repro.service.ServiceConfig`, every unique configuration
  checked against a direct :func:`repro.partition` call.
* **Sanitizer**: the GP-metis pipeline under schedule fuzzing is
  race-free, and matching with conflict resolution disabled (a planted
  race) is flagged.
* **Faults**: GP-metis survives the exhaustive fault plan with a valid,
  degraded partition and ledger evidence, and the same plan crashes it
  once recovery is off.
"""

from __future__ import annotations

import json
import traceback

import numpy as np

from . import api
from .exceptions import ReproError
from .graphs import generators as gen

__all__ = ["REQUIRED_METRICS", "CHECK_GROUPS", "run_selfcheck"]

#: (kind, key) metrics the gp-metis gate run must export: the per-engine
#: matching/refinement/transfer set for both the GPU and the CPU
#: (mt-metis) stages, and the hardware-utilization family
#: (:mod:`repro.obs.hw`) on every substrate the hybrid run touched.
REQUIRED_METRICS = (
    ("gauges", "matching.conflict_rate{engine=gpu}"),
    ("gauges", "matching.conflict_rate{engine=cpu-threads}"),
    ("gauges", "refine.commit_ratio{engine=gpu}"),
    ("gauges", "refine.commit_ratio{engine=cpu-threads}"),
    ("gauges", "kernel.coalescing_efficiency"),
    ("counters", "transfer.h2d_bytes"),
    ("counters", "transfer.d2h_bytes"),
    ("gauges", "hw.cpu.util"),
    ("gauges", "hw.gpu.dram_util"),
    ("gauges", "hw.gpu.coalescing"),
    ("gauges", "hw.pcie.util"),
    ("gauges", "hw.transfer_avoidance"),
    ("counters", "hw.cpu.edge_visits"),
    ("counters", "hw.gpu.bytes_moved"),
    ("counters", "hw.pcie.bytes"),
)

#: The sanitizer and fault-storm runs: a Delaunay mesh large enough that
#: GP-metis keeps levels on the GPU, cut into ``_K`` parts.
_MESH_N = 9000
_SEED = 1
_K = 8
_UBFACTOR = 1.03


def _error(check, *args) -> str | None:
    """The message ``check(*args)`` raises as a ValueError, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _roundtrip(doc: dict) -> dict:
    """``doc`` as a reader of its JSON file would see it."""
    return json.loads(json.dumps(doc, sort_keys=True))


def gate_checks():
    """The gate workload, run once, and the artifacts of its runs."""
    from .obs import (
        chrome_trace,
        metrics_json,
        render_waterfall,
        requests_chrome_trace,
    )
    from .obs.gate import GATE_METHODS, GATE_PAPER_SCALES, gate_run, run_workload
    from .obs.hw import render_kernel_table, render_roofline_chart, validate_hw_section
    from .obs.schema import (
        validate_chrome_trace,
        validate_ledger_record,
        validate_metrics,
    )

    runs, records = run_workload()
    records = [_roundtrip(r) for r in records]
    bad = [
        f"{r['config']['engine']}/{r['config']['graph']}: {err}"
        for r in records
        if (err := _error(validate_ledger_record, r))
    ]
    yield (f"gate: {len(records)} ledger records validate"
           + (f" ({'; '.join(bad)})" if bad else ""), not bad)
    hw_bad = []
    for r in records[:len(runs)]:
        err = _error(validate_hw_section, r["hw"]) if "hw" in r else "no hw section"
        if err:
            hw_bad.append(f"{r['config']['engine']}/{r['config']['graph']}: {err}")
    yield (f"gate: all {len(runs)} engine records carry a valid hw section"
           + (f" ({'; '.join(hw_bad)})" if hw_bad else ""), not hw_bad)

    # The gp-metis run on the core mesh: span tree, exports, roofline.
    profiler = next(
        result.profiler for _, result in runs[:len(GATE_METHODS)]
        if result.method == "gp-metis"
    )
    depth = profiler.root.max_depth
    kernels = len(profiler.root.find_category("kernel"))
    yield (f"gp-metis span tree reaches run -> phase -> kernel (depth {depth}, "
           f"{kernels} kernel spans)", depth >= 3 and kernels > 0)
    trace_doc = _roundtrip(chrome_trace(profiler))
    err = _error(validate_chrome_trace, trace_doc)
    yield (f"gp-metis Chrome trace export validates "
           f"({len(trace_doc['traceEvents'])} events)"
           + (f": {err}" if err else ""), err is None)
    metrics_doc = _roundtrip(metrics_json(profiler))
    err = _error(validate_metrics, metrics_doc)
    yield "gp-metis metrics export validates" + (f": {err}" if err else ""), err is None
    missing = [
        key for kind, key in REQUIRED_METRICS
        if key not in metrics_doc["metrics"][kind]
    ]
    yield (f"gp-metis exports all {len(REQUIRED_METRICS)} required metrics"
           + (f" (missing {', '.join(missing)})" if missing else ""), not missing)
    gpu = profiler.hw["gpu"]
    kernel_rows = len(gpu["kernels"]) if gpu else 0
    rendered = bool(kernel_rows) and all(
        render(gpu) for render in (render_roofline_chart, render_kernel_table)
    )
    yield (f"gp-metis roofline chart and kernel table render "
           f"({kernel_rows} kernels)", rendered)

    # Async streams: the streams-off schedule is the serial oracle.
    for (graph, on), name in zip(runs[len(GATE_METHODS):], GATE_PAPER_SCALES):
        off = gate_run(graph, "gp-metis", async_streams=False)
        yield (f"streams {name}: partition vectors identical on and off",
               np.array_equal(on.part, off.part))
        yield (f"streams {name}: total modeled seconds "
               f"{off.modeled_seconds:.6f} -> {on.modeled_seconds:.6f}",
               on.modeled_seconds < off.modeled_seconds)
        err = _error(validate_hw_section, off.profiler.hw)
        yield (f"streams {name}: streams-off hw section validates"
               + (f": {err}" if err else ""), err is None)
        exp_on = on.profiler.hw["pcie"]["exposed_seconds"]
        exp_off = off.profiler.hw["pcie"]["exposed_seconds"]
        yield (f"streams {name}: exposed PCIe seconds {exp_off:.2e} -> "
               f"{exp_on:.2e} (overlap "
               f"{on.profiler.hw['pcie']['overlap_ratio']:.1%})",
               exp_on < exp_off)

    # The service drain's per-request timeline.
    drain = records[-1]
    doc = _roundtrip(requests_chrome_trace(drain))
    err = _error(validate_chrome_trace, doc)
    slowest = max(drain["requests"], key=lambda e: e["latency"])
    yield (f"service drain: {len(drain['requests'])} request traces export "
           f"({len(doc['traceEvents'])} events) and the slowest renders"
           + (f": {err}" if err else ""),
           err is None and bool(render_waterfall(slowest)))


def service_checks():
    """The standard 100-request load, verified against direct runs."""
    from .service import PartitionService, ServiceConfig, build_workload, run_load

    report = run_load(PartitionService(ServiceConfig()), build_workload(),
                      verify=True)
    svc, tracing = report["service"], report["tracing"]
    verification = report["verification"]
    yield (f"service: all {report['requests']} requests completed",
           report["completed"] == report["requests"] and not report["dropped"])
    yield f"service: no failed requests ({report['failed']})", report["failed"] == 0
    yield (f"service: cache produced at least one hit ({report['cache_hits']})",
           report["cache_hits"] >= 1)
    yield ("service: latency percentiles reported",
           svc["latency_p50"] is not None and svc["latency_p95"] is not None)
    yield (f"service: results match direct partition() "
           f"({verification['unique_configs']} unique configs, "
           f"{len(verification['mismatches'])} mismatches)", verification["ok"])
    yield ("service: request spans share their ticket's trace id",
           tracing["spans_share_trace"] and tracing["trace_ids_present"]
           and tracing["trace_ids_unique"])
    yield ("service: attribution buckets sum to latency (1e-6)",
           tracing["attribution_sums_to_latency"])


def sanitizer_checks():
    """The race sanitizer: a clean pipeline, then a planted race."""
    from .gpmetis.kernels.matching import gpu_match
    from .gpusim.device import Device
    from .gpusim.transfer import transfer_graph_to_device
    from .runtime.clock import SimClock
    from .runtime.machine import PAPER_MACHINE

    schedules = 3
    result = api.partition(
        gen.delaunay(_MESH_N, seed=_SEED), _K, method="gp-metis", seed=_SEED,
        sanitize=True, fuzz_schedules=schedules, gpu_threshold_min=2048,
    )
    san = result.extras["sanitizer"]
    kernels = san.kernels_checked()
    families = sorted({name.split(".")[-1].split("_")[0] for name in kernels})
    racy = sorted({r.kernel for r in san.racy_reports})
    yield (f"sanitizer: clean GP-metis pipeline race-free ({len(san.reports)} "
           f"launches, families: {', '.join(families)})"
           + (f"; races in {', '.join(racy)}" if racy else ""), san.race_free)
    yield ("sanitizer: clean run reached the GPU matching kernel",
           any(name.startswith("coarsen.match") for name in kernels))

    star = gen.star_graph(64)
    dev = Device(PAPER_MACHINE.gpu, SimClock())
    mut = dev.enable_sanitizer(fuzz_schedules=schedules, seed=_SEED)
    d_csr = transfer_graph_to_device(dev, star, PAPER_MACHINE.interconnect)
    gpu_match(
        dev, d_csr, star, n_threads=32, scheme="hem",
        rng=np.random.default_rng(_SEED), resolve_conflicts=False,
    )
    kinds = sorted({
        f.kind for r in mut.racy_reports for f in r.findings
        if f.severity == "race"
    })
    yield (f"sanitizer: planted race flagged with conflict resolution disabled "
           f"({mut.num_races} races: {', '.join(kinds) or 'none'})",
           mut.num_races > 0)


def fault_checks():
    """The exhaustive fault storm, with recovery on and then off."""
    from .faults import FaultPlan
    from .graphs.metrics import imbalance
    from .obs.ledger import ledger_record

    plan = FaultPlan.full(_SEED)
    graph = gen.delaunay(_MESH_N, seed=_SEED)
    options = dict(method="gp-metis", seed=_SEED, ubfactor=_UBFACTOR,
                   fault_plan=plan, gpu_threshold_min=2048)
    try:
        result = api.partition(graph, _K, **options)
    except ReproError as exc:
        yield (f"faults: recovery-on run survives the exhaustive plan "
               f"(died: {type(exc).__name__}: {exc})", False)
        return
    part = result.part
    events = result.extras.get("fault_events", [])
    injected = sum(1 for e in events if e.category == "fault")
    recovered = sum(1 for e in events if e.category == "recovery")
    record = ledger_record(result.profiler)
    counters = record["metrics"]["counters"]
    yield ("faults: partition covers all k parts",
           part.shape[0] == graph.num_vertices
           and set(part.tolist()) == set(range(_K)))
    yield (f"faults: imbalance within tolerance ({_UBFACTOR})",
           imbalance(graph, part, _K) <= _UBFACTOR + 1e-9)
    yield "faults: result flagged degraded", bool(result.extras.get("degraded"))
    yield f"faults: faults were injected ({injected})", injected > 0
    yield f"faults: recoveries were taken ({recovered})", recovered > 0
    yield ("faults: ledger record carries fault metrics",
           any(key.startswith("faults.injected") for key in counters)
           and any(key.startswith("faults.recovered") for key in counters))
    yield "faults: ledger record flagged degraded", bool(record["run"].get("degraded"))

    # Mutation: the same plan with recovery off must die on an injection.
    try:
        api.partition(graph, _K, fault_recovery=False, **options)
    except ReproError as exc:
        yield (f"faults: recovery off dies on an injected fault "
               f"({type(exc).__name__}: {exc})", bool(getattr(exc, "injected", False)))
    else:
        yield "faults: recovery off dies on an injected fault (it completed)", False


#: The check groups, in the order :func:`run_selfcheck` runs them.
CHECK_GROUPS = (gate_checks, service_checks, sanitizer_checks, fault_checks)


def run_selfcheck(groups=CHECK_GROUPS) -> bool:
    """Run every check group, print one PASS/FAIL line per check, and
    return whether all passed.  A group that raises prints one FAIL line
    (its traceback goes to stderr) and ends; the next group still runs."""
    passed = failed = 0
    for group in groups:
        try:
            for label, ok in group():
                print("PASS" if ok else "FAIL", label, flush=True)
                passed += bool(ok)
                failed += not ok
        except Exception as exc:  # report it as a check, then go on
            traceback.print_exc()
            print(f"FAIL {group.__name__} raised {type(exc).__name__}: {exc}",
                  flush=True)
            failed += 1
    print(f"selfcheck: {passed} of {passed + failed} checks passed")
    return failed == 0
