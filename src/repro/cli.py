"""Command-line interface: ``python -m repro <command>``.

Commands mirror the classic ``gpmetis`` binary plus this repo's extras:

* ``partition`` — the one command that runs an engine on a graph file
  (Metis/.gr/.npz): print quality and modeled time, optionally write a
  Metis ``.part`` file; its flags choose what else it reports — the
  ASCII span tree (``--tree [DEPTH]``), Chrome trace-event JSON
  (``--trace-out``, open in Perfetto), flat metrics JSON
  (``--metrics-out``), a JSONL run-ledger record (``--ledger``), a fault
  plan to run under (``--fault-plan FILE|full`` or ``--fault-seed N``,
  see :mod:`repro.faults`) with its fault/recovery timeline, and the
  race sanitizer's report (``--sanitize``);
* ``generate`` — build a synthetic graph (Table I analogues or any
  generator family) and write it to a file;
* ``bench`` — run the paper's evaluation grid and print the tables;
* ``info`` — print a graph file's statistics;
* ``compare`` — diff two ledger runs (or cohorts) with exact per-phase
  delta attribution down the span tree;
* ``report`` — render a ledger as a self-contained HTML report (engine
  comparison tables, phase breakdowns, trend over time);
* ``gate`` — the generalized perf-regression gate: compare fresh (or
  recorded) runs against a committed baseline ledger under a
  schema-validated tolerance policy, exiting non-zero on violation;
* ``trace`` — per-request waterfall from a service drain's ledger
  record: the critical path through queue/dispatch/engine phases plus a
  latency attribution table; ``--trace-out`` exports the drain's request
  timeline as Chrome trace-event JSON with flow arrows joining batch
  leaders to their followers;
* ``slo`` — the SLO monitor: evaluate declared objectives (latency
  percentiles per lane, error/degraded budgets, quality vs a baseline)
  over the ledger window and report burn rates, exiting 1 when any
  error budget is blown;
* ``serve`` — drive the concurrent partition service
  (:mod:`repro.service`) with a deterministic mixed workload and print
  throughput, latency percentiles and cache statistics; ``--verify``
  adds differential verification and ``--json`` a machine-readable
  report;
* ``roofline`` — hardware-utilization report for one ledger record
  (``partition --ledger`` writes them): ASCII roofline chart, per-kernel
  bound-ness table, and CPU/PCIe/MPI utilization against the machine
  model's peaks;
* ``selfcheck`` — the one self-check of the design (see
  :mod:`repro.selfcheck`): the gate workload's records, exports,
  roofline and async-streams identity, the verified service load, the
  race sanitizer and the fault storm, one PASS/FAIL line per check.

A library error (:class:`~repro.exceptions.ReproError`, e.g. a malformed
graph file) ends any command with ``error: <message>`` on stderr and
exit status 2.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import api
from .bench import (
    DEFAULT_SCALES,
    ExperimentConfig,
    check_paper_shape,
    render_fig5,
    render_table1,
    render_table2,
    render_table3,
    run_experiment,
)
from .exceptions import InvalidParameterError, ReproError
from .graphs import (
    PAPER_DATASETS,
    evaluate_partition,
    load_dataset,
    read_graph,
    save_npz,
    write_metis,
    write_partition,
)
from .graphs import generators as gen

__all__ = ["main", "build_parser"]

_GENERATORS = {
    "grid2d": lambda n, seed: gen.grid2d(int(n**0.5) or 1, int(n**0.5) or 1),
    "delaunay": gen.delaunay,
    "rgg": gen.random_geometric,
    "road": gen.road_network,
    "bubble": gen.bubble_mesh,
    "fe": gen.fe_matrix,
    "rmat": lambda n, seed: gen.rmat(max(1, int(n).bit_length() - 1), seed=seed),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("partition", help="partition a graph file")
    pp.add_argument("graph", help="input .graph/.metis/.gr/.npz file")
    pp.add_argument("-k", type=int, default=64, help="number of partitions")
    pp.add_argument(
        "--method", default="gp-metis", choices=api.available_methods(),
    )
    pp.add_argument("--ubfactor", type=float, default=1.03)
    pp.add_argument("--seed", type=int, default=1)
    pp.add_argument(
        "--sanitize", action="store_true",
        help="run GPU kernels under the data-race sanitizer (gp-metis only) "
             "and print the per-launch race report",
    )
    pp.add_argument(
        "--fault-plan", metavar="FILE|full",
        help="inject faults from this plan JSON (repro.faults.plan/1), or "
             "'full': the exhaustive storm over every injection site; "
             "prints the fault/recovery timeline",
    )
    pp.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="inject faults from a plan derived deterministically from N",
    )
    pp.add_argument(
        "--no-recover", action="store_true",
        help="disable recovery: injected faults crash the run (exit 1) "
             "instead of being retried or degraded around",
    )
    pp.add_argument(
        "--emit-plan", metavar="FILE",
        help="write the selected fault plan JSON here before the run "
             "(edit it and replay with --fault-plan)",
    )
    pp.add_argument(
        "--tree", type=int, nargs="?", const=0, default=None, metavar="DEPTH",
        help="print the ASCII span tree, limited to DEPTH levels "
             "(omitted or 0: every level)",
    )
    pp.add_argument(
        "--trace-out", metavar="FILE",
        help="write Chrome trace-event JSON here (open at ui.perfetto.dev)",
    )
    pp.add_argument(
        "--metrics-out", metavar="FILE", help="write the flat metrics JSON here"
    )
    pp.add_argument(
        "--ledger", metavar="FILE",
        help="append this run to a JSONL run ledger (one record per run: "
             "config fingerprint, span rollup, metrics snapshot, hw block)",
    )
    pp.add_argument("-o", "--output", help="write a Metis .part file here")

    pg = sub.add_parser("generate", help="generate a synthetic graph")
    group = pg.add_mutually_exclusive_group(required=True)
    group.add_argument("--dataset", choices=list(PAPER_DATASETS),
                       help="a Table I analogue")
    group.add_argument("--family", choices=list(_GENERATORS),
                       help="a generator family")
    pg.add_argument("-n", type=int, default=10_000, help="vertices (family mode)")
    pg.add_argument("--scale", type=float, default=0.01, help="scale (dataset mode)")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("-o", "--output", required=True,
                    help="output file (.graph or .npz)")

    pb = sub.add_parser("bench", help="run the paper's evaluation grid")
    pb.add_argument("-k", type=int, default=64)
    pb.add_argument("--scale", type=float, default=1.0,
                    help="multiplier on the default dataset scales")
    pb.add_argument("--repeats", type=int, default=1)
    pb.add_argument(
        "--datasets", metavar="A,B",
        help="comma-separated subset of the paper datasets (default: all)",
    )
    pb.add_argument(
        "--methods", metavar="A,B",
        help="comma-separated subset of methods (default: all four); "
             "comparative tables and shape checks need the full grid",
    )
    pb.add_argument("-o", "--output", help="write a markdown report here")
    pb.add_argument(
        "--json", metavar="FILE",
        help="also write machine-readable per-engine/per-graph results here",
    )

    psrv = sub.add_parser(
        "serve",
        help="drive the concurrent partition service with a mixed workload",
    )
    psrv.add_argument("--workers", type=int, default=4,
                      help="simulated CPU workers in the pool (default 4)")
    psrv.add_argument("--gpu-slots", type=int, default=1,
                      help="concurrent GPU leases (default 1, the paper testbed)")
    psrv.add_argument("--requests", type=int, default=100,
                      help="workload size (default 100)")
    psrv.add_argument("--queue-limit", type=int, default=64,
                      help="admission limit per priority lane (default 64)")
    psrv.add_argument("--graph-n", type=int, default=600,
                      help="vertices of the workload graphs (default 600)")
    psrv.add_argument("--no-cache", action="store_true",
                      help="disable the fingerprint result cache")
    psrv.add_argument("--no-batching", action="store_true",
                      help="disable identical-graph batch amortization")
    psrv.add_argument(
        "--verify", action="store_true",
        help="differentially check every unique configuration against a "
             "direct synchronous partition() call",
    )
    psrv.add_argument(
        "--json", metavar="FILE",
        help="write the machine-readable service report here",
    )
    psrv.add_argument(
        "--ledger", metavar="FILE",
        help="append one ledger record per served request (plus one "
             "engine=service record per drain) to this JSONL file",
    )

    pi = sub.add_parser("info", help="print a graph file's statistics")
    pi.add_argument("graph")

    pc = sub.add_parser(
        "compare",
        help="diff two ledger runs with per-phase delta attribution",
    )
    pc.add_argument(
        "run_a", help="baseline run: LEDGER.jsonl[:INDEX] (default index -1, "
                      "the newest record; ':*' averages the whole file as a cohort)",
    )
    pc.add_argument("run_b", help="current run, same forms as run_a")
    pc.add_argument(
        "--ledger", metavar="FILE",
        help="resolve bare indices / ':*' operands against this ledger file",
    )

    pr = sub.add_parser(
        "report", help="render a run ledger as a self-contained HTML report"
    )
    pr.add_argument("--ledger", metavar="FILE", required=True,
                    help="the JSONL run ledger to render")
    pr.add_argument("-o", "--output", default="report.html",
                    help="output HTML file (default: report.html)")
    pr.add_argument("--title", default="repro run ledger")
    pr.add_argument(
        "--slo-policy", metavar="FILE",
        help="SLO policy JSON (schema repro.obs.slo-policy/1); adds the "
             "SLO page (objective verdicts + per-lane budget burn-down)",
    )

    ptr = sub.add_parser(
        "trace",
        help="per-request waterfall: critical path and latency attribution "
             "from a service drain's ledger record",
    )
    ptr.add_argument("ledger", help="JSONL run ledger with service drains")
    ptr.add_argument(
        "--request", metavar="ID",
        help="fingerprint or trace-id prefix of the request to render "
             "(default: the slowest request of the latest drain)",
    )
    ptr.add_argument(
        "--list", action="store_true",
        help="list every request in the window instead of rendering one",
    )
    ptr.add_argument(
        "--window", type=int, default=1, metavar="N",
        help="look at the last N service drains (default 1, 0 = all)",
    )
    ptr.add_argument(
        "--trace-out", metavar="FILE",
        help="also export the latest drain's request timeline as Chrome "
             "trace-event JSON (flow arrows join batch leaders/followers)",
    )

    pslo = sub.add_parser(
        "slo",
        help="evaluate SLO objectives (latency percentiles, error/degraded "
             "budgets, quality) over a run ledger; exit 1 on budget burn",
    )
    pslo.add_argument("ledger", help="JSONL run ledger to evaluate")
    pslo.add_argument(
        "--policy", metavar="FILE", required=True,
        help="SLO policy JSON (schema repro.obs.slo-policy/1)",
    )
    pslo.add_argument(
        "--baseline", metavar="FILE",
        help="baseline ledger for quality max_ratio objectives",
    )
    pslo.add_argument(
        "--json", metavar="FILE", dest="json_out",
        help="also write the evaluation as machine-readable JSON",
    )

    pgate = sub.add_parser(
        "gate",
        help="perf-regression gate: current runs vs a committed baseline "
             "ledger under a tolerance policy",
    )
    pgate.add_argument(
        "--baseline", metavar="FILE", required=True,
        help="committed baseline ledger (JSONL)",
    )
    pgate.add_argument(
        "--policy", metavar="FILE",
        help="gate policy JSON (schema repro.obs.gate-policy/1); "
             "defaults to phases+total+cut at 10%%",
    )
    pgate.add_argument(
        "--current", metavar="FILE",
        help="compare these recorded runs instead of freshly profiling "
             "the standard gate workload",
    )
    pgate.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline ledger from the current runs and exit 0",
    )

    pa = sub.add_parser("analyze", help="structural profile + cut bounds")
    pa.add_argument("graph")
    pa.add_argument("-k", type=int, default=64,
                    help="partition count for the cut lower bounds")

    prf = sub.add_parser(
        "roofline",
        help="hardware-utilization report of a ledger record: per-kernel "
             "roofline and bound-ness, plus CPU/PCIe/MPI utilization vs "
             "machine peaks",
    )
    prf.add_argument(
        "--ledger", metavar="FILE[:INDEX]", required=True,
        help="render this recorded run's hw block (written by `partition "
             "--ledger`; default index -1, the newest record)",
    )
    prf.add_argument(
        "--json", metavar="FILE", dest="json_out",
        help="also write the hw section as JSON ('-' for stdout)",
    )
    prf.add_argument("--no-chart", action="store_true",
                     help="skip the ASCII roofline chart")

    sub.add_parser(
        "selfcheck",
        help="check the design end to end: one PASS/FAIL line per check, "
             "exit 1 on any FAIL",
    )
    return p


def _render_service_report(report: dict) -> None:
    svc = report["service"]
    cfg = report["config"]
    print(f"service: {cfg['workers']} worker(s), {cfg['gpu_slots']} GPU "
          f"slot(s), queue limit {cfg['queue_limit']}/lane")
    print(f"requests        : {report['requests']} "
          f"(served {report['served']}, failed {report['failed']}, "
          f"dropped {report['dropped']})")
    print(f"backpressure    : {report['resubmissions']} resubmission(s) "
          "after overload")
    print(f"cache           : {report['cache_hits']} hit(s), "
          f"{report['cache_misses']} miss(es), "
          f"hit rate {svc['cache']['hit_rate']:.2f}, "
          f"saved {svc['cache']['saved_seconds']:.6f} modeled s")
    print(f"batching        : {report['batched_followers']} follower(s) "
          "amortized the CSR transfer")
    print(f"throughput      : {svc['throughput_rps']:.1f} req/s "
          "(modeled, last drain)")
    print(f"latency p50/p95 : {svc['latency_p50']:.6f} / "
          f"{svc['latency_p95']:.6f} s")
    print(f"queue wait p95  : {svc['queue_wait_p95']:.6f} s")
    print(f"utilization     : {svc['utilization']:.2f}")
    if "verification" in report:
        v = report["verification"]
        status = "PASS" if v["ok"] else "FAIL"
        print(f"verification    : {status} ({v['unique_configs']} unique "
              f"config(s) vs direct partition(); "
              f"{len(v['mismatches'])} mismatch(es))")


def _cmd_serve(args) -> int:
    from .obs import ledger as ledger_mod
    from .service import (
        PartitionService,
        ServiceConfig,
        WorkloadSpec,
        build_workload,
        run_load,
    )

    service = PartitionService(
        ServiceConfig(
            num_workers=args.workers,
            gpu_slots=args.gpu_slots,
            queue_limit=args.queue_limit,
            cache_enabled=not args.no_cache,
            batching=not args.no_batching,
        )
    )
    workload = build_workload(
        WorkloadSpec(requests=args.requests, graph_n=args.graph_n)
    )
    if args.ledger:
        ledger_mod.set_default_ledger(args.ledger)
    try:
        report = run_load(service, workload, verify=args.verify)
    finally:
        if args.ledger:
            ledger_mod.set_default_ledger(None)
    report["config"] = {
        "workers": args.workers,
        "gpu_slots": args.gpu_slots,
        "requests": args.requests,
        "queue_limit": args.queue_limit,
        "graph_n": args.graph_n,
        "cache": not args.no_cache,
        "batching": not args.no_batching,
    }
    _render_service_report(report)
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, default=str)
        print(f"wrote {args.json}")
    failed = report["failed"] or report["dropped"]
    if args.verify and not report["verification"]["ok"]:
        failed = True
    return 1 if failed else 0


def _fault_plan(args):
    """The plan chosen by ``--fault-plan FILE|full`` or ``--fault-seed N``.

    ``None`` when neither is given; a conflicting or unreadable choice
    raises :class:`InvalidParameterError` (exit 2 via :func:`main`).
    """
    from .faults import FaultPlan, load_plan

    if args.fault_plan and args.fault_seed is not None:
        raise InvalidParameterError(
            "--fault-plan and --fault-seed are mutually exclusive"
        )
    if args.fault_seed is not None:
        return FaultPlan.from_seed(args.fault_seed)
    if args.fault_plan == "full":
        return FaultPlan.full(args.seed)
    if args.fault_plan:
        try:
            return load_plan(args.fault_plan)
        except (OSError, ValueError) as exc:
            raise InvalidParameterError(f"bad fault plan: {exc}") from None
    return None


def _render_fault_summary(result) -> None:
    events = result.extras.get("fault_events", [])
    injected = sum(1 for e in events if e.category == "fault")
    recovered = sum(1 for e in events if e.category == "recovery")
    print(f"faults injected : {injected}")
    print(f"recoveries      : {recovered}")
    print(f"degraded        : {result.extras.get('degraded', False)}")
    if events:
        print("fault/recovery timeline:")
        for event in events:
            print(event.render())


def _cmd_partition(args) -> int:
    from .obs import (
        render_tree,
        validate_chrome_trace,
        validate_metrics,
        write_chrome_trace,
        write_metrics_json,
    )
    from .obs import ledger as ledger_mod

    opts = {}
    if args.sanitize:
        if args.method not in ("gp-metis", "gpmetis", "gp_metis"):
            print("--sanitize requires --method gp-metis", file=sys.stderr)
            return 2
        opts["sanitize"] = True
    plan = _fault_plan(args)
    if args.emit_plan:
        if plan is None:
            raise InvalidParameterError(
                "--emit-plan needs --fault-plan or --fault-seed"
            )
        plan.dump(args.emit_plan)
        print(f"wrote {args.emit_plan} ({len(plan.specs)} spec(s), "
              f"seed {plan.seed})")
    if plan is not None:
        opts["fault_plan"] = plan
    if args.no_recover:
        opts["fault_recovery"] = False
    graph = read_graph(args.graph)
    print(f"input: {graph}")
    if plan is not None:
        print(plan.describe())
    if args.ledger:
        # Route through the finish_run hook, so the engine itself writes
        # the record — the same path any library caller gets.
        ledger_mod.set_default_ledger(args.ledger)
    t0 = time.perf_counter()
    try:
        result = api.partition(
            graph, args.k, method=args.method, ubfactor=args.ubfactor,
            seed=args.seed, **opts,
        )
    except ReproError as exc:
        if not getattr(exc, "injected", False):
            raise
        print(f"run failed on an injected fault: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.ledger:
            ledger_mod.set_default_ledger(None)
    wall = time.perf_counter() - t0
    q = evaluate_partition(graph, result.part, args.k)
    print(f"method={args.method} k={args.k}")
    print(f"edge cut      : {q.cut}")
    print(f"imbalance     : {q.imbalance:.4f} (tolerance {args.ubfactor})")
    print(f"comm volume   : {q.comm_volume}")
    print(f"modeled time  : {result.modeled_seconds:.6f} s (simulated testbed)")
    print(f"wall time     : {wall:.3f} s (this Python process)")
    if plan is not None:
        _render_fault_summary(result)
    san = result.extras.get("sanitizer") if args.sanitize else None
    if san is not None:
        print(san.render())
    profiler = result.profiler
    if args.tree is not None:
        print(render_tree(profiler, max_depth=args.tree or None))
    if args.ledger:
        last = ledger_mod.read_ledger(args.ledger)[-1]
        print(f"appended run {last['run_id']} to {args.ledger}")
    if args.trace_out:
        validate_chrome_trace(write_chrome_trace(profiler, args.trace_out))
        print(f"wrote {args.trace_out} (chrome trace-event; open at ui.perfetto.dev)")
    if args.metrics_out:
        validate_metrics(write_metrics_json(profiler, args.metrics_out))
        print(f"wrote {args.metrics_out}")
    if args.output:
        write_partition(result.part, args.output)
        print(f"wrote {args.output}")
    return 1 if san is not None and not san.race_free else 0


def _split_operand(operand: str) -> tuple[str, str | None]:
    """``PATH[:INDEX]`` -> ``(PATH, INDEX or None)``, split at the last colon.

    The tail is a selector only when it is an integer or ``*``; any other
    colon belongs to the path (``runs:old/l.jsonl`` is one file).
    """
    path, _, selector = operand.rpartition(":")
    if path and (selector == "*" or _is_int(selector)):
        return path, selector
    return operand, None


def _resolve_runs(operand: str, default_ledger: str | None):
    """A ``compare`` operand -> list of ledger records.

    Forms: ``PATH``, ``PATH:INDEX``, ``PATH:*`` (whole-file cohort), and
    with ``--ledger`` also bare ``INDEX`` / ``*``.
    """
    from .obs import read_ledger

    path, selector = _split_operand(operand)
    if selector is None:
        # A bare path, or (with --ledger) a bare selector.
        if default_ledger and (operand == "*" or _is_int(operand)):
            path, selector = default_ledger, operand
        else:
            selector = "-1"
    records = read_ledger(path)
    if not records:
        raise ValueError(f"{path}: ledger is empty")
    if selector == "*":
        return records
    index = int(selector)
    try:
        return [records[index]]
    except IndexError:
        raise ValueError(
            f"{path}: index {index} out of range ({len(records)} records)"
        ) from None


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _cmd_compare(args) -> int:
    from .obs import aggregate_records, compare_runs, render_comparison

    try:
        base = aggregate_records(_resolve_runs(args.run_a, args.ledger))
        cur = aggregate_records(_resolve_runs(args.run_b, args.ledger))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_comparison(compare_runs(base, cur)))
    return 0


def _cmd_report(args) -> int:
    from .obs import (
        evaluate_slo,
        lane_burn_down,
        load_slo_policy,
        read_ledger,
        write_html_report,
    )

    try:
        records = read_ledger(args.ledger)
        slo = None
        if args.slo_policy:
            policy = load_slo_policy(args.slo_policy)
            slo = {
                "results": evaluate_slo(policy, records),
                "burn_down": lane_burn_down(policy, records),
                "window": int(policy.get("window_drains", 0)),
            }
        write_html_report(records, args.output, title=args.title, slo=slo)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"wrote {args.output} ({len(records)} run(s); self-contained HTML, "
        "open in any browser)"
    )
    return 0


def _cmd_trace(args) -> int:
    import json

    from .obs import read_ledger, render_waterfall, requests_chrome_trace
    from .obs.schema import validate_chrome_trace
    from .obs.slo import service_drain_records

    try:
        records = read_ledger(args.ledger)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    drains = service_drain_records(records, max(0, args.window))
    if not drains:
        print(f"error: {args.ledger}: no service drain records with a "
              "requests section (run `repro serve --ledger ...`)",
              file=sys.stderr)
        return 2
    entries = [e for d in drains for e in d["requests"]]

    if args.list:
        print(f"{len(entries)} request(s) across {len(drains)} drain(s):")
        for e in sorted(entries, key=lambda e: -e["latency"]):
            print(
                f"  {e['trace_id']}  {e['fingerprint'][:12]:<12s} "
                f"{e['engine']:<14s} {e['graph']:<12s} lane={e['lane']} "
                f"{e['status']:<9s} {e['cache']:<5s} "
                f"latency={e['latency'] * 1e3:8.3f} ms"
            )
        return 0

    if args.request:
        needle = args.request
        matches = [
            e for e in entries
            if e["fingerprint"].startswith(needle)
            or e["trace_id"].startswith(needle)
        ]
        if not matches:
            print(f"error: no request matches {needle!r} "
                  f"(try `repro trace {args.ledger} --list`)", file=sys.stderr)
            return 2
        if len({e["trace_id"] for e in matches}) > 1:
            print(f"error: {needle!r} is ambiguous "
                  f"({len(matches)} requests); use a trace-id prefix",
                  file=sys.stderr)
            return 2
        entry = matches[-1]
    else:
        entry = max(entries, key=lambda e: e["latency"])

    print(render_waterfall(entry))

    if args.trace_out:
        doc = requests_chrome_trace(drains[-1])
        validate_chrome_trace(doc)
        with open(args.trace_out, "w") as fh:
            json.dump(doc, fh, indent=1)
        print(f"\nwrote {args.trace_out} "
              f"({len(doc['traceEvents'])} events; open in Perfetto)")
    return 0


def _cmd_slo(args) -> int:
    import dataclasses
    import json

    from .obs import (
        evaluate_slo,
        load_slo_policy,
        read_ledger,
        render_slo,
        slo_ok,
    )

    try:
        policy = load_slo_policy(args.policy)
    except (OSError, ValueError) as exc:
        print(f"error: bad policy: {exc}", file=sys.stderr)
        return 2
    try:
        records = read_ledger(args.ledger)
        baseline = read_ledger(args.baseline) if args.baseline else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = evaluate_slo(policy, records, baseline_records=baseline)
    window = int(policy.get("window_drains", 0))
    print(render_slo(results, window=window))

    if args.json_out:
        import math

        def _jsonable(r):
            d = dataclasses.asdict(r)
            if math.isinf(d["burn_rate"]):
                d["burn_rate"] = None  # JSON has no Infinity
            d["budget_remaining"] = r.budget_remaining
            return d

        doc = {
            "schema": "repro.obs.slo-report/1",
            "policy": args.policy,
            "window_drains": window,
            "ok": slo_ok(results),
            "objectives": [_jsonable(r) for r in results],
        }
        with open(args.json_out, "w") as fh:
            json.dump(doc, fh, indent=1, default=str)
        print(f"wrote {args.json_out}")
    return 0 if slo_ok(results) else 1


def _cmd_gate(args) -> int:
    import json
    import pathlib

    from .obs import (
        DEFAULT_POLICY,
        collect_workload_records,
        evaluate_gate,
        load_policy,
        read_ledger,
        render_gate,
    )

    try:
        policy = load_policy(args.policy) if args.policy else DEFAULT_POLICY
    except (OSError, ValueError) as exc:
        print(f"error: bad policy: {exc}", file=sys.stderr)
        return 2

    if args.current:
        try:
            current = read_ledger(args.current)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not current:
            print(f"error: {args.current}: ledger is empty", file=sys.stderr)
            return 2
        print(f"current: {len(current)} recorded run(s) from {args.current}")
    else:
        print("collecting the standard gate workload (see repro.obs.gate)...")
        current = collect_workload_records()

    baseline_path = pathlib.Path(args.baseline)
    if args.update or not baseline_path.exists():
        with open(baseline_path, "w") as fh:
            for record in current:
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        print(f"wrote baseline ledger {baseline_path} ({len(current)} run(s))")
        return 0

    try:
        baseline = read_ledger(baseline_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"error: {baseline_path}: ledger is empty", file=sys.stderr)
        return 2
    violations, checks, notes = evaluate_gate(policy, baseline, current)
    print(render_gate(violations, checks, notes))
    return 1 if violations else 0


def _cmd_generate(args) -> int:
    if args.dataset:
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    else:
        graph = _GENERATORS[args.family](args.n, args.seed)
    print(f"generated: {graph}")
    if str(args.output).endswith(".npz"):
        save_npz(graph, args.output)
    else:
        write_metis(graph, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_bench(args) -> int:
    from .bench import DEFAULT_METHODS

    extra = {}
    if args.datasets:
        extra["datasets"] = tuple(args.datasets.split(","))
    if args.methods:
        extra["methods"] = tuple(args.methods.split(","))
    cfg = ExperimentConfig(
        k=args.k,
        repeats=args.repeats,
        scales={name: s * args.scale for name, s in DEFAULT_SCALES.items()},
        **extra,
    )
    results = run_experiment(cfg, verbose=True)
    full_grid = set(DEFAULT_METHODS) <= set(cfg.methods)
    print()
    blocks = [render_table1(results)]
    if full_grid:
        blocks += [render_fig5(results), render_table2(results), render_table3(results)]
    for block in blocks:
        print(block)
        print()
    failed = []
    if full_grid:
        failed = [c for c in check_paper_shape(results) if not c.holds]
        for c in check_paper_shape(results):
            print(("PASS" if c.holds else "FAIL"), c.claim)
    if args.output:
        from .bench import write_report

        write_report(results, args.output)
        print(f"wrote {args.output}")
    if args.json:
        from .bench import write_results_json

        write_results_json(results, args.json)
        print(f"wrote {args.json} (machine-readable per-engine results)")
    return 1 if failed else 0


def _cmd_info(args) -> int:
    graph = read_graph(args.graph)
    deg = graph.degrees()
    print(f"name            : {graph.name}")
    print(f"vertices        : {graph.num_vertices}")
    print(f"edges           : {graph.num_edges}")
    print(f"avg degree      : {2 * graph.num_edges / max(1, graph.num_vertices):.2f}")
    print(f"max degree      : {graph.max_degree}")
    print(f"total vwgt      : {graph.total_vertex_weight}")
    print(f"total ewgt      : {graph.total_edge_weight}")
    print(f"memory (CSR)    : {graph.nbytes} bytes")
    if graph.num_vertices:
        comps = len(set(graph.connected_components().tolist()))
        print(f"components      : {comps}")
    return 0


def _cmd_analyze(args) -> int:
    from .graphs import (
        perfect_balance_cut_lower_bound,
        profile_graph,
        spectral_cut_lower_bound,
    )

    graph = read_graph(args.graph)
    p = profile_graph(graph)
    print(p.describe())
    print(f"degree cv       : {p.degree_cv:.3f}")
    print(f"avg bandwidth   : {p.avg_bandwidth:.1f}")
    print(f"index locality  : {p.index_locality:.3f} "
          "(fraction of arcs within +-64 ids; drives GPU coalescing)")
    print(f"components      : {p.components}")
    print(f"weighted        : edges={p.weighted_edges} vertices={p.weighted_vertices}")
    spectral = spectral_cut_lower_bound(graph, args.k)
    degree = perfect_balance_cut_lower_bound(graph, args.k)
    print(f"cut lower bounds (k={args.k}): spectral >= {spectral:.1f}, "
          f"degree >= {degree}")
    return 0


def _cmd_roofline(args) -> int:
    import json as json_mod

    from .obs import read_ledger
    from .obs.hw import (
        render_kernel_table,
        render_roofline_chart,
        validate_hw_section,
    )

    path, idx = _split_operand(args.ledger)
    if idx == "*":
        print(f"error: {args.ledger}: index '*' is not an integer",
              file=sys.stderr)
        return 2
    try:
        records = read_ledger(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        record = records[int(idx or -1)]
    except IndexError:
        print(f"{path}: no record at index {idx or -1} "
              f"({len(records)} record(s))", file=sys.stderr)
        return 1
    section = record.get("hw")
    if section is None:
        print(f"record {record['run_id']} carries no hw block",
              file=sys.stderr)
        return 1
    validate_hw_section(section)

    cfg, mach = record["config"], section["machine"]
    print(f"run {record['run_id']}: {cfg['engine']} on {cfg['graph']} "
          f"k={cfg['k']}")
    print(f"machine: cpu={mach['cpu']}  gpu={mach['gpu']}")
    print()
    gpu = section.get("gpu")
    if gpu is not None and gpu.get("kernels"):
        if not args.no_chart:
            print(render_roofline_chart(gpu))
            print()
        print(render_kernel_table(gpu))
        print()
    elif gpu is not None:
        print("gpu: aggregate only (no per-kernel data in this record)")
        print(f"  bytes moved {gpu['bytes_moved']:.3e} B, dram util "
              f"{gpu['dram_utilization']:.2f}, compute util "
              f"{gpu['compute_utilization']:.2f}")
        print()
    else:
        print("no GPU kernels in this run (CPU-only engine)")
        print()

    cpu, mpi, pcie = section["cpu"], section["mpi"], section["pcie"]
    print(f"cpu : busy {cpu['busy_seconds']:.6f} s at util "
          f"{cpu['utilization']:.2f}  "
          f"({cpu['edge_visits']:.3g} edge visits, "
          f"{cpu['vertex_ops']:.3g} vertex ops, "
          f"{cpu['random_bytes'] / 1e6:.1f} MB random access)")
    if pcie["transfers"]:
        print(f"pcie: {pcie['transfers']} transfer(s), "
              f"{pcie['bytes'] / 1e6:.2f} MB in {pcie['seconds']:.6f} s — "
              f"util {pcie['utilization']:.2f}, "
              f"alpha share {pcie['alpha_share']:.2f}")
    if mpi["messages"]:
        print(f"mpi : {mpi['messages']:.0f} message(s), "
              f"{mpi['bytes'] / 1e6:.2f} MB — util {mpi['utilization']:.2f}")
    avoid = section.get("transfer_avoidance")
    if avoid is not None:
        print(f"transfer avoidance: {avoid:.4f} "
              "(device-resident bytes / all bytes touched)")
    if section["phases"]:
        print()
        print(f"{'phase':<16s} {'seconds':>10s} {'gpu%':>6s} {'pcie%':>6s} "
              f"{'cpu%':>6s} {'dram-util':>10s} {'pcie-util':>10s}")
        for row in section["phases"]:
            total = row["seconds"] or 1.0
            print(f"{row['phase']:<16s} {row['seconds']:>10.6f} "
                  f"{100 * row['gpu_seconds'] / total:>5.1f}% "
                  f"{100 * row['pcie_seconds'] / total:>5.1f}% "
                  f"{100 * row['cpu_seconds'] / total:>5.1f}% "
                  f"{row['gpu_dram_utilization']:>10.3f} "
                  f"{row['pcie_utilization']:>10.3f}")

    if args.json_out:
        text = json_mod.dumps(section, indent=2, sort_keys=True)
        if args.json_out == "-":
            print(text)
        else:
            with open(args.json_out, "w") as fh:
                fh.write(text + "\n")
            print(f"\nwrote {args.json_out}")
    return 0


def _cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck

    return 0 if run_selfcheck() else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "partition": _cmd_partition,
        "generate": _cmd_generate,
        "bench": _cmd_bench,
        "info": _cmd_info,
        "compare": _cmd_compare,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "slo": _cmd_slo,
        "gate": _cmd_gate,
        "analyze": _cmd_analyze,
        "roofline": _cmd_roofline,
        "serve": _cmd_serve,
        "selfcheck": _cmd_selfcheck,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
