"""Run one workload of the wall-time and memory benchmark.

From the repository root::

    python3 perfbench/run.py --workload gp-ldoor --seed 1 --seconds 30 --trace 0

The seed makes a few inputs.  ``--trace 0`` sets up the workload several
times, then repeats the timed call round the inputs until ``--seconds``
of it were measured and reports the end-to-end metrics.  ``--trace 1``
sets up once, runs the call on the first input once untraced and once
under :class:`perfbench.tracer.Tracer`, and reports the per-layer
metrics.  Either way a readable report comes first (every metric with
its unit, and a sha256 of every partition vector) and the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every output check passed, 1 when one
failed, 2 when the program under ``src/`` cannot be imported.
"""

import os

# One BLAS thread: the spectral engine's eigensolver would otherwise
# spawn threads that compete on a small shared host.  No ledger writes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REPRO_LEDGER", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("gp-ldoor", "paper-delaunay", "service-mix")
#: Set-ups per timed run; ``setup_s`` takes their median.
SETUP_REPEATS = 3
#: Where traced runs write their spans (git-ignored).
TRACE_DIR = ROOT / "perfbench" / "out"

#: metric -> unit, with tracing off (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "partition_s": "s",
    "setup_rss_mb": "MB",
    "peak_rss_mb": "MB",
    "modeled_s": "sim_s",
    "edge_cut": "count",
}

#: metric -> unit, from the traced run (``--trace 1``).  Every ``_s``
#: timing is self seconds of one span name of :mod:`perfbench.tracer`.
PER_LAYER = {
    "graphs.load_dataset_s": "s",
    "graphs.edge_cut_s": "s",
    "gpmetis.gpu_refine_level_s": "s",
    "gpmetis.propose_moves_s": "s",
    "gpmetis.commit_moves_s": "s",
    "gpmetis.gpu_match_s": "s",
    "gpmetis.gpu_build_cmap_s": "s",
    "gpmetis.gpu_contract_s": "s",
    "gpmetis.gpu_project_s": "s",
    "gpmetis.gpu_levels": "count",
    "gpmetis.conflict_rate": "ratio",
    "gpmetis.commit_ratio": "ratio",
    "gpusim.warp_transactions_s": "s",
    "gpusim.warp_transactions_calls": "count",
    "gpusim.transfer_s": "s",
    "gpusim.kernel_launches": "count",
    "gpusim.pcie_bytes": "B",
    "gpusim.pcie_exposed_s": "sim_s",
    "gpusim.peak_device_bytes": "B",
    "mtmetis.initpart_s": "s",
    "mtmetis.coarsen_s": "s",
    "mtmetis.lockfree_match_s": "s",
    "mtmetis.uncoarsen_s": "s",
    "mtmetis.propose_moves_s": "s",
    "serial.kway_connectivity_s": "s",
    "serial.kway_connectivity_calls": "count",
    "serial.coarsen_s": "s",
    "serial.initpart_s": "s",
    "serial.refine_s": "s",
    "parmetis.ghost_exchange_s": "s",
    "parmetis.coarsen_s": "s",
    "parmetis.initpart_s": "s",
    "parmetis.refine_s": "s",
    "parmetis.mpi_messages": "count",
    "parmetis.mpi_bytes": "B",
    "obs.profile_run_s": "s",
    "obs.finish_run_s": "s",
    "service.submit_s": "s",
    "service.drain_self_s": "s",
    "service.engine_run_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.batched_followers": "count",
    "service.resubmissions": "count",
    "bench.unattributed_s": "s",
    "bench.traced_partition_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


def span_metric(span: str) -> str:
    """The per-layer metric holding a span name's self seconds."""
    return "service.drain_self_s" if span == "service.drain" else f"{span}_s"


def peak_rss_mb() -> float:
    """Peak resident set (VmHWM) since start or the last reset, in MiB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reset_peak_rss() -> bool:
    """Restart VmHWM from the current RSS; False where the kernel refuses."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
        return True
    except OSError:
        return False


def import_program():
    """Import the program from this checkout's ``src/``; returns the
    workload module and the import seconds."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    start = time.perf_counter()
    import repro
    from perfbench import workloads

    seconds = time.perf_counter() - start
    if (ROOT / "src").resolve() not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro came from {repro.__file__}, not {ROOT / 'src'}")
    return workloads, seconds


def mean_median(samples: dict) -> float:
    """The mean over a run's inputs of each input's median sample."""
    return statistics.fmean(statistics.median(s) for s in samples.values())


def timed_run(wl, workload, seed: int, seconds: float, import_s: float):
    """The end-to-end metrics, with tracing off.

    The timed calls go round the run's inputs until ``seconds`` of them
    were measured, each input at least once.  Every time is scaled to the
    reference host speed (:mod:`perfbench.hostspeed`).  Per input the
    median call is kept, and ``partition_s`` is their mean: the median
    rides out short slow spells, the mean evens out the inputs.
    """
    from perfbench import hostspeed

    clock = hostspeed.Clock()
    # The import ran before the first probe, which is all it has.
    raw_import_s, import_s = import_s, import_s * hostspeed.REFERENCE_S / clock.probes[0]
    samples, raw_setups, inputs = [], [], None
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        start = time.perf_counter()
        inputs = workload.build(seed)
        workload.warm_up(seed)
        raw_setups.append(time.perf_counter() - start)
        samples.append(clock.scale(raw_setups[-1]))
    setup_rss = peak_rss_mb()

    checker = wl.Checker()
    walls = {key: [] for key, _ in inputs}
    raw_walls = {key: [] for key, _ in inputs}
    method_walls, peaks, outputs = {}, [], {}
    resettable, measured, calls = True, 0.0, 0
    while calls < len(inputs) or measured < seconds:
        key, data = inputs[calls % len(inputs)]
        gc.collect()
        resettable = reset_peak_rss() and resettable
        op = workload.run(data, key)
        peaks.append(peak_rss_mb())
        wall = clock.scale(op.wall_s)
        walls[key].append(wall)
        raw_walls[key].append(op.wall_s)
        measured += op.wall_s
        for method, method_wall in op.method_wall_s.items():
            method_walls.setdefault(method, {}).setdefault(key, []).append(
                method_wall * wall / op.wall_s
            )
        outputs[key] = checker.examine(op, key)
        if calls < len(inputs):
            checker.errors += workload.verify(op)
        calls += 1
        del op

    totals = [wl.gp_totals(out) for out in outputs.values()]
    metrics = {
        "setup_s": import_s + statistics.median(samples),
        "partition_s": mean_median(walls),
        "setup_rss_mb": setup_rss,
        # Without a resettable VmHWM the process-wide peak is all there is.
        "peak_rss_mb": statistics.median(peaks) if resettable else peak_rss_mb(),
        "modeled_s": statistics.fmean(modeled for modeled, _ in totals),
        "edge_cut": statistics.fmean(cut for _, cut in totals),
    }
    extra = {}
    if len(method_walls) > 1:
        for method, w in method_walls.items():
            extra[f"partition_s.{method}"] = (mean_median(w), "s")
        for method in method_walls:
            cuts = [out["edge_cut"][method] or 0 for out in outputs.values()]
            extra[f"edge_cut.{method}"] = (statistics.fmean(cuts), "count")
    for key, out in outputs.items():
        if "latency" in out:
            for name, (value, n) in wl.latency_report(out).items():
                extra[f"{name} input {key} (n={n})"] = (value, "sim_s")
    extra["partition_wall_s"] = (mean_median(raw_walls), "s")
    extra["setup_wall_s"] = (raw_import_s + statistics.median(raw_setups), "s")
    extra["host_speed"] = (clock.speed(), "x_ref")
    notes = [
        "times are at the reference host speed; *_wall_s are as measured",
        f"import_s={import_s:.4f} set-up samples={[round(s, 4) for s in samples]}",
    ] + [
        f"input {key} partition samples={[round(s, 4) for s in w]}"
        for key, w in walls.items()
    ]
    if not resettable:
        notes.append("VmHWM could not be reset: peak_rss_mb is the process peak")
    return checker, metrics, extra, outputs, notes


def traced_run(wl, workload, seed: int, trace_path: Path):
    """The per-layer metrics: one untraced and one traced call on the
    run's first input.  The tracing overhead compares the two at the
    reference host speed; the layer times are as measured."""
    from perfbench import hostspeed
    from perfbench.tracer import Tracer, span_names

    tracer = Tracer()
    with tracer, tracer.root("bench.setup") as setup_root:
        inputs = workload.build(seed)
        workload.warm_up(seed)
    key, data = inputs[0]
    checker = wl.Checker()
    clock = hostspeed.Clock()
    plain = workload.run(data, key)
    untraced_s = clock.scale(plain.wall_s)
    checker.examine(plain, key)
    checker.errors += workload.verify(plain)
    del plain
    gc.collect()
    clock = hostspeed.Clock()
    with tracer, tracer.root("bench.partition") as root:
        op = workload.run(data, key)
    traced_s = clock.scale(tracer.duration_ns(root) / 1e9)
    outputs = {key: checker.examine(op, key)}
    tracer.dump(trace_path)

    # Only the input build runs in set-up; every other layer is read from
    # the traced call, whose self-times sum to its duration.
    setup_layers, layers = tracer.layers(setup_root), tracer.layers(root)
    traced_ns = tracer.duration_ns(root)
    if sum(ns for ns, _ in layers.values()) != traced_ns:
        checker.errors.append("layer self-times do not sum to the traced call")

    def spans_of(name):
        return (setup_layers if name == "graphs.load_dataset" else layers).get(name, (0, 0))

    checker.errors += [
        f"layer {name} recorded no call"
        for name in workload.layers
        if spans_of(name)[1] < 1
    ]
    values = {}
    for name in span_names():
        ns, calls = spans_of(name)
        values[span_metric(name)] = ns / 1e9
        values[f"{name}_calls"] = calls

    results = list({id(p.result): p.result for p in op.partitions}.values())

    def total(name, **labels):
        return sum(r.profiler.metrics.value(name, **labels) or 0 for r in results)

    def ratio(num, den):
        return num / den if den else 0.0

    pairs = total("matching.pairs", engine="gpu")
    conflicts = total("matching.conflicts", engine="gpu")
    values.update({
        "gpmetis.gpu_levels": sum(
            r.extras.get("gpu_levels", 0) for r in results if r.method == "gp-metis"
        ),
        "gpmetis.conflict_rate": ratio(conflicts, pairs + conflicts),
        "gpmetis.commit_ratio": ratio(
            total("refine.moves_committed", engine="gpu"),
            total("refine.moves_proposed", engine="gpu"),
        ),
        "gpusim.kernel_launches": total("kernel.launches"),
        "gpusim.pcie_bytes": total("hw.pcie.bytes"),
        "gpusim.pcie_exposed_s": total("hw.pcie.exposed_seconds"),
        "gpusim.peak_device_bytes": max(
            (r.profiler.metrics.value("hw.gpu.peak_bytes") or 0 for r in results),
            default=0,
        ),
        "parmetis.mpi_messages": total("hw.mpi.messages"),
        "parmetis.mpi_bytes": total("hw.mpi.bytes"),
        "service.cache_hit_ratio": ratio(
            sum(t.cache == "hit" for t in op.tickets), len(op.tickets)
        ),
        "service.batched_followers": sum(
            t.batch_id is not None and not t.batch_leader for t in op.tickets
        ),
        "service.resubmissions": op.resubmissions,
        "bench.unattributed_s": layers["bench.partition"][0] / 1e9,
        "bench.traced_partition_s": traced_ns / 1e9,
        "bench.trace_overhead_frac": (traced_s - untraced_s) / untraced_s,
    })
    metrics = {name: values[name] for name in PER_LAYER}

    top = sorted(layers.items(), key=lambda item: -item[1][0])[:8]
    notes = [
        f"at the reference host speed: untraced {untraced_s:.4f} s, "
        f"traced {traced_s:.4f} s; spans written to {trace_path}",
        "largest self-times: " + ", ".join(
            f"{name} {ns / traced_ns:.1%}" for name, (ns, _) in top
        ),
    ]
    return checker, metrics, {}, outputs, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        wl, import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    if args.trace:
        units = PER_LAYER
        checker, metrics, extra, outputs, notes = traced_run(
            wl, workload, args.seed, TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        )
    else:
        units = END_TO_END
        checker, metrics, extra, outputs, notes = timed_run(
            wl, workload, args.seed, args.seconds, import_s
        )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    rows = [(key, value, units[key]) for key, value in metrics.items()]
    rows += [(key, value, unit) for key, (value, unit) in extra.items()]
    rows.append(("error_rate", checker.failed / max(1, checker.attempted), "ratio"))
    for key, value, unit in rows:
        print(f"  {key:<40} {value:>16.6g} {unit}")
    print(f"  attempted={checker.attempted} failed={checker.failed}")
    for key, out in outputs.items():
        for label, d in out["digest"].items():
            print(f"  digest {d} input {key} {label}")
    for error in checker.errors:
        print(f"  FAILED {error}")
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if checker.errors else 0


if __name__ == "__main__":
    sys.exit(main())
