"""Checks of the benchmark itself, on reduced inputs.

Run from the repository root with ``python3 -m pytest perfbench`` (about
a minute).  They cover the contract file, the tracer's bookkeeping, the
per-workload layer coverage and a planted failure.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run

ROOT = Path(__file__).resolve().parents[1]
wl, _ = run.import_program()

from perfbench import hostspeed  # noqa: E402
from perfbench.tracer import Tracer, span_names  # noqa: E402

#: Fewer and smaller inputs of the same shape, so each run takes seconds.
SMALL = {
    "gp-ldoor": {"scale": 0.006, "inputs": 1},
    "paper-delaunay": {"scale": 0.01, "inputs": 1},
    "service-mix": {"requests": 60, "graph_n": 1000, "inputs": 1},
}


def small(name):
    return dataclasses.replace(wl.WORKLOADS[name], **SMALL[name])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(wl.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {run.span_metric(name) for name in span_names()} <= set(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_tracer_patches_callers_and_restores_them():
    import repro.gpmetis.hybrid as hybrid
    import repro.graphs.metrics as metrics
    import repro.mtmetis.refinement as mt_refinement
    import repro.serial.kway as kway
    from repro.parmetis.distgraph import DistGraph

    def bindings():
        return (
            hybrid.gpu_refine_level, hybrid.edge_cut, metrics.edge_cut,
            kway.kway_connectivity, mt_refinement.kway_connectivity,
            DistGraph.__dict__["ghost_exchange_payload"],
        )

    before = bindings()
    with Tracer():
        assert all(a is not b for a, b in zip(bindings(), before))
    assert all(a is b for a, b in zip(bindings(), before))


def test_self_times_sum_to_the_root():
    tracer = Tracer()
    graph = wl.datasets.load_dataset("delaunay", scale=0.005, seed=3)
    with tracer, tracer.root("bench.partition") as root:
        wl.repro.partition(graph, 8, method="gp-metis", seed=3, gpu_threshold_min=256)
    layers = tracer.layers(root)
    assert sum(ns for ns, _ in layers.values()) == tracer.duration_ns(root)
    # Both refinement paths reach kway_connectivity through their own
    # module's binding.
    parents = {
        tracer.spans[span[3]][0]
        for span in tracer.spans
        if span[0] == "serial.kway_connectivity"
    }
    assert {"gpmetis.propose_moves", "mtmetis.propose_moves"} <= parents


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_covers_the_workload_layers(name, tmp_path):
    checker, metrics, _, _, _ = run.traced_run(wl, small(name), 1, tmp_path / "t.json")
    assert checker.errors == []
    assert list(metrics) == list(run.PER_LAYER)
    self_times = sum(
        metrics[run.span_metric(span)]
        for span in span_names()
        if span != "graphs.load_dataset"
    )
    assert self_times + metrics["bench.unattributed_s"] == pytest.approx(
        metrics["bench.traced_partition_s"], rel=1e-9
    )
    assert json.loads((tmp_path / "t.json").read_text())["spans"]


def test_clock_scales_each_section_by_the_probes_around_it(monkeypatch):
    readings = iter([0.02, 0.02, 0.01])
    monkeypatch.setattr(hostspeed, "probe_s", lambda: next(readings))
    clock = hostspeed.Clock()
    assert clock.scale(4.0) == pytest.approx(4.0 * hostspeed.REFERENCE_S / 0.02)
    assert clock.scale(3.0) == pytest.approx(3.0 * hostspeed.REFERENCE_S / 0.015)
    assert clock.speed() == pytest.approx(hostspeed.REFERENCE_S / 0.02)


def test_probe_takes_about_the_reference_time():
    # A sanity bound: real work of about the reference length.
    assert hostspeed.REFERENCE_S / 10 < hostspeed.probe_s() < hostspeed.REFERENCE_S * 10


def test_run_seeds_give_disjoint_inputs():
    runs = [set(wl.input_seeds(seed, 3)) for seed in range(1, 6)]
    assert all(len(seeds) == 3 for seeds in runs)
    assert len(set().union(*runs)) == 3 * len(runs)


def test_timed_run_measures_every_input():
    workload = dataclasses.replace(small("gp-ldoor"), inputs=2)
    checker, metrics, _, outputs, notes = run.timed_run(wl, workload, 1, 0, 0.0)
    assert checker.errors == []
    assert list(outputs) == wl.input_seeds(1, 2)
    assert checker.attempted == 2
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert sum("partition samples" in note for note in notes) == 2


def test_planted_corruption_fails_the_run(monkeypatch, capsys):
    real = wl.repro.partition

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        result.part = result.part.copy()
        result.part[0] = result.k
        return result

    monkeypatch.setattr(wl.repro, "partition", corrupted)
    monkeypatch.setitem(wl.WORKLOADS, "gp-ldoor", small("gp-ldoor"))
    status = run.main(["--workload", "gp-ldoor", "--seed", "1", "--seconds", "0"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert out["correct"] is False
    assert out["failed"] / out["attempted"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gp-ldoor",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
