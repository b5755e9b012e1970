"""Tests for the hardware-utilization layer (repro.obs.hw).

The invariants under test are the module's whole point:

* every utilization is in [0, 1] by construction, whatever the engine;
* per-phase GPU/PCIe/CPU slices sum exactly to the phase's seconds;
* the two PCIe byte ledgers (DeviceStats vs transfer spans) agree;
* kernel bound-ness is one of the four declared kinds;
* the ``hw`` ledger block round-trips through schema validation.
"""

import math

import pytest

from repro import api
from repro.graphs import generators as gen
from repro.obs.hw import (
    BOUND_KINDS,
    HW_SCHEMA,
    check_transfer_consistency,
    hw_section,
    kernel_rooflines,
    render_kernel_table,
    render_roofline_chart,
    transfer_avoidance_ratio,
    validate_hw_section,
)
from repro.runtime.machine import PAPER_MACHINE

#: Engines exercised by the cross-engine property tests.  Small graphs
#: keep the suite fast; gp-metis gets a GPU-sized graph separately.
ENGINES = ["metis", "mt-metis", "parmetis", "gp-metis", "pt-scotch",
           "jostle", "gmetis", "spectral", "random", "block"]


@pytest.fixture(scope="module")
def graph():
    return gen.delaunay(1500, seed=3)


@pytest.fixture(scope="module")
def gpu_result():
    # Large enough that the hybrid keeps coarsening levels on the GPU.
    return api.partition(gen.delaunay(20000, seed=1), 8, method="gp-metis",
                         seed=1)


def run_engine(graph, method):
    return api.partition(graph, 4, method=method, seed=2)


class TestSectionValidity:
    @pytest.mark.parametrize("method", ENGINES)
    def test_every_engine_emits_a_valid_section(self, graph, method):
        result = run_engine(graph, method)
        section = getattr(result.profiler, "hw", None)
        assert section is not None, f"{method} produced no hw section"
        validate_hw_section(section)  # raises on any malformed field
        assert section["schema"] == HW_SCHEMA

    @pytest.mark.parametrize("method", ENGINES)
    def test_utilizations_in_unit_interval(self, graph, method):
        section = run_engine(graph, method).profiler.hw
        for block in ("cpu", "mpi", "pcie"):
            assert 0.0 <= section[block]["utilization"] <= 1.0
        gpu = section.get("gpu")
        if gpu is not None:
            assert 0.0 <= gpu["dram_utilization"] <= 1.0
            assert 0.0 <= gpu["compute_utilization"] <= 1.0
            assert 0.0 <= gpu["coalescing"] <= 1.0

    @pytest.mark.parametrize("method", ENGINES)
    def test_phase_slices_sum_to_phase_seconds(self, graph, method):
        section = run_engine(graph, method).profiler.hw
        assert section["phases"], f"{method} recorded no phases"
        for row in section["phases"]:
            parts = (row["gpu_seconds"] + row["pcie_seconds"]
                     + row["cpu_seconds"])
            assert math.isclose(parts, row["seconds"],
                                rel_tol=1e-6, abs_tol=1e-9), row

    def test_gpu_run_has_kernels_and_bounds(self, gpu_result):
        gpu = gpu_result.profiler.hw["gpu"]
        assert gpu["kernels"], "GPU-sized run produced no kernel rooflines"
        for r in gpu["kernels"]:
            assert r["bound"] in BOUND_KINDS
            assert r["seconds"] > 0
        assert gpu["bytes_moved"] > 0
        assert sum(gpu["bound_seconds"].values()) == pytest.approx(
            gpu["kernel_seconds"]
        )

    def test_transfer_avoidance_present_on_gpu_run(self, gpu_result):
        avoid = gpu_result.profiler.hw["transfer_avoidance"]
        # The design claim: nearly all traffic stays device-resident.
        assert 0.5 < avoid <= 1.0


class TestConsistencyCheck:
    def test_passes_on_real_run(self, gpu_result):
        check_transfer_consistency(
            gpu_result.profiler, gpu_result.extras["device_stats"]
        )

    def test_detects_divergence(self, gpu_result):
        stats = gpu_result.extras["device_stats"]
        original = stats.h2d_bytes
        stats.h2d_bytes = original + 10_000
        try:
            with pytest.raises(AssertionError, match="transfer ledgers"):
                check_transfer_consistency(gpu_result.profiler, stats)
        finally:
            stats.h2d_bytes = original


class TestRooflineMath:
    def test_intensity_and_achieved_rates(self, gpu_result):
        stats = gpu_result.extras["device_stats"]
        for r in kernel_rooflines(stats, PAPER_MACHINE.gpu):
            if r.intensity is not None:
                assert r.intensity == pytest.approx(
                    r.compute_ops / r.bytes_moved
                )
            assert r.achieved_bandwidth == pytest.approx(
                r.bytes_moved / r.seconds
            )
            assert r.achieved_flops == pytest.approx(
                r.compute_ops / r.seconds
            )

    def test_achieved_never_exceeds_peak(self, gpu_result):
        gpu = PAPER_MACHINE.gpu
        for r in kernel_rooflines(gpu_result.extras["device_stats"], gpu):
            assert r.achieved_bandwidth <= gpu.bandwidth_bytes_per_sec * (1 + 1e-9)
            assert r.achieved_flops <= gpu.compute_ops_per_sec * (1 + 1e-9)

    def test_transfer_avoidance_ratio(self):
        assert transfer_avoidance_ratio(0.0, 0.0) is None
        assert transfer_avoidance_ratio(100.0, 0.0) == 1.0
        assert transfer_avoidance_ratio(0.0, 100.0) == 0.0
        assert transfer_avoidance_ratio(300.0, 100.0) == pytest.approx(0.75)


class TestRendering:
    def test_kernel_table_lists_every_kernel(self, gpu_result):
        gpu = gpu_result.profiler.hw["gpu"]
        table = render_kernel_table(gpu)
        for r in gpu["kernels"]:
            assert r["name"] in table
        assert "TOTAL" in table
        assert "bound" in table

    def test_chart_renders_roofline_and_points(self, gpu_result):
        gpu = gpu_result.profiler.hw["gpu"]
        chart = render_roofline_chart(gpu)
        assert "/" in chart and "-" in chart  # slanted + flat roof
        assert "ridge at" in chart
        assert " a = " in chart  # at least one lettered kernel

    def test_committed_ledger_newest_record_renders(self, capsys):
        from repro.cli import main
        from repro.obs import read_ledger

        ledger = "benchmarks/BENCH_ledger.jsonl"
        gpu = read_ledger(ledger)[-1]["hw"]["gpu"]
        assert render_roofline_chart(gpu)
        assert "TOTAL" in render_kernel_table(gpu)
        assert main(["roofline", "--ledger", ledger, "--no-chart"]) == 0
        assert "machine" in capsys.readouterr().out


class TestSchemaValidation:
    def test_rejects_missing_schema(self, graph):
        section = dict(run_engine(graph, "metis").profiler.hw)
        section.pop("schema")
        with pytest.raises(ValueError, match="schema"):
            validate_hw_section(section)

    def test_rejects_out_of_range_utilization(self, graph):
        section = run_engine(graph, "metis").profiler.hw
        bad = {**section, "cpu": {**section["cpu"], "utilization": 1.5}}
        with pytest.raises(ValueError, match="cpu.utilization"):
            validate_hw_section(bad)

    def test_rejects_non_summing_phases(self, graph):
        section = run_engine(graph, "metis").profiler.hw
        rows = [dict(r) for r in section["phases"]]
        rows[0]["cpu_seconds"] += 1.0
        with pytest.raises(ValueError, match="slices sum"):
            validate_hw_section({**section, "phases": rows})

    @pytest.mark.parametrize(
        "block, field",
        [("phases", "overlapped_seconds"), ("pcie", "exposed_seconds"),
         ("pcie", "overlap_ratio")],
    )
    def test_rejects_missing_overlap_field(self, graph, block, field):
        # Every writer emits the async-overlap fields, CPU-only runs too;
        # a record without one is malformed, not an older schema.
        section = run_engine(graph, "metis").profiler.hw
        if block == "pcie":
            pcie = {k: v for k, v in section["pcie"].items() if k != field}
            bad = {**section, "pcie": pcie}
        else:
            rows = [dict(r) for r in section["phases"]]
            del rows[0][field]
            bad = {**section, "phases": rows}
        with pytest.raises(ValueError, match=field):
            validate_hw_section(bad)

    def test_rejects_unknown_bound(self, gpu_result):
        section = gpu_result.profiler.hw
        gpu = dict(section["gpu"])
        gpu["kernels"] = [dict(gpu["kernels"][0], bound="magic")]
        with pytest.raises(ValueError, match="bound"):
            validate_hw_section({**section, "gpu": gpu})

    def test_ledger_schema_validates_hw_block(self, graph, tmp_path):
        from repro.obs import ledger as ledger_mod
        from repro.obs.schema import SchemaError, validate_ledger_record

        path = tmp_path / "runs.jsonl"
        ledger_mod.set_default_ledger(path)
        try:
            run_engine(graph, "metis")
        finally:
            ledger_mod.set_default_ledger(None)
        record = ledger_mod.read_ledger(path)[-1]
        assert record["schema"] == "repro.obs.ledger/2"
        assert "hw" in record
        validate_ledger_record(record)
        broken = dict(record)
        broken["hw"] = {**record["hw"], "schema": "nonsense/9"}
        with pytest.raises(SchemaError):
            validate_ledger_record(broken)

    def test_v1_records_rejected(self, graph, tmp_path):
        import json

        from repro.obs import ledger as ledger_mod
        from repro.obs.schema import SchemaError

        path = tmp_path / "runs.jsonl"
        ledger_mod.set_default_ledger(path)
        try:
            run_engine(graph, "metis")
        finally:
            ledger_mod.set_default_ledger(None)
        record = ledger_mod.read_ledger(path)[-1]
        record.pop("hw")
        record["schema"] = "repro.obs.ledger/1"
        old = tmp_path / "old.jsonl"
        old.write_text(json.dumps(record) + "\n")
        with pytest.raises(SchemaError, match="repro.obs.ledger/2"):
            ledger_mod.read_ledger(old)


class TestMachineArgument:
    def test_section_scored_against_given_machine(self, graph):
        clock_section = run_engine(graph, "metis").profiler.hw
        assert clock_section["machine"]["cpu"] == PAPER_MACHINE.cpu.name
        assert clock_section["machine"]["gpu"] == PAPER_MACHINE.gpu.name

    def test_bare_profiler_gets_empty_counters(self):
        from repro.obs.spans import Profiler
        from repro.runtime.clock import SimClock

        clock = SimClock()
        prof = Profiler(clock, name="x", category="run", engine="t",
                        graph="g", k=1)
        prof.finish()
        section = hw_section(prof, PAPER_MACHINE)
        validate_hw_section(section)
        assert section["cpu"]["busy_seconds"] == 0.0
        assert section["pcie"]["transfers"] == 0
