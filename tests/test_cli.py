"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs import generators, read_partition, write_metis


@pytest.fixture
def graph_file(tmp_path):
    g = generators.delaunay(400, seed=1)
    p = tmp_path / "g.graph"
    write_metis(g, p)
    return p


class TestParser:
    def test_commands_exist(self):
        parser = build_parser()
        for argv in (
            ["partition", "x.graph"],
            ["generate", "--family", "delaunay", "-o", "x.graph"],
            ["bench"],
            ["info", "x.graph"],
            ["profile", "x.graph"],
            ["compare", "a.jsonl:0", "a.jsonl:1"],
            ["report", "--ledger", "a.jsonl"],
            ["gate", "--baseline", "a.jsonl"],
            ["roofline", "--ledger", "a.jsonl"],
            ["selfcheck"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition", "x", "--method", "scotch"])


class TestPartitionCommand:
    def test_end_to_end(self, graph_file, tmp_path, capsys):
        out = tmp_path / "g.part"
        rc = main([
            "partition", str(graph_file), "-k", "8",
            "--method", "mt-metis", "-o", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "edge cut" in text and "imbalance" in text
        part = read_partition(out)
        assert part.shape[0] == 400
        assert 0 <= part.min() and part.max() < 8

    def test_no_output_file(self, graph_file, capsys):
        rc = main(["partition", str(graph_file), "-k", "4"])
        assert rc == 0
        assert "wrote" not in capsys.readouterr().out


class TestGenerateCommand:
    def test_family_metis_output(self, tmp_path, capsys):
        out = tmp_path / "gen.graph"
        rc = main(["generate", "--family", "road", "-n", "300", "-o", str(out)])
        assert rc == 0
        assert out.exists()

    def test_dataset_npz_output(self, tmp_path):
        out = tmp_path / "gen.npz"
        rc = main([
            "generate", "--dataset", "delaunay", "--scale", "0.0005",
            "-o", str(out),
        ])
        assert rc == 0
        from repro.graphs import load_npz

        g = load_npz(out)
        g.validate()

    def test_dataset_and_family_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--dataset", "ldoor", "--family", "road", "-o", "x"]
            )


class TestProfileCommand:
    def test_exports_and_validates(self, graph_file, tmp_path, capsys):
        import json

        trace_out = tmp_path / "run.json"
        metrics_out = tmp_path / "metrics.json"
        rc = main([
            "profile", str(graph_file), "-k", "8", "--method", "mt-metis",
            "--trace-out", str(trace_out), "--metrics-out", str(metrics_out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "run: mt-metis" in text
        assert "ui.perfetto.dev" in text
        trace_doc = json.loads(trace_out.read_text())
        assert trace_doc["otherData"]["schema"] == "repro.obs.chrome-trace/1"
        metrics_doc = json.loads(metrics_out.read_text())
        assert metrics_doc["run"]["engine"] == "mt-metis"
        assert metrics_doc["run"]["k"] == 8

    def test_tree_only_without_outputs(self, graph_file, capsys):
        rc = main(["profile", str(graph_file), "-k", "4", "--method", "mt-metis"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "coarsening" in text and "uncoarsening" in text
        assert "wrote" not in text

    def test_depth_limits_tree(self, graph_file, capsys):
        rc = main([
            "profile", str(graph_file), "-k", "4", "--method", "mt-metis",
            "--depth", "1",
        ])
        assert rc == 0
        assert "level 0" not in capsys.readouterr().out


class TestLedgerWorkflow:
    """The acceptance flow: profile twice into a ledger, compare, report."""

    @pytest.fixture
    def ledger(self, graph_file, tmp_path):
        path = tmp_path / "runs.jsonl"
        for seed in (1, 2):
            rc = main([
                "profile", str(graph_file), "-k", "4", "--method", "gp-metis",
                "--seed", str(seed), "--ledger", str(path),
            ])
            assert rc == 0
        return path

    def test_profile_appends_records(self, ledger, graph_file, capsys):
        from repro.obs import read_ledger

        records = read_ledger(ledger)
        assert len(records) == 2
        assert {r["config"]["seed"] for r in records} == {1, 2}
        rc = main([
            "profile", str(graph_file), "-k", "4", "--method", "gp-metis",
            "--seed", "3", "--ledger", str(ledger),
        ])
        assert rc == 0
        assert "appended run" in capsys.readouterr().out
        assert len(read_ledger(ledger)) == 3

    def test_compare_prints_attribution(self, ledger, capsys):
        rc = main(["compare", f"{ledger}:0", f"{ledger}:1"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "total" in text
        assert "seed=1" in text and "seed=2" in text

    def test_compare_cohort_star(self, ledger, capsys):
        rc = main(["compare", "0", "*", "--ledger", str(ledger)])
        assert rc == 0
        assert "total" in capsys.readouterr().out

    def test_report_writes_selfcontained_html(self, ledger, tmp_path, capsys):
        out = tmp_path / "report.html"
        rc = main(["report", "--ledger", str(ledger), "-o", str(out)])
        assert rc == 0
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "</html>" in html
        assert "http://" not in html and "https://" not in html

    def test_gate_seeds_then_passes(self, ledger, tmp_path, capsys):
        baseline = tmp_path / "baseline.jsonl"
        current = tmp_path / "current.jsonl"
        import shutil

        shutil.copy(ledger, current)
        rc = main([
            "gate", "--baseline", str(baseline), "--current", str(current),
        ])
        assert rc == 0  # first run seeds the baseline
        assert baseline.exists()
        rc = main([
            "gate", "--baseline", str(baseline), "--current", str(current),
        ])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_roofline_reads_ledger_record(self, ledger, capsys):
        rc = main(["roofline", "--ledger", str(ledger), "--no-chart"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "machine" in text.lower()
        assert "cpu" in text.lower() and "pcie" in text.lower()
        assert "phase" in text.lower()

    def test_roofline_json_output(self, ledger, tmp_path, capsys):
        import json

        out = tmp_path / "hw.json"
        rc = main([
            "roofline", "--ledger", f"{ledger}:0", "--json", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.obs.hw/1"
        assert 0.0 <= doc["cpu"]["utilization"] <= 1.0

    def test_roofline_missing_record_errors(self, ledger, capsys):
        rc = main(["roofline", "--ledger", f"{ledger}:99"])
        assert rc == 1


class TestBenchJson:
    def test_results_json_written(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        rc = main([
            "bench", "--scale", "0.0003", "--datasets", "delaunay",
            "--methods", "metis,gp-metis", "-k", "4",
            "--json", "out.json",
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["schema"] == "repro.bench.results/1"
        assert "delaunay" in doc["runs"]
        for method in ("metis", "gp-metis"):
            run = doc["runs"]["delaunay"][method]
            assert run["modeled_seconds"] > 0
            assert run["cut"] >= 0

    def test_no_json_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "bench", "--scale", "0.0003", "--datasets", "delaunay",
            "--methods", "metis", "-k", "4", "--no-json",
        ])
        assert rc == 0
        assert not (tmp_path / "BENCH_results.json").exists()


class TestServeCommand:
    def test_verified_load_feeds_slo_and_trace(self, tmp_path, capsys):
        import json

        from repro.obs.schema import validate_chrome_trace

        report = tmp_path / "serve.json"
        ledger = tmp_path / "served.jsonl"
        trace = tmp_path / "trace.json"
        rc = main([
            "serve", "--requests", "60", "--graph-n", "300", "--verify",
            "--json", str(report), "--ledger", str(ledger),
        ])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["verification"]["ok"]
        assert doc["cache_hits"] >= 1
        assert doc["tracing"]["ok"]
        assert main([
            "slo", str(ledger), "--policy", "benchmarks/slo_policy.json",
        ]) == 0
        assert main(["trace", str(ledger), "--trace-out", str(trace)]) == 0
        validate_chrome_trace(json.loads(trace.read_text()))


class TestInfoCommand:
    def test_prints_stats(self, graph_file, capsys):
        rc = main(["info", str(graph_file)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "vertices        : 400" in text
        assert "components" in text
