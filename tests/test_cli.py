"""Unit tests for the command-line interface."""

import argparse
import json
import shlex
import shutil
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.graphs import generators, read_partition, write_metis

REPO = Path(__file__).resolve().parents[1]


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
            ["compare", "a.jsonl:0", "a.jsonl:1"],
            ["report", "--ledger", "a.jsonl"],
            ["gate", "--baseline", "a.jsonl"],
            ["roofline", "--ledger", "a.jsonl"],
            ["selfcheck"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_help_lists_thirteen_commands(self):
        usage = build_parser().format_usage()
        listed = usage[usage.index("{") + 1:usage.index("}")].split(",")
        assert len(listed) == 13
        assert "profile" not in listed and "faults" not in listed

    def test_option_count(self):
        """At most 57 options over all commands; ``roofline`` only reads a
        ledger record."""
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))

        def options(cmd):
            return [a.option_strings[-1] for a in sub.choices[cmd]._actions
                    if a.option_strings
                    and not isinstance(a, argparse._HelpAction)]

        assert sum(len(options(cmd)) for cmd in sub.choices) <= 57
        assert options("roofline") == ["--ledger", "--json", "--no-chart"]

    @pytest.mark.parametrize("argv", [
        ["profile", "x.graph"],
        ["faults", "x.graph"],
        ["roofline", "x.graph"],
        ["roofline"],
        ["roofline", "--ledger", "a.jsonl", "-k", "8"],
        ["partition", "x.graph", "--intensity", "0.5"],
        ["bench", "--no-json"],
    ])
    def test_removed_surface_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

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
    """The span-profiler reports, flags of ``partition`` (there is no
    separate ``profile`` command)."""

    def test_exports_and_validates(self, graph_file, tmp_path, capsys):
        trace_out = tmp_path / "run.json"
        metrics_out = tmp_path / "metrics.json"
        rc = main([
            "partition", str(graph_file), "-k", "8", "--method", "mt-metis",
            "--tree", "--trace-out", str(trace_out),
            "--metrics-out", str(metrics_out),
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
        rc = main(["partition", str(graph_file), "-k", "4",
                   "--method", "mt-metis", "--tree"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "coarsening" in text and "uncoarsening" in text
        assert "level 0" in text
        assert "wrote" not in text

    def test_depth_limits_tree(self, graph_file, capsys):
        rc = main([
            "partition", str(graph_file), "-k", "4", "--method", "mt-metis",
            "--tree", "1",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "run: mt-metis" in text
        assert "level 0" not in text

    def test_no_tree_by_default(self, graph_file, capsys):
        assert main(["partition", str(graph_file), "-k", "4",
                     "--method", "mt-metis"]) == 0
        assert "run: mt-metis" not in capsys.readouterr().out


class TestLedgerWorkflow:
    """The acceptance flow: partition twice into a ledger, compare, report."""

    @pytest.fixture
    def ledger(self, graph_file, tmp_path):
        path = tmp_path / "runs.jsonl"
        for seed in (1, 2):
            rc = main([
                "partition", str(graph_file), "-k", "4",
                "--method", "gp-metis", "--seed", str(seed),
                "--ledger", str(path),
            ])
            assert rc == 0
        return path

    def test_profile_appends_records(self, ledger, graph_file, capsys):
        from repro.obs import read_ledger

        records = read_ledger(ledger)
        assert len(records) == 2
        assert {r["config"]["seed"] for r in records} == {1, 2}
        rc = main([
            "partition", str(graph_file), "-k", "4", "--method", "gp-metis",
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

    def test_colon_in_directory(self, tmp_path, capsys):
        """``FILE[:INDEX]`` splits at the last colon, for ``roofline`` as
        for ``compare``: a colon in a directory name belongs to the path."""
        from repro.obs import read_ledger

        moved = tmp_path / "colon:dir" / "runs.jsonl"
        moved.parent.mkdir()
        shutil.copy(REPO / "benchmarks" / "BENCH_ledger.jsonl", moved)
        first = read_ledger(moved)[0]["run_id"]
        assert main(["roofline", "--ledger", str(moved), "--no-chart"]) == 0
        assert main(["roofline", "--ledger", f"{moved}:0", "--no-chart"]) == 0
        assert f"run {first}:" in capsys.readouterr().out
        assert main(["compare", f"{moved}:0", f"{moved}:1"]) == 0
        capsys.readouterr()
        assert main(["roofline", "--ledger", f"{moved}:99"]) == 1
        assert capsys.readouterr().err.startswith(f"{moved}: no record")
        assert main(["roofline", "--ledger", f"{moved}:*"]) == 2
        assert "is not an integer" in capsys.readouterr().err


class TestBenchJson:
    def test_results_json_written(self, tmp_path, capsys, monkeypatch):
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
        """No ``--json``, no file: bench writes results only when asked."""
        monkeypatch.chdir(tmp_path)
        rc = main([
            "bench", "--scale", "0.0003", "--datasets", "delaunay",
            "--methods", "metis", "-k", "4",
        ])
        assert rc == 0
        assert list(tmp_path.iterdir()) == []


class TestServeCommand:
    def test_verified_load_feeds_slo_and_trace(self, tmp_path, capsys):
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


def _documented_runs(doc: str) -> list[list[str]]:
    """The ``partition``/``generate``/``roofline`` argv lists of ``doc``'s
    recipe blocks, in order.

    A recipe block is a fenced block that makes its own input (it holds a
    ``python -m repro generate`` line); synopsis blocks with placeholders
    hold none.
    """
    runs = []
    for block in (REPO / "docs" / doc).read_text().split("```")[1::2]:
        argvs = [
            shlex.split(line.split("#")[0])[3:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("python -m repro ")
        ]
        if any(argv[0] == "generate" for argv in argvs):
            runs += [a for a in argvs
                     if a[0] in ("partition", "generate", "roofline")]
    return runs


class TestDocumentedCommands:
    """The command block of docs/FAULTS.md and the record -> inspect block
    of docs/OBSERVABILITY.md run as written, in a scratch directory: each
    line exits 0, except a ``--no-recover`` run, which dies on an injected
    fault with exit 1."""

    @pytest.mark.parametrize("doc, commands", [
        ("FAULTS.md", {"generate", "partition"}),
        ("OBSERVABILITY.md", {"generate", "partition", "roofline"}),
    ])
    def test_block_runs_as_written(self, doc, commands, tmp_path,
                                   monkeypatch, capsys):
        runs = _documented_runs(doc)
        assert commands <= {argv[0] for argv in runs}
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        for argv in runs:
            recover = "--no-recover" not in argv
            assert main(argv) == (0 if recover else 1), argv
            assert recover or "injected" in capsys.readouterr().err
