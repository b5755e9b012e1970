"""CLI tests for fault injection and input error hardening.

``repro gate``, ``repro compare`` and ``repro roofline`` must fail with
exit 2 and an ``error:`` line on stderr for malformed or missing ledger
input (not a traceback), as must every command on a malformed graph
file; ``partition``'s fault-plan selection (``--fault-plan FILE|full``,
``--fault-seed``, ``--emit-plan``) and ``--no-recover`` must behave, and
so must the recovery self-check (the fault group of ``repro selfcheck``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import selfcheck
from repro.cli import main
from repro.faults import FaultPlan, load_plan
from repro.obs.ledger import set_default_ledger


@pytest.fixture(autouse=True)
def _no_ambient_ledger(monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    set_default_ledger(None)
    yield
    set_default_ledger(None)


@pytest.fixture
def bad_ledger(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{this is not json\n")
    return str(path)


@pytest.fixture
def empty_ledger(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    return str(path)


@pytest.fixture
def good_ledger(tmp_path):
    from tests.obs.conftest import build_record
    from repro.obs import append_record

    path = tmp_path / "runs.jsonl"
    append_record(path, build_record({"coarsening": 1.0}))
    return str(path)


class TestLedgerErrorPaths:
    @pytest.mark.parametrize("cmd", ["gate", "compare", "roofline"])
    def test_malformed_ledger_exits_2(self, cmd, bad_ledger, good_ledger,
                                      capsys):
        if cmd == "gate":
            argv = ["gate", "--current", bad_ledger, "--baseline", good_ledger]
        elif cmd == "roofline":
            argv = ["roofline", "--ledger", bad_ledger]
        else:
            argv = ["compare", bad_ledger, good_ledger]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not valid JSON" in err

    @pytest.mark.parametrize("cmd", ["gate", "compare"])
    def test_empty_ledger_exits_2(self, cmd, empty_ledger, good_ledger,
                                  capsys):
        if cmd == "gate":
            argv = ["gate", "--current", empty_ledger,
                    "--baseline", good_ledger]
        else:
            argv = ["compare", empty_ledger, good_ledger]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "ledger is empty" in err

    @pytest.mark.parametrize("cmd", ["gate", "compare", "roofline"])
    def test_missing_ledger_exits_2(self, cmd, tmp_path, good_ledger, capsys):
        missing = str(tmp_path / "nope.jsonl")
        if cmd == "gate":
            argv = ["gate", "--current", missing, "--baseline", good_ledger]
        elif cmd == "roofline":
            argv = ["roofline", "--ledger", missing]
        else:
            argv = ["compare", missing, good_ledger]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_roofline_non_integer_index_exits_2(self, good_ledger, capsys):
        assert main(["roofline", "--ledger", f"{good_ledger}:last"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_gate_malformed_baseline_exits_2(self, good_ledger, bad_ledger,
                                             capsys):
        assert main(["gate", "--current", good_ledger,
                     "--baseline", bad_ledger]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestGraphFileErrors:
    def test_truncated_graph_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "trunc.graph"
        path.write_text("3 2\n2\n")
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "info", str(path)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "expected 3 vertex lines" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def mesh_file(tmp_path_factory):
    """A 5000-vertex mesh: large enough that gp-metis keeps a GPU level."""
    from repro.graphs import generators, io as gio

    path = tmp_path_factory.mktemp("mesh") / "g.graph"
    gio.write_metis(generators.delaunay(5000, seed=1), path)
    return str(path)


@pytest.fixture
def grid_file(tmp_path):
    from repro.graphs import generators, io as gio

    path = tmp_path / "grid.graph"
    gio.write_metis(generators.grid2d(10, 10), path)
    return str(path)


class TestFaultsCommand:
    """Fault injection through ``partition``'s flags (there is no separate
    ``faults`` command)."""

    def test_self_check_passes(self, capsys):
        assert selfcheck.run_selfcheck((selfcheck.fault_checks,)) is True
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS faults: recovery off dies on an injected fault" in out

    def test_emit_plan_roundtrips(self, grid_file, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main(["partition", grid_file, "-k", "2", "--fault-seed", "5",
                     "--emit-plan", str(path)]) == 0
        plan = load_plan(path)
        assert plan == FaultPlan.from_seed(5)
        assert json.loads(path.read_text())["seed"] == 5
        assert f"wrote {path}" in capsys.readouterr().out

    def test_emit_plan_needs_a_plan(self, grid_file, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main(["partition", grid_file, "-k", "2",
                     "--emit-plan", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not path.exists()

    def test_plan_and_seed_mutually_exclusive(self, tmp_path, capsys):
        # Rejected before the graph file is read.
        missing = str(tmp_path / "nope.graph")
        assert main(["partition", missing, "--fault-plan", "full",
                     "--fault-seed", "2"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_bad_plan_file_exits_2(self, grid_file, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text("{broken")
        assert main(["partition", grid_file, "--fault-plan", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad fault plan")

    def test_run_reports_timeline_and_ledger(self, mesh_file, tmp_path,
                                             capsys):
        ledger = tmp_path / "runs.jsonl"
        assert main(["partition", mesh_file, "-k", "8", "--fault-seed", "1",
                     "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "fault plan (seed=1" in out
        assert "faults injected" in out
        assert "appended run" in out
        assert ledger.exists() and ledger.read_text().strip()

    def test_full_plan_recovers(self, mesh_file, capsys):
        assert main(["partition", mesh_file, "-k", "8",
                     "--fault-plan", "full"]) == 0
        out = capsys.readouterr().out
        specs = len(FaultPlan.full(1).specs)
        assert f"fault plan (seed=1, {specs} spec(s))" in out
        assert "degraded        : True" in out

    def test_no_recover_crashes_with_exit_1(self, mesh_file, capsys):
        # The exhaustive plan contains persistent transfer failures; with
        # recovery off the run must die on the injection.
        assert main(["partition", mesh_file, "-k", "8",
                     "--fault-plan", "full", "--no-recover"]) == 1
        err = capsys.readouterr().err
        assert "injected" in err

    def test_partition_command_accepts_fault_seed(self, mesh_file, capsys):
        assert main(["partition", mesh_file, "-k", "4", "--method",
                     "gp-metis", "--fault-seed", "3"]) == 0
        assert "fault" in capsys.readouterr().out.lower()

    def test_partition_fault_flags_mutually_exclusive(self, grid_file,
                                                      tmp_path, capsys):
        plan = tmp_path / "plan.json"
        FaultPlan.from_seed(1).dump(plan)
        assert main(["partition", grid_file, "-k", "2",
                     "--fault-plan", str(plan), "--fault-seed", "2"]) == 2
        assert capsys.readouterr().err.startswith("error:")
