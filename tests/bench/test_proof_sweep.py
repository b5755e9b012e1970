"""The proof sweep: partitions and modeled seconds match the manifest.

``benchmarks/proof_sweep.py`` partitions three dataset analogues with all
ten engines at k in {2, 7, 64} and seeds {1, 2}, and
``benchmarks/proof_sweep.json`` holds each run's partition-vector sha256
and ``repr`` of its modeled seconds.  A change that keeps partitions and
modeled seconds byte-identical passes unchanged; one that moves them on
purpose regenerates the manifest with that script.  180 runs, a few
minutes, so bench-marked: ``make bench`` runs it, and so does CI.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "proof_sweep.py"


def _load_sweep():
    spec = importlib.util.spec_from_file_location("proof_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.bench
def test_every_run_matches_the_manifest():
    sweep = _load_sweep()
    expected = json.loads(sweep.MANIFEST.read_text())
    assert len(expected) == 180
    moved = sweep.moved(expected, sweep.sweep())
    assert not moved, f"{len(moved)} of 180 runs moved: " + ", ".join(moved)
