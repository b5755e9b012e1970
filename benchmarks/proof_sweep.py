"""The proof sweep: every engine's partition vector and modeled seconds.

Run ``PYTHONPATH=src python benchmarks/proof_sweep.py`` to regenerate
``benchmarks/proof_sweep.json``.  The sweep partitions the delaunay,
ldoor and usa_roads analogues at scale 0.005 with all ten engines, at
k in {2, 7, 64} and seeds {1, 2} (180 runs, a few minutes), and records
for each ``engine/dataset/k/seed`` the sha256 of the partition vector
(labels as int64) and ``repr`` of the modeled seconds.

``tests/bench/test_proof_sweep.py`` (``make bench``) reruns the sweep
against the committed manifest, so a change that claims byte-identical
partitions is checked, not asserted.  A change that moves partitions or
modeled seconds on purpose reruns this script and lists the entries it
prints as moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import repro
from repro.graphs import load_dataset

MANIFEST = Path(__file__).with_name("proof_sweep.json")
DATASETS = ("delaunay", "ldoor", "usa_roads")
SCALE = 0.005
KS = (2, 7, 64)
SEEDS = (1, 2)


def sweep() -> dict[str, dict[str, str]]:
    """Run the sweep; ``engine/dataset/k/seed`` -> vector sha256 and modeled seconds."""
    out = {}
    for dataset in DATASETS:
        for seed in SEEDS:
            graph = load_dataset(dataset, scale=SCALE, seed=seed)
            for method in repro.api.PARTITIONERS:
                for k in KS:
                    result = repro.partition(graph, k, method=method, seed=seed)
                    labels = np.ascontiguousarray(result.part, dtype=np.int64)
                    out[f"{method}/{dataset}/{k}/{seed}"] = {
                        "sha256": hashlib.sha256(labels.tobytes()).hexdigest(),
                        "modeled_seconds": repr(result.modeled_seconds),
                    }
    return out


def moved(expected: dict, actual: dict) -> list[str]:
    """The keys whose entry differs, or that only one side has."""
    return sorted(key for key in expected.keys() | actual.keys()
                  if expected.get(key) != actual.get(key))


def main() -> None:
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    new = sweep()
    MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    changed = moved(old, new) if old else []
    print(f"wrote {len(new)} runs to {MANIFEST}; {len(changed)} moved")
    for key in changed:
        print(f"  moved: {key}")


if __name__ == "__main__":
    main()
