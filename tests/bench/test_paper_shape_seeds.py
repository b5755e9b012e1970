"""The paper's Sec. IV claims at its own settings, over several seeds.

Each seed builds the four dataset analogues at their default scales and
runs the four paper engines at k = 64 and 3 % imbalance; every
:func:`repro.bench.check_paper_shape` claim must hold.  About 15 s per
seed, so bench-marked: ``make bench`` runs it, and so does CI.
"""

import pytest

from repro.bench import ExperimentConfig, check_paper_shape, run_experiment


@pytest.mark.bench
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_paper_claim_holds(seed):
    checks = check_paper_shape(run_experiment(ExperimentConfig(seed=seed)))
    assert checks
    failed = [f"{c.claim} ({c.detail})" for c in checks if not c.holds]
    assert not failed, f"seed {seed}: " + "; ".join(failed)
