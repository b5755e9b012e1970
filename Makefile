PYTHON ?= python
export PYTHONPATH := src

.PHONY: check tier1 selfcheck gate report fuzz faults bench examples test

# The gate: tier-1 suite + the one self-check of the design + the
# policy-driven perf-regression gate on the committed ledger.
check: tier1 selfcheck gate

# Tier-1: the fast suite (fuzz/bench-marked tests excluded via pyproject).
tier1:
	$(PYTHON) -m pytest -x -q

# The self-check (repro.selfcheck): the gate workload's records, exports,
# roofline and async-streams on/off identity, the verified 100-request
# service load, the race sanitizer (clean run + planted race) and the
# fault storm (recovery on + off).  One PASS/FAIL line per check.
selfcheck:
	$(PYTHON) -m repro selfcheck

# Perf-regression gate: fresh runs of the gate workload (repro.obs.gate) vs the
# committed baseline ledger, under the multi-metric tolerance policy.
# After an intentional perf change: `python -m repro gate --baseline
# benchmarks/BENCH_ledger.jsonl --policy benchmarks/gate_policy.json --update`
# and commit the rewritten ledger with the PR that moved it.
gate:
	$(PYTHON) -m repro gate --baseline benchmarks/BENCH_ledger.jsonl \
		--policy benchmarks/gate_policy.json

# Render the committed baseline ledger as a self-contained HTML report.
report:
	$(PYTHON) -m repro report --ledger benchmarks/BENCH_ledger.jsonl -o report.html

# Long adversarial-schedule sweeps (not part of tier-1).
fuzz:
	$(PYTHON) -m pytest -q -m fuzz

# Differential fault matrix: plans x engines (faults-marked, not tier-1).
faults:
	$(PYTHON) -m pytest -q -m faults

# Slow end-to-end benchmark tests (bench-marked, not part of tier-1; CI
# runs them): the paper's Sec. IV claims on seeds 1-3, the gate
# workload's determinism, and the 180-run proof sweep against
# benchmarks/proof_sweep.json (regenerate it with
# `python benchmarks/proof_sweep.py` when partitions move on purpose).
bench:
	$(PYTHON) -m pytest -q -m bench

# Run every documented example script; the first non-zero exit fails
# the target (not part of `check`, which it would slow down).
examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null; \
	done

test: check
