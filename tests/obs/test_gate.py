"""Unit tests for the policy-driven regression gate."""

import json

import pytest

from repro.obs import (
    DEFAULT_POLICY,
    SchemaError,
    evaluate_gate,
    render_gate,
    validate_gate_policy,
)
from repro.obs.gate import load_policy, match_key, resolve_quantity

from .conftest import build_record


def policy(*rules):
    return {"schema": "repro.obs.gate-policy/1", "rules": list(rules)}


class TestPolicy:
    def test_default_policy_validates(self):
        validate_gate_policy(DEFAULT_POLICY)

    def test_committed_policy_file_validates(self):
        validate_gate_policy(load_policy("benchmarks/gate_policy.json"))

    def test_rejects_bad_quantity_and_keys(self):
        with pytest.raises(SchemaError):
            validate_gate_policy(policy({"quantity": "banana", "tolerance": 0.1}))
        with pytest.raises(SchemaError):
            validate_gate_policy(
                policy({"quantity": "total", "tolerance": 0.1, "unexpected": 1})
            )
        with pytest.raises(SchemaError):
            validate_gate_policy(policy({"quantity": "total", "tolerance": -0.1}))
        with pytest.raises(SchemaError):
            validate_gate_policy(
                policy({"quantity": "total", "tolerance": 0.1, "direction": "up"})
            )


class TestResolve:
    def test_each_quantity_kind(self):
        record = build_record(
            {"coarsening": 1.0, "uncoarsening": 2.0}, cut=123.0, imbalance=1.03
        )
        record["metrics"]["counters"]["transfer.h2d_bytes"] = 4096
        assert resolve_quantity(record, "total") == pytest.approx(3.0)
        assert resolve_quantity(record, "cut") == 123.0
        assert resolve_quantity(record, "imbalance") == 1.03
        assert resolve_quantity(record, "phase:coarsening") == pytest.approx(1.0)
        assert resolve_quantity(record, "metric:transfer.h2d_bytes") == 4096
        assert resolve_quantity(record, "phase:nonexistent") is None
        assert resolve_quantity(record, "metric:never.recorded") is None


class TestEvaluate:
    def test_identical_runs_pass(self):
        base = [build_record({"coarsening": 1.0, "uncoarsening": 2.0})]
        violations, checks, notes = evaluate_gate(DEFAULT_POLICY, base, base)
        assert violations == []
        assert checks > 0
        assert notes == []

    def test_phase_regression_caught(self):
        base = [build_record({"coarsening": 1.0, "uncoarsening": 2.0})]
        cur = [build_record({"coarsening": 1.0, "uncoarsening": 2.5})]
        pol = policy({"quantity": "phase:*", "tolerance": 0.1, "floor": 1e-6})
        violations, checks, _ = evaluate_gate(pol, base, cur)
        assert len(violations) == 1
        assert violations[0].quantity == "phase:uncoarsening"
        assert "REGRESSED" in render_gate(violations, checks, [])
        assert "FAIL" in render_gate(violations, checks, [])

    def test_within_tolerance_passes(self):
        base = [build_record({"coarsening": 1.0})]
        cur = [build_record({"coarsening": 1.05})]
        pol = policy({"quantity": "phase:*", "tolerance": 0.1, "floor": 1e-6})
        violations, checks, _ = evaluate_gate(pol, base, cur)
        assert violations == []
        assert "PASS" in render_gate(violations, checks, [])

    def test_floor_suppresses_tiny_absolute_moves(self):
        base = [build_record({"coarsening": 0.001})]
        cur = [build_record({"coarsening": 0.0015})]  # +50% but only +0.5 ms
        pol = policy({"quantity": "phase:*", "tolerance": 0.1, "floor": 0.01})
        violations, _, _ = evaluate_gate(pol, base, cur)
        assert violations == []

    def test_decrease_direction(self):
        base = [build_record({"coarsening": 1.0})]
        base[0]["metrics"]["gauges"]["kernel.coalescing_efficiency"] = 0.9
        cur = [build_record({"coarsening": 1.0})]
        cur[0]["metrics"]["gauges"]["kernel.coalescing_efficiency"] = 0.6
        pol = policy(
            {
                "quantity": "metric:kernel.coalescing_efficiency",
                "tolerance": 0.05,
                "direction": "decrease",
            }
        )
        violations, _, _ = evaluate_gate(pol, base, cur)
        assert len(violations) == 1
        assert violations[0].direction == "decrease"
        # An *increase* in coalescing is an improvement, not a violation.
        violations, _, _ = evaluate_gate(pol, cur, base)
        assert violations == []

    def test_quality_regression_caught(self):
        base = [build_record({"coarsening": 1.0}, cut=100.0)]
        cur = [build_record({"coarsening": 1.0}, cut=120.0)]
        pol = policy({"quantity": "cut", "tolerance": 0.05})
        violations, _, _ = evaluate_gate(pol, base, cur)
        assert len(violations) == 1
        assert violations[0].quantity == "cut"

    def test_unmatched_baseline_noted(self):
        base = [build_record({"coarsening": 1.0}, engine="gp-metis")]
        cur = [build_record({"coarsening": 1.0}, engine="mt-metis")]
        _, _, notes = evaluate_gate(DEFAULT_POLICY, base, cur)
        assert any("unmatched" in n for n in notes)

    def test_fingerprint_drift_noted(self):
        base = [build_record({"coarsening": 1.0}, options_hash="aaaa")]
        cur = [build_record({"coarsening": 1.0}, options_hash="bbbb")]
        _, checks, notes = evaluate_gate(DEFAULT_POLICY, base, cur)
        assert checks > 0  # drift is a note, not a silent skip
        assert any("fingerprint" in n for n in notes)

    def test_latest_record_per_config_wins(self):
        old = build_record({"coarsening": 5.0})
        new = build_record({"coarsening": 1.0})
        cur = [build_record({"coarsening": 1.0})]
        pol = policy({"quantity": "total", "tolerance": 0.1})
        violations, _, _ = evaluate_gate(pol, [old, new], cur)
        assert violations == []

    def test_match_key_fields(self):
        record = build_record({"coarsening": 1.0}, engine="e", graph="g", k=7, seed=9)
        assert match_key(record) == ("e", "g", 7, 9)

    def test_histogram_summary_stat_resolved(self):
        record = build_record({"coarsening": 1.0})
        record["metrics"]["histograms"]["service.latency"] = {
            "count": 3, "sum": 5.5, "min": 1.0, "max": 3.0,
            "mean": 1.5, "p50": 1.0, "p95": 2.0, "p99": 3.0,
        }
        assert resolve_quantity(record, "metric:service.latency#p99") == 3.0
        assert resolve_quantity(record, "metric:service.latency#mean") == 1.5
        assert resolve_quantity(record, "metric:service.latency#count") == 3

    def test_null_metric_warns_and_skips(self):
        # Regression: a gauge recorded as literal None (an empty drain's
        # latency percentile) used to crash the float() comparison; it
        # must WARN-skip the rule and gate the rest.
        base = [build_record({"coarsening": 1.0})]
        cur = [build_record({"coarsening": 1.0})]
        base[0]["metrics"]["gauges"]["service.latency_p99"] = 0.5
        cur[0]["metrics"]["gauges"]["service.latency_p99"] = None
        pol = policy(
            {"quantity": "metric:service.latency_p99", "tolerance": 0.1},
            {"quantity": "total", "tolerance": 0.1},
        )
        violations, checks, notes = evaluate_gate(pol, base, cur)
        assert violations == []
        assert checks == 1  # total still gated
        assert any("WARN" in n and "rule skipped" in n for n in notes)

    def test_rule_absent_on_both_sides_is_silent(self):
        # A service.* rule against an engine record is a non-match, not
        # a warning: the rule simply does not apply to that pair.
        base = [build_record({"coarsening": 1.0})]
        pol = policy({"quantity": "metric:service.never_there", "tolerance": 0.1})
        violations, checks, notes = evaluate_gate(pol, base, base)
        assert violations == []
        assert checks == 0
        assert notes == []


class TestCliGate:
    def test_tampered_baseline_fails_gate(self, tmp_path, capsys):
        """End-to-end: the committed ledger + policy, one phase made faster
        in the baseline so the live run looks regressed."""
        from repro.cli import main

        records = []
        with open("benchmarks/BENCH_ledger.jsonl") as fh:
            for line in fh:
                records.append(json.loads(line))
        for record in records:
            phase = next(iter(record["phases"]))
            record["phases"][phase]["seconds"] *= 0.5
        tampered = tmp_path / "ledger.jsonl"
        with open(tampered, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        rc = main(
            [
                "gate",
                "--baseline", str(tampered),
                "--policy", "benchmarks/gate_policy.json",
            ]
        )
        assert rc == 1
        # The live workload must still be the one the ledger recorded:
        # every baseline run matched, with its configuration unchanged.
        out = capsys.readouterr().out
        assert "config fingerprint changed" not in out
        assert "baseline unmatched" not in out


@pytest.mark.bench
class TestCollectWorkload:
    """Full gate-workload collection twice — slow, excluded from tier-1
    (make bench)."""

    def test_collect_is_deterministic(self):
        from repro.obs import collect_workload_records

        def strip(records):
            return [{k: v for k, v in r.items() if k != "written_at"}
                    for r in records]

        first = strip(collect_workload_records())
        assert first == strip(collect_workload_records())
        # The gate joins on match_key; a shared key would hide a run.
        assert len({match_key(r) for r in first}) == len(first)
