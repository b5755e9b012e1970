"""Unit tests for the SLO monitor: policy validation, budget math,
window semantics, burn-down series and the CLI exit codes."""

import json
import math

import pytest

from repro.obs import (
    SLO_POLICY_SCHEMA,
    SchemaError,
    evaluate_slo,
    lane_burn_down,
    load_slo_policy,
    render_slo,
    slo_ok,
    validate_slo_policy,
)


def policy(*objectives, window=0):
    return {
        "schema": SLO_POLICY_SCHEMA,
        "window_drains": window,
        "objectives": list(objectives),
    }


def latency_obj(threshold, *, pct=95, lane=None, name="lat"):
    obj = {
        "name": name, "kind": "latency",
        "percentile": pct, "threshold_seconds": threshold,
    }
    if lane is not None:
        obj["lane"] = lane
    return obj


def drain_record(latencies, *, lanes=None, statuses=None, tag=0):
    entries = [
        {
            "latency": lat,
            "queue_wait": lat / 2.0,
            "lane": (lanes[i] if lanes else i % 3),
            "status": (statuses[i] if statuses else "served"),
        }
        for i, lat in enumerate(latencies)
    ]
    return {
        "config": {"engine": "service"},
        "run_id": f"drain{tag}",
        "requests": entries,
    }


def engine_record(*, cut=100.0, degraded=False, graph="g", k=4, seed=1):
    return {
        "config": {"engine": "gp-metis", "graph": graph, "k": k, "seed": seed},
        "quality": {"cut": cut, "imbalance": 1.01},
        "metrics": {"gauges": {"run.degraded": 1.0} if degraded else {}},
        "run": {},
    }


class TestPolicyValidation:
    def test_committed_policy_file_validates(self):
        validate_slo_policy(load_slo_policy("benchmarks/slo_policy.json"))

    def test_rejects_malformed_policies(self):
        with pytest.raises(SchemaError, match="schema"):
            validate_slo_policy({"objectives": [latency_obj(0.01)]})
        with pytest.raises(SchemaError, match="non-empty objectives"):
            validate_slo_policy(policy())
        with pytest.raises(SchemaError, match="percentile"):
            validate_slo_policy(policy(latency_obj(0.01, pct=100)))
        with pytest.raises(SchemaError, match="threshold_seconds"):
            validate_slo_policy(policy(latency_obj(0.0)))
        with pytest.raises(SchemaError, match="unknown keys"):
            validate_slo_policy(policy({**latency_obj(0.01), "typo": 1}))
        with pytest.raises(SchemaError, match="budget"):
            validate_slo_policy(
                policy({"name": "e", "kind": "error_rate", "budget": 1.0})
            )
        with pytest.raises(SchemaError, match="max_ratio and/or max_value"):
            validate_slo_policy(policy({"name": "q", "kind": "quality"}))
        with pytest.raises(SchemaError, match="window_drains"):
            validate_slo_policy(
                {**policy(latency_obj(0.01)), "window_drains": -1}
            )


class TestBudgetMath:
    def test_healthy_ledger_passes(self):
        records = [drain_record([0.001] * 20)]
        results = evaluate_slo(policy(latency_obj(0.01)), records)
        (r,) = results
        assert r.status == "OK" and r.ok
        assert r.events == 20 and r.bad == 0
        assert r.burn_rate == 0.0
        assert r.budget_remaining == 1.0
        assert slo_ok(results)

    def test_blown_budget_breaches(self):
        # p95 allows 5% bad; 4/20 = 20% bad -> burn rate 4.
        records = [drain_record([0.001] * 16 + [0.5] * 4)]
        (r,) = evaluate_slo(policy(latency_obj(0.01)), records)
        assert r.status == "BREACH" and not r.ok
        assert r.bad == 4
        assert r.burn_rate == pytest.approx(4.0)
        assert r.budget_remaining == 0.0
        assert not slo_ok([r])

    def test_bad_fraction_exactly_at_budget_holds(self):
        # 1/20 = 5% bad on a p95 objective: burn rate exactly 1.0 is OK.
        records = [drain_record([0.001] * 19 + [0.5])]
        (r,) = evaluate_slo(policy(latency_obj(0.01)), records)
        assert r.status == "OK"
        assert r.burn_rate == pytest.approx(1.0)

    def test_lane_filter(self):
        records = [
            drain_record([0.001, 0.5, 0.001], lanes=[0, 1, 0]),
        ]
        (r0,) = evaluate_slo(policy(latency_obj(0.01, lane=0)), records)
        (r1,) = evaluate_slo(policy(latency_obj(0.01, lane=1)), records)
        assert r0.events == 2 and r0.bad == 0 and r0.status == "OK"
        assert r1.events == 1 and r1.bad == 1 and r1.status == "BREACH"

    def test_queue_wait_kind_reads_queue_wait(self):
        # queue_wait is latency/2 in the builder: 0.008/2 over a 0.003
        # threshold -> bad.
        records = [drain_record([0.008] * 10)]
        obj = {
            "name": "qw", "kind": "queue_wait",
            "percentile": 95, "threshold_seconds": 0.003,
        }
        (r,) = evaluate_slo(policy(obj), records)
        assert r.bad == 10 and r.status == "BREACH"

    def test_error_rate_and_zero_budget_inf_burn(self):
        records = [
            drain_record([0.001] * 4, statuses=["served"] * 3 + ["failed"])
        ]
        (r,) = evaluate_slo(
            policy({"name": "err", "kind": "error_rate", "budget": 0.5}),
            records,
        )
        assert r.bad == 1 and r.status == "OK"
        (r0,) = evaluate_slo(
            policy({"name": "err", "kind": "error_rate", "budget": 0.0}),
            records,
        )
        assert math.isinf(r0.burn_rate) and r0.status == "BREACH"
        assert r0.budget_remaining == 0.0

    def test_no_data_window(self):
        (r,) = evaluate_slo(policy(latency_obj(0.01)), [engine_record()])
        assert r.status == "NO-DATA" and r.ok

    def test_degraded_rate_over_engine_records(self):
        records = [
            drain_record([0.001]),
            engine_record(seed=1),
            engine_record(seed=2, degraded=True),
        ]
        (r,) = evaluate_slo(
            policy({"name": "deg", "kind": "degraded_rate", "budget": 0.6}),
            records,
        )
        assert r.events == 2 and r.bad == 1 and r.status == "OK"


class TestWindow:
    def test_window_drains_limits_latency_pool(self):
        records = [
            drain_record([0.5] * 10, tag=0),   # old, terrible drain
            drain_record([0.001] * 10, tag=1),
        ]
        pol_all = policy(latency_obj(0.01))
        pol_last = policy(latency_obj(0.01), window=1)
        (r_all,) = evaluate_slo(pol_all, records)
        (r_last,) = evaluate_slo(pol_last, records)
        assert r_all.status == "BREACH" and r_all.events == 20
        assert r_last.status == "OK" and r_last.events == 10


class TestQuality:
    def _records(self, cut):
        return [engine_record(cut=cut)]

    def test_ratio_without_baseline_skipped(self):
        obj = {"name": "q", "kind": "quality", "metric": "cut", "max_ratio": 1.1}
        (r,) = evaluate_slo(policy(obj), self._records(100.0))
        assert r.status == "SKIPPED" and r.ok
        assert "baseline" in r.detail

    def test_ratio_against_baseline(self):
        obj = {"name": "q", "kind": "quality", "metric": "cut", "max_ratio": 1.1}
        base = self._records(100.0)
        (ok,) = evaluate_slo(
            policy(obj), self._records(105.0), baseline_records=base
        )
        (bad,) = evaluate_slo(
            policy(obj), self._records(120.0), baseline_records=base
        )
        assert ok.status == "OK"
        assert bad.status == "BREACH" and math.isinf(bad.burn_rate)

    def test_max_value_ceiling(self):
        obj = {"name": "q", "kind": "quality", "metric": "cut", "max_value": 110}
        (ok,) = evaluate_slo(policy(obj), self._records(100.0))
        (bad,) = evaluate_slo(policy(obj), self._records(200.0))
        assert ok.status == "OK"
        assert bad.status == "BREACH"


class TestRendering:
    def test_render_pass_and_fail(self):
        good = evaluate_slo(policy(latency_obj(0.01)), [drain_record([0.001])])
        text = render_slo(good, window=5)
        assert "PASS" in text and "last 5 drains" in text
        bad = evaluate_slo(policy(latency_obj(0.0001)), [drain_record([0.5])])
        assert "FAIL" in render_slo(bad)
        assert "inf" in render_slo(
            evaluate_slo(
                policy({"name": "e", "kind": "error_rate", "budget": 0.0}),
                [drain_record([0.001], statuses=["failed"])],
            )
        )


class TestBurnDown:
    def test_cumulative_series_per_drain(self):
        records = [
            drain_record([0.001] * 10, tag=0),
            drain_record([0.001] * 9 + [0.5], tag=1),
        ]
        (series,) = lane_burn_down(policy(latency_obj(0.01)), records)
        assert series["kind"] == "latency"
        assert [p["run_id"] for p in series["points"]] == ["drain0", "drain1"]
        p0, p1 = series["points"]
        assert p0["events"] == 10 and p0["bad"] == 0
        assert p0["budget_remaining"] == 1.0
        assert p1["events"] == 20 and p1["bad"] == 1
        assert p1["burn_rate"] == pytest.approx(1.0)

    def test_only_latency_kinds_get_series(self):
        pol = policy(
            latency_obj(0.01),
            {"name": "err", "kind": "error_rate", "budget": 0.1},
        )
        series = lane_burn_down(pol, [drain_record([0.001])])
        assert len(series) == 1


class TestDeterminism:
    def test_same_ledger_same_results(self):
        records = [
            drain_record([0.001, 0.02, 0.003] * 5, tag=0),
            engine_record(),
        ]
        pol = policy(latency_obj(0.01), latency_obj(0.01, lane=1, name="l1"))
        assert evaluate_slo(pol, records) == evaluate_slo(pol, records)
        assert lane_burn_down(pol, records) == lane_burn_down(pol, records)


class TestCliSlo:
    def _write_ledger(self, path, records):
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")

    def _service_ledger_record(self, latencies):
        # A schema-valid drain record: a hand-driven service profiler
        # with the synthetic requests section riding along.
        from repro.obs import Profiler, ledger_record
        from repro.runtime.clock import SimClock

        clock = SimClock()
        prof = Profiler(clock, engine="service", graph="-", k=0)
        clock.charge("sync", sum(latencies))
        prof.finish(served=len(latencies))
        return ledger_record(
            prof, sections={"requests": drain_record(latencies)["requests"]}
        )

    def _policy_file(self, path, threshold):
        with open(path, "w") as fh:
            json.dump(policy(latency_obj(threshold)), fh)

    def test_exit_zero_on_healthy_ledger(self, tmp_path, capsys):
        from repro.cli import main

        ledger = tmp_path / "ledger.jsonl"
        pol = tmp_path / "slo.json"
        out = tmp_path / "slo_report.json"
        self._write_ledger(ledger, [self._service_ledger_record([0.001] * 10)])
        self._policy_file(pol, 0.01)
        rc = main([
            "slo", str(ledger), "--policy", str(pol), "--json", str(out),
        ])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert doc["objectives"][0]["status"] == "OK"

    def test_exit_one_on_blown_budget(self, tmp_path, capsys):
        from repro.cli import main

        ledger = tmp_path / "ledger.jsonl"
        pol = tmp_path / "slo.json"
        self._write_ledger(
            ledger,
            [self._service_ledger_record([0.001] * 5 + [0.5] * 5)],
        )
        self._policy_file(pol, 0.01)
        rc = main(["slo", str(ledger), "--policy", str(pol)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_committed_ledger_meets_policy(self, capsys):
        from repro.cli import main

        # Baselined against itself, so the quality ratios evaluate to 1.
        ledger = "benchmarks/BENCH_ledger.jsonl"
        rc = main(["slo", ledger, "--policy", "benchmarks/slo_policy.json",
                   "--baseline", ledger])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_bad_policy_exit_two(self, tmp_path, capsys):
        from repro.cli import main

        ledger = tmp_path / "ledger.jsonl"
        pol = tmp_path / "slo.json"
        self._write_ledger(ledger, [self._service_ledger_record([0.001])])
        pol.write_text(json.dumps({"schema": "nope", "objectives": []}))
        rc = main(["slo", str(ledger), "--policy", str(pol)])
        assert rc == 2
        assert "bad policy" in capsys.readouterr().err
