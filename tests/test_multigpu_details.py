"""Detail tests: misc coverage gaps in the benchmark harness's bench-scale views."""

import pytest

from repro.bench import ExperimentConfig, fig5_series, run_experiment


class TestBenchScaleSeries:
    @pytest.fixture(scope="class")
    def mini(self):
        cfg = ExperimentConfig(
            k=8, datasets=("hugebubble",), scales={"hugebubble": 0.0004}
        )
        return run_experiment(cfg)

    def test_bench_scale_fig5(self, mini):
        """fig5_series supports the un-extrapolated view too."""
        bench = fig5_series(mini, paper_scale=False)
        paper = fig5_series(mini, paper_scale=True)
        assert set(bench) == set(paper)
        for m in bench:
            assert bench[m]["hugebubble"] > 0

    def test_speedup_accessor_modes(self, mini):
        a = mini.speedup("hugebubble", "mt-metis", paper_scale=False)
        b = mini.speedup("hugebubble", "mt-metis", paper_scale=True)
        assert a > 0 and b > 0
