"""Unit tests for the hybrid driver (thresholds, transfers, fallbacks)."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.gpmetis import GPMetis, GPMetisOptions, gpu_stop_size
from repro.graphs import validate_partition
from repro.graphs.generators import delaunay, grid2d
from repro.runtime.machine import PAPER_MACHINE


@pytest.fixture(scope="module")
def big_graph():
    return delaunay(9000, seed=7)


class TestOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"merge_strategy": "quick"},
            {"fuzz_schedules": 0},
            {"gpu_threshold_min": 1},
            {"cpu_threads": 0},
            {"ubfactor": 0.99},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidParameterError):
            GPMetisOptions(**kwargs)

    def test_threshold_policy(self):
        o = GPMetisOptions(gpu_threshold_min=4096, gpu_threshold_factor=64)
        assert o.gpu_threshold(16) == 4096
        assert o.gpu_threshold(1000) == 64_000
        assert gpu_stop_size(o, 64) >= o.coarsen_target(64)

    def test_mtmetis_options_inherit(self):
        o = GPMetisOptions(cpu_threads=4, ubfactor=1.05)
        m = o.mtmetis_options()
        assert m.num_threads == 4
        assert m.ubfactor == 1.05


class TestHybridExecution:
    def test_end_to_end_valid(self, big_graph):
        res = GPMetis().partition(big_graph, 16)
        validate_partition(big_graph, res.part, 16, ubfactor=1.031)

    def test_gpu_and_cpu_levels_split(self, big_graph):
        res = GPMetis(GPMetisOptions(gpu_threshold_min=2048)).partition(big_graph, 8)
        assert res.extras["gpu_levels"] >= 1
        assert res.extras["cpu_levels"] >= 1
        engines = {L.engine for L in res.trace.levels}
        assert engines == {"gpu", "cpu-threads"}

    def test_phase_ordering(self, big_graph):
        res = GPMetis().partition(big_graph, 8)
        phases = res.clock.seconds_by_phase()
        for p in ("transfer", "coarsening-gpu", "initpart", "uncoarsening-gpu"):
            assert p in phases, p

    def test_small_graph_goes_all_cpu(self):
        g = grid2d(20, 20)
        res = GPMetis().partition(g, 4)
        assert res.extras["gpu_levels"] == 0
        validate_partition(g, res.part, 4, ubfactor=1.05)

    def test_deterministic(self, big_graph):
        a = GPMetis(GPMetisOptions(seed=3)).partition(big_graph, 8)
        b = GPMetis(GPMetisOptions(seed=3)).partition(big_graph, 8)
        assert np.array_equal(a.part, b.part)

    def test_device_stats_exported(self, big_graph):
        res = GPMetis().partition(big_graph, 8)
        stats = res.extras["device_stats"]
        assert stats.total_launches > 0
        assert stats.h2d_bytes > 0
        assert "coalesce" in stats.report()


class TestMemoryFallbacks:
    def test_oom_on_input_falls_back_to_cpu(self, big_graph):
        machine = PAPER_MACHINE.scaled_gpu_memory(1024)  # 1 KiB GPU
        res = GPMetis(machine=machine).partition(big_graph, 8)
        assert res.extras["fell_back_to_cpu"]
        validate_partition(big_graph, res.part, 8, ubfactor=1.031)

    def test_oom_mid_coarsening_continues_on_cpu(self, big_graph):
        # Enough for the input + first level, not for the ladder.
        machine = PAPER_MACHINE.scaled_gpu_memory(int(big_graph.nbytes * 2.2))
        res = GPMetis(
            GPMetisOptions(merge_strategy="sort"), machine=machine
        ).partition(big_graph, 8)
        validate_partition(big_graph, res.part, 8, ubfactor=1.031)

    def test_transfer_time_counted(self, big_graph):
        res = GPMetis().partition(big_graph, 8)
        assert res.clock.seconds_for(phase="transfer") > 0
