"""Unit tests for the mt-metis driver."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graphs import validate_partition
from repro.graphs.generators import delaunay
from repro.mtmetis import MtMetis, MtMetisOptions
from repro.mtmetis.initpart import parallel_recursive_bisection
from repro.serial import SerialMetis, SerialOptions


class TestOptions:
    def test_paper_defaults(self):
        o = MtMetisOptions()
        assert o.num_threads == 8
        assert o.ubfactor == 1.03

    @pytest.mark.parametrize(
        "kwargs", [{"num_threads": 0}, {"ubfactor": 0.5}, {"matching": "zzz"},
                   {"refine_passes": 0}]
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidParameterError):
            MtMetisOptions(**kwargs)

    def test_serial_options_propagate(self):
        o = MtMetisOptions(ubfactor=1.07, matching="rm")
        s = o.serial_options()
        assert s.ubfactor == 1.07
        assert s.matching == "rm"


class TestParallelRB:
    def test_quality_not_worse_than_serial(self, medium_graph):
        opts = SerialOptions()
        rng = np.random.default_rng(2)
        part8, _ = parallel_recursive_bisection(medium_graph, 8, 8, opts, rng)
        validate_partition(medium_graph, part8, 8)

    def test_critical_work_smaller_with_threads(self, medium_graph):
        opts = SerialOptions()
        _, w1 = parallel_recursive_bisection(
            medium_graph, 8, 1, opts, np.random.default_rng(1)
        )
        _, w8 = parallel_recursive_bisection(
            medium_graph, 8, 8, opts, np.random.default_rng(1)
        )
        assert w8 < w1

    def test_k1(self, grid):
        part, w = parallel_recursive_bisection(
            grid, 1, 4, SerialOptions(), np.random.default_rng(0)
        )
        assert np.all(part == 0)
        assert w == 0.0


class TestDriver:
    @pytest.mark.parametrize("k", [2, 8, 16])
    def test_valid_balanced(self, medium_graph, k):
        res = MtMetis().partition(medium_graph, k)
        validate_partition(medium_graph, res.part, k, ubfactor=1.031)

    def test_deterministic(self, medium_graph):
        a = MtMetis(MtMetisOptions(seed=3)).partition(medium_graph, 8)
        b = MtMetis(MtMetisOptions(seed=3)).partition(medium_graph, 8)
        assert np.array_equal(a.part, b.part)

    def test_speedup_over_serial(self):
        g = delaunay(4000, seed=2)
        rs = SerialMetis().partition(g, 16)
        rm = MtMetis().partition(g, 16)
        assert rm.modeled_seconds < rs.modeled_seconds

    def test_more_threads_faster_model(self):
        g = delaunay(3000, seed=2)
        t2 = MtMetis(MtMetisOptions(num_threads=2)).partition(g, 8).modeled_seconds
        t8 = MtMetis(MtMetisOptions(num_threads=8)).partition(g, 8).modeled_seconds
        assert t8 < t2

    def test_trace_engine_labels(self, medium_graph):
        res = MtMetis().partition(medium_graph, 8)
        assert all(L.engine == "cpu-threads" for L in res.trace.levels)
        assert res.extras["num_threads"] == 8

    def test_quality_close_to_serial(self):
        g = delaunay(3000, seed=5)
        cs = SerialMetis().partition(g, 16).quality(g).cut
        cm = MtMetis().partition(g, 16).quality(g).cut
        assert cm <= 1.3 * cs
