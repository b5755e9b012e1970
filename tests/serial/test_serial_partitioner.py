"""Unit tests for the end-to-end serial partitioner and its options."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graphs import validate_partition
from repro.graphs.generators import delaunay, grid2d
from repro.serial import SerialMetis, SerialOptions
from repro.serial.coarsen import coarsen_graph


class TestOptions:
    def test_defaults_are_paper_setup(self):
        o = SerialOptions()
        assert o.ubfactor == 1.03
        assert o.matching == "hem"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ubfactor": 0.9},
            {"matching": "xyz"},
            {"coarsen_min": 1},
        ],
    )
    def test_invalid_options(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SerialOptions(**kwargs)

    def test_coarsen_target(self):
        assert SerialOptions().coarsen_target(64) == 1280
        assert SerialOptions().coarsen_target(1) == 64


class TestCoarsening:
    def test_levels_shrink(self, medium_graph):
        levels, coarsest = coarsen_graph(medium_graph, 4, SerialOptions())
        sizes = [L.graph.num_vertices for L in levels] + [coarsest.num_vertices]
        assert sizes == sorted(sizes, reverse=True)
        assert coarsest.num_vertices < medium_graph.num_vertices

    def test_reaches_target(self):
        g = delaunay(3000, seed=1)
        opts = SerialOptions()
        _, coarsest = coarsen_graph(g, 4, opts)
        # Within one halving of the target (the last level can overshoot).
        assert coarsest.num_vertices <= 2 * opts.coarsen_target(4)

    def test_vertex_weight_conserved_down_ladder(self, medium_graph):
        levels, coarsest = coarsen_graph(medium_graph, 4, SerialOptions())
        for L in levels:
            assert L.graph.total_vertex_weight == medium_graph.total_vertex_weight
        assert coarsest.total_vertex_weight == medium_graph.total_vertex_weight

    def test_small_graph_no_levels(self):
        g = grid2d(4, 4)
        levels, coarsest = coarsen_graph(g, 4, SerialOptions(coarsen_min=64))
        assert levels == []
        assert coarsest.num_vertices == 16


class TestPartitioner:
    @pytest.mark.parametrize("k", [2, 7, 16])
    def test_valid_balanced_output(self, medium_graph, k):
        res = SerialMetis().partition(medium_graph, k)
        validate_partition(medium_graph, res.part, k, ubfactor=1.031)

    def test_k1_trivial(self, grid):
        res = SerialMetis().partition(grid, 1)
        assert np.all(res.part == 0)

    def test_deterministic_given_seed(self, medium_graph):
        a = SerialMetis(SerialOptions(seed=9)).partition(medium_graph, 8)
        b = SerialMetis(SerialOptions(seed=9)).partition(medium_graph, 8)
        assert np.array_equal(a.part, b.part)
        assert a.modeled_seconds == b.modeled_seconds

    def test_clock_has_three_phases(self, medium_graph):
        res = SerialMetis().partition(medium_graph, 8)
        phases = res.clock.seconds_by_phase()
        assert set(phases) == {"coarsening", "initpart", "uncoarsening"}
        assert all(v > 0 for v in phases.values())

    def test_trace_records_levels_and_refinements(self, medium_graph):
        res = SerialMetis().partition(medium_graph, 8)
        assert res.trace.num_levels >= 1
        assert len(res.trace.refinements) >= res.trace.num_levels

    def test_quality_reasonable_on_grid(self):
        g = grid2d(16, 16)
        res = SerialMetis().partition(g, 4)
        # 4-way split of a 16x16 grid: a good cut is ~32; allow slack.
        assert res.quality(g).cut <= 60

    def test_summary_text(self, grid):
        res = SerialMetis().partition(grid, 4)
        s = res.summary(grid)
        assert "metis" in s and "cut=" in s
