"""Unit tests for GGGP, FM refinement, and recursive bisection."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, PartitioningError
from repro.graphs import edge_cut, from_edges, imbalance
from repro.graphs.generators import complete_graph, grid2d, path_graph, star_graph
from repro.serial.bisection import recursive_bisection
from repro.serial.fm import bisection_gains, fm_refine_bisection
from repro.serial.gggp import gggp_bisect, grow_region
from repro.serial.options import SerialOptions


class TestGrowRegion:
    def test_reaches_target_weight(self, grid):
        part = grow_region(grid, 0, grid.total_vertex_weight // 2)
        w1 = int(grid.vwgt[part == 1].sum())
        assert w1 >= grid.total_vertex_weight // 2

    def test_region_connected_on_grid(self, grid):
        part = grow_region(grid, 0, grid.total_vertex_weight // 2)
        sub, _ = grid.subgraph(np.where(part == 1)[0])
        assert len(set(sub.connected_components().tolist())) == 1

    def test_disconnected_graph_restarts(self):
        g = from_edges(6, [(0, 1), (2, 3), (4, 5)])
        part = grow_region(g, 0, 4)
        assert int((part == 1).sum()) >= 4

    def test_negative_seed_vertex_rejected(self):
        with pytest.raises(InvalidParameterError, match="seed_vertex"):
            grow_region(path_graph(6), -1, 3)

    def test_seed_vertex_past_last_rejected(self):
        with pytest.raises(InvalidParameterError, match="seed_vertex"):
            grow_region(path_graph(6), 6, 3)


class TestGggp:
    def test_grid_bisection_quality(self):
        g = grid2d(10, 10)
        part = gggp_bisect(g, trials=4, rng=np.random.default_rng(0))
        # A decent bisection of a 10x10 grid cuts close to 10 edges.
        assert edge_cut(g, part) <= 20

    def test_fraction_respected(self, grid):
        part = gggp_bisect(g := grid, fraction=0.25, rng=np.random.default_rng(0))
        w1 = int(g.vwgt[part == 1].sum())
        assert abs(w1 - 0.25 * g.total_vertex_weight) <= 0.1 * g.total_vertex_weight

    def test_more_trials_no_worse(self, medium_graph):
        rng1 = np.random.default_rng(5)
        rng8 = np.random.default_rng(5)
        one = edge_cut(medium_graph, gggp_bisect(medium_graph, trials=1, rng=rng1))
        eight = edge_cut(medium_graph, gggp_bisect(medium_graph, trials=8, rng=rng8))
        assert eight <= one

    def test_empty_graph(self):
        part = gggp_bisect(from_edges(0, []))
        assert part.size == 0


class TestFm:
    def test_never_worsens_cut(self, medium_graph):
        rng = np.random.default_rng(0)
        part = rng.integers(0, 2, medium_graph.num_vertices)
        before = edge_cut(medium_graph, part)
        total = medium_graph.total_vertex_weight
        res = fm_refine_bisection(medium_graph, part, (total // 2, total - total // 2))
        assert res.cut <= before
        assert edge_cut(medium_graph, res.part) == res.cut

    def test_respects_balance(self, medium_graph):
        rng = np.random.default_rng(1)
        part = rng.integers(0, 2, medium_graph.num_vertices)
        total = medium_graph.total_vertex_weight
        res = fm_refine_bisection(
            medium_graph, part, (total // 2, total - total // 2), ubfactor=1.05
        )
        w1 = int(medium_graph.vwgt[res.part == 1].sum())
        assert w1 <= 1.06 * (total - total // 2)

    def test_improves_bad_grid_split(self):
        g = grid2d(8, 8)
        # Checkerboard: terrible cut; FM should improve it a lot.  The
        # tolerance must exceed one vertex's share (1/32 > 3%) or every
        # move is balance-blocked at this granularity.
        part = (np.arange(64) + np.arange(64) // 8) % 2
        before = edge_cut(g, part)
        res = fm_refine_bisection(g, part, (32, 32), ubfactor=1.1, max_passes=8)
        assert res.cut < before / 2

    def test_tight_tolerance_blocks_all_moves_at_coarse_granularity(self):
        g = grid2d(8, 8)
        part = (np.arange(64) + np.arange(64) // 8) % 2
        res = fm_refine_bisection(g, part, (32, 32), ubfactor=1.03, max_passes=8)
        # One vertex is 3.1% of a side: nothing can move under 3%.
        assert res.moves_committed == 0

    def test_gains_definition(self, tiny_graph):
        part = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        gains = bisection_gains(tiny_graph, part)
        # Vertex 0: external w=2 (to 4), internal w=5+1 -> gain -4.
        assert gains[0] == 2 - 6

    def test_input_not_mutated(self, medium_graph):
        part = np.zeros(medium_graph.num_vertices, dtype=np.int64)
        part[: medium_graph.num_vertices // 2] = 1
        snapshot = part.copy()
        fm_refine_bisection(medium_graph, part, (1, 1))
        assert np.array_equal(part, snapshot)

    def test_part_of_wrong_length_rejected(self):
        with pytest.raises(InvalidParameterError, match="part has shape"):
            fm_refine_bisection(path_graph(6), np.array([0, 0, 1, 1, 1]), (3, 3))

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_outside_bisection_rejected(self, label):
        part = np.array([0, 0, 0, 1, 1, label])
        with pytest.raises(InvalidParameterError, match="0 or 1"):
            fm_refine_bisection(path_graph(6), part, (3, 3))

    def test_pinned_of_wrong_length_rejected(self):
        part = np.array([0, 0, 0, 1, 1, 1])
        with pytest.raises(InvalidParameterError, match="pinned has shape"):
            fm_refine_bisection(path_graph(6), part, (3, 3), pinned=np.zeros(5, bool))


class TestRecursiveBisection:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
    def test_k_parts_produced(self, medium_graph, k):
        part = recursive_bisection(medium_graph, k, SerialOptions())
        assert part.min() == 0
        assert part.max() == k - 1
        assert len(np.unique(part)) == k

    def test_balance_within_tolerance(self, medium_graph):
        part = recursive_bisection(medium_graph, 8, SerialOptions())
        assert imbalance(medium_graph, part, 8) <= 1.1

    def test_invalid_k(self, grid):
        with pytest.raises(PartitioningError):
            recursive_bisection(grid, 0, SerialOptions())

    def test_k_larger_than_n(self):
        g = path_graph(5)
        part = recursive_bisection(g, 8, SerialOptions())
        assert part.max() < 8

    def test_star_graph_degenerate(self):
        g = star_graph(16)
        part = recursive_bisection(g, 4, SerialOptions())
        assert len(np.unique(part)) == 4

    def test_complete_graph(self):
        g = complete_graph(12)
        part = recursive_bisection(g, 3, SerialOptions())
        assert np.bincount(part, minlength=3).tolist() == [4, 4, 4]
