"""Unit tests for greedy k-way refinement and rebalancing."""

import numpy as np
import pytest

from repro.graphs import edge_cut, from_edges, imbalance
from repro.graphs.generators import grid2d
from repro.serial.kway import (
    kway_connectivity,
    kway_refine,
    kway_refine_pass,
    rebalance_pass,
)


class TestConnectivity:
    def test_pair_values(self, tiny_graph):
        part = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        _, rows, parts, weights = kway_connectivity(tiny_graph, part, 2, np.array([0]))
        # Vertex 0: w=5 to 1 (part 0), w=1 to 3 (part 0), w=2 to 4 (part 1).
        assert (rows.tolist(), parts.tolist(), weights.tolist()) == ([0, 0], [0, 1], [6, 2])

    def test_isolated_vertex_has_no_pairs(self):
        g = from_edges(3, [(0, 1)])
        _, *pairs = kway_connectivity(g, np.zeros(3, dtype=np.int64), 2, np.array([2]))
        assert [a.size for a in pairs] == [0, 0, 0]

    @pytest.mark.parametrize("k", [4, 1000])
    def test_sorted_by_row_then_partition(self, medium_graph, k):
        part = np.arange(medium_graph.num_vertices) % k
        vertices = np.array([7, 3, 500, 11])
        _, rows, parts, weights = kway_connectivity(medium_graph, part, k, vertices)
        assert np.all(np.diff(rows * k + parts) > 0)
        for r, v in enumerate(vertices):
            nbrs = medium_graph.neighbors(v)
            want = np.bincount(part[nbrs], weights=medium_graph.edge_weights(v), minlength=k)
            assert parts[rows == r].tolist() == np.flatnonzero(want).tolist()
            assert weights[rows == r].tolist() == want[want > 0].tolist()


class TestRefine:
    def test_never_worsens_cut(self, medium_graph):
        rng = np.random.default_rng(3)
        part = rng.integers(0, 4, medium_graph.num_vertices)
        before = edge_cut(medium_graph, part)
        out, _ = kway_refine(medium_graph, part, 4, ubfactor=1.5)
        assert edge_cut(medium_graph, out) <= before

    def test_respects_balance_cap(self, medium_graph):
        part = np.arange(medium_graph.num_vertices) % 4
        out, _ = kway_refine(medium_graph, part, 4, ubfactor=1.03)
        assert imbalance(medium_graph, out, 4) <= 1.04

    def test_early_exit_reported(self, grid):
        part = np.arange(grid.num_vertices) % 2
        out, passes = kway_refine(grid, part, 2, max_passes=10)
        assert len(passes) < 10
        assert passes[-1].moves_committed == 0

    def test_input_not_mutated(self, medium_graph):
        part = np.arange(medium_graph.num_vertices) % 4
        snap = part.copy()
        kway_refine(medium_graph, part, 4)
        assert np.array_equal(part, snap)

    def test_improves_strip_partition(self):
        g = grid2d(8, 16)
        # Interleaved columns: awful cut.
        part = (np.arange(128) % 16) % 2
        before = edge_cut(g, part)
        out, _ = kway_refine(g, part, 2, max_passes=8)
        assert edge_cut(g, out) < before

    def test_single_partition_noop(self, grid):
        part = np.zeros(grid.num_vertices, dtype=np.int64)
        out, passes = kway_refine(grid, part, 1)
        assert np.array_equal(out, part)


class TestRebalance:
    def test_fixes_overweight(self, medium_graph):
        n = medium_graph.num_vertices
        part = np.zeros(n, dtype=np.int64)
        part[: n // 10] = 1
        part[n // 10 : n // 5] = 2
        part[n // 5 : n // 4] = 3
        k = 4
        pweights = np.bincount(
            part, weights=medium_graph.vwgt.astype(np.float64), minlength=k
        )
        ideal = medium_graph.total_vertex_weight / k
        res = rebalance_pass(medium_graph, part, pweights, k, 1.05 * ideal)
        assert res.moves_committed > 0
        assert imbalance(medium_graph, part, k) <= 1.06

    def test_noop_when_balanced(self, medium_graph):
        part = np.arange(medium_graph.num_vertices) % 4
        pweights = np.bincount(
            part, weights=medium_graph.vwgt.astype(np.float64), minlength=4
        )
        ideal = medium_graph.total_vertex_weight / 4
        res = rebalance_pass(medium_graph, part, pweights, 4, 1.1 * ideal)
        assert res.moves_committed == 0

    def test_pweights_stay_consistent(self, medium_graph):
        n = medium_graph.num_vertices
        part = np.zeros(n, dtype=np.int64)
        part[-3:] = 1
        pweights = np.bincount(
            part, weights=medium_graph.vwgt.astype(np.float64), minlength=2
        )
        ideal = medium_graph.total_vertex_weight / 2
        rebalance_pass(medium_graph, part, pweights, 2, 1.03 * ideal)
        recomputed = np.bincount(
            part, weights=medium_graph.vwgt.astype(np.float64), minlength=2
        )
        assert np.array_equal(pweights, recomputed)
