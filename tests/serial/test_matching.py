"""Unit + property tests for sequential matching (HEM/RM/LEM)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.graphs import from_edges
from repro.graphs.generators import complete_graph, cycle_graph, path_graph, star_graph
from repro.serial.matching import match_is_valid, sequential_match


class TestValidity:
    @pytest.mark.parametrize("scheme", ["hem", "rm", "lem"])
    def test_valid_on_grid(self, grid, scheme, rng):
        res = sequential_match(grid, scheme, rng)
        assert match_is_valid(grid, res.match)

    def test_maximality(self, medium_graph, rng):
        """No two adjacent vertices are both self-matched (greedy maximality)."""
        res = sequential_match(medium_graph, "hem", rng)
        m = res.match
        ids = np.arange(medium_graph.num_vertices)
        self_matched = set(ids[m == ids].tolist())
        for v in self_matched:
            for u in medium_graph.neighbors(v):
                assert int(u) not in self_matched or int(u) == v

    def test_pairs_counted(self, grid, rng):
        res = sequential_match(grid, "hem", rng)
        m = res.match
        ids = np.arange(grid.num_vertices)
        assert res.pairs == int((m != ids).sum()) // 2

    def test_empty_graph(self):
        g = from_edges(0, [])
        res = sequential_match(g)
        assert res.match.size == 0
        assert res.pairs == 0

    def test_isolated_vertices_self_match(self):
        g = from_edges(3, [(0, 1)])
        res = sequential_match(g)
        assert res.match[2] == 2


class TestSchemes:
    def test_hem_collapses_more_weight_than_rm(self, weighted_graph):
        def matched_weight(scheme, seed):
            g = weighted_graph
            res = sequential_match(g, scheme, np.random.default_rng(seed))
            total = 0
            for v in range(g.num_vertices):
                u = int(res.match[v])
                if u > v:
                    nbrs = g.neighbors(v)
                    total += int(g.edge_weights(v)[list(nbrs).index(u)])
            return total

        hem = np.mean([matched_weight("hem", s) for s in range(8)])
        rm = np.mean([matched_weight("rm", s) for s in range(8)])
        assert hem > rm

    def test_hem_center_picks_heavy_when_free(self):
        # Path 1-0-2 with a heavy (0, 2): visiting 0 first must pick 2.
        g = from_edges(3, [(0, 1), (0, 2)], weights=[1, 9])
        for seed in range(20):
            res = sequential_match(g, "hem", np.random.default_rng(seed))
            if res.match[1] == 1:  # 1 unmatched => 0 chose before/over it
                assert res.match[0] == 2

    def test_lem_prefers_light_edge(self):
        g = from_edges(3, [(0, 1), (0, 2)], weights=[9, 1])
        res = sequential_match(g, "lem", np.random.default_rng(0))
        # Whenever 0 is free when visited, it must pick the light edge to 2.
        assert res.match[0] in (0, 2) or res.match[1] == 0

    def test_rm_varies_with_seed(self, medium_graph):
        a = sequential_match(medium_graph, "rm", np.random.default_rng(1)).match
        b = sequential_match(medium_graph, "rm", np.random.default_rng(2)).match
        assert not np.array_equal(a, b)

    def test_path_matching_near_perfect(self):
        g = path_graph(100)
        res = sequential_match(g, "hem", np.random.default_rng(0))
        assert res.pairs >= 33  # any maximal matching on a path >= n/3

    def test_complete_graph_perfect(self):
        g = complete_graph(8)
        res = sequential_match(g, "hem", np.random.default_rng(0))
        assert res.pairs == 4

    def test_star_one_pair(self):
        g = star_graph(10)
        res = sequential_match(g, "hem", np.random.default_rng(0))
        assert res.pairs == 1  # the center can pair only once


@pytest.mark.parametrize("scheme", ["HEM", "heavy", ""])
def test_unknown_scheme_is_a_typed_error(grid, scheme):
    with pytest.raises(InvalidParameterError, match="unknown matching scheme"):
        sequential_match(grid, scheme, np.random.default_rng(0))
    with pytest.raises(InvalidParameterError, match="unknown matching scheme"):
        sequential_match(from_edges(0, []), scheme)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    m = draw(st.integers(min_value=0, max_value=80))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    edges = rng.integers(0, n, size=(m, 2))
    weights = rng.integers(1, 20, size=m)
    return from_edges(n, edges, weights)


@given(random_graphs(), st.sampled_from(["hem", "rm", "lem"]), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_matching_always_valid_property(g, scheme, seed):
    res = sequential_match(g, scheme, np.random.default_rng(seed))
    assert match_is_valid(g, res.match)
    # Involution: applying match twice is the identity.
    assert np.array_equal(res.match[res.match], np.arange(g.num_vertices))
