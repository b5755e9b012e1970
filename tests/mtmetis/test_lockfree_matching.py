"""Unit + property tests for the lock-free two-round matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.gpmetis.kernels.matching import consecutive_batches
from repro.graphs import from_edges
from repro.graphs.generators import complete_graph, delaunay, star_graph
from repro.mtmetis.matching import batch_candidates, lockfree_match
from repro.serial.matching import match_is_valid


def batches_of(n, width):
    return consecutive_batches(n, width)


class TestBatchCandidates:
    def test_heaviest_free_neighbor(self, tiny_graph):
        snapshot = np.full(8, -1, dtype=np.int64)
        arcs = batch_candidates(
            tiny_graph, np.array([0]), snapshot < 0, "hem", np.random.default_rng(0)
        )
        # (0,1) w=5 beats (0,3) w=1, (0,4) w=2
        assert tiny_graph.adjncy[arcs].tolist() == [1]

    def test_matched_neighbors_skipped(self, tiny_graph):
        snapshot = np.full(8, -1, dtype=np.int64)
        snapshot[1] = 99  # 1 looks matched
        arcs = batch_candidates(
            tiny_graph, np.array([0]), snapshot < 0, "hem", np.random.default_rng(0)
        )
        assert tiny_graph.adjncy[arcs].tolist() == [4]  # next-heaviest free neighbor

    def test_no_free_neighbor(self, tiny_graph):
        snapshot = np.zeros(8, dtype=np.int64)  # everything matched
        arcs = batch_candidates(
            tiny_graph, np.array([0]), snapshot < 0, "hem", np.random.default_rng(0)
        )
        assert arcs.tolist() == [-1]


class TestLockfreeMatch:
    @pytest.mark.parametrize("width", [1, 3, 16, 10_000])
    def test_always_valid(self, medium_graph, width):
        match, stats = lockfree_match(
            medium_graph,
            batches_of(medium_graph.num_vertices, width),
            rng=np.random.default_rng(0),
        )
        assert match_is_valid(medium_graph, match)
        assert stats.pairs + 0 <= medium_graph.num_vertices // 2

    def test_width_one_has_no_conflicts(self, medium_graph):
        _, stats = lockfree_match(
            medium_graph,
            batches_of(medium_graph.num_vertices, 1),
            rng=np.random.default_rng(0),
        )
        assert stats.conflicts == 0

    def test_wide_batches_conflict(self):
        g = complete_graph(64)  # everyone wants the same heavy target
        _, stats = lockfree_match(g, batches_of(64, 64), rng=np.random.default_rng(0))
        assert stats.conflicts > 0

    def test_conflicted_vertices_self_match_without_retry(self):
        g = star_graph(40)
        match, stats = lockfree_match(
            g, batches_of(40, 40), rng=np.random.default_rng(0), retry_rounds=0
        )
        ids = np.arange(40)
        # All spokes claim the center; at most one pair survives.
        assert int((match != ids).sum()) <= 2

    def test_retry_recovers_pairs(self, medium_graph):
        n = medium_graph.num_vertices

        def maker(items):
            # Retry conflicted vertices serially (no new conflicts).
            return (np.array([v]) for v in items)

        _, no_retry = lockfree_match(
            medium_graph, batches_of(n, n), rng=np.random.default_rng(3)
        )
        _, with_retry = lockfree_match(
            medium_graph, batches_of(n, n), rng=np.random.default_rng(3),
            retry_rounds=2, batch_maker=maker,
        )
        assert with_retry.pairs >= no_retry.pairs
        assert with_retry.rounds > no_retry.rounds

    def test_stats_consistency(self, medium_graph):
        n = medium_graph.num_vertices
        match, stats = lockfree_match(
            medium_graph, batches_of(n, 64), rng=np.random.default_rng(1)
        )
        assert stats.self_matches + 2 * stats.pairs == n
        assert stats.edge_scans > 0
        assert len(stats.batch_sizes) >= 1

    def test_empty_graph(self):
        g = from_edges(0, [])
        match, stats = lockfree_match(g, iter([]))
        assert match.size == 0
        assert stats.pairs == 0


class TestTypedErrors:
    @pytest.mark.parametrize("scheme", ["HEM", "heavy", ""])
    def test_unknown_scheme(self, medium_graph, scheme):
        n = medium_graph.num_vertices
        with pytest.raises(InvalidParameterError, match="unknown matching scheme"):
            lockfree_match(medium_graph, batches_of(n, 8), scheme=scheme)
        with pytest.raises(InvalidParameterError, match="unknown matching scheme"):
            batch_candidates(
                medium_graph, np.array([0]), np.ones(n, dtype=bool),
                scheme, np.random.default_rng(0),
            )

    # One narrow round (list walk) and one GPU-wide round (vectorised).
    @pytest.mark.parametrize("width", [8, 1000])
    @pytest.mark.parametrize("bad", [-1, 800, 10**6])
    def test_batch_vertex_out_of_range(self, medium_graph, width, bad):
        n = medium_graph.num_vertices  # 800
        batches = list(batches_of(n, width))
        batches[-1] = np.append(batches[-1], bad)
        with pytest.raises(InvalidParameterError, match=f"batch vertex {bad} outside"):
            lockfree_match(medium_graph, batches)

    def test_out_of_range_retry_schedule(self):
        g = complete_graph(64)
        with pytest.raises(InvalidParameterError, match="batch vertex -1"):
            lockfree_match(
                g, batches_of(64, 64), retry_rounds=1,
                batch_maker=lambda items: [np.append(items, -1)],
            )


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_lockfree_valid_for_any_width_property(n, width, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4 * n))
    g = from_edges(n, rng.integers(0, n, size=(m, 2)), rng.integers(1, 9, size=m))
    match, _ = lockfree_match(g, batches_of(n, width), rng=rng)
    assert match_is_valid(g, match)
