"""Unit tests for the PT-Scotch reproduction (Monte-Carlo matching,
folding, banded refinement, driver)."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graphs import edge_cut, validate_partition
from repro.graphs.generators import delaunay, grid2d
from repro.parmetis.distgraph import DistGraph
from repro.ptscotch import (
    FoldState,
    PTScotch,
    PTScotchOptions,
    band_refine,
    band_vertices,
    fold,
    montecarlo_match,
    should_fold,
)
from repro.runtime.clock import SimClock
from repro.runtime.machine import CpuSpec, InterconnectSpec
from repro.runtime.mpi import MpiSim
from repro.serial.matching import match_is_valid


@pytest.fixture
def mpi(clock):
    return MpiSim(4, CpuSpec(), InterconnectSpec(), clock)


class TestMonteCarloMatching:
    def test_valid_matching(self, medium_graph, mpi):
        dist = DistGraph.distribute(medium_graph, 4)
        match, stats = montecarlo_match(dist, mpi, rng=np.random.default_rng(0))
        assert match_is_valid(medium_graph, match)
        assert stats.pairs > 0
        assert stats.rounds >= 1

    def test_large_part_matched_after_a_few_rounds(self, medium_graph, mpi):
        """The paper's claim: "after a few iterations, a large part of the
        vertices are matched"."""
        dist = DistGraph.distribute(medium_graph, 4)
        match, stats = montecarlo_match(
            dist, mpi, max_rounds=6, rng=np.random.default_rng(1)
        )
        matched_frac = 2 * stats.pairs / medium_graph.num_vertices
        assert matched_frac > 0.6

    def test_coin_idle_counted(self, medium_graph, mpi):
        dist = DistGraph.distribute(medium_graph, 4)
        _, stats = montecarlo_match(
            dist, mpi, max_rounds=1, request_probability=0.5,
            rng=np.random.default_rng(2),
        )
        # ~half the vertices flip tails in round one.
        assert 0.3 < stats.coin_idle / medium_graph.num_vertices < 0.7

    def test_lem_requests_lightest_valid_neighbor(self, weighted_delaunay, mpi):
        """LEM ranks by the negated weight as HEM ranks by the weight: a
        granted requester asked its first valid neighbor of minimal
        weight, in CSR order (valid: not requesting this round)."""
        g = weighted_delaunay
        dist = DistGraph.distribute(g, 4)
        match, stats = montecarlo_match(
            dist, mpi, scheme="lem", max_rounds=1, rng=np.random.default_rng(5)
        )
        # Round one's coin flips are the generator's first n draws.
        heads = np.random.default_rng(5).random(g.num_vertices) < 0.5
        granted = np.flatnonzero(heads & (match != np.arange(g.num_vertices)))
        assert granted.size == stats.pairs > 0
        for v in granted:
            nbrs, w = g.neighbors(v), g.edge_weights(v)
            valid = ~heads[nbrs]
            assert match[v] == nbrs[valid][np.argmin(w[valid])]

    @pytest.mark.parametrize("scheme", ["HEM", "heavy", ""])
    def test_unknown_scheme_is_a_typed_error(self, medium_graph, mpi, scheme):
        dist = DistGraph.distribute(medium_graph, 4)
        with pytest.raises(InvalidParameterError, match="unknown matching scheme"):
            montecarlo_match(dist, mpi, scheme=scheme)

    def test_probability_extremes(self, medium_graph):
        """Why PT-Scotch flips coins at 0.5: with p = 1 every vertex
        requests, nobody is left to grant, and the round matches NOTHING
        — the Monte-Carlo split is what makes progress possible."""
        res = {}
        for p in (0.5, 1.0):
            mpi = MpiSim(4, CpuSpec(), InterconnectSpec(), SimClock())
            dist = DistGraph.distribute(medium_graph, 4)
            _, stats = montecarlo_match(
                dist, mpi, max_rounds=1, request_probability=p,
                rng=np.random.default_rng(3),
            )
            res[p] = stats.pairs
        assert res[1.0] == 0
        assert res[0.5] > 0


class TestFolding:
    def test_should_fold_threshold(self, grid):
        state = FoldState(group_size=8)
        assert should_fold(grid, state, fold_threshold=1000)
        assert not should_fold(grid, state, fold_threshold=1)

    def test_single_rank_never_folds(self, grid):
        state = FoldState(group_size=1)
        assert not should_fold(grid, state, fold_threshold=10**9)
        assert state.is_single_rank

    def test_fold_halves_group(self, grid, mpi):
        state = FoldState(group_size=8)
        state = fold(grid, state, mpi)
        assert state.group_size == 4
        assert state.generation == 1
        state = fold(grid, state, mpi)
        assert state.group_size == 2

    def test_fold_charges_communication(self, grid, mpi, clock):
        fold(grid, FoldState(group_size=4), mpi)
        assert clock.seconds_for(category="message_bytes") > 0


class TestBandRefinement:
    def test_band_contains_boundary(self, medium_graph):
        part = np.arange(medium_graph.num_vertices) % 4
        band = band_vertices(medium_graph, part, distance=0)
        from repro.graphs import boundary_vertices

        assert set(boundary_vertices(medium_graph, part)) <= set(band.tolist())

    def test_band_grows_with_distance(self):
        # A geometric split keeps the boundary thin so the band can grow.
        g = grid2d(20, 20)
        part = (np.arange(400) % 20 >= 10).astype(np.int64)
        b0 = band_vertices(g, part, distance=0)
        b2 = band_vertices(g, part, distance=2)
        assert b0.size == 40  # the two boundary columns
        assert b2.size == 120  # plus two more columns each side
        assert b2.size > b0.size

    def test_band_refine_improves_cut(self):
        g = grid2d(16, 16)
        rng = np.random.default_rng(4)
        part = rng.integers(0, 4, g.num_vertices)
        before = edge_cut(g, part)
        out, band_size = band_refine(g, part, 4, ubfactor=1.2, distance=2)
        assert edge_cut(g, out) < before
        assert band_size > 0

    def test_vertices_outside_band_never_move(self, medium_graph):
        part = np.arange(medium_graph.num_vertices) % 4
        band = set(band_vertices(medium_graph, part, distance=1).tolist())
        out, _ = band_refine(medium_graph, part, 4, distance=1)
        moved = np.where(out != part)[0]
        assert set(moved.tolist()) <= band

    def test_uniform_partition_no_band(self, grid):
        part = np.zeros(grid.num_vertices, dtype=np.int64)
        out, band_size = band_refine(grid, part, 1)
        assert band_size == 0
        assert np.array_equal(out, part)


class TestDriver:
    def test_valid_balanced(self):
        g = delaunay(3000, seed=6)
        res = PTScotch().partition(g, 16)
        validate_partition(g, res.part, 16, ubfactor=1.031)
        assert res.extras["folds"] >= 0

    def test_folding_happens_on_deep_ladders(self):
        g = delaunay(6000, seed=6)
        res = PTScotch(PTScotchOptions(fold_threshold=4096)).partition(g, 8)
        assert res.extras["folds"] >= 1
        assert any("fold" in n for n in res.trace.notes)

    def test_invalid_options(self):
        with pytest.raises(InvalidParameterError):
            PTScotchOptions(num_ranks=0)

    def test_quality_comparable_to_metis(self):
        from repro.serial import SerialMetis

        g = delaunay(3000, seed=7)
        ps = PTScotch().partition(g, 16).quality(g).cut
        ms = SerialMetis().partition(g, 16).quality(g).cut
        assert ps <= 1.35 * ms

    def test_faster_than_serial(self):
        from repro.serial import SerialMetis

        g = delaunay(5000, seed=7)
        ps = PTScotch().partition(g, 16)
        ms = SerialMetis().partition(g, 16)
        assert ps.modeled_seconds < ms.modeled_seconds
