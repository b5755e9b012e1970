"""Unit tests for the parallel Jostle reproduction."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graphs import edge_cut, validate_partition
from repro.graphs.generators import delaunay, grid2d
from repro.jostle import (
    Jostle,
    JostleOptions,
    pair_rounds,
    partition_pairs,
    refine_interfaces,
)


class TestPartitionPairs:
    def test_pairs_found(self, grid):
        part = (np.arange(grid.num_vertices) % 12 >= 6).astype(np.int64)
        pairs = partition_pairs(grid, part)
        assert pairs == [(0, 1)]

    def test_no_pairs_single_partition(self, grid):
        assert partition_pairs(grid, np.zeros(grid.num_vertices, dtype=np.int64)) == []

    def test_four_way_grid(self):
        g = grid2d(10, 10)
        part = (np.arange(100) // 10 >= 5) * 2 + ((np.arange(100) % 10) >= 5)
        pairs = partition_pairs(g, part.astype(np.int64))
        assert (0, 1) in pairs and (0, 2) in pairs and (1, 3) in pairs


class TestPairRounds:
    def test_conflict_free(self):
        pairs = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        rounds = pair_rounds(pairs)
        for rnd in rounds:
            used = [p for pair in rnd for p in pair]
            assert len(used) == len(set(used))
        assert sorted(p for r in rounds for p in r) == sorted(pairs)

    def test_disjoint_pairs_one_round(self):
        assert pair_rounds([(0, 1), (2, 3), (4, 5)]) == [[(0, 1), (2, 3), (4, 5)]]

    def test_empty(self):
        assert pair_rounds([]) == []


class TestInterfaceRefinement:
    def test_improves_bad_split(self):
        g = grid2d(12, 12)
        rng = np.random.default_rng(5)
        part = rng.integers(0, 4, g.num_vertices)
        before = edge_cut(g, part)
        out, stats = refine_interfaces(g, part, 4, ubfactor=1.2)
        assert edge_cut(g, out) <= before
        assert stats

    def test_never_increases_cut(self, medium_graph):
        """Pinned halos mean every committed FM prefix is a true global
        improvement for the pair (other-partition edges are constant)."""
        rng = np.random.default_rng(6)
        part = rng.integers(0, 6, medium_graph.num_vertices)
        before = edge_cut(medium_graph, part)
        out, _ = refine_interfaces(medium_graph, part, 6, ubfactor=1.2)
        assert edge_cut(medium_graph, out) <= before

    def test_input_not_mutated(self, medium_graph):
        part = np.arange(medium_graph.num_vertices) % 4
        snap = part.copy()
        refine_interfaces(medium_graph, part, 4, ubfactor=1.1)
        assert np.array_equal(part, snap)


class TestDriver:
    def test_valid_balanced(self):
        g = delaunay(3000, seed=8)
        res = Jostle().partition(g, 16)
        validate_partition(g, res.part, 16, ubfactor=1.031)

    def test_trivial_assignment_identity_at_k(self):
        g = grid2d(4, 4)
        part = Jostle._trivial_assignment(g, 16)
        assert np.array_equal(part, np.arange(16))

    def test_trivial_assignment_balanced_above_k(self):
        g = delaunay(200, seed=1)
        part = Jostle._trivial_assignment(g, 8)
        counts = np.bincount(part, minlength=8)
        assert counts.max() <= 1.5 * counts.mean()

    def test_broadcast_then_replicated_levels(self):
        g = delaunay(6000, seed=8)
        res = Jostle(JostleOptions(broadcast_threshold=3000)).partition(g, 8)
        engines = [L.engine for L in res.trace.levels]
        assert "mpi" in engines
        assert "mpi-replicated" in engines
        # Distributed levels precede replicated ones.
        assert engines.index("mpi-replicated") > 0

    def test_invalid_options(self):
        with pytest.raises(InvalidParameterError):
            JostleOptions(num_ranks=0)

    def test_quality_comparable_to_metis(self):
        from repro.serial import SerialMetis

        g = delaunay(3000, seed=9)
        js = Jostle().partition(g, 16).quality(g).cut
        ms = SerialMetis().partition(g, 16).quality(g).cut
        assert js <= 1.35 * ms

    def test_faster_than_serial(self):
        from repro.serial import SerialMetis

        g = delaunay(5000, seed=9)
        assert (
            Jostle().partition(g, 16).modeled_seconds
            < SerialMetis().partition(g, 16).modeled_seconds
        )
