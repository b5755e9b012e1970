"""Unit tests for the ParMetis reproduction (distributed matching,
coarsening, init partitioning, refinement, driver)."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graphs import validate_partition
from repro.graphs.generators import delaunay
from repro.parmetis import (
    DistGraph,
    ParMetis,
    ParMetisOptions,
    distributed_coarsen,
    distributed_match,
)
from repro.runtime.clock import SimClock
from repro.runtime.machine import CpuSpec, InterconnectSpec
from repro.runtime.mpi import MpiSim
from repro.runtime.trace import Trace
from repro.serial import SerialMetis
from repro.serial.matching import match_is_valid


@pytest.fixture
def mpi(clock):
    return MpiSim(4, CpuSpec(), InterconnectSpec(), clock)


class TestDistGraph:
    def test_block_distribution(self, medium_graph):
        d = DistGraph.distribute(medium_graph, 4)
        counts = np.bincount(d.rank_of, minlength=4)
        assert counts.max() - counts.min() <= counts.max() * 0.1 + 1

    def test_cut_arcs_symmetric_count(self, medium_graph):
        d = DistGraph.distribute(medium_graph, 4)
        assert d.num_cut_arcs() % 2 == 0

    def test_per_rank_edges_sum(self, medium_graph):
        d = DistGraph.distribute(medium_graph, 4)
        assert d.per_rank_edges().sum() == medium_graph.num_directed_edges

    def test_single_rank_no_cut(self, medium_graph):
        d = DistGraph.distribute(medium_graph, 1)
        assert d.num_cut_arcs() == 0

    def test_ghost_payload_bytes(self, medium_graph):
        d = DistGraph.distribute(medium_graph, 4)
        s, dd, b = d.ghost_exchange_payload()
        assert s.shape == dd.shape == b.shape
        assert np.all(s != dd)
        assert np.all(b == 8.0)


class TestDistributedMatching:
    def test_valid_matching(self, medium_graph, mpi):
        dist = DistGraph.distribute(medium_graph, 4)
        match, stats = distributed_match(dist, mpi, rng=np.random.default_rng(0))
        assert match_is_valid(medium_graph, match)
        assert stats.pairs > 0

    def test_conflict_free_protocol(self, medium_graph, mpi):
        """Grants never collide: each vertex appears in at most one pair."""
        dist = DistGraph.distribute(medium_graph, 4)
        match, _ = distributed_match(dist, mpi, rng=np.random.default_rng(1))
        ids = np.arange(medium_graph.num_vertices)
        assert np.array_equal(match[match], ids)

    def test_messages_counted(self, medium_graph, mpi):
        dist = DistGraph.distribute(medium_graph, 4)
        distributed_match(dist, mpi, rng=np.random.default_rng(0))
        assert mpi.messages_sent > 0
        assert mpi.supersteps > 0

    def test_more_passes_more_pairs(self, medium_graph, clock):
        dist = DistGraph.distribute(medium_graph, 4)
        m1 = MpiSim(4, CpuSpec(), InterconnectSpec(), SimClock())
        m4 = MpiSim(4, CpuSpec(), InterconnectSpec(), SimClock())
        _, s1 = distributed_match(dist, m1, num_passes=1, rng=np.random.default_rng(2))
        _, s4 = distributed_match(dist, m4, num_passes=4, rng=np.random.default_rng(2))
        assert s4.pairs >= s1.pairs

    @pytest.mark.parametrize("scheme", ["HEM", "heavy", ""])
    def test_unknown_scheme_is_a_typed_error(self, medium_graph, mpi, scheme):
        dist = DistGraph.distribute(medium_graph, 4)
        with pytest.raises(InvalidParameterError, match="unknown matching scheme"):
            distributed_match(dist, mpi, scheme=scheme)


class TestDistributedCoarsening:
    def test_ladder_shrinks(self, medium_graph, mpi):
        dist = DistGraph.distribute(medium_graph, 4)
        levels, coarsest = distributed_coarsen(
            dist, 4, ParMetisOptions(num_ranks=4), mpi, Trace(), np.random.default_rng(0)
        )
        assert coarsest.graph.num_vertices < medium_graph.num_vertices
        assert all(
            levels[i].graph.num_vertices > levels[i + 1].graph.num_vertices
            for i in range(len(levels) - 1)
        )

    def test_weight_conserved(self, medium_graph, mpi):
        dist = DistGraph.distribute(medium_graph, 4)
        _, coarsest = distributed_coarsen(
            dist, 4, ParMetisOptions(num_ranks=4), mpi, Trace(), np.random.default_rng(0)
        )
        assert coarsest.graph.total_vertex_weight == medium_graph.total_vertex_weight


class TestDriver:
    @pytest.mark.parametrize("k", [2, 8])
    def test_valid_balanced(self, medium_graph, k):
        res = ParMetis().partition(medium_graph, k)
        validate_partition(medium_graph, res.part, k, ubfactor=1.031)

    def test_invalid_options(self):
        with pytest.raises(InvalidParameterError):
            ParMetisOptions(num_ranks=0)

    def test_extras_report_communication(self, medium_graph):
        res = ParMetis().partition(medium_graph, 8)
        assert res.extras["messages"] > 0
        assert res.extras["message_bytes"] > 0
        assert res.extras["supersteps"] > 0

    def test_deterministic(self, medium_graph):
        a = ParMetis(ParMetisOptions(seed=5)).partition(medium_graph, 8)
        b = ParMetis(ParMetisOptions(seed=5)).partition(medium_graph, 8)
        assert np.array_equal(a.part, b.part)

    def test_beats_serial_on_large_graph(self):
        g = delaunay(6000, seed=1)
        rs = SerialMetis().partition(g, 16)
        rp = ParMetis().partition(g, 16)
        assert rp.modeled_seconds < rs.modeled_seconds

    def test_comm_grows_with_ranks(self, medium_graph):
        r2 = ParMetis(ParMetisOptions(num_ranks=2)).partition(medium_graph, 8)
        r8 = ParMetis(ParMetisOptions(num_ranks=8)).partition(medium_graph, 8)
        assert r8.extras["messages"] > r2.extras["messages"]
