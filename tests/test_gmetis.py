"""Unit tests for the Gmetis reproduction (speculative executor + driver)."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.gmetis import Gmetis, GmetisOptions, SpeculativeExecutor
from repro.graphs import validate_partition
from repro.graphs.generators import complete_graph, delaunay, star_graph
from repro.runtime.clock import SimClock
from repro.runtime.machine import CpuSpec


@pytest.fixture
def executor(clock):
    return SpeculativeExecutor(4, CpuSpec(), clock)


class TestSpeculativeExecutor:
    def test_every_item_committed_once(self, executor):
        n = 50
        seen = []
        executor.for_each(
            np.arange(n),
            neighborhood=lambda v: np.array([(v + 1) % n]),
            body=seen.append,
        )
        assert sorted(seen) == list(range(n))

    def test_disjoint_neighborhoods_no_aborts(self, executor):
        stats = executor.for_each(
            np.arange(0, 40, 4),
            neighborhood=lambda v: np.array([v + 1]),
            body=lambda v: None,
        )
        assert stats.aborted == 0
        assert stats.committed == 10

    def test_shared_hotspot_aborts(self, executor):
        """Every iteration locks element 0: one commit per round."""
        stats = executor.for_each(
            np.arange(8),
            neighborhood=lambda v: np.array([0]),
            body=lambda v: None,
        )
        assert stats.aborted > 0
        assert stats.committed == 8  # all eventually run
        assert stats.abort_rate > 0.4

    def test_retry_cap_serialises(self, executor):
        """Pathological contention falls back to serialisation rather than
        livelocking."""
        stats = executor.for_each(
            np.arange(100),
            neighborhood=lambda v: np.array([0]),
            body=lambda v: None,
            max_retries=1,
        )
        assert stats.committed == 100

    def test_results_equal_sequential_permutation(self, executor):
        """The speculative loop is serializable: a commutative fold gives
        the sequential answer."""
        acc = []
        executor.for_each(
            np.arange(30),
            neighborhood=lambda v: np.array([v % 5]),
            body=acc.append,
        )
        assert sorted(acc) == list(range(30))

    def test_costs_charged(self, executor, clock):
        executor.for_each(
            np.arange(20),
            neighborhood=lambda v: np.array([v % 3]),
            body=lambda v: None,
        )
        assert clock.seconds_for(category="compute") > 0
        assert clock.seconds_for(category="sync") > 0


class TestGmetisDriver:
    def test_matching_scheme_ranks_edge_weights(self, weighted_delaunay, clock):
        """LEM matches along the lightest free edge, HEM the heaviest, RM
        a random one: their matched weights order lem < rm < hem."""
        g = weighted_delaunay
        src = g.source_array()
        mean = {}
        for scheme in ("lem", "rm", "hem"):
            engine = Gmetis(GmetisOptions(matching=scheme))
            match, _ = engine._speculative_match(
                g, SpeculativeExecutor(8, CpuSpec(), clock),
                np.random.default_rng(0), detail="match",
            )
            matched = (src < g.adjncy) & (match[src] == g.adjncy)
            mean[scheme] = g.adjwgt[matched].mean()
        assert mean["lem"] < mean["rm"] < mean["hem"]

    def test_valid_balanced(self):
        g = delaunay(2000, seed=14)
        res = Gmetis().partition(g, 8)
        validate_partition(g, res.part, 8, ubfactor=1.031)
        assert res.extras["aborts"] >= 0

    def test_quality_tracks_serial(self):
        from repro.serial import SerialMetis

        g = delaunay(2000, seed=15)
        gm = Gmetis().partition(g, 8).quality(g).cut
        ms = SerialMetis().partition(g, 8).quality(g).cut
        assert gm <= 1.2 * ms

    def test_slower_than_parmetis_at_paper_config(self):
        """The paper's verdict: "not as efficient as ParMetis" — evaluated
        at the paper's configuration (k = 64 on a Table I analogue)."""
        from repro.graphs import load_dataset
        from repro.parmetis import ParMetis

        g = load_dataset("delaunay", scale=0.008)
        gm = Gmetis().partition(g, 64).modeled_seconds
        pm = ParMetis().partition(g, 64).modeled_seconds
        assert gm > 0.9 * pm  # at worst neck-and-neck, typically slower

    def test_star_graph_heavy_aborts(self):
        """A star serialises speculative matching on the hub."""
        g = star_graph(300)
        res = Gmetis().partition(g, 2)
        assert res.part.shape[0] == 300

    def test_dense_graph_more_aborts_than_sparse(self):
        dense = complete_graph(48)
        sparse = delaunay(48, seed=1)
        ad = Gmetis(GmetisOptions(coarsen_min=8)).partition(dense, 2).extras["aborts"]
        asp = Gmetis(GmetisOptions(coarsen_min=8)).partition(sparse, 2).extras["aborts"]
        assert ad >= asp

    def test_invalid_options(self):
        with pytest.raises(InvalidParameterError):
            GmetisOptions(num_threads=0)
