"""PartitionRequest: the canonical input type of the partition API."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.exceptions import InvalidParameterError
from repro.graphs import generators
from repro.service import PartitionRequest


class TestValidation:
    def test_rejects_non_graph(self):
        with pytest.raises(InvalidParameterError, match="CSRGraph"):
            PartitionRequest(graph="not a graph", k=4)

    @pytest.mark.parametrize("k", [0, -1, 1.5, True])
    def test_rejects_bad_k(self, grid, k):
        with pytest.raises(InvalidParameterError):
            PartitionRequest(graph=grid, k=k)

    def test_numpy_integer_k_accepted(self, grid):
        # The engines take NumPy integers; the request in front of them
        # applies the same check.
        req = PartitionRequest(graph=grid, k=np.int64(4), method="metis")
        assert type(req.k) is int
        assert np.array_equal(req.run().part, repro.partition(grid, 4, method="metis").part)

    def test_rejects_negative_priority(self, grid):
        with pytest.raises(InvalidParameterError, match="priority"):
            PartitionRequest(graph=grid, k=4, priority=-1)

    def test_rejects_conflicting_seeds(self, grid):
        with pytest.raises(InvalidParameterError, match="conflicting seeds"):
            PartitionRequest(graph=grid, k=4, seed=3, options={"seed": 5})

    def test_agreeing_seeds_allowed(self, grid):
        req = PartitionRequest(graph=grid, k=4, seed=3, options={"seed": 3})
        assert req.effective_seed == 3

    def test_unknown_method_raises(self, grid):
        with pytest.raises(InvalidParameterError, match="unknown method"):
            PartitionRequest(graph=grid, k=4, method="kmetis").engine


class TestResolution:
    def test_engine_resolves_aliases(self, grid):
        assert PartitionRequest(graph=grid, k=4, method="gpmetis").engine == "gp-metis"
        assert PartitionRequest(graph=grid, k=4, method="serial").engine == "metis"

    def test_seed_field_overrides_options(self, grid):
        req = PartitionRequest(graph=grid, k=4, method="random", seed=9)
        assert req.engine_kwargs()["seed"] == 9
        assert req.engine_options().seed == 9
        assert req.effective_seed == 9

    def test_effective_seed_defaults_from_options_class(self, grid):
        req = PartitionRequest(graph=grid, k=4, method="metis")
        assert req.effective_seed == 1  # SerialOptions default

    def test_options_copied_and_tags_normalized(self, grid):
        opts = {"seed": 2}
        req = PartitionRequest(graph=grid, k=4, options=opts, tags=["a", "b"])
        opts["seed"] = 99
        assert req.options == {"seed": 2}
        assert req.tags == ("a", "b")


class TestFingerprint:
    def test_same_config_same_fingerprint(self, grid):
        a = PartitionRequest(graph=grid, k=4, method="random", seed=3)
        b = PartitionRequest(graph=grid, k=4, method="random",
                             options={"seed": 3}, priority=2, tags=("x",))
        # Priority and tags are service metadata, not configuration.
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_separates_configs(self, grid, medium_graph):
        base = PartitionRequest(graph=grid, k=4, method="random", seed=3)
        assert base.fingerprint != base.with_overrides(k=8).fingerprint
        assert base.fingerprint != base.with_overrides(seed=4).fingerprint
        assert base.fingerprint != base.with_overrides(method="block").fingerprint
        assert (base.fingerprint
                != base.with_overrides(graph=medium_graph).fingerprint)

    def test_fingerprint_separates_same_name_graphs(self):
        # Distinct generator draws share a display name; the content
        # digest in the config block keeps their fingerprints apart, so
        # a cache keyed on the fingerprint can never cross-serve them.
        g1 = generators.delaunay(80, seed=1)
        g2 = generators.delaunay(80, seed=2)
        assert g1.name == g2.name
        a = PartitionRequest(graph=g1, k=4, method="random", seed=3)
        b = PartitionRequest(graph=g2, k=4, method="random", seed=3)
        assert a.fingerprint != b.fingerprint

    def test_config_block_matches_ledger_schema(self, grid):
        config = PartitionRequest(graph=grid, k=4, method="random", seed=3).config()
        assert set(config) == {"engine", "graph", "graph_digest", "k", "seed",
                               "options_hash"}
        assert config["engine"] == "random"
        assert config["graph"] == grid.name
        assert config["graph_digest"] == grid.content_digest
        assert config["seed"] == 3


class TestRun:
    def test_run_equals_partition_facade(self, grid):
        req = PartitionRequest(graph=grid, k=4, method="random", seed=3)
        direct = repro.partition(grid, 4, method="random", seed=3)
        assert np.array_equal(req.run().part, direct.part)

    def test_partition_facade_is_request_shim(self, grid):
        # The facade and an explicit request produce identical vectors
        # for a deterministic multilevel engine too.
        req = PartitionRequest(graph=grid, k=4, method="metis", seed=2)
        direct = repro.partition(grid, 4, method="metis", seed=2)
        assert np.array_equal(req.run().part, direct.part)

    def test_with_overrides_is_frozen_copy(self, grid):
        req = PartitionRequest(graph=grid, k=4)
        other = req.with_overrides(k=8, priority=0)
        assert req.k == 4 and other.k == 8 and other.priority == 0
        with pytest.raises((AttributeError, TypeError)):
            req.k = 16
