"""Final coverage batch: distinct behaviors not yet exercised elsewhere."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import from_edges
from repro.graphs.generators import delaunay, grid2d


class TestCommitCapInvariant:
    """commit_moves never lets a destination exceed its cap, for ANY
    (possibly adversarial) proposal set."""

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=40),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_caps_hold(self, k, n_proposals, seed):
        from repro.mtmetis.refinement import SubIterationStats, commit_moves

        rng = np.random.default_rng(seed)
        g = delaunay(60, seed=0)
        part = rng.integers(0, k, g.num_vertices)
        pweights = np.bincount(part, weights=g.vwgt.astype(np.float64), minlength=k)
        max_pw = 1.1 * g.total_vertex_weight / k
        vs = rng.integers(0, g.num_vertices, n_proposals)
        vs = np.unique(vs)  # a vertex requests at most once
        ds = rng.integers(0, k, vs.shape[0])
        gs = rng.integers(-5, 20, vs.shape[0])
        before = pweights.copy()
        commit_moves(
            g, part, pweights, vs, ds, gs, k, max_pw,
            SubIterationStats(direction=0), recheck_gains=False,
        )
        # Destinations that were under the cap stay under it.
        for d in range(k):
            if before[d] <= max_pw:
                assert pweights[d] <= max_pw + 1e-9
        # Ledger consistency.
        recomputed = np.bincount(part, weights=g.vwgt.astype(np.float64), minlength=k)
        assert np.allclose(pweights, recomputed)


class TestParmetisInternals:
    def test_initpart_broadcast_charged(self, clock):
        from repro.parmetis.initpart import distributed_initial_partition
        from repro.runtime.machine import CpuSpec, InterconnectSpec
        from repro.runtime.mpi import MpiSim
        from repro.serial.options import SerialOptions

        g = grid2d(10, 10)
        mpi = MpiSim(4, CpuSpec(), InterconnectSpec(), clock)
        part = distributed_initial_partition(
            g, 4, SerialOptions(), mpi, np.random.default_rng(0)
        )
        assert len(np.unique(part)) == 4
        assert clock.seconds_for(category="message_bytes") > 0

    def test_refinement_supersteps_bounded(self):
        from repro.parmetis import ParMetis, ParMetisOptions

        g = delaunay(1200, seed=2)
        res = ParMetis(ParMetisOptions(refine_passes=2)).partition(g, 8)
        # Bulk-synchronous structure: supersteps stay polynomial in
        # levels x passes, not in vertices.
        assert res.extras["supersteps"] < 400


class TestExperimentConfigVariants:
    def test_method_subset(self):
        from repro.bench import ExperimentConfig, run_experiment

        cfg = ExperimentConfig(
            k=4,
            datasets=("usa_roads",),
            methods=("metis", "mt-metis"),
            scales={"usa_roads": 0.0003},
        )
        res = run_experiment(cfg)
        assert len(res.runs) == 2
        assert ("usa_roads", "mt-metis") in res.runs

    def test_custom_scale_fallback(self):
        from repro.bench import ExperimentConfig, run_experiment

        cfg = ExperimentConfig(
            k=4, datasets=("delaunay",), methods=("metis",), scales={}
        )
        res = run_experiment(cfg)  # falls back to a default scale
        assert res.graphs["delaunay"].num_vertices > 0


class TestCliGenerateFamilies:
    @pytest.mark.parametrize("family", ["delaunay", "road", "bubble", "fe", "rmat", "rgg"])
    def test_every_family_generates(self, family, tmp_path):
        from repro.cli import main
        from repro.graphs import read_graph

        out = tmp_path / f"{family}.graph"
        rc = main(["generate", "--family", family, "-n", "300", "-o", str(out)])
        assert rc == 0
        read_graph(out).validate()


class TestBandEffectiveTolerance:
    def test_global_balance_never_explodes(self):
        """band_refine's scaled tolerance keeps global imbalance bounded
        even for a tiny band."""
        from repro.graphs.metrics import imbalance
        from repro.ptscotch.band import band_refine

        g = grid2d(24, 24)
        part = (np.arange(g.num_vertices) % 24 >= 12).astype(np.int64)
        before = imbalance(g, part, 2)
        out, _ = band_refine(g, part, 2, ubfactor=1.03, distance=1)
        after = imbalance(g, out, 2)
        assert after <= max(before, 1.06)


class TestDeviceArrayMisc:
    def test_alloc_like_matches_shape_dtype(self, clock):
        from repro.gpusim import Device
        from repro.runtime.machine import PAPER_MACHINE

        dev = Device(PAPER_MACHINE.gpu, clock)
        host = np.ones((3, 4), dtype=np.int32)
        d = dev.alloc_like(host)
        assert d.shape == (3, 4)
        assert d.dtype == np.int32
        assert np.all(d.data == 0)  # cudaMalloc-style fresh memory

    def test_partial_stream_ops(self, clock):
        from repro.gpusim import Device
        from repro.runtime.machine import PAPER_MACHINE

        dev = Device(PAPER_MACHINE.gpu, clock)
        d = dev.adopt(np.arange(100), label="x")
        with dev.kernel("k", 10) as k:
            vals = k.stream_read(d, n_elements=10)
            assert vals.tolist() == list(range(10))
            k.stream_write(d, np.zeros(5, dtype=np.int64), n_elements=5)
        assert d.data[:5].tolist() == [0] * 5
        assert d.data[5] == 5


class TestWeightedGraphEndToEnd:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_heavily_weighted_partitions_stay_valid(self, seed):
        from repro.api import partition
        from repro.graphs import partition_weights

        rng = np.random.default_rng(seed)
        n = 120
        edges = rng.integers(0, n, size=(400, 2))
        g = from_edges(
            n, edges,
            weights=rng.integers(1, 100, 400),
            vertex_weights=rng.integers(1, 50, n),
        )
        res = partition(g, 4, method="gp-metis", seed=int(seed % 97) + 1)
        w = partition_weights(g, res.part, 4)
        assert w.sum() == g.total_vertex_weight
        assert res.part.min() >= 0 and res.part.max() < 4
