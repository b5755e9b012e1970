"""Unit tests for the GP-metis GPU kernels (matching, cmap, contraction,
projection, refinement) against their serial oracles."""

import numpy as np
import pytest

from repro.gpmetis.kernels import (
    consecutive_batches,
    gpu_build_cmap,
    gpu_contract,
    gpu_match,
    gpu_project,
    gpu_refine_level,
    reference_hash_merge,
    reference_sort_merge,
)
from repro.gpusim import Device, transfer_graph_to_device
from repro.graphs import CSRGraph, edge_cut, imbalance
from repro.runtime.clock import SimClock
from repro.runtime.machine import PAPER_MACHINE
from repro.serial.contraction import build_cmap, contract
from repro.serial.matching import match_is_valid


@pytest.fixture
def dev(clock):
    return Device(PAPER_MACHINE.gpu, clock)


def to_device(dev, graph):
    return transfer_graph_to_device(dev, graph, PAPER_MACHINE.interconnect)


class TestConsecutiveBatches:
    def test_covers_all(self):
        batches = list(consecutive_batches(10, 4))
        assert [b.tolist() for b in batches] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_width_larger_than_n(self):
        batches = list(consecutive_batches(3, 100))
        assert len(batches) == 1


class TestGpuMatch:
    def test_valid_matching(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        d_match, stats = gpu_match(
            dev, d_csr, medium_graph, 512, "hem", np.random.default_rng(0)
        )
        assert match_is_valid(medium_graph, d_match.data)
        assert stats.pairs > 0

    def test_kernels_recorded(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        gpu_match(dev, d_csr, medium_graph, 512, "hem", np.random.default_rng(0))
        assert "coarsen.match" in dev.stats.kernels
        assert "coarsen.resolve" in dev.stats.kernels
        assert dev.stats.kernel("coarsen.match").launches == 1

    def test_uniform_weights_switch_to_rm(self, dev, grid):
        """Paper: "If all the edges have the same weight, a random matching
        method is used" — two seeds must then differ."""
        d1 = Device(PAPER_MACHINE.gpu, SimClock())
        d2 = Device(PAPER_MACHINE.gpu, SimClock())
        m1, _ = gpu_match(d1, to_device(d1, grid), grid, 64, "hem", np.random.default_rng(1))
        m2, _ = gpu_match(d2, to_device(d2, grid), grid, 64, "hem", np.random.default_rng(2))
        assert not np.array_equal(m1.data, m2.data)


class TestGpuCmap:
    def test_matches_serial_numbering(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        d_match, _ = gpu_match(dev, d_csr, medium_graph, 256, "hem", np.random.default_rng(0))
        d_cmap, n_coarse = gpu_build_cmap(dev, d_match, 256)
        expect, n_expect = build_cmap(d_match.data)
        assert n_coarse == n_expect
        assert np.array_equal(d_cmap.data, expect)

    def test_four_kernel_pipeline_launched(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        d_match, _ = gpu_match(dev, d_csr, medium_graph, 256, "hem", np.random.default_rng(0))
        gpu_build_cmap(dev, d_match, 256)
        for name in (
            "coarsen.cmap_mark",
            "coarsen.cmap.inclusive_scan",
            "coarsen.cmap_subtract",
            "coarsen.cmap_final",
        ):
            assert name in dev.stats.kernels, name

    def test_identity_matching(self, dev):
        d_match = dev.adopt(np.arange(10), label="m")
        d_cmap, n = gpu_build_cmap(dev, d_match, 10)
        assert n == 10
        assert np.array_equal(d_cmap.data, np.arange(10))


def reference_contract(graph, match, cmap, n_coarse, strategy):
    """Each coarse vertex's lists merged by a CUDA thread's hash table or
    sort-dedup loop, run for real."""
    ids = np.arange(graph.num_vertices, dtype=np.int64)
    reps = ids[ids <= match]
    counts = np.zeros(n_coarse, dtype=np.int64)
    nbr_chunks: list[np.ndarray] = []
    wgt_chunks: list[np.ndarray] = []
    vwgt = np.zeros(n_coarse, dtype=np.int64)
    max_deg = int(graph.degrees().max(initial=1))
    for v in reps:
        u = int(match[v])
        c = int(cmap[v])
        lists = [graph.neighbors(int(v))]
        wlists = [graph.edge_weights(int(v))]
        vwgt[c] = int(graph.vwgt[v])
        if u != v:
            lists.append(graph.neighbors(u))
            wlists.append(graph.edge_weights(u))
            vwgt[c] += int(graph.vwgt[u])
        mapped = [cmap[x] for x in lists]
        keep = [m != c for m in mapped]
        mapped = [m[kk] for m, kk in zip(mapped, keep)]
        wl = [w[kk] for w, kk in zip(wlists, keep)]
        if strategy == "hash":
            merged_n, merged_w = reference_hash_merge(mapped, wl, capacity=2 * max_deg + 1)
        else:
            merged_n, merged_w = reference_sort_merge(mapped, wl)
        counts[c] = merged_n.shape[0]
        nbr_chunks.append(merged_n)
        wgt_chunks.append(merged_w)
    adjp = np.zeros(n_coarse + 1, dtype=np.int64)
    np.cumsum(counts, out=adjp[1:])
    adjncy = np.concatenate(nbr_chunks) if nbr_chunks else np.empty(0, np.int64)
    adjwgt = np.concatenate(wgt_chunks) if wgt_chunks else np.empty(0, np.int64)
    return CSRGraph(adjp=adjp, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt)


@pytest.mark.parametrize("strategy", ["hash", "sort"])
@pytest.mark.parametrize("impl", ["vectorized", "reference"])
class TestGpuContract:
    """The device pipeline ("vectorized") and the per-thread merges
    ("reference") both give serial contract()'s coarse graph."""

    def test_matches_serial_contraction(self, dev, medium_graph, strategy, impl):
        d_csr = to_device(dev, medium_graph)
        d_match, _ = gpu_match(dev, d_csr, medium_graph, 256, "hem", np.random.default_rng(0))
        d_cmap, n_coarse = gpu_build_cmap(dev, d_match, 256)
        if impl == "reference":
            got = reference_contract(
                medium_graph, d_match.data, d_cmap.data, n_coarse, strategy
            )
        else:
            out = gpu_contract(
                dev, d_csr, medium_graph, d_match, d_cmap, n_coarse, 256,
                merge_strategy=strategy,
            )
            assert out.merge_strategy_used == strategy
            got = out.coarse
        expect, _ = contract(medium_graph, d_match.data)
        assert np.array_equal(got.adjp, expect.adjp)
        assert np.array_equal(got.adjncy, expect.adjncy)
        assert np.array_equal(got.adjwgt, expect.adjwgt)
        assert np.array_equal(got.vwgt, expect.vwgt)


class TestContractMemoryBehaviour:
    def test_temporaries_freed(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        before = dev.allocated_bytes
        d_match, _ = gpu_match(dev, d_csr, medium_graph, 256, "hem", np.random.default_rng(0))
        d_cmap, n_coarse = gpu_build_cmap(dev, d_match, 256)
        out = gpu_contract(dev, d_csr, medium_graph, d_match, d_cmap, n_coarse, 256)
        # Only match, cmap and the coarse CSR remain allocated.
        expected = (
            before
            + d_match.nbytes
            + d_cmap.nbytes
            + sum(d.nbytes for d in out.d_coarse.values())
        )
        assert dev.allocated_bytes == expected

    def test_scan_offsets_size_staging(self, dev, grid):
        d_csr = to_device(dev, grid)
        d_match, _ = gpu_match(dev, d_csr, grid, 64, "hem", np.random.default_rng(0))
        d_cmap, n_coarse = gpu_build_cmap(dev, d_match, 64)
        out = gpu_contract(dev, d_csr, grid, d_match, d_cmap, n_coarse, 64)
        # Max entries bound the actual merged entries.
        assert out.coarse.num_directed_edges <= grid.num_directed_edges


class TestGpuProjection:
    def test_matches_indexing(self, dev):
        coarse_part = dev.adopt(np.array([3, 1, 2]), label="cp")
        cmap = dev.adopt(np.array([0, 0, 1, 2, 2, 1]), label="cm")
        d_fine = gpu_project(dev, coarse_part, cmap, 6, 6)
        assert d_fine.data.tolist() == [3, 3, 1, 2, 2, 1]


class TestGpuRefinement:
    def test_improves_and_balances(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        rng = np.random.default_rng(0)
        part = rng.integers(0, 4, medium_graph.num_vertices)
        d_part = dev.adopt(part.copy(), label="part")
        before = edge_cut(medium_graph, part)
        gpu_refine_level(dev, d_csr, medium_graph, d_part, 4, 1.05, 4, 256)
        after = edge_cut(medium_graph, d_part.data)
        assert after <= before
        assert imbalance(medium_graph, d_part.data, 4) <= 1.06

    def test_kernel_trio_launched(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        part = np.arange(medium_graph.num_vertices) % 4
        d_part = dev.adopt(part.copy(), label="part")
        gpu_refine_level(dev, d_csr, medium_graph, d_part, 4, 1.05, 2, 256)
        for name in ("uncoarsen.boundary_gain", "uncoarsen.request", "uncoarsen.explore"):
            assert name in dev.stats.kernels, name

    def test_atomic_requests_counted(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        rng = np.random.default_rng(1)
        part = rng.integers(0, 4, medium_graph.num_vertices)
        d_part = dev.adopt(part.copy(), label="part")
        gpu_refine_level(dev, d_csr, medium_graph, d_part, 4, 1.05, 2, 256)
        assert dev.stats.kernel("uncoarsen.request").atomic_ops > 0
