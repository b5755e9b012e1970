"""Differential tests: ``warp_transactions`` and ``AccessPattern`` against
the sort-every-warp count they replaced.

``reference_warp_transactions`` is the former implementation, kept
verbatim as the oracle: it sorts every warp's block ids.  The program's
version shifts where ``block_bytes / itemsize`` is a power of two and
sorts only the warps whose block ids descend somewhere; every count must
match the oracle's exactly, because the counts feed each kernel's
transactions, modeled seconds and ledger records.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
import repro.gpusim.device as device_module
from repro.graphs import generators
from repro.gpusim import AccessPattern, Device
from repro.gpusim.memory import warp_transactions
from repro.runtime.machine import PAPER_MACHINE


def reference_warp_transactions(
    indices: np.ndarray, itemsize: int, warp_size: int = 32, block_bytes: int = 128
) -> int:
    """Number of 128-byte transactions for a warp-ordered gather/scatter.

    ``indices[i]`` is the element index accessed by logical thread ``i``;
    threads are grouped into warps of ``warp_size`` consecutive ids.  The
    count is the sum over warps of distinct touched blocks — the rule the
    paper's Fig. 2 illustrates.
    """
    idx = np.asarray(indices)
    n = idx.shape[0]
    if n == 0:
        return 0
    blocks = (idx.astype(np.int64) * itemsize) // block_bytes
    pad = (-n) % warp_size
    if pad:
        blocks = np.concatenate([blocks, np.full(pad, blocks[-1], dtype=np.int64)])
    per_warp = blocks.reshape(-1, warp_size)
    per_warp = np.sort(per_warp, axis=1)
    distinct = 1 + np.count_nonzero(np.diff(per_warp, axis=1), axis=1)
    txns = int(distinct.sum())
    if pad:
        # Padding duplicated the final element; it cannot have added blocks,
        # but a partially-filled final warp still costs its distinct blocks.
        pass
    return txns


ITEMSIZES = (1, 2, 4, 8, 12, 16, 256)
WARP_SIZES = (32, 16, 7)
BLOCK_BYTES = (128, 96, 64)
LENGTHS = (0, 1, 31, 32, 33, 1000)
KINDS = ("random", "sorted", "nearly_sorted", "constant", "duplicates", "negative")


def make_indices(kind: str, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.integers(0, 5000, n)
    if kind == "sorted":
        return np.sort(rng.integers(0, 5000, n))
    if kind == "nearly_sorted":
        # Sorted runs of 1-60 indices; most run boundaries step down.
        cuts = np.cumsum(rng.integers(1, 61, n))
        runs = np.split(rng.integers(0, 5000, n), cuts[cuts < n])
        return np.concatenate([np.sort(run) for run in runs])
    if kind == "constant":
        return np.full(n, 4097)
    if kind == "duplicates":
        return rng.choice(rng.integers(0, 3000, 6), size=n)
    if kind == "negative":
        return rng.integers(-5000, 5000, n)
    raise ValueError(kind)


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("kind", KINDS)
def test_counts_match_oracle(kind, n):
    idx = make_indices(kind, n, seed=n)
    mismatches = [
        (itemsize, warp, block)
        for itemsize in ITEMSIZES
        for warp in WARP_SIZES
        for block in BLOCK_BYTES
        if warp_transactions(idx, itemsize, warp, block)
        != reference_warp_transactions(idx, itemsize, warp, block)
    ]
    assert not mismatches, f"{kind} n={n}: (itemsize, warp, block) {mismatches}"


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
def test_index_dtypes_match_oracle(dtype):
    idx = make_indices("nearly_sorted", 1000, seed=3).astype(dtype)
    for itemsize in ITEMSIZES:
        assert warp_transactions(idx, itemsize) == reference_warp_transactions(
            idx, itemsize
        )


def _device_array(dev: Device, itemsize: int):
    """A 5000-element device array whose items are ``itemsize`` bytes."""
    return dev.alloc(5000, np.dtype(f"V{itemsize}"), label=f"items{itemsize}")


class TestAccessPattern:
    def test_count_matches_oracle_at_every_itemsize(self, clock):
        dev = Device(PAPER_MACHINE.gpu, clock)
        idx = make_indices("nearly_sorted", 1000, seed=5)
        pattern = AccessPattern(idx)
        spec = dev.spec
        arrays = [_device_array(dev, itemsize) for itemsize in ITEMSIZES]
        with dev.kernel("k", 64) as k:
            for darr in arrays + arrays:
                k.gather(darr, pattern)
        expected = {
            (size, spec.warp_size, spec.transaction_bytes): reference_warp_transactions(
                idx, size, spec.warp_size, spec.transaction_bytes
            )
            for size in ITEMSIZES
        }
        assert pattern.counts == expected
        assert dev.stats.kernels["k"].memory_transactions == 2 * sum(expected.values())

    def test_view_shares_the_source(self):
        src = np.arange(100, dtype=np.int64)
        pattern = AccessPattern(src)
        assert np.shares_memory(pattern.indices, src)
        assert pattern.indices.dtype == np.int64
        # The source itself stays writable; only the view is frozen.
        assert src.flags.writeable

    def test_indices_are_read_only(self):
        pattern = AccessPattern(np.arange(10, dtype=np.int64))
        with pytest.raises(ValueError, match="read-only"):
            pattern.indices[0] = 7

    def test_other_dtypes_become_int64(self):
        pattern = AccessPattern(np.arange(10, dtype=np.int32))
        assert pattern.indices.dtype == np.int64
        assert pattern.indices.tolist() == list(range(10))


def _kernel_fields(result) -> dict:
    return {
        name: dataclasses.astuple(stats)
        for name, stats in result.extras["device_stats"].kernels.items()
    }


@pytest.fixture(scope="module")
def gpu_graphs():
    # More than 64 * 64 vertices, so k = 64 runs one GPU level too.
    return {
        "delaunay": generators.delaunay(4500, seed=2),
        "fe": generators.fe_matrix(4500, avg_degree=24, seed=2),
    }


@pytest.mark.parametrize("async_streams", [True, False])
@pytest.mark.parametrize("k", [7, 64])
@pytest.mark.parametrize("graph_name", ["delaunay", "fe"])
def test_gpmetis_kernel_stats_match_oracle(
    gpu_graphs, graph_name, k, async_streams, monkeypatch
):
    graph = gpu_graphs[graph_name]
    options = dict(seed=1, gpu_threshold_min=256, async_streams=async_streams)
    fast = repro.partition(graph, k, method="gp-metis", **options)
    assert fast.extras["gpu_levels"] >= 1
    monkeypatch.setattr(
        device_module, "warp_transactions", reference_warp_transactions
    )
    oracle = repro.partition(graph, k, method="gp-metis", **options)
    assert np.array_equal(fast.part, oracle.part)
    assert repr(fast.modeled_seconds) == repr(oracle.modeled_seconds)
    assert _kernel_fields(fast) == _kernel_fields(oracle)
