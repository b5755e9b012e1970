"""One-pass lockstep schedule against the per-batch oracle.

``ThreadPoolSim.lockstep_batches`` used to fancy-index a new array for
every batch: batch ``j`` gathered the ``j``-th item of every thread
whose worklist is longer than ``j``.  The generator below is that
implementation, kept verbatim as the oracle: the one-pass schedule must
yield the same batches, in the same order, with the same contents.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.runtime.clock import SimClock
from repro.runtime.machine import CpuSpec
from repro.runtime.threads import ThreadPoolSim, block_ownership, cyclic_ownership


def oracle_lockstep_batches(num_threads, items, ownership):
    items = np.asarray(items, dtype=np.int64)
    ownership = np.asarray(ownership, dtype=np.int64)
    if items.shape != ownership.shape:
        raise InvalidParameterError("items and ownership must align")
    if items.size == 0:
        return
    order = np.argsort(ownership, kind="stable")
    sorted_items = items[order]
    sorted_owner = ownership[order]
    counts = np.bincount(sorted_owner, minlength=num_threads)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    max_len = int(counts.max(initial=0))
    for j in range(max_len):
        has = counts > j
        yield sorted_items[starts[has] + j]


def pool_of(num_threads):
    return ThreadPoolSim(num_threads, CpuSpec(), SimClock())


def assert_same_batches(num_threads, items, ownership):
    got = list(pool_of(num_threads).lockstep_batches(items, ownership))
    want = list(oracle_lockstep_batches(num_threads, items, ownership))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()
    return got


class TestMatchesOracle:
    @pytest.mark.parametrize("seed", range(300))
    def test_random_worklists(self, seed):
        rng = np.random.default_rng(seed)
        num_threads = int(rng.integers(1, 17))
        n = int(rng.integers(0, 200))
        # Items are any ids in any order; some threads may own nothing.
        items = rng.choice(4 * n + 1, size=n, replace=False)
        owners = int(rng.integers(1, num_threads + 1))
        ownership = rng.integers(0, owners, n)
        assert_same_batches(num_threads, items, ownership)

    @pytest.mark.parametrize("num_threads", [1, 3, 8, 16])
    def test_engine_ownerships(self, num_threads):
        # mt-metis's block map over all vertices, then a retry round over
        # a scattered subset of them; the GPU's cyclic map.
        n = 1000
        block = block_ownership(n, num_threads)
        assert_same_batches(num_threads, np.arange(n), block)
        subset = np.flatnonzero(np.random.default_rng(num_threads).random(n) < 0.1)
        assert_same_batches(num_threads, subset, block[subset])
        assert_same_batches(num_threads, np.arange(n), cyclic_ownership(n, num_threads))

    def test_every_item_once_in_thread_order(self):
        own = np.array([2, 0, 2, 1, 0, 2])
        batches = assert_same_batches(3, np.arange(6), own)
        assert [b.tolist() for b in batches] == [[1, 3, 0], [4, 2], [5]]


class TestContract:
    def test_misaligned_inputs_rejected(self):
        with pytest.raises(InvalidParameterError, match="align"):
            list(pool_of(4).lockstep_batches(np.arange(3), np.zeros(4, np.int64)))

    def test_empty_input_yields_nothing(self):
        empty = np.empty(0, np.int64)
        assert list(pool_of(4).lockstep_batches(empty, empty)) == []
