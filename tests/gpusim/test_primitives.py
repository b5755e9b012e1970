"""Unit + property tests for scans, SIMT, atomics, sort, hash."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    ClusteredHashTable,
    Device,
    atomic_append,
    divergence_factor,
    exclusive_scan,
    grid_for,
    hash_table_bytes,
    inclusive_scan,
    thread_sort_dedup,
    threads_for_items,
    warp_divergent_ops,
)
from repro.runtime.clock import SimClock
from repro.runtime.machine import PAPER_MACHINE


@pytest.fixture
def dev(clock):
    return Device(PAPER_MACHINE.gpu, clock)


class TestScans:
    def test_inclusive_matches_cumsum(self, dev):
        a = dev.adopt(np.arange(1, 100))
        out = inclusive_scan(dev, a)
        assert np.array_equal(out.data, np.cumsum(np.arange(1, 100)))

    def test_exclusive_matches_shifted_cumsum(self, dev):
        vals = np.array([3, 1, 4, 1, 5])
        out = exclusive_scan(dev, dev.adopt(vals.copy()))
        assert out.data.tolist() == [0, 3, 4, 8, 9]

    def test_total_recoverable_from_exclusive(self, dev):
        vals = np.array([2, 2, 2])
        d = dev.adopt(vals.copy())
        out = exclusive_scan(dev, d)
        # The paper sizes temp arrays as last-exclusive + last-input.
        assert int(out.data[-1] + d.data[-1]) == 6

    def test_single_element(self, dev):
        out = inclusive_scan(dev, dev.adopt(np.array([7])))
        assert out.data.tolist() == [7]

    def test_scan_charges_two_passes(self, dev, clock):
        n = 1 << 16
        inclusive_scan(dev, dev.adopt(np.ones(n, dtype=np.int64)))
        k = dev.stats.kernel("scan.inclusive_scan")
        # ~2n elements of traffic = 2 * n * 8 / 128 transactions.
        assert k.memory_transactions == pytest.approx(2 * n * 8 / 128, rel=0.01)

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_scan_property(self, vals):
        clock = SimClock()
        dev = Device(PAPER_MACHINE.gpu, clock)
        arr = np.array(vals, dtype=np.int64)
        inc = inclusive_scan(dev, dev.adopt(arr.copy()))
        exc = exclusive_scan(dev, dev.adopt(arr.copy()))
        assert np.array_equal(inc.data, np.cumsum(arr))
        assert np.array_equal(exc.data[1:], np.cumsum(arr)[:-1])


class TestSimt:
    def test_uniform_work_no_penalty(self):
        ops = np.full(64, 10.0)
        assert warp_divergent_ops(ops) == pytest.approx(640.0)
        assert divergence_factor(ops) == pytest.approx(1.0)

    def test_single_long_thread_stalls_warp(self):
        ops = np.zeros(32)
        ops[0] = 100.0
        assert warp_divergent_ops(ops) == pytest.approx(3200.0)
        assert divergence_factor(ops) == pytest.approx(32.0)

    def test_padding_does_not_add_work(self):
        assert warp_divergent_ops(np.array([4.0])) == pytest.approx(128.0)

    def test_empty(self):
        assert warp_divergent_ops(np.empty(0)) == 0.0
        assert divergence_factor(np.empty(0)) == 1.0

    def test_grid_for(self):
        assert grid_for(1000, block_size=256) == (4, 256)
        assert grid_for(0) == (0, 256)

    def test_threads_for_items_caps(self):
        assert threads_for_items(100, 1 << 15) == 100
        assert threads_for_items(10**9, 1 << 15) == 1 << 15
        assert threads_for_items(0, 64) == 1


class TestAtomics:
    def test_slot_assignment_thread_order(self, dev):
        with dev.kernel("k", 6) as k:
            slots = atomic_append(k, np.array([0, 1, 0, 0, 1, 2]), 3)
        assert slots.tolist() == [0, 0, 1, 2, 1, 0]

    def test_slots_are_exclusive(self, dev):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 7, 500)
        with dev.kernel("k", 500) as k:
            slots = atomic_append(k, ids, 7)
        for b in range(7):
            got = np.sort(slots[ids == b])
            assert np.array_equal(got, np.arange(got.shape[0]))

    def test_empty(self, dev):
        with dev.kernel("k", 1) as k:
            slots = atomic_append(k, np.empty(0, np.int64), 4)
        assert slots.size == 0


class TestSortDedup:
    def test_merges_duplicates(self):
        v, w = thread_sort_dedup(np.array([3, 1, 3, 2]), np.array([1, 1, 5, 1]))
        assert v.tolist() == [1, 2, 3]
        assert w.tolist() == [1, 1, 6]

    def test_empty(self):
        v, w = thread_sort_dedup(np.empty(0, np.int64), np.empty(0, np.int64))
        assert v.size == 0

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 9)), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_accumulation(self, pairs):
        keys = np.array([p[0] for p in pairs], dtype=np.int64)
        vals = np.array([p[1] for p in pairs], dtype=np.int64)
        v, w = thread_sort_dedup(keys, vals)
        expected = {}
        for k_, x in pairs:
            expected[k_] = expected.get(k_, 0) + x
        assert dict(zip(v.tolist(), w.tolist())) == expected


class TestHashTable:
    def test_insert_and_get(self):
        t = ClusteredHashTable(8)
        t.insert_or_add(5, 10)
        t.insert_or_add(5, 3)
        t.insert_or_add(13, 1)  # collides with 5 mod 8
        assert t.get(5) == 13
        assert t.get(13) == 1
        assert t.get(99) is None
        assert t.collisions >= 1

    def test_items_sorted(self):
        t = ClusteredHashTable(4)
        for k_ in (9, 2, 7, 0):
            t.insert_or_add(k_, 1)
        keys, vals = t.items()
        assert keys.tolist() == [0, 2, 7, 9]
        assert vals.tolist() == [1, 1, 1, 1]

    def test_clear(self):
        t = ClusteredHashTable(4)
        t.insert_or_add(1, 1)
        t.clear()
        assert t.entries == 0
        assert t.get(1) is None

    def test_capacity_one_chains_everything(self):
        t = ClusteredHashTable(1)
        for k_ in range(10):
            t.insert_or_add(k_, k_)
        keys, vals = t.items()
        assert keys.tolist() == list(range(10))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ClusteredHashTable(0)

    def test_footprint_formula(self):
        assert hash_table_bytes(1000, 64) == 1000 * 64 * 16

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 5)), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_equivalent_to_sort_dedup(self, pairs):
        t = ClusteredHashTable(7)
        for k_, v in pairs:
            t.insert_or_add(k_, v)
        hk, hv = t.items()
        sk, sv = thread_sort_dedup(
            np.array([p[0] for p in pairs], dtype=np.int64),
            np.array([p[1] for p in pairs], dtype=np.int64),
        )
        assert np.array_equal(hk, sk)
        assert np.array_equal(hv, sv)
