"""Unit tests for the simulated device: memory manager + kernel launcher."""

import dataclasses

import numpy as np
import pytest

import repro.gpusim.device as device_module
from repro.exceptions import DeviceMemoryError, KernelLaunchError
from repro.gpusim import AccessPattern, Device, d2h, h2d
from repro.runtime.clock import SimClock
from repro.runtime.machine import GpuSpec, InterconnectSpec, PAPER_MACHINE


@pytest.fixture
def dev(clock):
    return Device(PAPER_MACHINE.gpu, clock)


@pytest.fixture
def tiny_dev(clock):
    return Device(GpuSpec(memory_bytes=1024), clock)


class TestMemoryManager:
    def test_alloc_zeroed(self, dev):
        a = dev.alloc(10, np.int64)
        assert a.data.tolist() == [0] * 10
        assert dev.allocated_bytes == 80

    def test_capacity_enforced(self, tiny_dev):
        tiny_dev.alloc(100, np.int64)  # 800 B
        with pytest.raises(DeviceMemoryError, match="OOM"):
            tiny_dev.alloc(100, np.int64)

    def test_free_returns_capacity(self, tiny_dev):
        a = tiny_dev.alloc(100, np.int64)
        a.free()
        tiny_dev.alloc(100, np.int64)  # fits again

    def test_double_free_rejected(self, dev):
        a = dev.alloc(4)
        a.free()
        with pytest.raises(DeviceMemoryError, match="double free"):
            a.free()

    def test_use_after_free_rejected(self, dev):
        a = dev.alloc(4)
        a.free()
        with pytest.raises(DeviceMemoryError, match="use-after-free"):
            with dev.kernel("k", 1) as k:
                k.stream_read(a)

    def test_peak_memory_tracked(self, dev):
        a = dev.alloc(1000)
        b = dev.alloc(1000)
        a.free()
        b.free()
        assert dev.stats.peak_memory_bytes == 16000

    def test_free_bytes(self, tiny_dev):
        tiny_dev.alloc(10, np.int64)
        assert tiny_dev.free_bytes == 1024 - 80


class TestKernelLaunch:
    def test_launch_overhead_charged(self, dev, clock):
        with dev.kernel("k", 100):
            pass
        assert clock.seconds_for(category="launch") == pytest.approx(
            dev.spec.kernel_launch_seconds
        )

    def test_invalid_thread_count(self, dev):
        with pytest.raises(KernelLaunchError):
            dev.kernel("k", 0)

    def test_stats_per_kernel_name(self, dev):
        for _ in range(3):
            with dev.kernel("my.kernel", 64) as k:
                k.compute(10)
        ks = dev.stats.kernel("my.kernel")
        assert ks.launches == 3
        assert ks.compute_ops == 30
        assert dev.stats.total_launches == 3

    def test_failed_kernel_not_committed(self, dev):
        with pytest.raises(RuntimeError):
            with dev.kernel("bad", 10) as k:
                k.compute(5)
                raise RuntimeError("boom")
        assert "bad" not in dev.stats.kernels

    def test_memory_vs_compute_roofline(self, clock):
        gpu = GpuSpec(compute_ops_per_sec=1.0)  # absurdly slow ALUs
        dev = Device(gpu, clock)
        with dev.kernel("k", gpu.saturation_threads) as k:
            k.compute(10)
        # 10 ops at 1 op/s dominate: body ~ 10 s (full occupancy).
        assert clock.seconds_for(category="compute") == pytest.approx(10.0)

    def test_low_occupancy_slows_kernel(self, clock):
        gpu = GpuSpec()
        dev = Device(gpu, clock)
        with dev.kernel("small", 32) as k:
            k.compute(1e6)
        with dev.kernel("big", gpu.saturation_threads) as k:
            k.compute(1e6)
        assert (
            dev.stats.kernel("small").seconds > dev.stats.kernel("big").seconds
        )


class TestAccessAccounting:
    def test_stream_read_returns_data(self, dev):
        a = dev.adopt(np.arange(8), label="a")
        with dev.kernel("k", 8) as k:
            vals = k.stream_read(a)
        assert vals.tolist() == list(range(8))

    def test_gather_semantics(self, dev):
        a = dev.adopt(np.arange(100) * 2)
        with dev.kernel("k", 4) as k:
            out = k.gather(a, np.array([3, 1, 4, 1]))
        assert out.tolist() == [6, 2, 8, 2]

    def test_scatter_semantics(self, dev):
        a = dev.alloc(10, np.int64)
        with dev.kernel("k", 3) as k:
            k.scatter(a, np.array([9, 0, 5]), np.array([1, 2, 3]))
        assert a.data[9] == 1 and a.data[0] == 2 and a.data[5] == 3

    def test_coalesced_gather_cheap(self, dev):
        a = dev.adopt(np.zeros(1 << 14, dtype=np.int64))
        with dev.kernel("seq", 1024) as k:
            k.gather(a, np.arange(1024))
        with dev.kernel("rnd", 1024) as k:
            k.gather(a, np.random.default_rng(0).permutation(1 << 14)[:1024])
        seq = dev.stats.kernel("seq")
        rnd = dev.stats.kernel("rnd")
        assert seq.memory_transactions < rnd.memory_transactions / 5
        assert seq.seconds < rnd.seconds

    def test_atomics_charged(self, dev, clock):
        a = dev.alloc(10)
        with dev.kernel("k", 100) as k:
            k.atomic(100, distinct_targets=1)
        assert clock.seconds_for(category="atomic") > 0
        # Same op count spread over many targets is cheaper.
        clock2 = SimClock()
        dev2 = Device(PAPER_MACHINE.gpu, clock2)
        with dev2.kernel("k", 100) as k:
            k.atomic(100, distinct_targets=100)
        assert clock2.seconds_for(category="atomic") < clock.seconds_for(category="atomic")


class TestAccessPatterns:
    """Every count goes through ``repro.gpusim.device.warp_transactions``,
    the binding a profiler wraps to time the simulator's accounting; a
    pattern is counted there once per item size."""

    @pytest.fixture
    def counted(self, monkeypatch):
        itemsizes = []
        real = device_module.warp_transactions

        def counting(indices, itemsize, *args):
            itemsizes.append(itemsize)
            return real(indices, itemsize, *args)

        monkeypatch.setattr(device_module, "warp_transactions", counting)
        return itemsizes

    def test_pattern_counted_once_per_itemsize(self, dev, counted):
        pattern = AccessPattern(np.array([7, 0, 3, 900, 5] * 20))
        a64 = dev.alloc(1000, np.int64)
        a32 = dev.alloc(1000, np.int32)
        with dev.kernel("k", 32) as k:
            k.gather(a64, pattern)
            k.scatter(a64, pattern, 1)
        assert counted == [8]
        with dev.kernel("k", 32) as k:
            k.gather(a32, pattern)
            k.gather(a64, pattern)
            k.gather(a32, pattern)
        assert counted == [8, 4]

    def test_plain_array_counted_per_access(self, dev, counted):
        idx = np.array([7, 0, 3, 900, 5] * 20)
        a64 = dev.alloc(1000, np.int64)
        with dev.kernel("k", 32) as k:
            k.gather(a64, idx)
            k.gather(a64, idx)
            k.scatter(a64, idx, 1)
        assert counted == [8, 8, 8]

    def test_pattern_charges_what_the_array_charges(self, dev):
        idx = np.random.default_rng(1).integers(0, 1 << 17, 5000)
        big = dev.alloc(1 << 17, np.int64)  # beyond L2: random traffic
        small = dev.alloc(1 << 13, np.int32)  # fits L2: cached traffic
        small_idx = idx % small.size
        pattern, small_pattern = AccessPattern(idx), AccessPattern(small_idx)
        with dev.kernel("array", 256) as k:
            k.gather(big, idx)
            k.scatter(big, idx, 0)
            k.gather(small, small_idx)
        with dev.kernel("pattern", 256) as k:
            k.gather(big, pattern)
            k.scatter(big, pattern, 0)
            k.gather(small, small_pattern)
        array, charged = (
            {f: v for f, v in dataclasses.asdict(dev.stats.kernel(name)).items() if f != "name"}
            for name in ("array", "pattern")
        )
        assert charged == array
        assert array["random_transactions"] > 0
        assert array["cached_transactions"] > 0


class TestTransfers:
    def test_h2d_copies_and_charges(self, dev, clock):
        host = np.arange(1000)
        d = h2d(dev, host, InterconnectSpec(), label="x")
        assert np.array_equal(d.data, host)
        assert clock.seconds_for(category="transfer_latency") > 0
        host[0] = 99  # device copy is isolated
        assert d.data[0] == 0

    def test_d2h_roundtrip(self, dev):
        host = np.arange(64)
        d = h2d(dev, host, InterconnectSpec())
        back = d2h(d, InterconnectSpec())
        assert np.array_equal(back, host)
        assert dev.stats.d2h_transfers == 1

    def test_transfer_respects_capacity(self, tiny_dev):
        with pytest.raises(DeviceMemoryError):
            h2d(tiny_dev, np.zeros(10_000), InterconnectSpec())
