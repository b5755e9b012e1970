"""Unit tests for Stream/Event async copies on the simulated device.

The model is eager-data / deferred-time: an async copy moves its bytes
at enqueue (so results never depend on the schedule) while the PCIe cost
lands on the stream's track, to be folded into wall time only at a
synchronize.  Events are points on a stream's timeline; ``wait`` is
``cudaStreamWaitEvent`` (an idle gap, nothing charged).  The device's
host stream runs the same copies and launches on the host cursor.
"""

import numpy as np
import pytest

from repro.exceptions import KernelAbortError, TransferError
from repro.faults import FaultPlan, FaultSpec, attach_injector
from repro.gpusim import Device
from repro.gpusim.transfer import d2h_async, h2d_async
from repro.runtime.clock import SimClock
from repro.runtime.machine import PAPER_MACHINE

NET = PAPER_MACHINE.interconnect


@pytest.fixture
def clock():
    c = SimClock()
    c.set_phase("test")
    return c


@pytest.fixture
def dev(clock):
    return Device(PAPER_MACHINE.gpu, clock)


class TestAsyncCopies:
    def test_h2d_data_lands_at_enqueue(self, dev):
        host = np.arange(1000, dtype=np.int64)
        darr, ev = h2d_async(dev.stream("copy"), host, NET)
        np.testing.assert_array_equal(darr.data, host)
        assert ev.time > 0.0
        assert dev.clock.total_seconds == 0.0  # host did not block

    def test_d2h_roundtrip(self, dev):
        host = np.arange(500, dtype=np.int64)
        s = dev.stream("copy")
        darr, _ = h2d_async(s, host, NET)
        out, ev = d2h_async(s, darr, NET)
        ev.synchronize()
        np.testing.assert_array_equal(out, host)

    def test_copies_serialize_on_one_stream(self, dev):
        s = dev.stream("copy")
        _, ev1 = h2d_async(s, np.zeros(1000, dtype=np.int64), NET)
        _, ev2 = h2d_async(s, np.zeros(1000, dtype=np.int64), NET)
        assert ev2.time == pytest.approx(2 * ev1.time)

    def test_stream_wait_orders_cross_stream(self, dev):
        copy, compute = dev.stream("copy"), dev.stream("compute")
        _, ev = h2d_async(copy, np.zeros(4000, dtype=np.int64), NET)
        compute.wait(ev)
        assert compute.cursor == pytest.approx(ev.time)
        # The gap is idle, not charged.
        assert dev.clock.busy_seconds == pytest.approx(
            NET.pcie_seconds(4000 * 8))

    def test_synchronize_folds_into_wall(self, dev):
        s = dev.stream("copy")
        _, ev = h2d_async(s, np.zeros(4000, dtype=np.int64), NET)
        s.synchronize()
        assert dev.clock.total_seconds == pytest.approx(ev.time)

    def test_stats_counted(self, dev):
        s = dev.stream("copy")
        darr, _ = h2d_async(s, np.zeros(100, dtype=np.int64), NET)
        d2h_async(s, darr, NET)
        assert dev.stats.h2d_transfers == 1
        assert dev.stats.d2h_transfers == 1
        assert dev.stats.h2d_bytes == dev.stats.d2h_bytes == 800


class TestKernelsOnStreams:
    def test_kernel_lands_on_default_stream(self, dev):
        compute = dev.stream("compute")
        dev.default_stream = compute
        with dev.kernel("k", 256) as k:
            a = dev.alloc(256, np.int64)
            k.stream_write(a, np.ones(256, dtype=np.int64))
        assert compute.cursor > 0.0
        assert dev.clock.total_seconds == 0.0  # async launch

    def test_kernel_after_copy_event(self, dev):
        copy, compute = dev.stream("copy"), dev.stream("compute")
        dev.default_stream = compute
        darr, ev = h2d_async(copy, np.arange(2048, dtype=np.int64), NET)
        compute.wait(ev)
        with dev.kernel("k", 2048) as k:
            k.stream_read(darr)
        assert compute.cursor > ev.time


class TestInjectedAsyncFaults:
    def _plan(self):
        return FaultPlan(specs=(
            FaultSpec("transfer.h2d", "fail", probability=1.0, max_fires=1),
        ))

    def test_transient_fail_retries_on_track(self, clock, dev):
        attach_injector(clock, self._plan())
        host = np.arange(1000, dtype=np.int64)
        darr, _ = h2d_async(dev.stream("copy"), host, NET)
        np.testing.assert_array_equal(darr.data, host)  # retry recovered
        # The burned first attempt plus the successful copy both sit on
        # the track: strictly more than one clean copy's time.
        clock.sync_tracks()
        assert clock.total_seconds > NET.pcie_seconds(8000)

    def test_exhausted_retries_escape_at_enqueue(self, clock, dev):
        attach_injector(clock, FaultPlan(specs=(
            FaultSpec("transfer.h2d", "fail", probability=1.0, max_fires=0),
        )))
        with pytest.raises(TransferError):
            h2d_async(dev.stream("copy"), np.zeros(10, dtype=np.int64), NET)

    def test_deterministic_schedule(self):
        def run():
            c = SimClock()
            c.set_phase("t")
            attach_injector(c, self._plan())
            d = Device(PAPER_MACHINE.gpu, c)
            h2d_async(d.stream("copy"), np.arange(64, dtype=np.int64), NET)
            c.sync_tracks()
            return c.total_seconds

        assert run() == run()


class TestKernelWatchdog:
    """A ``kernel.launch`` timeout burns its watchdog interval where the
    launch runs: on an asynchronous stream's track, not the host's."""

    def _timeout_once(self, clock):
        attach_injector(clock, FaultPlan(specs=(
            FaultSpec("kernel.launch", "timeout", seconds=0.5,
                      probability=1.0, max_fires=1),
        )))

    def test_timeout_on_a_stream_charges_its_track(self, clock, dev):
        self._timeout_once(clock)
        compute = dev.stream("compute")
        with pytest.raises(KernelAbortError):
            with dev.kernel("k", 256, stream=compute):
                pass
        (event,) = clock.events
        assert (event.category, event.seconds) == ("launch", 0.5)
        assert event.track == compute.track
        assert clock.total_seconds == 0.0  # the host did not block
        assert compute.cursor == 0.5
        compute.synchronize()
        assert clock.total_seconds == 0.5

    def test_timeout_on_the_host_stream_charges_the_host(self, clock, dev):
        self._timeout_once(clock)
        with pytest.raises(KernelAbortError):
            with dev.kernel("k", 256):
                pass
        (event,) = clock.events
        assert (event.category, event.seconds, event.track) == ("launch", 0.5, "")
        assert clock.total_seconds == 0.5


def _copy_and_launch(dev, stream):
    """One H2D copy and one kernel launch, both on ``stream``; returns the
    copy's completion event."""
    darr, ev = h2d_async(stream, np.arange(2048, dtype=np.int64), NET, label="x")
    stream.wait(ev)
    with dev.kernel("k", 2048, stream=stream) as k:
        k.stream_read(darr)
    return ev


class TestHostStream:
    def test_copy_and_launch_charge_the_host_like_simclock(self, clock, dev):
        ev = _copy_and_launch(dev, dev.host)
        # The same work on an asynchronous stream gives the costs; on the
        # host stream each must be exactly a SimClock.charge of it.
        other = Device(PAPER_MACHINE.gpu, SimClock())
        _copy_and_launch(other, other.stream("copy"))
        expected = SimClock()
        expected.set_phase("test")
        for e in other.clock.events:
            expected.charge(e.category, e.seconds, count=e.count, detail=e.detail)
            if e.category == "transfer_bytes":
                assert ev.time == expected.total_seconds  # the copy's end
        assert [e.category for e in expected.events] == [
            "transfer_latency", "transfer_bytes", "launch", "memory"]
        assert clock.events == expected.events
        assert all(e.track == "" and e.start == -1.0 for e in clock.events)
        assert clock.total_seconds == expected.total_seconds

    def test_kernels_default_to_the_host_stream(self, clock, dev):
        assert dev.default_stream is dev.host
        with dev.kernel("k", 256) as k:
            k.stream_write(dev.alloc(256, np.int64), np.ones(256, dtype=np.int64))
        assert clock.total_seconds > 0.0
        assert {e.track for e in clock.events} == {""}

    def test_host_wait_is_an_event_synchronize(self, clock, dev):
        _, ev = h2d_async(dev.stream("copy"), np.zeros(4000, dtype=np.int64), NET)
        dev.host.synchronize()  # nothing is in flight on the host stream
        assert clock.total_seconds == 0.0
        dev.host.wait(ev)
        assert clock.total_seconds == ev.time
        assert len(clock.events) == 2  # the copy's own charges, nothing more
