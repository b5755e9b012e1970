"""PCIe transfers between host and the simulated device.

The paper counts CPU<->GPU transfer time in GP-metis's runtime (Table II
note: "this time includes the time to transfer the graph between CPU and
the GPU"), and its central design point is *avoiding* most transfers by
keeping the fine levels on the GPU.  Transfers use the interconnect's
alpha-beta model.

Every copy runs on a stream (:mod:`repro.gpusim.streams`) and charges
it: :func:`h2d`/:func:`d2h` default to the device's blocking host stream
(``cudaMemcpy``), and :func:`h2d_async`/:func:`d2h_async` are the same
copies on a given stream plus an event that completes with them
(``cudaMemcpyAsync``).  Data moves eagerly either way; only the time
lands on the stream.

When a :class:`~repro.faults.FaultInjector` rides the device clock, each
copy becomes a *reliable* transfer: injected failures and corruptions
(caught by an end-to-end verify of the copied buffer against its source)
raise :class:`~repro.exceptions.TransferError`, and the copy is retried
under the standard backoff policy, on its own stream, before the error
escapes to the engine's degradation ladder.  Faults fire when the copy
is issued, so a plan that fails the third H2D copy fails it on either
schedule.  Without an injector the fast path is unchanged.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import TransferError
from ..faults.retry import with_retry
from ..runtime.machine import InterconnectSpec
from .device import Device
from .memory import DeviceArray
from .streams import Event, HostStream, Stream

__all__ = ["h2d", "d2h", "h2d_async", "d2h_async", "transfer_graph_to_device"]


def _corrupt(buf: np.ndarray, seed_parts) -> None:
    """Flip one element of the copied buffer, deterministically."""
    flat = buf.reshape(-1)
    if flat.size == 0:
        return
    idx = int(np.random.default_rng(seed_parts).integers(flat.size))
    flat[idx] = ~flat[idx] if np.issubdtype(flat.dtype, np.integer) else -flat[idx] - 1


def _fire_transfer_faults(stream, site: str, label: str, net: InterconnectSpec):
    """(injector, fired specs) for one copy attempt; hard failures raise
    after burning the wire latency on ``stream`` (the DMA engine started,
    then died)."""
    injector = stream.clock.injector
    if injector is None:
        return None, []
    fired = injector.fire(site, label)
    for spec in fired:
        if spec.kind == "fail":
            stream.charge(
                "transfer_latency", net.pcie_latency_seconds, count=1.0,
                detail=f"{label} (failed)",
            )
            injector.raise_for(spec, label)
    return injector, fired


def _charge_copy(
    stream, direction: str, label: str, nbytes: int, net: InterconnectSpec
) -> None:
    """Charge one copy's alpha-beta cost to ``stream`` and emit its span."""
    seconds = net.pcie_seconds(nbytes)
    start, _ = stream.charge(
        "transfer_latency", net.pcie_latency_seconds, count=1.0, detail=label
    )
    _, end = stream.charge(
        "transfer_bytes", seconds - net.pcie_latency_seconds,
        count=float(nbytes), detail=label,
    )
    stream.span(
        f"{direction}.{label}" if label else direction, start, end, "transfer",
        direction=direction, bytes=nbytes,
    )


def _h2d_once(
    dev: Device, stream, host: np.ndarray, net: InterconnectSpec, label: str
) -> DeviceArray:
    injector, fired = _fire_transfer_faults(stream, "transfer.h2d", label, net)
    darr = dev.adopt(host.copy(), label=label)
    _charge_copy(stream, "h2d", label, int(host.nbytes), net)
    dev.stats.h2d_transfers += 1
    dev.stats.h2d_bytes += int(host.nbytes)
    for spec in fired:
        if spec.kind == "corrupt":
            _corrupt(darr.data, [0xC0, injector.plan.seed, dev.stats.h2d_transfers])
    if fired and not np.array_equal(darr.data, host):
        # End-to-end verify caught the corruption: release the garbage
        # allocation and surface it as a failed (retryable) copy.
        darr.free()
        injector.raise_for(next(s for s in fired if s.kind == "corrupt"), label)
    return darr


def h2d(
    dev: Device,
    host: np.ndarray,
    net: InterconnectSpec,
    label: str = "",
    stream: Stream | HostStream | None = None,
) -> DeviceArray:
    """cudaMemcpy host->device: allocates and charges the PCIe model to
    ``stream`` (default: the device's host stream).

    Transient injected faults are retried with backoff on the same
    stream; the final error (or a device OOM, which retrying cannot fix)
    propagates.
    """
    stream = dev.host if stream is None else stream
    return with_retry(
        lambda: _h2d_once(dev, stream, host, net, label),
        dev.clock, "transfer.h2d", retryable=(TransferError,), detail=label,
        stream=stream,
    )


def _d2h_once(darr: DeviceArray, stream, net: InterconnectSpec, label: str) -> np.ndarray:
    darr._require_live()
    dev = darr.device
    injector, fired = _fire_transfer_faults(stream, "transfer.d2h", label, net)
    _charge_copy(stream, "d2h", label, int(darr.nbytes), net)
    dev.stats.d2h_transfers += 1
    dev.stats.d2h_bytes += int(darr.nbytes)
    out = darr.data.copy()
    for spec in fired:
        if spec.kind == "corrupt":
            _corrupt(out, [0xD2, injector.plan.seed, dev.stats.d2h_transfers])
    if fired and not np.array_equal(out, darr.data):
        injector.raise_for(next(s for s in fired if s.kind == "corrupt"), label)
    return out


def d2h(
    darr: DeviceArray,
    net: InterconnectSpec,
    label: str = "",
    stream: Stream | HostStream | None = None,
) -> np.ndarray:
    """cudaMemcpy device->host on ``stream`` (default: the device's host
    stream); the device allocation stays live until freed."""
    stream = darr.device.host if stream is None else stream
    return with_retry(
        lambda: _d2h_once(darr, stream, net, label),
        darr.device.clock, "transfer.d2h", retryable=(TransferError,),
        detail=label, stream=stream,
    )


def h2d_async(
    stream: Stream | HostStream, host: np.ndarray, net: InterconnectSpec, label: str = ""
) -> tuple[DeviceArray, Event]:
    """``cudaMemcpyAsync`` host->device on ``stream``, plus an event that
    completes with the copy; consumers on other streams wait on it before
    touching the array.  The final error of a failing copy escapes here,
    where the serial schedule's would."""
    darr = h2d(stream.device, host, net, label, stream=stream)
    return darr, stream.record()


def d2h_async(
    stream: Stream | HostStream, darr: DeviceArray, net: InterconnectSpec, label: str = ""
) -> tuple[np.ndarray, Event]:
    """``cudaMemcpyAsync`` device->host on ``stream``; the host must
    :meth:`~repro.gpusim.streams.Event.synchronize` on the returned event
    before reading the buffer (the hybrid engine does, right before first
    use)."""
    out = d2h(darr, net, label, stream=stream)
    return out, stream.record()


def transfer_graph_to_device(dev: Device, graph, net: InterconnectSpec) -> dict:
    """Copy the four CSR arrays of a graph to the device (paper Sec. III:
    "Initially, the graph information is copied to the GPU's global
    memory")."""
    return {
        "adjp": h2d(dev, graph.adjp, net, label="csr.adjp"),
        "adjncy": h2d(dev, graph.adjncy, net, label="csr.adjncy"),
        "adjwgt": h2d(dev, graph.adjwgt, net, label="csr.adjwgt"),
        "vwgt": h2d(dev, graph.vwgt, net, label="csr.vwgt"),
    }
