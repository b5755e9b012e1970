"""Hardware-utilization analysis: the machine spec as a denominator.

The machine model (:mod:`repro.runtime.machine`) prices every second the
engines charge, and the raw event counts are already recorded — kernel
transactions and ops in :class:`~repro.gpusim.stats.KernelStats`, PCIe
bytes on ``transfer``-category spans, CPU/MPI work in
:class:`~repro.runtime.hwcount.HwCounters`.  This module divides the two:
every counted second gets an *achieved vs. peak* ratio against the spec
that priced it.

Three views come out of one run:

* **roofline** — per-kernel arithmetic intensity (ops per DRAM byte
  actually moved) against achieved FLOP/s and DRAM bandwidth, with a
  ``bound`` classification (``dram-bandwidth`` / ``compute`` /
  ``latency`` / ``atomic``) read off the kernel's own modeled time split;
* **utilization timeline** — per-phase seconds attributed to GPU kernels,
  PCIe transfers and the CPU residual, plus the ``overlapped`` slice
  where a transfer was hidden behind a kernel (the async-streams
  schedule); the four satisfy ``gpu + pcie + cpu - overlapped == phase
  seconds`` exactly, each with its utilization of the relevant peak;
* **totals** — run-level ``hw.*`` metrics and the ledger ``hw`` block,
  including the transfer-avoidance ratio (device-resident DRAM traffic
  vs. bytes that crossed PCIe) that quantifies the paper's core claim.

Everything here is read-only: no function in this module charges a clock
or mutates stats, so attaching the hw layer can never change modeled time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ..runtime.hwcount import HwCounters
from ..runtime.machine import GpuSpec, InterconnectSpec, MachineSpec, PAPER_MACHINE

__all__ = [
    "HW_SCHEMA",
    "BOUND_KINDS",
    "KernelRoofline",
    "kernel_rooflines",
    "gpu_section",
    "pcie_section",
    "phase_timeline",
    "transfer_avoidance_ratio",
    "hw_section",
    "hw_metrics",
    "transfer_span_bytes",
    "exposed_span_seconds",
    "check_transfer_consistency",
    "render_roofline_chart",
    "render_kernel_table",
    "validate_hw_section",
]

#: Version tag of the ``hw`` block embedded in ledger records.
HW_SCHEMA = "repro.obs.hw/1"

#: The four ways a kernel can run into the machine.
BOUND_KINDS = ("dram-bandwidth", "compute", "latency", "atomic")


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


# ----------------------------------------------------------------------
# Interval arithmetic over span windows
# ----------------------------------------------------------------------
def _union_intervals(spans) -> list[tuple[float, float]]:
    """Merged, sorted ``[start, end)`` windows of the given spans.

    Spans on the serial schedule tile disjointly, so the union equals the
    duration sum; under async streams a copy-stream span can sit inside a
    compute-stream span and the union is what actually elapsed.
    """
    ivs = sorted(
        (s.start, s.end) for s in spans
        if s.end is not None and s.end > s.start
    )
    merged: list[tuple[float, float]] = []
    for lo, hi in ivs:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _measure(intervals: list[tuple[float, float]]) -> float:
    return float(sum(hi - lo for lo, hi in intervals))


def _clip(intervals, lo: float, hi: float) -> list[tuple[float, float]]:
    return [
        (max(a, lo), min(b, hi)) for a, b in intervals
        if min(b, hi) > max(a, lo)
    ]


def _intersect(a, b) -> list[tuple[float, float]]:
    """Intersection of two merged interval lists (two-pointer sweep)."""
    out: list[tuple[float, float]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def exposed_span_seconds(spans, cover) -> float:
    """Wall measure of ``spans``' union not covered by ``cover``'s union.

    ``exposed_span_seconds(transfers, kernels)`` is the PCIe time that
    actually extended the run: transfer seconds the async-streams
    schedule failed (or never tried) to hide behind compute.  On a serial
    schedule nothing overlaps, so this equals the plain duration sum.
    """
    u = _union_intervals(spans)
    c = _union_intervals(cover)
    return max(0.0, _measure(u) - _measure(_intersect(u, c)))


# ----------------------------------------------------------------------
# GPU: per-kernel roofline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelRoofline:
    """One kernel's position against the device's roofline.

    ``intensity`` is ops per DRAM byte actually moved (``None`` when the
    kernel moved no DRAM bytes — a pure-compute point sits at infinite
    intensity).  Utilizations are achieved/peak and land in ``[0, 1]`` by
    construction: the device never charges less than ``bytes/peak_bw`` or
    ``ops/peak_flops`` for a launch.
    """

    name: str
    launches: int
    seconds: float
    bytes_moved: float
    compute_ops: float
    intensity: float | None
    achieved_bandwidth: float
    achieved_flops: float
    dram_utilization: float
    compute_utilization: float
    coalescing: float
    bound: str


def kernel_rooflines(device_stats, gpu: GpuSpec) -> list[KernelRoofline]:
    """Roofline coordinates for every kernel the device launched."""
    out = []
    for name in sorted(device_stats.kernels):
        k = device_stats.kernels[name]
        if k.seconds <= 0.0:
            continue
        bw = k.bytes_moved / k.seconds
        flops = k.compute_ops / k.seconds
        out.append(
            KernelRoofline(
                name=name,
                launches=k.launches,
                seconds=k.seconds,
                bytes_moved=k.bytes_moved,
                compute_ops=k.compute_ops,
                intensity=(k.compute_ops / k.bytes_moved) if k.bytes_moved else None,
                achieved_bandwidth=bw,
                achieved_flops=flops,
                dram_utilization=_clamp01(bw / gpu.bandwidth_bytes_per_sec),
                compute_utilization=_clamp01(flops / gpu.compute_ops_per_sec),
                coalescing=k.coalescing_efficiency,
                bound=k.bound,
            )
        )
    return out


def gpu_section(device_stats, gpu: GpuSpec) -> dict:
    """The ``hw.gpu`` ledger block: kernels + aggregate utilization."""
    rooflines = kernel_rooflines(device_stats, gpu)
    total_seconds = sum(r.seconds for r in rooflines)
    total_bytes = sum(r.bytes_moved for r in rooflines)
    total_ops = sum(r.compute_ops for r in rooflines)
    bound_seconds = {kind: 0.0 for kind in BOUND_KINDS}
    for r in rooflines:
        bound_seconds[r.bound] += r.seconds
    dram_util = (
        _clamp01(total_bytes / total_seconds / gpu.bandwidth_bytes_per_sec)
        if total_seconds else 0.0
    )
    compute_util = (
        _clamp01(total_ops / total_seconds / gpu.compute_ops_per_sec)
        if total_seconds else 0.0
    )
    requested = sum(
        k.bytes_requested for k in device_stats.kernels.values()
    )
    coalescing = _clamp01(requested / total_bytes) if total_bytes else 1.0
    return {
        "peak_bandwidth": gpu.bandwidth_bytes_per_sec,
        "peak_flops": gpu.compute_ops_per_sec,
        "peak_bytes": int(getattr(device_stats, "peak_memory_bytes", 0)),
        "kernel_seconds": total_seconds,
        "bytes_moved": total_bytes,
        "compute_ops": total_ops,
        "dram_utilization": dram_util,
        "compute_utilization": compute_util,
        "coalescing": coalescing,
        "bound_seconds": bound_seconds,
        "kernels": [asdict(r) for r in rooflines],
    }


# ----------------------------------------------------------------------
# Interconnect: alpha-beta utilization of PCIe transfers
# ----------------------------------------------------------------------
def transfer_span_bytes(root) -> float:
    """Total payload bytes on ``transfer``-category spans under ``root``."""
    return float(
        sum(s.attrs.get("bytes", 0.0) for s in root.find_category("transfer"))
    )


def pcie_section(root, net: InterconnectSpec) -> dict:
    """The ``hw.pcie`` block from a run's transfer spans.

    Each transfer was charged the alpha-beta cost ``latency + bytes/rate``,
    so utilization is the beta share (``bytes/rate`` over the span's full
    duration) and ``alpha_share`` is the latency share; together they say
    whether PCIe time is volume or chattiness.
    """
    spans = root.find_category("transfer")
    nbytes = float(sum(s.attrs.get("bytes", 0.0) for s in spans))
    seconds = float(sum(s.duration for s in spans))
    transfers = len(spans)
    util = _clamp01(nbytes / net.pcie_bytes_per_sec / seconds) if seconds else 0.0
    alpha = transfers * net.pcie_latency_seconds
    # Exposed seconds: transfer wall time NOT hidden behind a concurrent
    # kernel.  On the serial schedule every transfer is exposed; the
    # async-streams schedule's whole win is shrinking this number.
    exposed = min(
        exposed_span_seconds(spans, root.find_category("kernel")), seconds
    )
    return {
        "transfers": transfers,
        "bytes": nbytes,
        "seconds": seconds,
        "exposed_seconds": exposed,
        "overlap_ratio": _clamp01(1.0 - exposed / seconds) if seconds else 0.0,
        "utilization": util,
        "alpha_share": _clamp01(alpha / seconds) if seconds else 0.0,
        "peak_bandwidth": net.pcie_bytes_per_sec,
    }


# ----------------------------------------------------------------------
# Timeline: per-phase attribution of profiled seconds
# ----------------------------------------------------------------------
def phase_timeline(root, machine: MachineSpec | None = None) -> list[dict]:
    """Attribute each phase's seconds to GPU kernels, PCIe transfers,
    the CPU residual, and the kernel/transfer overlap.

    ``gpu_seconds`` and ``pcie_seconds`` are interval *unions* of the
    phase's kernel and transfer spans (clipped to the phase window), and
    ``overlapped_seconds`` is the measure of their intersection — the
    transfer time the async-streams schedule hid behind compute.  The CPU
    residual is computed, not measured, so the invariant
    ``gpu + pcie + cpu - overlapped == phase seconds`` holds exactly on
    both the serial schedule (overlap 0) and the overlapped one.
    Utilizations divide each slice's traffic by the relevant peak.
    """
    machine = machine or PAPER_MACHINE
    gpu, net = machine.gpu, machine.interconnect
    out = []
    for phase in (c for c in root.children if c.category == "phase"):
        kernels = phase.find_category("kernel")
        transfers = phase.find_category("transfer")
        total = phase.duration
        # SimClock.set_phase syncs every stream track before a phase
        # closes, so async spans are contained in their phase window; the
        # clip is a guard, not a correction.
        p_end = phase.end if phase.end is not None else phase.start
        gpu_u = _clip(_union_intervals(kernels), phase.start, p_end)
        pcie_u = _clip(_union_intervals(transfers), phase.start, p_end)
        gpu_s = _measure(gpu_u)
        pcie_s = _measure(pcie_u)
        overlap_s = _measure(_intersect(gpu_u, pcie_u))
        cpu_s = max(0.0, total - gpu_s - pcie_s + overlap_s)
        kernel_bytes = (
            float(sum(s.attrs.get("transactions", 0.0) for s in kernels))
            * gpu.transaction_bytes
        )
        pcie_bytes = float(sum(s.attrs.get("bytes", 0.0) for s in transfers))
        out.append({
            "phase": phase.name,
            "seconds": total,
            "gpu_seconds": gpu_s,
            "pcie_seconds": pcie_s,
            "cpu_seconds": cpu_s,
            "overlapped_seconds": overlap_s,
            "gpu_dram_utilization": (
                _clamp01(kernel_bytes / gpu.bandwidth_bytes_per_sec / gpu_s)
                if gpu_s else 0.0
            ),
            "pcie_utilization": (
                _clamp01(pcie_bytes / net.pcie_bytes_per_sec / pcie_s)
                if pcie_s else 0.0
            ),
        })
    return out


# ----------------------------------------------------------------------
# The paper's core claim, as one number
# ----------------------------------------------------------------------
def transfer_avoidance_ratio(device_bytes: float, pcie_bytes: float) -> float | None:
    """Device-resident DRAM traffic as a share of all bytes touched.

    1.0 means every byte the GPU consumed stayed on the device; 0.0 means
    everything crossed PCIe.  ``None`` when neither moved (no GPU work).
    """
    total = device_bytes + pcie_bytes
    if total <= 0.0:
        return None
    return _clamp01(device_bytes / total)


# ----------------------------------------------------------------------
# Assembly: the ledger block and the metric family
# ----------------------------------------------------------------------
def hw_section(
    profiler, machine: MachineSpec | None = None, device_stats=None
) -> dict:
    """Build the ``hw`` ledger block for a finished (or finishing) run."""
    machine = machine or PAPER_MACHINE
    hw = getattr(profiler, "hw_counters", None) or HwCounters()
    counters = hw.as_dict()
    pcie = pcie_section(profiler.root, machine.interconnect)
    section = {
        "schema": HW_SCHEMA,
        "machine": {
            "cpu": machine.cpu.name,
            "gpu": machine.gpu.name,
        },
        "cpu": counters["cpu"],
        "mpi": counters["mpi"],
        "pcie": pcie,
        "phases": phase_timeline(profiler.root, machine),
    }
    if device_stats is not None:
        section["gpu"] = gpu_section(device_stats, machine.gpu)
        section["transfer_avoidance"] = transfer_avoidance_ratio(
            section["gpu"]["bytes_moved"], pcie["bytes"]
        )
    return section


def hw_metrics(m, section: dict) -> None:
    """Fold an ``hw`` section into a run's MetricsRegistry as ``hw.*``."""
    cpu, mpi, pcie = section["cpu"], section["mpi"], section["pcie"]
    m.counter("hw.cpu.edge_visits").inc(cpu["edge_visits"])
    m.counter("hw.cpu.vertex_ops").inc(cpu["vertex_ops"])
    m.counter("hw.cpu.random_bytes").inc(cpu["random_bytes"])
    m.counter("hw.cpu.busy_seconds").inc(cpu["busy_seconds"])
    m.gauge("hw.cpu.util").set(cpu["utilization"])
    if mpi["messages"] or mpi["bytes"]:
        m.counter("hw.mpi.messages").inc(mpi["messages"])
        m.counter("hw.mpi.bytes").inc(mpi["bytes"])
        m.gauge("hw.mpi.util").set(mpi["utilization"])
    if pcie["transfers"]:
        m.counter("hw.pcie.transfers").inc(pcie["transfers"])
        m.counter("hw.pcie.bytes").inc(pcie["bytes"])
        m.counter("hw.pcie.seconds").inc(pcie["seconds"])
        m.counter("hw.pcie.exposed_seconds").inc(pcie["exposed_seconds"])
        m.gauge("hw.pcie.overlap_ratio").set(pcie["overlap_ratio"])
        m.gauge("hw.pcie.util").set(pcie["utilization"])
        m.gauge("hw.pcie.alpha_share").set(pcie["alpha_share"])
    gpu = section.get("gpu")
    if gpu is not None:
        m.counter("hw.gpu.bytes_moved").inc(gpu["bytes_moved"])
        m.counter("hw.gpu.compute_ops").inc(gpu["compute_ops"])
        m.counter("hw.gpu.kernel_seconds").inc(gpu["kernel_seconds"])
        m.gauge("hw.gpu.peak_bytes").set(gpu.get("peak_bytes", 0))
        m.gauge("hw.gpu.dram_util").set(gpu["dram_utilization"])
        m.gauge("hw.gpu.compute_util").set(gpu["compute_utilization"])
        m.gauge("hw.gpu.coalescing").set(gpu["coalescing"])
        for kind, seconds in gpu["bound_seconds"].items():
            if seconds:
                m.counter("hw.gpu.bound_seconds", bound=kind).inc(seconds)
        for r in gpu["kernels"]:
            m.histogram("hw.gpu.kernel_dram_util").observe(r["dram_utilization"])
    avoid = section.get("transfer_avoidance")
    if avoid is not None:
        m.gauge("hw.transfer_avoidance").set(avoid)


# ----------------------------------------------------------------------
# Consistency self-check: stats vs. spans
# ----------------------------------------------------------------------
def check_transfer_consistency(profiler, device_stats, *, rel_tol=1e-9) -> None:
    """Assert the two PCIe byte ledgers agree.

    ``DeviceStats.h2d_bytes/d2h_bytes`` (bumped by the transfer layer) and
    the ``bytes`` attributes on ``transfer``-category spans (emitted by
    the same layer, into the profiler) are updated in different places;
    this check catches any new code path that moves bytes through one
    ledger but not the other.
    """
    span_bytes = transfer_span_bytes(profiler.root)
    stat_bytes = float(device_stats.h2d_bytes + device_stats.d2h_bytes)
    if not math.isclose(span_bytes, stat_bytes, rel_tol=rel_tol, abs_tol=0.5):
        raise AssertionError(
            f"transfer ledgers disagree: spans carry {span_bytes:.0f} B, "
            f"DeviceStats counted {stat_bytes:.0f} B"
        )


# ----------------------------------------------------------------------
# Rendering: the ASCII roofline + kernel table for the CLI
# ----------------------------------------------------------------------
def render_kernel_table(gpu: dict) -> str:
    """Per-kernel roofline table (the ``roofline`` CLI's main view)."""
    lines = [
        f"{'kernel':<26s} {'launch':>6s} {'intens':>7s} {'GB/s':>7s} "
        f"{'dram%':>6s} {'GF/s':>7s} {'comp%':>6s} {'coal':>5s}  bound"
    ]
    for r in gpu["kernels"]:
        intensity = "inf" if r["intensity"] is None else f"{r['intensity']:.2f}"
        lines.append(
            f"{r['name']:<26s} {r['launches']:>6d} {intensity:>7s} "
            f"{r['achieved_bandwidth'] / 1e9:>7.1f} "
            f"{100 * r['dram_utilization']:>5.1f}% "
            f"{r['achieved_flops'] / 1e9:>7.1f} "
            f"{100 * r['compute_utilization']:>5.1f}% "
            f"{r['coalescing']:>5.2f}  {r['bound']}"
        )
    lines.append(
        f"{'TOTAL':<26s} {'':>6s} {'':>7s} "
        f"{gpu['bytes_moved'] / max(gpu['kernel_seconds'], 1e-30) / 1e9:>7.1f} "
        f"{100 * gpu['dram_utilization']:>5.1f}% "
        f"{gpu['compute_ops'] / max(gpu['kernel_seconds'], 1e-30) / 1e9:>7.1f} "
        f"{100 * gpu['compute_utilization']:>5.1f}% "
        f"{gpu['coalescing']:>5.2f}"
    )
    return "\n".join(lines)


def render_roofline_chart(gpu: dict, width: int = 64, height: int = 16) -> str:
    """ASCII log-log roofline: the machine's ceiling plus one letter per
    kernel at (intensity, achieved FLOP/s)."""
    pts = [
        (r["intensity"], r["achieved_flops"], r["name"])
        for r in gpu["kernels"]
        if r["intensity"] is not None and r["achieved_flops"] > 0
    ]
    peak_bw, peak_flops = gpu["peak_bandwidth"], gpu["peak_flops"]
    ridge = peak_flops / peak_bw
    xs = [p[0] for p in pts] + [ridge]
    x_lo = min(min(xs) / 4, ridge / 16)
    x_hi = max(max(xs) * 4, ridge * 16)
    y_hi = peak_flops * 2
    y_lo = min([p[1] for p in pts] + [peak_flops]) / 16
    lx_lo, lx_hi = math.log10(x_lo), math.log10(x_hi)
    ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)

    grid = [[" "] * width for _ in range(height)]

    def col(x):
        return min(width - 1, max(0, int((math.log10(x) - lx_lo) / (lx_hi - lx_lo) * (width - 1))))

    def row(y):
        frac = (math.log10(y) - ly_lo) / (ly_hi - ly_lo)
        return min(height - 1, max(0, (height - 1) - int(frac * (height - 1))))

    # The roofline itself: min(peak_flops, intensity * peak_bw).
    for c in range(width):
        x = 10 ** (lx_lo + c / (width - 1) * (lx_hi - lx_lo))
        y = min(peak_flops, x * peak_bw)
        if y_lo <= y <= y_hi:
            grid[row(y)][c] = "-" if y >= peak_flops else "/"
    # Kernel points, lettered in table order.
    labels = []
    for i, (x, y, name) in enumerate(pts):
        mark = chr(ord("a") + i % 26)
        grid[row(y)][col(x)] = mark
        labels.append(f"  {mark} = {name}")
    axis = (
        f"x: ops/byte [{x_lo:.2g} .. {x_hi:.2g}]   "
        f"y: ops/s [{y_lo:.2g} .. {y_hi:.2g}]   "
        f"ridge at {ridge:.2f} ops/B"
    )
    lines = ["|" + "".join(r) for r in grid]
    lines.append("+" + "-" * width)
    lines.append(axis)
    lines.extend(labels)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Validation (used by the ledger schema and the roofline smoke)
# ----------------------------------------------------------------------
def validate_hw_section(section: dict) -> None:
    """Structural validation of an ``hw`` ledger block.

    Raises ``ValueError`` on a malformed block; tolerates an absent
    ``gpu`` sub-block (CPU-only engines).
    """
    def _require(cond, msg):
        if not cond:
            raise ValueError(f"invalid hw section: {msg}")

    _require(isinstance(section, dict), "not a mapping")
    _require(section.get("schema") == HW_SCHEMA,
             f"schema must be {HW_SCHEMA!r}, got {section.get('schema')!r}")
    for key in ("cpu", "mpi", "pcie", "phases", "machine"):
        _require(key in section, f"missing {key!r}")
    for name, util_key in (("cpu", "utilization"), ("mpi", "utilization"),
                           ("pcie", "utilization")):
        util = section[name].get(util_key)
        _require(isinstance(util, (int, float)) and 0.0 <= util <= 1.0,
                 f"{name}.{util_key} must be in [0, 1], got {util!r}")
    pcie = section["pcie"]
    for key in ("exposed_seconds", "overlap_ratio"):
        _require(key in pcie, f"pcie missing {key!r}")
    exp = pcie["exposed_seconds"]
    _require(
        0.0 <= exp <= pcie["seconds"] + 1e-9,
        f"pcie.exposed_seconds {exp} outside [0, {pcie['seconds']}]",
    )
    ratio = pcie["overlap_ratio"]
    _require(0.0 <= ratio <= 1.0,
             f"pcie.overlap_ratio must be in [0, 1], got {ratio!r}")
    for row in section["phases"]:
        for key in ("phase", "seconds", "gpu_seconds", "pcie_seconds",
                    "cpu_seconds", "overlapped_seconds"):
            _require(key in row, f"phase row missing {key!r}")
        overlap = row["overlapped_seconds"]
        _require(
            0.0 <= overlap <= min(row["gpu_seconds"], row["pcie_seconds"]) + 1e-9,
            f"phase {row['phase']!r} overlapped_seconds {overlap} exceeds "
            f"its gpu/pcie slices",
        )
        parts = (row["gpu_seconds"] + row["pcie_seconds"]
                 + row["cpu_seconds"] - overlap)
        _require(
            math.isclose(parts, row["seconds"], rel_tol=1e-6, abs_tol=1e-9),
            f"phase {row['phase']!r} slices sum to {parts}, not {row['seconds']}",
        )
    gpu = section.get("gpu")
    if gpu is not None:
        for key in ("dram_utilization", "compute_utilization", "coalescing"):
            val = gpu.get(key)
            _require(isinstance(val, (int, float)) and 0.0 <= val <= 1.0,
                     f"gpu.{key} must be in [0, 1], got {val!r}")
        for r in gpu.get("kernels", []):
            _require(r.get("bound") in BOUND_KINDS,
                     f"kernel {r.get('name')!r} bound {r.get('bound')!r}")
            for key in ("dram_utilization", "compute_utilization"):
                val = r.get(key)
                _require(
                    isinstance(val, (int, float)) and 0.0 <= val <= 1.0,
                    f"kernel {r.get('name')!r} {key} out of range: {val!r}",
                )
    avoid = section.get("transfer_avoidance")
    if avoid is not None:
        _require(0.0 <= avoid <= 1.0,
                 f"transfer_avoidance must be in [0, 1], got {avoid!r}")
