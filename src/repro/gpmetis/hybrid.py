"""The hybrid CPU-GPU orchestration (paper Sec. III, Fig. 1).

Pipeline:

1. copy the CSR graph to the GPU;
2. GPU coarsening (match -> resolve -> cmap pipeline -> contraction) level
   by level, keeping every level's arrays device-resident ("the addresses
   of all arrays corresponding to the coarser graph are stored in a set
   of pointer arrays since they will be needed to project back");
3. at the threshold, ship the coarse graph to the CPU; mt-metis finishes
   coarsening, computes the initial partition, and refines back up to the
   threshold level;
4. the partition vector returns to the GPU; projection + lock-free
   refinement run down the remaining (fine) levels;
5. the final labels come back to the host.

If the graph (plus per-level bookkeeping) does not fit in device memory,
the driver falls back to CPU-only mt-metis with a trace note — the paper
assumes fitting graphs and defers bigger ones to future work, but a
library must not crash on them.

The same machinery doubles as GP-metis's degradation ladder under fault
injection (:mod:`repro.faults`).  Transient transfer faults are retried
inside :mod:`repro.gpusim.transfer`; whatever still escapes — device
OOM (real or injected, including capacity squeezes), kernel aborts,
persistently failing PCIe links — walks the ladder:

1. faults during GPU *coarsening* stop the GPU early and continue on
   the CPU from the current level (``gpu-shrink``: a smaller GPU
   working set, more CPU levels);
2. faults on the *input transfer* fall back to CPU-only mt-metis
   (``cpu-fallback``);
3. faults during GPU *uncoarsening* abandon GPU refinement and project
   the remaining levels on the host (``skip-gpu-refine``);
4. a final partition that cannot be copied back is read out directly
   (``evacuate`` — zero-copy rescue, no quality impact).

Every rung records a recovery event, keeps the result a valid k-way
partition, and marks the outcome ``degraded`` when the execution path
changed.  With the injector's recovery switch off, the first
unrecovered fault propagates instead — the mutation ``repro selfcheck``
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import DeviceMemoryError, KernelAbortError, TransferError
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut
from ..gpusim.device import Device
from ..gpusim.memory import DeviceArray
from ..gpusim.simt import threads_for_items
# The serial schedule calls h2d_async/d2h_async on the host stream, so
# ``h2d`` and ``transfer_graph_to_device`` are not called here; all five
# copy names stay bound in this module because perfbench's tracer times
# the transfer layer by patching them where this module looks them up.
from ..gpusim.transfer import (  # noqa: F401
    d2h,
    d2h_async,
    h2d,
    h2d_async,
    transfer_graph_to_device,
)
from ..mtmetis.initpart import parallel_recursive_bisection
from ..mtmetis.partitioner import MtMetis
from ..obs.spans import clock_span
from ..runtime.clock import SimClock
from ..runtime.machine import MachineSpec
from ..runtime.threads import ThreadPoolSim
from ..runtime.trace import LevelRecord, RefinementRecord, Trace
from ..serial.kway import final_rebalance
from ..serial.options import MIN_SHRINK
from ..serial.project import project_partition
from .kernels.cmap import gpu_build_cmap
from .kernels.contraction import gpu_contract
from .kernels.matching import gpu_match
from .kernels.projection import gpu_project
from .kernels.refinement import gpu_refine_level
from .memory_planning import plan_device_memory
from .options import MAX_GPU_THREADS, GPMetisOptions
from .thresholds import gpu_stop_size

__all__ = ["GpuLevel", "HybridOutcome", "run_hybrid"]


@dataclass
class GpuLevel:
    """One device-resident coarsening level."""

    graph: CSRGraph
    d_csr: dict[str, DeviceArray]
    d_cmap: DeviceArray | None = None  # maps this level to the next coarser


@dataclass
class HybridOutcome:
    part: np.ndarray
    trace: Trace
    device: Device
    gpu_levels: int
    cpu_levels: int
    fell_back_to_cpu: bool = False
    merge_fallbacks: int = 0
    #: True when fault recovery changed the execution path (CPU fallback,
    #: truncated GPU coarsening, skipped GPU refinement) — the result is
    #: still a valid partition, just not the one the fault-free run makes.
    degraded: bool = False
    notes: list[str] = field(default_factory=list)


#: Faults an engine can survive by degrading; everything else propagates.
RECOVERABLE = (DeviceMemoryError, TransferError, KernelAbortError)


def run_hybrid(
    graph: CSRGraph,
    k: int,
    opts: GPMetisOptions,
    machine: MachineSpec,
    clock: SimClock,
) -> HybridOutcome:
    """Execute the full GP-metis pipeline against a shared clock."""
    trace = Trace()
    dev = Device(machine.gpu, clock)
    if opts.sanitize:
        dev.enable_sanitizer(fuzz_schedules=opts.fuzz_schedules, seed=opts.seed)
    rng = np.random.default_rng(opts.seed)
    stop_at = gpu_stop_size(opts, k)
    mt = MtMetis(opts.mtmetis_options(), machine)
    pool = ThreadPoolSim(opts.cpu_threads, machine.cpu, clock)
    injector = getattr(clock, "injector", None)

    def degrade(exc: Exception, note: str, site: str, action: str, detail: str):
        """Take one rung of the ladder: note it in the trace and record the
        recovery.  Injected faults propagate instead when the recovery
        switch is off; real resource exhaustion is always handled."""
        injected = getattr(exc, "injected", False)
        if injected and injector is not None and not injector.recover:
            raise exc
        trace.note(note)
        if injector is not None:
            injector.record_recovery(site, action, detail)

    # ------------------------------------------------------------------
    # 0. Schedule selection: double-buffered async streams, unless the
    #    staging residency would blow the device budget (then single-
    #    buffer — the serial schedule — not OOM-evacuate).  The serial
    #    schedule is the same code with both streams on the device's
    #    blocking host stream.
    # ------------------------------------------------------------------
    use_async = opts.async_streams
    if use_async:
        plan = plan_device_memory(graph, k, opts, machine.gpu, double_buffer=True)
        if not plan.fits:
            use_async = False
            trace.note(
                "double-buffer staging "
                f"({plan.staging_bytes} B on top of {plan.total_bytes} B) "
                f"exceeds device memory ({plan.device_bytes} B); "
                "falling back to the single-buffer serial schedule"
            )
    if use_async:
        copy_s, compute_s = dev.stream("copy"), dev.stream("compute")
    else:
        copy_s = compute_s = dev.host
    # CUDA default-stream idiom: every kernel launched below lands on the
    # compute stream without threading a parameter through the kernel
    # helpers.
    dev.default_stream = compute_s

    # ------------------------------------------------------------------
    # 1. Host -> device.
    # ------------------------------------------------------------------
    clock.set_phase("transfer")
    try:
        # Upload on the copy stream.  Matching only needs the three
        # structure arrays; vwgt's first consumer is the contraction, so
        # its copy stays in flight behind the level-0 match/cmap kernels —
        # the upload half of the double buffer.
        d_csr = {}
        events = {}
        for name, arr in (
            ("adjp", graph.adjp), ("adjncy", graph.adjncy),
            ("adjwgt", graph.adjwgt), ("vwgt", graph.vwgt),
        ):
            d_csr[name], events[name] = h2d_async(
                copy_s, arr, machine.interconnect, label=f"csr.{name}"
            )
        for name in ("adjp", "adjncy", "adjwgt"):
            compute_s.wait(events[name])
        ev_vwgt = events["vwgt"]
    except RECOVERABLE as exc:
        # Any copies that did land before the failure stop mattering; fold
        # their in-flight time into the wall clock before the CPU takes
        # over (and before the recovery event reads the host cursor).
        clock.sync_tracks()
        degrade(
            exc, f"input transfer failed ({exc}); falling back to mt-metis",
            "transfer.h2d", "cpu-fallback", f"input transfer failed: {exc}",
        )
        # The fallback engine runs with its own clock and profiler; have
        # it adopt this run's trace context so its span tree joins the
        # same trace (and, under the service, the same request).
        outer = getattr(clock, "profiler", None)
        if outer is not None:
            from ..obs.tracectx import use_trace_context

            with use_trace_context(outer.trace_context):
                res = mt.partition(graph, k)
        else:
            res = mt.partition(graph, k)
        clock.merge([res.clock])
        return HybridOutcome(
            part=res.part, trace=res.trace, device=dev,
            gpu_levels=0, cpu_levels=res.trace.num_levels,
            fell_back_to_cpu=True, degraded=True, notes=trace.notes,
        )

    # ------------------------------------------------------------------
    # 2. GPU coarsening.
    # ------------------------------------------------------------------
    clock.set_phase("coarsening-gpu")
    gpu_levels: list[GpuLevel] = []
    current = GpuLevel(graph=graph, d_csr=d_csr)
    level_idx = 0
    merge_fallbacks = 0
    fell_back = False
    downloaded: set[str] = set()

    def make_copy_out():
        """Handoff downloads enqueued on the copy stream as the final
        contraction's kernels finalize each array — the download half of
        the double buffer.  A dead D2H link degrades exactly like the
        serial schedule's: note + ``evacuate`` recovery, host mirror."""

        def copy_out(name, darr):
            try:
                copy_s.wait(compute_s.record())
                d2h_async(
                    copy_s, darr, machine.interconnect, label=f"coarse.{name}"
                )
            except TransferError as exc:
                degrade(
                    exc, f"coarse.{name} D2H failed ({exc}); using host mirror",
                    "transfer.d2h", "evacuate", f"coarse.{name}: host mirror",
                )
            downloaded.add(name)

        return copy_out

    while current.graph.num_vertices > stop_at:
        nv = current.graph.num_vertices
        n_threads = threads_for_items(nv, MAX_GPU_THREADS)
        try:
            with clock_span(
                clock, f"level {level_idx}", category="level",
                engine="gpu", num_vertices=nv, num_edges=current.graph.num_edges,
            ):
                d_match, mstats = gpu_match(
                    dev, current.d_csr, current.graph, n_threads, opts.matching,
                    rng, fuse_resolve=use_async,
                )
                d_cmap, n_coarse = gpu_build_cmap(dev, d_match, n_threads)
                # The contraction is vwgt's first consumer: release the
                # compute stream only once the in-flight upload landed.
                if ev_vwgt is not None:
                    compute_s.wait(ev_vwgt)
                    ev_vwgt = None
                # The loop-exit test is decidable before contracting, so on
                # the async schedule the last level's coarse mirror
                # downloads while its own contraction kernels still run.
                will_stop = (
                    n_coarse <= stop_at or (1.0 - n_coarse / nv) < MIN_SHRINK
                )
                copy_out = make_copy_out() if use_async and will_stop else None
                outcome = gpu_contract(
                    dev, current.d_csr, current.graph, d_match, d_cmap, n_coarse,
                    n_threads, opts.merge_strategy, opts.merge_impl,
                    copy_out=copy_out,
                )
                # The host paces the compute stream level by level (it
                # polls for the shrink factor); the copy stream floats.
                compute_s.synchronize()
        except RECOVERABLE as exc:
            degrade(
                exc, f"GPU fault at level {level_idx} ({exc}); continuing on CPU",
                getattr(exc, "site", "gpu.alloc"), "gpu-shrink",
                f"GPU coarsening stopped at level {level_idx}: {exc}",
            )
            fell_back = True
            break
        d_match.free()
        if outcome.fell_back_to_sort:
            merge_fallbacks += 1
            trace.note(f"level {level_idx}: hash tables too large, used sort merge")
        trace.levels.append(
            LevelRecord(
                level=level_idx,
                num_vertices=nv,
                num_edges=current.graph.num_edges,
                matched_pairs=mstats.pairs,
                conflicts=mstats.conflicts,
                self_matches=mstats.self_matches,
                engine="gpu",
            )
        )
        current.d_cmap = d_cmap
        gpu_levels.append(current)
        shrink = 1.0 - outcome.coarse.num_vertices / nv
        current = GpuLevel(graph=outcome.coarse, d_csr=outcome.d_coarse)
        level_idx += 1
        if shrink < MIN_SHRINK:
            break

    # ------------------------------------------------------------------
    # 3. Device -> host; CPU coarsening + initial partitioning + CPU
    #    uncoarsening (mt-metis).
    # ------------------------------------------------------------------
    clock.set_phase("transfer")
    for name in ("adjp", "adjncy", "adjwgt", "vwgt"):
        if not fell_back and name in downloaded:
            # Already shipped by the copy stream, hidden behind the final
            # contraction (set_phase synchronized the streams above).
            continue
        try:
            d2h(current.d_csr[name], machine.interconnect, label=f"coarse.{name}")
        except TransferError as exc:
            # The CPU stage owns a host mirror of every array, so a dead
            # D2H link costs only the failed attempts' time.
            degrade(
                exc, f"coarse.{name} D2H failed ({exc}); using host mirror",
                "transfer.d2h", "evacuate", f"coarse.{name}: host mirror",
            )

    clock.set_phase("coarsening-cpu")
    cpu_levels, coarsest = mt.coarsen(
        current.graph, k, pool, trace, rng, target=opts.coarsen_target(k)
    )
    for rec in trace.levels:
        if rec.engine == "cpu-threads":
            rec.level += level_idx

    clock.set_phase("initpart")
    part, crit_work = parallel_recursive_bisection(
        coarsest, k, opts.cpu_threads, mt.options.serial_options(), rng
    )
    clock.charge(
        "compute",
        machine.cpu.edge_seconds(
            crit_work,
            avg_degree=2 * coarsest.num_edges / max(1, coarsest.num_vertices),
        ),
        count=crit_work,
        detail="initial partitioning (mt-metis)",
    )

    clock.set_phase("uncoarsening-cpu")
    part = mt.uncoarsen(cpu_levels, part, k, pool, trace, level_offset=level_idx)

    # ------------------------------------------------------------------
    # 4. Host -> device; GPU projection + refinement down the fine levels.
    # ------------------------------------------------------------------
    if gpu_levels and not fell_back:
        clock.set_phase("transfer")
        try:
            # Prefetch: the partition vector rides the copy stream and the
            # first projection kernel waits on its event instead of the
            # host blocking on the copy.
            d_part, ev_part = h2d_async(
                copy_s, part.astype(np.int64), machine.interconnect, label="part"
            )
            compute_s.wait(ev_part)
        except RECOVERABLE as exc:
            degrade(
                exc, f"part upload failed ({exc}); projecting on the host",
                getattr(exc, "site", "transfer.h2d"), "skip-gpu-refine",
                f"part upload failed: {exc}",
            )
            clock.set_phase("uncoarsening-cpu")
            part = _host_uncoarsen(
                part, gpu_levels, len(gpu_levels) - 1, clock, machine
            )
        else:
            clock.set_phase("uncoarsening-gpu")
            abandoned = False
            for li in range(len(gpu_levels) - 1, -1, -1):
                level = gpu_levels[li]
                n_threads = threads_for_items(
                    level.graph.num_vertices, MAX_GPU_THREADS
                )
                assert level.d_cmap is not None
                projected = False
                try:
                    with clock_span(
                        clock, f"level {li}", category="level",
                        engine="gpu", num_vertices=level.graph.num_vertices,
                    ):
                        d_fine_part = gpu_project(
                            dev, d_part, level.d_cmap, level.graph.num_vertices,
                            n_threads,
                        )
                        d_part.free()
                        d_part = d_fine_part
                        projected = True
                        cut_before = edge_cut(level.graph, d_part.data)
                        sub_stats = gpu_refine_level(
                            dev, level.d_csr, level.graph, d_part, k,
                            opts.ubfactor, opts.refine_passes, n_threads,
                        )
                        cut_after = edge_cut(level.graph, d_part.data)
                        # Host reads the cut between levels: pace the
                        # compute stream here too.
                        compute_s.synchronize()
                except RECOVERABLE as exc:
                    # d_part is valid either for this level (projection
                    # committed before the fault) or the coarser one;
                    # finish the remaining projections on the host.
                    degrade(
                        exc,
                        f"GPU uncoarsening fault at level {li} ({exc}); "
                        "projecting remaining levels on the host",
                        getattr(exc, "site", "gpu.alloc"), "skip-gpu-refine",
                        f"GPU uncoarsening abandoned at level {li}: {exc}",
                    )
                    part = np.asarray(d_part.data).copy()
                    d_part.free()
                    clock.set_phase("uncoarsening-cpu")
                    part = _host_uncoarsen(
                        part, gpu_levels, li - 1 if projected else li, clock, machine
                    )
                    abandoned = True
                    break
                for si, st in enumerate(sub_stats):
                    trace.refinements.append(
                        RefinementRecord(
                            level=li, pass_index=si,
                            moves_proposed=st.proposals,
                            moves_committed=st.committed,
                            cut_before=cut_before, cut_after=cut_after,
                            engine="gpu",
                        )
                    )

            if not abandoned:
                clock.set_phase("transfer")
                try:
                    copy_s.wait(compute_s.record())
                    part, ev_final = d2h_async(
                        copy_s, d_part, machine.interconnect, label="part.final"
                    )
                    ev_final.synchronize()
                except TransferError as exc:
                    degrade(
                        exc, f"part.final D2H failed ({exc}); evacuated",
                        "transfer.d2h", "evacuate", "part.final read out in place",
                    )
                    # Zero-copy rescue of the final labels: no quality
                    # impact, only the failed attempts' time was spent.
                    part = np.asarray(d_part.data).copy()
    elif gpu_levels:
        # The gpu-shrink rung's tail: the CPU finished from the truncation
        # level, so the levels the GPU did complete still map the partition
        # back to the input graph — project them on the host.
        clock.set_phase("uncoarsening-cpu")
        part = _host_uncoarsen(part, gpu_levels, len(gpu_levels) - 1, clock, machine)

    # ------------------------------------------------------------------
    # 5. Final balance guarantee on the host.
    # ------------------------------------------------------------------
    clock.set_phase("uncoarsening-cpu")
    moves = final_rebalance(graph, part, k, opts.ubfactor)
    if moves is not None:
        clock.charge(
            "compute",
            machine.cpu.edge_seconds(
                graph.num_directed_edges,
                avg_degree=2 * graph.num_edges / max(1, graph.num_vertices),
            ),
            count=float(graph.num_directed_edges),
            detail=f"final rebalance ({moves} moves)",
        )

    # Safety net: no async track may outlive the run (every schedule path
    # above synchronizes, but the wall clock must never undercount).
    clock.sync_tracks()

    if dev.sanitizer is not None:
        trace.race_reports = list(dev.sanitizer.reports)
        if dev.sanitizer.num_races:
            trace.note(
                f"sanitizer: {dev.sanitizer.num_races} race(s) detected in "
                f"kernels {sorted(dev.sanitizer.kernels_checked())}"
            )

    return HybridOutcome(
        part=part,
        trace=trace,
        device=dev,
        gpu_levels=len(gpu_levels),
        cpu_levels=len(cpu_levels),
        fell_back_to_cpu=fell_back,
        merge_fallbacks=merge_fallbacks,
        degraded=fell_back or (injector is not None and injector.degraded),
        notes=trace.notes,
    )


def _host_uncoarsen(part, gpu_levels, start, clock, machine) -> np.ndarray:
    """Project ``part`` through GPU levels ``start..0`` on the host.

    The rescue path of the ``gpu-shrink`` and ``skip-gpu-refine`` rungs:
    each level's device-resident cmap is read out in place and the
    projection charged as serial CPU vertex work.  No GPU refinement runs
    on these levels — the partition stays valid, the cut just keeps
    whatever quality the coarser levels gave it.
    """
    for lj in range(start, -1, -1):
        level = gpu_levels[lj]
        assert level.d_cmap is not None
        part = project_partition(part, np.asarray(level.d_cmap.data))
        nv = level.graph.num_vertices
        clock.charge(
            "compute",
            machine.cpu.vertex_seconds(nv),
            count=float(nv),
            detail=f"host projection L{lj}",
        )
    return part
