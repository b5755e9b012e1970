"""The parallel contraction step (paper Sec. III.A).

Flow, exactly as the paper lays it out:

1. ``contract_count`` — each thread sums the *maximum* entries its
   collapsed pairs could need (``deg(v) + deg(M[v])``) into ``temp[tid]``;
2. exclusive scan of ``temp`` — per-thread start offsets in the staging
   arrays; last value + last count sizes ``tadjncy``/``tadjwgt``;
3. ``contract_merge`` — threads merge each pair's mapped neighbor lists
   (hash table or quicksort+dedup, per options) into their staging
   regions;
4. ``contract_count2`` + second exclusive scan — actual entry counts and
   final offsets;
5. ``contract_compact`` — staged entries copy into the final coarse
   ``adjncy``/``adjwgt``; a last kernel writes coarse vertex weights.

Afterwards "we can free the temp arrays.  So there is no extra memory
overhead for the contraction."

Both merge strategies produce the identical coarse graph (duplicate
neighbors merge by weight-sum; lists are neighbor-sorted); they differ in
time and memory.  ``merge_impl="reference"`` runs the per-thread data
structures for real (tests, small graphs); ``"vectorized"`` computes the
same result with one numpy aggregation while charging the cost model of
the *selected strategy*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..._segments import gather_ranges
from ...graphs.csr import CSRGraph
from ...gpusim.device import Device
from ...gpusim.memory import AccessPattern, DeviceArray
from ...gpusim.scan import exclusive_scan
from ...serial.contraction import contract
from .merge_hash import charge_hash_merge_kernel, hash_tables_fit, reference_hash_merge
from .merge_sort import charge_sort_merge, reference_sort_merge

__all__ = ["ContractionOutcome", "gpu_contract"]


@dataclass
class ContractionOutcome:
    coarse: CSRGraph
    d_coarse: dict[str, DeviceArray]
    cmap: np.ndarray
    merge_strategy_used: str
    fell_back_to_sort: bool = False


def _reference_contract(
    graph: CSRGraph, match: np.ndarray, cmap: np.ndarray, n_coarse: int,
    strategy: str,
) -> CSRGraph:
    """Per-thread merge loops run for real — must equal serial contract()."""
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
    return CSRGraph(
        adjp=adjp, adjncy=adjncy, adjwgt=adjwgt, vwgt=vwgt,
        name=f"{graph.name}@c{n_coarse}",
    )


def gpu_contract(
    dev: Device,
    d_csr: dict[str, DeviceArray],
    graph: CSRGraph,
    d_match: DeviceArray,
    d_cmap: DeviceArray,
    n_coarse: int,
    n_threads: int,
    merge_strategy: str = "hash",
    merge_impl: str = "vectorized",
    copy_out=None,
) -> ContractionOutcome:
    """Run the five-step contraction pipeline on the device.

    ``copy_out(name, darr)``, when given, is invoked for each coarse
    array right after the kernel that finalizes it (``adjp`` after the
    second scan, ``adjncy``/``adjwgt`` after the compaction, ``vwgt``
    after the weight kernel).  The async-streams schedule uses it to
    enqueue the handoff D2H copies on a copy stream while the remaining
    contraction kernels are still running on the compute stream.
    """
    match = d_match.data
    cmap = d_cmap.data
    n = graph.num_vertices
    ids = np.arange(n, dtype=np.int64)
    is_rep = ids <= match
    reps = ids[is_rep]
    partner = match[reps]
    deg = graph.degrees()
    # Several kernels below read through the representatives and their
    # partners; each pattern's transactions are counted once.
    rep_pattern = AccessPattern(reps)
    partner_pattern = AccessPattern(partner)

    # Sparsity/memory precondition of the hash path.
    strategy = merge_strategy
    fell_back = False
    if strategy == "hash" and not hash_tables_fit(dev, n_coarse, n_threads):
        strategy = "sort"
        fell_back = True

    # Thread assignment: coarse vertex i -> thread i % T (the shrinking-
    # thread-count layout of Sec. III.A).
    thread_of_rep = (np.arange(reps.shape[0], dtype=np.int64)) % n_threads
    max_entries = deg[reps] + np.where(partner != reps, deg[partner], 0)

    # Kernel 1: per-thread maximum entry counts.
    d_temp = dev.alloc(n_threads, np.int64, label="temp")
    with dev.kernel("coarsen.contract_count", n_threads=n_threads) as k:
        k.gather(d_csr["adjp"], rep_pattern)
        k.gather(d_csr["adjp"], reps + 1)
        k.gather(d_match, rep_pattern)
        k.gather(d_csr["adjp"], partner_pattern)
        k.gather(d_csr["adjp"], partner + 1)
        k.compute(2 * reps.shape[0])
        per_thread = np.bincount(thread_of_rep, weights=max_entries.astype(np.float64),
                                 minlength=n_threads).astype(np.int64)
        k.stream_write(d_temp, per_thread)

    # Exclusive scan -> staging offsets; total sizes the staging arrays.
    d_offsets = exclusive_scan(dev, d_temp, label="coarsen.contract")
    total_staging = int(d_offsets.data[-1] + d_temp.data[-1]) if n_threads else 0

    d_tadjncy = dev.alloc(max(1, total_staging), np.int64, label="tadjncy")
    d_tadjwgt = dev.alloc(max(1, total_staging), np.int64, label="tadjwgt")

    # Compute the merged lists (result identical for all paths).
    if merge_impl == "reference":
        coarse = _reference_contract(graph, match, cmap, n_coarse, strategy)
        expect, _ = contract(graph, match)
        # The reference path is the correctness oracle for the fast path.
        assert np.array_equal(coarse.adjp, expect.adjp)
        assert np.array_equal(coarse.adjncy, expect.adjncy)
        assert np.array_equal(coarse.adjwgt, expect.adjwgt)
        assert np.array_equal(coarse.vwgt, expect.vwgt)
    else:
        coarse, _cmap_check = contract(graph, match)

    # Kernel 3: the merge itself.
    with dev.kernel("coarsen.contract_merge", n_threads=n_threads) as k:
        # Read every arc of the fine graph (both endpoints' lists).
        flat = gather_ranges(graph.adjp[reps], deg[reps])
        own_arcs = AccessPattern(flat)
        k.gather(d_csr["adjncy"], own_arcs)
        k.gather(d_csr["adjwgt"], own_arcs)
        pmask = partner != reps
        pflat = gather_ranges(graph.adjp[partner[pmask]], deg[partner[pmask]])
        if pflat.size:
            partner_arcs = AccessPattern(pflat)
            k.gather(d_csr["adjncy"], partner_arcs)
            k.gather(d_csr["adjwgt"], partner_arcs)
        # Map every read neighbor through CM (data-dependent gather).
        all_nbrs = np.concatenate([graph.adjncy[flat], graph.adjncy[pflat]]) if pflat.size else graph.adjncy[flat]
        k.gather(d_cmap, all_nbrs)
        # Merge cost per the selected strategy; divergence over per-thread loads.
        per_thread_load = np.bincount(
            thread_of_rep, weights=max_entries.astype(np.float64), minlength=n_threads
        )
        if strategy == "hash":
            charge_hash_merge_kernel(k, per_thread_load)
        else:
            charge_sort_merge(k, per_thread_load)
        # Staged writes: merged entries land in per-thread regions (the
        # merged total never exceeds the staging size by construction).
        # Each staged entry is written by the thread that merged its
        # coarse vertex — exclusive regions, which the sanitizer verifies.
        n_merged = coarse.num_directed_edges
        if n_merged:
            out_positions = AccessPattern(np.arange(n_merged, dtype=np.int64))
            owner = np.repeat(thread_of_rep, np.diff(coarse.adjp))
            k.scatter(d_tadjncy, out_positions, coarse.adjncy, threads=owner)
            k.scatter(d_tadjwgt, out_positions, coarse.adjwgt, threads=owner)

    # Kernel 4: actual per-thread counts + second scan.
    d_temp2 = dev.alloc(n_threads, np.int64, label="temp2")
    with dev.kernel("coarsen.contract_count2", n_threads=n_threads) as k:
        merged_counts = np.diff(coarse.adjp)
        per_thread_actual = np.bincount(
            thread_of_rep,
            weights=merged_counts[cmap[reps]].astype(np.float64),
            minlength=n_threads,
        ).astype(np.int64)
        k.stream_write(d_temp2, per_thread_actual)
        k.compute(n_threads)
    d_offsets2 = exclusive_scan(dev, d_temp2, label="coarsen.contract2")

    # Final coarse arrays.
    d_coarse = {
        "adjp": dev.adopt(coarse.adjp.copy(), label="c.adjp"),
        "adjncy": dev.adopt(coarse.adjncy.copy(), label="c.adjncy"),
        "adjwgt": dev.adopt(coarse.adjwgt.copy(), label="c.adjwgt"),
        "vwgt": dev.adopt(coarse.vwgt.copy(), label="c.vwgt"),
    }
    # The offsets are final once the second scan committed; a handoff
    # download of adjp can overlap the compaction kernels below.
    if copy_out is not None:
        copy_out("adjp", d_coarse["adjp"])

    # Kernel 5: compact staging into the final arrays.
    with dev.kernel("coarsen.contract_compact", n_threads=n_threads) as k:
        k.stream_read(d_tadjncy, n_elements=min(total_staging, d_tadjncy.size))
        k.stream_read(d_tadjwgt, n_elements=min(total_staging, d_tadjwgt.size))
        k.stream_write(d_coarse["adjncy"], coarse.adjncy)
        k.stream_write(d_coarse["adjwgt"], coarse.adjwgt)
        k.compute(coarse.num_directed_edges)
    if copy_out is not None:
        copy_out("adjncy", d_coarse["adjncy"])
        copy_out("adjwgt", d_coarse["adjwgt"])

    # Coarse vertex weights: one read per pair endpoint, one write per
    # coarse vertex.
    with dev.kernel("coarsen.vwgt", n_threads=n_threads) as k:
        k.gather(d_csr["vwgt"], rep_pattern)
        k.gather(d_csr["vwgt"], partner_pattern)
        k.stream_write(d_coarse["vwgt"], coarse.vwgt)
        k.compute(reps.shape[0])
    if copy_out is not None:
        copy_out("vwgt", d_coarse["vwgt"])

    # "At the end of the contraction step, we can free the temp arrays."
    d_temp.free()
    d_offsets.free()
    d_temp2.free()
    d_offsets2.free()
    d_tadjncy.free()
    d_tadjwgt.free()

    return ContractionOutcome(
        coarse=coarse,
        d_coarse=d_coarse,
        cmap=cmap.copy(),
        merge_strategy_used=strategy,
        fell_back_to_sort=fell_back,
    )
