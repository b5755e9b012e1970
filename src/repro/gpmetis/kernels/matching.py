"""GPU matching kernels (paper Sec. III.A, Fig. 3).

Two kernels per level:

* ``coarsen.match`` — every thread scans its assigned vertices and writes
  matches to the shared matching array ``M`` lock-free (HEM, falling back
  to random matching when all weights are equal).  Threads process
  vertices in the coalesced layout of Fig. 2: in iteration ``j`` thread
  ``t`` handles vertex ``j*T + t``, so a warp's vertex reads are
  contiguous.
* ``coarsen.resolve`` — re-scans the array and self-matches every vertex
  whose claim is not reciprocated (``M[M[v]] != v``).

Semantics ride on the shared lock-free engine
(:func:`repro.mtmetis.matching.lockfree_match`) with batch width = the
GPU thread count: tens of thousands of concurrent claims per lockstep
round, hence the higher conflict rate the paper reports versus 8-thread
mt-metis.
"""

from __future__ import annotations

import numpy as np

from ...graphs.csr import CSRGraph
from ...gpusim.device import Device
from ...gpusim.memory import AccessPattern, DeviceArray
from ...mtmetis.matching import LockfreeMatchStats, lockfree_match
from ...serial.matching import random_if_equal_weights

__all__ = ["gpu_match", "consecutive_batches"]


def consecutive_batches(n: int, width: int):
    """Fig. 2's schedule: batch j covers vertices [j*width, (j+1)*width)."""
    for start in range(0, n, width):
        yield np.arange(start, min(start + width, n), dtype=np.int64)


def gpu_match(
    dev: Device,
    d_csr: dict[str, DeviceArray],
    graph: CSRGraph,
    n_threads: int,
    scheme: str,
    rng: np.random.Generator,
    resolve_conflicts: bool = True,
    fuse_resolve: bool = False,
) -> tuple[DeviceArray, LockfreeMatchStats]:
    """Run the matching + conflict-resolution kernels; returns (d_match, stats).

    If every edge weight is equal, HEM degenerates and the paper switches
    to iterative random matching (:func:`random_if_equal_weights`).

    ``resolve_conflicts=False`` skips the second (resolution) kernel and
    commits round 1's raw claims — the sanitizer's mutation self-check:
    the asymmetric ``M[u]`` writes it leaves behind must be detected as a
    write-write race.  Production callers never disable it.

    ``fuse_resolve=True`` (the async-streams schedule) folds both stages
    into one ``coarsen.match_resolve`` launch separated by an in-kernel
    ``grid_sync()`` barrier, saving one kernel-launch latency per level;
    the memory/compute volumes, the committed matching and the sanitizer
    semantics (per-epoch analysis) are identical to the two-kernel form.
    """
    n = graph.num_vertices
    match, stats = lockfree_match(
        graph,
        consecutive_batches(n, n_threads),
        scheme=random_if_equal_weights(graph, scheme),
        rng=rng,
        retry_rounds=0,  # GP-metis self-matches conflicted vertices outright
        resolve_conflicts=resolve_conflicts,
    )

    d_match = dev.alloc(n, np.int64, label="match")

    fused = fuse_resolve and resolve_conflicts
    kernel_name = "coarsen.match_resolve" if fused else "coarsen.match"

    # Account the matching kernel: one launch covering all lockstep
    # iterations (each thread loops over ceil(n/T) vertices).  Thread
    # ownership follows Fig. 2: vertex v belongs to thread v % T, and v's
    # thread issues both of the pair writes (M[v]=u and M[u]=v).
    with dev.kernel(kernel_name, n_threads=n_threads) as k:
        verts = np.arange(n, dtype=np.int64)
        vthreads = verts % n_threads
        k.gather(d_csr["adjp"], verts, threads=vthreads)      # row starts
        k.gather(d_csr["adjp"], verts + 1, threads=vthreads)  # row ends
        degs = graph.degrees()
        # Rows in vertex order tile arcs 0..nnz-1, whose neighbors are adjncy.
        arcs = AccessPattern(np.arange(graph.num_directed_edges, dtype=np.int64))
        fthreads = np.repeat(vthreads, degs)
        k.gather(d_csr["adjncy"], arcs, threads=fthreads)     # neighbor ids
        k.gather(d_csr["adjwgt"], arcs, threads=fthreads)     # edge weights
        # Reading M[u] for every scanned neighbor: data-dependent gather.
        k.gather(d_match, graph.adjncy, threads=fthreads)
        k.compute_divergent(degs.astype(np.float64))
        # Two writes per matched pair (M[v]=u, M[u]=v): v side coalesced,
        # u side scattered.
        ids = np.arange(n, dtype=np.int64)
        paired = match != ids
        pthreads = ids[paired] % n_threads
        k.scatter(d_match, ids[paired], match[paired], threads=pthreads)
        k.scatter(d_match, match[paired], ids[paired], threads=pthreads)
        if fused:
            # Conflict resolution fused into the same launch behind a
            # device-wide barrier: M[M[v]] check + self-match writes.
            k.grid_sync()
            vals = k.stream_read(d_match)
            k.gather(d_match, np.maximum(vals, 0))
            k.compute(2 * n)
            k.stream_write(d_match, match)

    if resolve_conflicts and not fused:
        # Conflict-resolution kernel: M[M[v]] check + self-match writes.
        with dev.kernel("coarsen.resolve", n_threads=n_threads) as k:
            vals = k.stream_read(d_match)
            k.gather(d_match, np.maximum(vals, 0))
            k.compute(2 * n)
            k.stream_write(d_match, match)

    return d_match, stats
