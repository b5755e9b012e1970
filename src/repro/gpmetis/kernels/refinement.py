"""GPU refinement kernels (paper Sec. III.C).

Per refinement pass:

* ``uncoarsen.boundary_gain`` — one sweep: threads scan their vertices'
  adjacency, flag boundary vertices and compute each one's best
  destination for both move directions (max cut reduction, no source
  underweight / destination overweight);

then per sub-iteration (one move direction):

* ``uncoarsen.request`` — boundary vertices append requests
  ``(vertex, gain)`` to per-partition buffers through an ``atomicAdd`` on
  the buffer counter ``S``;
* ``uncoarsen.explore`` — launched with one thread per partition: each
  sorts its buffer by gain and commits the moves that keep its partition
  under the weight cap.

Semantics come from the shared engine
(:mod:`repro.mtmetis.refinement`); this module adds the device-side data
movement and the atomic/sort cost models, and keeps the partition vector
device-resident across levels.
"""

from __future__ import annotations

import numpy as np

from ...graphs.csr import CSRGraph
from ...gpusim.atomics import atomic_append
from ...gpusim.device import Device
from ...gpusim.memory import AccessPattern, DeviceArray
from ...gpusim.sort import charge_thread_quicksort
from ...mtmetis.refinement import (
    SubIterationStats,
    balance_rounds,
    commit_moves,
    propose_balance_moves,
    propose_moves,
)
from ...serial.kway import balance_limits

__all__ = ["gpu_refine_level"]


def gpu_refine_level(
    dev: Device,
    d_csr: dict[str, DeviceArray],
    graph: CSRGraph,
    d_part: DeviceArray,
    k: int,
    ubfactor: float,
    max_passes: int,
    n_threads: int,
) -> list[SubIterationStats]:
    """Refine one level in place on the device; returns per-sub-iter stats."""
    part = d_part.data  # device-resident labels, mutated in place
    pweights, max_pw, min_pw = balance_limits(graph, part, k, ubfactor)
    n = graph.num_vertices
    deg = graph.degrees()
    all_stats: list[SubIterationStats] = []

    d_buffers = dev.alloc(max(1, n), np.int64, label="refine.buffers")
    d_counters = dev.alloc(max(1, k), np.int64, label="refine.S")
    # The boundary sweep reads every vertex's adjacency; its index arrays
    # are the same in every pass of the level, so each is counted once.
    row_starts = AccessPattern(np.arange(n, dtype=np.int64))
    row_ends = AccessPattern(np.arange(1, n + 1, dtype=np.int64))
    arcs = AccessPattern(np.arange(graph.num_directed_edges, dtype=np.int64))
    neighbors = AccessPattern(graph.adjncy)
    deg_ops = deg.astype(np.float64)

    for _ in range(max_passes):
        pass_committed = 0
        # "In the first refinement kernel, the vertices in the finer graph
        # are distributed among the threads and each thread determines the
        # boundary vertices ... Then it finds the best destination
        # partition for migration of each boundary vertex" — one label
        # sweep per refinement pass finds the boundary and its
        # connectivity from the pass-start snapshot, and serves both
        # direction sub-iterations.
        up, down = propose_moves(graph, part, k, (+1, -1), pweights, max_pw, min_pw)
        proposals = {+1: up, -1: down}
        with dev.kernel("uncoarsen.boundary_gain", n_threads=n_threads) as kk:
            kk.gather(d_csr["adjp"], row_starts)
            kk.gather(d_csr["adjp"], row_ends)
            kk.gather(d_csr["adjncy"], arcs)
            kk.gather(d_part, neighbors)  # neighbor labels
            kk.compute_divergent(deg_ops)
            bstats = proposals[+1][3]
            if bstats.boundary_size:
                # Best-destination selection over k candidate partitions.
                kk.compute_divergent(
                    bstats.boundary_degrees.astype(np.float64) + k
                )

        # Sub-iterations: one balancing round when overweight (direction
        # 0), then the two directional rounds (+1, -1).
        overweight = pweights.max(initial=0.0) > max_pw
        for direction in (0, +1, -1) if overweight else (+1, -1):
            if direction == 0:
                vs, ds, gs, stats = propose_balance_moves(
                    graph, part, k, pweights, max_pw
                )
            else:
                vs, ds, gs, stats = proposals[direction]

            # Request kernel: boundary threads append (vertex, gain) pairs
            # to their destination partition's buffer via atomicAdd on S.
            if stats.boundary_size and vs.size:
                with dev.kernel("uncoarsen.request", n_threads=n_threads) as kk:
                    # The counter RMWs are atomic (many threads, one
                    # element per partition — race-free by commutativity);
                    # the buffer writes land in the exclusive slots the
                    # counters handed out.
                    atomic_append(kk, ds, k, d_counters=d_counters)
                    slots = np.arange(vs.shape[0], dtype=np.int64) % max(
                        1, d_buffers.size
                    )
                    kk.scatter(d_buffers, slots, vs, threads=vs % n_threads)
                    kk.compute(2 * vs.shape[0])

            before = part[vs].copy() if vs.size else np.empty(0, np.int64)
            commit_moves(
                graph, part, pweights, vs, ds, gs, k, max_pw, stats,
                recheck_gains=(direction != 0),
            )
            moved = vs[part[vs] != before] if vs.size else vs

            # Explore kernel: one thread per partition sorts + commits.
            # Each commit write is issued by the destination partition's
            # worker; a vertex moves to exactly one destination, so the
            # writes are exclusive (the sanitizer checks this).
            with dev.kernel("uncoarsen.explore", n_threads=max(1, k)) as kk:
                reqs = stats.requests_per_partition
                if reqs.size:
                    charge_thread_quicksort(kk, reqs.astype(np.float64))
                    kk.compute_divergent(reqs.astype(np.float64))
                if moved.size:
                    kk.scatter(d_part, moved, part[moved], threads=part[moved])
                kk.stream_read(d_counters)

            all_stats.append(stats)
            pass_committed += stats.committed
        if pass_committed == 0:
            break

    # Level-exit balance rounds, mirroring the CPU engine's guarantee.
    for _, _, moved, stats in balance_rounds(graph, part, pweights, k, max_pw, k):
        with dev.kernel("uncoarsen.balance", n_threads=n_threads) as kk:
            kk.compute_divergent(
                stats.boundary_degrees.astype(np.float64)
                if stats.boundary_degrees.size
                else np.zeros(1)
            )
            if moved.size:
                kk.scatter(d_part, moved, part[moved])
        all_stats.append(stats)

    d_buffers.free()
    d_counters.free()
    return all_stats
