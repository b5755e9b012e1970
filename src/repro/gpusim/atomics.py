"""Atomic-operation helpers for lock-free device algorithms.

The paper's refinement (Sec. III.C) lets thousands of threads append
movement requests to per-partition buffers: "when one thread wants to put
a request on a specific buffer, it atomically increments the counter S by
one.  Thus, multiple threads are able to write to exclusive slots of the
buffer concurrently without resorting to locks."

``atomic_append`` reproduces that slot assignment deterministically
(thread order = arbitration order) and charges the atomic-contention
model: concurrent increments of the same counter serialise.
"""

from __future__ import annotations

import numpy as np

from .device import KernelContext

__all__ = ["atomic_append"]


def atomic_append(
    k: KernelContext,
    buffer_ids: np.ndarray,
    num_buffers: int,
    d_counters=None,
) -> np.ndarray:
    """Assign each request an exclusive slot in its destination buffer.

    ``buffer_ids[i]`` is the buffer that request ``i`` (issued by logical
    thread ``i``) targets.  Returns ``slots`` such that requests targeting
    the same buffer receive 0, 1, 2, ... in thread order — the result of
    each thread's ``atomicAdd(&S[buf], 1)``.

    Passing the counter array ``d_counters`` applies the increments to it
    and lets the sanitizer record the RMWs as *atomic* accesses: many
    threads may hit one counter element without being flagged, which is
    exactly the lock-freedom claim of paper Sec. III.C.
    """
    ids = np.asarray(buffer_ids, dtype=np.int64)
    n = ids.shape[0]
    slots = np.zeros(n, dtype=np.int64)
    if n:
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        # Position within each run of equal buffer ids = slot number.
        run_start = np.concatenate([[True], sorted_ids[1:] != sorted_ids[:-1]])
        run_idx = np.cumsum(run_start) - 1
        first_pos = np.zeros(run_idx[-1] + 1, dtype=np.int64)
        first_pos[run_idx[run_start]] = np.where(run_start)[0]
        slots[order] = np.arange(n, dtype=np.int64) - first_pos[run_idx]
    distinct = int(np.unique(ids).shape[0]) if n else 0
    if d_counters is not None:
        d_counters._require_live()
        k.atomic(n, distinct_targets=distinct, darr=d_counters, targets=ids)
        if n:
            d_counters.data[: min(num_buffers, d_counters.size)] += np.bincount(
                ids, minlength=num_buffers
            )[: d_counters.size]
    else:
        k.atomic(n, distinct_targets=distinct)
    return slots
