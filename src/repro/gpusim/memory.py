"""Device arrays and the memory-coalescing model (paper Sec. III.A, Fig. 2).

A :class:`DeviceArray` wraps a host numpy array but is tagged as residing
in simulated GPU global memory; only kernels (``Device.kernel``) and
transfers may touch it, and every access is charged through the
coalescing model below.

Coalescing model: modern CUDA devices service a warp's loads in 128-byte
transactions.  When the 32 threads of a warp access addresses within one
128-byte block, the hardware issues a single transaction; scattered
accesses issue one transaction per distinct block.  Fig. 2 of the paper
shows the vertex distribution chosen so that thread ``t`` reads vertex
``base + t``, making per-warp accesses contiguous.  ``warp_transactions``
reproduces the hardware rule exactly: it maps each accessed element to
its block and counts distinct blocks per warp.  An :class:`AccessPattern`
wraps an index array that a kernel accesses more than once, so its count
is taken once per item size.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..exceptions import DeviceMemoryError

__all__ = ["AccessPattern", "DeviceArray", "warp_transactions", "stream_transactions"]

#: Monotone allocation ids — the sanitizer keys access logs by ``uid``
#: because ``id()`` values can be recycled after a ``free()``.
_UID_COUNTER = itertools.count()


class DeviceArray:
    """A numpy array living in simulated device global memory.

    The wrapper intentionally does not subclass ndarray: algorithm code
    must go through kernel accessors so accesses are accounted (and, in
    sanitize mode, race-checked).  ``.data`` exposes the raw array for
    the kernel implementations.
    """

    __slots__ = ("data", "device", "_freed", "label", "uid")

    def __init__(self, data: np.ndarray, device, label: str = "") -> None:
        self.data = data
        self.device = device
        self.label = label or "darray"
        self.uid = next(_UID_COUNTER)
        self._freed = False

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def itemsize(self) -> int:
        return int(self.data.itemsize)

    @property
    def freed(self) -> bool:
        return self._freed

    def free(self) -> None:
        """Release device memory (idempotent is an error — CUDA double free)."""
        if self._freed:
            raise DeviceMemoryError(f"double free of device array {self.label!r}")
        self.device._release(self)
        self._freed = True

    def _require_live(self) -> None:
        if self._freed:
            raise DeviceMemoryError(f"use-after-free of device array {self.label!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "freed" if self._freed else f"{self.nbytes}B"
        return f"DeviceArray({self.label!r}, shape={self.data.shape}, {state})"


class AccessPattern:
    """An index array that kernels read or write through more than once.

    ``indices`` is a read-only int64 view of the caller's array (no copy
    when it already is int64), and ``counts`` memoizes its
    :func:`warp_transactions` count per ``(itemsize, warp_size,
    block_bytes)``.  ``KernelContext.gather`` and ``scatter`` take a
    pattern wherever they take an index array and charge the same
    transactions; only the count is reused.  The call that builds a
    pattern drops it when it returns, so no level's index arrays outlive
    that call.
    """

    __slots__ = ("indices", "counts")

    def __init__(self, indices) -> None:
        view = np.asarray(indices, dtype=np.int64).view()
        view.flags.writeable = False
        self.indices = view
        self.counts: dict[tuple[int, int, int], int] = {}


def warp_transactions(
    indices: np.ndarray, itemsize: int, warp_size: int = 32, block_bytes: int = 128
) -> int:
    """Number of 128-byte transactions for a warp-ordered gather/scatter.

    ``indices[i]`` is the element index accessed by logical thread ``i``;
    threads are grouped into warps of ``warp_size`` consecutive ids.  The
    count is the sum over warps of distinct touched blocks — the rule the
    paper's Fig. 2 illustrates.  A warp whose block ids never descend
    touches one block plus one per change between neighbours; only the
    warps with a descent are sorted to count their distinct blocks.
    """
    idx = np.asarray(indices, dtype=np.int64)
    n = idx.shape[0]
    if n == 0:
        return 0
    per_block, rem = divmod(block_bytes, itemsize)
    if rem == 0 and per_block & (per_block - 1) == 0:
        # Floor division by a power of two, negative indices included.
        blocks = idx >> (int(per_block).bit_length() - 1)
    else:
        blocks = (idx * itemsize) // block_bytes
    full = n - n % warp_size
    txns = len(set(blocks[full:].tolist()))  # the partial last warp
    if full:
        per_warp = blocks[:full].reshape(-1, warp_size)
        steps = np.diff(per_warp, axis=1)
        txns += per_warp.shape[0] + np.count_nonzero(steps)
        descents = steps < 0
        if descents.any():
            unsorted = descents.any(axis=1)
            rows = np.sort(per_warp[unsorted], axis=1)
            txns += np.count_nonzero(np.diff(rows, axis=1)) - np.count_nonzero(
                steps[unsorted]
            )
    return int(txns)


def stream_transactions(nbytes: float, block_bytes: int = 128) -> float:
    """Transactions for a perfectly coalesced sequential sweep of nbytes."""
    return float(np.ceil(nbytes / block_bytes))
