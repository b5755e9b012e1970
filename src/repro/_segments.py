"""Vectorised segment (CSR-slice) utilities shared by all partitioners.

A "segment" is a contiguous slice of a flat array described by an offsets
array (like ``adjp``).  These helpers implement the gather/argmax/group
patterns that would be per-thread loops in the CUDA original, as single
numpy passes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gather_ranges",
    "segment_ids",
    "segmented_argmax",
    "aggregate_arcs",
]


def gather_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices covering ``[starts[i], starts[i]+lengths[i])`` for all i.

    The concatenation order preserves segment order; an all-zero
    ``lengths`` yields an empty array.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep_starts = np.repeat(starts, lengths)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    return rep_starts + offs


def segment_ids(lengths: np.ndarray) -> np.ndarray:
    """Segment index of each element of the flattened segments."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.repeat(np.arange(lengths.shape[0], dtype=np.int64), lengths)


def segmented_argmax(
    values: np.ndarray, lengths: np.ndarray, valid: np.ndarray | None = None
) -> np.ndarray:
    """Index (into the flat array) of the max element of each segment.

    ``valid`` masks elements out of consideration.  Segments that are
    empty or fully masked yield -1.  Ties resolve to the *first* valid
    maximal element (matching a sequential scan, and hence the CUDA
    thread's loop).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.full(lengths.shape[0], -1, dtype=np.int64)
    seg = segment_ids(lengths)
    vals = np.asarray(values).astype(np.float64, copy=False)
    pos = np.arange(seg.shape[0], dtype=np.int64)
    if valid is not None:
        pos = np.flatnonzero(valid)
        seg, vals = seg[pos], vals[pos]
    if seg.size == 0:
        return out
    starts = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
    seg_max = np.maximum.reduceat(vals, starts)
    hit = vals == np.repeat(seg_max, np.diff(starts, append=vals.shape[0]))
    # Elements keep their flat order, so a segment's smallest hit index is
    # its first maximum.
    first = np.minimum.reduceat(
        np.where(hit, np.arange(vals.shape[0]), vals.shape[0]), starts
    )
    ok = np.isfinite(seg_max)
    out[seg[starts[ok]]] = pos[first[ok]]
    return out


def aggregate_arcs(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, n_vertices: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge duplicate (src, dst) arcs by summing weights; return CSR parts.

    Returns ``(adjp, adjncy, adjwgt)`` with adjacency lists sorted by
    neighbor id.  Self-arcs must already be removed by the caller.
    """
    if src.size == 0:
        return (
            np.zeros(n_vertices + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    key = src.astype(np.int64) * np.int64(n_vertices) + dst
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    uniq = np.empty(key_s.shape[0], dtype=bool)
    uniq[0] = True
    np.not_equal(key_s[1:], key_s[:-1], out=uniq[1:])
    group = np.cumsum(uniq) - 1
    merged_w = np.zeros(int(group[-1]) + 1, dtype=np.int64)
    np.add.at(merged_w, group, w[order])
    u_key = key_s[uniq]
    u_src = (u_key // n_vertices).astype(np.int64)
    u_dst = (u_key % n_vertices).astype(np.int64)
    counts = np.bincount(u_src, minlength=n_vertices)
    adjp = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=adjp[1:])
    return adjp, u_dst, merged_w
