"""Recursive bisection to k parts (paper Sec. II.A.2).

"By repeating this recursive bisection method, the required number of
partitions is obtained."  Each split runs best-of-trials GGGP followed by
FM refinement; non-power-of-two k splits at ceil(k/2)/k so part weights
stay proportional.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import PartitioningError
from ..graphs.csr import CSRGraph
from .fm import fm_refine_bisection
from .gggp import gggp_bisect
from .options import FM_PASSES, GGGP_TRIALS, SerialOptions

__all__ = ["recursive_bisection", "bisect_once", "bisection_sweeps"]


def bisection_sweeps(k: int) -> int:
    """Whole-graph sweeps that recursive bisection into k parts costs.

    Each of the ceil(log2 k) tree levels sweeps the graph once per GGGP
    trial and once per FM pass of :func:`bisect_once`.
    """
    return (GGGP_TRIALS + FM_PASSES) * max(1, int(np.ceil(np.log2(max(k, 2)))))


def bisect_once(
    graph: CSRGraph,
    fraction: float,
    opts: SerialOptions,
    rng: np.random.Generator,
) -> np.ndarray:
    """One GGGP + FM bisection; returns 0/1 labels (1 = grown region)."""
    part = gggp_bisect(graph, fraction=fraction, trials=GGGP_TRIALS, rng=rng)
    total = graph.total_vertex_weight
    t1 = int(round(total * fraction))
    res = fm_refine_bisection(
        graph, part, (total - t1, t1), ubfactor=opts.ubfactor, max_passes=FM_PASSES
    )
    return res.part


def recursive_bisection(
    graph: CSRGraph,
    k: int,
    opts: SerialOptions,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Partition into k parts by recursive bisection; returns labels 0..k-1.

    Imbalance compounds multiplicatively down the bisection tree, so each
    split runs with tolerance ``ubfactor**(1/depth)`` — standard Metis
    practice to land the final k-way partition inside ``ubfactor``.
    """
    if k < 1:
        raise PartitioningError(f"k must be >= 1, got {k}")
    rng = rng or np.random.default_rng(opts.seed)
    if k > 1:
        from dataclasses import replace

        depth = max(1, int(np.ceil(np.log2(k))))
        opts = replace(opts, ubfactor=float(opts.ubfactor ** (1.0 / depth)))
    n = graph.num_vertices
    part = np.zeros(n, dtype=np.int64)
    if k == 1 or n == 0:
        return part

    # Work queue of (vertex ids, coarse-to-original map, parts wanted, label base).
    stack: list[tuple[CSRGraph, np.ndarray, int, int]] = [
        (graph, np.arange(n, dtype=np.int64), k, 0)
    ]
    while stack:
        g, vmap, kk, base = stack.pop()
        if kk == 1:
            part[vmap] = base
            continue
        if g.num_vertices < kk:
            # Degenerate: fewer vertices than parts; spread round-robin.
            part[vmap] = base + (np.arange(g.num_vertices) % kk)
            continue
        k1 = (kk + 1) // 2  # ceil(k/2) -> region side
        frac = k1 / kk
        labels = bisect_once(g, frac, opts, rng)
        side1 = np.where(labels == 1)[0]
        side0 = np.where(labels == 0)[0]
        if side1.size == 0 or side0.size == 0:
            # GGGP collapse (e.g. star graphs): force a weight-balanced split.
            order = np.argsort(-g.vwgt.astype(np.int64), kind="stable")
            half = g.num_vertices // 2
            labels = np.zeros(g.num_vertices, dtype=np.int64)
            labels[order[:half]] = 1
            side1 = np.where(labels == 1)[0]
            side0 = np.where(labels == 0)[0]
        sub1, _ = g.subgraph(side1)
        sub0, _ = g.subgraph(side0)
        stack.append((sub1, vmap[side1], k1, base))
        stack.append((sub0, vmap[side0], kk - k1, base + k1))
    return part
