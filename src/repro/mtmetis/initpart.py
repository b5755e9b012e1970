"""mt-metis initial partitioning (paper Sec. II.C).

"Each thread partitions the graph into two bisections.  Then the best
bisection with the minimum edge-cut is selected and half of the threads
work on one of the bisections and half of them partition the other
bisection recursively."

The model: at a tree node with ``t`` threads, ``t`` independent seeded
GGGP+FM bisections run concurrently (wall time of one, quality of the
best); the two halves then recurse with ``t/2`` threads each, running
concurrently (wall time of the slower child).
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..serial.bisection import bisection_sweeps, recursive_bisection
from ..serial.fm import fm_refine_bisection
from ..serial.gggp import gggp_bisect
from ..serial.options import FM_PASSES, SerialOptions

__all__ = ["parallel_recursive_bisection"]


def _best_of_bisections(
    graph: CSRGraph,
    fraction: float,
    trials: int,
    opts: SerialOptions,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Best of ``trials`` concurrent bisections; cost = one bisection."""
    best = None
    best_cut = None
    for _ in range(max(1, trials)):
        labels = gggp_bisect(graph, fraction=fraction, trials=1, rng=rng)
        total = graph.total_vertex_weight
        t1 = int(round(total * fraction))
        res = fm_refine_bisection(
            graph, labels, (total - t1, t1),
            ubfactor=opts.ubfactor, max_passes=FM_PASSES,
        )
        if best_cut is None or res.cut < best_cut:
            best_cut = res.cut
            best = res.part
    assert best is not None
    # One bisection's edge work: GGGP + FM sweeps over the (sub)graph.
    sweeps = 1 + FM_PASSES
    return best, float(sweeps * graph.num_directed_edges)


def parallel_recursive_bisection(
    graph: CSRGraph,
    k: int,
    num_threads: int,
    opts: SerialOptions,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Partition the coarsest graph into k parts with thread-parallel RB.

    Returns ``(labels, critical_edge_work)`` where the work is the
    critical-path arc count of the bisection tree (to be charged at
    single-core speed: tree nodes at one level run concurrently).
    """
    n = graph.num_vertices
    if k == 1 or n == 0:
        return np.zeros(n, dtype=np.int64), 0.0
    if num_threads <= 1:
        labels = recursive_bisection(graph, k, opts, rng=rng)
        return labels, float(bisection_sweeps(k) * graph.num_directed_edges)
    if n < k:
        return np.arange(n, dtype=np.int64) % k, float(n)

    from dataclasses import replace

    depth = max(1, int(np.ceil(np.log2(k))))
    level_opts = replace(opts, ubfactor=float(opts.ubfactor ** (1.0 / depth)))

    k1 = (k + 1) // 2
    frac = k1 / k
    labels, work_here = _best_of_bisections(
        graph, frac, trials=num_threads, opts=level_opts, rng=rng
    )
    side1 = np.where(labels == 1)[0]
    side0 = np.where(labels == 0)[0]
    if side0.size == 0 or side1.size == 0:
        # Degenerate split: fall back to serial RB for this subtree.
        lab = recursive_bisection(graph, k, opts, rng=rng)
        return lab, work_here + float(graph.num_directed_edges)

    part = np.zeros(n, dtype=np.int64)
    t_half = max(1, num_threads // 2)
    sub1, _ = graph.subgraph(side1)
    sub0, _ = graph.subgraph(side0)
    lab1, w1 = parallel_recursive_bisection(sub1, k1, t_half, opts, rng)
    lab0, w0 = parallel_recursive_bisection(sub0, k - k1, t_half, opts, rng)
    part[side1] = lab1
    part[side0] = k1 + lab0
    # Children run concurrently on disjoint thread groups.
    return part, work_here + max(w0, w1)
