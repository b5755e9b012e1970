"""Greedy Graph Growing Partitioning (paper Sec. II.A.2).

Metis's initial bisection: start from a random vertex and grow a region
breadth-first, always absorbing the frontier vertex whose inclusion
decreases the edge cut the most, until the region holds (about) the
target half of the total vertex weight.  Several trials from different
seeds are run and the best cut wins.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut

__all__ = ["gggp_bisect", "grow_region"]


def grow_region(
    graph: CSRGraph, seed_vertex: int, target_weight: int
) -> np.ndarray:
    """Grow one region from ``seed_vertex`` to ~``target_weight``.

    Returns a 0/1 label array (1 = inside the region).  Gain of a frontier
    vertex = (edge weight into the region) - (edge weight out of it); the
    maximal-gain vertex is absorbed each step, the lowest id on ties.  The
    frontier is a max-heap keyed ``(-gain, vertex)`` with lazy
    invalidation: an entry is live only while its vertex is in the
    frontier with exactly that gain.  If the frontier empties while
    underweight (disconnected graph), growth restarts from the lightest
    outside vertex, the lowest id on ties.
    """
    n = graph.num_vertices
    if not 0 <= seed_vertex < n:
        raise InvalidParameterError(
            f"seed_vertex {seed_vertex} outside [0, {n})"
        )
    adjp = graph.adjp.tolist()
    adjncy = graph.adjncy.tolist()
    adjwgt = graph.adjwgt.tolist()
    vwgt = graph.vwgt.tolist()
    inside = [False] * n
    gain: list[int | None] = [None] * n  # None: not in the frontier
    heap: list[tuple[int, int]] = []
    frontier = 0
    restart = None  # built at the first restart: ids by (weight, id)

    weight = 0
    v = seed_vertex
    while weight < target_weight:
        inside[v] = True
        if gain[v] is not None:
            gain[v] = None
            frontier -= 1
        for i in range(adjp[v], adjp[v + 1]):
            u = adjncy[i]
            if inside[u]:
                continue
            g = gain[u]
            if g is None:
                # First sighting: gain = w(u->region) - w(u->rest).
                to_in = total = 0
                for j in range(adjp[u], adjp[u + 1]):
                    total += adjwgt[j]
                    if inside[adjncy[j]]:
                        to_in += adjwgt[j]
                g = 2 * to_in - total
                frontier += 1
            else:
                g += 2 * adjwgt[i]
            gain[u] = g
            heapq.heappush(heap, (-g, u))
        weight += vwgt[v]
        if weight >= target_weight:
            break
        if frontier:
            neg, v = heapq.heappop(heap)
            while gain[v] != -neg:
                neg, v = heapq.heappop(heap)
            continue
        if restart is None:
            restart = iter(np.argsort(graph.vwgt, kind="stable").tolist())
        # A vertex once inside stays inside, so the ids this iterator
        # has passed never need revisiting: one sweep serves every restart.
        v = next((u for u in restart if not inside[u]), -1)
        if v < 0:
            break
    return np.array(inside, dtype=np.int64)


def gggp_bisect(
    graph: CSRGraph,
    fraction: float = 0.5,
    trials: int = 4,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Best-of-``trials`` GGGP bisection.

    ``fraction`` is the target share of total vertex weight in side 1
    (recursive bisection into unequal k uses ceil(k/2)/k).  Returns 0/1
    labels; side 1 is the grown region.
    """
    rng = rng or np.random.default_rng(0)
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    target = max(1, int(round(graph.total_vertex_weight * fraction)))
    best_part: np.ndarray | None = None
    best_cut = None
    for _ in range(max(1, trials)):
        seed_vertex = int(rng.integers(0, n))
        part = grow_region(graph, seed_vertex, target)
        cut = edge_cut(graph, part)
        if best_cut is None or cut < best_cut:
            best_cut = cut
            best_part = part
    assert best_part is not None
    return best_part
