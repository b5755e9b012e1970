"""Vertex relabeling and locality-improving orderings.

The paper's Fig. 2 explains why the GPU matching kernel wants consecutive
thread ids to own consecutive vertex ids (memory coalescing).  Whether
consecutive vertex ids are *also* neighbors in the graph depends on the
input ordering; these reorderings (BFS, reverse Cuthill-McKee, random) let
the coalescing ablation (experiment A4) vary that locality while keeping
the graph isomorphic.
"""

from __future__ import annotations

import numpy as np

from .._segments import gather_ranges
from ..exceptions import InvalidParameterError
from .csr import CSRGraph

__all__ = ["permute", "bfs_order", "rcm_order", "random_order", "identity_order"]


def permute(graph: CSRGraph, new_of_old: np.ndarray, name: str | None = None) -> CSRGraph:
    """Relabel vertices: new id of old vertex v is ``new_of_old[v]``."""
    new_of_old = np.asarray(new_of_old, dtype=np.int64)
    n = graph.num_vertices
    if new_of_old.shape[0] != n:
        raise InvalidParameterError("permutation length must equal |V|")
    check = np.zeros(n, dtype=bool)
    check[new_of_old] = True
    if not check.all():
        raise InvalidParameterError("new_of_old is not a permutation")

    old_of_new = np.empty(n, dtype=np.int64)
    old_of_new[new_of_old] = np.arange(n, dtype=np.int64)

    src_old = graph.source_array()
    src = new_of_old[src_old]
    dst = new_of_old[graph.adjncy]
    order = np.lexsort((dst, src))
    counts = np.bincount(src, minlength=n)
    adjp = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=adjp[1:])
    return CSRGraph(
        adjp=adjp,
        adjncy=dst[order],
        adjwgt=graph.adjwgt[order],
        vwgt=graph.vwgt[old_of_new],
        name=name or f"{graph.name}#perm",
    )


def identity_order(graph: CSRGraph) -> np.ndarray:
    return np.arange(graph.num_vertices, dtype=np.int64)


def random_order(graph: CSRGraph, seed=0) -> np.ndarray:
    """A random permutation — the worst case for coalesced neighborhoods."""
    return np.random.default_rng(seed).permutation(graph.num_vertices).astype(np.int64)


def bfs_order(graph: CSRGraph, start: int = 0) -> np.ndarray:
    """BFS numbering from ``start`` (unvisited components appended in id order).

    Returns ``new_of_old``.
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not 0 <= start < n:
        raise InvalidParameterError("start vertex out of range")
    new_of_old = np.full(n, -1, dtype=np.int64)
    counter = 0
    seeds = [start] + [v for v in range(n) if v != start]
    seen = np.zeros(n, dtype=bool)
    for seed in seeds:
        if seen[seed]:
            continue
        seen[seed] = True
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            new_of_old[frontier] = np.arange(
                counter, counter + frontier.size, dtype=np.int64
            )
            counter += int(frontier.size)
            lens = graph.adjp[frontier + 1] - graph.adjp[frontier]
            nbrs = graph.adjncy[gather_ranges(graph.adjp[frontier], lens)]
            fresh = np.unique(nbrs[~seen[nbrs]])
            seen[fresh] = True
            frontier = fresh
    return new_of_old


def rcm_order(graph: CSRGraph) -> np.ndarray:
    """Reverse Cuthill-McKee ordering (bandwidth-minimising; best locality).

    Returns ``new_of_old``.  Uses scipy's implementation on the CSR
    pattern, reversed per the classic RCM definition.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    perm = reverse_cuthill_mckee(graph.to_scipy(), symmetric_mode=True)
    new_of_old = np.empty(n, dtype=np.int64)
    new_of_old[perm.astype(np.int64)] = np.arange(n, dtype=np.int64)
    return new_of_old
