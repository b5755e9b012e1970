"""The matching choice every matching engine makes (paper Sec. II.A.1).

Heavy-edge matching (HEM) visits vertices in random order and matches
each unmatched vertex with its unmatched neighbor of maximum edge weight;
random matching (RM) picks a random unmatched neighbor; light-edge
matching (LEM) picks the minimum-weight neighbor.  Unmatchable vertices
match themselves, giving them "another chance ... in the following
coarsening levels".

This module owns that choice for all of them.  :func:`scheme_keys` is a
scheme's per-arc key (RM draws its keys at each pick);
:func:`batch_candidates` is the vectorised pick of each vertex's first
free neighbor of maximal key; :func:`random_if_equal_weights` is the
paper's switch from HEM to random matching when every edge weighs the
same; :func:`self_match_leftovers` gives the unmatched vertices their
next-level chance.

The sequential semantics matter: they are what gives serial Metis its
quality edge over the lock-free parallel matchings (Table III).  The
implementation hybridises for speed — a vectorised best-neighbor
precomputation feeds the sequential pass, which falls back to an explicit
adjacency scan only when the precomputed candidate was taken earlier in
the pass.  The pass itself is a plain Python loop over list copies of the
CSR arrays (a numpy scalar read costs several list reads).  The produced
matching is identical to the fully sequential scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._segments import gather_ranges, segmented_argmax
from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph

__all__ = [
    "MatchResult",
    "sequential_match",
    "match_is_valid",
    "check_scheme",
    "scheme_keys",
    "batch_candidates",
    "random_if_equal_weights",
    "self_match_leftovers",
]

#: The matching schemes every matching function accepts.
SCHEMES = ("hem", "lem", "rm")


def check_scheme(scheme: str) -> None:
    """Raise :class:`InvalidParameterError` unless ``scheme`` is a known scheme."""
    if scheme not in SCHEMES:
        raise InvalidParameterError(
            f"unknown matching scheme {scheme!r} (expected one of {', '.join(SCHEMES)})"
        )


def scheme_keys(graph: CSRGraph, scheme: str) -> np.ndarray | None:
    """Per-arc int64 keys a pick maximises: the edge weight for HEM, its
    negation for LEM; ``None`` for RM, whose keys are drawn at each pick."""
    if scheme == "hem":
        return graph.adjwgt
    if scheme == "lem":
        return -graph.adjwgt
    return None


def batch_candidates(
    graph: CSRGraph,
    vertices: np.ndarray | None,
    free: np.ndarray | None,
    scheme: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """CSR arc from each of ``vertices`` to its first neighbor of maximal
    key, in CSR order, among the neighbors the boolean vertex mask
    ``free`` marks; -1 where there is none.

    Vectorised equivalent of each CUDA thread's HEM loop.  Keys are
    :func:`scheme_keys` compared as float64; RM draws ``rng.random`` once
    per call, one key per scanned arc.  ``vertices=None`` means every
    vertex (no gather), ``free=None`` every neighbor.  Raises
    :class:`InvalidParameterError` for a scheme other than hem, lem or rm.
    """
    check_scheme(scheme)
    if vertices is None:
        lens = graph.degrees()
        flat = None  # every arc, in order
        scanned = graph.num_directed_edges
    else:
        lens = (graph.adjp[vertices + 1] - graph.adjp[vertices]).astype(np.int64)
        flat = gather_ranges(graph.adjp[vertices], lens)
        scanned = flat.shape[0]
    keys = scheme_keys(graph, scheme)
    if keys is None:
        keys = rng.random(scanned)
    elif flat is not None:
        keys = keys[flat]
    valid = None
    if free is not None:
        valid = free[graph.adjncy if flat is None else graph.adjncy[flat]]
    win = segmented_argmax(keys, lens, valid=valid)
    if flat is None:
        return win
    arcs = np.full(win.shape[0], -1, dtype=np.int64)
    ok = win >= 0
    arcs[ok] = flat[win[ok]]
    return arcs


def random_if_equal_weights(graph: CSRGraph, scheme: str) -> str:
    """HEM becomes RM when every edge weight is equal (Sec. III.A).

    Uniform weights degenerate HEM into a deterministic lowest-id
    preference that collapses all claims onto a few popular targets;
    GP-metis, ParMetis and PT-Scotch switch to random matching instead.
    """
    if scheme == "hem" and graph.adjwgt.size and graph.adjwgt.min() == graph.adjwgt.max():
        return "rm"
    return scheme


def self_match_leftovers(match: np.ndarray) -> int:
    """Match each unmatched vertex (``match[v] < 0``) with itself, in
    place; returns how many there were."""
    left = np.flatnonzero(match < 0)
    match[left] = left
    return int(left.shape[0])


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one matching pass.

    ``match[v]`` is v's partner (== v for self-matched).  ``pairs`` is the
    number of two-vertex matches; ``edge_scans`` counts adjacency-entry
    visits for the CPU cost model.
    """

    match: np.ndarray
    pairs: int
    edge_scans: int


def sequential_match(
    graph: CSRGraph, scheme: str = "hem", rng: np.random.Generator | None = None
) -> MatchResult:
    """Strict sequential greedy matching in a random visit order.

    Raises :class:`InvalidParameterError` for a scheme outside
    :data:`SCHEMES`.
    """
    check_scheme(scheme)
    rng = rng or np.random.default_rng(0)
    n = graph.num_vertices
    if n == 0:
        return MatchResult(np.full(0, -1, dtype=np.int64), 0, 0)

    arcs = batch_candidates(graph, None, None, scheme, rng)
    has = arcs >= 0
    cand = np.full(n, -1, dtype=np.int64)
    cand[has] = graph.adjncy[arcs[has]]
    cand = cand.tolist()
    visit = rng.permutation(n).tolist()
    adjp = graph.adjp.tolist()
    adjncy = graph.adjncy.tolist()
    keys = scheme_keys(graph, scheme)
    if keys is not None:
        # The fallback ranks free neighbors by exact integer keys.
        keys = keys.tolist()
    match = [-1] * n
    pairs = 0
    edge_scans = graph.num_directed_edges  # candidate precompute pass

    for v in visit:
        if match[v] >= 0:
            continue
        c = cand[v]
        if c >= 0 and match[c] < 0:
            match[v] = c
            match[c] = v
            pairs += 1
            continue
        # Fallback: scan for the best unmatched neighbor now.
        s, e = adjp[v], adjp[v + 1]
        edge_scans += e - s
        if keys is None:  # rm
            free = [i for i in range(s, e) if match[adjncy[i]] < 0]
            j = free[rng.integers(0, len(free))] if free else -1
        else:
            # The first free neighbor of maximal key, in CSR order.
            j, top = -1, -math.inf
            for i in range(s, e):
                if keys[i] > top and match[adjncy[i]] < 0:
                    j, top = i, keys[i]
        if j < 0:
            match[v] = v
            continue
        u = adjncy[j]
        match[v] = u
        match[u] = v
        pairs += 1

    return MatchResult(np.array(match, dtype=np.int64), pairs, edge_scans)


def match_is_valid(graph: CSRGraph, match: np.ndarray) -> bool:
    """A matching is valid iff it is an involution into closed neighborhoods."""
    n = graph.num_vertices
    match = np.asarray(match, dtype=np.int64)
    if match.shape[0] != n:
        return False
    if n == 0:
        return True
    if match.min() < 0 or match.max() >= n:
        return False
    if not np.array_equal(match[match], np.arange(n, dtype=np.int64)):
        return False
    # Matched partners must be adjacent.
    vs = np.where(match != np.arange(n))[0]
    for v in vs:
        if match[v] not in graph.neighbors(int(v)):
            return False
    return True
