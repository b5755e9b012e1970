"""Sequential matching schemes (paper Sec. II.A.1).

Heavy-edge matching (HEM) visits vertices in random order and matches
each unmatched vertex with its unmatched neighbor of maximum edge weight;
random matching (RM) picks a random unmatched neighbor; light-edge
matching (LEM) picks the minimum-weight neighbor.  Unmatchable vertices
match themselves, giving them "another chance ... in the following
coarsening levels".

The sequential semantics matter: they are what gives serial Metis its
quality edge over the lock-free parallel matchings (Table III).  The
implementation hybridises for speed — a vectorised heaviest-neighbor
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

from .._segments import segmented_argmax
from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph

__all__ = ["MatchResult", "sequential_match", "match_is_valid", "check_scheme"]

#: The matching schemes every matching function accepts.
SCHEMES = ("hem", "lem", "rm")


def check_scheme(scheme: str) -> None:
    """Raise :class:`InvalidParameterError` unless ``scheme`` is a known scheme."""
    if scheme not in SCHEMES:
        raise InvalidParameterError(
            f"unknown matching scheme {scheme!r} (expected one of {', '.join(SCHEMES)})"
        )


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


def _precompute_candidates(graph: CSRGraph, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """Best-neighbor candidate per vertex ignoring matching state."""
    lens = graph.degrees()
    if scheme == "hem":
        flat = segmented_argmax(graph.adjwgt.astype(np.float64), lens)
    elif scheme == "lem":
        flat = segmented_argmax(-graph.adjwgt.astype(np.float64), lens)
    else:  # rm — a random neighbor
        flat = segmented_argmax(rng.random(graph.adjncy.shape[0]), lens)
    cand = np.full(graph.num_vertices, -1, dtype=np.int64)
    has = flat >= 0
    cand[has] = graph.adjncy[flat[has]]
    return cand


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

    cand = _precompute_candidates(graph, scheme, rng).tolist()
    visit = rng.permutation(n).tolist()
    adjp = graph.adjp.tolist()
    adjncy = graph.adjncy.tolist()
    if scheme != "rm":
        # The fallback ranks free neighbors by weight (HEM) or its negation (LEM).
        keys = (graph.adjwgt if scheme == "hem" else -graph.adjwgt).tolist()
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
        if scheme == "rm":
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
