"""List-walked sequential matching against the numpy-scalar oracle.

``sequential_match`` used to walk its visit order reading numpy scalars
and to scan fallbacks with numpy slices.  The function below is that
implementation, kept verbatim (with its candidate precompute) as the
oracle: the list walk must produce the same match vector, pair and scan
counts, and leave ``rng`` in the same state.
"""

import numpy as np
import pytest

from repro._segments import segmented_argmax
from repro.graphs import from_edges
from repro.graphs.generators import complete_graph, delaunay, grid2d, star_graph
from repro.serial.matching import MatchResult, sequential_match


# -- numpy-scalar oracle -----------------------------------------------------
def oracle_precompute_candidates(graph, scheme, rng):
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


def oracle_sequential_match(graph, scheme="hem", rng=None):
    rng = rng or np.random.default_rng(0)
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return MatchResult(match, 0, 0)

    cand = oracle_precompute_candidates(graph, scheme, rng)
    visit = rng.permutation(n)
    adjp = graph.adjp
    adjncy = graph.adjncy
    adjwgt = graph.adjwgt
    pairs = 0
    edge_scans = int(graph.num_directed_edges)  # candidate precompute pass

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
        nbrs = adjncy[s:e]
        edge_scans += int(e - s)
        free = match[nbrs] < 0
        if not np.any(free):
            match[v] = v
            continue
        if scheme == "hem":
            j = int(np.argmax(np.where(free, adjwgt[s:e], -1)))
        elif scheme == "lem":
            big = int(adjwgt.max(initial=1)) + 1
            j = int(np.argmin(np.where(free, adjwgt[s:e], big)))
        else:
            free_idx = np.where(free)[0]
            j = int(free_idx[rng.integers(0, free_idx.shape[0])])
        u = int(nbrs[j])
        match[v] = u
        match[u] = v
        pairs += 1

    return MatchResult(match, pairs, edge_scans)


# -- inputs ------------------------------------------------------------------
def reweighted(graph, seed, high):
    """``graph``'s edges with random weights in [1, high]."""
    rng = np.random.default_rng(seed)
    src = graph.source_array()
    keep = src < graph.adjncy
    edges = np.stack([src[keep], graph.adjncy[keep]], axis=1)
    return from_edges(
        graph.num_vertices, edges, weights=rng.integers(1, high + 1, edges.shape[0])
    )


def components_with_isolated():
    """Three components plus isolated vertices 3, 9 and 10."""
    edges = [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6, 7), (7, 8), (4, 8),
             (11, 12), (12, 13)]
    return from_edges(14, edges, weights=[2, 1, 2, 3, 3, 1, 3, 2, 1, 1])


def huge_weights(graph, seed):
    """Weights in [2**53, 2**53 + 3], which float64 cannot all tell apart."""
    src = graph.source_array()
    keep = src < graph.adjncy
    edges = np.stack([src[keep], graph.adjncy[keep]], axis=1)
    offsets = np.random.default_rng(seed).integers(0, 4, edges.shape[0])
    return from_edges(graph.num_vertices, edges, weights=2**53 + offsets)


GRAPHS = {
    "unit-grid": grid2d(15, 15),
    "huge-weights": huge_weights(delaunay(200, seed=5), 5),
    "unit-delaunay": delaunay(400, seed=1),
    "tied-weights": reweighted(delaunay(400, seed=2), 2, high=3),
    "varied-weights": reweighted(delaunay(400, seed=3), 3, high=1000),
    "components-isolated": components_with_isolated(),
    "star": star_graph(40),
    "complete": reweighted(complete_graph(24), 4, high=4),
    "empty": from_edges(0, []),
}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("scheme", ["hem", "lem", "rm"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_sequential_match_matches_oracle(name, scheme, seed):
    g = GRAPHS[name]
    rng = np.random.default_rng(seed)
    got = sequential_match(g, scheme, rng)
    oracle_rng = np.random.default_rng(seed)
    want = oracle_sequential_match(g, scheme, oracle_rng)
    assert got.match.dtype == want.match.dtype
    assert np.array_equal(got.match, want.match)
    assert (got.pairs, got.edge_scans) == (want.pairs, want.edge_scans)
    assert type(got.pairs) is type(want.pairs) is int
    assert type(got.edge_scans) is type(want.edge_scans) is int
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_fallbacks_are_exercised():
    # The differential cases only test the fallback scan if candidates
    # get taken: on a star every spoke's candidate is the hub.
    g = GRAPHS["star"]
    res = sequential_match(g, "hem", np.random.default_rng(0))
    assert res.edge_scans > g.num_directed_edges
