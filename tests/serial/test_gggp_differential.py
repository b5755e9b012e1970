"""Heap-ordered GGGP against the argmax oracle.

``grow_region`` used to rescan all n vertices with ``np.argmax`` for each
vertex it absorbed and to update gains one numpy slice at a time.  The
function below is that implementation, kept verbatim as the oracle: the
lazy max-heap must absorb the same vertices in the same order, ties and
restarts included.  Sweeping ``target_weight`` over every value exposes
each prefix of the absorption order, not just the final region.
"""

import numpy as np
import pytest

import repro.serial.gggp as gggp_module
from repro.graphs import from_edges
from repro.graphs.generators import delaunay, grid2d, star_graph
from repro.serial.gggp import gggp_bisect, grow_region


# -- argmax oracle -----------------------------------------------------------
def oracle_grow_region(graph, seed_vertex, target_weight):
    n = graph.num_vertices
    inside = np.zeros(n, dtype=bool)
    gain = np.full(n, -np.inf)
    in_frontier = np.zeros(n, dtype=bool)

    adjp, adjncy, adjwgt = graph.adjp, graph.adjncy, graph.adjwgt

    def absorb(v: int) -> None:
        inside[v] = True
        in_frontier[v] = False
        gain[v] = -np.inf
        s, e = adjp[v], adjp[v + 1]
        nbrs = adjncy[s:e]
        ws = adjwgt[s:e]
        outs = ~inside[nbrs]
        for u, w in zip(nbrs[outs], ws[outs]):
            if not in_frontier[u]:
                # First sighting: gain = w(u->region) - w(u->rest).
                us, ue = adjp[u], adjp[u + 1]
                unbrs = adjncy[us:ue]
                uws = adjwgt[us:ue]
                to_in = int(uws[inside[unbrs]].sum())
                gain[u] = 2 * to_in - int(uws.sum())
                in_frontier[u] = True
            else:
                gain[u] += 2 * int(w)

    weight = 0
    v = seed_vertex
    while weight < target_weight:
        absorb(v)
        weight += int(graph.vwgt[v])
        if weight >= target_weight:
            break
        if not in_frontier.any():
            outside = np.where(~inside)[0]
            if outside.size == 0:
                break
            v = int(outside[np.argmin(graph.vwgt[outside])])
            continue
        v = int(np.argmax(np.where(in_frontier, gain, -np.inf)))
    return inside.astype(np.int64)


# -- inputs ------------------------------------------------------------------
def reweighted(graph, seed):
    """``graph``'s edges with random edge weights in [1, 4] and vertex
    weights in [1, 3]: small ranges, so gain ties stay common."""
    rng = np.random.default_rng(seed)
    src = graph.source_array()
    keep = src < graph.adjncy
    edges = np.stack([src[keep], graph.adjncy[keep]], axis=1)
    return from_edges(
        graph.num_vertices, edges,
        weights=rng.integers(1, 5, edges.shape[0]),
        vertex_weights=rng.integers(1, 4, graph.num_vertices),
    )


def disconnected():
    """Five components; vertices 1, 4, 5 and 8 tie as the lightest restart."""
    edges = [(0, 1), (1, 2), (3, 4), (6, 7)]
    return from_edges(9, edges, vertex_weights=[2, 1, 2, 3, 1, 1, 2, 2, 1])


def every_target(graph):
    return range(graph.total_vertex_weight + 2)


def some_targets(graph):
    total = graph.total_vertex_weight
    return sorted({0, 1, total // 4, total // 2, 3 * total // 4, total - 1,
                   total, total + 5})


def assert_same_regions(graph, targets):
    for seed_vertex in range(graph.num_vertices):
        for target in targets:
            got = grow_region(graph, seed_vertex, target)
            want = oracle_grow_region(graph, seed_vertex, target)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (seed_vertex, target)


# -- grow_region -------------------------------------------------------------
class TestGrowRegionMatchesOracle:
    def test_unit_weight_grid_every_prefix(self):
        # Every gain ties with several others: the lowest id must win.
        g = grid2d(5, 6)
        assert_same_regions(g, every_target(g))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_weights(self, seed):
        g = reweighted(delaunay(40, seed=seed), seed)
        assert_same_regions(g, some_targets(g))

    def test_disconnected_restarts_every_prefix(self):
        g = disconnected()
        assert_same_regions(g, every_target(g))
        # Growing everything from vertex 0 restarts four times; the
        # lightest outside vertex ties four ways (1, 4, 5 and 8).
        comp = g.connected_components()
        full = grow_region(g, 0, g.total_vertex_weight)
        assert len(set(comp[full == 1].tolist())) == 5

    def test_star(self):
        g = star_graph(12)
        assert_same_regions(g, every_target(g))

    def test_target_at_or_above_total(self):
        g = reweighted(delaunay(30, seed=5), 5)
        total = g.total_vertex_weight
        assert_same_regions(g, [total, total + 1, 10 * total])
        assert grow_region(g, 0, total).sum() == g.num_vertices

    def test_single_vertex(self):
        g = from_edges(1, [], vertex_weights=[3])
        assert_same_regions(g, [0, 1, 3, 4])
        assert grow_region(g, 0, 1).tolist() == [1]


# -- gggp_bisect -------------------------------------------------------------
class TestGggpBisectMatchesOracle:
    @pytest.mark.parametrize("trials", [1, 4, 8])
    @pytest.mark.parametrize("fraction", [0.5, 4 / 7])
    @pytest.mark.parametrize(
        "graph",
        [grid2d(9, 9), reweighted(delaunay(200, seed=6), 6), disconnected()],
        ids=["grid", "weighted-delaunay", "disconnected"],
    )
    def test_labels_and_rng_state(self, monkeypatch, graph, fraction, trials):
        rng = np.random.default_rng(11)
        got = gggp_bisect(graph, fraction=fraction, trials=trials, rng=rng)
        monkeypatch.setattr(gggp_module, "grow_region", oracle_grow_region)
        oracle_rng = np.random.default_rng(11)
        want = gggp_bisect(graph, fraction=fraction, trials=trials, rng=oracle_rng)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
