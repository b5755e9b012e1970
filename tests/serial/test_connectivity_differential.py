"""Sparse k-way connectivity against the dense |vertices| x k oracle.

Refinement used to build a dense (vertex, partition) matrix per call and
pick destinations with ``np.argmax`` over masked rows.  The functions
below are those dense implementations, kept verbatim as the oracle: the
sparse (vertex, partition) pairs must give the same proposals, moves and
weights array for array, ties included.

The snapshot kernel ``kway_connectivity`` finds the boundary and its
pairs from one gather of neighbor labels.  It replaced a boundary sweep
followed by a second gather of the boundary's arcs; those two functions
are kept verbatim below as the kernel's own oracle.
"""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro._segments import gather_ranges, segment_ids
from repro.graphs import datasets, from_edges
from repro.graphs import metrics as graph_metrics
from repro.graphs.generators import delaunay
from repro.mtmetis import refinement as mt_refinement
from repro.mtmetis.refinement import propose_balance_moves, propose_moves
from repro.serial import kway as serial_kway
from repro.serial.kway import (
    KwayPassResult,
    kway_connectivity,
    kway_refine_pass,
    rebalance_pass,
)

UBFACTOR = 1.03


# -- the snapshot kernel's oracle: the former boundary sweep + connectivity --
def sweep_boundary_vertices(graph, part):
    src = graph.source_array()
    ext = part[src] != part[graph.adjncy]
    marks = np.zeros(graph.num_vertices, dtype=bool)
    marks[src[ext]] = True
    return np.flatnonzero(marks)


def gather_kway_connectivity(graph, part, vertices, k):
    lens = graph.adjp[vertices + 1] - graph.adjp[vertices]
    flat = gather_ranges(graph.adjp[vertices], lens)
    sums = np.bincount(
        segment_ids(lens) * k + part[graph.adjncy[flat]],
        weights=graph.adjwgt[flat],
    )
    # Edge weights are positive, so only untouched slots are zero.
    keys = np.flatnonzero(sums)
    rows, parts = np.divmod(keys, k)
    return rows, parts, sums[keys].astype(np.int64)


# -- dense oracle ------------------------------------------------------------
def dense_connectivity(graph, part, vertices, k):
    lens = graph.adjp[vertices + 1] - graph.adjp[vertices]
    flat = gather_ranges(graph.adjp[vertices], lens)
    rows = segment_ids(lens)
    conn = np.zeros((vertices.shape[0], k), dtype=np.int64)
    np.add.at(conn, (rows, part[graph.adjncy[flat]]), graph.adjwgt[flat])
    return conn


def dense_boundary(graph, part):
    src = graph.source_array()
    ext = part[src] != part[graph.adjncy]
    bmask = np.zeros(graph.num_vertices, dtype=bool)
    bmask[src[ext]] = True
    return bmask


def dense_propose_moves(graph, part, k, direction, pweights, max_pweight, min_pweight):
    boundary = np.where(dense_boundary(graph, part))[0]
    stats = {
        "boundary_size": int(boundary.shape[0]),
        "edge_scans": int(graph.num_directed_edges),
        "proposals": 0,
    }
    if boundary.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, stats
    degs = (graph.adjp[boundary + 1] - graph.adjp[boundary]).astype(np.int64)
    stats["boundary_degrees"] = degs
    stats["edge_scans"] += int(degs.sum())

    conn = dense_connectivity(graph, part, boundary, k)
    own = part[boundary]
    rows = np.arange(boundary.shape[0])
    own_conn = conn[rows, own]
    masked = conn.astype(np.float64)
    masked[rows, own] = -np.inf
    pid = np.arange(k)
    if direction > 0:
        dir_ok = pid[None, :] > own[:, None]
    else:
        dir_ok = pid[None, :] < own[:, None]
    masked[~dir_ok] = -np.inf
    cap_ok = (pweights[None, :] + graph.vwgt[boundary][:, None]) <= max_pweight
    masked[~cap_ok] = -np.inf
    src_ok = (pweights[own] - graph.vwgt[boundary]) >= min_pweight
    masked[~src_ok, :] = -np.inf

    best_dest = np.argmax(masked, axis=1)
    best_val = masked[rows, best_dest]
    gains = best_val - own_conn
    sel = np.isfinite(best_val) & (gains > 0)
    stats["proposals"] = int(sel.sum())
    return (
        boundary[sel],
        best_dest[sel].astype(np.int64),
        gains[sel].astype(np.int64),
        stats,
    )


def dense_propose_balance_moves(graph, part, k, pweights, max_pweight):
    stats = {"boundary_size": 0, "edge_scans": 0, "proposals": 0}
    empty = np.empty(0, dtype=np.int64)
    heavy = pweights > max_pweight
    if not np.any(heavy):
        return empty, empty, empty, stats
    boundary = np.where(dense_boundary(graph, part) & heavy[part])[0]
    stats["boundary_size"] = int(boundary.shape[0])
    stats["edge_scans"] = int(graph.num_directed_edges)
    if boundary.size == 0:
        return empty, empty, empty, stats
    degs = (graph.adjp[boundary + 1] - graph.adjp[boundary]).astype(np.int64)
    stats["boundary_degrees"] = degs
    stats["edge_scans"] += int(degs.sum())

    conn = dense_connectivity(graph, part, boundary, k)
    own = part[boundary]
    rows = np.arange(boundary.shape[0])
    own_conn = conn[rows, own]
    masked = conn.astype(np.float64) - 1e-12 * pweights[None, :]
    masked[rows, own] = -np.inf
    cap_ok = (pweights[None, :] + graph.vwgt[boundary][:, None]) <= max_pweight
    masked[~cap_ok] = -np.inf
    best_dest = np.argmax(masked, axis=1)
    best_val = masked[rows, best_dest]
    sel = np.isfinite(best_val)
    verts = boundary[sel]
    dests = best_dest[sel].astype(np.int64)
    gains = (conn[rows, best_dest][sel] - own_conn[sel]).astype(np.int64)

    if verts.size:
        srcs = part[verts]
        vws = graph.vwgt[verts].astype(np.float64)
        order = np.lexsort((-gains, srcs))
        keep = np.zeros(verts.shape[0], dtype=bool)
        i = 0
        while i < order.shape[0]:
            s = srcs[order[i]]
            excess = pweights[s] - max_pweight
            acc = 0.0
            j = i
            while j < order.shape[0] and srcs[order[j]] == s:
                if acc < excess:
                    keep[order[j]] = True
                    acc += vws[order[j]]
                j += 1
            i = j
        verts, dests, gains = verts[keep], dests[keep], gains[keep]

    stats["proposals"] = int(verts.shape[0])
    return verts, dests, gains, stats


def dense_kway_refine_pass(graph, part, pweights, k, max_pweight, min_pweight):
    src = graph.source_array()
    ext = part[src] != part[graph.adjncy]
    bmask = np.zeros(graph.num_vertices, dtype=bool)
    bmask[src[ext]] = True
    boundary = np.where(bmask)[0]
    edge_scans = int(graph.num_directed_edges)
    if boundary.size == 0:
        return KwayPassResult(0, 0, 0, edge_scans)

    conn = dense_connectivity(graph, part, boundary, k)
    own = part[boundary]
    own_conn = conn[np.arange(boundary.shape[0]), own]
    masked = conn.copy()
    masked[np.arange(boundary.shape[0]), own] = -1
    best_dest = np.argmax(masked, axis=1)
    best_gain = masked[np.arange(boundary.shape[0]), best_dest] - own_conn
    cand = best_gain > 0
    order = np.argsort(-best_gain[cand], kind="stable")
    cand_v = boundary[cand][order]
    cand_d = best_dest[cand][order]
    edge_scans += int((graph.adjp[boundary + 1] - graph.adjp[boundary]).sum())

    adjp, adjncy, adjwgt, vwgt = graph.adjp, graph.adjncy, graph.adjwgt, graph.vwgt
    committed = 0
    realised = 0
    for v, d in zip(cand_v, cand_d):
        s = int(part[v])
        if s == d:
            continue
        w = int(vwgt[v])
        if pweights[d] + w > max_pweight or pweights[s] - w < min_pweight:
            continue
        a, b = adjp[v], adjp[v + 1]
        nbr_parts = part[adjncy[a:b]]
        ws = adjwgt[a:b]
        gain = int(ws[nbr_parts == d].sum()) - int(ws[nbr_parts == s].sum())
        edge_scans += int(b - a)
        if gain <= 0:
            continue
        part[v] = d
        pweights[s] -= w
        pweights[d] += w
        committed += 1
        realised += gain
    return KwayPassResult(int(cand_v.shape[0]), committed, realised, edge_scans)


def dense_rebalance_pass(graph, part, pweights, k, max_pweight):
    moves = 0
    adjp, adjncy, adjwgt, vwgt = graph.adjp, graph.adjncy, graph.adjwgt, graph.vwgt
    for _ in range(k):
        heavy = np.where(pweights > max_pweight)[0]
        if heavy.size == 0:
            break
        heavy_set = set(heavy.tolist())
        candidates = np.where(np.isin(part, heavy))[0]
        if candidates.size == 0:
            break
        conn = dense_connectivity(graph, part, candidates, k)
        own = part[candidates]
        own_conn = conn[np.arange(candidates.shape[0]), own]
        masked = conn.copy()
        masked[np.arange(candidates.shape[0]), own] = -1
        best_dest = np.argmax(masked, axis=1)
        loss = own_conn - masked[np.arange(candidates.shape[0]), best_dest]
        order = np.argsort(loss, kind="stable")
        progressed = False
        for i in order:
            v = int(candidates[i])
            s = int(part[v])
            if s not in heavy_set or pweights[s] <= max_pweight:
                continue
            w = int(vwgt[v])
            a, b = adjp[v], adjp[v + 1]
            nbr_parts = part[adjncy[a:b]]
            ws = adjwgt[a:b]
            d = -1
            best_c = -1
            for p in np.unique(nbr_parts):
                if p == s:
                    continue
                if pweights[p] + w <= max_pweight:
                    c = int(ws[nbr_parts == p].sum())
                    if c > best_c:
                        best_c = c
                        d = int(p)
            if d < 0:
                d = int(np.argmin(pweights))
                if d == s or pweights[d] + w > max_pweight:
                    continue
            part[v] = d
            pweights[s] -= w
            pweights[d] += w
            moves += 1
            progressed = True
        if not progressed:
            break
    return moves


# -- inputs ------------------------------------------------------------------
N = 80
KINDS = (
    "weighted", "isolated", "disconnected", "mesh", "heavy",
    "zero", "wide", "isolated-ends",
)
#: The vertices "isolated-ends" leaves without edges.
ENDS = (0, N // 2, N - 1)


def make_graph(kind, rng):
    if kind == "mesh":  # unit weights: many equal connectivities
        return delaunay(N, seed=int(rng.integers(1 << 30)))
    # "isolated": the last 12 vertices have no edges; "isolated-ends": the
    # first, a middle and the last one.  "heavy": vertex weights near 1e12,
    # so the 1e-12 x partition-weight bias of a balance move outweighs
    # edge connectivity.
    live = N - 12 if kind == "isolated" else N
    edges = rng.integers(0, live, size=(4 * N, 2))
    if kind == "disconnected":
        # Both ends in the same residue class mod 3: three components.
        edges = edges - edges % 3 + edges[:, :1] % 3
        edges = edges[(edges < N).all(axis=1)]
    if kind == "isolated-ends":
        edges = edges[~np.isin(edges, ENDS).any(axis=1)]
    graph = from_edges(
        N,
        edges,
        weights=rng.integers(1, 10, edges.shape[0]),
        vertex_weights=rng.integers(1, 5, N) * (10**12 if kind == "heavy" else 1),
    )
    if kind == "zero":
        # Arcs of weight 0, which `from_edges` rejects but the engines
        # accept: a third of the edges (weights are symmetric).
        return replace(graph, adjwgt=np.where(graph.adjwgt <= 3, 0, graph.adjwgt))
    if kind == "wide":
        return replace(graph, adjwgt=graph.adjwgt << 40)
    return graph


def make_part(graph, k, rng, overweight):
    if not overweight or k < 3:
        return rng.integers(0, k, graph.num_vertices).astype(np.int64)
    # Partitions 0 and 1 hold most vertices, so many of their boundary
    # vertices touch only overweight partitions.
    p = np.full(k, 0.3 / (k - 2))
    p[:2] = 0.35
    return rng.choice(k, size=graph.num_vertices, p=p).astype(np.int64)


def limits(graph, part, k):
    pweights = np.bincount(part, weights=graph.vwgt.astype(np.float64), minlength=k)
    ideal = graph.total_vertex_weight / k
    return pweights, UBFACTOR * ideal, max(0.0, (2.0 - UBFACTOR) * ideal)


def assert_same_proposals(got, want):
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == np.int64
        np.testing.assert_array_equal(a, b)
    stats, expected = got[3], want[3]
    assert stats.boundary_size == expected["boundary_size"]
    assert stats.edge_scans == expected["edge_scans"]
    assert stats.proposals == expected["proposals"]
    if "boundary_degrees" in expected:
        np.testing.assert_array_equal(stats.boundary_degrees, expected["boundary_degrees"])


CASES = [
    (kind, k, seed, overweight)
    for kind in KINDS
    for k in (1, 2, 3, 64, N + 3)
    for seed in (0, 1)
    for overweight in (False, True)
]


@pytest.mark.parametrize("kind,k,seed,overweight", CASES)
class TestAgainstDenseOracle:
    def state(self, kind, k, seed, overweight):
        rng = np.random.default_rng([seed, k, KINDS.index(kind)])
        graph = make_graph(kind, rng)
        part = make_part(graph, k, rng, overweight)
        return graph, part, *limits(graph, part, k)

    def test_propose_moves(self, kind, k, seed, overweight):
        graph, part, pweights, max_pw, min_pw = self.state(kind, k, seed, overweight)
        both = propose_moves(graph, part, k, (+1, -1), pweights, max_pw, min_pw)
        assert [p[3].direction for p in both] == [+1, -1]
        for direction, swept in zip((+1, -1), both):
            want = dense_propose_moves(graph, part, k, direction, pweights, max_pw, min_pw)
            alone = propose_moves(graph, part, k, direction, pweights, max_pw, min_pw)
            assert_same_proposals(alone, want)
            assert_same_proposals(swept, want)

    def test_propose_balance_moves(self, kind, k, seed, overweight):
        graph, part, pweights, max_pw, _ = self.state(kind, k, seed, overweight)
        # A tighter cap fills the light partitions too, so some overweight
        # boundary vertices can only go to a partition they do not touch.
        for cap in (max_pw, 0.8 * max_pw):
            got = propose_balance_moves(graph, part, k, pweights, cap)
            want = dense_propose_balance_moves(graph, part, k, pweights, cap)
            assert_same_proposals(got, want)

    def test_kway_refine_pass(self, kind, k, seed, overweight):
        graph, part, pweights, max_pw, min_pw = self.state(kind, k, seed, overweight)
        got_part, got_pw = part.copy(), pweights.copy()
        for _ in range(3):
            want = dense_kway_refine_pass(graph, part, pweights, k, max_pw, min_pw)
            got = kway_refine_pass(graph, got_part, got_pw, k, max_pw, min_pw)
            assert got == want
            np.testing.assert_array_equal(got_part, part)
            np.testing.assert_array_equal(got_pw, pweights)

    def test_rebalance_pass(self, kind, k, seed, overweight):
        graph, part, pweights, max_pw, _ = self.state(kind, k, seed, overweight)
        for cap in (max_pw, 0.9 * max_pw):
            got_part, got_pw = part.copy(), pweights.copy()
            want_part, want_pw = part.copy(), pweights.copy()
            want = dense_rebalance_pass(graph, want_part, want_pw, k, cap)
            got = rebalance_pass(graph, got_part, got_pw, k, cap)
            assert got.moves_committed == want
            np.testing.assert_array_equal(got_part, want_part)
            np.testing.assert_array_equal(got_pw, want_pw)


# -- the snapshot kernel -----------------------------------------------------
def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", (1, 2, 3, 64, N + 3))
@pytest.mark.parametrize("seed", (0, 1))
class TestKernelAgainstSweepAndGather:
    def state(self, kind, k, seed):
        rng = np.random.default_rng([seed, k, KINDS.index(kind), 1])
        graph = make_graph(kind, rng)
        return graph, rng.integers(0, k, graph.num_vertices), rng

    def test_default_is_the_boundary(self, kind, k, seed):
        graph, part, _ = self.state(kind, k, seed)
        boundary = sweep_boundary_vertices(graph, part)
        want = (boundary, *gather_kway_connectivity(graph, part, boundary, k))
        assert_same_arrays(kway_connectivity(graph, part, k), want)
        # The boundary comes from labels: zero-weight arcs count.
        assert_same_arrays((graph_metrics.boundary_vertices(graph, part),), (boundary,))

    def test_given_vertices_in_any_order(self, kind, k, seed):
        graph, part, rng = self.state(kind, k, seed)
        perm = rng.permutation(graph.num_vertices)
        # Half the vertices, all of them (isolated ones included) and none,
        # each unsorted; rows index them as given.
        for vertices in (perm[: N // 2], perm, perm[:0]):
            want = (vertices, *gather_kway_connectivity(graph, part, vertices, k))
            assert_same_arrays(kway_connectivity(graph, part, k, vertices), want)


def test_kernel_on_an_all_boundary_fe_graph():
    """A random k = 64 partition of ldoor puts every vertex on the
    boundary: the snapshot where one sweep saves the most."""
    graph = datasets.load_dataset("ldoor", scale=0.005, seed=1)
    part = np.random.default_rng(7).integers(0, 64, graph.num_vertices)
    boundary = sweep_boundary_vertices(graph, part)
    assert boundary.size == graph.num_vertices
    want = (boundary, *gather_kway_connectivity(graph, part, boundary, 64))
    assert_same_arrays(kway_connectivity(graph, part, 64), want)


class TestOneSweepPerSnapshot:
    """Every refinement snapshot calls the kernel once, through the module
    bindings perfbench wraps, and never the separate boundary sweep."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"kway_connectivity": 0, "boundary_vertices": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (serial_kway, mt_refinement):
            monkeypatch.setattr(
                module, "kway_connectivity",
                counting("kway_connectivity", kway_connectivity),
            )
        sweep = graph_metrics.boundary_vertices
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "boundary_vertices", None) is sweep:
                monkeypatch.setattr(
                    module, "boundary_vertices", counting("boundary_vertices", sweep)
                )
        return counts

    @pytest.fixture
    def snapshot(self):
        rng = np.random.default_rng(11)
        graph = delaunay(400, seed=11)
        part = make_part(graph, 8, rng, overweight=True)
        pweights, max_pw, min_pw = limits(graph, part, 8)
        assert pweights.max() > max_pw
        return graph, part, pweights, max_pw, min_pw

    def test_propose_moves(self, calls, snapshot):
        graph, part, pweights, max_pw, min_pw = snapshot
        propose_moves(graph, part, 8, (+1, -1), pweights, max_pw, min_pw)
        assert calls == {"kway_connectivity": 1, "boundary_vertices": 0}
        propose_moves(graph, part, 8, -1, pweights, max_pw, min_pw)
        assert calls == {"kway_connectivity": 2, "boundary_vertices": 0}

    def test_propose_balance_moves(self, calls, snapshot):
        graph, part, pweights, max_pw, _ = snapshot
        propose_balance_moves(graph, part, 8, pweights, max_pw)
        assert calls == {"kway_connectivity": 1, "boundary_vertices": 0}

    def test_kway_refine_pass(self, calls, snapshot):
        graph, part, pweights, max_pw, min_pw = snapshot
        kway_refine_pass(graph, part.copy(), pweights.copy(), 8, max_pw, min_pw)
        assert calls == {"kway_connectivity": 1, "boundary_vertices": 0}


def test_kernel_memory_is_linear_in_arcs_and_boundary_table():
    """The kernel's transient memory stays O(|arcs| + |boundary| k): a
    |V| x k float table alone would exceed the bound here."""
    graph = delaunay(20000, seed=3)
    k = 64
    part = repro.partition(graph, k, method="metis", seed=1).part
    boundary = sweep_boundary_vertices(graph, part)
    n, arcs = graph.num_vertices, graph.num_directed_edges
    bound = 4 * 8 * arcs + 2 * 8 * (boundary.size + 1) * k + 4 * 8 * n
    assert 8 * n * k > bound
    tracemalloc.start()
    try:
        kway_connectivity(graph, part, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


class TestZeroWeightArcs:
    """Arcs of weight 0 put their endpoints on the boundary without
    giving them a (vertex, partition) pair."""

    def test_boundary_row_without_external_pair_is_no_candidate(self):
        # The path 0 -5- 1 -0- 2 -9- 3, split down the middle: vertex 1 is
        # on the boundary, but its only external arc weighs 0.
        graph = from_edges(4, [(0, 1), (1, 2), (2, 3)], weights=[5, 1, 9])
        graph = replace(graph, adjwgt=np.where(graph.adjwgt == 1, 0, graph.adjwgt))
        part = np.array([0, 0, 1, 1])
        pweights = np.array([2.0, 2.0])
        got_part, got_pw = part.copy(), pweights.copy()
        want = dense_kway_refine_pass(graph, part, pweights, 2, 4.0, 0.0)
        got = kway_refine_pass(graph, got_part, got_pw, 2, 4.0, 0.0)
        assert got == want == KwayPassResult(0, 0, 0, 10)
        np.testing.assert_array_equal(got_part, part)

    @pytest.mark.parametrize("k", (2, 3, 8))
    def test_all_arcs_weigh_zero(self, k):
        # No boundary vertex has a pair at all.
        graph = delaunay(N, seed=5)
        graph = replace(graph, adjwgt=np.zeros_like(graph.adjwgt))
        part = np.arange(N) % k
        pweights, max_pw, min_pw = limits(graph, part, k)
        for direction in (+1, -1):
            got = propose_moves(graph, part, k, direction, pweights, max_pw, min_pw)
            want = dense_propose_moves(graph, part, k, direction, pweights, max_pw, min_pw)
            assert_same_proposals(got, want)
        got_part, got_pw = part.copy(), pweights.copy()
        want = dense_kway_refine_pass(graph, part, pweights, k, max_pw, min_pw)
        got = kway_refine_pass(graph, got_part, got_pw, k, max_pw, min_pw)
        assert got == want
        np.testing.assert_array_equal(got_part, part)
