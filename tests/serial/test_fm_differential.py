"""Heap-ordered FM against the argmax oracle.

``fm_refine_bisection`` used to find each move with ``np.argmax`` over
the float64 gains of all n vertices, locked and balance-infeasible ones
masked to -inf.  The function below is that implementation, kept
verbatim as the oracle: the per-side, per-weight lazy heaps must make
the same moves, so ``part``, ``cut``, ``passes_run`` and
``moves_committed`` all match, on tied gains, weighted coarse graphs,
degenerate starts, every split tolerance the engines use, Jostle's
pinned halos under integer caps, and gains past float64's exact range.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graphs import from_edges
from repro.graphs.generators import delaunay, fe_matrix, grid2d
from repro.serial.contraction import contract
from repro.serial.fm import (
    _STALL_LIMIT,
    FMResult,
    bisection_gains,
    fm_refine_bisection,
)
from repro.serial.gggp import gggp_bisect
from repro.serial.matching import sequential_match


# -- argmax oracle -----------------------------------------------------------
def oracle_fm_refine_bisection(
    graph,
    part,
    target_weights,
    ubfactor=1.03,
    max_passes=4,
    pinned=None,
):
    part = np.asarray(part, dtype=np.int64).copy()
    n = graph.num_vertices
    if part.shape != (n,):
        raise InvalidParameterError(
            f"part has shape {part.shape}, expected ({n},)"
        )
    if np.any((part != 0) & (part != 1)):
        raise InvalidParameterError("bisection labels must be 0 or 1")
    if pinned is not None and np.shape(pinned) != (n,):
        raise InvalidParameterError(
            f"pinned has shape {np.shape(pinned)}, expected ({n},)"
        )
    if n == 0:
        return FMResult(part, 0, 0, 0)
    pinned_mask = (
        np.zeros(n, dtype=bool) if pinned is None else np.asarray(pinned, dtype=bool)
    )
    vwgt = graph.vwgt
    adjp, adjncy, adjwgt = graph.adjp, graph.adjncy, graph.adjwgt
    maxw = (ubfactor * target_weights[0], ubfactor * target_weights[1])

    side_w = [int(vwgt[part == 0].sum()), int(vwgt[part == 1].sum())]
    from repro.graphs.metrics import edge_cut

    cut = edge_cut(graph, part)
    total_moves = 0
    passes_run = 0

    for _ in range(max_passes):
        passes_run += 1
        gains = bisection_gains(graph, part).astype(np.float64)
        locked = pinned_mask.copy()
        history: list[int] = []
        best_prefix = 0
        best_cut = cut
        running_cut = cut
        stall = 0

        while True:
            # Movable: unlocked and balance-feasible after the move.
            cand = gains.copy()
            cand[locked] = -np.inf
            dest = 1 - part
            feasible = (
                np.array(side_w)[dest] + vwgt <= np.array(maxw)[dest]
            )
            cand[~feasible] = -np.inf
            v = int(np.argmax(cand))
            if not np.isfinite(cand[v]):
                break
            g = int(gains[v])
            s = int(part[v])
            d = 1 - s
            part[v] = d
            side_w[s] -= int(vwgt[v])
            side_w[d] += int(vwgt[v])
            locked[v] = True
            running_cut -= g
            history.append(v)
            # Incremental neighbor gain update: an edge to v's new side
            # just became internal for same-side neighbors (their gain
            # drops) and external for the ones left behind (gain rises).
            a, b = adjp[v], adjp[v + 1]
            nbrs = adjncy[a:b]
            ws = adjwgt[a:b]
            same_side = part[nbrs] == d
            gains[nbrs[same_side]] -= 2 * ws[same_side]
            gains[nbrs[~same_side]] += 2 * ws[~same_side]
            gains[v] = -g

            if running_cut < best_cut:
                best_cut = running_cut
                best_prefix = len(history)
                stall = 0
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    break

        # Roll back moves after the best prefix.
        for v in reversed(history[best_prefix:]):
            d = int(part[v])
            s = 1 - d
            part[v] = s
            side_w[d] -= int(vwgt[v])
            side_w[s] += int(vwgt[v])
        total_moves += best_prefix
        if best_cut >= cut:
            cut = best_cut
            break
        cut = best_cut

    return FMResult(part, cut, passes_run, total_moves)


# -- inputs ------------------------------------------------------------------
#: Per-split tolerances of recursive bisection at k = 64, 4 and 2 under
#: ubfactor 1.03, and a loose one.
UBFACTORS = (1.03 ** (1 / 6), 1.03 ** (1 / 2), 1.03, 1.1)
MAX_PASSES = (1, 4, 8)


def coarsened(graph, levels, seed):
    """``graph`` after ``levels`` HEM contractions: the weighted vertices
    and edges FM meets at the coarsest level."""
    rng = np.random.default_rng(seed)
    for _ in range(levels):
        graph, _ = contract(graph, sequential_match(graph, "hem", rng).match)
    return graph


def disconnected():
    """Three paths, a triangle and four isolated vertices, weighted."""
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (7, 8), (8, 9), (7, 9)]
    return from_edges(
        14, edges, weights=[1, 2, 1, 3, 1, 2, 1, 1],
        vertex_weights=[1, 2, 1, 1, 3, 1, 2, 1, 1, 2, 1, 4, 1, 2],
    )


GRAPHS = {
    # Unit weights: gains tie everywhere, so the lowest id decides.
    "grid": grid2d(8, 8),
    "coarse-delaunay": coarsened(delaunay(600, seed=3), 3, seed=3),
    "coarse-fe": coarsened(fe_matrix(400, avg_degree=20.0, seed=4), 2, seed=4),
    "disconnected": disconnected(),
    "isolated": from_edges(6, [], vertex_weights=[3, 1, 2, 1, 1, 2]),
    "n1": from_edges(1, [], vertex_weights=[2]),
    "n2": from_edges(2, [(0, 1)], weights=[3], vertex_weights=[1, 2]),
}


def starts(graph, seed):
    """``[(label, part, fraction)]``: GGGP and random labellings, each
    side empty in turn, and side 0 well over its cap."""
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    over = (np.arange(n) >= (4 * n) // 5).astype(np.int64)
    return [
        ("gggp", gggp_bisect(graph, 0.5, 2, np.random.default_rng(seed)), 0.5),
        ("gggp-4/7", gggp_bisect(graph, 4 / 7, 2, np.random.default_rng(seed)), 4 / 7),
        ("random", rng.integers(0, 2, n), 0.5),
        ("side0-empty", np.ones(n, dtype=np.int64), 0.5),
        ("side1-empty", np.zeros(n, dtype=np.int64), 0.5),
        ("side0-over", over, 0.5),
    ]


def targets(graph, fraction):
    """Side targets as recursive bisection sets them."""
    total = graph.total_vertex_weight
    t1 = int(round(total * fraction))
    return (total - t1, t1)


def assert_same(graph, part, target_weights, start="", **kwargs):
    got = fm_refine_bisection(graph, part, target_weights, **kwargs)
    want = oracle_fm_refine_bisection(graph, part, target_weights, **kwargs)
    case = (start, target_weights, kwargs)
    assert got.part.dtype == want.part.dtype, case
    assert np.array_equal(got.part, want.part), case
    assert got.cut == want.cut, case
    assert got.passes_run == want.passes_run, case
    assert got.moves_committed == want.moves_committed, case
    return got


# -- the engines' calls ------------------------------------------------------
class TestMatchesOracle:
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_every_start_tolerance_and_pass_budget(self, name):
        graph = GRAPHS[name]
        for label, part, fraction in starts(graph, seed=len(name)):
            for ubfactor in UBFACTORS:
                for max_passes in MAX_PASSES:
                    assert_same(
                        graph, part, targets(graph, fraction), label,
                        ubfactor=ubfactor, max_passes=max_passes,
                    )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_weighted_graphs(self, seed):
        rng = np.random.default_rng(seed)
        base = delaunay(int(rng.integers(20, 200)), seed=seed)
        us, vs, _ = base.edge_array()
        # Up to 40 weight classes per side.
        base = from_edges(
            base.num_vertices, np.stack([us, vs], axis=1),
            weights=rng.integers(1, 6, us.size),
            vertex_weights=rng.integers(1, int(rng.integers(2, 41)), base.num_vertices),
        )
        graph = coarsened(base, int(rng.integers(0, 3)), seed)
        part = rng.integers(0, 2, graph.num_vertices)
        for ubfactor in UBFACTORS:
            assert_same(graph, part, targets(graph, 0.5), ubfactor=ubfactor)

    def test_moves_are_made(self):
        # Guard against a vacuous match: the starts above do move vertices.
        graph = GRAPHS["coarse-delaunay"]
        _, part, fraction = starts(graph, seed=1)[2]
        res = assert_same(graph, part, targets(graph, fraction), max_passes=8)
        assert res.moves_committed > 10 and res.passes_run > 1


# -- Jostle's interface KL ---------------------------------------------------
def halo_mask(graph, part):
    """Pinned halo: every vertex more than one hop from a cut edge."""
    src = graph.source_array()
    cut_arc = part[src] != part[graph.adjncy]
    near = np.zeros(graph.num_vertices, dtype=bool)
    near[src[cut_arc]] = True
    near[graph.adjncy[cut_arc]] = True
    near_nbr = np.zeros(graph.num_vertices, dtype=bool)
    near_nbr[src[near[graph.adjncy]]] = True
    return ~(near | near_nbr)


class TestPinnedIntegerCaps:
    @pytest.mark.parametrize("name", ["grid", "coarse-delaunay", "coarse-fe",
                                      "disconnected"])
    @pytest.mark.parametrize("slack", [0, 1, 3, 8])
    def test_pinned_halo_with_integer_caps(self, name, slack):
        graph = GRAPHS[name]
        rng = np.random.default_rng(slack)
        for label, part, _ in starts(graph, seed=slack):
            w1 = int(graph.vwgt[part == 1].sum())
            caps = (graph.total_vertex_weight - w1 + slack, w1 + slack)
            for pinned in (halo_mask(graph, part), rng.random(graph.num_vertices) < 0.4):
                for max_passes in MAX_PASSES:
                    assert_same(
                        graph, part, caps, label, ubfactor=1.0,
                        max_passes=max_passes, pinned=pinned,
                    )

    def test_all_pinned_moves_nothing(self):
        graph = GRAPHS["coarse-delaunay"]
        part = np.random.default_rng(0).integers(0, 2, graph.num_vertices)
        res = assert_same(
            graph, part, targets(graph, 0.5),
            pinned=np.ones(graph.num_vertices, dtype=bool),
        )
        assert np.array_equal(res.part, part)
        assert (res.passes_run, res.moves_committed) == (1, 0)


# -- gains past float64's exact integers -------------------------------------
class TestHugeEdgeWeights:
    @pytest.mark.parametrize("seed", range(4))
    def test_float_keys_tie_as_float64_gains(self, seed):
        # Near 2**54 float64 holds only multiples of 4, so integer gains
        # that differ here tie in the oracle's float64 scan.
        rng = np.random.default_rng(seed)
        base = grid2d(8, 8)
        us, vs, _ = base.edge_array()
        graph = from_edges(
            base.num_vertices, np.stack([us, vs], axis=1),
            weights=2**54 + rng.integers(0, 8, us.size),
        )
        part = rng.integers(0, 2, graph.num_vertices)
        for ubfactor in UBFACTORS:
            for max_passes in MAX_PASSES:
                assert_same(
                    graph, part, targets(graph, 0.5),
                    ubfactor=ubfactor, max_passes=max_passes,
                )
