"""List-walked lock-free matching against the vectorised oracle.

``lockfree_match`` used to run every round as one ``batch_candidates``
numpy pass per lockstep batch.  The two functions below are that
implementation, kept verbatim as the oracle.  Narrow rounds are now a
list walk and wide rounds keep the vectorised loop; either way the match
vector, every ``LockfreeMatchStats`` field and the ``rng`` state after
the call must repeat the oracle's exactly.
"""

import numpy as np
import pytest

import repro.mtmetis.matching as lockfree_module
from repro._segments import gather_ranges, segmented_argmax
from repro.gpmetis.kernels.matching import consecutive_batches
from repro.graphs import from_edges
from repro.graphs.generators import complete_graph, delaunay, star_graph
from repro.mtmetis.matching import LIST_WALK_MAX_WIDTH, LockfreeMatchStats, lockfree_match
from repro.runtime.clock import SimClock
from repro.runtime.machine import PAPER_MACHINE
from repro.runtime.threads import ThreadPoolSim, block_ownership


# -- vectorised oracle -------------------------------------------------------
def oracle_batch_candidates(graph, batch, match_snapshot, scheme, rng):
    lens = (graph.adjp[batch + 1] - graph.adjp[batch]).astype(np.int64)
    flat = gather_ranges(graph.adjp[batch], lens)
    nbrs = graph.adjncy[flat]
    valid = match_snapshot[nbrs] < 0
    if scheme == "hem":
        keys = graph.adjwgt[flat].astype(np.float64)
    elif scheme == "lem":
        keys = -graph.adjwgt[flat].astype(np.float64)
    else:  # rm
        keys = rng.random(flat.shape[0])
    win = segmented_argmax(keys, lens, valid=valid)
    cand = np.full(batch.shape[0], -1, dtype=np.int64)
    ok = win >= 0
    # win indexes the flat concatenated array directly.
    cand[ok] = nbrs[win[ok]]
    return cand


def oracle_lockfree_match(
    graph,
    batches,
    scheme="hem",
    rng=None,
    retry_rounds=0,
    batch_maker=None,
    resolve_conflicts=True,
):
    rng = rng or np.random.default_rng(0)
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    stats = LockfreeMatchStats()

    def run_round(batch_iter) -> None:
        stats.rounds += 1
        for batch in batch_iter:
            batch = np.asarray(batch, dtype=np.int64)
            if batch.size == 0:
                continue
            snapshot = match  # reads against pre-batch state
            todo = batch[snapshot[batch] < 0]
            if todo.size == 0:
                continue
            cand = oracle_batch_candidates(graph, todo, snapshot, scheme, rng)
            stats.edge_scans += int(
                (graph.adjp[todo + 1] - graph.adjp[todo]).sum()
            )
            stats.batch_sizes.append(int(todo.size))
            has = cand >= 0
            vs, us = todo[has], cand[has]
            # Writes land in thread order: later entries overwrite earlier
            # claims of the same partner (last-writer-wins arbitration).
            match[vs] = us
            match[us] = vs

    run_round(batches)

    # Conflict resolution kernel: v claims u but u's cell names another.
    def resolve() -> np.ndarray:
        claimed = np.where(match >= 0)[0]
        bad = claimed[match[match[claimed]] != claimed]
        match[bad] = -1
        return bad

    if not resolve_conflicts:
        # Mutation mode: count (but keep) the asymmetric claims round 2
        # would have repaired, then self-match only the never-claimed.
        claimed = np.where(match >= 0)[0]
        stats.conflicts += int((match[match[claimed]] != claimed).sum())
        left = match < 0
        match[left] = np.where(left)[0]
        stats.self_matches = int(left.sum())
        ids = np.arange(n, dtype=np.int64)
        stats.pairs = int(((match != ids) & (ids < match)).sum())
        return match, stats

    conflicted = resolve()
    stats.conflicts += int(conflicted.shape[0])

    for _ in range(retry_rounds):
        if conflicted.size == 0:
            break
        if batch_maker is None:
            break
        run_round(batch_maker(conflicted))
        conflicted = resolve()
        stats.conflicts += int(conflicted.shape[0])

    # Leftovers match themselves ("another chance ... in the following
    # coarsening levels").
    left = match < 0
    match[left] = np.where(left)[0]
    stats.self_matches = int(left.sum())
    ids = np.arange(n, dtype=np.int64)
    stats.pairs = int(((match != ids) & (ids < match)).sum())
    return match, stats


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
    """Weights in [2**53, 2**53 + 3]: float64 rounds 2**53 + 1 down to
    2**53 and 2**53 + 3 up, so the vectorised keys tie distinct weights."""
    src = graph.source_array()
    keep = src < graph.adjncy
    edges = np.stack([src[keep], graph.adjncy[keep]], axis=1)
    offsets = np.random.default_rng(seed).integers(0, 4, edges.shape[0])
    return from_edges(graph.num_vertices, edges, weights=2**53 + offsets)


GRAPHS = {
    "unit-delaunay": delaunay(300, seed=1),
    "tied-weights": reweighted(delaunay(300, seed=2), 2, high=3),
    "varied-weights": reweighted(delaunay(300, seed=3), 3, high=1000),
    "huge-weights": huge_weights(delaunay(200, seed=5), 5),
    "components-isolated": components_with_isolated(),
    "star": star_graph(40),
    "complete": reweighted(complete_graph(24), 4, high=4),
}
SCHEMES = ("hem", "lem", "rm")


def lockstep(graph, num_threads):
    """mt-metis's round-1 schedule and retry ``batch_maker`` (as in
    ``MtMetis.coarsen``)."""
    pool = ThreadPoolSim(num_threads, PAPER_MACHINE.cpu, SimClock())
    n = graph.num_vertices
    own = block_ownership(n, num_threads)
    first = pool.lockstep_batches(np.arange(n, dtype=np.int64), own)
    return first, lambda items: pool.lockstep_batches(items, own[items])


def assert_same(graph, make_schedule, scheme, seed=5, **kwargs):
    """Run both implementations on fresh copies of one schedule."""
    batches, maker = make_schedule()
    rng = np.random.default_rng(seed)
    got, got_stats = lockfree_match(
        graph, batches, scheme=scheme, rng=rng, batch_maker=maker, **kwargs
    )
    batches, maker = make_schedule()
    oracle_rng = np.random.default_rng(seed)
    want, want_stats = oracle_lockfree_match(
        graph, batches, scheme=scheme, rng=oracle_rng, batch_maker=maker, **kwargs
    )
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got_stats == want_stats
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return got_stats


# -- lockstep schedules (mt-metis) -------------------------------------------
class TestLockstepMatchesOracle:
    @pytest.mark.parametrize("retry_rounds", [0, 1])
    @pytest.mark.parametrize("num_threads", [1, 2, 8, 64])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_lockstep(self, name, scheme, num_threads, retry_rounds):
        g = GRAPHS[name]
        assert_same(
            g, lambda: lockstep(g, num_threads), scheme, retry_rounds=retry_rounds
        )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_without_conflict_resolution(self, scheme):
        g = GRAPHS["tied-weights"]
        stats = assert_same(
            g, lambda: lockstep(g, 64), scheme, resolve_conflicts=False
        )
        assert stats.conflicts > 0

    def test_retry_round_runs_and_conflicts_repeat(self):
        g = GRAPHS["complete"]
        stats = assert_same(g, lambda: lockstep(g, 8), "hem", retry_rounds=1)
        assert stats.rounds == 2 and stats.conflicts > 0


# -- consecutive schedules (GP-metis) ----------------------------------------
WIDTHS = [1, 7, LIST_WALK_MAX_WIDTH, LIST_WALK_MAX_WIDTH + 1, 200]


class TestConsecutiveMatchesOracle:
    @pytest.mark.parametrize("resolve", [True, False])
    @pytest.mark.parametrize("width", WIDTHS + ["n", "n+5"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_consecutive(self, name, scheme, width, resolve):
        g = GRAPHS[name]
        n = g.num_vertices
        w = {"n": n, "n+5": n + 5}.get(width, width)
        assert_same(
            g, lambda: (consecutive_batches(n, w), None), scheme,
            resolve_conflicts=resolve,
        )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_retry_with_wide_and_narrow_rounds(self, scheme):
        # A GPU-wide first round, then narrow retry rounds: both paths in
        # one call, sharing one match vector and one rng.
        g = GRAPHS["tied-weights"]
        n = g.num_vertices

        def make():
            return consecutive_batches(n, n), lambda items: [[v] for v in items]

        stats = assert_same(g, make, scheme, retry_rounds=3)
        assert stats.rounds >= 2

    def test_empty_graph(self):
        g = from_edges(0, [])
        assert_same(g, lambda: (consecutive_batches(0, 8), None), "hem")
        assert_same(g, lambda: ([np.empty(0, np.int64)], None), "rm")


# -- which path a round takes ------------------------------------------------
class TestPathChoice:
    @pytest.mark.parametrize(
        "width, vectorised",
        [(1, False), (LIST_WALK_MAX_WIDTH, False), (LIST_WALK_MAX_WIDTH + 1, True)],
    )
    def test_widest_batch_picks_the_path(self, monkeypatch, width, vectorised):
        calls = []
        real = lockfree_module.batch_candidates

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(lockfree_module, "batch_candidates", counting)
        g = GRAPHS["unit-delaunay"]
        # One wide batch among narrow ones decides for the whole round.
        batches = [np.arange(width, dtype=np.int64), np.array([width, width + 1])]
        lockfree_match(g, batches)
        assert bool(calls) is vectorised
