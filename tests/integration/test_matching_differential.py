"""ParMetis's, PT-Scotch's and Gmetis's matchings against their former code.

``distributed_match``, ``montecarlo_match`` and ``Gmetis._speculative_match``
each used to write the matching pick out for itself: the scheme's arc
keys, the first free neighbor of maximal key, the switch from HEM to
random matching on equal weights and the leftover self-match.  They now
share ``repro.serial.matching``'s.  The functions below are the former
implementations, kept verbatim as oracles: the match vector, the stats,
the ``rng`` state after the call and the modeled cost must repeat
exactly, for every scheme, on unit, equal, tied, varied and >= 2**53
weights and on a graph with isolated vertices.
"""

import numpy as np
import pytest

from repro._segments import gather_ranges, segmented_argmax
from repro.gmetis import Gmetis, GmetisOptions
from repro.gmetis.speculative import SpeculativeExecutor
from repro.graphs import from_edges
from repro.graphs.generators import delaunay, star_graph
from repro.parmetis.distgraph import DistGraph
from repro.parmetis.matching import DistMatchStats, distributed_match, grant_requests
from repro.ptscotch.matching import MonteCarloMatchStats, montecarlo_match
from repro.runtime.clock import SimClock
from repro.runtime.machine import CpuSpec, InterconnectSpec
from repro.runtime.mpi import MpiSim
from repro.serial.matching import check_scheme


# -- ParMetis oracle ---------------------------------------------------------
def oracle_candidates_with_weights(graph, vertices, match, scheme, rng):
    """Best unmatched neighbor and the connecting edge weight, per vertex."""
    lens = (graph.adjp[vertices + 1] - graph.adjp[vertices]).astype(np.int64)
    flat = gather_ranges(graph.adjp[vertices], lens)
    nbrs = graph.adjncy[flat]
    valid = match[nbrs] < 0
    if scheme == "hem":
        keys = graph.adjwgt[flat].astype(np.float64)
    elif scheme == "lem":
        keys = -graph.adjwgt[flat].astype(np.float64)
    else:
        keys = rng.random(flat.shape[0])
    win = segmented_argmax(keys, lens, valid=valid)
    cand = np.full(vertices.shape[0], -1, dtype=np.int64)
    wgt = np.zeros(vertices.shape[0], dtype=np.int64)
    ok = win >= 0
    cand[ok] = nbrs[win[ok]]
    wgt[ok] = graph.adjwgt[flat[win[ok]]]
    return cand, wgt


def oracle_distributed_match(dist, mpi, scheme="hem", num_passes=4, rng=None):
    check_scheme(scheme)
    rng = rng or np.random.default_rng(0)
    graph = dist.graph
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    stats = DistMatchStats()

    # Uniform edge weights degenerate HEM into a deterministic lowest-id
    # preference, collapsing all requests onto a few popular targets;
    # switch to random matching, as the partitioners do (Sec. III.A).
    if (
        scheme == "hem"
        and graph.adjwgt.size
        and graph.adjwgt.min() == graph.adjwgt.max()
    ):
        scheme = "rm"

    for pass_i in range(num_passes):
        unmatched = np.where(match < 0)[0]
        if unmatched.size == 0:
            break
        stats.passes += 1
        cand, wgt = oracle_candidates_with_weights(graph, unmatched, match, scheme, rng)
        stats.edge_scans += int(
            (graph.adjp[unmatched + 1] - graph.adjp[unmatched]).sum()
        )
        has = cand >= 0
        v = unmatched[has]
        u = cand[has]
        w = wgt[has]
        # Alternating direction filter.
        send = (v > u) if pass_i % 2 == 0 else (v < u)
        v, u, w = v[send], u[send], w[send]
        stats.requests_sent += int(v.shape[0])

        # A vertex that sent a request does not grant this pass.
        sent_mask = np.zeros(n, dtype=bool)
        sent_mask[v] = True
        grantable = ~sent_mask[u]
        v, u, w = v[grantable], u[grantable], w[grantable]

        if v.size:
            stats.pairs += grant_requests(match, v, u, w, scheme)

        # Communication: aggregated request + grant messages.
        v_rank = dist.rank_of[v] if v.size else np.empty(0, dtype=np.int64)
        u_rank = dist.rank_of[u] if u.size else np.empty(0, dtype=np.int64)
        remote = v_rank != u_rank
        stats.remote_requests += int(remote.sum())
        # Local compute: each rank scans its unmatched vertices' lists.
        degs = (graph.adjp[unmatched + 1] - graph.adjp[unmatched]).astype(np.float64)
        per_rank = np.bincount(
            dist.rank_of[unmatched], weights=degs, minlength=dist.num_ranks
        )
        mpi.compute(
            per_rank, detail=f"match pass {pass_i}",
            avg_degree=2 * graph.num_edges / max(1, graph.num_vertices),
        )
        if v.size:
            mpi.exchange(v_rank, u_rank, np.full(v.shape[0], 16.0),
                         detail=f"match requests p{pass_i}")
            mpi.exchange(u_rank, v_rank, np.full(u.shape[0], 8.0),
                         detail=f"match grants p{pass_i}")
        mpi.allreduce(detail=f"match termination p{pass_i}")

    left = match < 0
    match[left] = np.where(left)[0]
    stats.self_matches = int(left.sum())
    return match, stats


# -- PT-Scotch oracle --------------------------------------------------------
def oracle_montecarlo_match(
    dist, mpi, scheme="hem", max_rounds=6, request_probability=0.5, rng=None
):
    check_scheme(scheme)
    rng = rng or np.random.default_rng(0)
    graph = dist.graph
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    stats = MonteCarloMatchStats()

    uniform = bool(
        graph.adjwgt.size and graph.adjwgt.min() == graph.adjwgt.max()
    )

    for _round in range(max_rounds):
        unmatched = np.where(match < 0)[0]
        if unmatched.size <= 1:
            break
        stats.rounds += 1

        heads = rng.random(unmatched.shape[0]) < request_probability
        requesters = unmatched[heads]
        stats.coin_idle += int((~heads).sum())

        if requesters.size:
            lens = (graph.adjp[requesters + 1] - graph.adjp[requesters]).astype(np.int64)
            flat = gather_ranges(graph.adjp[requesters], lens)
            nbrs = graph.adjncy[flat]
            # Valid targets: unmatched AND not requesting this round
            # (requesters never grant, so asking one would be wasted).
            requesting = np.zeros(n, dtype=bool)
            requesting[requesters] = True
            valid = (match[nbrs] < 0) & ~requesting[nbrs]
            # Each requester asks its first valid neighbor of maximal key,
            # in CSR order: the weight for HEM, its negation for LEM.
            if scheme == "hem" and not uniform:
                keys = graph.adjwgt[flat].astype(np.float64)
            elif scheme == "lem":
                keys = -graph.adjwgt[flat].astype(np.float64)
            else:
                keys = rng.random(flat.shape[0])
            win = segmented_argmax(keys, lens, valid=valid)
            has = win >= 0
            v = requesters[has]
            u = nbrs[win[has]]
            w = graph.adjwgt[flat[win[has]]]
            stats.requests_sent += int(v.shape[0])

            if v.size:
                stats.pairs += grant_requests(match, v, u, w, scheme)

                v_rank = dist.rank_of[v]
                u_rank = dist.rank_of[u]
                mpi.exchange(v_rank, u_rank, np.full(v.shape[0], 16.0),
                             detail=f"mc requests r{_round}")
                mpi.exchange(u_rank, v_rank, np.full(u.shape[0], 8.0),
                             detail=f"mc grants r{_round}")

        degs = (graph.adjp[unmatched + 1] - graph.adjp[unmatched]).astype(np.float64)
        # After a fold the graph lives on fewer ranks than the job has;
        # idle ranks contribute zero compute.
        per_rank = np.bincount(
            dist.rank_of[unmatched], weights=degs, minlength=mpi.num_ranks
        )
        mpi.compute(per_rank, detail=f"mc match r{_round}",
                    avg_degree=2 * graph.num_edges / max(1, n))
        mpi.allreduce(detail=f"mc termination r{_round}")

    left = match < 0
    match[left] = np.where(left)[0]
    stats.self_matches = int(left.sum())
    return match, stats


# -- Gmetis oracle -----------------------------------------------------------
def oracle_speculative_match(scheme, graph, executor, rng, detail):
    """``Gmetis._speculative_match`` with ``options.matching == scheme``."""
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    adjp, adjncy, adjwgt = graph.adjp, graph.adjncy, graph.adjwgt

    def neighborhood(v: int) -> np.ndarray:
        return adjncy[adjp[v]: adjp[v + 1]]

    def body(v: int) -> None:
        if match[v] >= 0:
            return
        s, e = adjp[v], adjp[v + 1]
        nbrs = adjncy[s:e]
        free = match[nbrs] < 0
        if not np.any(free):
            match[v] = v
            return
        if scheme == "hem":
            j = int(np.argmax(np.where(free, adjwgt[s:e], -1)))
        elif scheme == "lem":
            # The first free neighbor of minimal weight, in CSR order.
            idx = np.flatnonzero(free)
            j = int(idx[np.argmin(adjwgt[s:e][idx])])
        else:
            idx = np.where(free)[0]
            j = int(idx[rng.integers(0, idx.shape[0])])
        u = int(nbrs[j])
        match[v] = u
        match[u] = v

    items = rng.permutation(n)
    stats = executor.for_each(items, neighborhood, body, detail=detail)
    left = match < 0
    match[left] = np.where(left)[0]
    return match, stats


# -- inputs ------------------------------------------------------------------
def with_weights(graph, weights_of):
    """``graph``'s edges with weights ``weights_of(num_edges)``."""
    src = graph.source_array()
    keep = src < graph.adjncy
    edges = np.stack([src[keep], graph.adjncy[keep]], axis=1)
    return from_edges(graph.num_vertices, edges, weights=weights_of(edges.shape[0]))


def components_with_isolated():
    """Three components plus isolated vertices 3, 9 and 10."""
    edges = [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (6, 7), (7, 8), (4, 8),
             (11, 12), (12, 13)]
    return from_edges(14, edges, weights=[2, 1, 2, 3, 3, 1, 3, 2, 1, 1])


def _random_weights(seed, low, high):
    return lambda m: np.random.default_rng(seed).integers(low, high + 1, m)


GRAPHS = {
    "unit-weights": delaunay(300, seed=1),
    "equal-weights": with_weights(delaunay(300, seed=2), lambda m: np.full(m, 7)),
    "tied-weights": with_weights(delaunay(300, seed=3), _random_weights(3, 1, 3)),
    "varied-weights": with_weights(delaunay(300, seed=4), _random_weights(4, 1, 1000)),
    # float64 rounds 2**53 + 1 down and 2**53 + 3 up: vectorised keys tie.
    "huge-weights": with_weights(delaunay(200, seed=5), _random_weights(5, 2**53, 2**53 + 3)),
    "components-isolated": components_with_isolated(),
    "star": star_graph(30),
}
SCHEMES = ("hem", "lem", "rm")
SEEDS = (0, 7)


def run_both(call, oracle, seed):
    """Run ``call`` and ``oracle`` on fresh clocks and equal rngs; assert
    identical outputs, rng state and modeled cost."""
    got_clock, want_clock = SimClock(), SimClock()
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, got_stats = call(got_clock, got_rng)
    want, want_stats = oracle(want_clock, want_rng)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got_stats == want_stats
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got_clock.seconds_by_category() == want_clock.seconds_by_category()
    assert got_clock.counts_by_category() == want_clock.counts_by_category()
    return got_stats


def mpi_on(clock, num_ranks):
    return MpiSim(num_ranks, CpuSpec(), InterconnectSpec(), clock)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", sorted(GRAPHS))
class TestAgainstFormerCode:
    @pytest.mark.parametrize("num_ranks", [1, 4])
    def test_distributed_match(self, name, scheme, seed, num_ranks):
        dist = DistGraph.distribute(GRAPHS[name], num_ranks)
        run_both(
            lambda clock, rng: distributed_match(
                dist, mpi_on(clock, num_ranks), scheme=scheme, rng=rng
            ),
            lambda clock, rng: oracle_distributed_match(
                dist, mpi_on(clock, num_ranks), scheme=scheme, rng=rng
            ),
            seed,
        )

    @pytest.mark.parametrize("num_ranks", [1, 4])
    def test_montecarlo_match(self, name, scheme, seed, num_ranks):
        dist = DistGraph.distribute(GRAPHS[name], num_ranks)
        run_both(
            lambda clock, rng: montecarlo_match(
                dist, mpi_on(clock, num_ranks), scheme=scheme, rng=rng
            ),
            lambda clock, rng: oracle_montecarlo_match(
                dist, mpi_on(clock, num_ranks), scheme=scheme, rng=rng
            ),
            seed,
        )

    def test_speculative_match(self, name, scheme, seed):
        graph = GRAPHS[name]
        engine = Gmetis(GmetisOptions(matching=scheme))
        run_both(
            lambda clock, rng: engine._speculative_match(
                graph, SpeculativeExecutor(8, CpuSpec(), clock), rng, "match"
            ),
            lambda clock, rng: oracle_speculative_match(
                scheme, graph, SpeculativeExecutor(8, CpuSpec(), clock), rng, "match"
            ),
            seed,
        )


def test_equal_weights_switch_hem_to_random():
    # On equal weights ParMetis's HEM is RM: the same draws, the same pairs.
    dist = DistGraph.distribute(GRAPHS["equal-weights"], 4)
    hem_rng, rm_rng = np.random.default_rng(3), np.random.default_rng(3)
    hem, _ = distributed_match(dist, mpi_on(SimClock(), 4), scheme="hem", rng=hem_rng)
    rm, _ = distributed_match(dist, mpi_on(SimClock(), 4), scheme="rm", rng=rm_rng)
    assert np.array_equal(hem, rm)
    assert hem_rng.bit_generator.state == rm_rng.bit_generator.state
