"""Each refinement and balancing step reports its exact cut change.

``Trace.file_steps`` chains a level's records from one measured cut by
subtracting each step's reported gain, so every gain must equal the
cut before the step minus the cut after it, on any weighted graph and
partition: the k-way pass, the rebalances, and the lock-free commit
with and without its gain recheck.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import edge_cut, from_edges
from repro.mtmetis.refinement import (
    commit_moves,
    propose_balance_moves,
    propose_moves,
)
from repro.runtime.trace import Step, Trace
from repro.serial.kway import final_rebalance, kway_refine_pass, rebalance_pass


@st.composite
def weighted_problems(draw):
    """A random weighted graph, a random k-partition and its weights."""
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=0, max_value=5 * n))
    k = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    edges = rng.integers(0, n, size=(m, 2))
    graph = from_edges(
        n, edges, rng.integers(1, 30, size=m), rng.integers(1, 8, size=n)
    )
    # Skewed labels, so some partitions start overweight.
    part = np.minimum(rng.geometric(0.5, size=n) - 1, k - 1).astype(np.int64)
    return graph, part, k, rng


def limits(graph, part, k, ubfactor):
    pweights = np.bincount(part, weights=graph.vwgt.astype(np.float64), minlength=k)
    ideal = graph.total_vertex_weight / k
    return pweights, ubfactor * ideal, max(0.0, (2.0 - ubfactor) * ideal)


@given(weighted_problems(), st.sampled_from([1.03, 1.2, 2.0]))
@settings(max_examples=60, deadline=None)
def test_kway_refine_pass_gain_is_exact(problem, ubfactor):
    graph, part, k, _ = problem
    pweights, max_pw, min_pw = limits(graph, part, k, ubfactor)
    for _ in range(3):
        before = edge_cut(graph, part)
        res = kway_refine_pass(graph, part, pweights, k, max_pw, min_pw)
        assert res.gain_realised == before - edge_cut(graph, part)
        assert res.gain_realised >= 0 and not res.balancing


@given(weighted_problems(), st.sampled_from([1.0, 1.03, 1.2]))
@settings(max_examples=60, deadline=None)
def test_rebalance_pass_gain_is_exact(problem, ubfactor):
    graph, part, k, _ = problem
    pweights, max_pw, _ = limits(graph, part, k, ubfactor)
    before = edge_cut(graph, part)
    res = rebalance_pass(graph, part, pweights, k, max_pw)
    assert res.gain_realised == before - edge_cut(graph, part)
    assert res.balancing and res.moves_committed <= res.moves_proposed


@given(weighted_problems(), st.sampled_from([1.0, 1.03, 1.2]))
@settings(max_examples=60, deadline=None)
def test_final_rebalance_files_its_exact_gain(problem, ubfactor):
    graph, part, k, _ = problem
    before = edge_cut(graph, part)
    trace = Trace()
    # A refined level 0 ends at the cut the final rebalance starts from.
    trace.file_steps(0, "cpu", before + 5, [Step(1, 1, 5)])
    moves = final_rebalance(graph, part, k, ubfactor, trace, "cpu")
    if moves is None:
        assert trace.balancing == []
        return
    (rec,) = trace.balancing
    assert (rec.level, rec.step, rec.moves_committed) == (0, 1, moves)
    assert (rec.cut_before, rec.cut_after) == (before, edge_cut(graph, part))


@given(weighted_problems(), st.sampled_from([1.03, 1.2]))
@settings(max_examples=60, deadline=None)
def test_final_rebalance_without_a_chain_measures_its_start(problem, ubfactor):
    graph, part, k, _ = problem
    before = edge_cut(graph, part)
    trace = Trace()
    if final_rebalance(graph, part, k, ubfactor, trace, "cpu") is not None:
        (rec,) = trace.balancing
        assert (rec.cut_before, rec.cut_after) == (before, edge_cut(graph, part))


@given(weighted_problems(), st.sampled_from([1.03, 1.2]))
@settings(max_examples=60, deadline=None)
def test_commit_moves_gain_is_exact_with_recheck(problem, ubfactor):
    graph, part, k, _ = problem
    pweights, max_pw, min_pw = limits(graph, part, k, ubfactor)
    for direction in (+1, -1):
        vs, ds, gs, stats = propose_moves(
            graph, part, k, direction, pweights, max_pw, min_pw
        )
        before = edge_cut(graph, part)
        commit_moves(graph, part, pweights, vs, ds, gs, k, max_pw, stats)
        assert stats.gain_realised == before - edge_cut(graph, part)
        assert stats.gain_realised >= 0 and not stats.step.balancing


@given(weighted_problems(), st.sampled_from([1.0, 1.03, 1.2]))
@settings(max_examples=60, deadline=None)
def test_commit_moves_gain_is_exact_without_recheck(problem, ubfactor):
    graph, part, k, rng = problem
    pweights, max_pw, _ = limits(graph, part, k, ubfactor)
    vs, ds, gs, stats = propose_balance_moves(graph, part, k, pweights, max_pw)
    before = edge_cut(graph, part)
    commit_moves(
        graph, part, pweights, vs, ds, gs, k, max_pw, stats, recheck_gains=False
    )
    assert stats.gain_realised == before - edge_cut(graph, part)
    assert stats.step.balancing
    # Arbitrary requests, several per neighborhood: gains are re-read on
    # the labels each move meets, not taken from the requests.
    vs = np.unique(rng.integers(0, graph.num_vertices, graph.num_vertices))
    ds = rng.integers(0, k, vs.shape[0])
    gs = rng.integers(-5, 20, vs.shape[0])
    before = edge_cut(graph, part)
    commit_moves(
        graph, part, pweights, vs, ds, gs, k, 2.0 * max_pw, stats,
        recheck_gains=False,
    )
    assert stats.gain_realised == before - edge_cut(graph, part)
