"""The seven multilevel engines' refinement records chain into their cuts.

Every engine files its uncoarsening steps through
:meth:`repro.runtime.trace.Trace.file_steps`: each record is one
refinement or balancing step with its own moves and cuts, chained from
the level's projected cut.  Projection preserves the cut and every
reported gain is exact, so the chain runs unbroken from the coarsest
refined level to the result's cut.  The graph and engines are those of
``test_level_records.py``.
"""

import pytest

from repro.api import partition
from repro.graphs import edge_cut
from repro.graphs.generators import delaunay

ENGINES = {
    "metis": {},
    "parmetis": {},
    "mt-metis": {},
    "gp-metis": {"gpu_threshold_min": 256},
    "pt-scotch": {},
    "jostle": {},
    "gmetis": {},
}


@pytest.fixture(scope="module")
def runs():
    graph = delaunay(6000, seed=3)
    out = {}
    for method, opts in ENGINES.items():
        res = partition(graph, 8, method=method, seed=1, **opts)
        out[method] = (res.trace, edge_cut(graph, res.part))
    return out


def steps_by_level(trace):
    """``{level: records in step order}``, coarsest level first."""
    levels = {}
    for rec in trace.refinements + trace.balancing:
        levels.setdefault(rec.level, []).append(rec)
    return {
        level: sorted(levels[level], key=lambda r: r.step)
        for level in sorted(levels, reverse=True)
    }


@pytest.mark.parametrize("method", list(ENGINES))
def test_every_uncoarsening_level_is_filed(runs, method):
    trace, _ = runs[method]
    assert sorted(steps_by_level(trace)) == list(range(trace.num_levels))


@pytest.mark.parametrize("method", list(ENGINES))
def test_steps_chain_within_each_level(runs, method):
    trace, _ = runs[method]
    for records in steps_by_level(trace).values():
        assert [r.step for r in records] == list(range(len(records)))
        for prev, nxt in zip(records, records[1:]):
            assert nxt.cut_before == prev.cut_after


@pytest.mark.parametrize("method", list(ENGINES))
def test_each_level_starts_where_the_coarser_one_ended(runs, method):
    trace, _ = runs[method]
    chains = list(steps_by_level(trace).values())
    for coarse, fine in zip(chains, chains[1:]):
        assert fine[0].cut_before == coarse[-1].cut_after


@pytest.mark.parametrize("method", list(ENGINES))
def test_last_record_ends_at_the_result_cut(runs, method):
    trace, cut = runs[method]
    assert steps_by_level(trace)[0][-1].cut_after == cut


@pytest.mark.parametrize("method", list(ENGINES))
def test_no_record_commits_more_than_it_proposed(runs, method):
    trace, _ = runs[method]
    for rec in trace.refinements + trace.balancing:
        assert 0 <= rec.moves_committed <= rec.moves_proposed


@pytest.mark.parametrize("method", [m for m in ENGINES if m != "pt-scotch"])
def test_no_refinement_step_raises_the_cut(runs, method):
    """PT-Scotch is left out: its band step balances inside itself."""
    trace, _ = runs[method]
    assert trace.refinements
    assert all(r.cut_after <= r.cut_before for r in trace.refinements)


@pytest.mark.parametrize(
    "method, labels",
    [
        ("gp-metis", {"gpu", "cpu-threads"}),
        ("pt-scotch", {"mpi-band"}),
        ("jostle", {"mpi-interface"}),
    ],
)
def test_refinement_labels(runs, method, labels):
    trace, _ = runs[method]
    assert {r.engine for r in trace.refinements} == labels


def test_final_rebalance_is_filed_at_level_zero(runs):
    """PT-Scotch's closing rebalance moves the cut it returns."""
    trace, cut = runs["pt-scotch"]
    last = steps_by_level(trace)[0][-1]
    assert last in trace.balancing
    assert (last.engine, last.cut_after) == ("mpi", cut)
    assert last.cut_before < last.cut_after
