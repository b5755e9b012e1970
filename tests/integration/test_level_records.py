"""The seven multilevel engines' coarsening records agree with their ladders.

Every engine coarsens on :class:`repro.serial.coarsen.CoarseningLadder`,
so each run's ``trace.levels`` must number its levels without gaps and
count pairs consistently with the level sizes.  The graph is large
enough for GP-metis's GPU and CPU stages (``gpu_threshold_min=256``)
and for Jostle's distributed and replicated levels (above its
``broadcast_threshold`` of 4096 vertices).
"""

import pytest

from repro.api import partition
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
def level_records():
    graph = delaunay(6000, seed=3)
    return {
        method: partition(graph, 8, method=method, seed=1, **opts).trace.levels
        for method, opts in ENGINES.items()
    }


@pytest.mark.parametrize("method", list(ENGINES))
def test_levels_are_numbered_without_gaps(level_records, method):
    levels = level_records[method]
    assert levels
    assert [r.level for r in levels] == list(range(len(levels)))


@pytest.mark.parametrize("method", list(ENGINES))
def test_each_level_shrinks_to_the_next(level_records, method):
    levels = level_records[method]
    for fine, coarse in zip(levels, levels[1:]):
        assert fine.num_vertices - fine.matched_pairs == coarse.num_vertices


@pytest.mark.parametrize("method", list(ENGINES))
def test_pairs_and_self_matches_cover_the_level(level_records, method):
    for rec in level_records[method]:
        assert 2 * rec.matched_pairs + rec.self_matches == rec.num_vertices


@pytest.mark.parametrize(
    "method, kinds",
    [
        ("gp-metis", {"gpu", "cpu-threads"}),
        ("jostle", {"mpi", "mpi-replicated"}),
    ],
)
def test_both_level_kinds_are_covered(level_records, method, kinds):
    assert {r.engine for r in level_records[method]} == kinds


def test_ptscotch_levels_span_several_fold_generations(level_records):
    engines = [r.engine for r in level_records["pt-scotch"]]
    assert all(e.startswith("mpi-fold") for e in engines)
    assert len(set(engines)) > 1
