"""Unit tests for the coarsening ladder every multilevel engine climbs."""

import numpy as np

from repro.graphs import from_edges
from repro.graphs.generators import delaunay
from repro.runtime.trace import Trace
from repro.serial.coarsen import CoarseningLadder
from repro.serial.contraction import contract
from repro.serial.matching import sequential_match
from repro.serial.options import MIN_SHRINK


def climb(ladder, engine="test"):
    """Climb ``ladder`` with sequential HEM; returns each yielded level
    index with the pairs the matcher reported for it."""
    rng = np.random.default_rng(0)
    seen = []
    for level, graph in ladder:
        mres = sequential_match(graph, "hem", rng)
        coarse, cmap = contract(graph, mres.match)
        seen.append((level, mres.pairs))
        ladder.add(coarse, cmap, engine=engine)
    return seen


def star(leaves):
    return from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)], name="star")


class TestStopRule:
    def test_explicit_target_stops_it(self):
        g = delaunay(900, seed=3)
        ladder = CoarseningLadder(g, 400)
        climb(ladder)
        assert ladder.levels
        assert ladder.coarsest.num_vertices <= 400
        assert all(L.graph.num_vertices > 400 for L in ladder.levels)

    def test_star_stops_after_one_level(self):
        # HEM pairs the hub with one leaf; every other leaf self-matches,
        # so 101 vertices shrink to 100 (under 1 %) and the ladder stalls
        # above its target.
        trace = Trace()
        ladder = CoarseningLadder(star(100), 64, trace)
        climb(ladder)
        assert len(ladder.levels) == 1
        assert ladder.coarsest.num_vertices == 100
        (rec,) = trace.levels
        assert (rec.num_vertices, rec.matched_pairs, rec.self_matches) == (101, 1, 99)

    def test_lower_min_shrink_climbs_the_star_to_the_target(self):
        ladder = CoarseningLadder(star(100), 64, min_shrink=0.005)
        climb(ladder)
        assert ladder.coarsest.num_vertices == 64
        assert len(ladder.levels) == 101 - 64

    def test_stalls_agrees_with_the_loop(self):
        for graph, target in ((delaunay(2000, seed=5), 64), (star(100), 64)):
            ladder = CoarseningLadder(graph, target)
            climb(ladder)
            sizes = [L.graph.num_vertices for L in ladder.levels]
            sizes.append(ladder.coarsest.num_vertices)
            steps = list(zip(sizes, sizes[1:]))
            # Every level but the last climbed on; the last one either
            # reached the target or stalled.
            assert not any(ladder.stalls(f, c) for f, c in steps[:-1])
            fine, coarse = steps[-1]
            assert coarse <= target or ladder.stalls(fine, coarse)

    def test_stalls_is_the_shrink_fraction_test(self):
        ladder = CoarseningLadder(star(3), 1)
        assert ladder.min_shrink == MIN_SHRINK
        assert ladder.stalls(101, 100)
        assert not ladder.stalls(100, 50)
        assert ladder.stalls(100, 100)

    def test_break_keeps_the_graph_it_left_on(self):
        g = delaunay(900, seed=3)
        ladder = CoarseningLadder(g, 64)
        rng = np.random.default_rng(0)
        for level, graph in ladder:
            if level == 2:
                break
            coarse, cmap = contract(graph, sequential_match(graph, "hem", rng).match)
            ladder.add(coarse, cmap, engine="test")
        assert len(ladder.levels) == 2
        assert ladder.coarsest is graph


class TestLevelRecords:
    def test_engine_label_lands_on_every_record(self):
        trace = Trace()
        climb(CoarseningLadder(delaunay(900, seed=3), 64, trace), engine="custom")
        assert trace.levels
        assert all(r.engine == "custom" for r in trace.levels)

    def test_level_offset_numbers_the_records(self):
        trace = Trace()
        ladder = CoarseningLadder(delaunay(900, seed=3), 64, trace, level_offset=5)
        yielded = [level for level, _ in climb(ladder)]
        assert yielded == list(range(len(ladder.levels)))
        assert [r.level for r in trace.levels] == [5 + i for i in yielded]

    def test_derived_pair_and_self_match_counts(self):
        trace = Trace()
        ladder = CoarseningLadder(delaunay(1500, seed=2), 64, trace)
        pairs = [p for _, p in climb(ladder)]
        assert [r.matched_pairs for r in trace.levels] == pairs
        sizes = [L.graph.num_vertices for L in ladder.levels]
        sizes.append(ladder.coarsest.num_vertices)
        for rec, coarse_n in zip(trace.levels, sizes[1:]):
            assert rec.num_vertices - rec.matched_pairs == coarse_n
            assert 2 * rec.matched_pairs + rec.self_matches == rec.num_vertices
