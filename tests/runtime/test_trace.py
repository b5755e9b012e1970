"""Unit tests for the structured execution trace records."""

import numpy as np

from repro.gpusim.sanitizer import LaunchRaceReport, RaceFinding
from repro.runtime.trace import LevelRecord, RefinementRecord, Step, Trace


class TestLevelRecord:
    def test_defaults(self):
        r = LevelRecord(level=2, num_vertices=50, num_edges=120)
        assert r.matched_pairs == 0
        assert r.conflicts == 0
        assert r.self_matches == 0
        assert r.engine == "cpu"

    def test_conflict_rate(self):
        r = LevelRecord(0, 100, 200, matched_pairs=30, conflicts=10)
        assert r.conflict_rate == 10 / 40
        assert LevelRecord(0, 100, 200).conflict_rate == 0.0


class TestRefinementRecord:
    def test_fields(self):
        r = RefinementRecord(
            level=1, step=0, moves_proposed=12, moves_committed=7,
            cut_before=90, cut_after=80, engine="gpu",
        )
        assert r.moves_committed <= r.moves_proposed
        assert r.cut_after < r.cut_before


def make_trace():
    t = Trace()
    t.levels.append(LevelRecord(0, 1000, 3000, matched_pairs=400,
                                conflicts=50, engine="gpu"))
    t.levels.append(LevelRecord(1, 550, 1500, matched_pairs=200,
                                conflicts=20, engine="gpu"))
    t.levels.append(LevelRecord(2, 300, 700, matched_pairs=120,
                                conflicts=4, engine="cpu-threads"))
    t.refinements.append(RefinementRecord(1, 0, 40, 25, 500, 430, engine="gpu"))
    t.refinements.append(RefinementRecord(0, 0, 80, 60, 430, 380, engine="gpu"))
    return t


class TestTraceAggregation:
    def test_num_levels_and_conflicts(self):
        t = make_trace()
        assert t.num_levels == 3
        assert t.total_conflicts == 74
        assert t.coarsest_size == 300
        assert Trace().coarsest_size == 0

    def test_levels_on_engine(self):
        t = make_trace()
        assert len(t.levels_on("gpu")) == 2
        assert len(t.levels_on("cpu-threads")) == 1
        assert t.levels_on("mpi") == []

    def test_notes(self):
        t = Trace()
        t.note("fell back")
        assert t.notes == ["fell back"]
        assert "note: fell back" in t.render()

    def test_render_funnel_and_refinement(self):
        out = make_trace().render()
        assert "coarsening funnel:" in out
        assert "|V|=    1000" in out
        assert "[gpu]" in out and "[cpu-threads]" in out
        assert "refinement:" in out
        assert "500 ->      430 v" in out

    def test_render_empty_trace(self):
        assert Trace().render() == ""

    def test_render_refinement_spans_first_to_last_pass(self):
        """Multi-pass levels must show first cut -> last cut, not pass 0 only."""
        t = Trace()
        t.refinements.append(RefinementRecord(0, 0, 50, 30, 900, 860, engine="gpu"))
        t.refinements.append(RefinementRecord(0, 1, 40, 20, 860, 830, engine="gpu"))
        t.refinements.append(RefinementRecord(0, 2, 30, 10, 830, 815, engine="gpu"))
        out = t.render()
        assert "900 ->      815 v" in out
        assert "(3 passes)" in out
        assert "830" not in out  # intermediate cuts are folded away

    def test_render_balancing_steps_beside_passes(self):
        """A level's rebalance shows as its own steps, not inside a pass;
        the arrow follows the level's net change."""
        t = Trace()
        t.file_steps(4, "cpu-serial", 2203, [
            Step(10, 10, -44, balancing=True), Step(30, 7, 7), Step(5, 0, 0),
        ])
        t.file_steps(3, "cpu-serial", 2240, [Step(20, 9, 12)])
        out = t.render()
        assert "L4  cut     2203 ->     2240 ^ (2 passes) balance +44 (1 step)" in out
        assert "L3  cut     2240 ->     2228 v (1 pass) [cpu-serial]" in out

    def test_render_refinement_single_pass_and_engines(self):
        t = Trace()
        t.refinements.append(RefinementRecord(1, 0, 10, 5, 500, 480, engine="gpu"))
        t.refinements.append(RefinementRecord(0, 0, 10, 5, 480, 470, engine="gpu"))
        t.refinements.append(RefinementRecord(0, 1, 10, 5, 470, 460, engine="cpu-threads"))
        out = t.render()
        assert "(1 pass)" in out  # level 1
        assert "(2 passes)" in out  # level 0
        assert "[cpu-threads+gpu]" in out or "[gpu+cpu-threads]" in out


class TestTraceRaceReports:
    def clean_report(self):
        return LaunchRaceReport(kernel="coarsen.match", launch_index=0,
                               n_threads=64, schedules_checked=3)

    def racy_report(self):
        rep = LaunchRaceReport(kernel="coarsen.match", launch_index=1,
                              n_threads=64, schedules_checked=3)
        rep.counts = {"write-write": 2}
        rep.findings = [RaceFinding(
            kind="write-write", severity="race", array_label="match",
            element=5, threads=(0, 3),
        )]
        return rep

    def test_default_no_reports(self):
        t = Trace()
        assert t.race_reports == []
        assert t.races_detected == 0
        assert "sanitizer" not in t.render()

    def test_races_detected_sums_reports(self):
        t = Trace()
        t.race_reports = [self.clean_report(), self.racy_report()]
        assert t.races_detected == 2

    def test_render_includes_sanitizer_section(self):
        t = make_trace()
        t.race_reports = [self.clean_report(), self.racy_report()]
        out = t.render()
        assert "sanitizer: 2 launches" in out
        assert "2 race(s)" in out
        # Only the racy launch is expanded.
        assert "match[5]" in out
        assert out.count("launch") >= 1

    def test_clean_reports_render_one_line(self):
        t = Trace()
        t.race_reports = [self.clean_report()]
        out = t.render()
        assert "0 race(s)" in out
        assert "match[" not in out


class TestFileSteps:
    def test_records_chain_from_the_projected_cut(self):
        t = Trace()
        t.file_steps(2, "gpu", 500, [
            Step(8, 3, -6, balancing=True), Step(40, 25, 70), Step(9, 0, 0),
        ])
        assert [(r.step, r.cut_before, r.cut_after) for r in t.refinements] == [
            (1, 506, 436), (2, 436, 436),
        ]
        assert [(r.step, r.cut_before, r.cut_after) for r in t.balancing] == [
            (0, 500, 506),
        ]
        assert {r.engine for r in t.refinements + t.balancing} == {"gpu"}

    def test_later_steps_continue_the_level(self):
        t = Trace()
        assert t.cut_after(0) is None
        t.file_steps(0, "cpu-threads", 300, [Step(5, 5, 20)])
        t.file_steps(0, "cpu-threads", t.cut_after(0), [Step(4, 4, -9, balancing=True)])
        (rec,) = t.balancing
        assert (rec.level, rec.step, rec.cut_before, rec.cut_after) == (0, 1, 280, 289)
        assert t.cut_after(0) == 289
        assert t.cut_after(1) is None
