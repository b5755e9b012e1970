"""Structured execution traces.

Partitioners append :class:`LevelRecord` entries as they coarsen and
file each uncoarsening level's steps with :meth:`Trace.file_steps`, so
tests and reports can inspect the multilevel structure without
re-deriving it from the clock's raw event list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LevelRecord", "RefinementRecord", "Step", "Trace"]


@dataclass
class LevelRecord:
    """One coarsening level's outcome."""

    level: int
    num_vertices: int
    num_edges: int
    matched_pairs: int = 0
    conflicts: int = 0
    self_matches: int = 0
    engine: str = "cpu"

    @property
    def conflict_rate(self) -> float:
        attempts = self.matched_pairs + self.conflicts
        return self.conflicts / attempts if attempts else 0.0


@dataclass(frozen=True)
class Step:
    """One refinement or balancing step of a level, before it is filed;
    ``gain_realised`` is its exact cut reduction (cut before - cut after)."""

    moves_proposed: int
    moves_committed: int
    gain_realised: int
    balancing: bool = field(default=False, kw_only=True)


@dataclass
class RefinementRecord:
    """One step at one uncoarsening level: ``step`` numbers the level's
    steps over both kinds, and the cuts bracket this step alone."""

    level: int
    step: int
    moves_proposed: int
    moves_committed: int
    cut_before: int
    cut_after: int
    engine: str = "cpu"


@dataclass
class Trace:
    """All structured records of one partitioner run."""

    levels: list[LevelRecord] = field(default_factory=list)
    refinements: list[RefinementRecord] = field(default_factory=list)
    balancing: list[RefinementRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Per-launch :class:`repro.gpusim.sanitizer.LaunchRaceReport` entries,
    #: populated when the run executed with the sanitizer enabled.
    race_reports: list = field(default_factory=list)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def races_detected(self) -> int:
        return sum(r.num_races for r in self.race_reports)

    @property
    def total_conflicts(self) -> int:
        return sum(r.conflicts for r in self.levels)

    @property
    def coarsest_size(self) -> int:
        return self.levels[-1].num_vertices if self.levels else 0

    def levels_on(self, engine: str) -> list[LevelRecord]:
        return [r for r in self.levels if r.engine == engine]

    def note(self, message: str) -> None:
        self.notes.append(message)

    def _filed(self, level: int) -> list[RefinementRecord]:
        filed = [r for r in self.refinements + self.balancing if r.level == level]
        return sorted(filed, key=lambda r: r.step)

    def cut_after(self, level: int) -> int | None:
        """The cut after the last step filed at ``level`` (None before one)."""
        filed = self._filed(level)
        return filed[-1].cut_after if filed else None

    def file_steps(self, level: int, engine: str, cut: int, steps: list[Step]) -> None:
        """The one place refinement records are built: each step of
        ``level``, in order, becomes a record chained from ``cut`` by the
        steps' gains, continuing the level's numbering; refinement steps
        go to :attr:`refinements`, balancing ones to :attr:`balancing`."""
        index = len(self._filed(level))
        for step in steps:
            record = RefinementRecord(
                level, index, step.moves_proposed, step.moves_committed,
                cut, cut - step.gain_realised, engine,
            )
            (self.balancing if step.balancing else self.refinements).append(record)
            cut, index = record.cut_after, index + 1

    def render(self) -> str:
        """ASCII view of the multilevel run: the coarsening funnel with
        per-level engines and conflict counts, then refinement outcomes."""
        lines: list[str] = []
        if self.levels:
            peak = max(r.num_vertices for r in self.levels)
            lines.append("coarsening funnel:")
            for r in self.levels:
                bar = "#" * max(1, int(round(30 * r.num_vertices / peak)))
                lines.append(
                    f"  L{r.level:<2d} {bar:<30s} |V|={r.num_vertices:>8d} "
                    f"pairs={r.matched_pairs:>7d} conflicts={r.conflicts:>6d} "
                    f"[{r.engine}]"
                )
        if self.refinements or self.balancing:
            lines.append("refinement:")
            # One line per level: the first step's cut_before to the last
            # step's cut_after, then the balancing steps' share of it.
            filed = self.refinements + self.balancing
            for level in sorted({r.level for r in filed}, reverse=True):
                steps = self._filed(level)
                balance = [r for r in self.balancing if r.level == level]
                first, last, n = steps[0], steps[-1], len(steps) - len(balance)
                arrow = "=" if last.cut_after == first.cut_before else (
                    "v" if last.cut_after < first.cut_before else "^"
                )
                line = (
                    f"  L{level:<2d} cut {first.cut_before:>8d} -> "
                    f"{last.cut_after:>8d} {arrow} ({n} pass{'es' * (n != 1)})"
                )
                if balance:
                    rise = sum(r.cut_after - r.cut_before for r in balance)
                    line += (
                        f" balance {rise:+d} "
                        f"({len(balance)} step{'s' * (len(balance) != 1)})"
                    )
                engines = sorted({r.engine for r in steps})
                lines.append(f"{line} [{'+'.join(engines)}]")
        if self.race_reports:
            races = self.races_detected
            warnings = sum(r.num_warnings for r in self.race_reports)
            kernels = {r.kernel for r in self.race_reports}
            lines.append(
                f"sanitizer: {len(self.race_reports)} launches over "
                f"{len(kernels)} kernels, {races} race(s), "
                f"{warnings} stale-read warning(s)"
            )
            for r in self.race_reports:
                if not r.race_free:
                    for sub in r.render().splitlines():
                        lines.append(f"  {sub}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)
