"""Host speed, read by a fixed probe around every timed section.

On a shared host the CPU speed of the whole machine moves in steps: the
same call ran at 0.85x, 1.0x, 1.2x and 1.4x of its median for 30 to 60
seconds at a time, longer than a benchmark run, so no median inside a
run removes it.  A short probe of small-array numpy work (scatter-add,
unique, stable argsort, the program's own kind of work) slows by the
same factor.  Every time the benchmark reports is therefore its wall
time scaled by ``REFERENCE_S`` over the probe seconds read next to it:
the seconds it would have taken on a host where the probe takes
``REFERENCE_S``.  The probe is the benchmark's own code, so a faster
program still reads faster.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe seconds at the reference speed (a 2.1 GHz Xeon vCPU of a shared
#: 2-vCPU host, in its fast state).
REFERENCE_S = 0.010

_rng = np.random.default_rng(20160523)
_INDEX = _rng.integers(0, 4096, 20_000)
_PART = _rng.integers(0, 64, 20_000)
_WEIGHT = _rng.random(20_000)


def _work() -> int:
    total = 0
    for _ in range(4):
        table = np.zeros((512, 64))
        np.add.at(table, (_INDEX % 512, _PART), _WEIGHT)
        total += int(table.argmax()) + np.unique(_INDEX // 32).size
        total += int(np.argsort(_INDEX, kind="stable")[0])
    return total


def probe_s(repeats: int = 3) -> float:
    """Seconds of the probe work, best of ``repeats``: the host's speed now."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Probes the host between timed sections and scales each section
    by the mean of the probes read just before and just after it."""

    def __init__(self) -> None:
        self.probes = [probe_s()]

    def scale(self, wall_s: float) -> float:
        """``wall_s``, which just ended, at the reference speed."""
        self.probes.append(probe_s())
        return wall_s * REFERENCE_S / ((self.probes[-2] + self.probes[-1]) / 2)

    def speed(self) -> float:
        """Median host speed over the run, relative to the reference."""
        return REFERENCE_S / float(np.median(self.probes))
