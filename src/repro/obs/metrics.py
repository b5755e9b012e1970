"""Run-scoped metrics: counters, gauges, histograms.

Every partitioner run aggregates the quantities the paper argues about —
matching conflict rate, coalescing efficiency, refinement commit ratio,
PCIe traffic — into one :class:`MetricsRegistry` so exporters and the
run ledger read them from a single place instead of re-mining
``Trace``/``DeviceStats``/``SimClock``.

Metrics are named ``family.quantity`` and may carry labels (notably
``engine=gpu`` vs ``engine=cpu-threads``), which keeps the hybrid
GP-metis run's GPU and CPU stages separately comparable against a pure
mt-metis run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "metric_key"]

#: Label *names* stay plain identifiers (dots allowed for namespacing);
#: anything else would collide with the escaping of label values.
_LABEL_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")


def _escape_label_value(value: str) -> str:
    """Backslash-escape the characters that delimit a metric key.

    Without this, ``{a="x,b=y"}`` and ``{a="x", b="y"}`` would both
    flatten to ``name{a=x,b=y}`` — two different series under one key.
    """
    out = value.replace("\\", "\\\\")
    for ch in (",", "{", "}", "="):
        out = out.replace(ch, "\\" + ch)
    return out


def metric_key(name: str, labels: dict[str, str] | None = None) -> str:
    """Canonical ``name{k=v,...}`` key with sorted labels.

    Label values containing ``,``, ``{``, ``}``, ``=`` or ``\\`` are
    backslash-escaped so distinct label sets can never produce the same
    key; label names must be identifier-like or a :class:`ValueError`
    is raised.
    """
    if not labels:
        return name
    for label in labels:
        if not _LABEL_NAME_RE.match(label):
            raise ValueError(
                f"invalid label name {label!r} for metric {name!r}: label names "
                "must match [A-Za-z_][A-Za-z0-9_.-]*"
            )
    inner = ",".join(
        f"{k}={_escape_label_value(str(labels[k]))}" for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """Monotonically increasing total (bytes moved, conflicts seen...)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


@dataclass
class Gauge:
    """Last-written value (a ratio, a peak, a final cut)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Bounded sample store: past this many kept samples the histogram
#: decimates (keeps every other sample, doubles its stride), so memory
#: stays O(cap) while the retained samples remain an even, deterministic
#: subsample of the stream — good enough for p50/p95 on modeled times.
_SAMPLE_CAP = 4096


@dataclass
class Histogram:
    """Summary of a per-event quantity: exact count/sum/min/max/mean plus
    p50/p95/p99 quantiles from a bounded, deterministically decimated
    sample."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))
    _samples: list = field(default_factory=list, repr=False)
    _stride: int = field(default=1, repr=False)
    _skip: int = field(default=0, repr=False)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if self._skip:
            self._skip -= 1
            return
        self._samples.append(value)
        self._skip = self._stride - 1
        if len(self._samples) >= _SAMPLE_CAP:
            self._samples = self._samples[::2]
            self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile (``q`` in [0, 100]) over kept samples."""
        if not self._samples:
            return None
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def summary(self) -> dict:
        if not self.count:
            return {
                "count": 0, "sum": 0.0, "min": None, "max": None, "mean": None,
                "p50": None, "p95": None, "p99": None,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Registry of named metrics; one per run."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- accessors (create on first use) -----------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        if key not in self.counters:
            self._check_unique(key, self.counters)
            self.counters[key] = Counter(key)
        return self.counters[key]

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        if key not in self.gauges:
            self._check_unique(key, self.gauges)
            self.gauges[key] = Gauge(key)
        return self.gauges[key]

    def histogram(self, name: str, **labels) -> Histogram:
        key = metric_key(name, labels)
        if key not in self.histograms:
            self._check_unique(key, self.histograms)
            self.histograms[key] = Histogram(key)
        return self.histograms[key]

    def _check_unique(self, key: str, own: dict) -> None:
        for other in (self.counters, self.gauges, self.histograms):
            if other is not own and key in other:
                raise ValueError(f"metric {key!r} already registered with another type")

    # -- reads -------------------------------------------------------------
    def value(self, name: str, **labels) -> float | None:
        """The counter/gauge value (or histogram mean) under this key."""
        key = metric_key(name, labels)
        if key in self.counters:
            return self.counters[key].value
        if key in self.gauges:
            return self.gauges[key].value
        if key in self.histograms:
            return self.histograms[key].mean
        return None

    def as_dict(self) -> dict:
        """JSON-ready snapshot of every metric."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges.items())},
            "histograms": {k: h.summary() for k, h in sorted(self.histograms.items())},
        }
