"""Counters, gauges and fixed-bucket histograms — no dependencies.

The production-observability substrate of the service: a
:class:`MetricsRegistry` holds metric *families* (one name + help + type
each), each family holds *series* (one per label combination), and every
series is a plain thread-safe accumulator.  The shapes mirror the
Prometheus data model deliberately — :func:`repro.metrics.render.
render_prometheus` emits the text exposition format straight from a
registry — but nothing here imports anything beyond the standard
library, keeping the core dependency-free (see ROADMAP.md).

Three instrument types, chosen for the write path they instrument:

- :class:`Counter` — monotonically increasing totals (commits, events
  published, WAL bytes).  ``inc()`` only; a decrease is a bug the
  validator (``scripts/validate_metrics.py``) can catch across
  scrapes.
- :class:`Gauge` — point-in-time levels (live subscriptions, changefeed
  consumers, view size).  Set at collection time by
  :meth:`~repro.service.facade.ViewService.metrics` so they are always
  consistent with one generation.
- :class:`Histogram` — fixed-bucket latency distributions (per-phase
  commit latency, lock wait/hold, xpath reads).  Buckets are chosen at
  construction and never change, so ``observe()`` is O(log buckets)
  with no allocation.

Instrument handles are cheap to hold: components resolve them once in
``__init__`` and call ``inc()``/``observe()`` on the hot path.  The
registry is the only store of what it counts: each component's
``stats()`` reads its handles back.  A component constructed without a
registry counts into a private one.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Default latency buckets (seconds): 50µs .. 2.5s, roughly log-spaced.
#: Wide enough for a cold full re-evaluation, fine enough to separate a
#: skip decision from a Δ(M,L) repair.  ``+Inf`` is implicit.
DEFAULT_LATENCY_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: The instrument types a family can have (Prometheus TYPE values).
METRIC_TYPES = ("counter", "gauge", "histogram")


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_labels(key: tuple[tuple[str, str], ...]) -> str:
    """Render a label key as ``{a="x",b="y"}`` (empty string if none)."""
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class Counter:
    """One monotonically-increasing series."""

    __slots__ = ("_value", "_mutex")

    def __init__(self) -> None:
        self._value = 0.0
        self._mutex = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount!r})")
        with self._mutex:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        with self._mutex:
            return self._value


class Gauge:
    """One point-in-time level."""

    __slots__ = ("_value", "_mutex")

    def __init__(self) -> None:
        self._value = 0.0
        self._mutex = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the current level."""
        with self._mutex:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the level upward."""
        with self._mutex:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the level downward."""
        with self._mutex:
            self._value -= amount

    @property
    def value(self) -> float:
        """The current level."""
        with self._mutex:
            return self._value


class Histogram:
    """One fixed-bucket latency distribution.

    Stores one count per configured bucket boundary plus the implicit
    ``+Inf`` bucket; rendering cumulates them, so ``observe()`` touches
    exactly one slot.
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_mutex")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._mutex = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        index = bisect_left(self.buckets, value)
        with self._mutex:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Total samples observed."""
        with self._mutex:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._mutex:
            return self._sum

    def snapshot(self) -> dict:
        """JSON-safe state: cumulative buckets keyed by upper bound."""
        with self._mutex:
            counts = list(self._counts)
            total, s = self._count, self._sum
        cumulative: dict[str, int] = {}
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative[repr(bound)] = running
        cumulative["+Inf"] = total
        return {"count": total, "sum": s, "buckets": cumulative}


class MetricFamily:
    """One named metric: help text, type, and its labeled series."""

    def __init__(self, name: str, help_text: str, metric_type: str,
                 buckets: tuple[float, ...] | None = None):
        if metric_type not in METRIC_TYPES:
            raise ValueError(
                f"metric type must be one of {METRIC_TYPES}, "
                f"got {metric_type!r}"
            )
        self.name = name
        self.help = help_text
        self.type = metric_type
        self.buckets = buckets
        self._series: dict[tuple, object] = {}
        self._mutex = threading.Lock()

    def labels(self, **labels: str):
        """The series for this label combination (created on first use)."""
        key = _label_key(labels)
        with self._mutex:
            series = self._series.get(key)
            if series is None:
                series = self._make()
                self._series[key] = series
            return series

    def _make(self):
        if self.type == "counter":
            return Counter()
        if self.type == "gauge":
            return Gauge()
        return Histogram(self.buckets or DEFAULT_LATENCY_BUCKETS)

    # Unlabeled convenience: family.inc() / .set() / .observe() act on
    # the series with no labels.
    def inc(self, amount: float = 1.0) -> None:
        """``inc`` on the unlabeled series (counters and gauges)."""
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """``dec`` on the unlabeled series (gauges)."""
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        """``set`` on the unlabeled series (gauges)."""
        self.labels().set(value)

    def observe(self, value: float) -> None:
        """``observe`` on the unlabeled series (histograms)."""
        self.labels().observe(value)

    @property
    def value(self) -> float:
        """Value of the unlabeled series (counters and gauges)."""
        return self.labels().value

    def snapshot(self) -> dict:
        """Snapshot of the unlabeled series (histograms)."""
        return self.labels().snapshot()

    def series(self) -> list[tuple[tuple, object]]:
        """(label key, series) pairs in sorted label order."""
        with self._mutex:
            return sorted(self._series.items())


class MetricsRegistry:
    """All of one service's metric families, by name.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create: the
    first call fixes the help text and type, later calls return the
    same family (a *different* type for an existing name raises — one
    name, one meaning).
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._mutex = threading.Lock()

    def _get_or_create(self, name: str, help_text: str, metric_type: str,
                       buckets: tuple[float, ...] | None = None
                       ) -> MetricFamily:
        with self._mutex:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, help_text, metric_type, buckets)
                self._families[name] = family
            elif family.type != metric_type:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.type}, cannot re-register as {metric_type}"
                )
            return family

    def counter(self, name: str, help_text: str) -> MetricFamily:
        """Get or create a counter family."""
        return self._get_or_create(name, help_text, "counter")

    def gauge(self, name: str, help_text: str) -> MetricFamily:
        """Get or create a gauge family."""
        return self._get_or_create(name, help_text, "gauge")

    def histogram(self, name: str, help_text: str,
                  buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
                  ) -> MetricFamily:
        """Get or create a histogram family with fixed ``buckets``."""
        return self._get_or_create(name, help_text, "histogram", buckets)

    def families(self) -> list[MetricFamily]:
        """Every registered family, sorted by name."""
        with self._mutex:
            return [self._families[k] for k in sorted(self._families)]

    def to_dict(self) -> dict:
        """JSON-safe snapshot, grouped by instrument type.

        ``counters`` and ``gauges`` map rendered series names
        (``name{label="v"}``) to values; ``histograms`` map them to
        ``{"count", "sum", "buckets"}`` dicts with cumulative bucket
        counts keyed by upper bound.
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for family in self.families():
            for key, series in family.series():
                label = family.name + format_labels(key)
                if family.type == "counter":
                    out["counters"][label] = series.value
                elif family.type == "gauge":
                    out["gauges"][label] = series.value
                else:
                    out["histograms"][label] = series.snapshot()
        return out
