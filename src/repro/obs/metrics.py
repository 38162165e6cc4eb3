"""A deterministic metrics registry: counters, gauges, histograms.

The deployed Scout ran in suggestion mode so operators could *observe*
every would-be routing decision (§6); this module is the counting half
of that observability story.  Three deliberate departures from typical
metrics clients keep the reproduction's determinism contract intact:

* **No wall-clock reads inside instruments.**  Anything time-shaped
  (span durations, phase timings) is measured by the caller on an
  injectable clock and handed in as a plain value, so a test driving a
  :class:`~repro.monitoring.faults.FakeClock` produces bit-exact
  metric values.
* **Fixed-bucket histograms.**  Buckets are frozen at creation;
  p50/p90/p99 read-outs resolve to bucket upper bounds, a pure
  function of the recorded counts — two identical runs render
  byte-identical exposition text.
* **Sorted iteration everywhere.**  Families and label sets iterate in
  sorted order, never insertion order, so snapshots diff cleanly.

Instruments are thread-safe (the serving fan-out runs Scouts on a
thread pool) yet picklable: locks are dropped on ``__getstate__`` and
recreated on ``__setstate__``, because feature builders carrying a
registry reference are shipped to worker processes during parallel
dataset builds.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

from .catalog import MetricFamily

__all__ = [
    "BoundCounter",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileReadout",
    "bucket_quantile",
]

@dataclass(frozen=True)
class QuantileReadout:
    """A bucket-quantile estimate plus whether the grid could resolve it.

    ``saturated`` is True when the requested rank landed in the implicit
    +Inf bucket — i.e. enough observations exceeded the largest finite
    bound that the read-out is a floor, not an estimate.  A saturated
    value must never be compared against a budget as if it were exact:
    the true quantile is somewhere above it.
    """

    value: float
    saturated: bool

    def __float__(self) -> float:
        return self.value


def bucket_quantile(
    buckets, bucket_counts, count: int, q: float
) -> QuantileReadout:
    """The shared bucket-walk behind every histogram quantile read-out.

    Pure function of the counts: callers diffing cumulative snapshots
    (interval p99s) and callers reading a live series both resolve
    through here, so the saturation rule lives in exactly one place.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if count <= 0:
        return QuantileReadout(float("nan"), False)
    rank = max(1, math.ceil(q * count))
    cumulative = 0
    for i, bound in enumerate(buckets):
        cumulative += bucket_counts[i]
        if cumulative >= rank:
            return QuantileReadout(float(bound), False)
    # Rank fell in the implicit +Inf bucket: the grid cannot resolve it.
    return QuantileReadout(float(buckets[-1]), True)


class _Instrument:
    """Shared label plumbing for one declared metric family."""

    kind = "untyped"

    def __init__(self, family: MetricFamily) -> None:
        self.family = family
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], object] = {}

    @property
    def name(self) -> str:
        return self.family.name

    @property
    def help(self) -> str:
        return self.family.help

    @property
    def label_names(self) -> tuple[str, ...]:
        return self.family.labels

    def _key(self, labels: dict[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def labels_of(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.label_names, key))

    def keys(self) -> list[tuple[str, ...]]:
        with self._lock:
            return sorted(self._series)

    # -- pickling: locks cannot travel to dataset-build workers ------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class BoundCounter:
    """A counter pre-bound to one label set — the hot-path handle.

    ``Counter.bind`` validates the labels once; ``inc`` is then just a
    lock and a dict update, cheap enough for per-monitoring-query call
    sites (the feature builder ticks once per pull and per CPD+ read).
    """

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: "Counter", key: tuple[str, ...]) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        counter = self._counter
        with counter._lock:
            series = counter._series
            series[self._key] = series.get(self._key, 0.0) + amount


class Counter(_Instrument):
    """A monotonically increasing count per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def bind(self, **labels) -> BoundCounter:
        """A pre-validated handle for one label set (see BoundCounter)."""
        return BoundCounter(self, self._key(labels))

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def samples(self) -> list[tuple[dict[str, str], float]]:
        with self._lock:
            items = sorted(self._series.items())
        return [(self.labels_of(key), float(v)) for key, v in items]

    def total(self) -> float:
        with self._lock:
            return float(sum(self._series.values()))


class Gauge(_Instrument):
    """A value that can go up and down per label set."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def samples(self) -> list[tuple[dict[str, str], float]]:
        with self._lock:
            items = sorted(self._series.items())
        return [(self.labels_of(key), float(v)) for key, v in items]


class _HistogramSeries:
    """Bucket counts + sum for one label set."""

    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets  # finite buckets; +Inf implied
        self.count = 0
        self.sum = 0.0


class Histogram(_Instrument):
    """Fixed-bucket histogram with deterministic quantile read-out."""

    kind = "histogram"

    def __init__(self, family: MetricFamily) -> None:
        super().__init__(family)
        buckets = family.buckets
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets = tuple(float(b) for b in buckets)

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series.bucket_counts[i] += 1
                    break
            series.count += 1
            series.sum += value

    def _get(self, labels: dict) -> _HistogramSeries | None:
        key = self._key(labels)
        with self._lock:
            return self._series.get(key)

    def count(self, **labels) -> int:
        series = self._get(labels)
        return series.count if series else 0

    def sum(self, **labels) -> float:
        series = self._get(labels)
        return series.sum if series else 0.0

    def quantile(self, q: float, **labels) -> float:
        """The upper bound of the bucket holding the q-th observation.

        Deterministic by construction: a pure function of the recorded
        bucket counts, never of observation order.  An empty series is
        NaN (indistinguishable-from-zero is exactly the ambiguity this
        layer exists to remove).  Observations above the largest finite
        bucket clamp to that largest bound — use :meth:`quantile_ex`
        when the caller must distinguish a clamped read-out from a real
        one.
        """
        return self.quantile_ex(q, **labels).value

    def quantile_ex(self, q: float, **labels) -> QuantileReadout:
        """Like :meth:`quantile` but carrying the ``saturated`` flag."""
        series = self._get(labels)
        if series is None:
            if not 0.0 <= q <= 1.0:
                raise ValueError("q must be in [0, 1]")
            return QuantileReadout(float("nan"), False)
        return bucket_quantile(
            self.buckets, series.bucket_counts, series.count, q
        )

    def percentiles(self, **labels) -> dict[str, float]:
        """The standard p50/p90/p99 read-out for one label set.

        Includes ``saturated``: True when any of the three quantiles
        landed in the +Inf bucket and is therefore a floor, not an
        estimate.
        """
        readouts = {
            "p50": self.quantile_ex(0.50, **labels),
            "p90": self.quantile_ex(0.90, **labels),
            "p99": self.quantile_ex(0.99, **labels),
        }
        out: dict[str, float] = {k: r.value for k, r in readouts.items()}
        out["saturated"] = any(r.saturated for r in readouts.values())
        return out

    def samples(self) -> list[tuple[dict[str, str], _HistogramSeries]]:
        with self._lock:
            items = sorted(self._series.items())
        return [(self.labels_of(key), series) for key, series in items]

    def total_count(self) -> int:
        with self._lock:
            return sum(s.count for s in self._series.values())

    def total_sum(self) -> float:
        with self._lock:
            return float(sum(s.sum for s in self._series.values()))


def _shape(family: MetricFamily) -> tuple:
    """What two registrations of one name must agree on."""
    return family.kind, family.labels, family.buckets


class MetricsRegistry:
    """Get-or-create home for every instrument of one serving process.

    Instruments register by declared :class:`MetricFamily` (see
    :mod:`repro.obs.catalog`): a name string is a ``TypeError``, and
    registering a name again with another kind, label set or bucket
    grid is a ``ValueError`` — the first declaration is the family.

    ``clock`` is the registry's time source for callers that want to
    measure durations consistently with the owning component (the
    incident manager passes its own injectable clock through, which is
    what keeps metric values bit-exact under a fake clock).  The
    registry itself never reads it.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._families: dict[str, _Instrument] = {}

    def _get_or_create(self, cls, family: MetricFamily):
        if not isinstance(family, MetricFamily):
            raise TypeError(
                f"register a declared MetricFamily (repro.obs.catalog), "
                f"not {type(family).__name__}"
            )
        if family.kind != cls.kind:
            raise ValueError(f"{family.name} is declared as a {family.kind}")
        with self._lock:
            existing = self._families.get(family.name)
            if existing is None:
                existing = self._families[family.name] = cls(family)
        declared = existing.family
        if _shape(declared) != _shape(family):
            raise ValueError(
                f"{family.name} already registered as a {declared.kind} "
                f"with labels {declared.labels} and buckets {declared.buckets}"
            )
        return existing

    def counter(self, family: MetricFamily) -> Counter:
        return self._get_or_create(Counter, family)

    def gauge(self, family: MetricFamily) -> Gauge:
        return self._get_or_create(Gauge, family)

    def histogram(self, family: MetricFamily) -> Histogram:
        return self._get_or_create(Histogram, family)

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[_Instrument]:
        """Every registered family, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> dict:
        """A plain-data dump (sorted, JSON-friendly) of every family."""
        out: dict = {}
        for family in self.families():
            if isinstance(family, Histogram):
                out[family.name] = {
                    "kind": family.kind,
                    "buckets": list(family.buckets),
                    "series": [
                        {
                            "labels": labels,
                            "count": series.count,
                            "sum": series.sum,
                            "bucket_counts": list(series.bucket_counts),
                        }
                        for labels, series in family.samples()
                    ],
                }
            else:
                out[family.name] = {
                    "kind": family.kind,
                    "series": [
                        {"labels": labels, "value": value}
                        for labels, value in family.samples()
                    ],
                }
        return out

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
