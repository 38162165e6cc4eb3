"""Feature construction (§5.2).

Per component type, the Scout builds a fixed-length feature block:

* for every time-series *group* (datasets sharing a class tag are
  merged; others stand alone): the paper's eleven statistics — mean,
  std, min, max and the 1/10/25/50/75/90/99th percentiles — computed
  over all normalized points of all relevant components in the
  look-back window ``[t - T, t]``;
* for every event dataset and event type: the event count;
* plus one count-of-components feature per declared component type.

Series are normalized against a trailing reference window (healthy
recent history), so a failure-induced distribution shift shows up in
the upper/lower percentiles exactly as §5.2 describes.  Component types
with no covering dataset (VMs, for PhyNet) contribute no monitoring
features; component types with no extracted components contribute
zeros; *deactivated* monitoring systems contribute NaNs, which the
serving layer imputes with training means (§6).

The builder reads the store through one pull plan per Scout call: a
walk of the schema collects every device each dataset is read for,
then one matrix pull per time-series dataset covers the look-back
window and its reference as one contiguous span (split by sample
index, z-scored in one reduction), and one count pull per event
dataset covers the look-back window.  The plan resolves every read of
a group or event feature once — its devices, the rows of the pull that
hold them and, for events, the count column — and both consumers read
that one result: a feature is an index gather over the z-scored rows,
and CPD+ (:meth:`FeatureBuilder.look_back`) takes the raw look-back
columns of the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..config.spec import ScoutConfig
from ..datacenter.components import Component, ComponentKind
from ..datacenter.topology import Topology
from ..monitoring.base import DataKind
from ..monitoring.store import MonitoringStore, sample_range
from ..obs.catalog import (
    MONITORING_CACHE_HITS_TOTAL as _CACHE_HITS,
    MONITORING_QUERIES_TOTAL as _QUERIES,
    MetricFamily,
)
from .extraction import ExtractedComponents
from .window_agg import exact_percentiles

__all__ = ["FeatureSchema", "FeatureBuilder", "STAT_NAMES"]

STAT_NAMES = (
    "mean", "std", "min", "max",
    "p1", "p10", "p25", "p50", "p75", "p90", "p99",
)
_PERCENTILES = (1, 10, 25, 50, 75, 90, 99)

# Feature vectors the cross-incident memo keeps per builder (oldest
# evicted first): a few storms' worth of distinct incidents.
_VECTOR_CAP = 128

_LEAF_KINDS = (ComponentKind.SERVER, ComponentKind.SWITCH, ComponentKind.VM)
_CONTAINER_KINDS = (ComponentKind.CLUSTER, ComponentKind.DC)


@dataclass(frozen=True)
class _TsGroup:
    """A mergeable group of time-series datasets (same class tag)."""

    kind: ComponentKind
    label: str
    locators: tuple[str, ...]


@dataclass(frozen=True)
class _EventFeature:
    """One event type's count; ``column`` is its column of the
    dataset's count pull (the store lists the schema's types first,
    sorted)."""

    kind: ComponentKind
    locator: str
    event_type: str
    column: int


class FeatureSchema:
    """The fixed feature layout implied by a Scout config."""

    def __init__(self, config: ScoutConfig, store: MonitoringStore) -> None:
        self.config = config
        self.ts_groups: list[_TsGroup] = []
        self.event_features: list[_EventFeature] = []
        for kind in config.kinds:
            singles: list[tuple[str, str]] = []  # (label, locator)
            by_class: dict[str, list[str]] = {}
            for ref in config.monitoring:
                schema = store.schema(ref.locator)
                if not _covers(schema.component_kinds, kind):
                    continue
                if schema.kind is DataKind.TIME_SERIES:
                    if ref.class_tag:
                        by_class.setdefault(ref.class_tag, []).append(ref.locator)
                    else:
                        singles.append((ref.locator, ref.locator))
                else:
                    for column, event_type in enumerate(
                        sorted(schema.events.rates)
                    ):
                        self.event_features.append(
                            _EventFeature(kind, ref.locator, event_type, column)
                        )
            for class_tag in sorted(by_class):
                self.ts_groups.append(
                    _TsGroup(kind, class_tag, tuple(sorted(by_class[class_tag])))
                )
            for label, locator in sorted(singles):
                self.ts_groups.append(_TsGroup(kind, label, (locator,)))
        # Stable global ordering: time-series stat blocks, then event
        # counts, then component counts.
        self.names: list[str] = []
        for group in self.ts_groups:
            for stat in STAT_NAMES:
                self.names.append(f"{group.kind.value}.{group.label}.{stat}")
        for feature in self.event_features:
            self.names.append(
                f"{feature.kind.value}.{feature.locator}.{feature.event_type}"
            )
        for kind in config.kinds:
            self.names.append(f"n_{kind.value}")
        self._index = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"{name!r} is not in the feature schema") from None


def _covers(dataset_kinds: frozenset[ComponentKind], kind: ComponentKind) -> bool:
    """Does a dataset produce data for components of ``kind``?

    Containers (cluster, DC) are covered indirectly: their features pool
    the signals of their leaf members.
    """
    if kind in dataset_kinds:
        return True
    if kind in _CONTAINER_KINDS:
        return bool(dataset_kinds & set(_LEAF_KINDS))
    return False


def _stats(pooled: np.ndarray) -> np.ndarray:
    """The eleven §5.2 statistics over one pooled window.

    Degenerate windows are zero-filled deterministically rather than
    letting numpy warn-and-NaN its way into the RF: an empty window is
    all zeros, and a single-sample window keeps its mean/min/max but
    zero-fills the std and percentile slots (one observation carries
    no distributional information — a spread of 0 is the honest
    answer, and NaN here would be imputed with unrelated training
    means downstream).
    """
    out = np.zeros(len(STAT_NAMES))
    n = pooled.size
    if n == 0:
        return out
    # ndarray.mean / std / min / max in numpy's own arithmetic order,
    # without their per-call dispatch: mean is the pairwise sum over n,
    # std the root of the summed squared deviations over n, and the
    # extremes are the ends of the one sort.
    ordered = np.sort(pooled)
    mean = np.add.reduce(pooled) / n
    out[0] = mean
    out[2] = ordered[0]
    out[3] = ordered[-1]
    if n < 2:
        return out  # std and percentile slots stay zero-filled
    deviation = pooled - mean
    out[1] = np.sqrt(np.add.reduce(deviation * deviation) / n)
    # The np.percentile replica: byte-identical for the finite,
    # zero-canonical inputs z-scored windows are (see window_agg),
    # without numpy's per-call dispatch and partition.
    out[4:] = exact_percentiles(ordered, _PERCENTILES)
    return out


class _Pull:
    """One matrix pull of the per-call plan: the start of its span and
    device name -> row.

    ``index`` maps each device it fetched to its row of ``values``, or
    to -1 when the store has no data for it (inactive dataset,
    uncovered kind).  A series pull's columns are the sampling grid
    (step ``interval``) from ``t0`` to its key's time; ``normalized``
    caches its look-back rows z-scored against their reference once a
    feature build asks for them.
    """

    __slots__ = ("t0", "interval", "index", "values", "normalized")

    def __init__(self, t0, interval, devices, positions, values) -> None:
        self.t0 = t0
        self.interval = interval
        self.index = dict.fromkeys((device.name for device in devices), -1)
        for row, position in enumerate(positions):
            self.index[devices[position].name] = row
        self.values = values
        self.normalized: np.ndarray | None = None

    def rows(self, names) -> tuple[list[int], list[int]]:
        """The positions in ``names`` that have data, and their rows."""
        idx = [self.index[name] for name in names]
        positions = [k for k, row in enumerate(idx) if row >= 0]
        return positions, [idx[k] for k in positions]

    def columns(self, t0: float, t1: float) -> np.ndarray:
        """A series pull's columns sampling ``[t0, t1]``, found with the
        store's grid arithmetic (epoch clamp included)."""
        first = sample_range(self.interval, self.t0, t1)[0]
        lo, hi = sample_range(self.interval, t0, t1)
        return self.values[:, lo - first : hi + 1 - first]


class _Read(NamedTuple):
    """One dataset read of a time-series group or event feature,
    resolved against the plan's pull of its locator.

    ``names`` are the observed devices in component order (a device
    reached through two components appears twice), ``positions`` the
    ones the store has data for and ``rows`` their rows of ``pull``;
    ``column`` is an event feature's count column (-1 for a series
    read).
    """

    locator: str
    names: list[str]
    positions: list[int]
    rows: list[int]
    pull: _Pull
    column: int = -1

    def counts(self) -> np.ndarray:
        """An event read's counts of its feature's type, one per position."""
        return self.pull.values[self.rows, self.column]


class FeatureBuilder:
    """Builds feature vectors (and CPD+'s window reads) per incident."""

    def __init__(
        self,
        config: ScoutConfig,
        topology: Topology,
        store: MonitoringStore,
    ) -> None:
        self.config = config
        self.topology = topology
        self.store = store
        self.schema = FeatureSchema(config, store)
        # Three cache lifetimes, all initialized here so clear_cache()
        # and pickling (parallel dataset builds ship builders to
        # workers) always see every memo:
        #
        # * per-call — ``_plan`` maps (locator, t) to a series _Pull and
        #   (locator, t0, t1) to a count _Pull.  A feature build and a
        #   CPD+ call at the same ``t`` read the same pulls, and a Scout
        #   call's retries keep them, so a retry re-issues only the pull
        #   that failed; clear_rows() resets it between incidents;
        # * cross-incident — ``_vector_memo`` maps (incident time,
        #   component names per config kind) to the finished feature
        #   vector, oldest-first evicted at _VECTOR_CAP entries.  It is
        #   valid for one store object at one ``store.mutations`` value
        #   (``_vector_stamp``) and drops whole when either moves;
        #   clear_cache() resets it with the plan, and it is never
        #   pickled;
        # * topology-lifetime — ``_observables_memo`` maps a container
        #   component to its observable leaf devices, which depends only
        #   on the (immutable) topology and config, so clear_cache()
        #   deliberately keeps it.
        self._plan: dict[tuple, _Pull] = {}
        self._vector_memo: dict[tuple, np.ndarray] = {}
        self._vector_stamp: tuple | None = None
        self._observables_memo: dict = {}
        # Observability sink (None = un-instrumented): counts store
        # queries vs. plan hits.  Threaded in by the incident manager
        # at Scout registration or by an instrumented framework; the
        # obs objects pickle cleanly, so parallel dataset builds that
        # ship builders to workers keep working.  Each tick goes
        # straight to a counter handle bound on first use.
        self._obs = None
        self._bound_counters: dict = {}

    def __getstate__(self) -> dict:
        # Counter handles belong to this process's registry: workers
        # that receive a pickled builder bind their own.  The vector
        # memo stays behind too: workers build distinct incidents, so
        # it would only add bytes to every pickle.
        state = self.__dict__.copy()
        state["_bound_counters"] = {}
        state["_vector_memo"] = {}
        state["_vector_stamp"] = None
        return state

    @property
    def obs(self):
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        self._obs = value
        self._bound_counters = {}  # handles belong to the old registry

    def _count(self, family: MetricFamily, kind: str, n: int = 1) -> None:
        """Tick a ``kind``-labelled counter family by ``n``.

        A Scout call ticks a handful of times (one per pull, one per
        CPD+ read, one per vector hit), so each tick increments at once
        through a handle bound on first use.
        """
        if self._obs is None:
            return
        key = (family.name, kind)
        counter = self._bound_counters.get(key)
        if counter is None:
            counter = self._obs.metrics.counter(family).bind(kind=kind)
            self._bound_counters[key] = counter
        counter.inc(n)

    def clear_rows(self) -> None:
        """Drop the per-call plan's pulls (call between incidents).

        The feature-vector memo survives: its entries are keyed by
        content and checked against the store, so the next incident
        reuses a vector only where it would rebuild the same one.
        """
        self._plan.clear()

    def clear_cache(self) -> None:
        """Drop the per-call plan and the feature-vector memo.

        The topology-lifetime ``_observables_memo`` survives: container
        membership cannot change within a builder's lifetime.
        """
        self.clear_rows()
        self._vector_memo.clear()
        self._vector_stamp = None

    # -- the per-call plan ------------------------------------------------

    def _serve(self, kind, locator, devices, t0, t1) -> _Pull:
        """The plan's pull holding ``devices`` over ``[t0, t1]``.

        A series pull keys on (locator, t1) and serves every window
        ending at ``t1`` that starts inside its span; a count pull keys
        on its exact window.  A held pull that covers the read is
        returned as is.  Otherwise one matrix query (one ``kind`` query
        tick) pulls the read's distinct devices over its span and
        replaces the held pull.
        """
        series = kind == "series"
        key = (locator, t1) if series else (locator, t0, t1)
        pull = self._plan.get(key)
        if (
            pull is not None
            and pull.t0 <= t0
            and all(device.name in pull.index for device in devices)
        ):
            return pull
        distinct = list({device.name: device for device in devices}.values())
        self._count(_QUERIES, kind)
        if series:
            interval = self.store.schema(locator).baseline.interval
            positions, _, values = self.store.query_series_matrix(
                locator, distinct, t0, t1
            )
        else:
            interval = None
            positions, _, values = self.store.query_event_type_counts_matrix(
                locator, distinct, t0, t1
            )
        pull = self._plan[key] = _Pull(
            t0, interval, distinct, positions.tolist(), values
        )
        return pull

    def _pull_plan(self, extracted: ExtractedComponents, t: float, t0: float):
        """Walk the schema once, issue the pulls its reads need, and
        resolve every read against them.

        Returns the reads of each time-series group and event feature:
        None when no component of its kind was extracted, else one
        :class:`_Read` per active locator.  Each series locator is
        pulled once over ``[t0, t]`` and each event locator over
        ``[t - T, t]``, for the union of its reads' devices; a pull the
        plan holds is not re-issued (a retry pulls what failed).  This
        is the only place a read's devices and rows are worked out:
        feature builds and CPD+ both read its result.
        """
        T = self.config.lookback
        store = self.store
        by_kind: dict[ComponentKind, list[Component]] = {}
        for component in extracted.all:
            by_kind.setdefault(component.kind, []).append(component)
        unions: dict[str, list[Component]] = {}
        walked: dict[tuple, list[str]] = {}

        def reads(kind, locators):
            components = by_kind.get(kind)
            if not components:
                return None
            out = []
            for locator in locators:
                if not store.is_active(locator):
                    continue
                key = (kind, locator)
                if key not in walked:
                    devices = self._devices(locator, components)
                    unions.setdefault(locator, []).extend(devices)
                    walked[key] = [d.name for d in devices]
                out.append(key)
            return out

        groups = [reads(g.kind, g.locators) for g in self.schema.ts_groups]
        events = [
            reads(f.kind, (f.locator,)) for f in self.schema.event_features
        ]
        pulls = {}
        for locator, devices in unions.items():
            if store.schema(locator).kind is DataKind.TIME_SERIES:
                pulls[locator] = self._serve("series", locator, devices, t0, t)
            else:
                pulls[locator] = self._serve(
                    "event_counts", locator, devices, t - T, t
                )
        resolved = {
            key: _Read(key[1], names, *pulls[key[1]].rows(names), pulls[key[1]])
            for key, names in walked.items()
        }
        return (
            [
                None if keys is None else [resolved[key] for key in keys]
                for keys in groups
            ],
            [
                None if keys is None
                else [resolved[key]._replace(column=f.column) for key in keys]
                for f, keys in zip(self.schema.event_features, events)
            ],
        )

    def _normalized(self, pull: _Pull, t: float) -> np.ndarray:
        """A series pull's look-back rows, z-scored.

        Each look-back window ``[t - T, t]`` is z-scored against its
        trailing reference window (against itself when the reference
        holds under two samples; a zero spread divides by 1).  Both are
        column slices of the one pull, and every row reduces in one
        ``axis=1`` pass.
        """
        if pull.normalized is None:
            T = self.config.lookback
            windows = pull.columns(t - T, t)
            if windows.size:
                ref_span = self.config.reference_multiple * T
                references = pull.columns(t - T - ref_span, t - T)
                if references.shape[1] < 2:
                    references = windows
                means = references.mean(axis=1)
                stds = references.std(axis=1)
                stds = np.where(stds == 0.0, 1.0, stds)
                windows = (windows - means[:, np.newaxis]) / stds[:, np.newaxis]
            pull.normalized = windows
        return pull.normalized

    # -- CPD+ reads ---------------------------------------------------------

    def look_back(self, extracted: ExtractedComponents, t: float):
        """CPD+'s view of one incident: the plan's reads, each paired
        with its raw values over the look-back window ``[t - T, t]``.

        Returns ``(groups, events)`` shaped as the pull plan's reads.  A
        series read comes with its look-back rows (one per position, on
        the dataset's sampling grid), an event read with its feature's
        counts (one per position).  After a feature build at ``t`` the
        plan already holds every pull (they reach back to the
        reference) and nothing is pulled; on a CPD+-only call the plan
        pulls the look-back window alone.  Each read counts one cache
        hit per device it covers.
        """
        T = self.config.lookback
        groups, events = self._pull_plan(extracted, t, t - T)

        def paired(reads, kind, values):
            if reads is None:
                return None
            for read in reads:
                self._count(_CACHE_HITS, kind, len(read.names))
            return [(read, values(read)) for read in reads]

        def window(read):
            return read.pull.columns(t - T, t)[read.rows]

        return (
            [paired(reads, "series", window) for reads in groups],
            [paired(reads, "event_counts", _Read.counts) for reads in events],
        )

    # -- component resolution ----------------------------------------------

    def _observables(
        self, component: Component, dataset_kinds: frozenset[ComponentKind]
    ) -> list[Component]:
        """The concrete devices whose data represents ``component``."""
        if component.kind in dataset_kinds:
            return [component]
        if component.kind not in _CONTAINER_KINDS:
            return []
        cache = self._observables_memo
        key = (component.name, dataset_kinds)
        if key in cache:
            return cache[key]
        members: list[Component] = []
        for leaf in sorted(dataset_kinds & set(_LEAF_KINDS)):
            members.extend(self.topology.members(component.name, leaf))
        cap = self.config.max_members_per_container
        if len(members) > cap:
            # Deterministic, evenly-spaced subsample keeps DC-wide
            # feature pulls tractable.
            idx = np.linspace(0, len(members) - 1, cap).astype(int)
            members = [members[i] for i in idx]
        cache[key] = members
        return members

    def _devices(
        self, locator: str, components: list[Component]
    ) -> list[Component]:
        """Observed devices of ``components`` in component order
        (a device reached through two components appears twice)."""
        kinds = self.store.schema(locator).component_kinds
        return [
            device
            for component in components
            for device in self._observables(component, kinds)
        ]

    # -- the feature vector ----------------------------------------------------

    def features(
        self, extracted: ExtractedComponents, t: float
    ) -> np.ndarray:
        """The fixed-length feature vector for one incident at time ``t``.

        A vector depends only on ``t``, the extracted components of each
        configured kind and the store's contents, so it is memoized on
        exactly those: an outage storm's copies build it once, and each
        later copy counts one ``vector`` cache hit and pulls nothing.
        """
        key = (t, *(
            tuple(c.name for c in extracted.of_kind(kind))
            for kind in self.config.kinds
        ))
        memo = self._vectors()
        vector = memo.get(key)
        if vector is not None:
            self._count(_CACHE_HITS, "vector")
            return vector.copy()
        vector = self._build(extracted, t)
        if len(memo) >= _VECTOR_CAP:
            del memo[next(iter(memo))]  # insertion order: the oldest
        memo[key] = vector
        return vector.copy()

    def _vectors(self) -> dict[tuple, np.ndarray]:
        """The vector memo, emptied first if the store it was filled
        from was replaced or has mutated since."""
        store = self.store
        stamp = self._vector_stamp
        if stamp is None or stamp[0] is not store or stamp[1] != store.mutations:
            self._vector_memo.clear()
            self._vector_stamp = (store, store.mutations)
        return self._vector_memo

    def _build(self, extracted: ExtractedComponents, t: float) -> np.ndarray:
        """Pull the plan, then assemble every block by row gathers.

        A group pools its locators' normalized rows in component ->
        device order (a duplicate device pools twice); an event feature
        sums one count column over its devices with data.
        """
        T = self.config.lookback
        ref_span = self.config.reference_multiple * T
        groups, events = self._pull_plan(extracted, t, t - T - ref_span)
        vector = np.empty(len(self.schema))
        width = len(STAT_NAMES)
        pos = 0
        for reads in groups:
            if reads is None:
                vector[pos : pos + width] = 0.0
            elif not reads:
                vector[pos : pos + width] = np.nan
            else:
                parts: list[np.ndarray] = []
                for read in reads:
                    if read.rows:
                        pooled = self._normalized(read.pull, t)[read.rows]
                        if pooled.size:
                            parts.append(pooled.ravel())
                if not parts:
                    vector[pos : pos + width] = 0.0
                else:
                    vector[pos : pos + width] = _stats(
                        parts[0] if len(parts) == 1 else np.concatenate(parts)
                    )
            pos += width
        for reads in events:
            if reads is None:
                vector[pos] = 0.0
            elif not reads:
                vector[pos] = np.nan
            else:
                (read,) = reads
                vector[pos] = float(read.counts().sum())
            pos += 1
        for kind in self.config.kinds:
            vector[pos] = float(len(extracted.of_kind(kind)))
            pos += 1
        return vector
