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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..config.spec import ScoutConfig
from ..datacenter.components import Component, ComponentKind
from ..datacenter.topology import Topology
from ..monitoring.base import DataKind
from ..monitoring.store import MonitoringStore
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
    kind: ComponentKind
    locator: str
    event_type: str


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
                    for event_type in sorted(schema.events.rates):
                        self.event_features.append(
                            _EventFeature(kind, ref.locator, event_type)
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
    if pooled.size == 0:
        return out
    out[0] = pooled.mean()
    out[2] = pooled.min()
    out[3] = pooled.max()
    if pooled.size < 2:
        return out  # std and percentile slots stay zero-filled
    out[1] = pooled.std()
    # One sort plus the np.percentile replica: byte-identical for the
    # finite, zero-canonical inputs z-scored windows are (see
    # window_agg), without numpy's per-call dispatch and partition.
    out[4:] = exact_percentiles(np.sort(pooled), _PERCENTILES)
    return out


class _Rows:
    """One memoized (dataset, window) pull: a matrix plus name → row.

    ``index`` maps a device name to its row of ``values``, or to -1 when
    the store has no data for the device (inactive dataset, uncovered
    kind).  Rows only ever append: a later pull of the same window for
    more devices stacks its rows under the existing ones.
    """

    __slots__ = ("values", "index")

    def __init__(self) -> None:
        self.values: np.ndarray | None = None
        self.index: dict[str, int] = {}

    def add(self, names, positions, values) -> None:
        """Record ``names``: ``names[positions[k]]`` gets row ``k`` of
        ``values``, every other name no data."""
        index = self.index
        for name in names:
            index[name] = -1
        if not len(positions):
            return
        base = 0 if self.values is None else len(self.values)
        for k, position in enumerate(positions):
            index[names[position]] = base + k
        if self.values is None:
            self.values = values
        else:
            self.values = np.vstack((self.values, values))

    def gather(self, names) -> tuple[list[int], np.ndarray]:
        """The positions in ``names`` that have data, and their rows."""
        index = self.index
        idx = [index[name] for name in names]
        if self.values is None:
            return [], np.empty((0, 0))
        positions = [k for k, i in enumerate(idx) if i >= 0]
        if len(positions) < len(idx):
            idx = [idx[k] for k in positions]
        return positions, self.values[idx]

    def column(self, names, col: int) -> np.ndarray:
        """Column ``col`` of each name's row, -1 where there is no data."""
        idx = np.array([self.index[name] for name in names], dtype=np.intp)
        if self.values is None:
            return np.full(len(idx), -1, dtype=np.int64)
        return np.where(idx >= 0, self.values[idx, col], -1)


def _publishes_counts(method):
    """Flush the builder's tallied counter ticks when the outermost
    public call returns or raises (see :meth:`FeatureBuilder._count`).

    The call depth is plain instance state: like the memos, it relies on
    a builder being driven by one thread at a time (the serving
    manager's per-team lock).
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        self._call_depth += 1
        try:
            return method(self, *args, **kwargs)
        finally:
            self._call_depth -= 1
            if not self._call_depth and self._pending_counts:
                self._flush_counts()

    return wrapper


class FeatureBuilder:
    """Builds feature vectors (and raw pulls for CPD+) per incident."""

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
        # * per-incident — cluster/DC/leaf feature groups and CPD+ all
        #   re-read the same (dataset, device, window) series/counts;
        #   each memo maps (locator, window) to one _Rows matrix.
        #   clear_rows() resets these between incidents;
        # * cross-incident — ``_vector_memo`` maps (incident time,
        #   component names per config kind) to the finished feature
        #   vector, oldest-first evicted at _VECTOR_CAP entries.  It is
        #   valid for one store object at one ``store.mutations`` value
        #   (``_vector_stamp``) and drops whole when either moves;
        #   clear_cache() resets it with the per-incident memos, and it
        #   is never pickled;
        # * topology-lifetime — ``_observables_memo`` maps a container
        #   component to its observable leaf devices, which depends only
        #   on the (immutable) topology and config, so clear_cache()
        #   deliberately keeps it (as it keeps ``_count_types_memo``,
        #   the count-memo columns per event dataset).
        self._series_memo: dict[tuple, _Rows] = {}
        self._norm_memo: dict[tuple, _Rows] = {}
        self._type_counts_memo: dict[tuple, _Rows] = {}
        self._vector_memo: dict[tuple, np.ndarray] = {}
        self._vector_stamp: tuple | None = None
        self._observables_memo: dict = {}
        self._count_types_memo: dict[str, list[str]] = {}
        # Observability sink (None = un-instrumented): counts store
        # queries vs. memo hits.  Threaded in by the incident manager
        # at Scout registration or by an instrumented framework; the
        # obs objects pickle cleanly, so parallel dataset builds that
        # ship builders to workers keep working.  Ticks tally in
        # _pending_counts and flush when the outermost public call
        # (depth _call_depth) exits.
        self._obs = None
        self._bound_counters: dict = {}
        self._pending_counts: dict = {}
        self._call_depth = 0

    def __getstate__(self) -> dict:
        # Counter handles belong to this process's registry: workers
        # that receive a pickled builder bind their own.  The vector
        # memo stays behind too: workers build distinct incidents, so
        # it would only add bytes to every pickle.
        state = self.__dict__.copy()
        state["_bound_counters"] = {}
        state["_pending_counts"] = {}
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
        self._pending_counts = {}

    def _count(self, family: MetricFamily, kind: str, n: int = 1) -> None:
        """Tally ``n`` ticks of a ``kind``-labelled counter family.

        A feature build ticks once per pull and memo hit, so ticks
        accumulate per (family, kind) and reach the registry once per
        public builder call (:func:`_publishes_counts` flushes them in a
        ``finally``) — the counters are exact whenever no builder call
        is in flight.  The handle is bound on first use.
        """
        if self._obs is None:
            return
        key = (family.name, kind)
        pending = self._pending_counts
        if key in pending:
            pending[key] += n
            return
        if key not in self._bound_counters:
            counter = self._obs.metrics.counter(family)
            self._bound_counters[key] = counter.bind(kind=kind)
        pending[key] = n

    def _flush_counts(self) -> None:
        """Publish the tallied ticks (one increment per label set)."""
        pending, self._pending_counts = self._pending_counts, {}
        for key, n in pending.items():
            self._bound_counters[key].inc(n)

    def clear_rows(self) -> None:
        """Reset the per-incident query memos (call between incidents).

        The feature-vector memo survives: its entries are keyed by
        content and checked against the store, so the next incident
        reuses a vector only where it would rebuild the same one.
        """
        self._series_memo.clear()
        self._norm_memo.clear()
        self._type_counts_memo.clear()

    def clear_cache(self) -> None:
        """Reset the per-incident memos and the feature-vector memo.

        The topology-lifetime ``_observables_memo`` survives: container
        membership cannot change within a builder's lifetime.
        """
        self.clear_rows()
        self._vector_memo.clear()
        self._vector_stamp = None

    # -- memoized pulls -----------------------------------------------------
    #
    # The per-incident memos hold one _Rows per (locator, window): the
    # pulled matrix plus a device name -> row index.  A read of devices
    # the memo lacks pulls all of them, distinct, in one matrix query;
    # every device read the memo already held counts one cache hit, and
    # the reads a pull serves count none.

    @staticmethod
    def _missing(rows: _Rows | None, devices: list[Component]) -> list[Component]:
        """Distinct ``devices`` (first-occurrence order) not in ``rows``."""
        known = rows.index if rows is not None else {}
        seen: set[str] = set()
        missing: list[Component] = []
        for device in devices:
            name = device.name
            if name not in known and name not in seen:
                seen.add(name)
                missing.append(device)
        return missing

    def _serve(self, memo, kind, query, locator, devices, t0, t1) -> _Rows:
        """Read ``devices`` through one (locator, window) memo.

        The distinct devices it lacks come in one ``query`` (a store
        matrix query returning ``(positions, values)``), counted as one
        store query; every read of a device the memo already held counts
        one hit.  Returns the window's :class:`_Rows`.
        """
        key = (locator, t0, t1)
        rows = memo.get(key)
        missing = self._missing(rows, devices)
        hits = len(devices)
        if missing:
            names = [device.name for device in missing]
            pulled = set(names)
            hits -= sum(device.name in pulled for device in devices)
            self._count(_QUERIES, kind)
            positions, values = query(locator, missing, t0, t1)
            if rows is None:
                rows = memo[key] = _Rows()
            rows.add(names, positions.tolist(), values)
        if hits:
            self._count(_CACHE_HITS, kind, hits)
        return rows if rows is not None else _Rows()

    def _series_matrix(self, locator, devices, t0, t1):
        positions, _, values = self.store.query_series_matrix(
            locator, devices, t0, t1
        )
        return positions, values

    def _counts_matrix(self, locator, devices, t0, t1):
        positions, types, counts = self.store.query_event_type_counts_matrix(
            locator, devices, t0, t1
        )
        columns = [types.index(t) for t in self._count_types(locator)]
        return positions, counts[:, columns]

    def _count_types(self, locator: str) -> list[str]:
        """The count-memo columns of an event dataset: its schema types."""
        types = self._count_types_memo.get(locator)
        if types is None:
            types = sorted(self.store.schema(locator).events.rates)
            self._count_types_memo[locator] = types
        return types

    def _serve_series(self, locator, devices, t0, t1) -> _Rows:
        return self._serve(
            self._series_memo, "series",
            self._series_matrix, locator, devices, t0, t1,
        )

    def _serve_counts(self, locator, devices, t0, t1) -> _Rows:
        return self._serve(
            self._type_counts_memo, "event_counts",
            self._counts_matrix, locator, devices, t0, t1,
        )

    @_publishes_counts
    def series_rows(
        self, locator: str, devices: list[Component], t0: float, t1: float
    ) -> tuple[list[int], np.ndarray]:
        """The windows of ``devices`` (in order, duplicates kept) as rows.

        Returns the positions in ``devices`` that have data and one
        matrix row per position, all on the dataset's shared sampling
        grid — the per-device reads CPD+ scans, served from the memo.
        """
        rows = self._serve_series(locator, devices, t0, t1)
        return rows.gather([device.name for device in devices])

    @_publishes_counts
    def device_type_counts(
        self,
        locator: str,
        devices: list[Component],
        t0: float,
        t1: float,
        event_type: str,
    ) -> np.ndarray:
        """Per-device counts of one schema event type, in order (CPD+).

        -1 marks a device the dataset has no data for.  Served from the
        per-incident count memo the event features fill.
        """
        rows = self._serve_counts(locator, devices, t0, t1)
        column = self._count_types(locator).index(event_type)
        return rows.column([device.name for device in devices], column)

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

    # -- signal pulls -----------------------------------------------------------

    def _normalize(
        self, locator: str, devices: list[Component], t: float
    ) -> _Rows:
        """The normalized-window memo of (``locator``, ``t``), filled for
        ``devices``.

        Each look-back window is z-scored against its trailing reference
        window (against itself when the reference holds under two
        samples; a zero spread divides by 1).  Missing devices read
        their look-back windows first, then the references of those
        with samples, and the rows reduce along ``axis=1`` in one pass.
        """
        key = (locator, t)
        rows = self._norm_memo.get(key)
        missing = self._missing(rows, devices)
        if rows is None:
            rows = _Rows()
        if not missing:
            return rows
        T = self.config.lookback
        ref_span = self.config.reference_multiple * T
        names = [device.name for device in missing]
        window = self._serve_series(locator, missing, t - T, t)
        usable, windows = window.gather(names)
        if not usable or windows.shape[1] == 0:
            # Windows without a sample (or no data at all) normalize to
            # empty rows; no reference is read.
            normalized = windows
        else:
            reference = self._serve_series(
                locator, [missing[k] for k in usable], t - T - ref_span, t - T
            )
            found, references = reference.gather([names[k] for k in usable])
            if len(found) < len(usable) or references.shape[1] < 2:
                references = windows
            means = references.mean(axis=1)
            stds = references.std(axis=1)
            stds = np.where(stds == 0.0, 1.0, stds)
            normalized = (windows - means[:, np.newaxis]) / stds[:, np.newaxis]
        rows.add(names, usable, normalized)
        self._norm_memo[key] = rows
        return rows

    def _pull_group(
        self,
        group: _TsGroup,
        components: list[Component],
        t: float,
    ) -> tuple[list[np.ndarray], bool]:
        """Pooled normalized windows of a group, one flat part per
        locator; bool marks 'any data source up'."""
        parts: list[np.ndarray] = []
        any_active = False
        for locator in group.locators:
            if not self.store.is_active(locator):
                continue
            any_active = True
            devices = self._devices(locator, components)
            rows = self._normalize(locator, devices, t)
            _, pooled = rows.gather([device.name for device in devices])
            if pooled.size:
                parts.append(pooled.ravel())
        return parts, any_active

    def _pull_events(
        self,
        feature: _EventFeature,
        components: list[Component],
        t: float,
    ) -> float:
        """Event count for one (dataset, type) over all components; NaN if down."""
        if not self.store.is_active(feature.locator):
            return float("nan")
        T = self.config.lookback
        devices = self._devices(feature.locator, components)
        rows = self._serve_counts(feature.locator, devices, t - T, t)
        column = self._count_types(feature.locator).index(feature.event_type)
        counts = rows.column([device.name for device in devices], column)
        return float(counts[counts >= 0].sum())

    # -- the feature vector ----------------------------------------------------

    @_publishes_counts
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
        vector = np.empty(len(self.schema))
        pos = 0
        for group in self.schema.ts_groups:
            components = extracted.of_kind(group.kind)
            if not components:
                vector[pos : pos + len(STAT_NAMES)] = 0.0
            else:
                parts, any_active = self._pull_group(group, components, t)
                if not any_active:
                    vector[pos : pos + len(STAT_NAMES)] = np.nan
                elif not parts:
                    vector[pos : pos + len(STAT_NAMES)] = 0.0
                else:
                    vector[pos : pos + len(STAT_NAMES)] = _stats(
                        parts[0] if len(parts) == 1 else np.concatenate(parts)
                    )
            pos += len(STAT_NAMES)
        for feature in self.schema.event_features:
            components = extracted.of_kind(feature.kind)
            if not components:
                vector[pos] = 0.0
            else:
                vector[pos] = self._pull_events(feature, components, t)
            pos += 1
        for kind in self.config.kinds:
            vector[pos] = float(len(extracted.of_kind(kind)))
            pos += 1
        return vector
