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
from ..monitoring.base import DataKind, TimeSeries
from ..monitoring.store import MonitoringStore
from .extraction import ExtractedComponents
from .window_agg import Block, WindowAggregator, exact_percentiles

__all__ = ["FeatureSchema", "FeatureBuilder", "STAT_NAMES"]

# Event noise is binned at one-minute granularity (mirrors the store).
_EVENT_BIN = 60.0

STAT_NAMES = (
    "mean", "std", "min", "max",
    "p1", "p10", "p25", "p50", "p75", "p90", "p99",
)
_PERCENTILES = (1, 10, 25, 50, 75, 90, 99)

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
    more devices stacks its rows under the existing ones.  Series pulls
    keep the shared sampling grid in ``timestamps``.
    """

    __slots__ = ("values", "index", "timestamps", "_views")

    def __init__(self) -> None:
        self.values: np.ndarray | None = None
        self.index: dict[str, int] = {}
        self.timestamps: np.ndarray | None = None
        self._views: dict | None = None

    def add(self, names, positions, values, timestamps=None) -> None:
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
            self.timestamps = timestamps
        else:
            self.values = np.vstack((self.values, values))

    def add_row(self, name: str, row, timestamps) -> None:
        """Record one scalar pull (``row`` None: no data)."""
        if row is None:
            self.add((name,), (), None)
        else:
            self.add((name,), (0,), row[np.newaxis, :], timestamps)

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

    def row(self, name: str) -> np.ndarray | None:
        i = self.index[name]
        return None if i < 0 else self.values[i]

    def series(self, name: str) -> TimeSeries | None:
        """A name's row as a :class:`TimeSeries` (the same object on
        every call), or None."""
        views = self._views if self._views is not None else {}
        view = views.get(name)
        if view is None:
            values = self.row(name)
            if values is None:
                return None
            view = views[name] = TimeSeries(self.timestamps, values)
            self._views = views
        return view

    def forget(self, name: str) -> bool:
        """Drop a name (TTL eviction); True when no name is left."""
        self.index.pop(name, None)
        if self._views is not None:
            self._views.pop(name, None)
        return not self.index


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
        incremental: bool = False,
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
        #   each memo maps (locator, window) to one _Rows matrix.  With
        #   no TTL configured (the default), callers reset these
        #   between incidents via clear_cache()/begin_incident();
        # * TTL-window — when ``cache_ttl`` and ``clock`` are set (the
        #   incident manager threads its own injectable clock in at
        #   registration), the same memos survive *across* incidents:
        #   keys already carry the exact query window
        #   ``(locator, t0, t1)``, so a burst of correlated
        #   incidents at the same timestamps shares pulls instead of
        #   re-issuing them N times.  Entries are stamped with their
        #   insertion time per (memo key, device) and evicted once
        #   older than ``cache_ttl`` (on the injectable clock, so
        #   fake-clock tests are exact);
        # * topology-lifetime — ``_observables_memo`` maps a container
        #   component to its observable leaf devices, which depends only
        #   on the (immutable) topology and config, so clear_cache()
        #   deliberately keeps it (as it keeps ``_count_types_memo``,
        #   the count-memo columns per event dataset).
        self._series_memo: dict[tuple, _Rows] = {}
        self._norm_memo: dict[tuple, _Rows] = {}
        self._type_counts_memo: dict[tuple, _Rows] = {}
        self._observables_memo: dict = {}
        self._count_types_memo: dict[str, list[str]] = {}
        # TTL-window cache state: ``cache_ttl=None`` keeps the seed
        # behavior (per-incident memos).  ``_epoch`` counts live
        # predictions so a memo hit can tell "same incident re-query"
        # from a genuine cross-incident hit.
        self.cache_ttl: float | None = None
        self.clock = None
        self._epoch = 0
        self._series_stamps: dict = {}
        self._norm_stamps: dict = {}
        self._type_counts_stamps: dict = {}
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
        # Incremental feature engine (default off — the seed behavior
        # and the FaultyStore ordinal sequences stay untouched unless a
        # caller opts in).  All engine caches are *content-addressed*:
        # keys encode the signal identity, the sampling-grid window,
        # and the store's effects generation, so entries can never go
        # stale and survive across incidents without TTL bookkeeping.
        #
        # * _block_cache — (locator, device, window grid, reference
        #   grid, effects gen) → Block (normalized window + per-block
        #   aggregates).  A storm of incidents over an unchanged grid
        #   reuses blocks with zero store traffic.
        # * _group_aggs / _group_state — per ts-group WindowAggregator
        #   and its last (pool composition, stats) pair: an unchanged
        #   pool short-circuits to the cached eleven statistics.
        # * _count_memo — content-addressed per-type event counts
        #   (bins + effects gen; windows of pairs carrying burst
        #   effects key on the exact float window, since burst counts
        #   depend on it).
        # * _group_stats_memo / _event_totals_memo — pooled results
        #   one level up: the eleven statistics keyed on a group's full
        #   block-key tuple, and a dataset's per-type totals keyed on
        #   (components, bin grid, dataset effects token).  A re-served
        #   incident short-circuits to a dict hit instead of re-pooling
        #   every block and re-scanning every device.
        self.incremental = incremental
        self._block_cache: dict = {}
        self._group_aggs: dict = {}
        self._group_state: dict = {}
        self._count_memo: dict = {}
        self._group_stats_memo: dict = {}
        self._event_totals_memo: dict = {}
        # Engine entries are stamped with the inserting epoch (kept
        # beside the memos, not inside the stored values) so a hit can
        # tell same-incident re-queries from genuine cross-incident
        # reuse — the engine caches deliberately outlive incidents, and
        # their hits must feed the cross-hit counter just like the
        # TTL-window memos' do.
        self._engine_stamps: dict = {}
        self._engine_cap = 65536

    def __getstate__(self) -> dict:
        # Engine caches are working state: drop them when builders ship
        # to dataset-build worker processes (they rebuild lazily).
        state = self.__dict__.copy()
        state["_block_cache"] = {}
        state["_group_aggs"] = {}
        state["_group_state"] = {}
        state["_count_memo"] = {}
        state["_group_stats_memo"] = {}
        state["_event_totals_memo"] = {}
        state["_engine_stamps"] = {}
        state["_bound_counters"] = {}
        state["_pending_counts"] = {}
        return state

    @property
    def obs(self):
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        self._obs = value
        self._bound_counters = {}  # handles belong to the old registry
        self._pending_counts = {}

    _COUNTER_HELP = {
        "monitoring_queries_total": "Monitoring-store pulls by query kind.",
        "monitoring_cache_hits_total": "Feature-builder memo hits by query kind.",
        "monitoring_cache_cross_hits_total": (
            "Memo hits served from an earlier incident's work "
            "(TTL-window and incremental-engine caches)."
        ),
        "window_advance_samples": (
            "Samples entering/leaving incremental group windows on advance."
        ),
    }

    def _count(self, metric: str, kind: str, n: int = 1) -> None:
        """Tally ``n`` counter ticks on the hot query path.

        A feature build ticks once per pull and memo hit, so ticks
        accumulate per (metric, kind) and reach the registry once per
        public builder call (:func:`_publishes_counts` flushes them in a
        ``finally``) — the counters are exact whenever no builder call
        is in flight.  The handle is bound on first use.
        """
        if self._obs is None:
            return
        key = (metric, kind)
        pending = self._pending_counts
        if key in pending:
            pending[key] += n
            return
        if key not in self._bound_counters:
            self._bound_counters[key] = self._obs.metrics.counter(
                metric, self._COUNTER_HELP[metric], labels=("kind",)
            ).bind(kind=kind)
        pending[key] = n

    def _flush_counts(self) -> None:
        """Publish the tallied ticks (one increment per label set)."""
        pending, self._pending_counts = self._pending_counts, {}
        for key, n in pending.items():
            self._bound_counters[key].inc(n)

    def clear_cache(self) -> None:
        """Reset the per-incident query memos (call between incidents).

        The topology-lifetime ``_observables_memo`` survives: container
        membership cannot change within a builder's lifetime.
        """
        self._series_memo.clear()
        self._norm_memo.clear()
        self._type_counts_memo.clear()
        self._series_stamps.clear()
        self._norm_stamps.clear()
        self._type_counts_stamps.clear()

    def clear_engine_cache(self) -> None:
        """Reset the incremental engine's content-addressed state.

        Never required for correctness — engine keys encode everything
        an entry depends on — but benchmarks reset it for cold-start
        fairness and long-lived servers get a bounded-memory backstop
        via the ``_engine_cap`` trim in :meth:`begin_incident`.
        """
        self._block_cache.clear()
        self._group_aggs.clear()
        self._group_state.clear()
        self._count_memo.clear()
        self._group_stats_memo.clear()
        self._event_totals_memo.clear()
        self._engine_stamps.clear()

    # -- cache lifecycle ----------------------------------------------------

    @property
    def ttl_enabled(self) -> bool:
        """Is the cross-incident TTL-window cache active?"""
        return self.cache_ttl is not None and self.clock is not None

    def begin_incident(self) -> None:
        """Open one live prediction's cache scope.

        Without a TTL this is exactly the seed behavior — the
        per-incident memos reset.  With ``cache_ttl`` and ``clock`` set,
        the memos survive across incidents: only entries older than the
        TTL are evicted, and the epoch bump lets hits on surviving
        entries be counted as cross-incident.
        """
        engine_entries = (
            len(self._block_cache)
            + len(self._count_memo)
            + len(self._group_stats_memo)
            + len(self._event_totals_memo)
        )
        if engine_entries > self._engine_cap:
            self.clear_engine_cache()
        # The epoch advances for every live prediction regardless of
        # TTL mode: the incremental engine's content-addressed caches
        # survive incidents even without a TTL, and their hits need the
        # epoch to classify cross-incident reuse.
        self._epoch += 1
        if not self.ttl_enabled:
            self.clear_cache()
            return
        self.evict_expired()

    def evict_expired(self) -> None:
        """Drop TTL-window entries whose age reached ``cache_ttl``."""
        if not self.ttl_enabled:
            return
        cutoff = self.clock() - self.cache_ttl
        for memo, stamps in (
            (self._series_memo, self._series_stamps),
            (self._norm_memo, self._norm_stamps),
            (self._type_counts_memo, self._type_counts_stamps),
        ):
            expired = [key for key, (at, _) in stamps.items() if at <= cutoff]
            for key in expired:
                del stamps[key]
                memo_key, name = key
                rows = memo.get(memo_key)
                if rows is not None and rows.forget(name):
                    del memo[memo_key]

    def _note_hits(self, kind: str, stamps: dict, key, devices) -> None:
        """Count one memo hit per entry of ``devices``; hits on entries
        an earlier incident stored also count as cross-incident hits."""
        self._count("monitoring_cache_hits_total", kind, len(devices))
        if self.cache_ttl is None:
            return
        cross = 0
        for device in devices:
            stamp = stamps.get((key, device.name))
            if stamp is not None and stamp[1] != self._epoch:
                cross += 1
        if cross:
            self._count("monitoring_cache_cross_hits_total", kind, cross)

    def _note_engine_hit(self, kind: str, key) -> None:
        """Count an engine-cache hit, classifying cross-incident reuse.

        The engine memos are content-addressed and live across
        incidents by design, so — unlike :meth:`_note_hits` — the
        cross-hit classification does not depend on a TTL being
        configured: an entry inserted during an earlier prediction
        epoch that satisfies this one *is* the cross-incident cache
        working, and the serve bench's ``serve_cache_cross_hits``
        read-out regressed to zero exactly because these hits went
        uncounted when the batch path switched to the engine.
        """
        self._count("monitoring_cache_hits_total", kind)
        stamp = self._engine_stamps.get(key)
        if stamp is not None and stamp != self._epoch:
            self._count("monitoring_cache_cross_hits_total", kind)

    def _stamp_engine(self, key) -> None:
        """Record which prediction epoch inserted an engine entry."""
        self._engine_stamps[key] = self._epoch

    # -- memoized pulls -----------------------------------------------------
    #
    # The per-incident (or TTL-window) memos hold one _Rows per
    # (locator, window): the pulled matrix plus a device name -> row
    # index.  The query sequence is the seed's, which the fault drills
    # pin by ordinal: a pull that finds two or more distinct devices
    # missing issues one batch query; any device still missing when
    # its values are read is pulled by a scalar query at that point,
    # and every read served from the memo counts one cache hit.

    def _stamp(self, stamps: dict, key, names) -> None:
        if self.ttl_enabled:
            stamp = (self.clock(), self._epoch)
            for name in names:
                stamps[(key, name)] = stamp

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

    def _serve(self, memo, stamps, kind, scalar, locator, devices, t0, t1):
        """Read ``devices`` (in order) through one (locator, window) memo.

        Devices already memoized count a hit each; the others are pulled
        one by one with ``scalar`` (a row maker over the store's scalar
        query), interleaved with the hits exactly as per-device reads
        would be.  Returns the window's :class:`_Rows`.
        """
        key = (locator, t0, t1)
        rows = memo.get(key)
        if rows is not None and all(d.name in rows.index for d in devices):
            if devices:
                self._note_hits(kind, stamps, key, devices)
            return rows
        hits: list[Component] = []
        for device in devices:
            if rows is not None and device.name in rows.index:
                hits.append(device)
                continue
            if hits:
                self._note_hits(kind, stamps, key, hits)
                hits = []
            self._count("monitoring_queries_total", kind)
            row, timestamps = scalar(locator, device, t0, t1)
            if rows is None:
                rows = memo[key] = _Rows()
            rows.add_row(device.name, row, timestamps)
            self._stamp(stamps, key, (device.name,))
        if hits:
            self._note_hits(kind, stamps, key, hits)
        return rows if rows is not None else _Rows()

    def _scalar_series(self, locator, device, t0, t1):
        series = self.store.query_series(locator, device, t0, t1)
        if series is None:
            return None, None
        return series.values, series.timestamps

    def _scalar_counts(self, locator, device, t0, t1):
        counts = self.store.query_event_type_counts(locator, device, t0, t1)
        if counts is None:
            return None, None
        types = self._count_types(locator)
        return np.array([counts.get(t, 0) for t in types], dtype=np.int64), None

    def _count_types(self, locator: str) -> list[str]:
        """The count-memo columns of an event dataset: its schema types."""
        types = self._count_types_memo.get(locator)
        if types is None:
            types = sorted(self.store.schema(locator).events.rates)
            self._count_types_memo[locator] = types
        return types

    def _serve_series(self, locator, devices, t0, t1) -> _Rows:
        return self._serve(
            self._series_memo, self._series_stamps, "series",
            self._scalar_series, locator, devices, t0, t1,
        )

    def _serve_counts(self, locator, devices, t0, t1) -> _Rows:
        return self._serve(
            self._type_counts_memo, self._type_counts_stamps, "event_counts",
            self._scalar_counts, locator, devices, t0, t1,
        )

    @_publishes_counts
    def series(self, locator: str, device: Component, t0: float, t1: float):
        """Memoized :meth:`MonitoringStore.query_series` (None: no data)."""
        rows = self._serve_series(locator, [device], t0, t1)
        return rows.series(device.name)

    def _prefetch_series(
        self, locator: str, devices: list[Component], t0: float, t1: float
    ) -> None:
        """Warm the series memo for many devices with one matrix query.

        Issued only when two or more distinct devices are missing; the
        rows are bit-identical to per-device queries.
        """
        key = (locator, t0, t1)
        missing = self._missing(self._series_memo.get(key), devices)
        if len(missing) < 2:
            return
        self._count("monitoring_queries_total", "series_batch")
        positions, timestamps, values = self.store.query_series_matrix(
            locator, missing, t0, t1
        )
        names = [device.name for device in missing]
        self._series_memo.setdefault(key, _Rows()).add(
            names, positions.tolist(), values, timestamps
        )
        self._stamp(self._series_stamps, key, names)

    prefetch_series = _publishes_counts(_prefetch_series)

    @_publishes_counts
    def series_rows(
        self, locator: str, devices: list[Component], t0: float, t1: float
    ) -> tuple[list[int], np.ndarray]:
        """The windows of ``devices`` (in order, duplicates kept) as rows.

        Returns the positions in ``devices`` that have data and one
        matrix row per position, all on the dataset's shared sampling
        grid — the per-device reads CPD+ scans, served from the memo.
        """
        self._prefetch_series(locator, devices, t0, t1)
        rows = self._serve_series(locator, devices, t0, t1)
        return rows.gather([device.name for device in devices])

    def _prefetch_type_counts(
        self, locator: str, devices: list[Component], t0: float, t1: float
    ) -> None:
        """Warm the count memo with one matrix query (two or more missing).

        Same two-or-more-missing rule as :meth:`prefetch_series`: each
        batch is one store query, which keeps the default path's
        FaultyStore ordinals on the sequence the fault drills pin.
        """
        key = (locator, t0, t1)
        missing = self._missing(self._type_counts_memo.get(key), devices)
        if len(missing) < 2:
            return
        self._count("monitoring_queries_total", "event_counts_batch")
        positions, types, counts = self.store.query_event_type_counts_matrix(
            locator, missing, t0, t1
        )
        columns = [types.index(t) for t in self._count_types(locator)]
        names = [device.name for device in missing]
        self._type_counts_memo.setdefault(key, _Rows()).add(
            names, positions.tolist(), counts[:, columns]
        )
        self._stamp(self._type_counts_stamps, key, names)

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

        -1 marks a device the dataset has no data for.  The incremental
        engine first warms its content-addressed memo with one batch
        query; the default path reads device by device through the
        per-incident memo, the query sequence CPD+ has always issued
        there.
        """
        if self.incremental:
            self._prefetch_event_counts(locator, devices, t0, t1)
            return np.array(
                [
                    -1 if counts is None else counts.get(event_type, 0)
                    for counts in (
                        self._event_counts(locator, d, t0, t1) for d in devices
                    )
                ],
                dtype=np.int64,
            )
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
        self._stamp(self._norm_stamps, key, names)
        return rows

    def _normalized_window(
        self, locator: str, device: Component, t: float
    ) -> np.ndarray | None:
        """One device's z-scored look-back window (None: no data)."""
        rows = self._normalize(locator, [device], t)
        return rows.row(device.name)

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
        T = self.config.lookback
        ref_span = self.config.reference_multiple * T
        for locator in group.locators:
            if not self.store.is_active(locator):
                continue
            any_active = True
            devices = self._devices(locator, components)
            # One batched pull per (dataset, window) warms the memos for
            # the whole group before normalization.
            self._prefetch_series(locator, devices, t - T, t)
            self._prefetch_series(locator, devices, t - T - ref_span, t - T)
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
        self._prefetch_type_counts(feature.locator, devices, t - T, t)
        rows = self._serve_counts(feature.locator, devices, t - T, t)
        column = self._count_types(feature.locator).index(feature.event_type)
        counts = rows.column([device.name for device in devices], column)
        return float(counts[counts >= 0].sum())

    # -- incremental engine -------------------------------------------------

    @staticmethod
    def _grid(interval: float, t0: float, t1: float) -> tuple[int, int]:
        """The store's sampling-grid window for ``[t0, t1]``.

        Query values depend only on these indices (and the effects
        generation), which is what makes engine keys content addresses.
        """
        return (
            max(0, int(np.ceil(t0 / interval))),
            int(np.floor(t1 / interval)),
        )

    def _group_stats_incremental(
        self,
        group_index: int,
        group: _TsGroup,
        components: list[Component],
        t: float,
    ) -> np.ndarray | None:
        """The eleven statistics for one ts-group, O(delta) per advance.

        Byte-identical to ``_stats(np.concatenate(_pull_group(...)))``:
        blocks pool in the same locator → component → device order, and
        the aggregator computes the pooled statistics exactly (see
        :mod:`.window_agg`).  Returns None when no data source is up
        (the NaN case).
        """
        keyed: list[tuple[object, Block]] = []
        any_active = False
        T = self.config.lookback
        ref_span = self.config.reference_multiple * T
        for locator in group.locators:
            if not self.store.is_active(locator):
                continue
            any_active = True
            schema = self.store.schema(locator)
            dataset_kinds = schema.component_kinds
            window_grid = self._grid(schema.baseline.interval, t - T, t)
            ref_grid = self._grid(
                schema.baseline.interval, t - T - ref_span, t - T
            )
            resolved: list[tuple[Component, tuple]] = []
            missing: list[Component] = []
            for component in components:
                for device in self._observables(component, dataset_kinds):
                    generation = self.store.effects_generation(
                        locator, device.name
                    )
                    key = (
                        locator, device.name, window_grid, ref_grid, generation,
                    )
                    resolved.append((device, key))
                    if key not in self._block_cache:
                        missing.append(device)
            if missing:
                # Same warm-up as the full path, but only for devices
                # whose block is genuinely new content.
                self._prefetch_series(locator, missing, t - T, t)
                self._prefetch_series(locator, missing, t - T - ref_span, t - T)
                self._normalize(locator, missing, t)
            for device, key in resolved:
                block = self._block_cache.get(key)
                if block is None:
                    normalized = self._normalized_window(locator, device, t)
                    if normalized is None:
                        normalized = np.empty(0)
                    block = Block(normalized)
                    self._block_cache[key] = block
                keyed.append((key, block))
        if not any_active:
            return None
        state = self._group_state.get(group_index)
        state_key = tuple(key for key, _ in keyed)
        if state is not None and state[0] == state_key:
            self._note_engine_hit("group_window", ("group_stats", state_key))
            return state[1]
        # Content-addressed pooled result: a re-served incident (warm
        # steady state) resolves here without touching the aggregator.
        # Every input the statistics depend on is inside the block keys.
        memo = self._group_stats_memo.get(state_key)
        if memo is not None:
            self._note_engine_hit("group_window", ("group_stats", state_key))
            self._group_state[group_index] = (state_key, memo)
            return memo
        agg = self._group_aggs.get(group_index)
        if agg is None:
            agg = WindowAggregator()
            self._group_aggs[group_index] = agg
        added, dropped = agg.advance(keyed)
        if added:
            self._count("window_advance_samples", "added", added)
        if dropped:
            self._count("window_advance_samples", "dropped", dropped)
        stats = agg.stats(_PERCENTILES)
        self._group_state[group_index] = (state_key, stats)
        self._group_stats_memo[state_key] = stats
        self._stamp_engine(("group_stats", state_key))
        return stats

    def _event_counts(
        self, locator: str, device: Component, t0: float, t1: float
    ) -> dict[str, int] | None:
        """Content-addressed per-type event counts over ``[t0, t1]``.

        Equals ``store.query_events(...).count_by_type()`` (with explicit
        zeros for quiet schema types) without materializing an event.
        Windows of pairs carrying effects key on the exact float window
        — burst counts depend on it — every other window keys on the
        bin grid and is shared across incidents.
        """
        key = self._count_key(locator, device, t0, t1)
        if key in self._count_memo:
            self._note_engine_hit("event_counts", ("event_counts", key))
            return self._count_memo[key]
        self._count("monitoring_queries_total", "event_counts")
        counts = self.store.query_event_type_counts(locator, device, t0, t1)
        self._count_memo[key] = counts
        self._stamp_engine(("event_counts", key))
        return counts

    event_counts = _publishes_counts(_event_counts)

    def _count_key(
        self, locator: str, device: Component, t0: float, t1: float
    ) -> tuple:
        """The content address :meth:`event_counts` memoizes under."""
        generation = self.store.effects_generation(locator, device.name)
        key = (locator, device.name, self._grid(_EVENT_BIN, t0, t1), generation)
        if generation[1]:
            key = key + (t0, t1)
        return key

    def _prefetch_event_counts(
        self, locator: str, devices: list[Component], t0: float, t1: float
    ) -> None:
        """Warm the count memo for many devices with one batched query.

        ``query_event_type_counts_batch`` is bit-identical per device to
        the scalar query, and hashes every device's Poisson bins in one
        grid per event type instead of one scalar pass per device.
        """
        missing: list[Component] = []
        keys: list[tuple] = []
        seen: set[str] = set()
        for device in devices:
            if device.name in seen:
                continue
            seen.add(device.name)
            key = self._count_key(locator, device, t0, t1)
            if key not in self._count_memo:
                missing.append(device)
                keys.append(key)
        if len(missing) < 2:
            return
        self._count("monitoring_queries_total", "event_counts_batch")
        batch = self.store.query_event_type_counts_batch(
            locator, missing, t0, t1
        )
        for key, counts in zip(keys, batch):
            self._count_memo[key] = counts
            self._stamp_engine(("event_counts", key))

    def _event_totals_incremental(
        self,
        locator: str,
        components: list[Component],
        t: float,
    ) -> dict[str, int] | None:
        """Pooled per-type event counts over all observed devices.

        Several ``_EventFeature`` entries share one (dataset, window)
        device scan, so the pooled totals are computed once and
        content-addressed on (components, bin grid, dataset effects
        token) — a re-served incident is a dict hit.  Windows observed
        while the dataset carries burst effects key on the exact float
        window, matching :meth:`event_counts`.  None when the dataset
        is down.
        """
        if not self.store.is_active(locator):
            return None
        T = self.config.lookback
        t0, t1 = t - T, t
        token = self.store.effects_token(locator)
        key = (
            locator,
            tuple(c.name for c in components),
            self._grid(_EVENT_BIN, t0, t1),
            token,
        )
        if token[1]:
            key = key + (t0, t1)
        totals = self._event_totals_memo.get(key)
        if totals is not None:
            self._note_engine_hit("event_totals", ("event_totals", key))
            return totals
        dataset_kinds = self.store.schema(locator).component_kinds
        devices: list[Component] = []
        for component in components:
            devices.extend(self._observables(component, dataset_kinds))
        self._prefetch_event_counts(locator, devices, t0, t1)
        totals = {}
        for device in devices:
            counts = self._event_counts(locator, device, t0, t1)
            if counts is None:
                continue
            for event_type, n in counts.items():
                totals[event_type] = totals.get(event_type, 0) + n
        self._event_totals_memo[key] = totals
        self._stamp_engine(("event_totals", key))
        return totals

    def _event_count_incremental(
        self,
        feature: _EventFeature,
        components: list[Component],
        t: float,
    ) -> float:
        """Incremental-engine :meth:`_pull_events` (count queries only)."""
        totals = self._event_totals_incremental(
            feature.locator, components, t
        )
        if totals is None:
            return float("nan")
        return float(totals.get(feature.event_type, 0))

    def _features_incremental(
        self, extracted: ExtractedComponents, t: float
    ) -> np.ndarray:
        """Engine-backed :meth:`features`; byte-identical output."""
        vector = np.empty(len(self.schema))
        pos = 0
        for group_index, group in enumerate(self.schema.ts_groups):
            components = extracted.of_kind(group.kind)
            if not components:
                vector[pos : pos + len(STAT_NAMES)] = 0.0
            else:
                stats = self._group_stats_incremental(
                    group_index, group, components, t
                )
                if stats is None:
                    vector[pos : pos + len(STAT_NAMES)] = np.nan
                else:
                    vector[pos : pos + len(STAT_NAMES)] = stats
            pos += len(STAT_NAMES)
        for feature in self.schema.event_features:
            components = extracted.of_kind(feature.kind)
            if not components:
                vector[pos] = 0.0
            else:
                vector[pos] = self._event_count_incremental(
                    feature, components, t
                )
            pos += 1
        for kind in self.config.kinds:
            vector[pos] = float(len(extracted.of_kind(kind)))
            pos += 1
        return vector

    # -- the feature vector ----------------------------------------------------

    @_publishes_counts
    def features(
        self, extracted: ExtractedComponents, t: float
    ) -> np.ndarray:
        """The fixed-length feature vector for one incident at time ``t``.

        With ``incremental`` set the vector comes from the sliding
        window engine (byte-identical by construction and by the parity
        suite); the default path below is both the seed behavior and
        the engine's full-recompute oracle.
        """
        if self.incremental:
            return self._features_incremental(extracted, t)
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
