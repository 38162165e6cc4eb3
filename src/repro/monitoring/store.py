"""The monitoring store: lazy, deterministic, effect-aware queries.

``MonitoringStore`` answers the only question the Scout framework asks
of monitoring infrastructure: *give me this dataset for this component
over the look-back window ``[t - T, t]``*.  Healthy baselines come from
the hash-based generators; failure scenarios overlay
:class:`FailureEffect` distortions.  Datasets can be deactivated to
model deprecated monitoring systems (Figure 9) or a monitoring system
that itself failed during the incident (§6).

Every query recomputes its window from the hash generators: nothing
is resident, any timestamp is reachable, and simulation-scale history
costs no memory.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..datacenter.components import Component
from .base import (
    DataKind,
    DatasetSchema,
    EventSeries,
    FailureEffect,
    TimeSeries,
)
from .generators import (
    _DAY,
    _EVENT_BIN,
    _HOUR,
    background_event_parts,
    baseline_series_values,
    normal_grid,
    poisson_counts,
    poisson_counts_grid,
    series_seed,
)

__all__ = ["MonitoringStore", "sample_range"]


def _assemble_events(
    time_parts: list[np.ndarray], types: list[str]
) -> EventSeries:
    """Merge per-source event times/types into one time-sorted series."""
    times_arr = np.concatenate(time_parts) if time_parts else np.empty(0)
    order = np.argsort(times_arr, kind="stable")
    times_arr = times_arr[order]
    types_tuple = tuple(types[i] for i in order)
    return EventSeries(times_arr, types_tuple)


def sample_range(interval: float, t0: float, t1: float) -> tuple[int, int]:
    """The sample-index range ``[first, last]`` of a series window on a
    grid of step ``interval``, clamped at the simulation epoch (empty
    when ``last < first``, with ``last`` never below ``first - 1``)."""
    first = max(0, int(np.ceil(t0 / interval)))
    return first, max(first - 1, int(np.floor(t1 / interval)))


def _event_bins(t0: float, t1: float) -> tuple[int, int]:
    """The event-bin range ``[first, last]`` of a query window (empty
    when ``last < first``), clamped at the simulation epoch."""
    return max(0, int(np.ceil(t0 / _EVENT_BIN))), int(np.floor(t1 / _EVENT_BIN))


class MonitoringStore:
    """Queryable monitoring plane for the synthetic cloud."""

    def __init__(self, schemas: list[DatasetSchema], seed: int = 0) -> None:
        names = [schema.name for schema in schemas]
        if len(set(names)) != len(names):
            raise ValueError("duplicate dataset names")
        self._schemas = {schema.name: schema for schema in schemas}
        self._seed = seed
        self._inactive: set[str] = set()
        # Effects indexed by (dataset, component), kept sorted by start.
        self._effects: dict[tuple[str, str], list[FailureEffect]] = defaultdict(list)
        # dataset -> component name -> series seed.
        self._seed_memo: dict[str, dict[str, int]] = defaultdict(dict)
        # Bumped by every call that can change a query's answer
        # (effects, activation), so a cache of derived values can tell
        # that its entries may be stale.
        self.mutations = 0

    def _series_seed(self, dataset: str, component: str) -> int:
        memo = self._seed_memo[dataset]
        seed = memo.get(component)
        if seed is None:
            seed = memo[component] = series_seed(self._seed, dataset, component)
        return seed

    def _series_seeds(self, dataset: str, names: list[str]) -> np.ndarray:
        """:meth:`_series_seed` of every name, as one uint64 array."""
        memo = self._seed_memo[dataset]
        for name in names:
            if name not in memo:
                memo[name] = series_seed(self._seed, dataset, name)
        return np.array([memo[name] for name in names], dtype=np.uint64)

    # -- registry ----------------------------------------------------------

    @property
    def dataset_names(self) -> list[str]:
        return sorted(self._schemas)

    @property
    def active_dataset_names(self) -> list[str]:
        return sorted(set(self._schemas) - self._inactive)

    def schema(self, dataset: str) -> DatasetSchema:
        try:
            return self._schemas[dataset]
        except KeyError:
            raise KeyError(f"unknown dataset: {dataset!r}") from None

    def deactivate(self, dataset: str) -> None:
        """Model a deprecated/failed monitoring system (Fig 9, §6)."""
        self.schema(dataset)
        self._inactive.add(dataset)
        self.mutations += 1

    def activate(self, dataset: str) -> None:
        self.schema(dataset)
        self._inactive.discard(dataset)
        self.mutations += 1

    def is_active(self, dataset: str) -> bool:
        return dataset not in self._inactive

    def covers(self, dataset: str, component: Component) -> bool:
        return self.schema(dataset).covers(component.kind)

    # -- effects -----------------------------------------------------------

    def inject(self, effect: FailureEffect) -> None:
        """Register a scenario's distortion of one signal."""
        schema = self.schema(effect.dataset)
        if schema.kind is DataKind.TIME_SERIES and effect.mode == "burst":
            raise ValueError(
                f"{effect.dataset} is TIME_SERIES; burst effects apply to events"
            )
        if schema.kind is DataKind.EVENT and effect.mode != "burst":
            raise ValueError(
                f"{effect.dataset} is EVENT; only burst effects apply"
            )
        effects = self._effects[(effect.dataset, effect.component)]
        effects.append(effect)
        effects.sort(key=lambda e: e.start)
        self.mutations += 1

    def clear_effects(self) -> None:
        self._effects.clear()
        self.mutations += 1

    def snapshot_effects(self) -> dict:
        """Copy the current effect registry (pair with restore_effects)."""
        return {key: list(value) for key, value in self._effects.items()}

    def restore_effects(self, snapshot: dict) -> None:
        """Restore a registry captured by :meth:`snapshot_effects`."""
        self._effects = defaultdict(
            list, {key: list(value) for key, value in snapshot.items()}
        )
        self.mutations += 1

    def effects_for(self, dataset: str, component: str) -> list[FailureEffect]:
        return list(self._effects.get((dataset, component), []))

    # -- queries -----------------------------------------------------------

    def query_series(
        self, dataset: str, component: Component, t0: float, t1: float
    ) -> TimeSeries | None:
        """The dataset's time series for ``component`` over ``[t0, t1]``.

        Returns None when the dataset is inactive or does not cover the
        component's kind — the caller decides whether that means
        "impute" (§6) or "no features for this component type" (§5.2).
        """
        schema = self.schema(dataset)
        if schema.kind is not DataKind.TIME_SERIES:
            raise ValueError(f"{dataset} is not TIME_SERIES")
        if not self.is_active(dataset) or not schema.covers(component.kind):
            return None
        if t1 < t0:
            raise ValueError("query window end must be >= start")
        spec = schema.baseline
        # The monitoring plane starts at the simulation epoch: clamp
        # windows that reach before t=0.
        first, last = sample_range(spec.interval, t0, t1)
        if last < first:
            return TimeSeries(np.empty(0), np.empty(0))
        indices = np.arange(first, last + 1, dtype=np.uint64)
        timestamps = indices.astype(float) * spec.interval
        seed = self._series_seed(dataset, component.name)
        values = baseline_series_values(spec, seed, indices, timestamps)
        values = self._apply_series_effects(
            dataset, component.name, timestamps, values
        )
        if spec.floor is not None:
            np.maximum(values, spec.floor, out=values)
        return TimeSeries(timestamps, values)

    def query_series_matrix(
        self, dataset: str, components: list[Component], t0: float, t1: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`query_series` as one matrix.

        Returns ``(positions, timestamps, values)``: the indices into
        ``components`` whose kind the dataset covers (none while it is
        inactive), the shared sampling grid, and one row of values per
        covered position — row ``k`` is bit-identical to the scalar
        query for ``components[positions[k]]``.  All rows share the
        window, so the bin indices, timestamps and diurnal baseline are
        computed once and one broadcast :func:`normal_grid` call draws
        every row's noise; the floor applies once over the matrix, and
        one :meth:`_overlay_effects` pass touches only the rows of
        (dataset, component) pairs with an effect in the window.
        """
        schema = self.schema(dataset)
        if schema.kind is not DataKind.TIME_SERIES:
            raise ValueError(f"{dataset} is not TIME_SERIES")
        if t1 < t0:
            raise ValueError("query window end must be >= start")
        positions: list[int] = []
        if self.is_active(dataset):
            positions = [
                i for i, c in enumerate(components) if schema.covers(c.kind)
            ]
        spec = schema.baseline
        first, last = sample_range(spec.interval, t0, t1)
        indices = np.arange(first, last + 1, dtype=np.uint64)
        timestamps = indices.astype(float) * spec.interval
        rows = np.asarray(positions, dtype=np.intp)
        if not positions or last < first:
            return rows, timestamps, np.empty((len(positions), len(indices)))
        names = [components[i].name for i in positions]
        base = spec.mean + spec.diurnal_amp * np.sin(
            2.0 * np.pi * timestamps / _DAY
        )
        seeds = self._series_seeds(dataset, names)
        values = base[np.newaxis, :] + spec.std * normal_grid(seeds, indices)
        self._overlay_effects(dataset, names, timestamps, values)
        if spec.floor is not None:
            np.maximum(values, spec.floor, out=values)
        return rows, timestamps, values

    def _overlay_effects(
        self,
        dataset: str,
        names: list[str],
        timestamps: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Apply every effect in the window to its row of ``values``, in
        place — the matrix form of :meth:`_apply_series_effects`.

        The grid is sorted, so an effect's ``start <= t <= end`` mask is
        one column slice found by binary search, and each element sees
        the scalar path's arithmetic in the same effect order.
        """
        effects = self._effects
        if not effects or len(timestamps) == 0:
            return
        t_lo = timestamps[0]
        t_hi = timestamps[-1]
        for row, name in enumerate(names):
            for effect in effects.get((dataset, name), ()):
                if effect.start > t_hi:
                    break  # effects are kept sorted by start
                if effect.end < t_lo:
                    continue
                lo = int(np.searchsorted(timestamps, effect.start, "left"))
                hi = int(np.searchsorted(timestamps, effect.end, "right"))
                segment = values[row, lo:hi]
                if effect.mode == "shift":
                    segment += effect.magnitude
                elif effect.mode == "scale":
                    segment *= effect.magnitude
                elif effect.mode == "spike":
                    dt = timestamps[lo:hi] - effect.start
                    segment += effect.magnitude * np.exp(-dt / 600.0)

    def _apply_series_effects(
        self,
        dataset: str,
        component: str,
        timestamps: np.ndarray,
        values: np.ndarray,
    ) -> np.ndarray:
        effects = self._effects.get((dataset, component))
        if not effects or len(timestamps) == 0:
            return values
        # Scalar window-overlap pre-filter: histories accumulate many
        # effects per (dataset, component) and most lie entirely outside
        # the queried window, so skip them before any array work.
        t_lo = timestamps[0]
        t_hi = timestamps[-1]
        copied = False
        for effect in effects:
            if effect.start > t_hi:
                break  # effects are kept sorted by start
            if effect.end < t_lo:
                continue
            mask = (timestamps >= effect.start) & (timestamps <= effect.end)
            if not copied:
                values = values.copy()
                copied = True
            if effect.mode == "shift":
                values[mask] += effect.magnitude
            elif effect.mode == "scale":
                values[mask] *= effect.magnitude
            elif effect.mode == "spike":
                # Exponential decay with a 10-minute time constant.
                dt = timestamps[mask] - effect.start
                values[mask] += effect.magnitude * np.exp(-dt / 600.0)
        return values

    def query_events(
        self, dataset: str, component: Component, t0: float, t1: float
    ) -> EventSeries | None:
        """The dataset's events for ``component`` over ``[t0, t1]``."""
        schema = self.schema(dataset)
        if schema.kind is not DataKind.EVENT:
            raise ValueError(f"{dataset} is not EVENT")
        if not self.is_active(dataset) or not schema.covers(component.kind):
            return None
        if t1 < t0:
            raise ValueError("query window end must be >= start")
        seed = self._series_seed(dataset, component.name)
        first, last = _event_bins(t0, t1)
        time_parts: list[np.ndarray] = []
        types: list[str] = []
        if last >= first:
            for event_type, times, _ in background_event_parts(
                schema, seed, first, last
            ):
                if len(times):
                    time_parts.append(times)
                    types.extend([event_type] * len(times))
        for event_type, lo, hi, n_events in self._bursts(
            dataset, component.name, t0, t1
        ):
            time_parts.append(np.linspace(lo, hi, n_events, endpoint=False))
            types.extend([event_type] * n_events)
        return _assemble_events(time_parts, types)

    def _bursts(self, dataset: str, component: str, t0: float, t1: float):
        """The failure events burst effects add over ``[t0, t1]``, one
        ``(event_type, lo, hi, n_events)`` per effect: ``n_events``
        spread evenly over the effect's clipped window ``[lo, hi)``.

        The one burst arithmetic every event query shares, so
        materialized events and counts always agree.
        """
        for effect in self._effects.get((dataset, component), ()):
            if effect.start >= t1:
                break  # effects are kept sorted by start
            lo = max(t0, effect.start)
            hi = min(t1, effect.end)
            if hi <= lo or effect.rate <= 0.0:
                continue
            n_events = max(1, int(round(effect.rate * (hi - lo) / _HOUR)))
            yield effect.event_type, lo, hi, n_events

    # -- count queries -------------------------------------------------------

    def query_event_type_counts(
        self, dataset: str, component: Component, t0: float, t1: float
    ) -> dict[str, int] | None:
        """Per-type event counts over ``[t0, t1]``, without materializing events.

        Equals ``query_events(...).count_by_type()`` for every type with
        a nonzero count (schema types with zero occurrences are listed
        with count 0 here and omitted there).  Background counts come
        from the Poisson bins directly, and burst effects contribute
        their exact deterministic event count, so no per-event offset
        hashing happens at all.  This is what event features and CPD+
        consume: both only ever look at counts.
        """
        schema = self.schema(dataset)
        if schema.kind is not DataKind.EVENT:
            raise ValueError(f"{dataset} is not EVENT")
        if not self.is_active(dataset) or not schema.covers(component.kind):
            return None
        if t1 < t0:
            raise ValueError("query window end must be >= start")
        seed = self._series_seed(dataset, component.name)
        first, last = _event_bins(t0, t1)
        counts: dict[str, int] = {}
        if last >= first:
            indices = np.arange(first, last + 1, dtype=np.uint64)
            for stream, (event_type, hourly_rate) in enumerate(
                sorted(schema.events.rates.items())
            ):
                lam = hourly_rate * _EVENT_BIN / _HOUR
                counts[event_type] = int(
                    poisson_counts(seed, indices, lam, stream=stream + 1).sum()
                )
        for event_type, _, _, n_events in self._bursts(
            dataset, component.name, t0, t1
        ):
            counts[event_type] = counts.get(event_type, 0) + n_events
        return counts

    def query_event_type_counts_matrix(
        self, dataset: str, components: list[Component], t0: float, t1: float
    ) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
        """Batched :meth:`query_event_type_counts` as one integer matrix.

        Returns ``(positions, types, counts)``: the covered indices into
        ``components`` (as in :meth:`query_series_matrix`), the column
        event types — the schema's, sorted, then any burst type outside
        the schema — and a ``(positions × types)`` count matrix whose
        row ``k`` equals the scalar query's dict for
        ``components[positions[k]]`` (a type absent from the dict counts
        0).  Background counts hash through one
        :func:`poisson_counts_grid` call per event type; burst counts are
        added only to rows whose (dataset, component) pair has an effect.
        """
        schema = self.schema(dataset)
        if schema.kind is not DataKind.EVENT:
            raise ValueError(f"{dataset} is not EVENT")
        if t1 < t0:
            raise ValueError("query window end must be >= start")
        positions: list[int] = []
        if self.is_active(dataset):
            positions = [
                i for i, c in enumerate(components) if schema.covers(c.kind)
            ]
        names = [components[i].name for i in positions]
        types = sorted(schema.events.rates)
        n_schema = len(types)
        # Burst counts first, so a burst type outside the schema adds
        # its column before the matrix is built.
        columns = {event_type: col for col, event_type in enumerate(types)}
        bursts: list[tuple[int, int, int]] = []  # (row, column, n_events)
        for row, name in enumerate(names):
            if (dataset, name) not in self._effects:
                continue
            for event_type, _, _, n_events in self._bursts(dataset, name, t0, t1):
                col = columns.get(event_type)
                if col is None:
                    col = columns[event_type] = len(types)
                    types.append(event_type)
                bursts.append((row, col, n_events))
        counts = np.zeros((len(names), len(types)), dtype=np.int64)
        first, last = _event_bins(t0, t1)
        if names and last >= first:
            indices = np.arange(first, last + 1, dtype=np.uint64)
            seeds = self._series_seeds(dataset, names)
            for stream, event_type in enumerate(types[:n_schema]):
                lam = schema.events.rates[event_type] * _EVENT_BIN / _HOUR
                counts[:, stream] = poisson_counts_grid(
                    seeds, indices, lam, stream=stream + 1
                ).sum(axis=1)
        for row, col, n_events in bursts:
            counts[row, col] += n_events
        return np.asarray(positions, dtype=np.intp), tuple(types), counts

    # -- convenience -------------------------------------------------------

    def datasets_covering(self, component: Component) -> list[DatasetSchema]:
        """Active schemas that monitor this component's kind."""
        return [
            schema
            for name, schema in sorted(self._schemas.items())
            if name not in self._inactive and schema.covers(component.kind)
        ]
