"""Parity tests for the vectorized/parallel fast paths.

Every optimization in the pipeline — flat-array tree inference,
pre-drawn parallel forest fitting, batched monitoring queries, sharded
dataset builds, and the batched CUSUM scan — claims bit-identical
results to its simple serial counterpart.  These tests hold each one to
that claim.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ml.forest as forest_module
from repro.datacenter.components import ComponentKind
from repro.ml import RandomForestClassifier
from repro.ml.cpd import CusumDetector
from repro.ml.tree import DecisionTreeClassifier
from repro.monitoring import FailureEffect
from repro.monitoring.base import DataKind
from repro.monitoring.generators import (
    normal_at,
    normal_grid,
    uniform_at,
    uniform_grid,
    uniform_mixed,
)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(400, 8))
    y = ((X[:, 0] - X[:, 3] * X[:, 1]) > 0.2).astype(int)
    return X, y


# -- flat-tree inference ---------------------------------------------------


def test_flat_predict_matches_node_walk(data):
    X, y = data
    tree = DecisionTreeClassifier(max_depth=None, rng=5).fit(X, y)
    assert np.array_equal(tree.predict_proba(X), tree.predict_proba_nodes(X))


def test_flat_predict_matches_node_walk_unseen(data):
    X, y = data
    tree = DecisionTreeClassifier(max_depth=6, rng=5).fit(X, y)
    fresh = np.random.default_rng(23).normal(size=(200, 8)) * 3.0
    assert np.array_equal(tree.predict_proba(fresh), tree.predict_proba_nodes(fresh))


def test_deep_tree_introspection_is_iterative():
    # A pathological one-point-per-leaf staircase produces a tree deeper
    # than Python's default recursion limit would allow to walk.
    n = 2000
    X = np.arange(n, dtype=float).reshape(-1, 1)
    y = (np.arange(n) % 2).astype(int)
    tree = DecisionTreeClassifier(max_depth=None, min_samples_leaf=1, rng=0)
    tree.fit(X, y)
    assert tree.depth_ > 0
    assert tree.n_leaves_ >= 2
    assert np.array_equal(tree.predict(X), y)


# -- forest parallelism ----------------------------------------------------


def test_forest_parallel_matches_serial(data, forest_pools, monkeypatch):
    X, y = data
    # 12 trees x 400 rows is below the pool threshold; lower it so the
    # n_jobs=2 fit really runs in a process pool.
    monkeypatch.setattr(forest_module, "_POOL_MIN_TREE_ROWS", 0)
    serial = RandomForestClassifier(n_estimators=12, rng=9, n_jobs=1).fit(X, y)
    assert forest_pools == []
    parallel = RandomForestClassifier(n_estimators=12, rng=9, n_jobs=2).fit(X, y)
    assert forest_pools == [2]
    assert np.array_equal(serial.predict_proba(X), parallel.predict_proba(X))
    assert np.array_equal(
        serial.feature_importances_, parallel.feature_importances_
    )


def test_small_forest_fits_in_process(data, forest_pools):
    X, y = data
    assert 12 * len(y) < forest_module._POOL_MIN_TREE_ROWS
    forest = RandomForestClassifier(n_estimators=12, rng=9, n_jobs=2).fit(X, y)
    assert forest_pools == []
    serial = RandomForestClassifier(n_estimators=12, rng=9, n_jobs=1).fit(X, y)
    assert np.array_equal(serial.predict_proba(X), forest.predict_proba(X))


# -- batched generators ----------------------------------------------------


def test_uniform_grid_matches_uniform_at():
    rng = np.random.default_rng(2)
    seeds = rng.integers(0, 2**63, size=10, dtype=np.uint64)
    indices = np.arange(500, 900, dtype=np.uint64)
    for stream in (0, 3, 1001):
        grid = uniform_grid(seeds, indices, stream)
        ngrid = normal_grid(seeds, indices, stream)
        for row, seed in enumerate(seeds):
            assert np.array_equal(grid[row], uniform_at(int(seed), indices, stream))
            assert np.array_equal(ngrid[row], normal_at(int(seed), indices, stream))


def test_uniform_mixed_matches_uniform_at():
    rng = np.random.default_rng(4)
    seeds = rng.integers(0, 2**63, size=64, dtype=np.uint64)
    indices = rng.integers(0, 10_000, size=64, dtype=np.uint64)
    mixed = uniform_mixed(seeds, indices, stream=1002)
    for k in range(len(seeds)):
        expected = uniform_at(int(seeds[k]), indices[k : k + 1], stream=1002)
        assert mixed[k] == expected[0]


# -- batched store queries -------------------------------------------------


def _devices(sim, limit=12):
    out = []
    for kind in ComponentKind:
        out.extend(sim.topology.components(kind)[:limit])
    return out


def test_query_series_batch_matches_scalar(sim):
    store = sim.store
    devices = _devices(sim)
    names = [
        n for n in store.dataset_names
        if store.schema(n).kind is DataKind.TIME_SERIES
    ]
    assert names
    for name in names:
        for window in [(0.0, 7200.0), (4e6, 4e6 + 7200.0), (-9000.0, -4000.0)]:
            positions, timestamps, values = store.query_series_matrix(
                name, devices, *window
            )
            rows = dict(zip(positions.tolist(), values))
            for i, device in enumerate(devices):
                want = store.query_series(name, device, *window)
                if want is None:
                    assert i not in rows
                else:
                    assert np.array_equal(want.timestamps, timestamps)
                    assert np.array_equal(want.values, rows[i])


def _event_datasets(store) -> list[str]:
    return [
        n for n in store.dataset_names
        if store.schema(n).kind is DataKind.EVENT
    ]


# Event-query windows: early history, one crossing the burst effects of
# ``burst_store``, and a 20-second window inside one event bin (its bin
# range is empty, ``last < first``, but bursts still land in it).
_EVENT_WINDOWS = [(0.0, 7200.0), (4e6, 4e6 + 7200.0), (4e6 + 30.0, 4e6 + 50.0)]


@pytest.fixture()
def burst_store(sim):
    """The session store plus burst effects on every event dataset.

    Each dataset gets one burst of a schema type and one of a type the
    schema does not declare, on the first device it covers; the
    session's effect registry is restored afterwards.
    """
    store = sim.store
    snapshot = store.snapshot_effects()
    devices = _devices(sim)
    for name in _event_datasets(store):
        schema = store.schema(name)
        target = next(d for d in devices if schema.covers(d.kind))
        for event_type in (sorted(schema.events.rates)[0], "injected"):
            store.inject(FailureEffect(
                name, target.name, 4e6 + 10.0, 4e6 + 3600.0,
                mode="burst", event_type=event_type, rate=30.0,
            ))
    yield store
    store.restore_effects(snapshot)


def test_query_event_type_counts_batch_matches_scalar(burst_store, sim):
    store = burst_store
    devices = _devices(sim)
    seen_burst = seen_uncovered = False
    for name in _event_datasets(store):
        schema_types = sorted(store.schema(name).events.rates)
        for window in _EVENT_WINDOWS:
            positions, types, counts = store.query_event_type_counts_matrix(
                name, devices, *window
            )
            assert list(types[: len(schema_types)]) == schema_types
            rows = dict(zip(positions.tolist(), counts.tolist()))
            for i, device in enumerate(devices):
                want = store.query_event_type_counts(name, device, *window)
                events = store.query_events(name, device, *window)
                if events is None:
                    assert want is None and i not in rows
                    seen_uncovered = True
                    continue
                got = dict(zip(types, rows[i]))
                assert set(want) <= set(types)
                assert got == {t: want.get(t, 0) for t in types}
                assert {t: n for t, n in got.items() if n} == (
                    events.count_by_type()
                )
                # Quiet schema types are explicit zeros whenever the
                # window spans an event bin.
                if window[1] - window[0] >= 60.0:
                    assert set(schema_types) <= set(want)
                seen_burst = seen_burst or got.get("injected", 0) > 0
    assert seen_burst and seen_uncovered


def test_query_event_type_counts_batch_inactive_dataset(sim):
    store = sim.store
    devices = _devices(sim)
    name = _event_datasets(store)[0]
    n_types = len(store.schema(name).events.rates)
    store.deactivate(name)
    try:
        for window in _EVENT_WINDOWS:
            positions, types, counts = store.query_event_type_counts_matrix(
                name, devices, *window
            )
            assert positions.size == 0
            assert counts.shape == (0, n_types) and len(types) == n_types
            assert all(
                store.query_event_type_counts(name, d, *window) is None
                for d in devices
            )
    finally:
        store.activate(name)


def test_event_series_count_of_matches_scan(sim):
    store = sim.store
    devices = _devices(sim, limit=4)
    for name in store.dataset_names:
        if store.schema(name).kind is not DataKind.EVENT:
            continue
        for device in devices:
            events = store.query_events(name, device, 0.0, 86400.0)
            if events is None:
                continue
            for event_type in set(events.types) | {"no-such-type"}:
                scan = sum(1 for t in events.types if t == event_type)
                assert events.count_of(event_type) == scan


# -- batched CUSUM ---------------------------------------------------------


def test_detect_any_matches_per_row_detect():
    detector = CusumDetector(threshold=5.0)
    rng = np.random.default_rng(31)
    matrix = rng.normal(size=(120, 24))
    matrix[::5] += np.linspace(0.0, 7.0, 24)  # drifting rows
    matrix[7] = 3.25  # constant (zero-std) row
    got = detector.detect_any(matrix)
    want = np.array([bool(detector.detect(row)) for row in matrix])
    assert np.array_equal(got, want)


def test_detect_any_short_rows_and_shape_checks():
    detector = CusumDetector(threshold=5.0)
    assert not detector.detect_any(np.zeros((4, 2))).any()
    with pytest.raises(ValueError):
        detector.detect_any(np.zeros(5))


# -- end-to-end determinism ------------------------------------------------


def test_dataset_build_parallel_matches_serial(framework, incidents):
    subset = incidents[:40]
    serial = framework.dataset(subset)
    parallel = framework.dataset(subset, n_jobs=2)
    assert np.array_equal(serial.X, parallel.X, equal_nan=True)
    assert np.array_equal(serial.signals_matrix, parallel.signals_matrix)
    assert [e.triggers for e in serial] == [e.triggers for e in parallel]
    assert [e.static_route for e in serial] == [e.static_route for e in parallel]

