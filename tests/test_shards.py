"""Monitoring store: event-type counts and round-trips.

The count fast path must agree with a full event scan, effect
snapshots must restore exactly, and parallel dataset builds ship the
store to workers by pickle.  Each test checks one of those contracts
on the store's single (generated) storage regime; the reference, where
one is needed, is a second store built from the same seed.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.datacenter import Component, ComponentKind
from repro.monitoring import FailureEffect, MonitoringStore, phynet_datasets

_HOUR = 3600.0
_DAY = 86400.0
_T = 5 * _DAY


@pytest.fixture()
def fresh() -> MonitoringStore:
    return MonitoringStore(phynet_datasets(), seed=1)


@pytest.fixture()
def store() -> MonitoringStore:
    return MonitoringStore(phynet_datasets(), seed=1)


def _switch() -> Component:
    return Component(ComponentKind.SWITCH, "sw-tor0.c1.dc0")


def _assert_series_equal(want, got) -> None:
    if want is None:
        assert got is None
        return
    assert np.array_equal(want.timestamps, got.timestamps)
    assert want.values.tobytes() == got.values.tobytes()


class TestTypeCounts:
    def test_counts_with_burst_effect(self, store):
        switch = _switch()
        store.inject(
            FailureEffect(
                "device_reboots", switch.name, _T - _HOUR, _T,
                mode="burst", event_type="reboot", rate=6.0,
            )
        )
        counts = store.query_event_type_counts(
            "device_reboots", switch, _T - 2 * _HOUR, _T
        )
        events = store.query_events("device_reboots", switch, _T - 2 * _HOUR, _T)
        assert {t: n for t, n in counts.items() if n} == events.count_by_type()
        assert counts["reboot"] >= 5

    def test_series_dataset_rejected(self, store):
        with pytest.raises(ValueError):
            store.query_event_type_counts("cpu_usage", _switch(), 0.0, _HOUR)

    def test_backwards_window_rejected(self, store):
        with pytest.raises(ValueError):
            store.query_event_type_counts(
                "device_reboots", _switch(), _T, _T - 1.0
            )

    def test_inactive_returns_none(self, store):
        store.deactivate("device_reboots")
        assert (
            store.query_event_type_counts(
                "device_reboots", _switch(), 0.0, _HOUR
            )
            is None
        )


class TestEffectsInteraction:
    def test_snapshot_restore_round_trip(self, fresh, store):
        switch = _switch()
        effect = FailureEffect(
            "cpu_usage", switch.name, _T - _HOUR, _T, "shift", 0.5
        )
        fresh.inject(effect)
        store.inject(effect)
        before = store.query_series("cpu_usage", switch, _T - 2 * _HOUR, _T)
        snapshot = store.snapshot_effects()
        store.clear_effects()
        clean = store.query_series("cpu_usage", switch, _T - 2 * _HOUR, _T)
        assert not np.array_equal(before.values, clean.values)
        store.restore_effects(snapshot)
        restored = store.query_series("cpu_usage", switch, _T - 2 * _HOUR, _T)
        _assert_series_equal(before, restored)
        # The restored answers match a store that never dropped the effect.
        _assert_series_equal(
            fresh.query_series("cpu_usage", switch, _T - 2 * _HOUR, _T),
            restored,
        )


class TestLifecycle:
    def test_pickle_keeps_mode_drops_chunks(self, fresh, store):
        switch = _switch()
        effect = FailureEffect(
            "cpu_usage", switch.name, _T - _HOUR, _T, "shift", 0.5
        )
        fresh.inject(effect)
        store.inject(effect)
        store.deactivate("device_reboots")
        clone = pickle.loads(pickle.dumps(store))
        # Effects survive the round-trip and answer bit-identically.
        _assert_series_equal(
            fresh.query_series("cpu_usage", switch, _T - 2 * _HOUR, _T),
            clone.query_series("cpu_usage", switch, _T - 2 * _HOUR, _T),
        )
        # So does the deactivation.
        assert clone.query_events("device_reboots", switch, 0.0, _HOUR) is None
        assert fresh.query_events("device_reboots", switch, 0.0, _HOUR) is not None
