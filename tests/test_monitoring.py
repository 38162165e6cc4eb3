"""Monitoring substrate tests: generators, store, datasets, effects."""

import numpy as np
import pytest

from repro.datacenter import Component, ComponentKind
from repro.monitoring import (
    DataKind,
    FailureEffect,
    MonitoringStore,
    PHYNET_DATASET_NAMES,
    normal_at,
    phynet_datasets,
    poisson_counts,
    series_seed,
    uniform_at,
)

_HOUR = 3600.0
_T = 86400.0 * 5  # query anchor, well past the epoch


@pytest.fixture()
def store() -> MonitoringStore:
    return MonitoringStore(phynet_datasets(), seed=1)


@pytest.fixture(scope="module")
def switch() -> Component:
    return Component(ComponentKind.SWITCH, "sw-tor0.c1.dc0")


@pytest.fixture(scope="module")
def server() -> Component:
    return Component(ComponentKind.SERVER, "srv-0.c1.dc0")


class TestGenerators:
    def test_uniform_range_and_determinism(self):
        idx = np.arange(1000, dtype=np.uint64)
        u1 = uniform_at(123, idx)
        u2 = uniform_at(123, idx)
        assert np.array_equal(u1, u2)
        assert np.all((u1 > 0.0) & (u1 < 1.0))

    def test_uniform_distribution_shape(self):
        u = uniform_at(9, np.arange(20000, dtype=np.uint64))
        assert abs(u.mean() - 0.5) < 0.02
        assert abs(np.quantile(u, 0.25) - 0.25) < 0.02

    def test_streams_independent(self):
        idx = np.arange(100, dtype=np.uint64)
        assert not np.array_equal(uniform_at(5, idx, 0), uniform_at(5, idx, 1))

    def test_random_access_matches_bulk(self):
        bulk = uniform_at(7, np.arange(100, dtype=np.uint64))
        single = uniform_at(7, np.array([42], dtype=np.uint64))
        assert single[0] == bulk[42]

    def test_normal_moments(self):
        z = normal_at(3, np.arange(20000, dtype=np.uint64))
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_poisson_mean(self):
        counts = poisson_counts(11, np.arange(20000, dtype=np.uint64), lam=0.3)
        assert abs(counts.mean() - 0.3) < 0.02

    def test_poisson_zero_rate(self):
        assert poisson_counts(1, np.arange(10), 0.0).sum() == 0

    def test_poisson_negative_rate_raises(self):
        with pytest.raises(ValueError):
            poisson_counts(1, np.arange(3), -1.0)

    def test_series_seed_distinct(self):
        a = series_seed(0, "cpu_usage", "srv-0.c1.dc0")
        b = series_seed(0, "cpu_usage", "srv-1.c1.dc0")
        c = series_seed(0, "temperature", "srv-0.c1.dc0")
        assert len({a, b, c}) == 3

    def test_series_seed_stable(self):
        assert series_seed(5, "x", "y") == series_seed(5, "x", "y")


class TestDatasets:
    def test_twelve_datasets(self):
        assert len(PHYNET_DATASET_NAMES) == 12

    def test_no_dataset_covers_vms(self):
        # PhyNet does not monitor VM health (§5.2).
        for schema in phynet_datasets():
            assert ComponentKind.VM not in schema.component_kinds

    def test_exactly_one_class_tag_pair(self):
        tags = [s.class_tag for s in phynet_datasets() if s.class_tag]
        assert sorted(tags) == ["PACKET_DROPS", "PACKET_DROPS"]

    def test_kind_consistency(self):
        for schema in phynet_datasets():
            if schema.kind is DataKind.TIME_SERIES:
                assert schema.baseline is not None
            else:
                assert schema.events is not None


class TestStoreQueries:
    def test_series_window_and_determinism(self, store, switch):
        a = store.query_series("cpu_usage", switch, _T - 2 * _HOUR, _T)
        b = store.query_series("cpu_usage", switch, _T - 2 * _HOUR, _T)
        assert np.array_equal(a.values, b.values)
        assert len(a) == 25  # 2h at 5-minute sampling, inclusive ends
        assert a.timestamps[0] >= _T - 2 * _HOUR
        assert a.timestamps[-1] <= _T

    def test_overlapping_windows_agree(self, store, switch):
        wide = store.query_series("cpu_usage", switch, _T - 4 * _HOUR, _T)
        narrow = store.query_series("cpu_usage", switch, _T - 2 * _HOUR, _T)
        overlap = wide.values[-len(narrow):]
        assert np.array_equal(overlap, narrow.values)

    def test_floor_respected(self, store, switch):
        series = store.query_series("link_drop_statistics", switch, 0, _T)
        assert np.all(series.values >= 0.0)

    def test_kind_mismatch_raises(self, store, switch):
        with pytest.raises(ValueError):
            store.query_series("device_reboots", switch, 0, _HOUR)
        with pytest.raises(ValueError):
            store.query_events("cpu_usage", switch, 0, _HOUR)

    def test_uncovered_component_returns_none(self, store):
        vm = Component(ComponentKind.VM, "vm-0.c1.dc0")
        assert store.query_series("cpu_usage", vm, 0, _HOUR) is None

    def test_unknown_dataset_raises(self, store, switch):
        with pytest.raises(KeyError):
            store.query_series("bogus", switch, 0, 1)

    def test_backwards_window_raises(self, store, switch):
        with pytest.raises(ValueError):
            store.query_series("cpu_usage", switch, _T, _T - 10)

    def test_negative_window_clamped(self, store, switch):
        series = store.query_series("cpu_usage", switch, -_HOUR, _HOUR)
        assert series.timestamps[0] >= 0.0

    def test_events_deterministic(self, store, switch):
        a = store.query_events("snmp_syslogs", switch, 0, 86400.0)
        b = store.query_events("snmp_syslogs", switch, 0, 86400.0)
        assert np.array_equal(a.timestamps, b.timestamps)
        assert a.types == b.types

    def test_event_rate_plausible(self, store, switch):
        # link_down at 0.05/h over 30 days ≈ 36 expected events.
        events = store.query_events("snmp_syslogs", switch, 0, 30 * 86400.0)
        count = sum(1 for t in events.types if t == "link_down")
        assert 10 <= count <= 80

    def test_event_timestamps_sorted(self, store, switch):
        events = store.query_events("snmp_syslogs", switch, 0, 10 * 86400.0)
        assert np.all(np.diff(events.timestamps) >= 0.0)


class TestActivation:
    def test_deactivate_series(self, store, switch):
        store.deactivate("cpu_usage")
        assert store.query_series("cpu_usage", switch, 0, _HOUR) is None
        store.activate("cpu_usage")
        assert store.query_series("cpu_usage", switch, 0, _HOUR) is not None

    def test_active_names(self, store):
        store.deactivate("canaries")
        assert "canaries" not in store.active_dataset_names
        assert "canaries" in store.dataset_names

    def test_deactivate_unknown_raises(self, store):
        with pytest.raises(KeyError):
            store.deactivate("bogus")


class TestEffects:
    def test_shift_effect(self, store, switch):
        clean = store.query_series("cpu_usage", switch, _T - _HOUR, _T)
        store.inject(
            FailureEffect("cpu_usage", switch.name, _T - _HOUR, _T, "shift", 0.4)
        )
        shifted = store.query_series("cpu_usage", switch, _T - _HOUR, _T)
        assert np.all(shifted.values >= clean.values)
        assert shifted.values.mean() - clean.values.mean() > 0.3

    def test_effect_scoped_to_component(self, store, switch, server):
        store.inject(
            FailureEffect("temperature", switch.name, 0, _T, "shift", 30.0)
        )
        other = store.query_series("temperature", server, _T - _HOUR, _T)
        assert other.values.mean() < 70.0

    def test_scale_effect(self, store, switch):
        store.inject(
            FailureEffect("pfc_counters", switch.name, _T - _HOUR, _T, "scale", 10.0)
        )
        series = store.query_series("pfc_counters", switch, _T - _HOUR, _T)
        assert series.values.mean() > 100.0

    def test_spike_decays(self, store, switch):
        store.inject(
            FailureEffect(
                "temperature", switch.name, _T - 2 * _HOUR, _T, "spike", 30.0
            )
        )
        series = store.query_series("temperature", switch, _T - 2 * _HOUR, _T)
        assert series.values[0] > series.values[-1] + 10.0

    def test_burst_effect(self, store, switch):
        store.inject(
            FailureEffect(
                "device_reboots", switch.name, _T - _HOUR, _T,
                mode="burst", event_type="reboot", rate=6.0,
            )
        )
        events = store.query_events("device_reboots", switch, _T - _HOUR, _T)
        assert sum(1 for t in events.types if t == "reboot") >= 5

    def test_burst_on_series_rejected(self, store, switch):
        with pytest.raises(ValueError):
            store.inject(
                FailureEffect(
                    "cpu_usage", switch.name, 0, 1,
                    mode="burst", event_type="x", rate=1.0,
                )
            )

    def test_shift_on_events_rejected(self, store, switch):
        with pytest.raises(ValueError):
            store.inject(
                FailureEffect("canaries", "srv-0.c1.dc0", 0, 1, "shift", 1.0)
            )

    def test_clear_effects(self, store, switch):
        store.inject(
            FailureEffect("cpu_usage", switch.name, _T - _HOUR, _T, "shift", 0.5)
        )
        store.clear_effects()
        assert store.effects_for("cpu_usage", switch.name) == []

    def test_effect_validation(self):
        with pytest.raises(ValueError):
            FailureEffect("d", "c", 10.0, 5.0)
        with pytest.raises(ValueError):
            FailureEffect("d", "c", 0.0, 1.0, mode="wiggle")
        with pytest.raises(ValueError):
            FailureEffect("d", "c", 0.0, 1.0, mode="burst")  # no event_type


class TestStoreRegistry:
    def test_duplicate_names_rejected(self):
        schemas = phynet_datasets()
        with pytest.raises(ValueError):
            MonitoringStore(schemas + [schemas[0]])

    def test_datasets_covering(self, store, switch, server):
        switch_sets = {s.name for s in store.datasets_covering(switch)}
        server_sets = {s.name for s in store.datasets_covering(server)}
        assert "snmp_syslogs" in switch_sets
        assert "ping_statistics" in server_sets
        assert "ping_statistics" not in switch_sets
