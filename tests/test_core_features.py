"""Feature-construction tests (§5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import CPDPlus, ComponentExtractor, FeatureBuilder, STAT_NAMES
from repro.core.extraction import ExtractedComponents
from repro.core.features import _stats
from repro.core.selector import Route
from repro.datacenter import ComponentKind
from repro.monitoring import FailureEffect, FakeClock, MonitoringStore
from repro.obs import Observability
from tests.oracles import reference_stats

_T = 86400.0 * 320  # beyond the workload horizon: guaranteed-healthy signals


@pytest.fixture()
def builder(sim, framework):
    b = FeatureBuilder(framework.config, sim.topology, sim.store)
    b.clear_cache()
    return b


@pytest.fixture(scope="module")
def extractor(sim, framework):
    return ComponentExtractor(framework.config, sim.topology)


class TestSchema:
    def test_eleven_stats(self):
        assert len(STAT_NAMES) == 11

    def test_fixed_length(self, builder):
        assert len(builder.schema) == len(builder.schema.names)

    def test_no_vm_monitoring_features(self, builder):
        # PhyNet has no VM-covering dataset: only the count feature.
        vm_features = [n for n in builder.schema.names if n.startswith("vm.")]
        assert vm_features == []
        assert "n_vm" in builder.schema.names

    def test_class_tag_merges_drop_datasets(self, builder):
        merged = [n for n in builder.schema.names if "PACKET_DROPS" in n]
        assert len(merged) > 0

    def test_index_of_agrees_with_names(self, builder):
        for i, name in enumerate(builder.schema.names):
            assert builder.schema.index_of(name) == i

    def test_index_of_unknown_name_raises(self, builder):
        with pytest.raises(ValueError):
            builder.schema.index_of("no.such.feature")


class TestCacheLifetimes:
    def test_clear_cache_resets_query_memos(self, builder, sim):
        device = sim.topology.components(ComponentKind.SWITCH)[0]
        builder.features(ExtractedComponents(mentioned=[device]), _T)
        assert builder._plan
        builder.clear_cache()
        assert not builder._plan

    def test_observables_memo_survives_clear_cache(self, builder, sim):
        cluster = sim.topology.components(ComponentKind.CLUSTER)[0]
        kinds = frozenset({ComponentKind.SWITCH})
        members = builder._observables(cluster, kinds)
        assert members
        builder.clear_cache()
        # Topology-lifetime memo: same object, no recomputation needed.
        assert builder._observables_memo
        assert builder._observables(cluster, kinds) is members
        # The merged group replaces its member datasets.
        assert not any("link_drop_statistics" in n for n in builder.schema.names)

    def test_count_features_for_all_kinds(self, builder):
        for kind in ("vm", "server", "switch", "cluster", "dc"):
            assert f"n_{kind}" in builder.schema.names

    def test_event_features_per_type(self, builder):
        syslog_features = [
            n for n in builder.schema.names if "snmp_syslogs" in n
        ]
        # 3 event types × switch/cluster/dc component kinds.
        assert len(syslog_features) == 9


class TestVector:
    def test_length_matches_schema(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"problem on {switch.name}")
        vector = builder.features(extracted, _T)
        assert vector.shape == (len(builder.schema),)

    def test_absent_kind_features_zero(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"problem on {switch.name}")
        vector = builder.features(extracted, _T)
        # No server was extracted or implied: server stats are zero.
        server_idx = [
            i for i, n in enumerate(builder.schema.names)
            if n.startswith("server.")
        ]
        assert np.allclose(vector[server_idx], 0.0)

    def test_count_features(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"problem on {switch.name}")
        vector = builder.features(extracted, _T)
        assert vector[builder.schema.index_of("n_switch")] >= 1.0
        assert vector[builder.schema.index_of("n_vm")] == 0.0

    def test_healthy_signal_near_zero_stats(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"check {switch.name}")
        vector = builder.features(extracted, _T)
        mean_idx = builder.schema.index_of("switch.temperature.mean")
        assert abs(vector[mean_idx]) < 1.5  # z-scored healthy data

    def test_shift_effect_moves_percentiles(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[1]
        extracted = extractor.extract(f"check {switch.name}")
        baseline = builder.features(extracted, _T).copy()
        snapshot = sim.store.snapshot_effects()
        sim.store.inject(
            FailureEffect(
                "temperature", switch.name, _T - 1800.0, _T, "shift", 25.0
            )
        )
        builder.clear_cache()
        shifted = builder.features(extracted, _T)
        sim.store.restore_effects(snapshot)
        p99 = builder.schema.index_of("switch.temperature.p99")
        assert shifted[p99] > baseline[p99] + 3.0

    def test_deactivated_dataset_yields_nan(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"check {switch.name}")
        sim.store.deactivate("temperature")
        try:
            builder.clear_cache()
            vector = builder.features(extracted, _T)
            idx = builder.schema.index_of("switch.temperature.mean")
            assert np.isnan(vector[idx])
        finally:
            sim.store.activate("temperature")

    def test_event_count_feature(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[2]
        snapshot = sim.store.snapshot_effects()
        sim.store.inject(
            FailureEffect(
                "device_reboots", switch.name, _T - 3600.0, _T,
                mode="burst", event_type="reboot", rate=6.0,
            )
        )
        extracted = extractor.extract(f"check {switch.name}")
        builder.clear_cache()
        vector = builder.features(extracted, _T)
        sim.store.restore_effects(snapshot)
        idx = builder.schema.index_of("switch.device_reboots.reboot")
        assert vector[idx] >= 5.0

    def test_cluster_features_pool_members(self, sim, builder, extractor):
        cluster = sim.topology.components(ComponentKind.CLUSTER)[0]
        extracted = extractor.extract(f"issues in cluster {cluster.name}")
        vector = builder.features(extracted, _T)
        idx = builder.schema.index_of("cluster.ping_statistics.mean")
        assert np.isfinite(vector[idx])

    def test_deterministic(self, sim, builder, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"check {switch.name}")
        a = builder.features(extracted, _T)
        builder.clear_cache()
        b = builder.features(extracted, _T)
        assert np.array_equal(a, b)


class TestDegenerateWindows:
    """Regression: <2-sample windows must zero-fill, never NaN.

    ``np.std``/``np.percentile`` warn-and-NaN on degenerate input, and a
    NaN here would be silently imputed with unrelated training means
    downstream — the features must stay deterministic and finite.
    """

    def test_empty_window_is_all_zeros(self):
        out = _stats(np.empty(0))
        assert out.shape == (len(STAT_NAMES),)
        assert np.array_equal(out, np.zeros(len(STAT_NAMES)))

    def test_single_sample_window_zero_fills_spread_slots(self):
        with np.errstate(all="raise"):  # any NaN-producing warning fails
            out = _stats(np.array([3.5]))
        by_name = dict(zip(STAT_NAMES, out))
        assert by_name["mean"] == 3.5
        assert by_name["min"] == 3.5
        assert by_name["max"] == 3.5
        # One observation carries no distributional information.
        assert by_name["std"] == 0.0
        assert all(by_name[f"p{p}"] == 0.0 for p in (1, 10, 25, 50, 75, 90, 99))
        assert np.all(np.isfinite(out))

    def test_two_samples_compute_full_stats(self):
        out = _stats(np.array([1.0, 3.0]))
        by_name = dict(zip(STAT_NAMES, out))
        assert by_name["mean"] == 2.0
        assert by_name["std"] == 1.0
        assert by_name["p50"] == 2.0
        assert np.all(np.isfinite(out))

    def test_degenerate_stats_are_deterministic(self):
        assert np.array_equal(_stats(np.array([7.25])), _stats(np.array([7.25])))


class TestStatsReplica:
    """``_stats`` (one sort + ``exact_percentiles``) equals np.percentile.

    Byte equality holds for finite, zero-canonical windows — what
    z-scoring produces — so generated windows are canonicalized with
    ``+ 0.0`` (np.percentile itself orders tied -0.0/+0.0 arbitrarily).
    """

    @pytest.mark.parametrize("values", [[], [3.5], [1.0, 3.0], [3.0, -1.0]])
    def test_small_sizes(self, values):
        pooled = np.array(values, dtype=float)
        assert _stats(pooled).tobytes() == reference_stats(pooled).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(0, 400),
            elements=st.floats(
                -1e6, 1e6, allow_nan=False, allow_infinity=False
            ),
        )
    )
    def test_generated_windows(self, pooled):
        pooled = pooled + 0.0
        assert _stats(pooled).tobytes() == reference_stats(pooled).tobytes()

    def test_ties_and_z_scored_windows(self):
        rng = np.random.default_rng(41)
        for size in (2, 3, 17, 288, 1001):
            raw = rng.normal(size=size)
            z = (raw - raw.mean()) / raw.std()
            tied = np.round(raw, 1) + 0.0
            for pooled in (z, tied):
                assert (
                    _stats(pooled).tobytes()
                    == reference_stats(pooled).tobytes()
                )


class TestMaterializedEventReference:
    """Default-path vectors and verdicts equal a plain reference.

    The reference materializes every event through ``query_events`` and
    counts it with ``count_of``, and computes percentiles with
    ``np.percentile``.
    """

    @staticmethod
    def _counts_matrix_materialized(self, dataset, components, t0, t1):
        # The schema-type columns the feature path reads, counted from
        # materialized events.
        types = sorted(self.schema(dataset).events.rates)
        positions, rows = [], []
        for position, device in enumerate(components):
            events = self.query_events(dataset, device, t0, t1)
            if events is not None:
                positions.append(position)
                rows.append([events.count_of(t) for t in types])
        counts = np.array(rows, dtype=np.int64).reshape(len(rows), len(types))
        return np.array(positions, dtype=np.intp), tuple(types), counts

    @staticmethod
    def _run(scout, incidents):
        vectors, signals, verdicts = [], [], []
        for incident in incidents:
            extracted = scout.extractor.extract(incident.text)
            if not extracted.is_empty:
                scout.builder.clear_cache()
                vectors.append(
                    scout.builder.features(extracted, incident.created_at)
                )
                vector, triggers = scout.cpd.signals(
                    extracted, incident.created_at
                )
                signals.append((vector.tobytes(), tuple(triggers)))
            p = scout.predict(incident)
            verdicts.append((
                p.responsible, p.confidence, p.route, p.novelty,
                p.explanation.triggers, p.explanation.notes,
                [(a.feature, a.contribution) for a in p.explanation.attributions],
            ))
        return np.vstack(vectors), signals, verdicts

    def test_vectors_and_verdicts_match(self, scout, incidents, monkeypatch):
        import repro.core.features as features_module

        subset = incidents[:80]
        got = self._run(scout, subset)
        monkeypatch.setattr(features_module, "_stats", reference_stats)
        monkeypatch.setattr(
            MonitoringStore, "query_event_type_counts_matrix",
            self._counts_matrix_materialized,
        )
        want = self._run(scout, subset)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]
        assert got[2] == want[2]
        # The set exercises nonzero event counts and both model routes.
        schema = scout.builder.schema
        start = len(schema.ts_groups) * len(STAT_NAMES)
        counts = got[0][:, start : start + len(schema.event_features)]
        assert np.nansum(counts) > 0
        routes = {verdict[2] for verdict in got[2]}
        assert {Route.SUPERVISED, Route.UNSUPERVISED} <= routes


class TestBuilderInstrumentation:
    def test_query_and_cache_hit_counters(self, sim, builder):
        # A feature build costs one query per pulled dataset and no hit;
        # CPD+ after it pulls nothing and counts one hit per device read.
        builder.obs = Observability(clock=FakeClock())
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = ExtractedComponents(mentioned=[switch])
        schema = builder.schema
        series = [
            locator for group in schema.ts_groups
            if group.kind is ComponentKind.SWITCH for locator in group.locators
        ]
        events = [
            f.locator for f in schema.event_features
            if f.kind is ComponentKind.SWITCH
        ]
        assert series and events
        builder.features(extracted, _T)
        queries = builder.obs.metrics.get("monitoring_queries_total")
        assert queries.value(kind="series") == len(set(series))
        assert queries.value(kind="event_counts") == len(set(events))
        assert builder.obs.metrics.get("monitoring_cache_hits_total") is None
        CPDPlus(builder).signals(extracted, _T)
        hits = builder.obs.metrics.get("monitoring_cache_hits_total")
        assert queries.value(kind="series") == len(set(series))
        assert queries.value(kind="event_counts") == len(set(events))
        assert hits.value(kind="series") == len(series)
        assert hits.value(kind="event_counts") == len(events)

    def test_count_read_is_one_query_then_hits(self, sim, builder):
        # A cluster's switches plus one of them mentioned directly: the
        # event reads list that switch twice, the count pull fetches it
        # once, and CPD+ counts one hit per device of every read.
        builder.obs = Observability(clock=FakeClock())
        cluster = sim.topology.components(ComponentKind.CLUSTER)[0]
        switches = builder._observables(
            cluster, frozenset({ComponentKind.SWITCH})
        )
        extracted = ExtractedComponents(mentioned=[cluster, switches[0]])
        features = [
            f for f in builder.schema.event_features
            if f.kind in (ComponentKind.CLUSTER, ComponentKind.SWITCH)
        ]
        vector = builder.features(extracted, _T)
        queries = builder.obs.metrics.get("monitoring_queries_total")
        assert queries.value(kind="event_counts") == len(
            {f.locator for f in features}
        )
        _, events = builder.look_back(extracted, _T)
        hits = builder.obs.metrics.get("monitoring_cache_hits_total")
        assert queries.value(kind="event_counts") == len(
            {f.locator for f in features}
        )
        reads = [
            (feature, reads[0]) for feature, reads
            in zip(builder.schema.event_features, events) if reads
        ]
        assert [feature for feature, _ in reads] == features
        assert hits.value(kind="event_counts") == sum(
            len(builder._devices(f.locator, extracted.of_kind(f.kind)))
            for f in features
        )
        # A device read twice reads the same count both times.
        seen: dict[tuple, list] = {}
        for feature, (read, counts) in reads:
            assert (counts >= 0).all()
            name = f"{feature.kind.value}.{feature.locator}.{feature.event_type}"
            assert counts.sum() == vector[builder.schema.index_of(name)]
            for k, position in enumerate(read.positions):
                key = (feature.locator, feature.event_type, read.names[position])
                seen.setdefault(key, []).append(int(counts[k]))
        twice = [
            counts for (_, _, device), counts in seen.items()
            if device == switches[0].name
        ]
        assert twice and all(len(c) == 2 and c[0] == c[1] for c in twice)


class TestMemo:
    def test_clear_cache_resets(self, sim, builder):
        builder.obs = Observability(clock=FakeClock())
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = ExtractedComponents(mentioned=[switch])
        a = builder.features(extracted, _T)
        queries = builder.obs.metrics.get("monitoring_queries_total")
        pulls = queries.total()
        builder.clear_cache()
        b = builder.features(extracted, _T)
        assert pulls > 0
        assert queries.total() == 2 * pulls
        assert builder.obs.metrics.get("monitoring_cache_hits_total") is None
        assert a.tobytes() == b.tobytes()


class TestLookBack:
    def test_reads_are_raw_look_back_windows_and_counts(self, sim, builder):
        # CPD+ reads each device's raw [t - T, t] window and counts, on
        # its own or after a feature build whose pulls reach back to the
        # reference and whose rows the build z-scored.
        cluster = sim.topology.components(ComponentKind.CLUSTER)[0]
        extracted = ExtractedComponents(mentioned=[cluster])
        T = builder.config.lookback
        t = _T + 123.0  # off the sampling grid
        store = sim.store
        for build_first in (False, True):
            builder.clear_cache()
            if build_first:
                builder.features(extracted, t)
            groups, events = builder.look_back(extracted, t)
            series_rows = event_rows = 0
            for reads in groups:
                for read, rows in reads or ():
                    assert rows.shape[0] == len(read.positions)
                    for row, position in zip(rows, read.positions):
                        device = sim.topology.component(read.names[position])
                        want = store.query_series(read.locator, device, t - T, t)
                        assert row.tobytes() == want.values.tobytes()
                        series_rows += 1
            for feature, reads in zip(builder.schema.event_features, events):
                for read, counts in reads or ():
                    for count, position in zip(counts, read.positions):
                        device = sim.topology.component(read.names[position])
                        want = store.query_event_type_counts(
                            read.locator, device, t - T, t
                        )
                        assert count == want[feature.event_type]
                        event_rows += 1
            assert series_rows and event_rows
