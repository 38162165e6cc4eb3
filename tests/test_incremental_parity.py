"""Incremental feature engine: byte-parity with the full recompute.

The engine's contract is byte-exactness: feature vectors, CPD+
signals, predictions, and the resulting decisions must be *identical*
across modes — the only permitted difference is how much work the
monitoring plane does.  Every test here compares the incremental path
against the seed full-recompute path on the same store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Scout
from repro.core.cpd_plus import CPDPlus
from repro.core.features import FeatureBuilder
from repro.monitoring import (
    FailureEffect,
    FaultPlan,
    FaultyStore,
    TransientMonitoringError,
)
from repro.obs import Observability

_N_INCIDENTS = 40


@pytest.fixture(params=[False], ids=["generated"])
def shard_mode(request):
    """The store regime under test: the generated store is the only one."""
    return request.param


def _incremental_builder(framework) -> FeatureBuilder:
    return FeatureBuilder(
        framework.config, framework.topology, framework.store, incremental=True
    )


def _incremental_scout(scout, framework) -> Scout:
    """The same fitted models attached to an incremental builder."""
    builder = _incremental_builder(framework)
    cpd = CPDPlus(
        builder,
        handful_threshold=scout.cpd.handful_threshold,
        fallback_threshold=scout.cpd.fallback_threshold,
    )
    cpd._cluster_rf = scout.cpd._cluster_rf
    return Scout(
        config=scout.config,
        extractor=scout.extractor,
        builder=builder,
        selector=scout.selector,
        forest=scout.forest,
        imputer=scout.imputer,
        cpd=cpd,
    )


def _assert_predictions_equal(want, got) -> None:
    assert want.route is got.route
    assert want.responsible == got.responsible
    assert want.confidence == got.confidence  # byte-exact float
    assert want.novelty == got.novelty
    assert want.explanation.components == got.explanation.components
    assert want.explanation.triggers == got.explanation.triggers
    assert want.explanation.attributions == got.explanation.attributions
    assert want.explanation.notes == got.explanation.notes


class TestFeatureVectorParity:
    def test_vectors_byte_equal(self, framework, incidents, shard_mode):
        full = framework.builder
        incr = _incremental_builder(framework)
        for incident in incidents[:_N_INCIDENTS]:
            extracted = framework.extractor.extract(incident.text)
            full.begin_incident()
            want = full.features(extracted, incident.created_at)
            incr.begin_incident()
            got = incr.features(extracted, incident.created_at)
            assert np.array_equal(want, got, equal_nan=True), (
                f"incident {incident.incident_id}"
            )

    def test_cpd_signals_byte_equal(self, framework, incidents, shard_mode):
        full_cpd = CPDPlus(framework.builder)
        incr_cpd = CPDPlus(_incremental_builder(framework))
        for incident in incidents[:20]:
            extracted = framework.extractor.extract(incident.text)
            full_cpd.builder.begin_incident()
            want_vec, want_trig = full_cpd.signals(
                extracted, incident.created_at
            )
            incr_cpd.builder.begin_incident()
            got_vec, got_trig = incr_cpd.signals(
                extracted, incident.created_at
            )
            assert np.array_equal(want_vec, got_vec)
            assert want_trig == got_trig

    def test_storm_replay_is_cached_and_equal(self, framework, incidents):
        # A same-timestamp storm is the engine's best case: after the
        # first build the group state short-circuits — and stays exact.
        incr = _incremental_builder(framework)
        incident = incidents[0]
        extracted = framework.extractor.extract(incident.text)
        incr.begin_incident()
        first = incr.features(extracted, incident.created_at)
        full = framework.builder
        full.begin_incident()
        want = full.features(extracted, incident.created_at)
        for _ in range(3):
            incr.begin_incident()
            again = incr.features(extracted, incident.created_at)
            assert np.array_equal(first, again, equal_nan=True)
        assert np.array_equal(want, first, equal_nan=True)


class TestPredictionParity:
    def test_predictions_equal_across_modes(
        self, scout, framework, incidents, shard_mode
    ):
        incr = _incremental_scout(scout, framework)
        for incident in incidents[:_N_INCIDENTS]:
            _assert_predictions_equal(
                scout.predict(incident), incr.predict(incident)
            )

    def test_route_mix_is_nontrivial(self, scout, incidents):
        # The parity sweep must exercise both model arms, or the CPD
        # comparison above is vacuous.
        routes = {
            scout.predict(incident).route for incident in incidents[:_N_INCIDENTS]
        }
        assert len(routes) >= 2


class TestDynamicStoreParity:
    def test_effects_injected_mid_stream(self, framework, incidents, shard_mode):
        store = framework.store
        full = framework.builder
        incr = _incremental_builder(framework)
        kinds = store.schema("cpu_usage").component_kinds
        # Find an incident whose components actually observe cpu_usage,
        # so the injected effect is guaranteed to land in the pool.
        for incident in incidents[:20]:
            extracted = framework.extractor.extract(incident.text)
            devices = [
                d for c in extracted.all for d in incr._observables(c, kinds)
            ]
            if devices:
                break
        assert devices, "no fixture incident observes cpu_usage"
        snapshot = store.snapshot_effects()
        try:
            incr.begin_incident()
            before = incr.features(extracted, incident.created_at)
            t = incident.created_at
            for device in devices:
                store.inject(
                    FailureEffect(
                        "cpu_usage", device.name, t - 7200.0, t + 60.0,
                        "shift", 5.0,
                    )
                )
            # The engine must notice the generation bump — no stale blocks.
            full.begin_incident()
            want = full.features(extracted, incident.created_at)
            incr.begin_incident()
            got = incr.features(extracted, incident.created_at)
            assert np.array_equal(want, got, equal_nan=True)
            assert not np.array_equal(before, got, equal_nan=True)
        finally:
            store.restore_effects(snapshot)

    def test_deactivation_nan_parity(self, framework, incidents, shard_mode):
        store = framework.store
        full = framework.builder
        incr = _incremental_builder(framework)
        incident = incidents[0]
        extracted = framework.extractor.extract(incident.text)
        incr.begin_incident()
        incr.features(extracted, incident.created_at)  # warm engine caches
        store.deactivate("cpu_usage")
        try:
            full.begin_incident()
            want = full.features(extracted, incident.created_at)
            incr.begin_incident()
            got = incr.features(extracted, incident.created_at)
            assert np.array_equal(want, got, equal_nan=True)
        finally:
            store.activate("cpu_usage")
        # Reactivation restores the pre-deactivation answers.
        incr.begin_incident()
        restored = incr.features(extracted, incident.created_at)
        full.begin_incident()
        assert np.array_equal(
            full.features(extracted, incident.created_at),
            restored,
            equal_nan=True,
        )


class TestObservability:
    def _run(self, framework, incidents) -> str:
        obs = Observability()
        builder = _incremental_builder(framework)
        builder.obs = obs
        for incident in incidents[:10]:
            extracted = framework.extractor.extract(incident.text)
            builder.begin_incident()
            builder.features(extracted, incident.created_at)
        return obs.render()

    def test_exposition_deterministic_across_runs(self, framework, incidents):
        assert self._run(framework, incidents) == self._run(
            framework, incidents
        )

    def test_engine_counters_present(self, framework, incidents):
        obs = Observability()
        builder = _incremental_builder(framework)
        builder.obs = obs
        for incident in incidents[:6]:
            extracted = framework.extractor.extract(incident.text)
            builder.begin_incident()
            builder.features(extracted, incident.created_at)
        text = obs.render()
        assert "window_advance_samples" in text
        queries = obs.metrics.get("monitoring_queries_total")
        assert queries is not None and queries.total() > 0


class TestRegisteredScoutParity:
    """The serving-side opt-in: a persisted Scout registered on an
    ``incremental=True`` manager must actually run the O(delta) engine
    (the retrofit sets ``builder.incremental`` after construction) and
    match the constructor-opt-in path byte-for-byte."""

    def _serve(self, scout):
        from repro.monitoring import FakeClock
        from repro.serving import IncidentManager
        from repro.simulation import default_teams

        manager = IncidentManager(
            default_teams(),
            suggestion_mode=True,
            clock=FakeClock(),
            incremental=True,
        )
        manager.register(scout)
        return manager

    def test_loaded_scout_runs_the_engine_and_matches(
        self, scout, sim, incidents, tmp_path
    ):
        from repro.core import load_scout, save_scout
        from repro.monitoring import FakeClock
        from repro.serving import IncidentManager
        from repro.simulation import default_teams

        path = tmp_path / "phynet.scout"
        save_scout(scout, path)

        # Path A: plain load, manager-level --incremental retrofit.
        manager_a = self._serve(load_scout(path, sim.topology, sim.store))
        assert manager_a._scouts[scout.team].builder.incremental is True
        decisions_a = [manager_a.handle(i) for i in incidents[:12]]

        # The engine provably ran: its advance counters moved (a silent
        # fall-back to full recompute would leave them at zero).
        advances = manager_a.obs.metrics.get("window_advance_samples")
        assert advances is not None and advances.total() > 0

        # Path B: constructor opt-in at load time, plain manager.
        manager_b = IncidentManager(
            default_teams(), suggestion_mode=True, clock=FakeClock()
        )
        manager_b.register(
            load_scout(path, sim.topology, sim.store, incremental=True)
        )
        decisions_b = [manager_b.handle(i) for i in incidents[:12]]

        for a, b in zip(decisions_a, decisions_b):
            assert a.suggested_team == b.suggested_team
            assert a.answers == b.answers
            for pa, pb in zip(a.predictions, b.predictions):
                _assert_predictions_equal(pa, pb)
        # Byte-for-byte: same engine, same pulls, same exposition.
        assert manager_a.obs.render() == manager_b.obs.render()


class TestFaultInjection:
    def test_count_queries_are_gated(self, framework, incidents):
        faulty = FaultyStore(framework.store, FaultPlan())
        builder = FeatureBuilder(
            framework.config, framework.topology, faulty, incremental=True
        )
        incident = incidents[0]
        extracted = framework.extractor.extract(incident.text)
        builder.begin_incident()
        builder.features(extracted, incident.created_at)
        # The engine's count queries flow through the fault gate like
        # every other pull — a fault plan still bites in incremental mode.
        assert faulty.queries > 0

    def test_injected_fault_raises(self, framework, incidents):
        faulty = FaultyStore(framework.store, FaultPlan(fail_first=2))
        builder = FeatureBuilder(
            framework.config, framework.topology, faulty, incremental=True
        )
        incident = incidents[0]
        extracted = framework.extractor.extract(incident.text)
        builder.begin_incident()
        with pytest.raises(TransientMonitoringError):
            builder.features(extracted, incident.created_at)
