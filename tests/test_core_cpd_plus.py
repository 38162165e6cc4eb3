"""CPD+ tests (§5.2.2)."""

import numpy as np
import pytest

from repro.config import phynet_config
from repro.core import (
    CPDPlus, ComponentExtractor, FeatureBuilder, ScoutFramework,
    TrainingOptions,
)
from repro.core.selector import Route
from repro.datacenter import ComponentKind
from repro.monitoring import FailureEffect

_T = 86400.0 * 300  # beyond the workload horizon: guaranteed-healthy signals


@pytest.fixture()
def cpd(sim, framework):
    builder = FeatureBuilder(framework.config, sim.topology, sim.store)
    return CPDPlus(builder)


@pytest.fixture(scope="module")
def extractor(sim, framework):
    return ComponentExtractor(framework.config, sim.topology)


class TestScope:
    def test_single_device_is_handful(self, sim, cpd, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"problem on {switch.name}")
        assert not cpd.is_cluster_scope(extracted)

    def test_cluster_only_mention_is_cluster_scope(self, sim, cpd, extractor):
        cluster = sim.topology.components(ComponentKind.CLUSTER)[0]
        extracted = extractor.extract(f"problem in cluster {cluster.name}")
        assert cpd.is_cluster_scope(extracted)

    def test_many_devices_is_cluster_scope(self, sim, cpd, extractor):
        servers = sim.topology.components(ComponentKind.SERVER)[:8]
        text = "issues on " + " ".join(s.name for s in servers)
        extracted = extractor.extract(text)
        assert cpd.is_cluster_scope(extracted)


class TestConservativeRule:
    def test_healthy_device_not_flagged(self, sim, cpd, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"problem on {switch.name}")
        verdict = cpd.predict(extracted, _T)
        assert verdict.responsible is False

    def test_change_point_flags_device(self, sim, cpd, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[1]
        snapshot = sim.store.snapshot_effects()
        sim.store.inject(
            FailureEffect(
                "temperature", switch.name, _T - 1800.0, _T, "shift", 25.0
            )
        )
        extracted = extractor.extract(f"problem on {switch.name}")
        cpd.builder.clear_cache()
        verdict = cpd.predict(extracted, _T)
        sim.store.restore_effects(snapshot)
        assert verdict.responsible is True
        assert verdict.triggers  # the trigger doubles as the explanation
        assert any("temperature" in t for t in verdict.triggers)

    def test_event_burst_flags_device(self, sim, cpd, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[2]
        snapshot = sim.store.snapshot_effects()
        sim.store.inject(
            FailureEffect(
                "fcs_corruption", switch.name, _T - 3600.0, _T,
                mode="burst", event_type="fcs_error", rate=6.0,
            )
        )
        extracted = extractor.extract(f"problem on {switch.name}")
        cpd.builder.clear_cache()
        verdict = cpd.predict(extracted, _T)
        sim.store.restore_effects(snapshot)
        assert verdict.responsible is True
        assert any("fcs_error" in t for t in verdict.triggers)


class TestClusterModel:
    def test_fallback_threshold_without_model(self, sim, cpd, extractor):
        cluster = sim.topology.components(ComponentKind.CLUSTER)[0]
        extracted = extractor.extract(f"problem in cluster {cluster.name}")
        verdict = cpd.predict(extracted, _T)
        assert verdict.responsible is False  # healthy cluster

    def test_cluster_model_used_when_fitted(self, sim, cpd, extractor):
        n_signals = len(cpd.signal_names())
        rng = np.random.default_rng(0)
        healthy = rng.uniform(0.0, 0.05, size=(30, n_signals))
        failing = rng.uniform(0.3, 0.9, size=(30, n_signals))
        X = np.vstack([healthy, failing])
        y = np.array([0] * 30 + [1] * 30)
        cpd.fit_cluster_model(X, y, rng=0)
        assert cpd.has_cluster_model
        cluster = sim.topology.components(ComponentKind.CLUSTER)[0]
        extracted = extractor.extract(f"problem in cluster {cluster.name}")
        verdict = cpd.predict(extracted, _T)
        assert verdict.responsible is False

    def test_single_class_training_disables_model(self, cpd):
        n_signals = len(cpd.signal_names())
        X = np.zeros((10, n_signals))
        cpd.fit_cluster_model(X, np.zeros(10, dtype=int))
        assert not cpd.has_cluster_model


class TestSignals:
    def test_signal_vector_shape(self, sim, cpd, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[0]
        extracted = extractor.extract(f"check {switch.name}")
        vector, triggers = cpd.signals(extracted, _T)
        assert vector.shape == (len(cpd.signal_names()),)
        assert isinstance(triggers, list)

    def test_signals_bounded_by_one(self, sim, cpd, extractor):
        cluster = sim.topology.components(ComponentKind.CLUSTER)[0]
        extracted = extractor.extract(f"check cluster {cluster.name}")
        vector, _ = cpd.signals(extracted, _T)
        assert np.all((vector >= 0.0) & (vector <= 1.0))

    def test_shift_raises_signal_rate(self, sim, cpd, extractor):
        switch = sim.topology.components(ComponentKind.SWITCH)[3]
        extracted = extractor.extract(f"check {switch.name}")
        base, _ = cpd.signals(extracted, _T)
        snapshot = sim.store.snapshot_effects()
        sim.store.inject(
            FailureEffect(
                "pfc_counters", switch.name, _T - 1800.0, _T, "shift", 500.0
            )
        )
        cpd.builder.clear_cache()
        shifted, _ = cpd.signals(extracted, _T)
        sim.store.restore_effects(snapshot)
        assert shifted.sum() > base.sum()


class _MatrixOnlyStore:
    """A store whose scalar series and count queries raise: every feature
    and CPD+ read must come through the matrix queries."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def query_series(self, *args):
        raise AssertionError("scalar query_series on the feature path")

    def query_event_type_counts(self, *args):
        raise AssertionError("scalar query_event_type_counts on the feature path")

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_dataset_and_cpd_route_use_matrix_queries_only(sim, incidents):
    framework = ScoutFramework(
        phynet_config(), sim.topology, _MatrixOnlyStore(sim.store),
        TrainingOptions(n_estimators=8, cv_folds=2, rng=5),
    )
    scout = framework.train(framework.dataset(incidents[:80]).usable())
    # A low novelty bar sends part of the stream down the CPD+ route.
    scout.selector.novelty_threshold = 0.1
    routes = {scout.predict(incident).route for incident in incidents[80:120]}
    assert Route.UNSUPERVISED in routes
