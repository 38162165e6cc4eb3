"""Cross-incident reuse: the feature-vector memo and the compact decision record.

An outage storm raises many incidents over the same components at the
same instant.  ``FeatureBuilder.features`` memoizes whole vectors on
(incident time, component names per kind), valid for one store object
at one ``store.mutations`` value, so a storm's copies build each vector
once.  The manager keeps every decision as columns behind a read-only
``ServingDecision`` view, so the extra decisions that throughput brings
stay cheap to keep.  This module holds both halves to their contracts:

* every memoized vector equals the per-device oracle's, across store
  mutations and store swaps;
* a faulted storm burst through ``handle_batch`` is byte-identical to a
  ``handle`` loop;
* a retained storm decision costs under 1 KB;
* serving does not change a Scout's saved bundle.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.features as features_module
from repro.config import team_scout_configs
from repro.core import ComponentExtractor, FeatureBuilder
from repro.core.persistence import save_scout
from repro.monitoring import (
    FailureEffect,
    FakeClock,
    FaultPlan,
    FaultyStore,
    FlakyScout,
    MonitoringStore,
    phynet_datasets,
    team_datasets,
)
from repro.monitoring.base import DataKind
from repro.obs import Observability
from repro.serving import (
    BreakerPolicy,
    IncidentManager,
    RetryPolicy,
    ServingDecision,
)
from repro.simulation import ScoutAnswer, default_teams
from repro.simulation.teams import DNS, STORAGE
from tests.oracles import OracleFeatureBuilder
from tests.test_serving_golden import golden_deployment


def _storm(incidents, copies: int, first_id: int) -> list:
    """``copies`` round-robin copies of ``incidents`` under fresh ids."""
    return [
        replace(incident, incident_id=first_id + k * len(incidents) + j)
        for k in range(copies)
        for j, incident in enumerate(incidents)
    ]


def _vector_hits(metrics) -> float:
    family = metrics.get("monitoring_cache_hits_total")
    if family is None:
        return 0.0
    return sum(
        value for labels, value in family.samples() if labels["kind"] == "vector"
    )


def _queries(metrics) -> float:
    family = metrics.get("monitoring_queries_total")
    return family.total() if family is not None else 0.0


# -- the vector memo against the oracle ---------------------------------------


@pytest.fixture(scope="module")
def pool(sim, framework, incidents):
    """(config, extracted, time) of incidents every configured Scout scopes."""
    configs = [framework.config] + [
        config for _, config in sorted(team_scout_configs().items())
    ]
    out = []
    for config in configs:
        extractor = ComponentExtractor(config, sim.topology)
        scoped = [
            (extracted, incident.created_at)
            for incident in incidents[:40]
            for extracted in [extractor.extract(incident.text)]
            if not extracted.is_empty
        ]
        out.append((config, scoped[:4]))
    return out


def _stores(sim) -> tuple[MonitoringStore, MonitoringStore]:
    """Two stores with the simulation's effects and different seeds: the
    same mutation count, different contents."""
    stores = []
    for seed in (sim.config.seed, sim.config.seed + 1):
        store = MonitoringStore(phynet_datasets() + team_datasets(), seed=seed)
        store.restore_effects(sim.store.snapshot_effects())
        stores.append(store)
    return stores[0], stores[1]


def _effect(store, config, extracted, t, magnitude) -> FailureEffect:
    """An effect on the incident's first covered device, inside its window."""
    locators = sorted({ref.locator for ref in config.monitoring})
    schema = store.schema(locators[int(magnitude * 7) % len(locators)])
    targets = [c.name for c in extracted.all if schema.covers(c.kind)]
    target = targets[0] if targets else extracted.all[0].name
    start = t - config.lookback / 2
    if schema.kind is DataKind.EVENT:
        return FailureEffect(
            schema.name, target, start, t + 60.0, mode="burst",
            event_type=sorted(schema.events.rates)[0], rate=magnitude * 10.0,
        )
    return FailureEffect(
        schema.name, target, start, t + 60.0, mode="shift", magnitude=magnitude
    )


_operations = st.lists(
    st.one_of(
        st.tuples(st.just("features"), st.integers(0, 3)),
        st.tuples(st.just("features"), st.integers(0, 3)),
        st.tuples(st.just("inject"), st.integers(0, 3), st.floats(0.5, 8.0)),
        st.tuples(st.just("clear_effects")),
        st.tuples(st.just("restore_effects")),
        st.tuples(st.just("deactivate"), st.integers(0, 10**6)),
        st.tuples(st.just("activate"), st.integers(0, 10**6)),
        st.tuples(st.just("swap_store")),
    ),
    min_size=1,
    max_size=14,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(team=st.integers(0, 4), operations=_operations)
def test_memoized_vectors_match_oracle_across_mutations(
    sim, pool, team, operations
):
    config, scoped = pool[team]
    main, other = _stores(sim)
    snapshot = main.snapshot_effects()
    builder = FeatureBuilder(config, sim.topology, main)
    oracle = OracleFeatureBuilder(config, sim.topology, main)
    locators = sorted({ref.locator for ref in config.monitoring})
    # Every incident is read once up front so that later reads can hit.
    operations = [("features", k) for k in range(len(scoped))] + operations
    for operation in operations:
        name, args = operation[0], operation[1:]
        store = builder.store
        if name == "features":
            extracted, t = scoped[args[0] % len(scoped)]
            builder.clear_rows()  # what Scout.predict does per incident
            got = builder.features(extracted, t)
            oracle.store = store
            oracle.clear_cache()
            want = oracle.features(extracted, t)
            assert got.tobytes() == want.tobytes(), operations
        elif name == "inject":
            extracted, t = scoped[args[0] % len(scoped)]
            store.inject(_effect(store, config, extracted, t, args[1]))
        elif name == "clear_effects":
            store.clear_effects()
        elif name == "restore_effects":
            store.restore_effects(snapshot)
        elif name == "deactivate":
            store.deactivate(locators[args[0] % len(locators)])
        elif name == "activate":
            store.activate(locators[args[0] % len(locators)])
        else:
            builder.store = other if store is main else main


def _scoped(pool):
    config, scoped = pool[0]
    return config, scoped[0]


def test_repeat_reads_hit_and_mutations_or_a_new_store_miss(sim, pool):
    config, (extracted, t) = _scoped(pool)
    main, other = _stores(sim)
    builder = FeatureBuilder(config, sim.topology, main)
    builder.obs = Observability()
    metrics = builder.obs.metrics
    first = builder.features(extracted, t)
    pulled = _queries(metrics)
    assert pulled > 0
    builder.clear_rows()
    assert builder.features(extracted, t).tobytes() == first.tobytes()
    assert _queries(metrics) == pulled  # a hit pulls nothing
    assert _vector_hits(metrics) == 1
    # Each of the five store mutations drops the memo.
    effect = _effect(main, config, extracted, t, 4.0)
    locator = config.monitoring[0].locator
    snapshot = main.snapshot_effects()
    for mutate in (
        lambda: main.inject(effect),
        main.clear_effects,
        lambda: main.restore_effects(snapshot),
        lambda: main.deactivate(locator),
        lambda: main.activate(locator),
    ):
        mutate()
        before = _queries(metrics)
        builder.clear_rows()
        builder.features(extracted, t)
        assert _queries(metrics) > before
    assert _vector_hits(metrics) == 1
    # So does a different store object, even at the same mutation count.
    other.mutations = main.mutations
    builder.store = other
    before = _queries(metrics)
    builder.clear_rows()
    assert builder.features(extracted, t).tobytes() != first.tobytes()
    assert _queries(metrics) > before


def test_memo_evicts_oldest_at_its_cap_and_is_not_pickled(sim, pool):
    config, (extracted, t) = _scoped(pool)
    builder = FeatureBuilder(config, sim.topology, sim.store)
    builder.obs = Observability()
    cap = features_module._VECTOR_CAP
    times = [t + 60.0 * k for k in range(cap + 1)]
    for time in times:
        builder.features(extracted, time)
    assert len(builder._vector_memo) == cap
    assert all(key[0] != times[0] for key in builder._vector_memo)
    builder.features(extracted, times[-1])
    assert _vector_hits(builder.obs.metrics) == 1
    builder.features(extracted, times[0])  # evicted: rebuilt, no hit
    assert _vector_hits(builder.obs.metrics) == 1
    copy = pickle.loads(pickle.dumps(builder))
    assert copy._vector_memo == {} and copy._vector_stamp is None
    builder.clear_cache()
    assert builder._vector_memo == {}


# -- storms through the manager -------------------------------------------------


def test_faulted_storm_batch_matches_handle_loop_byte_identically(
    scout, incidents
):
    """Storm copies over a store failing 8% of its queries, with
    retries: the memo hits, calls fail, breakers trip, and a burst
    through ``handle_batch`` equals the same ``handle`` loop byte for
    byte."""
    distinct = [
        incident for incident in list(incidents)[:40]
        if not scout.extractor.extract(incident.text).is_empty
    ][:4]
    burst = _storm(distinct, 6, max(i.incident_id for i in incidents) + 1)
    healthy_store = scout.builder.store

    def run(batch: bool):
        clock = FakeClock()
        scout.builder.store = FaultyStore(
            healthy_store, FaultPlan(seed=3, error_rate=0.08)
        )
        manager = IncidentManager(
            default_teams(),
            clock=clock,
            scout_deadline=1.0,
            breaker=BreakerPolicy(failure_threshold=2, cooldown_seconds=2.0),
            retry=RetryPolicy(
                max_attempts=2, backoff_seconds=0.25, sleep=clock.advance
            ),
        )
        manager.register(scout)
        manager.register(
            FlakyScout(STORAGE, default="slow", responsible=False,
                       clock=clock, slow_seconds=0.5)
        )
        manager.register(FlakyScout(DNS, responsible=None))
        if batch:
            decisions = manager.handle_batch(burst)
        else:
            decisions = [manager.handle(incident) for incident in burst]
        stats = {t: manager.stats(t) for t in manager.registered_teams}
        return (
            decisions, manager.log, stats, manager.obs.render(),
            _vector_hits(manager.obs.metrics),
        )

    try:
        serial = run(batch=False)
        batch = run(batch=True)
    finally:
        scout.builder.store = healthy_store
    assert batch[0] == serial[0]
    assert repr(batch[1]) == repr(serial[1])
    assert batch[2] == serial[2]
    assert batch[3] == serial[3]
    assert serial[4] > 0  # the copies reused vectors
    assert "scout_breaker_transitions_total" in serial[3]
    assert any(
        o.status.value == "error" for d in serial[1] for o in d.outcomes
    )


@pytest.fixture(scope="module")
def deployment():
    return golden_deployment()


def _scoped_incidents(scouts, served) -> list:
    """Served incidents PhyNet finds components in (so it builds features)."""
    return [
        incident for incident in served
        if not scouts[0].extractor.extract(incident.text).is_empty
    ]


def _storm_manager(sim, scouts, clock):
    for scout in scouts:
        scout.obs = None
        scout.builder.obs = None
    manager = IncidentManager(sim.registry, clock=clock)
    for scout in scouts:
        manager.register(scout)
    return manager


def test_storm_decision_log_stays_lean(deployment):
    # The manager keeps every decision it serves.  A decision is a
    # two-slot view of the log's columns, with explanations interned,
    # so a storm's copies cost their scalars: ~600 B here, against
    # ~8.4 KB when each decision carried its own predictions, outcomes
    # and explanations.
    sim, scouts, served = deployment
    distinct = _scoped_incidents(scouts, served)[:4]
    next_id = max(incident.incident_id for incident in served) + 1
    # Traced from before the manager exists, so the spans its bounded
    # tracer evicts while measuring are subtracted as they are freed.
    tracemalloc.start()
    try:
        manager = _storm_manager(sim, scouts, FakeClock())
        # Warm up past the tracer's span bound and every interned value.
        while not manager.obs.trace.dropped:
            manager.handle_batch(_storm(distinct, 8, next_id))
            next_id += 32
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(8):
            manager.handle_batch(_storm(distinct, 8, next_id))
            next_id += 32
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _vector_hits(manager.obs.metrics) > 0
    assert retained / 256 < 1024


def test_decision_view_is_read_only_with_value_semantics(deployment):
    sim, scouts, served = deployment
    manager = _storm_manager(sim, scouts, FakeClock())
    first = manager.handle(served[0])
    again = _storm_manager(sim, scouts, FakeClock()).handle(served[0])
    assert isinstance(first, ServingDecision)
    assert first == again and repr(first) == repr(again)
    assert first is manager.log[0]
    assert first.answers == tuple(
        ScoutAnswer(o.team, p.responsible, p.confidence)
        for o, p in zip(first.outcomes, first.predictions)
    )
    assert first.stage_latencies[-1][0] == "compose"
    assert dict(first.model_epochs) == {s.team: 1 for s in scouts}
    with pytest.raises(AttributeError):
        first.suggested_team = "PhyNet"
    # Predictions are rebuilt per access: editing one edits no log.
    first.predictions[0].explanation.notes.append("edited")
    assert first == again


def test_each_manager_counts_from_empty_memos(deployment):
    # Registration clears every memo of the Scout's builder, so a second
    # manager's pulls and hits do not depend on what the first served.
    sim, scouts, served = deployment
    incident = _scoped_incidents(scouts, served)[0]

    def exposition():
        manager = _storm_manager(sim, scouts, FakeClock())
        manager.handle(incident)
        return manager.obs.render()

    first = exposition()
    assert exposition() == first
    assert 'kind="vector"' not in first


def test_serving_leaves_saved_bundles_unchanged(deployment, tmp_path):
    sim, scouts, served = deployment
    before = []
    for scout in scouts:
        save_scout(scout, tmp_path / f"{scout.team}.before")
        before.append((tmp_path / f"{scout.team}.before").read_bytes())
    manager = _storm_manager(sim, scouts, FakeClock())
    manager.handle_batch(_storm(served[:6], 3, 10**6))
    for scout, saved in zip(scouts, before):
        save_scout(scout, tmp_path / f"{scout.team}.after")
        assert (tmp_path / f"{scout.team}.after").read_bytes() == saved
