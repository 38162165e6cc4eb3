"""Serving resilience: isolation, deadlines, breakers, retries, faults.

Every degradation mode of the §6 serving path is exercised here with
the deterministic fault-injection harness (`repro.monitoring.faults`):
a faulted Scout degrades to an abstain with a recorded cause, breakers
open and recover via half-open probes, transient monitoring errors
retry, and `handle`/`handle_batch` never raise and never lose an
incident.
"""

import pytest

from repro.core import Route
from repro.datacenter import ComponentKind
from repro.monitoring import (
    FakeClock,
    FaultPlan,
    FaultyStore,
    FlakyScout,
    TransientMonitoringError,
)
from repro.serving import (
    BreakerPolicy,
    BreakerState,
    CallStatus,
    CircuitBreaker,
    IncidentManager,
    RetryPolicy,
)
from repro.analysis import availability_report, per_team_outcomes
from repro.obs import Observability
from repro.simulation import default_teams
from repro.simulation.teams import DNS, PHYNET, STORAGE


# -- circuit breaker state machine ----------------------------------------


def test_breaker_opens_after_threshold():
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerPolicy(failure_threshold=3, cooldown_seconds=10.0), clock
    )
    for _ in range(2):
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow()
    assert breaker.times_opened == 1


def test_breaker_half_open_probe_success_closes():
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerPolicy(failure_threshold=1, cooldown_seconds=5.0), clock
    )
    breaker.record_failure()
    assert not breaker.allow()
    clock.advance(5.0)
    assert breaker.state is BreakerState.HALF_OPEN  # read never commits
    assert breaker.allow()  # the probe
    assert breaker.probes == 1
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.consecutive_failures == 0


def test_breaker_half_open_probe_failure_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(
        BreakerPolicy(failure_threshold=1, cooldown_seconds=5.0), clock
    )
    breaker.record_failure()
    clock.advance(5.0)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow()  # cool-down restarted
    assert breaker.times_opened == 2
    clock.advance(5.0)
    assert breaker.allow()


def test_breaker_success_resets_failure_streak():
    breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2), FakeClock())
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED


def test_breaker_policy_validation():
    with pytest.raises(ValueError):
        BreakerPolicy(failure_threshold=0)
    with pytest.raises(ValueError):
        BreakerPolicy(cooldown_seconds=-1.0)


# -- retry policy ----------------------------------------------------------


def test_retry_then_succeed_with_deterministic_backoff():
    clock = FakeClock()
    policy = RetryPolicy(
        max_attempts=3, backoff_seconds=0.5, backoff_multiplier=2.0,
        sleep=clock.advance,
    )
    attempts = []

    def flaky():
        attempts.append(clock.now)
        if len(attempts) < 3:
            raise TransientMonitoringError("blip")
        return "value"

    assert policy.call(flaky) == "value"
    # Deterministic geometric schedule: tries at t=0, 0.5, 1.5.
    assert attempts == [0.0, 0.5, 1.5]
    assert policy.delays() == [0.5, 1.0]


def test_retry_exhaustion_raises_last_error():
    policy = RetryPolicy(
        max_attempts=2, backoff_seconds=0.0, sleep=lambda s: None
    )
    calls = []

    def always_fails():
        calls.append(1)
        raise TransientMonitoringError("down")

    with pytest.raises(TransientMonitoringError, match="down"):
        policy.call(always_fails)
    assert len(calls) == 2


def test_retry_ignores_non_retryable():
    policy = RetryPolicy(max_attempts=5, sleep=lambda s: None)
    calls = []

    def broken():
        calls.append(1)
        raise ValueError("not transient")

    with pytest.raises(ValueError):
        policy.call(broken)
    assert len(calls) == 1


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_seconds=-0.1)


# -- fault plan / faulty store ---------------------------------------------


def test_fault_plan_fixed_ordinals_and_fail_first():
    plan = FaultPlan(fail_first=2, fail_queries=frozenset({5}))
    assert [plan.should_fail(n) for n in range(1, 7)] == [
        True, True, False, False, True, False,
    ]


def test_fault_plan_error_rate_is_deterministic():
    plan_a = FaultPlan(seed=3, error_rate=0.3)
    plan_b = FaultPlan(seed=3, error_rate=0.3)
    draws_a = [plan_a.should_fail(n) for n in range(1, 200)]
    draws_b = [plan_b.should_fail(n) for n in range(1, 200)]
    assert draws_a == draws_b
    rate = sum(draws_a) / len(draws_a)
    assert 0.15 < rate < 0.45  # roughly the configured rate
    assert draws_a != [
        plan.should_fail(n)
        for plan in [FaultPlan(seed=4, error_rate=0.3)]
        for n in range(1, 200)
    ]


def test_faulty_store_injects_and_delegates(sim):
    clock = FakeClock()
    store = FaultyStore(
        sim.store, FaultPlan(fail_first=1, latency_seconds=0.25), clock
    )
    # Non-query attributes delegate untouched.
    assert store.dataset_names == sim.store.dataset_names
    dataset = sim.store.dataset_names[0]
    assert store.schema(dataset) is sim.store.schema(dataset)

    component = sim.topology.components(ComponentKind.SERVER)[0]
    with pytest.raises(TransientMonitoringError, match="query #1"):
        try:
            store.query_series(dataset, component, 0.0, 1.0)
        except ValueError:  # EVENT-kind dataset: use the event query
            store.query_events(dataset, component, 0.0, 1.0)
    assert store.injected_errors == 1
    assert clock.now == pytest.approx(0.25)  # injected latency


def test_faulty_store_dataset_filter(sim):
    names = sim.store.dataset_names
    target, other = names[0], names[1]
    store = FaultyStore(
        sim.store, FaultPlan(fail_first=100, datasets=frozenset({target}))
    )
    component = sim.topology.components(ComponentKind.SERVER)[0]
    for _ in range(3):  # untargeted datasets never fault, never count
        try:
            store.query_series(other, component, 0.0, 1.0)
        except ValueError:
            store.query_events(other, component, 0.0, 1.0)
    assert store.queries == 0
    with pytest.raises(TransientMonitoringError):
        try:
            store.query_series(target, component, 0.0, 1.0)
        except ValueError:
            store.query_events(target, component, 0.0, 1.0)


def test_faulty_store_gates_every_store_query(sim):
    # FaultyStore forwards what it does not override, so a store query
    # it missed would reach the store ungated and drills would silently
    # stop injecting into it.
    import inspect

    from repro.monitoring.base import DataKind
    from repro.monitoring.store import MonitoringStore

    queries = sorted(
        name
        for name, value in vars(MonitoringStore).items()
        if name.startswith("query_") and callable(value)
    )
    assert {"query_series_matrix", "query_event_type_counts_matrix"} <= set(
        queries
    )
    component = sim.topology.components(ComponentKind.SERVER)[0]
    by_kind = {}
    for name in sim.store.dataset_names:
        schema = sim.store.schema(name)
        if schema.covers(component.kind):
            by_kind.setdefault(schema.kind, name)
    for query in queries:
        assert query in vars(FaultyStore), f"FaultyStore forwards {query}"
        params = inspect.signature(getattr(MonitoringStore, query)).parameters
        target = [component] if "components" in params else component
        kind = DataKind.TIME_SERIES if "series" in query else DataKind.EVENT
        dataset = by_kind[kind]
        store = FaultyStore(sim.store, FaultPlan(fail_first=1))
        with pytest.raises(TransientMonitoringError):
            getattr(store, query)(dataset, target, 0.0, 3600.0)
        getattr(store, query)(dataset, target, 0.0, 3600.0)
        assert store.queries == 2, query


# -- failure isolation in the manager --------------------------------------


def _manager(clock=None, **kwargs):
    return IncidentManager(
        default_teams(), clock=clock or FakeClock(), **kwargs
    )


def test_erroring_scout_degrades_to_abstain(incidents):
    manager = _manager()
    manager.register(FlakyScout(PHYNET, default="error"))
    manager.register(FlakyScout(STORAGE, responsible=True))
    decision = manager.handle(incidents[0])
    by_team = {o.team: o for o in decision.outcomes}
    assert by_team[PHYNET].status is CallStatus.ERROR
    assert "scripted failure" in by_team[PHYNET].error
    assert by_team[STORAGE].status is CallStatus.OK
    # The failed Scout abstained; the healthy one still routed.
    answers = {a.team: a for a in decision.answers}
    assert answers[PHYNET].responsible is None
    assert decision.suggested_team == STORAGE
    assert decision.degraded
    stats = manager.stats(PHYNET)
    assert stats.errors == 1 and stats.abstained == 1
    assert manager.stats(STORAGE).errors == 0


def test_deadline_overrun_becomes_timeout_abstain(incidents):
    clock = FakeClock()
    manager = _manager(clock=clock, scout_deadline=1.0)
    manager.register(
        FlakyScout(PHYNET, default="slow", clock=clock, slow_seconds=5.0)
    )
    decision = manager.handle(incidents[0])
    (outcome,) = decision.outcomes
    assert outcome.status is CallStatus.TIMEOUT
    assert outcome.latency_seconds == pytest.approx(5.0)
    assert decision.answers[0].responsible is None
    assert decision.predictions[0].route is Route.FALLBACK
    assert manager.stats(PHYNET).timeouts == 1


def test_fast_calls_pass_deadline(incidents):
    clock = FakeClock()
    manager = _manager(clock=clock, scout_deadline=1.0)
    manager.register(
        FlakyScout(PHYNET, default="slow", clock=clock, slow_seconds=0.5)
    )
    decision = manager.handle(incidents[0])
    assert decision.outcomes[0].status is CallStatus.OK
    assert decision.suggested_team == PHYNET


def test_breaker_opens_then_recovers_via_probe(incidents):
    clock = FakeClock()
    manager = _manager(
        clock=clock,
        breaker=BreakerPolicy(failure_threshold=3, cooldown_seconds=60.0),
    )
    flaky = FlakyScout(PHYNET, script=("error",) * 3, default="ok")
    manager.register(flaky)
    stream = list(incidents)[:6]

    for incident in stream[:3]:  # three consecutive failures trip it
        assert manager.handle(incident).outcomes[0].status is CallStatus.ERROR
    assert manager.degraded_teams == [PHYNET]
    assert manager.stats(PHYNET).breaker_state == "open"

    decision = manager.handle(stream[3])  # skipped outright
    assert decision.outcomes[0].status is CallStatus.BREAKER_OPEN
    assert flaky.calls == 3  # the Scout was not invoked
    assert decision.answers[0].responsible is None
    assert manager.stats(PHYNET).breaker_open_skips == 1

    clock.advance(60.0)  # cool-down elapses: half-open probe
    decision = manager.handle(stream[4])
    assert decision.outcomes[0].status is CallStatus.OK
    assert flaky.calls == 4
    assert manager.breaker(PHYNET).probes == 1
    assert manager.degraded_teams == []
    assert manager.stats(PHYNET).breaker_state == "closed"

    decision = manager.handle(stream[5])  # closed again: calls flow
    assert decision.outcomes[0].status is CallStatus.OK


def test_breaker_disabled_when_policy_none(incidents):
    manager = _manager(breaker=None)
    flaky = FlakyScout(PHYNET, default="error")
    manager.register(flaky)
    for incident in list(incidents)[:8]:
        status = manager.handle(incident).outcomes[0].status
        assert status is CallStatus.ERROR
    assert flaky.calls == 8  # every call went through
    assert manager.breaker(PHYNET) is None
    assert manager.degraded_teams == []


def test_handle_batch_with_flapping_minority(incidents):
    clock = FakeClock()
    manager = _manager(
        clock=clock,
        scout_deadline=1.0,
        breaker=BreakerPolicy(failure_threshold=2, cooldown_seconds=30.0),
        n_jobs=2,
    )
    # A strict minority flaps (errors and stalls); the majority is healthy.
    manager.register(
        FlakyScout(
            PHYNET,
            script=("error", "slow", "error", "error", "ok") * 4,
            clock=clock,
            slow_seconds=5.0,
        )
    )
    manager.register(FlakyScout(STORAGE, responsible=False))
    manager.register(FlakyScout(DNS, responsible=False))

    stream = list(incidents)[:20]
    decisions = manager.handle_batch(stream)

    # Never lose an incident, and the log stays in arrival order.
    assert len(decisions) == len(stream)
    assert [d.incident_id for d in manager.log] == [
        i.incident_id for i in stream
    ]
    for decision in decisions:
        assert len(decision.answers) == 3
        healthy = {
            o.team: o.status for o in decision.outcomes
        }
        assert healthy[STORAGE] is CallStatus.OK
        assert healthy[DNS] is CallStatus.OK
    # The flapping Scout actually exercised every degradation mode.
    stats = manager.stats(PHYNET)
    assert stats.errors > 0 and stats.timeouts > 0
    assert stats.breaker_open_skips > 0
    assert stats.calls == 20
    assert (
        stats.said_yes + stats.said_no + stats.abstained == stats.calls
    )
    assert stats.availability < 1.0
    assert manager.stats(STORAGE).availability == 1.0


def test_manager_threads_retry_policy_into_scouts(incidents):
    policy = RetryPolicy(max_attempts=2, sleep=lambda s: None)
    manager = _manager(retry=policy)

    class RetryAwareScout(FlakyScout):
        retry_policy = None

    scout = RetryAwareScout(PHYNET)
    manager.register(scout)
    assert scout.retry_policy is policy
    # Doubles without the attribute are left alone.
    plain = FlakyScout(STORAGE)
    manager.register(plain)
    assert not hasattr(plain, "retry_policy")


# -- registration lifecycle regressions ------------------------------------


def test_unregister_clears_all_serving_state(incidents):
    manager = _manager()
    manager.register(FlakyScout(PHYNET))
    manager.handle(incidents[0])
    manager.resolve(incidents[0].incident_id, PHYNET)
    assert manager.drift_monitor(PHYNET).observations == 1

    manager.unregister(PHYNET)
    with pytest.raises(KeyError):
        manager.stats(PHYNET)
    with pytest.raises(KeyError):
        manager.drift_monitor(PHYNET)
    with pytest.raises(KeyError):
        manager.breaker(PHYNET)

    # Re-registration starts from an explicitly clean slate.
    manager.register(FlakyScout(PHYNET))
    assert manager.stats(PHYNET).calls == 0
    assert manager.drift_monitor(PHYNET).observations == 0


def test_resolve_after_unregister_skips_missing_monitor(incidents):
    manager = _manager()
    manager.register(FlakyScout(PHYNET))
    manager.register(FlakyScout(STORAGE, responsible=False))
    manager.handle(incidents[0])
    manager.unregister(STORAGE)
    # Regression: this used to KeyError on the unregistered team.
    manager.resolve(incidents[0].incident_id, PHYNET)
    assert manager.drift_monitor(PHYNET).observations == 1


def test_resolve_is_idempotent(incidents):
    manager = _manager()
    manager.register(FlakyScout(PHYNET))
    manager.handle(incidents[0])
    manager.resolve(incidents[0].incident_id, PHYNET)
    manager.resolve(incidents[0].incident_id, PHYNET)  # no double count
    assert manager.drift_monitor(PHYNET).observations == 1


def test_reserved_incident_scores_only_latest_decision(incidents):
    manager = _manager()
    manager.register(FlakyScout(PHYNET))
    incident = incidents[0]
    manager.handle(incident)
    manager.handle(incident)  # re-served before any resolution
    manager.resolve(incident.incident_id, PHYNET)
    # Only the latest decision is scored; the stale one is retired.
    assert manager.drift_monitor(PHYNET).observations == 1
    manager.resolve(incident.incident_id, PHYNET)
    assert manager.drift_monitor(PHYNET).observations == 1

    manager.handle(incident)  # re-served *after* resolution
    manager.resolve(incident.incident_id, PHYNET)
    assert manager.drift_monitor(PHYNET).observations == 2


def test_resolve_unserved_incident_still_raises(incidents):
    manager = _manager()
    manager.register(FlakyScout(PHYNET))
    with pytest.raises(KeyError):
        manager.resolve(987654321, PHYNET)


# -- availability accounting -----------------------------------------------


def test_availability_report_counts_causes(incidents):
    clock = FakeClock()
    manager = _manager(
        clock=clock,
        scout_deadline=1.0,
        breaker=BreakerPolicy(failure_threshold=2, cooldown_seconds=1e9),
    )
    manager.register(
        FlakyScout(
            PHYNET,
            script=("error", "slow"),
            default="ok",  # never reached: the breaker stays open
            clock=clock,
            slow_seconds=5.0,
        )
    )
    manager.register(FlakyScout(STORAGE, responsible=None))
    stream = list(incidents)[:4]
    decisions = manager.handle_batch(stream)

    report = availability_report(decisions)
    assert report.incidents == 4
    assert report.scout_calls == 8
    assert report.errors == 1
    assert report.timeouts == 1
    assert report.breaker_open == 2
    assert report.ok == 4
    assert report.model_abstains == 4  # STORAGE's healthy abstains
    assert report.fault_abstains == 4
    assert report.degraded_incidents == 4
    assert report.availability == pytest.approx(0.5)
    causes = report.abstain_causes
    assert causes["model_fallback"] == 4
    assert causes["error"] == 1 and causes["timeout"] == 1
    assert causes["breaker_open"] == 2

    by_team = per_team_outcomes(decisions)
    assert by_team[PHYNET] == {"error": 1, "timeout": 1, "breaker_open": 2}
    assert by_team[STORAGE] == {"ok": 4}
    assert "availability" in report.render()


# -- retry through real monitoring pulls -----------------------------------


def _monitoring_backed_incident(scout, incidents):
    for incident in incidents:
        route = scout.predict(incident).route
        if route in (Route.SUPERVISED, Route.UNSUPERVISED):
            return incident
    pytest.skip("no monitoring-backed incident in the sample")


def test_scout_retry_through_real_monitoring_pulls(scout, sim, incidents):
    incident = _monitoring_backed_incident(scout, incidents)
    baseline = scout.predict(incident)
    healthy_store = scout.builder.store
    try:
        # Without a retry policy the transient error escapes predict
        # (and would be isolated by the manager).
        scout.builder.store = FaultyStore(healthy_store, FaultPlan(fail_first=1))
        with pytest.raises(TransientMonitoringError):
            scout.predict(incident)

        # With a retry policy the same fault is absorbed, and the
        # verdict is bit-identical to the healthy run.
        faulty = FaultyStore(healthy_store, FaultPlan(fail_first=1))
        scout.builder.store = faulty
        scout.retry_policy = RetryPolicy(
            max_attempts=2, backoff_seconds=0.0, sleep=lambda s: None
        )
        prediction = scout.predict(incident)
        assert faulty.injected_errors == 1
        assert prediction.responsible == baseline.responsible
        assert prediction.confidence == pytest.approx(baseline.confidence)
        assert prediction.route is baseline.route
    finally:
        scout.builder.store = healthy_store
        scout.retry_policy = None


def test_manager_isolates_real_scout_monitoring_outage(
    scout, sim, incidents
):
    incident = _monitoring_backed_incident(scout, incidents)
    healthy_store = scout.builder.store
    try:
        scout.builder.store = FaultyStore(
            healthy_store, FaultPlan(error_rate=1.0)
        )
        manager = IncidentManager(default_teams(), clock=FakeClock())
        manager.register(scout)
        decision = manager.handle(incident)  # must not raise
        (outcome,) = decision.outcomes
        assert outcome.status is CallStatus.ERROR
        assert decision.answers[0].responsible is None
    finally:
        scout.builder.store = healthy_store
        scout.retry_policy = None
        # register() wired the session scout's sinks into this test's
        # manager; unhook them so later suites adopt their own.
        scout.obs = None
        scout.builder.obs = None


def _retrying_manager(clock):
    return IncidentManager(
        default_teams(),
        clock=clock,
        retry=RetryPolicy(
            max_attempts=2, backoff_seconds=0.25, sleep=clock.advance
        ),
    )


def test_second_manager_owns_the_policies_it_threads(scout, incidents):
    # A Scout registered with manager A and then with manager B serves
    # under B's retry policy and sink: a faulted pull backs off on B's
    # clock, and A's clock and counters stay untouched.
    incident = _monitoring_backed_incident(scout, incidents)
    healthy_store = scout.builder.store
    clock_a, clock_b = FakeClock(), FakeClock()
    first, second = _retrying_manager(clock_a), _retrying_manager(clock_b)
    try:
        first.register(scout)
        second.register(scout)
        assert scout.retry_policy is second.retry_policy
        assert scout.obs is second.obs and scout.builder.obs is second.obs
        scout.builder.store = FaultyStore(healthy_store, FaultPlan(fail_first=1))
        (outcome,) = second.handle(incident).outcomes
        assert outcome.status is CallStatus.OK
        assert clock_b.now == 0.25
        assert clock_a.now == 0.0
        retries = "scout_retry_attempts_total"
        assert second.obs.metrics.get(retries).total() == 1
        assert first.obs.metrics.get(retries) is None
    finally:
        scout.builder.store = healthy_store
        scout.retry_policy = None
        scout.obs = None
        scout.builder.obs = None


def test_a_scouts_own_policies_survive_registration(scout):
    own_policy = RetryPolicy(max_attempts=3, sleep=lambda s: None)
    own_obs = Observability()
    try:
        _retrying_manager(FakeClock()).register(scout)
        scout.retry_policy = own_policy
        scout.obs = own_obs
        scout.builder.obs = own_obs
        manager = _retrying_manager(FakeClock())
        manager.register(scout)
        assert scout.retry_policy is own_policy
        assert scout.obs is own_obs and scout.builder.obs is own_obs
    finally:
        scout.retry_policy = None
        scout.obs = None
        scout.builder.obs = None
