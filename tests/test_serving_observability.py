"""End-to-end observability of the serving path.

The acceptance contract: ``IncidentManager.handle()`` on a multi-Scout
registry produces a trace with per-Scout child spans and a metrics
snapshot whose per-``CallStatus`` counters, latency-histogram counts,
and :class:`ScoutServiceStats` fields are mutually consistent — and
under a fake clock two identical runs render byte-identical exposition
text.
"""

import pytest

from repro.analysis import (
    availability_from_registry,
    availability_report,
)
from repro.core import ScoutFramework, TrainingOptions
from repro.config import phynet_config
from repro.monitoring import FakeClock, FlakyScout
from repro.obs import Observability, parse_exposition
from repro.serving import (
    BreakerPolicy,
    CallStatus,
    IncidentManager,
)
from repro.simulation import default_teams
from repro.simulation.teams import DNS, PHYNET, STORAGE


def _manager(clock=None, **kwargs):
    return IncidentManager(
        default_teams(), clock=clock or FakeClock(), **kwargs
    )


def _three_scout_manager(clock):
    """One healthy-slow, one healthy-fast, one erroring Scout."""
    manager = _manager(clock=clock)
    manager.register(
        FlakyScout(PHYNET, default="slow", clock=clock, slow_seconds=0.02)
    )
    manager.register(FlakyScout(STORAGE, responsible=False))
    manager.register(FlakyScout(DNS, default="error"))
    return manager


# -- the acceptance scenario ------------------------------------------------


def test_handle_traces_every_scout_call(incidents):
    clock = FakeClock()
    manager = _three_scout_manager(clock)
    decision = manager.handle(incidents[0])

    assert decision.trace_id is not None
    spans = manager.obs.trace.trace(decision.trace_id)
    root = spans[0]
    assert root.name == "serve.handle"
    assert root.attributes["incident_id"] == incidents[0].incident_id
    assert root.attributes["suggested_team"] == decision.suggested_team
    children = manager.obs.trace.children(root)
    calls = [s for s in children if s.name == "scout.call"]
    assert {s.attributes["team"] for s in calls} == {PHYNET, STORAGE, DNS}
    by_team = {s.attributes["team"]: s for s in calls}
    assert by_team[PHYNET].attributes["status"] == "ok"
    assert by_team[PHYNET].duration == pytest.approx(0.02)
    assert by_team[DNS].attributes["status"] == "error"
    assert [s.name for s in children if s.name == "serve.compose"]


def test_metrics_stats_and_histogram_are_mutually_consistent(incidents):
    clock = FakeClock()
    manager = _three_scout_manager(clock)
    for incident in list(incidents)[:5]:
        manager.handle(incident)

    metrics = manager.obs.metrics
    calls = metrics.get("scout_calls_total")
    latency = metrics.get("scout_call_latency_seconds")
    for team in manager.registered_teams:
        stats = manager.stats(team)
        by_status = {
            status: calls.value(team=team, status=status.value)
            for status in CallStatus
        }
        assert sum(by_status.values()) == stats.calls
        assert by_status[CallStatus.ERROR] == stats.errors
        assert by_status[CallStatus.TIMEOUT] == stats.timeouts
        assert by_status[CallStatus.BREAKER_OPEN] == stats.breaker_open_skips
        # The histogram observes exactly the calls that reached the
        # Scout — the same set `total_latency` and `invoked` cover.
        assert latency.count(team=team) == stats.invoked
        assert latency.sum(team=team) == pytest.approx(stats.total_latency)
    assert metrics.get("serving_incidents_total").total() == 5
    assert metrics.get("serving_handle_latency_seconds").total_count() == 5
    # Every incident saw the erroring DNS Scout degrade.
    assert metrics.get("serving_degraded_incidents_total").total() == 5


def test_identical_runs_render_identical_exposition_bytes(incidents):
    def run() -> str:
        clock = FakeClock()
        manager = _three_scout_manager(clock)
        for incident in list(incidents)[:4]:
            manager.handle(incident)
        return manager.obs.render()

    first, second = run(), run()
    assert first == second
    parsed = parse_exposition(first)  # and it is well-formed
    assert parsed["serving_incidents_total"][()] == 4.0


def test_handle_batch_traces_match_a_serial_handle_loop(incidents):
    """Batch serving must be trace-indistinguishable from serial.

    There is deliberately no batch-level span: each incident gets its
    own ``serve.handle`` root, so the finished spans — trace and span
    ids, parents, names — are identical whether the burst went through
    ``handle_batch`` or a ``handle`` loop.
    """
    stream = list(incidents)[:3]

    serial = _manager()
    serial.register(FlakyScout(PHYNET))
    serial_ids = [serial.handle(i).trace_id for i in stream]

    manager = _manager()
    manager.register(FlakyScout(PHYNET))
    decisions = manager.handle_batch(stream)
    assert [d.trace_id for d in decisions] == serial_ids
    assert manager.obs.trace.finished_spans == serial.obs.trace.finished_spans
    roots = [
        s
        for s in manager.obs.trace.finished_spans
        if s.name == "serve.handle"
    ]
    assert len(roots) == 3
    assert all(
        s.name != "serve.handle_batch"
        for s in manager.obs.trace.finished_spans
    )


# -- satellite: latency accounting ------------------------------------------


def test_breaker_open_skip_has_no_latency(incidents):
    clock = FakeClock()
    manager = _manager(
        clock=clock,
        breaker=BreakerPolicy(failure_threshold=2, cooldown_seconds=60.0),
    )
    manager.register(
        FlakyScout(
            PHYNET,
            script=("slow", "error", "error"),
            default="ok",
            clock=clock,
            slow_seconds=0.5,
        )
    )
    stream = list(incidents)[:4]
    for incident in stream[:3]:
        manager.handle(incident)
    decision = manager.handle(stream[3])  # breaker open: skipped

    (outcome,) = decision.outcomes
    assert outcome.status is CallStatus.BREAKER_OPEN
    # Regression: a skipped call has *no* latency — None, not a 0.0
    # that would drag the mean down as if it answered instantly.
    assert outcome.latency_seconds is None
    assert not outcome.invoked
    assert ("scout." + PHYNET) not in dict(decision.stage_latencies)

    stats = manager.stats(PHYNET)
    assert stats.calls == 4 and stats.invoked == 3
    # errors advance the fake clock by 0: total latency is the slow call.
    assert stats.total_latency == pytest.approx(0.5)
    assert stats.mean_latency == pytest.approx(0.5 / 3)
    hist = manager.obs.metrics.get("scout_call_latency_seconds")
    assert hist.count(team=PHYNET) == stats.invoked
    assert hist.sum(team=PHYNET) == pytest.approx(stats.total_latency)


def test_stage_latencies_break_down_decision_latency(incidents):
    clock = FakeClock()
    manager = _manager(clock=clock)
    manager.register(
        FlakyScout(PHYNET, default="slow", clock=clock, slow_seconds=0.25)
    )
    manager.register(FlakyScout(STORAGE, responsible=False))
    decision = manager.handle(incidents[0])
    stages = dict(decision.stage_latencies)
    assert stages["scout." + PHYNET] == pytest.approx(0.25)
    assert stages["scout." + STORAGE] == pytest.approx(0.0)
    assert "compose" in stages
    assert sum(stages.values()) <= decision.latency_seconds + 1e-9


# -- satellite: breaker cycle visibility ------------------------------------


def test_breaker_cycle_is_visible_in_transition_events(incidents):
    clock = FakeClock()
    manager = _manager(
        clock=clock,
        breaker=BreakerPolicy(failure_threshold=3, cooldown_seconds=60.0),
    )
    manager.register(FlakyScout(PHYNET, script=("error",) * 3, default="ok"))
    transitions = manager.obs.metrics.get("scout_breaker_transitions_total")
    gauge = manager.obs.metrics.get("scout_breaker_state")
    stream = list(incidents)[:6]

    def seen() -> dict[tuple[str, str], int]:
        return {
            (labels["from_state"], labels["to_state"]): int(value)
            for labels, value in transitions.samples()
            if labels["team"] == PHYNET
        }

    for incident in stream[:3]:  # three errors trip the breaker
        manager.handle(incident)
    assert seen() == {("closed", "open"): 1}
    assert gauge.value(team=PHYNET) == 2

    manager.handle(stream[3])  # skipped outright: still open
    assert seen() == {("closed", "open"): 1}

    clock.advance(60.0)  # cool-down elapses: half-open probe succeeds
    manager.handle(stream[4])
    assert seen() == {
        ("closed", "open"): 1,
        ("open", "half_open"): 1,
        ("half_open", "closed"): 1,
    }
    assert gauge.value(team=PHYNET) == 0

    manager.handle(stream[5])  # closed and quiet: no new transitions
    assert sum(seen().values()) == 3
    # A stats snapshot can only show the latest state; the transition
    # stream is what proves the full CLOSED→OPEN→HALF_OPEN→CLOSED cycle.
    assert manager.stats(PHYNET).breaker_state == "closed"


# -- satellite: registry-driven availability --------------------------------


def test_availability_from_registry_matches_decision_log(incidents):
    clock = FakeClock()
    manager = _manager(
        clock=clock,
        scout_deadline=1.0,
        breaker=BreakerPolicy(failure_threshold=2, cooldown_seconds=30.0),
    )
    manager.register(
        FlakyScout(
            PHYNET,
            script=("error", "slow", "error", "error", "ok") * 3,
            clock=clock,
            slow_seconds=5.0,
        )
    )
    manager.register(FlakyScout(STORAGE, responsible=False))
    manager.register(FlakyScout(DNS, responsible=None))  # model abstains
    manager.handle_batch(list(incidents)[:15])

    from_log = availability_report(manager.log)
    from_registry = availability_from_registry(manager.obs.metrics)
    assert from_registry == from_log
    assert from_registry.scout_calls == 45
    assert from_registry.model_abstains == 15  # every DNS answer
    assert 0.0 < from_registry.availability < 1.0
    assert from_registry.render() == from_log.render()


def test_availability_from_registry_empty_registry():
    report = availability_from_registry(Observability().metrics)
    assert report.incidents == 0
    assert report.scout_calls == 0
    assert report.availability == 1.0


# -- real-Scout integration -------------------------------------------------


def test_real_scout_stages_and_queries_are_instrumented(incidents, scout):
    manager = _manager()
    # An earlier test's manager may already have threaded its own sink
    # into the session-scoped Scout; registration only injects into
    # un-instrumented Scouts, so start from the obs=None default.
    scout.obs = None
    scout.builder.obs = None
    manager.register(scout)
    try:
        decision = manager.handle(incidents[0])
        spans = manager.obs.trace.trace(decision.trace_id)
        names = [s.name for s in spans]
        call = next(s for s in spans if s.name == "scout.call")
        stage_names = {
            s.name
            for s in spans
            if s.parent_id == call.span_id
        }
        # The pipeline stages nest under the manager's per-Scout span.
        assert "scout.extract" in stage_names
        assert "scout.select" in stage_names
        assert stage_names & {"scout.features", "scout.infer_cpd"}
        assert names[0] == "serve.handle"

        metrics = manager.obs.metrics
        route = decision.predictions[0].route.value
        assert (
            metrics.get("scout_predictions_total").value(
                team=scout.team, route=route
            )
            == 1
        )
        assert metrics.get("monitoring_queries_total").total() > 0
    finally:
        # The session-scoped Scout must leave the test un-instrumented.
        scout.obs = None
        scout.builder.obs = None


def test_framework_training_phases_are_timed(sim, split):
    obs = Observability(clock=FakeClock())
    framework = ScoutFramework(
        phynet_config(),
        sim.topology,
        sim.store,
        TrainingOptions(n_estimators=10, cv_folds=2, rng=5),
        obs=obs,
    )
    train, _ = split
    trained = framework.train(train)

    phases = {
        labels["phase"]
        for labels, _ in obs.metrics.get("training_phase_seconds").samples()
    }
    assert phases == {
        "impute", "cross_validate", "forest_fit", "selector_fit", "cpd_fit",
    }
    assert obs.metrics.get("training_runs_total").total() == 1
    span_names = {s.name for s in obs.trace.finished_spans}
    assert "train" in span_names
    assert {"train.impute", "train.forest_fit"} <= span_names
    root = next(s for s in obs.trace.finished_spans if s.name == "train")
    assert root.attributes["team"] == trained.team
    # The trained Scout inherits the framework's sink.
    assert trained.obs is obs
    assert framework.builder.obs is obs
