"""The streaming ingestion tier: queue, shedding, SLOs, determinism.

Tentpole acceptance: the stream server is a queue-driven front end over
the incident manager — bounded admission with backpressure, severity-
priority scheduling, load shedding that degrades to the legacy router
or the selector-only triage fast path, and per-stage p99 SLO budgets —
and under a fake clock the whole thing is deterministic: same seed +
same arrival trace ⇒ byte-identical decision log, shed set, and
Prometheus exposition, including under injected monitoring faults with
breakers tripping mid-stream.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import slo_report
from repro.core.selector import Route
from repro.incidents import Incident, IncidentSource, Severity
from repro.monitoring import FakeClock, FaultPlan, FaultyStore, FlakyScout
from repro.obs import Observability, catalog
from repro.serving import (
    BreakerPolicy,
    IncidentManager,
    SLOTracker,
    ShedPolicy,
    StreamServer,
    StreamStatus,
    poisson_arrivals,
)
from repro.simulation import default_teams
from repro.simulation.teams import DNS, PHYNET, STORAGE

SEVS = (Severity.LOW, Severity.MEDIUM, Severity.HIGH)


def _mk(i: int, severity: Severity = Severity.MEDIUM) -> Incident:
    return Incident(
        incident_id=i,
        created_at=0.0,
        title=f"stream incident {i}",
        body="synthetic stream traffic",
        severity=severity,
        source=IncidentSource.OWN_MONITOR,
        source_team=PHYNET,
        responsible_team=PHYNET,
    )


def _flaky_manager(clock, **kwargs):
    manager = IncidentManager(default_teams(), clock=clock, **kwargs)
    manager.register(FlakyScout(PHYNET, responsible=True))
    manager.register(FlakyScout(STORAGE, responsible=False))
    manager.register(FlakyScout(DNS, responsible=None))
    return manager


def _reset_scout(scout) -> None:
    scout.obs = None
    scout.builder.obs = None
    scout.builder.clear_cache()


# -- determinism: the tentpole contract --------------------------------------


class TestStreamDeterminism:
    def _soak(self):
        clock = FakeClock()
        manager = _flaky_manager(clock)
        server = StreamServer(
            manager,
            queue_cap=4,
            shed_policy=ShedPolicy.TRIAGE,
            slo={"queue": 0.05, "handle": 0.5},
            service_time=0.01,
        )
        offsets = poisson_arrivals(60, rate=400.0, seed=3)
        arrivals = [
            (float(o), _mk(i, SEVS[i % 3])) for i, o in enumerate(offsets)
        ]
        outcomes = server.run(arrivals)
        return manager, server, outcomes

    def test_same_seed_same_trace_is_byte_identical(self):
        manager_a, server_a, outcomes_a = self._soak()
        manager_b, server_b, outcomes_b = self._soak()
        assert outcomes_a == outcomes_b
        assert manager_a.log == manager_b.log
        assert [o.incident_id for o in server_a.shed_outcomes] == [
            o.incident_id for o in server_b.shed_outcomes
        ]
        assert manager_a.obs.render() == manager_b.obs.render()
        # The soak actually exercised both sides of the split.
        assert server_a.shed_outcomes and any(
            not o.shed for o in outcomes_a
        )

    def test_outcomes_cover_every_arrival_exactly_once(self):
        _, _, outcomes = self._soak()
        assert sorted(o.incident_id for o in outcomes) == list(range(60))

    def test_fault_injected_stream_with_breaker_trips_is_deterministic(
        self, sim, scout, incidents
    ):
        """FaultyStore faults + a breaker tripping mid-stream stay on
        the determinism contract: two identical runs produce identical
        shed decisions and byte-identical exposition."""
        stream = [
            replace(incident, severity=SEVS[pos % 3])
            for pos, incident in enumerate(list(incidents)[:18])
        ]
        store = scout.builder.store

        def run_once():
            # Start from a pristine scout: earlier suites may have left
            # obs/cache wiring behind, and register() only adopts a
            # Scout whose sinks are unset.
            _reset_scout(scout)
            clock = FakeClock()
            scout.builder.store = FaultyStore(
                store,
                FaultPlan(seed=5, error_rate=0.35, latency_seconds=0.3),
                clock=clock,
            )
            manager = IncidentManager(
                sim.registry,
                clock=clock,
                breaker=BreakerPolicy(
                    failure_threshold=2, cooldown_seconds=60.0
                ),
            )
            manager.register(scout)
            server = StreamServer(
                manager,
                queue_cap=2,
                shed_policy=ShedPolicy.TRIAGE,
                slo={"handle": 0.1},
                slo_check_interval=4,
                service_time=0.02,
            )
            offsets = poisson_arrivals(len(stream), rate=120.0, seed=9)
            outcomes = server.run(
                list(zip(map(float, offsets), stream))
            )
            exposition = manager.obs.render()
            _reset_scout(scout)
            return outcomes, server, exposition

        try:
            outcomes_a, server_a, expo_a = run_once()
            outcomes_b, server_b, expo_b = run_once()
        finally:
            scout.builder.store = store
            _reset_scout(scout)
        assert [
            (o.incident_id, o.status, o.shed_reason) for o in outcomes_a
        ] == [(o.incident_id, o.status, o.shed_reason) for o in outcomes_b]
        assert expo_a == expo_b
        # The run really did trip a breaker and really did shed.
        assert "scout_breaker_transitions_total" in expo_a
        assert server_a.shed_outcomes

    def test_poisson_arrivals_are_deterministic_and_increasing(self):
        a = poisson_arrivals(100, rate=5.0, seed=13)
        b = poisson_arrivals(100, rate=5.0, seed=13)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0.0)
        assert not np.array_equal(a, poisson_arrivals(100, 5.0, seed=14))
        with pytest.raises(ValueError):
            poisson_arrivals(5, rate=0.0)


# -- admission, priority, eviction -------------------------------------------


class TestBackpressure:
    def test_full_queue_sheds_arrivals(self):
        server = StreamServer(_flaky_manager(FakeClock()), queue_cap=3)
        shed = [
            server.submit(_mk(i, Severity.MEDIUM)) for i in range(5)
        ]
        assert [o is None for o in shed] == [True, True, True, False, False]
        assert server.depth == 3
        assert all(
            o.status is StreamStatus.SHED_LEGACY
            and o.shed_reason == "queue_full"
            for o in shed[3:]
        )

    def test_high_severity_evicts_newest_lowest_waiter(self):
        server = StreamServer(_flaky_manager(FakeClock()), queue_cap=3)
        for i in range(3):
            assert server.submit(_mk(i, Severity.LOW)) is None
        assert server.submit(_mk(99, Severity.HIGH)) is None  # admitted
        assert server.depth == 3
        # The newest LOW waiter (id 2) was evicted and shed in its place.
        evicted = server.shed_outcomes
        assert [o.incident_id for o in evicted] == [2]
        assert evicted[0].shed_reason == "queue_full"
        served = [server.process_one() for _ in range(3)]
        assert [o.incident_id for o in served] == [99, 0, 1]

    def test_equal_severity_never_evicts(self):
        server = StreamServer(_flaky_manager(FakeClock()), queue_cap=2)
        assert server.submit(_mk(0, Severity.MEDIUM)) is None
        assert server.submit(_mk(1, Severity.MEDIUM)) is None
        shed = server.submit(_mk(2, Severity.MEDIUM))
        assert shed is not None and shed.incident_id == 2
        assert server.shed_outcomes == []  # nothing was evicted

    def test_queue_drains_highest_severity_first(self):
        server = StreamServer(_flaky_manager(FakeClock()), queue_cap=8)
        for i, sev in enumerate(
            (Severity.LOW, Severity.HIGH, Severity.MEDIUM, Severity.HIGH)
        ):
            server.submit(_mk(i, sev))
        order = [server.process_one().incident_id for _ in range(4)]
        assert order == [1, 3, 2, 0]  # HIGH FIFO, then MEDIUM, then LOW

    def test_queue_depth_gauge_tracks_the_queue(self):
        manager = _flaky_manager(FakeClock())
        server = StreamServer(manager, queue_cap=4)
        gauge = manager.obs.metrics.get("stream_queue_depth")
        for i in range(3):
            server.submit(_mk(i))
        assert gauge.value() == 3.0
        server.process_one()
        assert gauge.value() == 2.0


# -- shed policies: legacy fallback vs triage fast path ----------------------


class TestShedPolicies:
    def test_legacy_shed_does_no_scout_work(self):
        manager = _flaky_manager(FakeClock())
        server = StreamServer(
            manager, queue_cap=1, shed_policy=ShedPolicy.LEGACY
        )
        server.submit(_mk(0))
        shed = server.submit(_mk(1))
        assert shed.status is StreamStatus.SHED_LEGACY
        assert shed.suggested_team is None
        assert shed.triage_routes == ()
        # No fan-out happened for the shed incident.
        incidents_total = manager.obs.metrics.get("serving_incidents_total")
        assert incidents_total.total() == 0.0

    def test_triage_without_selectors_reports_unknown_and_abstains(self):
        manager = _flaky_manager(FakeClock())
        server = StreamServer(
            manager, queue_cap=1, shed_policy=ShedPolicy.TRIAGE
        )
        server.submit(_mk(0))
        shed = server.submit(_mk(1))
        assert shed.status is StreamStatus.SHED_TRIAGE
        assert shed.suggested_team is None  # FlakyScouts have no selector
        assert shed.triage_routes == (
            (DNS, "unknown"), (PHYNET, "unknown"), (STORAGE, "unknown")
        )

    def test_triage_suggests_the_sole_model_routed_candidate(
        self, sim, scout, incidents
    ):
        """The selector-only fast path: with one registered Scout whose
        selector routes the incident to a model, triage suggests that
        team without any monitoring pulls or inference."""
        candidate = None
        for incident in incidents:
            extracted = scout.extractor.extract(incident.text)
            decision = scout.selector.decide(
                incident.title, incident.body, extracted
            )
            if decision.route in (Route.SUPERVISED, Route.UNSUPERVISED):
                candidate = incident
                break
        assert candidate is not None, "no model-routed incident in fixture"
        try:
            manager = IncidentManager(sim.registry, clock=FakeClock())
            manager.register(scout)
            server = StreamServer(
                manager, queue_cap=1, shed_policy=ShedPolicy.TRIAGE
            )
            first = replace(candidate, severity=Severity.MEDIUM)
            second = replace(
                candidate,
                incident_id=candidate.incident_id + 1_000_000,
                severity=Severity.MEDIUM,
            )
            assert server.submit(first) is None
            shed = server.submit(second)
            assert shed.status is StreamStatus.SHED_TRIAGE
            assert shed.suggested_team == scout.team
            assert dict(shed.triage_routes)[scout.team] in ("rf", "cpd+")
            triage = manager.obs.metrics.get(
                "stream_triage_suggestions_total"
            )
            assert triage.total() == 1.0
        finally:
            _reset_scout(scout)


# -- SLO budgets and degraded mode -------------------------------------------


class TestSLOTracker:
    def test_interval_p99_recovers_where_cumulative_cannot(self):
        obs = Observability(clock=FakeClock())
        histogram = obs.metrics.histogram(
            catalog.SERVING_HANDLE_LATENCY_SECONDS
        )
        tracker = SLOTracker(obs.metrics, {"handle": 0.1}, min_samples=8)
        for _ in range(20):
            histogram.observe(1.0)  # a bad interval
        violations = tracker.check()
        assert [v.stage for v in violations] == ["handle"]
        assert violations[0].p99 == 1.0 and violations[0].samples == 20
        for _ in range(20):
            histogram.observe(0.001)  # a clean interval
        assert tracker.check() == []  # cumulative p99 is still 1.0
        gauge = obs.metrics.get("stream_slo_p99_seconds")
        assert gauge.value(stage="handle") == 0.001
        counter = obs.metrics.get("stream_slo_violations_total")
        assert counter.value(stage="handle") == 1.0

    def test_thin_intervals_return_no_verdict(self):
        obs = Observability(clock=FakeClock())
        histogram = obs.metrics.histogram(
            catalog.SERVING_HANDLE_LATENCY_SECONDS
        )
        tracker = SLOTracker(obs.metrics, {"handle": 0.01}, min_samples=8)
        for _ in range(7):
            histogram.observe(5.0)
        assert tracker.check() == []  # 7 < min_samples: no flap
        histogram.observe(5.0)
        assert len(tracker.check()) == 1  # the same samples now count

    def test_unknown_stage_and_bad_budget_are_rejected(self):
        obs = Observability(clock=FakeClock())
        with pytest.raises(ValueError, match="unknown SLO stage"):
            SLOTracker(obs.metrics, {"compose": 0.1})
        with pytest.raises(ValueError, match="must be > 0"):
            SLOTracker(obs.metrics, {"handle": 0.0})

    def test_violation_flips_degraded_mode_and_sheds_sub_high(self):
        manager = _flaky_manager(FakeClock())
        server = StreamServer(
            manager,
            queue_cap=64,
            slo={"queue": 0.001},
            slo_check_interval=4,
            slo_min_samples=4,
            service_time=0.05,
        )
        # Enough backlog that queue waits blow the (tiny) budget by the
        # first check.
        for i in range(8):
            server.submit(_mk(i, Severity.MEDIUM))
        outcomes = [server.process_one() for _ in range(4)]
        assert all(not o.shed for o in outcomes)
        assert server.degraded
        low = server.submit(_mk(100, Severity.LOW))
        medium = server.submit(_mk(101, Severity.MEDIUM))
        high = server.submit(_mk(102, Severity.HIGH))
        assert low.shed_reason == "slo_degraded"
        assert medium.shed_reason == "slo_degraded"
        assert high is None  # HIGH is never shed proactively

    def test_clean_interval_restores_normal_admission(self):
        manager = _flaky_manager(FakeClock())
        server = StreamServer(
            manager,
            queue_cap=64,
            slo={"queue": 0.001},
            slo_check_interval=4,
            slo_min_samples=4,
            service_time=0.05,
        )
        for i in range(8):
            server.submit(_mk(i, Severity.MEDIUM))
        for _ in range(4):
            server.process_one()
        assert server.degraded
        # Drain the backlog; the remaining waits are already recorded,
        # so serve a fresh, uncontended batch to produce a clean window.
        for _ in range(4):
            server.process_one()
        for i in range(10, 14):
            server.submit(_mk(i, Severity.HIGH))
            server.process_one()
        assert not server.degraded


# -- reporting ----------------------------------------------------------------


class TestStreamReporting:
    def test_summary_and_slo_report_agree_with_the_counters(self):
        clock = FakeClock()
        manager = _flaky_manager(clock)
        server = StreamServer(
            manager,
            queue_cap=2,
            shed_policy=ShedPolicy.TRIAGE,
            slo={"queue": 0.05},
            slo_check_interval=2,
            slo_min_samples=2,
            service_time=0.05,
        )
        offsets = poisson_arrivals(30, rate=100.0, seed=1)
        arrivals = [
            (float(o), _mk(i, SEVS[i % 3])) for i, o in enumerate(offsets)
        ]
        server.run(arrivals)
        summary = server.summary()
        assert summary["submitted"] == 30
        assert summary["served"] + summary["shed"] == 30
        assert summary["shed"] > 0
        report = slo_report(manager.obs.metrics, {"queue": 0.05})
        assert report.submitted == 30
        assert report.served == summary["served"]
        assert report.shed == summary["shed"]
        assert report.shed_rate == pytest.approx(summary["shed_rate"])
        assert sum(report.shed_by_reason.values()) == report.shed
        rendered = report.render()
        assert "shed rate" in rendered and "slo stages:" in rendered
        stages = {stage.stage: stage for stage in report.stages}
        assert stages["queue"].budget == 0.05

    def test_slo_report_is_well_defined_on_a_fresh_registry(self):
        report = slo_report(Observability().metrics)
        assert report.submitted == 0 and report.shed_rate == 0.0
        assert report.stages == ()
        assert "incidents submitted" in report.render()
