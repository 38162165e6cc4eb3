"""The batch-serving contract and cached-vs-live parity.

Tentpole acceptance: the same incidents through a serial ``handle``
loop and through ``handle_batch`` (under a fake clock) must produce
identical decision logs, identical per-team stats, and a byte-identical
metrics exposition — healthy or faulted, since the batch is served on
the calling thread.  Satellites: the cached prediction path must
return exactly what live serving would log, what-if accounting must
score a re-served incident once, and an all-abstain evaluation must
yield a well-defined zero report.
"""

import threading
from dataclasses import replace

from repro.core import CPDPlus, FeatureBuilder
from repro.core.cpd_plus import CPDVerdict
from repro.core.extraction import ExtractedComponents
from repro.core.scout import ScoutPrediction
from repro.core.selector import Route
from repro.datacenter import ComponentKind
from repro.monitoring import FakeClock, FaultPlan, FaultyStore, FlakyScout
from repro.serving import BreakerPolicy, CallStatus, IncidentManager
from repro.simulation import default_teams
from repro.simulation.teams import DNS, PHYNET, STORAGE


def _mixed_manager(clock, **kwargs):
    """Three healthy Scouts whose answers don't depend on call order."""
    manager = IncidentManager(default_teams(), clock=clock, **kwargs)
    manager.register(FlakyScout(PHYNET, responsible=True))
    manager.register(FlakyScout(STORAGE, responsible=False))
    manager.register(FlakyScout(DNS, responsible=None))
    return manager


_TEAMS = sorted([PHYNET, STORAGE, DNS])


class _ThreadRecordingScout(FlakyScout):
    """Records ``(incident id, team, thread name)`` for every call."""

    def __init__(self, team, calls, **kwargs) -> None:
        super().__init__(team, **kwargs)
        self._calls = calls

    def predict(self, incident):
        self._calls.append(
            (incident.incident_id, self.team, threading.current_thread().name)
        )
        return super().predict(incident)


def _recording_manager(clock, calls, **kwargs):
    manager = IncidentManager(default_teams(), clock=clock, **kwargs)
    for team in _TEAMS:
        manager.register(_ThreadRecordingScout(team, calls))
    return manager


def _reset_scout(scout) -> None:
    """Return the session-scoped Scout to its un-instrumented default."""
    scout.obs = None
    scout.builder.obs = None
    scout.builder.clear_cache()


# -- tentpole: batch == serial, byte for byte --------------------------------


class TestBatchDeterminism:
    def test_batch_matches_serial_loop_byte_identically(self, incidents):
        stream = list(incidents)[:8]

        serial = _mixed_manager(FakeClock())
        serial_decisions = [serial.handle(i) for i in stream]

        manager = _mixed_manager(FakeClock())
        assert manager.handle_batch(stream) == serial_decisions
        assert manager.log == serial.log
        for team in manager.registered_teams:
            assert manager.stats(team) == serial.stats(team)
        assert manager.obs.render() == serial.obs.render()

    def test_batch_decisions_come_back_in_input_order(self, incidents):
        stream = list(incidents)[:10]
        manager = _mixed_manager(FakeClock())
        decisions = manager.handle_batch(stream)
        assert [d.incident_id for d in decisions] == [
            i.incident_id for i in stream
        ]
        assert [d.incident_id for d in manager.log] == [
            i.incident_id for i in stream
        ]

    def test_real_scout_batch_matches_serial(self, scout, dataset):
        """The full pipeline (real Scout) stays deterministic.

        An outage-storm burst (shared timestamp, so every copy pulls
        the same monitoring windows) through serial ``handle`` vs
        ``handle_batch``: identical decisions and exposition bytes,
        query and hit counters included.
        """
        usable = dataset.usable()
        burst_at = max(ex.incident.created_at for ex in usable.examples[:6])
        burst = [
            replace(ex.incident, created_at=burst_at)
            for ex in usable.examples[:6]
        ]
        try:
            _reset_scout(scout)
            serial = IncidentManager(default_teams(), clock=FakeClock())
            serial.register(scout)
            serial_decisions = [serial.handle(i) for i in burst]
            serial_exposition = serial.obs.render()
            queries = serial.obs.metrics.get("monitoring_queries_total")
            assert queries is not None and queries.total() > 0

            _reset_scout(scout)
            manager = IncidentManager(default_teams(), clock=FakeClock())
            manager.register(scout)
            assert manager.handle_batch(burst) == serial_decisions
            assert manager.obs.render() == serial_exposition
        finally:
            _reset_scout(scout)

    def test_faulted_burst_matches_serial_loop_byte_identically(
        self, scout, incidents
    ):
        """Injected faults trip breakers at the same incidents either way.

        The real PhyNet Scout pulls through a store failing 30% of its
        queries, Storage answers slowly enough to move the clock past
        the breaker cool-down, and DNS overruns its deadline on a
        script.  Both breakers open and probe half-open, and DNS's
        closes again, at the same incidents in both runs.
        """
        stream = list(incidents)[:24]
        healthy_store = scout.builder.store

        def run(batch: bool):
            clock = FakeClock()
            _reset_scout(scout)
            scout.builder.store = FaultyStore(
                healthy_store, FaultPlan(seed=1, error_rate=0.3)
            )
            manager = IncidentManager(
                default_teams(),
                clock=clock,
                scout_deadline=1.0,
                breaker=BreakerPolicy(
                    failure_threshold=2, cooldown_seconds=3.0
                ),
            )
            manager.register(scout)
            manager.register(
                FlakyScout(
                    STORAGE, default="slow", responsible=False,
                    clock=clock, slow_seconds=0.5,
                )
            )
            manager.register(
                FlakyScout(
                    DNS, script=("ok", "slow", "slow", "ok", "slow"),
                    responsible=None, clock=clock, slow_seconds=2.0,
                )
            )
            if batch:
                decisions = manager.handle_batch(stream)
            else:
                decisions = [manager.handle(i) for i in stream]
            stats = {t: manager.stats(t) for t in manager.registered_teams}
            return (
                decisions,
                manager.log,
                stats,
                manager.obs.metrics.get(
                    "scout_breaker_transitions_total"
                ).samples(),
                manager.obs.render(),
            )

        try:
            serial = run(batch=False)
            batch = run(batch=True)
        finally:
            scout.builder.store = healthy_store
            _reset_scout(scout)

        decisions, log, stats, transitions, exposition = batch
        assert decisions == serial[0]
        assert log == serial[1]  # outcomes and model epochs included
        assert stats == serial[2]
        assert transitions == serial[3]
        assert exposition == serial[4]
        # The drill really faulted: PhyNet and DNS both tripped, and a
        # breaker probed half-open.
        tripped = {
            labels["team"]
            for labels, _ in transitions
            if labels["to_state"] == "open"
        }
        assert {PHYNET, DNS} <= tripped
        assert any(
            labels["to_state"] == "half_open" for labels, _ in transitions
        )
        assert any(
            o.status is CallStatus.ERROR for d in log for o in d.outcomes
        )


# -- serving owns no threads -------------------------------------------------


class TestPoolLifecycle:
    """``handle``/``handle_batch`` call every Scout on the calling thread."""

    def test_handle_calls_scouts_serially_without_a_pool(self, incidents):
        calls: list[tuple[int, str, str]] = []
        manager = _recording_manager(FakeClock(), calls, n_jobs=3)
        stream = list(incidents)[:2]
        for incident in stream:
            manager.handle(incident)
        here = threading.current_thread().name
        assert calls == [
            (incident.incident_id, team, here)
            for incident in stream
            for team in _TEAMS
        ]

    def test_batch_starts_no_thread_and_ignores_batch_workers(
        self, incidents, monkeypatch
    ):
        stream = list(incidents)[:6]
        default = _mixed_manager(FakeClock())
        default_decisions = default.handle_batch(stream)

        def refuse(thread):
            raise AssertionError(f"serving started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        manager = _mixed_manager(FakeClock(), n_jobs=4, batch_workers=4)
        with manager:
            assert manager.handle_batch(stream) == default_decisions
        assert manager.log == default.log
        assert manager.obs.render() == default.obs.render()

    def test_slow_scout_times_out_while_peers_answer(self, incidents):
        clock = FakeClock()
        manager = IncidentManager(
            default_teams(), clock=clock, n_jobs=3, scout_deadline=1.0
        )
        manager.register(
            FlakyScout(PHYNET, script=("slow",), clock=clock, slow_seconds=5.0)
        )
        manager.register(FlakyScout(STORAGE, responsible=False))
        manager.register(FlakyScout(DNS, responsible=True))
        decision = manager.handle(incidents[0])
        status = {o.team: o.status for o in decision.outcomes}
        assert status == {
            PHYNET: CallStatus.TIMEOUT,
            STORAGE: CallStatus.OK,
            DNS: CallStatus.OK,
        }
        answers = {a.team: a.responsible for a in decision.answers}
        assert answers == {PHYNET: None, STORAGE: False, DNS: True}


# -- the per-incident monitoring memos ---------------------------------------


class TestIncidentCacheScope:
    def test_clear_cache_clears_the_query_memos(self, sim, framework):
        builder = FeatureBuilder(framework.config, sim.topology, sim.store)
        device = sim.topology.components(ComponentKind.SWITCH)[0]
        t = 86400.0 * 320
        CPDPlus(builder).signals(ExtractedComponents(mentioned=[device]), t)
        assert builder._plan
        builder.clear_cache()
        assert not builder._plan


# -- satellite: cached path == live path -------------------------------------


class TestCachedVsLiveParity:
    def test_fallback_explanation_matches_live(self, scout, dataset):
        fallbacks = [
            ex for ex in dataset if ex.static_route is Route.FALLBACK
        ]
        assert fallbacks, "the fixture dataset should contain fallbacks"
        for example in fallbacks[:3]:
            cached = scout.predict_example(example)
            live = scout.predict(example.incident)
            assert cached.route is Route.FALLBACK
            # Regression: the cached path used to drop the selector's
            # reason, leaving evaluation artifacts that don't match
            # what serving logs.
            assert cached.explanation.notes
            assert cached.explanation.notes == live.explanation.notes

    def test_excluded_explanation_matches_live(self, scout, dataset):
        base = dataset.examples[0]
        incident = replace(
            base.incident, title="planned decommission of rack sw-t1-9"
        )
        example = replace(
            base, incident=incident, static_route=Route.EXCLUDED
        )
        cached = scout.predict_example(example)
        live = scout.predict(incident)
        assert cached.route is live.route is Route.EXCLUDED
        assert cached.explanation.notes
        assert cached.explanation.notes == live.explanation.notes
        assert "EXCLUDE" in cached.explanation.notes[0]

    def test_cached_cpd_triggers_are_not_truncated(
        self, scout, dataset, monkeypatch
    ):
        verdict = CPDVerdict(
            responsible=True,
            confidence=0.8,
            triggers=tuple(f"switch sw-{i}: cpu_usage" for i in range(7)),
        )
        monkeypatch.setattr(
            scout.cpd, "verdict_from_signals", lambda *a, **k: verdict
        )
        monkeypatch.setattr(scout.cpd, "predict", lambda *a, **k: verdict)
        example = dataset.usable().examples[0]
        cached = scout._cpd_verdict_from_cache(example, novelty=0.9)
        live = scout._predict_cpd(example.incident, example.extracted, 0.9)
        # Regression: the cached path truncated to 5 triggers while the
        # live path carried all of them.
        assert len(cached.explanation.triggers) == 7
        assert cached.explanation.triggers == live.explanation.triggers


# -- satellite: what-if scoring dedupes re-served incidents ------------------


class TestWhatifDedupe:
    def test_reserved_incident_scores_only_latest_decision(self, incidents):
        incident = incidents[0]
        truth = {incident.incident_id: PHYNET}
        manager = IncidentManager(default_teams(), clock=FakeClock())
        manager.register(FlakyScout(PHYNET, responsible=True))
        manager.handle(incident)  # first decision: suggests PhyNet

        manager.unregister(PHYNET)
        manager.register(FlakyScout(PHYNET, responsible=None))
        manager.handle(incident)  # re-served: latest decision abstains

        assert len(manager.log) == 2
        summary = manager.whatif_accuracy(truth)
        # Regression: the raw log counted this incident twice
        # (correct=0.5, abstained=0.5); only the latest decision counts.
        assert summary == {"correct": 0.0, "wrong": 0.0, "abstained": 1.0}

    def test_distinct_incidents_all_count(self, incidents):
        stream = list(incidents)[:4]
        truth = {i.incident_id: PHYNET for i in stream}
        manager = IncidentManager(default_teams(), clock=FakeClock())
        manager.register(FlakyScout(PHYNET, responsible=True))
        manager.handle_batch(stream)
        summary = manager.whatif_accuracy(truth)
        assert summary == {"correct": 1.0, "wrong": 0.0, "abstained": 0.0}


# -- satellite: all-abstain evaluation ---------------------------------------


class _AbstainScout:
    """A stub whose every prediction falls back to legacy routing."""

    def predict_example(self, example):
        return ScoutPrediction(
            example.incident.incident_id,
            responsible=None,
            confidence=0.0,
            route=Route.FALLBACK,
        )


class TestEvaluateAllAbstain:
    def test_zero_report_with_route_counts(self, framework, dataset):
        subset = dataset.subset(list(range(10)))
        report = framework.evaluate(_AbstainScout(), subset)
        # Regression: empty y_true/y_pred used to reach the metric
        # math; now the report is an explicit, well-defined zero.
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0
        assert report.report.support == 0
        assert report.n_total == 10
        assert report.n_fallback == 10  # route counts still populated

    def test_included_abstentions_still_score(self, framework, dataset):
        subset = dataset.subset(list(range(10)))
        report = framework.evaluate(
            _AbstainScout(), subset, include_abstentions=True
        )
        assert report.report.support == sum(
            example.label for example in subset
        )
