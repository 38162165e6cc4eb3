"""Zero-downtime hot-swap and shadow serving.

The lifecycle the model registry closes: a replacement Scout lands via
``swap()`` with no serving gap (epoch-stamped, deterministic under a
fake clock), a candidate runs side-by-side via ``register_shadow()``
without ever touching a routing decision.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis import shadow_report
from repro.incidents import Incident, IncidentSource, Severity
from repro.monitoring import FakeClock, FlakyScout
from repro.serving import CallStatus, IncidentManager, StreamServer
from repro.simulation import default_teams
from repro.simulation.teams import DNS, PHYNET, STORAGE


def _mk(i: int, severity: Severity = Severity.MEDIUM) -> Incident:
    return Incident(
        incident_id=i,
        created_at=0.0,
        title=f"hot-swap incident {i}",
        body="synthetic",
        severity=severity,
        source=IncidentSource.OWN_MONITOR,
        source_team=PHYNET,
        responsible_team=PHYNET,
    )


def _manager(clock=None, **kwargs) -> IncidentManager:
    manager = IncidentManager(
        default_teams(), clock=clock or FakeClock(), **kwargs
    )
    manager.register(FlakyScout(PHYNET, responsible=False))
    manager.register(FlakyScout(STORAGE, responsible=False))
    return manager


class TestSwap:
    def test_swap_stamps_new_epoch_and_changes_decisions(self):
        manager = _manager()
        before = manager.handle(_mk(1))
        assert dict(before.model_epochs) == {PHYNET: 1, STORAGE: 1}
        assert before.suggested_team is None  # everybody says "not me"

        epoch = manager.swap(FlakyScout(PHYNET, responsible=True))
        assert epoch == 2
        assert manager.model_epoch(PHYNET) == 2
        assert manager.model_epoch(STORAGE) == 1

        after = manager.handle(_mk(2))
        assert dict(after.model_epochs) == {PHYNET: 2, STORAGE: 1}
        assert after.suggested_team == PHYNET  # the new model says "me"

        metrics = manager.obs.metrics
        assert metrics.get("scout_model_epoch").value(team=PHYNET) == 2
        assert metrics.get("scout_swaps_total").value(team=PHYNET) == 1

    def test_swap_requires_a_registered_primary(self):
        manager = IncidentManager(default_teams(), clock=FakeClock())
        with pytest.raises(ValueError, match="use register"):
            manager.swap(FlakyScout(PHYNET))

    def test_swap_keeps_service_stats_resets_drift(self):
        manager = _manager()
        for i in range(4):
            manager.handle(_mk(i))
        calls_before = manager.stats(PHYNET).calls
        manager.swap(FlakyScout(PHYNET, responsible=True))
        # Service history continues across the swap...
        assert manager.stats(PHYNET).calls == calls_before
        manager.handle(_mk(10))
        assert manager.stats(PHYNET).calls == calls_before + 1
        # ...but the drift monitor describes the new model only.
        assert manager._monitors[PHYNET].observations == 0

    def test_in_flight_decision_finishes_on_the_old_epoch(self):
        """A swap waits for the in-flight predict; the decision that was
        already being computed carries the old model's epoch stamp."""
        gate, started = threading.Event(), threading.Event()
        manager = IncidentManager(default_teams(), clock=FakeClock())

        class _GateScout:
            team = PHYNET

            def predict(self, incident):
                started.set()
                assert gate.wait(timeout=10.0), "gate never opened"
                return FlakyScout(PHYNET, responsible=False).predict(incident)

        manager.register(_GateScout())
        decisions: list = []
        server = threading.Thread(
            target=lambda: decisions.append(manager.handle(_mk(1)))
        )
        server.start()
        assert started.wait(timeout=10.0)
        # The serve is now blocked inside predict.  Start the swap: it
        # must park on the team lock, not tear the model out mid-call.
        swapped = threading.Event()
        swapper = threading.Thread(
            target=lambda: (
                manager.swap(FlakyScout(PHYNET, responsible=True)),
                swapped.set(),
            )
        )
        swapper.start()
        assert not swapped.wait(timeout=0.2), "swap overtook in-flight call"
        gate.set()
        server.join(timeout=10.0)
        swapper.join(timeout=10.0)
        assert swapped.is_set()
        # The in-flight decision was served by the old generation.
        assert dict(decisions[0].model_epochs) == {PHYNET: 1}
        # The next one sees the replacement.
        after = manager.handle(_mk(2))
        assert dict(after.model_epochs) == {PHYNET: 2}
        assert after.suggested_team == PHYNET

    def test_mid_stream_swap_is_byte_deterministic(self):
        """Two same-seed streamed runs with a swap after the 5th serve
        produce identical decision sequences and metric expositions —
        and no arrival is shed by the swap itself."""

        def run():
            clock = FakeClock()
            manager = _manager(clock=clock)
            server = StreamServer(manager, queue_cap=8)
            server.schedule(
                5, lambda: manager.swap(FlakyScout(PHYNET, responsible=True))
            )
            arrivals = [(float(i) * 0.25, _mk(i)) for i in range(12)]
            with manager:
                outcomes = server.run(arrivals)
            log = [
                (
                    d.incident_id,
                    d.suggested_team,
                    tuple(d.model_epochs),
                    tuple(o.status.value for o in d.outcomes),
                )
                for d in manager.log
            ]
            return outcomes, log, manager.obs.render()

        outcomes_a, log_a, text_a = run()
        outcomes_b, log_b, text_b = run()
        assert log_a == log_b
        assert text_a == text_b
        assert all(not o.shed for o in outcomes_a)
        epochs = [dict(d[2])[PHYNET] for d in log_a]
        assert epochs == [1] * 5 + [2] * 7  # the swap landed after #5


class TestShadow:
    def test_shadow_never_changes_routing(self):
        """Identical traffic with and without a disagreeing shadow must
        produce identical decisions, suggestions, and primary stats."""

        def run(with_shadow: bool):
            manager = _manager()
            if with_shadow:
                manager.register_shadow(FlakyScout(PHYNET, responsible=True))
            decisions = [manager.handle(_mk(i)) for i in range(6)]
            return [
                (d.incident_id, d.suggested_team, d.acted, tuple(d.answers))
                for d in decisions
            ]

        assert run(with_shadow=False) == run(with_shadow=True)

    def test_shadow_requires_a_primary(self):
        manager = IncidentManager(default_teams(), clock=FakeClock())
        with pytest.raises(ValueError, match="needs a production model"):
            manager.register_shadow(FlakyScout(PHYNET))

    def test_shadow_diffs_are_logged_and_counted(self):
        manager = _manager()
        manager.register_shadow(FlakyScout(PHYNET, responsible=True))
        for i in range(5):
            manager.handle(_mk(i))
        log = manager.shadow_log
        assert len(log) == 5
        assert all(o.team == PHYNET for o in log)
        assert all(o.diff for o in log)  # False primary vs True shadow
        assert all(o.primary_epoch == 1 for o in log)
        metrics = manager.obs.metrics
        assert metrics.get("scout_shadow_diffs_total").value(team=PHYNET) == 5
        assert (
            metrics.get("scout_shadow_calls_total").value(
                team=PHYNET, status="ok"
            )
            == 5
        )

    def test_shadow_errors_are_isolated(self):
        manager = _manager()
        manager.register_shadow(FlakyScout(PHYNET, default="error"))
        decision = manager.handle(_mk(1))
        by_team = {o.team: o for o in decision.outcomes}
        assert by_team[PHYNET].status is CallStatus.OK  # primary unharmed
        (obs,) = manager.shadow_log
        assert obs.shadow_status is CallStatus.ERROR
        assert "scripted failure" in obs.shadow_error
        assert not obs.diff  # an errored shadow is not a disagreement

    def test_shadow_skipped_when_breaker_skips_the_primary(self):
        from repro.serving import BreakerPolicy

        manager = IncidentManager(
            default_teams(),
            clock=FakeClock(),
            breaker=BreakerPolicy(failure_threshold=2, cooldown_seconds=60.0),
        )
        manager.register(FlakyScout(PHYNET, default="error"))
        manager.register_shadow(FlakyScout(PHYNET, responsible=True))
        for i in range(4):
            manager.handle(_mk(i))
        statuses = [o.shadow_status for o in manager.shadow_log]
        # Once the breaker opens, the primary is skipped — the shadow
        # must not observe traffic the production model never served.
        assert len(statuses) == 2
        decisions = manager.log
        assert any(
            o.status is CallStatus.BREAKER_OPEN
            for d in decisions
            for o in d.outcomes
        )

    def test_batch_and_serial_shadow_logs_match(self):
        def run(batch: bool):
            manager = _manager()
            manager.register_shadow(FlakyScout(PHYNET, responsible=True))
            incidents = [_mk(i) for i in range(8)]
            if batch:
                manager.handle_batch(incidents)
            else:
                for incident in incidents:
                    manager.handle(incident)
            return [
                (o.incident_id, o.team, o.agrees, o.diff)
                for o in manager.shadow_log
            ], manager.obs.render()

        log_serial, text_serial = run(batch=False)
        log_batch, text_batch = run(batch=True)
        assert log_serial == log_batch
        assert text_serial == text_batch

    def test_promote_shadow_swaps_the_candidate_in(self):
        manager = _manager()
        manager.register_shadow(FlakyScout(PHYNET, responsible=True))
        manager.handle(_mk(1))
        epoch = manager.promote_shadow(PHYNET)
        assert epoch == 2
        assert manager.shadow_teams == []
        decision = manager.handle(_mk(2))
        assert decision.suggested_team == PHYNET
        assert dict(decision.model_epochs)[PHYNET] == 2
        # The evaluation history survives the promotion.
        assert len(manager.shadow_log) == 1

    def test_promote_without_shadow_raises(self):
        manager = _manager()
        with pytest.raises(ValueError, match="no shadow registered"):
            manager.promote_shadow(PHYNET)

    def test_unregister_also_drops_the_shadow(self):
        manager = _manager()
        manager.register_shadow(FlakyScout(PHYNET, responsible=True))
        manager.unregister(PHYNET)
        assert manager.shadow_teams == []
        with pytest.raises(KeyError):
            manager.model_epoch(PHYNET)


class TestShadowReport:
    def test_report_promotes_an_agreeing_candidate(self):
        manager = _manager()
        manager.register_shadow(FlakyScout(PHYNET, responsible=False))
        for i in range(10):
            manager.handle(_mk(i))
        report = shadow_report(manager.shadow_log, PHYNET)
        assert report.observations == 10
        assert report.comparable == 10
        assert report.agreement_rate == 1.0
        assert report.error_rate == 0.0
        assert report.promote
        assert report.transitions == {"no->no": 10}
        assert "PROMOTE" in report.render()

    def test_report_holds_a_disagreeing_candidate(self):
        manager = _manager()
        manager.register_shadow(FlakyScout(PHYNET, responsible=True))
        for i in range(10):
            manager.handle(_mk(i))
        report = shadow_report(manager.shadow_log, PHYNET)
        assert report.agreement_rate == 0.0
        assert not report.promote
        assert report.transitions == {"no->yes": 10}
        assert [o.incident_id for o in report.diffs] == list(range(10))
        assert "HOLD" in report.render()

    def test_report_holds_an_erroring_candidate(self):
        manager = _manager()
        manager.register_shadow(
            FlakyScout(PHYNET, script=("error",), responsible=False)
        )
        for i in range(10):
            manager.handle(_mk(i))
        report = shadow_report(manager.shadow_log, PHYNET)
        assert report.shadow_errors == 1
        assert report.error_rate == pytest.approx(0.1)
        assert not report.promote  # 10% errors > the 2% default ceiling
        # But a looser ceiling accepts the same evidence.
        relaxed = shadow_report(
            manager.shadow_log, PHYNET, max_error_rate=0.2
        )
        assert relaxed.promote

    def test_report_requires_observations(self):
        report = shadow_report([], PHYNET)
        assert not report.promote

    def test_mixed_team_log_needs_a_filter(self):
        manager = _manager()
        manager.register_shadow(FlakyScout(PHYNET, responsible=False))
        manager.register_shadow(FlakyScout(STORAGE, responsible=False))
        manager.handle(_mk(1))
        with pytest.raises(ValueError, match="pass team="):
            shadow_report(manager.shadow_log)
        assert shadow_report(manager.shadow_log, PHYNET).observations == 1

    def test_report_round_trips_to_dict(self):
        manager = _manager()
        manager.register_shadow(FlakyScout(PHYNET, responsible=True))
        manager.handle(_mk(1))
        data = shadow_report(manager.shadow_log, PHYNET).to_dict()
        assert data["team"] == PHYNET
        assert data["promote"] is False
        assert data["diff_incidents"] == [1]
