"""Serving-lifecycle regressions: the bugs that only bite long-lived
deployments.

Two fixes, each with a failing-before/passing-after regression test:

* ``resolve()`` used to rescan the entire decision log per call —
  O(n²) over a stream of resolutions.  It now goes through a
  commit-time ``incident_id -> log positions`` index; the test proves
  the access pattern structurally (one log read per resolve) rather
  than with a flaky timing assertion.
* ``unregister()`` used to pop ``_stats``/``_team_locks`` out from
  under an in-flight incident, KeyErroring in its accounting or in
  ``_invoke_scout``.  Teardown now waits on the team and commit locks,
  and the serving path degrades calls to a vanished team to ERROR
  abstains.

The manager's locks are ranked (``repro.serving.locks``): a team lock
ranks below the commit lock, so the one legal nesting is team then
commit, and an inverted order raises on its first execution.
"""

from __future__ import annotations

import threading

import pytest

from repro.incidents import Incident, IncidentSource, Severity
from repro.monitoring import FakeClock, FlakyScout
from repro.serving import CallStatus, IncidentManager
from repro.serving.locks import LockOrderError, RankedLock
from repro.simulation import default_teams
from repro.simulation.teams import DNS, PHYNET, STORAGE


def _mk(i: int) -> Incident:
    return Incident(
        incident_id=i,
        created_at=0.0,
        title=f"lifecycle incident {i}",
        body="synthetic",
        severity=Severity.MEDIUM,
        source=IncidentSource.OWN_MONITOR,
        source_team=PHYNET,
        responsible_team=PHYNET,
    )


def _flaky_manager(clock=None, **kwargs):
    manager = IncidentManager(
        default_teams(), clock=clock or FakeClock(), **kwargs
    )
    manager.register(FlakyScout(PHYNET, responsible=True))
    manager.register(FlakyScout(STORAGE, responsible=False))
    manager.register(FlakyScout(DNS, responsible=None))
    return manager


# -- fix 1: resolve() is O(decisions-for-the-incident), not O(log) -----------


class _CountingLog(list):
    """A decision-log stand-in that counts item reads and bans scans.

    The quadratic ``resolve`` iterated ``range(len(log))`` and indexed
    every position; the indexed ``resolve`` reads exactly the decisions
    belonging to the incident.  Counting ``__getitem__`` makes the
    access pattern an assertable fact instead of a timing guess.
    """

    def __init__(self, items):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class TestResolveIndex:
    def test_resolving_a_stream_reads_one_log_entry_per_resolve(self):
        n = 10_000
        manager = _flaky_manager()
        for i in range(n):
            manager.handle(_mk(i))
        log = _CountingLog(manager._log)
        manager._log = log
        for i in range(n):
            manager.resolve(i, PHYNET)
        # The quadratic scan would have read ~n²/2 entries (5e7); the
        # index reads exactly the single decision each resolve scores.
        assert log.reads == n
        assert len(manager._scored) == n

    def test_repeat_resolutions_stay_idempotent_and_read_nothing(self):
        manager = _flaky_manager()
        for i in range(5):
            manager.handle(_mk(i))
        for i in range(5):
            manager.resolve(i, PHYNET)
        monitor = manager._monitors[PHYNET]
        observed = monitor.observations
        log = _CountingLog(manager._log)
        manager._log = log
        for i in range(5):
            manager.resolve(i, STORAGE)  # already resolved: no-ops
        assert log.reads == 0
        assert manager._monitors[PHYNET].observations == observed

    def test_reserved_incident_scores_only_the_fresh_decision(self):
        manager = _flaky_manager()
        manager.handle(_mk(1))
        manager.resolve(1, PHYNET)
        observed = manager._monitors[PHYNET].observations
        manager.handle(_mk(1))  # re-served after resolution
        manager.resolve(1, STORAGE)
        assert manager._monitors[PHYNET].observations == observed + 1

    def test_unserved_incident_still_raises(self):
        manager = _flaky_manager()
        with pytest.raises(KeyError):
            manager.resolve(404, PHYNET)


# -- fix 2: unregister() vs in-flight serving --------------------------------


class _GateScout:
    """Wraps a FlakyScout; predict blocks until the test opens the gate."""

    def __init__(self, inner, gate: threading.Event, started: threading.Event):
        self.inner = inner
        self.team = inner.team
        self.gate = gate
        self.started = started

    def predict(self, incident):
        self.started.set()
        assert self.gate.wait(timeout=10.0), "test gate never opened"
        return self.inner.predict(incident)


class _UnregisteringScout:
    """Wraps a FlakyScout; predict first unregisters another team.

    The teardown runs on a second thread, as an operator's would: the
    serving thread holds this Scout's team lock here, and the lock
    ranks forbid it from taking another team's lock under it.
    """

    def __init__(self, inner, manager, victim: str):
        self.inner = inner
        self.team = inner.team
        self.manager = manager
        self.victim = victim

    def predict(self, incident):
        teardown = threading.Thread(
            target=self.manager.unregister, args=(self.victim,)
        )
        teardown.start()
        teardown.join(timeout=10.0)
        assert not teardown.is_alive(), "unregister never finished"
        return self.inner.predict(incident)


class TestUnregisterRace:
    def test_commit_survives_team_unregistered_after_fanout(self):
        """A team unregistered after its call but before the incident
        is accounted: the last Scout of the fan-out (Storage) tears
        down an earlier one (DNS) from inside its predict."""
        manager = IncidentManager(default_teams(), clock=FakeClock())
        manager.register(FlakyScout(DNS, responsible=None))
        manager.register(FlakyScout(PHYNET, responsible=True))
        manager.register(
            _UnregisteringScout(
                FlakyScout(STORAGE, responsible=False), manager, DNS
            )
        )
        decision = manager.handle(_mk(1))  # KeyError before the fix
        assert decision.incident_id == 1
        assert manager.log[-1] == decision
        by_team = {o.team: o for o in decision.outcomes}
        assert by_team[DNS].status is CallStatus.OK  # called pre-pop
        assert DNS not in manager._stats

    def test_call_to_unregistered_team_degrades_to_error_abstain(self):
        manager = _flaky_manager()
        manager.unregister(DNS)
        result = manager._invoke_scout(_mk(2), DNS, None)
        assert result.team == DNS
        assert result.prediction.responsible is None
        assert result.outcome.status is CallStatus.ERROR
        assert "unregistered" in result.outcome.error
        assert result.outcome.latency_seconds == 0.0
        # No model generation served the degraded call.
        assert result.epoch == 0

    def test_threaded_unregister_mid_handle_never_keyerrors(self):
        """A serve blocked inside one Scout's predict while another
        registered team is torn down: the fan-out that reaches the
        vanished team must degrade, not crash."""
        gate, started = threading.Event(), threading.Event()
        manager = IncidentManager(default_teams(), clock=FakeClock())
        # Sorted fan-out order is DNS, PhyNet, Storage: gate the first
        # so Storage's call provably happens after the unregister.
        manager.register(
            _GateScout(FlakyScout(DNS, responsible=None), gate, started)
        )
        manager.register(FlakyScout(PHYNET, responsible=True))
        manager.register(FlakyScout(STORAGE, responsible=False))
        result: dict = {}

        def serve():
            try:
                result["decision"] = manager.handle(_mk(7))
            except BaseException as exc:  # noqa: BLE001 — the assertion target
                result["error"] = exc

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            assert started.wait(timeout=10.0)
            manager.unregister(STORAGE)
        finally:
            gate.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert "error" not in result, f"handle raised: {result.get('error')}"
        by_team = {o.team: o for o in result["decision"].outcomes}
        assert by_team[STORAGE].status is CallStatus.ERROR
        assert "unregistered" in by_team[STORAGE].error

    def test_unregister_waits_for_the_teams_own_inflight_predict(self):
        """Tearing down the very team that is mid-predict blocks on its
        lock until the call finishes — the Scout is never yanked out
        from under its own predict."""
        gate, started = threading.Event(), threading.Event()
        manager = IncidentManager(default_teams(), clock=FakeClock())
        manager.register(
            _GateScout(FlakyScout(PHYNET, responsible=True), gate, started)
        )
        result: dict = {}

        def serve():
            try:
                result["decision"] = manager.handle(_mk(8))
            except BaseException as exc:  # noqa: BLE001
                result["error"] = exc

        serve_thread = threading.Thread(target=serve)
        serve_thread.start()
        assert started.wait(timeout=10.0)
        unregister_thread = threading.Thread(
            target=manager.unregister, args=(PHYNET,)
        )
        unregister_thread.start()
        try:
            unregister_thread.join(timeout=0.2)
            assert unregister_thread.is_alive()  # blocked on the team lock
        finally:
            gate.set()
            serve_thread.join(timeout=10.0)
            unregister_thread.join(timeout=10.0)
        assert not serve_thread.is_alive()
        assert not unregister_thread.is_alive()
        assert "error" not in result, f"handle raised: {result.get('error')}"
        by_team = {o.team: o for o in result["decision"].outcomes}
        # The in-flight predict completed healthily before teardown.
        assert by_team[PHYNET].status is CallStatus.OK
        assert PHYNET not in manager._scouts

    def test_unregister_of_unknown_team_is_a_noop(self):
        manager = _flaky_manager()
        manager.unregister("NeverRegistered")
        assert manager.registered_teams == sorted((DNS, PHYNET, STORAGE))


# -- lock ranks ----------------------------------------------------------------


class TestLockRanks:
    def test_ascending_ranks_nest(self):
        low, high = RankedLock("low", 1), RankedLock("high", 2)
        with low:
            with high:
                pass
        with high:  # both released: the held stack is empty again
            pass

    @pytest.mark.parametrize("inner_rank", [1, 2])
    def test_inverted_or_equal_rank_raises_before_acquiring(self, inner_rank):
        outer, inner = RankedLock("outer", 2), RankedLock("inner", inner_rank)
        with outer:
            with pytest.raises(LockOrderError, match="cannot take inner"):
                with inner:
                    pass  # pragma: no cover
            # The refused lock was never taken.
            assert inner._lock.acquire(blocking=False)
            inner._lock.release()
        with inner:  # a failed acquisition leaves no stale entry behind
            with RankedLock("above", 3):
                pass

    def test_held_ranks_are_per_thread(self):
        high = RankedLock("high", 2)
        errors: list[BaseException] = []

        def take_low():
            try:
                with RankedLock("low", 1):
                    pass
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        with high:
            worker = threading.Thread(target=take_low)
            worker.start()
            worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert errors == []

    def test_manager_ranks_team_below_commit(self):
        manager = _flaky_manager()
        commit = manager._commit_lock.rank
        assert {lock.rank for lock in manager._team_locks.values()} == {
            commit - 1
        }

    def test_swap_under_the_commit_lock_raises(self):
        """Commit-then-team is the inverted order: one thread, first
        execution, no deadlock needed to see it."""
        manager = _flaky_manager()
        with manager._commit_lock:
            with pytest.raises(LockOrderError):
                manager.swap(FlakyScout(PHYNET, responsible=True))
        assert manager.model_epoch(PHYNET) == 1
        # Nothing stays held: the next swap and serve go through.
        assert manager.swap(FlakyScout(PHYNET, responsible=True)) == 2
        assert manager.handle(_mk(9)).suggested_team == PHYNET

    def test_second_team_lock_on_the_serving_thread_degrades(self):
        """A Scout that tears down another team from inside its own
        predict would nest two team locks; the rank check turns that
        into an isolated ERROR instead of a latent deadlock."""

        class SameThreadUnregister(_UnregisteringScout):
            def predict(self, incident):
                self.manager.unregister(self.victim)
                return self.inner.predict(incident)  # pragma: no cover

        manager = IncidentManager(default_teams(), clock=FakeClock())
        manager.register(FlakyScout(DNS, responsible=None))
        manager.register(
            SameThreadUnregister(
                FlakyScout(STORAGE, responsible=False), manager, DNS
            )
        )
        decision = manager.handle(_mk(10))
        by_team = {o.team: o for o in decision.outcomes}
        assert by_team[STORAGE].status is CallStatus.ERROR
        assert "cannot take DNS team lock" in by_team[STORAGE].error
        assert DNS in manager.registered_teams
