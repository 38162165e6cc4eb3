"""Fleet-tier tests: roster generation, Master policy, determinism.

The load-bearing contract is the one the bench gates: the process pool
is a throughput knob, never a semantics knob.  Identical workloads must
produce byte-identical decision logs and metric expositions across
worker counts and across pool-vs-in-process execution.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import tracemalloc

import pytest

from repro.monitoring import FakeClock
from repro.obs import Observability, render_exposition
from repro.serving import (
    BreakerState,
    CircuitBreaker,
    FleetRoster,
    FleetServer,
    MasterPolicy,
    build_fleet_roster,
)
from repro.simulation import ScoutAnswer


@pytest.fixture(scope="module")
def roster():
    return build_fleet_roster(30, seed=3)


@pytest.fixture(scope="module")
def trace(incidents):
    return list(incidents)[:48]


def _server(roster, **kwargs):
    clock = kwargs.pop("clock", None) or FakeClock()
    kwargs.setdefault("obs", Observability(clock=clock))
    return FleetServer(roster, clock=clock, **kwargs)


# -- roster generation --------------------------------------------------------


def test_roster_replicates_base_teams_across_regions():
    roster = build_fleet_roster(30, seed=3)
    assert len(roster.specs) == 30
    assert roster.teams == sorted(roster.teams)
    assert {spec.region for spec in roster.specs} == {0, 1, 2}
    # Dependencies stay within a region and inside the kept set.
    kept = set(roster.teams)
    for team in roster.teams:
        suffix = team.rsplit("-r", 1)[1]
        for dep in roster.registry[team].depends_on:
            assert dep in kept
            assert dep.endswith(f"-r{suffix}")


def test_roster_specs_stay_in_appendix_d_bands():
    roster = build_fleet_roster(120, seed=0)
    assert len(roster.specs) == 120
    for spec in roster.specs:
        assert 0.93 <= spec.accuracy <= 0.99
        assert 0.05 <= spec.beta <= 0.30
        assert spec.team == f"{spec.base}-r{spec.region:02d}"
    # Same seed → the same fleet, spec for spec.
    assert build_fleet_roster(120, seed=0).specs == roster.specs
    assert build_fleet_roster(120, seed=1).specs != roster.specs


def test_roster_assign_spreads_incidents_and_base_of_inverts(roster):
    # 30 teams over a 12-team base: two full regions plus a partial
    # third holding the alphabetically-first six bases only.
    regional = roster.regions_of("PhyNet")
    assert regional == ["PhyNet-r00", "PhyNet-r01"]
    assert len(roster.regions_of("Auth")) == 3
    picks = {roster.assign("PhyNet", i) for i in range(6)}
    assert picks == set(regional)
    assert roster.assign("PhyNet", 7) == roster.assign("PhyNet", 7)
    for team in regional:
        assert FleetRoster.base_of(team) == "PhyNet"
    # Unknown base teams pass through untouched (no regional copies).
    assert roster.assign("NotATeam", 5) == "NotATeam"


def test_roster_rejects_empty_fleet():
    with pytest.raises(ValueError, match="n_teams"):
        build_fleet_roster(0)


# -- the Master policy --------------------------------------------------------


def test_master_policy_ranks_by_calibrated_confidence(roster):
    policy = MasterPolicy(roster.registry, top_k=2)
    # Before fit, calibrated == raw.
    assert policy.calibrated(0.8) == 0.8
    # Labeled trace: high confidences are *less* reliable than mid ones.
    policy.fit(
        confidences=[0.95] * 10 + [0.65] * 10,
        correct=[True] * 3 + [False] * 7 + [True] * 9 + [False] * 1,
        n_buckets=2,
    )
    assert policy.calibrated(0.95) < policy.calibrated(0.65)

    answers = [
        ScoutAnswer("PhyNet-r00", True, 0.95),
        ScoutAnswer("DNS-r00", True, 0.65),
        ScoutAnswer("Storage-r00", False, 0.99),
    ]
    candidates, chain = policy.rank(answers)
    # Calibration demotes the overconfident answer below the mid one.
    assert [team for team, _, _ in candidates] == ["DNS-r00", "PhyNet-r00"]
    # The strawman's pick heads the chain; ranked entries follow, deduped.
    assert chain[0] == policy.master.route(answers)
    assert sorted(chain) == ["DNS-r00", "PhyNet-r00"]
    assert len(set(chain)) == len(chain)


def test_master_policy_handles_no_answers(roster):
    policy = MasterPolicy(roster.registry)
    candidates, chain = policy.rank([])
    assert candidates == ()
    assert chain == ()
    with pytest.raises(ValueError, match="top_k"):
        MasterPolicy(roster.registry, top_k=0)


# -- server validation --------------------------------------------------------


def test_server_rejects_bad_knobs(roster):
    with pytest.raises(ValueError, match="workers"):
        _server(roster, workers=0)
    with pytest.raises(ValueError, match="shard_count"):
        _server(roster, shard_count=0)
    with pytest.raises(ValueError, match="chunk_size"):
        _server(roster, chunk_size=0)
    with pytest.raises(ValueError, match="max_attempts"):
        _server(roster, max_attempts=0)
    with pytest.raises(ValueError, match="failure_rate"):
        _server(roster, failure_rate=1.0)
    with pytest.raises(ValueError, match="broken_teams"):
        _server(roster, broken_teams=("NotATeam-r00",))


# -- determinism across pool shapes (the tentpole contract) -------------------


def _route_artifacts(roster, trace, **kwargs):
    with _server(roster, **kwargs) as server:
        server.calibrate(trace[:12])
        server.route_trace(trace[12:])
        return (
            json.dumps(server.decision_records(), sort_keys=True),
            render_exposition(server.obs.metrics),
            server.summary(),
        )


def test_decisions_identical_across_worker_counts(roster, trace):
    reference = _route_artifacts(roster, trace, workers=1)
    for workers in (2, 4):
        log, exposition, summary = _route_artifacts(
            roster, trace, workers=workers, use_processes=True
        )
        assert log == reference[0]
        assert exposition == reference[1]
    assert summary["workers"] == 4
    assert reference[2]["incidents"] == len(trace) - 12
    assert 0.0 < reference[2]["accuracy"] <= 1.0


def test_pool_and_in_process_agree_with_stall_and_failures(roster, trace):
    # The stall and the transient-failure model must not perturb
    # results either: both draw content-addressed, never wall-clock.
    knobs = {"failure_rate": 0.2, "io_stall_s": 0.002}
    inproc = _route_artifacts(roster, trace, workers=1, **knobs)
    pooled = _route_artifacts(
        roster, trace, workers=2, use_processes=True, **knobs
    )
    assert pooled[0] == inproc[0]
    assert pooled[1] == inproc[1]


def test_shard_count_is_a_layout_knob_not_a_semantics_knob(roster, trace):
    # Different shard layouts regroup the same pure scorings; decisions
    # must not move.  (Metrics differ only via the fleet_shards gauge.)
    a = _route_artifacts(roster, trace, workers=1, shard_count=4)
    b = _route_artifacts(roster, trace, workers=2, use_processes=True,
                         shard_count=11)
    assert a[0] == b[0]


# -- resilience: breakers, re-routes, legacy fallback -------------------------


def test_broken_team_trips_breaker_and_gets_gated(roster, trace):
    broken = roster.teams[0]
    with _server(roster, broken_teams=(broken,)) as server:
        decisions = server.route_trace(trace[:8])
        # Five consecutive failures trip the breaker; later incidents
        # skip the Scout outright instead of burning attempts on it.
        assert [d.errors for d in decisions] == [1] * 5 + [0] * 3
        assert all(broken in d.breaker_open for d in decisions[5:])
        assert server.breakers[broken].state is BreakerState.OPEN
        assert server.summary()["breakers_open"] == 1
        text = render_exposition(server.obs.metrics)
        assert 'fleet_scout_answers_total{status="error"} 5' in text
        assert "fleet_breakers_open 1" in text


def test_broken_truth_team_falls_back_to_legacy(roster, trace):
    incident = trace[0]
    truth = roster.assign(incident.responsible_team, incident.incident_id)
    # The truth team is down and no wrong team ever accepts: the chain
    # must exhaust and the fleet degrade to the legacy process.
    with _server(
        roster, broken_teams=(truth,), wrong_accept=0.0
    ) as server:
        (decision,) = server.route_trace([incident])
        assert decision.truth_team == truth
        assert decision.suggested_team is None
        assert decision.reroutes == len(decision.chain)
        text = render_exposition(server.obs.metrics)
        assert 'fleet_decisions_total{result="legacy_fallback"} 1' in text


class _StuckOpenBreaker(CircuitBreaker):
    """Admits calls but always reads OPEN — exercises the chain skip."""

    def allow(self) -> bool:
        return True

    @property
    def state(self) -> BreakerState:
        return BreakerState.OPEN


def test_chain_walk_skips_open_breaker_entries(roster, trace):
    with _server(roster) as server:
        ((ids, truths, pending),) = server._dispatch([trace[0]])
        scored = server._score(pending)
        (first,) = server._compose(ids, truths, scored)
        assert first.chain, "need a non-empty chain for the skip test"
        target = first.chain[0]
        server.breakers[target] = _StuckOpenBreaker(clock=FakeClock())
        (second,) = server._compose(ids, truths, scored)
        # Same chain, but the walk now skips the OPEN head and counts
        # the skip as a re-route instead of suggesting a dead Scout.
        assert second.chain == first.chain
        assert second.suggested_team != target
        assert second.reroutes >= first.reroutes + 1


# -- calibration --------------------------------------------------------------


def test_calibrate_fits_reliability_curve(roster, trace):
    with _server(roster) as server:
        assert server.policy.curve == ()
        samples = server.calibrate(trace[:16])
        assert samples > 0
        assert server.policy.curve
        # Calibration leaves no residue on the serving read-outs.
        assert server.decisions == []
        assert server.calibrate([]) == 0


def test_retry_model_recovers_transients_deterministically(roster, trace):
    with _server(roster, failure_rate=0.3, max_attempts=3) as server:
        server.route_trace(trace[:8])
        text = render_exposition(server.obs.metrics)
        assert 'fleet_scout_answers_total{status="retry"}' in text
        # Retries kept most answers alive despite the 30% attempt
        # failure rate: errors need three misses in a row.
        summary = server.summary()
        assert summary["incidents"] == 8
        assert summary["breakers_open"] == 0


# -- the decision log ---------------------------------------------------------


def test_decisions_are_value_objects_over_columns(roster, trace):
    wide = [
        dataclasses.replace(incident, incident_id=2**64 + k)
        for k, incident in enumerate(trace[:3])
    ]
    with _server(roster) as a, _server(roster) as b:
        first = a.route_trace(trace[:6] + wide)
        again = b.route_trace(trace[:6] + wide)
    assert first == again and first is not again
    assert len({hash(d) for d in first}) == len({d.incident_id for d in first})
    # Ids beyond int64 keep their exact value.
    assert [d.incident_id for d in first[6:]] == [2**64 + k for k in range(3)]
    d = first[0]
    assert repr(d).startswith(f"FleetDecision(incident_id={d.incident_id}, ")
    record = d.to_record()
    assert record["chain"] == list(d.chain)
    assert [c[0] for c in record["candidates"]] == [t for t, _, _ in d.candidates]
    with pytest.raises(AttributeError):
        d.errors = 3


def test_decision_log_stays_lean(roster, trace):
    # The server keeps every decision it makes; a decision is a
    # two-slot view of its chunk's columns (~150 B here, against ~600 B
    # for a dataclass carrying its own tuples and floats).
    with _server(roster) as server:
        for _ in range(2):  # warm the policy's and metrics' lookups
            server.route_trace(trace)
        server.decisions.clear()
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(16):
                server.route_trace(trace)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept / len(server.decisions) < 200
