"""Fleet scoring parity: the task kernel against the per-pair oracle,
and per-server scoring contexts.

The fleet scores one (shard, incident chunk) task in a single array
pass and returns columns.  ``tests/oracles.py`` keeps the scalar
per-pair loop it replaced; every generated roster, layout, fault
setting and incident id (0, around multiples of the 224-column window
span, above 2**40) must score identically pair by pair — same ``ok``
and attempt count, and where the call succeeded the same verdict.
The kernel computes a confidence only for a yes-answer (the only kind
the Master ranks and calibration fits on), so a yes cell carries the
oracle's confidence bits and every other cell carries 0.0; and the
"conf" keys a task hashes are exactly its yes cells' keys.
"""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.incidents.incident import Incident, IncidentSource, Severity
from repro.monitoring import FakeClock
from repro.obs import Observability
from repro.serving import FleetServer, build_fleet_roster
from repro.serving import fleet as fleet_module
from repro.serving.fleet import _score_chunk
from tests.oracles import reference_score_chunk

_SPAN = 224  # window start positions: 256 signal columns - 32


def _incident(incident_id: int, team: str) -> Incident:
    return Incident(
        incident_id=incident_id,
        created_at=0.0,
        title=f"incident {incident_id}",
        body="",
        severity=Severity.MEDIUM,
        source=IncidentSource.CUSTOMER,
        source_team="",
        responsible_team=team,
    )


_ids = st.one_of(
    st.just(0),
    st.builds(
        lambda k, d: max(0, k * _SPAN + d),
        st.integers(0, 50),
        st.integers(-2, 2),
    ),
    st.integers(2**40, 2**41),
    st.integers(0, 10**6),
)


@st.composite
def _fleets(draw):
    n_teams = draw(st.integers(1, 200))
    roster = build_fleet_roster(n_teams, seed=draw(st.integers(0, 5)))
    broken = draw(
        st.lists(st.sampled_from(roster.teams), max_size=min(4, n_teams),
                 unique=True)
    )
    knobs = {
        "shard_count": draw(st.integers(1, 12)),
        "chunk_size": draw(st.integers(1, 40)),
        "failure_rate": draw(
            st.one_of(st.just(0.0), st.floats(0.0, 0.9))
        ),
        "max_attempts": draw(st.integers(1, 3)),
        "broken_teams": tuple(broken),
    }
    # Base teams plus one with no regional copy (its truth is off-roster).
    bases = sorted({spec.base for spec in roster.specs}) + ["NotATeam"]
    incidents = draw(
        st.lists(
            st.builds(_incident, _ids, st.sampled_from(bases)),
            min_size=1,
            max_size=24,
        )
    )
    return roster, knobs, incidents


def _yes_only(expected):
    """The oracle's tuples with a no-answer's confidence read as 0.0."""
    return [
        (incident_id, (team, verdict, conf if verdict else 0.0, *rest))
        for incident_id, (team, verdict, conf, *rest) in expected
    ]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_fleets())
def test_task_kernel_matches_per_pair_oracle(fleet):
    roster, knobs, incidents = fleet
    with FleetServer(roster, **knobs) as server:
        ctx = server._ctx
        signals = np.load(server._signal_path)
        args = (
            roster.seed, knobs["failure_rate"], knobs["max_attempts"],
            frozenset(knobs["broken_teams"]),
        )
        for ids, truths, pending in server._dispatch(incidents):
            pairs = tuple(zip(ids, truths))
            # Each task's columns, in its shard's roster order.
            for shard_id, rows in enumerate(server._shard_rows):
                shard = [(row, roster.specs[row]) for row in rows]
                expected = _yes_only(
                    reference_score_chunk(shard, signals, pairs, *args)
                )
                ok, verdict, confidence, attempts = _score_chunk(
                    ctx, shard_id, ids, truths
                )
                got = [
                    (
                        incident_id,
                        (
                            spec.team,
                            bool(verdict[i, j]) if ok[i, j] else None,
                            float(confidence[i, j]),
                            int(attempts[i, j]),
                            bool(ok[i, j]),
                        ),
                    )
                    for i, incident_id in enumerate(ids)
                    for j, (_, spec) in enumerate(shard)
                ]
                assert got == expected
            # The parent's assembly puts every column at its roster row.
            ok, verdict, confidence, attempts = server._score(pending)
            everyone = list(enumerate(roster.specs))
            expected = _yes_only(
                reference_score_chunk(everyone, signals, pairs, *args)
            )
            for k, (_, (team, want_verdict, want_conf, want_attempts,
                        want_ok)) in enumerate(expected):
                i, row = divmod(k, len(everyone))
                assert roster.teams[row] == team
                assert ok[i, row] == want_ok
                assert attempts[i, row] == want_attempts
                assert confidence[i, row] == want_conf
                if want_ok:
                    assert verdict[i, row] == want_verdict


class _KeyLog:
    """A sha256 stand-in that records every key it digests."""

    def __init__(self, log: list[bytes], data: bytes = b"", state=None):
        self._log = log
        self._data = data
        self._state = state if state is not None else hashlib.sha256(data)

    def copy(self) -> "_KeyLog":
        return _KeyLog(self._log, self._data, self._state.copy())

    def update(self, data: bytes) -> None:
        self._data += data
        self._state.update(data)

    def digest(self) -> bytes:
        self._log.append(self._data)
        return self._state.digest()


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_fleets())
def test_task_hashes_conf_keys_of_yes_cells_only(fleet):
    roster, knobs, incidents = fleet
    log: list[bytes] = []
    counting = SimpleNamespace(sha256=lambda data=b"": _KeyLog(log, data))
    with FleetServer(roster, **knobs) as server:
        for ids, truths, _ in server._dispatch(incidents):
            for shard_id, rows in enumerate(server._shard_rows):
                log.clear()
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(fleet_module, "hashlib", counting)
                    ok, verdict, _, _ = _score_chunk(
                        server._ctx, shard_id, ids, truths
                    )
                hashed = [
                    key.decode() for key in log if b"|conf|" in key
                ]
                yes = [
                    f"{roster.seed}|conf|{roster.specs[row].team}|{ids[i]}"
                    for j, row in enumerate(rows)
                    for i in range(len(ids))
                    if ok[i, j] and verdict[i, j]
                ]
                assert len(hashed) == len(yes)
                assert sorted(hashed) == sorted(yes)


# -- per-server contexts ------------------------------------------------------


def _log(server, calls):
    for call in calls:
        server.route_trace(call)
    return json.dumps(server.decision_records(), sort_keys=True)


def test_in_process_servers_keep_their_own_context(monkeypatch):
    roster = build_fleet_roster(24, seed=4)
    bases = sorted({spec.base for spec in roster.specs})
    incidents = [
        _incident(3 * k + 1, bases[k % len(bases)]) for k in range(24)
    ]
    calls = [incidents[:8], incidents[8:16], incidents[16:]]
    sleeps: list[float] = []
    monkeypatch.setattr(fleet_module.time, "sleep", sleeps.append)

    def server(**kwargs):
        clock = FakeClock()
        return FleetServer(
            roster, clock=clock, obs=Observability(clock=clock), **kwargs
        )

    with server() as alone:
        expected = _log(alone, calls)

    a = server()
    a.route_trace(calls[0])
    # A second server over the same roster, closed at once: its signal
    # file goes with its private directory, and A must not follow it.
    server(io_stall_s=0.05).close()
    a.route_trace(calls[1])
    # A third, kept open, with an I/O stall: A must not sleep it.
    c = server(io_stall_s=0.05)
    a.route_trace(calls[2])
    assert sleeps == [], "A slept another server's stall"
    c.route_trace(calls[0])
    assert sleeps and set(sleeps) == {0.05}
    c.close()
    assert c._ctx is None
    assert json.dumps(a.decision_records(), sort_keys=True) == expected
    a.close()
    # In-process servers never publish into the pool-worker context.
    assert fleet_module._WORKER_CTX == {}
