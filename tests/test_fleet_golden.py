"""Pinned fleet outputs: the decision log, calibration curve and exposition.

``fleet_golden.json`` was captured from the scalar per-pair scoring
kernel (the one ``tests/oracles.py`` keeps as ``reference_score_chunk``)
before fleet scoring became one array kernel per task.  Any change to
the task kernel, the columnar result assembly or the parent's breaker
fold must reproduce it byte for byte, in process and on a process pool.

The workload is chosen to reach every branch of the fold: transient
failures with retries, a hard-down team, breakers that trip, go
half-open after the cool-down and either re-close or re-open, and
incident ids at 0, around multiples of the 224-column window span, and
above 2**40.  The route-latency histogram is left out: it reads the
clock, not the scoring.

Regenerate (only when a change is *meant* to move these bytes) with
``PYTHONPATH=src python -m tests.test_fleet_golden``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.incidents.incident import Incident, IncidentSource, Severity
from repro.monitoring import FakeClock
from repro.obs import Observability, render_exposition
from repro.serving import BreakerPolicy, FleetServer, build_fleet_roster
from repro.simulation.teams import default_teams

GOLDEN = Path(__file__).with_name("fleet_golden.json")

_IDS = (
    [0, 1, 2, 223, 224, 225, 447, 448, 449, 671, 672, 673]
    + [2**40 + k for k in (0, 1, 223, 224, 225, 9_999)]
    + [3 * k + 11 for k in range(62)]
)


def golden_incidents() -> list[Incident]:
    bases = default_teams().names
    return [
        Incident(
            incident_id=incident_id,
            created_at=float(i),
            title=f"fleet golden incident {i}",
            body="",
            severity=Severity.HIGH,
            source=IncidentSource.CUSTOMER,
            source_team="",
            responsible_team=bases[(7 * i + incident_id) % len(bases)],
        )
        for i, incident_id in enumerate(_IDS)
    ]


def golden_artifacts(workers: int, use_processes: bool) -> dict:
    roster = build_fleet_roster(37, seed=9)
    clock = FakeClock()
    incidents = golden_incidents()
    with FleetServer(
        roster,
        workers=workers,
        use_processes=use_processes,
        shard_count=5,
        chunk_size=7,
        max_attempts=2,
        failure_rate=0.25,
        broken_teams=(roster.teams[3],),
        breaker=BreakerPolicy(failure_threshold=2, cooldown_seconds=10.0),
        clock=clock,
        obs=Observability(clock=clock),
    ) as server:
        samples = server.calibrate(incidents[:16])
        for first in range(16, len(incidents), 12):
            server.route_trace(incidents[first:first + 12])
            clock.advance(6.0)
        exposition = [
            line
            for line in render_exposition(server.obs.metrics).splitlines()
            if "fleet_route_latency_seconds" not in line
        ]
        return {
            "calibration_samples": samples,
            "curve": [dataclasses.asdict(b) for b in server.policy.curve],
            "decisions": server.decision_records(),
            "exposition": exposition,
            "summary": server.summary() | {"workers": None},
            "breakers": {
                team: [breaker.times_opened, breaker.probes]
                for team, breaker in sorted(server.breakers.items())
                if breaker.times_opened
            },
        }


def _dumps(artifacts: dict) -> str:
    return json.dumps(artifacts, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize(
    "workers,use_processes", [(1, False), (2, True)], ids=["inproc", "pool2"]
)
def test_fleet_outputs_match_pinned_golden(workers, use_processes):
    assert _dumps(golden_artifacts(workers, use_processes)) == GOLDEN.read_text()


def test_golden_workload_reaches_every_fold_branch():
    golden = json.loads(GOLDEN.read_text())
    text = "\n".join(golden["exposition"])
    for status in ("ok", "error", "retry", "breaker_open"):
        assert f'fleet_scout_answers_total{{status="{status}"}}' in text
    # The hard-down team re-opens after failed half-open probes, and
    # transiently failing teams trip and recover through a probe.
    opened = golden["breakers"].values()
    assert max(times for times, _ in opened) >= 2
    assert sum(1 for times, probes in opened if probes >= times) >= 2
    assert any(d["reroutes"] for d in golden["decisions"])


if __name__ == "__main__":
    GOLDEN.write_text(_dumps(golden_artifacts(1, False)))
