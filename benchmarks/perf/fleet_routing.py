"""Fleet-routing bench: Master policy accuracy and multi-process throughput.

Exercises the fleet tier (``repro.serving.fleet``) the way the paper's
§7 deployment runs it — one Scout per team across the whole fleet, a
Master policy composing their answers — and reports four things:

* **Routing quality.**  ``fleet_accuracy`` is the fraction of trace
  incidents whose top candidate (after calibration, ranking, and the
  deterministic re-route chain) is the responsible team, against
  ``fleet_legacy_accuracy`` — how often the simulation's stochastic
  legacy hop chain *started* at the responsible team.  The fleet's win
  over that baseline is the paper's central claim in miniature.
* **Stall overlap.**  Routing is scored with a per-task
  ``io_stall_s`` stall that models the network-bound monitoring fetch a
  real Scout pays (the stall runs in the worker and never touches
  results).  ``fleet_ips`` is incidents/second through a
  ``--workers``-wide process pool; ``fleet_speedup_x`` is the wall-clock
  ratio of the 1-worker in-process run to the pooled run.  With the
  stall dominating the scoring CPU, the ratio measures how well the
  pool overlaps sleeping workers, not how fast the fleet scores.  Both
  are higher-is-better gate metrics: the pool must keep overlapping
  those stalls or the gate trips.
* **Scoring work.**  ``fleet_score_ips`` is the in-process routing
  rate over the same trace with no stall: the real per-incident cost
  of scoring every (Scout, incident) pair and composing the decisions.
  It is reported but not gated until ``BENCH_scout.json`` records it.
* **Determinism.**  ``fleet_decision_log_identical`` re-routes the same
  workload under a fake clock at worker counts {1 in-process, 2, N
  process-pool} and byte-compares the JSON decision logs and the
  Prometheus exposition.  The pool is a throughput knob, never a
  semantics knob; any divergence fails the bench.
"""

from __future__ import annotations

import json
import time

from repro.monitoring import FakeClock
from repro.obs import Observability, render_exposition
from repro.serving import FleetServer, build_fleet_roster
from repro.simulation import CloudSimulation, SimulationConfig

# The standard fleet workload: a 120-team roster (the ISSUE floor is
# 100) routing 256 traced incidents after a 128-incident calibration
# pass, over the same simulation seed the main bench uses.
FLEET_TEAMS = 120
FLEET_SEED = 0
SIM_SEED = 7
DURATION_DAYS = 120.0
TRACE_INCIDENTS = 256
CALIBRATION_INCIDENTS = 128
SPEEDUP_WORKERS = 4
# Per-task monitoring-fetch stall (seconds).  Chosen so the stall —
# the thing a process pool can overlap on any core count — dominates
# the single-core scoring CPU, keeping the speedup measurement honest
# on one-core CI boxes.
IO_STALL_S = 0.1


def _workload(trace_n: int, calibration_n: int):
    sim = CloudSimulation(
        SimulationConfig(seed=SIM_SEED, duration_days=DURATION_DAYS)
    )
    store = sim.generate(trace_n + calibration_n)
    incidents = list(store)
    return store, incidents[:calibration_n], incidents[calibration_n:]


def _run_once(
    roster,
    calibration,
    trace,
    *,
    workers: int,
    use_processes: bool,
    io_stall_s: float = 0.0,
    fake_clock: bool = True,
    warmup: int = 0,
) -> dict:
    """Calibrate + route one fleet configuration; return its artifacts."""
    clock = FakeClock() if fake_clock else None
    with FleetServer(
        roster,
        workers=workers,
        use_processes=use_processes,
        io_stall_s=io_stall_s,
        clock=clock,
        obs=Observability(clock=clock) if clock is not None else None,
    ) as server:
        if warmup:
            # Fault in the signal memmap and spin up the pool before
            # the timed lap; warm-up decisions are discarded below.
            server.route_trace(trace[:warmup])
            server.decisions.clear()
        server.calibrate(calibration)
        started = time.perf_counter()
        server.route_trace(trace)
        elapsed = time.perf_counter() - started
        return {
            "elapsed": elapsed,
            "accuracy": server.accuracy(),
            "summary": server.summary(),
            "log": json.dumps(server.decision_records(), sort_keys=True),
            "exposition": render_exposition(server.obs.metrics),
        }


def run_fleet_bench(
    n_teams: int = FLEET_TEAMS,
    trace_incidents: int = TRACE_INCIDENTS,
    calibration_incidents: int = CALIBRATION_INCIDENTS,
    speedup_workers: int = SPEEDUP_WORKERS,
    io_stall_s: float = IO_STALL_S,
) -> dict:
    """Run the three fleet measurements and return the metric dict."""
    store, calibration, trace = _workload(
        trace_incidents, calibration_incidents
    )
    roster = build_fleet_roster(n_teams, seed=FLEET_SEED)

    # 1. Determinism: same workload, fake clock, three pool shapes.
    runs = [
        _run_once(
            roster, calibration, trace, workers=w, use_processes=proc
        )
        for w, proc in ((1, False), (2, True), (speedup_workers, True))
    ]
    identical = all(
        run["log"] == runs[0]["log"]
        and run["exposition"] == runs[0]["exposition"]
        for run in runs[1:]
    )

    # 2. Quality, read off the canonical (1-worker) run.
    reference = runs[0]
    direct = sum(
        1
        for incident in trace
        if (t := store.trace(incident.incident_id)) is not None
        and t.hops
        and t.hops[0].team == incident.responsible_team
    )
    legacy_accuracy = direct / len(trace) if trace else 0.0

    # 3. Stall overlap: real clock, stalls on, warmed-up timed laps.
    serial = _run_once(
        roster, calibration, trace,
        workers=1, use_processes=False,
        io_stall_s=io_stall_s, fake_clock=False, warmup=16,
    )
    pooled = _run_once(
        roster, calibration, trace,
        workers=speedup_workers, use_processes=True,
        io_stall_s=io_stall_s, fake_clock=False, warmup=16,
    )

    # 4. Scoring work: real clock, no stall, in process.
    scoring = _run_once(
        roster, calibration, trace,
        workers=1, use_processes=False, fake_clock=False, warmup=16,
    )

    return {
        "fleet_teams": len(roster.specs),
        "fleet_shards": reference["summary"]["shards"],
        "fleet_incidents": len(trace),
        "fleet_accuracy": round(reference["accuracy"], 4),
        "fleet_legacy_accuracy": round(legacy_accuracy, 4),
        "fleet_reroutes": reference["summary"]["reroutes"],
        "fleet_legacy_fallbacks": reference["summary"]["legacy_fallbacks"],
        "fleet_decision_log_identical": identical,
        "fleet_io_stall_s": io_stall_s,
        "fleet_serial_ips": round(len(trace) / serial["elapsed"], 1),
        "fleet_ips": round(len(trace) / pooled["elapsed"], 1),
        "fleet_speedup_x": round(
            serial["elapsed"] / pooled["elapsed"], 3
        ),
        "fleet_workers": speedup_workers,
        "fleet_score_ips": round(len(trace) / scoring["elapsed"], 1),
    }


if __name__ == "__main__":
    print(json.dumps(run_fleet_bench(), indent=2))
