"""Cross-process determinism: the same seed routes the same way, byte for byte.

This module's ``__main__`` serves one seeded workload through three
tiers and prints everything a replay would compare:

* a ``handle`` / ``handle_batch`` burst over a ``FaultyStore`` (injected
  errors, per-query latency, retries) with circuit breakers;
* a ``StreamServer`` run with load shedding and a hot-swap scheduled
  mid-stream;
* outage storms of incident copies through ``handle_batch``, with a
  feature-vector memo cap small enough to evict;
* a ``FleetServer`` run with transient failures and breakers;

and, for each tier, the full decision log and the ``obs.render()``
exposition, plus one ``series_seed`` value.

The test runs that script twice in fresh interpreters that differ in
``PYTHONHASHSEED``, in the order the Scouts are registered, and in the
fake clock's start (0 vs 1024).  Every clock advance is dyadic, so the
shifted clock's arithmetic is exact and float rounding cannot pass for
non-determinism.  Wall-clock time, unseeded randomness, uuids, and set
or registration order that leak into a decision or a metric make the
two outputs differ.

Run one side by hand with
``PYTHONPATH=src python -m tests.test_determinism --clock-start 1024 --reverse``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import repro.core.features as features_module
from repro.config import phynet_config, team_scout_configs
from repro.core import ScoutFramework, TrainingOptions
from repro.datacenter import TopologySpec
from repro.monitoring import FakeClock, FaultPlan, FaultyStore, series_seed
from repro.obs import Observability
from repro.serving import (
    BreakerPolicy,
    FleetServer,
    IncidentManager,
    RetryPolicy,
    StreamServer,
    build_fleet_roster,
    poisson_arrivals,
)
from repro.simulation import CloudSimulation, SimulationConfig
from tests.test_serving_golden import _plain

REPO_ROOT = Path(__file__).resolve().parent.parent

_HISTORY = 70
_SERVED = 30
_TICK = 1.0 / 64.0  # arrival offsets are multiples of this


def _deployment():
    """PhyNet and the four starter Scouts, trained through a fault-free
    ``FaultyStore``."""
    sim = CloudSimulation(
        SimulationConfig(seed=29, duration_days=60.0),
        topology_spec=TopologySpec(
            n_dcs=2, clusters_per_dc=3, racks_per_cluster=3,
            servers_per_rack=3, vms_per_server=2,
        ),
    )
    incidents = sim.generate(_HISTORY + _SERVED)
    store = FaultyStore(sim.store, FaultPlan())
    configs = [phynet_config()] + [
        config for _, config in sorted(team_scout_configs().items())
    ]
    scouts = []
    for config in configs:
        framework = ScoutFramework(
            config, sim.topology, store,
            TrainingOptions(n_estimators=8, cv_folds=2, rng=7),
        )
        scout = framework.train(
            framework.dataset(incidents[:_HISTORY]).usable()
        )
        # Sends part of the served incidents down the CPD+ route.
        scout.selector.novelty_threshold = 0.1
        scouts.append(scout)
    return sim, scouts, store, incidents[_HISTORY:]


def _fresh(scouts, store, plan, clock) -> None:
    """Detach the Scouts from the last manager and re-arm the store."""
    for scout in scouts:
        scout.obs = None
        scout.builder.obs = None
        scout.builder.clear_cache()
    store.plan = plan
    store.clock = clock
    store.queries = 0
    store.injected_errors = 0


def _manager(sim, scouts, clock, reverse: bool):
    manager = IncidentManager(
        sim.registry,
        clock=clock,
        breaker=BreakerPolicy(failure_threshold=3, cooldown_seconds=4.0),
        retry=RetryPolicy(
            max_attempts=2, backoff_seconds=0.25, sleep=clock.advance
        ),
    )
    for scout in reversed(scouts) if reverse else scouts:
        manager.register(scout)
    return manager


def drive(clock_start: float, reverse: bool) -> dict:
    """Serve the workload; return every comparable artifact."""
    sim, scouts, store, served = _deployment()
    out: dict = {}

    # handle / handle_batch over injected faults, retries and breakers.
    clock = FakeClock(clock_start)
    _fresh(
        scouts, store,
        FaultPlan(seed=5, error_rate=0.3, latency_seconds=0.125), clock,
    )
    manager = _manager(sim, scouts, clock, reverse)
    for incident in served[:10]:
        manager.handle(incident)
        clock.advance(8.0)  # long enough for an open breaker to probe
    manager.handle_batch(served[10:])
    out["batch"] = {
        "decisions": [_plain(d) for d in manager.log],
        "exposition": manager.obs.render(),
    }

    # An open-loop stream that sheds, with a hot-swap mid-stream.
    clock = FakeClock(clock_start)
    _fresh(
        scouts, store,
        FaultPlan(seed=6, error_rate=0.3, latency_seconds=0.125), clock,
    )
    manager = _manager(sim, scouts, clock, reverse)
    server = StreamServer(
        manager, queue_cap=3, shed_policy="triage", service_time=2.0
    )
    server.schedule(8, lambda: manager.swap(scouts[0]))
    offsets = poisson_arrivals(len(served), 0.5, seed=4)
    arrivals = [
        (float(np.round(offset / _TICK)) * _TICK, incident)
        for offset, incident in zip(offsets, served)
    ]
    outcomes = server.run(arrivals)
    out["stream"] = {
        "decisions": [_plain(d) for d in manager.log],
        "outcomes": [
            _plain(
                (o.incident_id, o.status, o.queue_wait, o.shed_reason,
                 o.suggested_team, o.triage_routes,
                 o.finished_at - o.submitted_at)
            )
            for o in outcomes
        ],
        "exposition": manager.obs.render(),
    }

    # Outage storms: round-robin copies of a few incidents at one
    # instant under fresh ids, so the feature-vector memo hits, with a
    # cap below a storm's worth of distinct incidents, so it evicts.
    clock = FakeClock(clock_start)
    _fresh(
        scouts, store,
        FaultPlan(seed=7, error_rate=0.08, latency_seconds=0.125), clock,
    )
    manager = _manager(sim, scouts, clock, reverse)
    next_id = max(incident.incident_id for incident in served) + 1
    cap = features_module._VECTOR_CAP
    features_module._VECTOR_CAP = 4
    try:
        for first in range(0, len(served), 6):
            distinct = served[first:first + 6]
            storm = [
                replace(incident, incident_id=next_id + k)
                for k, incident in enumerate(distinct * 3)
            ]
            next_id += len(storm)
            manager.handle_batch(storm)
            clock.advance(4.0)
    finally:
        features_module._VECTOR_CAP = cap
    out["storm"] = {
        "decisions": [_plain(d) for d in manager.log],
        "exposition": manager.obs.render(),
    }

    # A fleet with transient failures and breakers.
    clock = FakeClock(clock_start)
    with FleetServer(
        build_fleet_roster(30, seed=2),
        shard_count=4,
        chunk_size=5,
        failure_rate=0.3,
        breaker=BreakerPolicy(failure_threshold=2, cooldown_seconds=4.0),
        clock=clock,
        obs=Observability(clock=clock),
    ) as fleet:
        fleet.calibrate(served[:8])
        for first in range(8, len(served), 4):
            fleet.route_trace(served[first:first + 4])
            clock.advance(3.0)
        out["fleet"] = {
            "decisions": fleet.decision_records(),
            "exposition": fleet.obs.render(),
        }

    out["series_seed"] = series_seed(7, "ping_statistics", "srv-0.c1.dc0")
    return out


def _spawn_run(hash_seed: str, clock_start: float, reverse: bool):
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=str(REPO_ROOT / "src"),
    )
    argv = [
        sys.executable, "-m", "tests.test_determinism",
        "--clock-start", repr(clock_start),
    ]
    if reverse:
        argv.append("--reverse")
    return subprocess.Popen(
        argv, cwd=REPO_ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def test_two_processes_route_byte_identically():
    runs = [
        _spawn_run("1", 0.0, reverse=False),
        _spawn_run("2", 1024.0, reverse=True),
    ]
    outputs = []
    for proc in runs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        outputs.append(stdout)
    first, second = (json.loads(text) for text in outputs)
    for part in sorted(first):
        assert first[part] == second[part], f"{part} differs across processes"
    assert outputs[0] == outputs[1]

    # The workload really reached the paths it claims to pin.
    batch, stream = first["batch"], first["stream"]
    statuses = {
        outcome["status"]
        for decision in batch["decisions"]
        for outcome in decision["outcomes"]
    }
    assert {"ok", "error", "breaker_open"} <= statuses
    assert 'to_state="open"' in batch["exposition"]
    routes = {
        p["route"] for d in batch["decisions"] for p in d["predictions"]
    }
    assert {"rf", "cpd+"} <= routes
    assert {o[1] for o in stream["outcomes"]} == {"served", "shed_triage"}
    epochs = {
        epoch for d in stream["decisions"] for _, epoch in d["model_epochs"]
    }
    assert epochs == {1, 2}
    assert 'status="breaker_open"' in first["fleet"]["exposition"]
    assert 'monitoring_cache_hits_total{kind="vector"}' in (
        first["storm"]["exposition"]
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--clock-start", type=float, default=0.0)
    parser.add_argument("--reverse", action="store_true",
                        help="register the Scouts in reverse order")
    args = parser.parse_args()
    sys.stdout.write(
        json.dumps(drive(args.clock_start, args.reverse), sort_keys=True)
        + "\n"
    )
