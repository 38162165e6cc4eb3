"""The benchmark's three workloads: ``storm``, ``stream`` and ``fleet``.

Each workload is a class with the same life cycle, driven by ``run.py``:

* ``__init__(seed, seconds, workdir)`` is the set-up the ``setup_s``
  metric times: simulate, train or build, register, warm up.  The
  inputs it generates depend only on ``seed`` and the run length.
* ``reference()`` computes the serial or in-process answers the output
  checks compare against.  It runs once, after set-up and outside its
  timing.
* ``measure(seconds)`` runs the timed phase and returns a
  :class:`Measurement`; it can run more than once on the same inputs
  (the traced run measures once untraced, once traced).
* ``check(measurement)`` returns ``(name, ok, detail)`` triples.
* ``close()`` stops every thread and process the workload started.

Workloads use the program's defaults.  Only deployment concurrency
(fixed at 2, a two-core box) and training sizes are set; no opt-in
fast path (shards, shard memmaps, the incremental engine, the TTL
cache) is passed, so the benchmark measures what a user gets.  The
workload seed only shapes the generated inputs.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter, process_time

import numpy as np

from repro.config import phynet_config, team_scout_configs
from repro.core import ScoutFramework, TrainingOptions
from repro.incidents import IncidentSource
from repro.serving import (
    FleetServer,
    IncidentManager,
    StreamServer,
    build_fleet_roster,
)
from repro.simulation import CloudSimulation, SimulationConfig

__all__ = ["WORKLOADS", "Measurement"]

# Deployment concurrency: the two cores of the box the bounds were set on.
JOBS = 2

# The deployment (simulated history, trained Scouts, fleet roster) is
# the same for every run; the workload seed picks the served inputs.
DEPLOYMENT_SEED = 7

# Training sizes: a two-month history is the smallest that gives every
# starter Scout both classes while keeping set-up to a few seconds.
HISTORY_DAYS = 60.0
HISTORY_INCIDENTS = 160
TREES = 40

# Held-out future incidents that storm and stream inputs are drawn from.
POOL_INCIDENTS = 480

# storm: DISTINCT incidents per storm, each copied COPIES times; the
# seed picks POOL_ROUNDS storms, which are cycled.
STORM_DISTINCT = 4
STORM_COPIES = 8
STORM_POOL_ROUNDS = 18

# stream: about 55% of the serving capacity (~18 incidents/s, two
# cores) measured at the commit that introduced this benchmark, so the
# queue is busy but stable; every STREAM_SAMPLE_EVERY-th arrival is
# checked against a serial reference.
STREAM_RATE = 10.0
STREAM_SAMPLE_EVERY = 16

# fleet: the 120-team roster, calibrated on FLEET_CALIBRATION incidents,
# routes FLEET_CALL incidents per route_trace call, drawn from a pool of
# FLEET_POOL simulated incidents under fresh, seed-chosen ids.
FLEET_TEAMS = 120
FLEET_DAYS = 120.0
FLEET_CALIBRATION = 128
FLEET_POOL = 512
FLEET_CALL = 128
FLEET_REFERENCE_PREFIX = 256

# An incident's latency is, on storm and stream, the manager's own
# per-incident latency (fan-out, waits for busy Scouts and the pool,
# composition); on fleet, which decides whole route_trace calls, the
# call that carried it.  ``within_limit_ratio`` holds each latency to
# the limit below, except that stream times each arrival from when it
# was due, so queueing and late admission count against the limit.
LATENCY_LIMIT_S = {"storm": 0.25, "stream": 0.25, "fleet": 1.0}


@dataclass
class Measurement:
    """What one timed phase produced."""

    started: float
    wall_s: float
    busy_s: float  # wall time spent inside the program's serving calls
    cpu_s: float  # CPU time of this process and its workers
    attempted: int
    failed: int
    correct: int
    latencies: list[float]  # in completion order
    missed_limit: int
    # Throughput of each serving call; None where the load is offered at
    # a fixed rate and throughput is decided incidents over the run.
    call_rates: list[float] | None = None
    layers: dict = field(default_factory=dict)
    outputs: object = None

    def end_to_end(self) -> dict[str, float]:
        decided = self.attempted - self.failed
        routed = (
            statistics.median(self.call_rates) if self.call_rates
            else decided / self.wall_s
        )
        return {
            "routed_per_s": routed,
            "cpu_ms_per_incident": 1000.0 * self.cpu_s / max(decided, 1),
            "latency_p50_s": _median_of_thirds(self.latencies, 50),
            "latency_p95_s": _median_of_thirds(self.latencies, 95),
            "within_limit_ratio": 1.0 - self.missed_limit / self.attempted,
            "failed_ratio": self.failed / self.attempted,
            "accuracy": self.correct / self.attempted,
        }


def _median_of_thirds(values: list[float], q: float) -> float:
    """The median over the run's three consecutive thirds of their q-th
    percentile: a stall in one part of the run moves one third only."""
    return float(statistics.median(
        np.percentile(part, q) for part in np.array_split(np.asarray(values), 3)
    ))


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _cpu_seconds() -> float:
    """CPU time of this process (all threads) and its live child processes.

    The fleet scores on pool processes, which only report their CPU time
    to ``getrusage`` once they exit, so they are read from ``/proc``.
    """
    total = process_time()
    tasks = f"/proc/{os.getpid()}/task"
    for tid in os.listdir(tasks):
        try:
            with open(f"{tasks}/{tid}/children") as children:
                pids = children.read().split()
            total += sum(_proc_cpu_seconds(int(pid)) for pid in pids)
        except FileNotFoundError:
            continue  # the thread or child ended meanwhile
    return total


def _counter_total(metrics, name: str) -> float:
    family = metrics.get(name)
    return family.total() if family is not None else 0.0


def _cache_counters(metrics) -> tuple[float, float, float]:
    return (
        _counter_total(metrics, "monitoring_cache_hits_total"),
        _counter_total(metrics, "monitoring_queries_total"),
        _counter_total(metrics, "shard_materializations_total"),
    )


def _cache_layers(before, after) -> dict[str, float]:
    hits, queries, materialized = (a - b for a, b in zip(after, before))
    lookups = hits + queries
    return {
        "core.features.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "monitoring.store.shard_materializations": materialized,
    }


def _failed_call(decision) -> bool:
    return any(outcome.status.value in ("error", "timeout")
               for outcome in decision.outcomes)


class _ScoutWorkload:
    """Set-up shared by ``storm`` and ``stream``: five trained Scouts.

    PhyNet plus the four starter Scouts of ``team_scout_configs()``,
    trained on one simulated history and registered with one
    :class:`IncidentManager`, and a pool of held-out future incidents
    the seed draws the served inputs from.
    """

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        self.sim = CloudSimulation(
            SimulationConfig(seed=DEPLOYMENT_SEED, duration_days=HISTORY_DAYS)
        )
        history = self.sim.generate(HISTORY_INCIDENTS)
        options = TrainingOptions(n_estimators=TREES, n_jobs=JOBS)
        configs = [phynet_config()] + [
            config for _, config in sorted(team_scout_configs().items())
        ]
        scouts = []
        for config in configs:
            framework = ScoutFramework(
                config, self.sim.topology, self.sim.store, options
            )
            scouts.append(framework.train(framework.dataset(history).usable()))
        # Generating incidents injects their monitoring effects, so the
        # pool is built after training, before anything is served.
        pool = list(self.sim.generate(POOL_INCIDENTS, start_day=HISTORY_DAYS))
        warmup = pool.pop()
        self.next_id = warmup.incident_id + 1
        self.inputs(pool, np.random.default_rng(seed % (1 << 63)), seconds)
        self.manager = IncidentManager(
            self.sim.registry, n_jobs=JOBS, batch_workers=JOBS
        )
        for scout in scouts:
            self.manager.register(scout)
        self.manager.handle(warmup)

    def inputs(self, pool: list, rng: np.random.Generator, seconds: float) -> None:
        raise NotImplementedError

    def close(self) -> None:
        self.manager.close()


class Storm(_ScoutWorkload):
    """Closed-loop outage storms through ``handle_batch``."""

    def inputs(self, pool: list, rng: np.random.Generator, seconds: float) -> None:
        # A storm is an alert storm: monitor-raised incidents only (a
        # customer report may name no component, which makes it a cheap
        # fallback and would let the seed swing the storm's cost).  Storms
        # walk the scenarios in a fixed order, so every seed serves the
        # same scenario mix; the seed picks which incidents.
        by_scenario: dict[str, list] = {}
        for incident in pool:
            if incident.source is not IncidentSource.CUSTOMER:
                by_scenario.setdefault(incident.scenario, []).append(incident)
        names = sorted(by_scenario)
        self.rounds = []
        for r in range(STORM_POOL_ROUNDS):
            distinct = []
            for j in range(STORM_DISTINCT):
                candidates = by_scenario[names[(r * STORM_DISTINCT + j) % len(names)]]
                distinct.append(candidates[int(rng.integers(len(candidates)))])
            self.rounds.append(distinct)

    def reference(self) -> None:
        self.expected = {}
        for distinct in self.rounds:
            for incident in distinct:
                decision = self.manager.handle(incident)
                self.expected[incident.incident_id] = (
                    decision.suggested_team, decision.answers
                )

    def _storm(self, index: int) -> list:
        """Storm ``index``: its incidents copied round-robin under fresh ids."""
        distinct = self.rounds[index % len(self.rounds)]
        first = self.next_id + index * STORM_DISTINCT * STORM_COPIES
        return [
            replace(incident, incident_id=first + k * STORM_DISTINCT + j)
            for k in range(STORM_COPIES)
            for j, incident in enumerate(distinct)
        ]

    def measure(self, seconds: float) -> Measurement:
        metrics = self.manager.obs.metrics
        before = _cache_counters(metrics)
        origin: dict[int, int] = {}
        served = []
        rates = []
        busy = 0.0
        cpu = _cpu_seconds()
        started = perf_counter()
        index = 0
        while perf_counter() - started < seconds:
            storm = self._storm(index)
            distinct = self.rounds[index % len(self.rounds)]
            for position, incident in enumerate(storm):
                origin[incident.incident_id] = distinct[
                    position % STORM_DISTINCT
                ].incident_id
            call = perf_counter()
            decisions = self.manager.handle_batch(storm)
            elapsed = perf_counter() - call
            busy += elapsed
            rates.append(len(storm) / elapsed)
            served.extend(zip(storm, decisions))
            index += 1
        wall = perf_counter() - started
        cpu = _cpu_seconds() - cpu
        latencies = [d.latency_seconds for _, d in served]
        limit = LATENCY_LIMIT_S["storm"]
        return Measurement(
            started=started,
            wall_s=wall,
            busy_s=busy,
            cpu_s=cpu,
            attempted=len(served),
            failed=sum(_failed_call(d) for _, d in served),
            correct=sum(d.suggested_team == i.responsible_team for i, d in served),
            latencies=latencies,
            missed_limit=sum(latency > limit for latency in latencies),
            call_rates=rates,
            layers=_cache_layers(before, _cache_counters(metrics)),
            outputs=(served, origin),
        )

    def check(self, m: Measurement) -> list[tuple[str, bool, str]]:
        served, origin = m.outputs
        mismatched = [
            incident.incident_id
            for incident, decision in served
            if (decision.suggested_team, decision.answers)
            != self.expected[origin[incident.incident_id]]
        ]
        ids = [decision.incident_id for _, decision in served]
        in_order = ids == [incident.incident_id for incident, _ in served]
        return [
            ("storm.one_decision_per_incident_in_order", in_order, f"{len(ids)} decisions"),
            ("storm.copies_match_serial_reference", not mismatched,
             f"{len(mismatched)} of {len(served)} copies differ"),
        ]


class Stream(_ScoutWorkload):
    """An open-loop Poisson trace of distinct future incidents."""

    def inputs(self, pool: list, rng: np.random.Generator, seconds: float) -> None:
        # A Poisson process conditioned on its count: the offered rate is
        # exact, the arrival pattern is the seed's.
        n = int(round(STREAM_RATE * seconds))
        offsets = np.sort(rng.uniform(0.0, seconds, size=n))
        order = rng.permutation(len(pool))
        self.arrivals = [
            (float(offset), replace(pool[order[k % len(pool)]],
                                    incident_id=self.next_id + k))
            for k, offset in enumerate(offsets)
        ]

    def reference(self) -> None:
        self.expected = {}
        for _, incident in self.arrivals[::STREAM_SAMPLE_EVERY]:
            self.expected[incident.incident_id] = self.manager.handle(
                incident
            ).suggested_team

    def measure(self, seconds: float) -> Measurement:
        metrics = self.manager.obs.metrics
        before = _cache_counters(metrics)
        arrivals = self.arrivals
        server = StreamServer(self.manager)
        cpu = _cpu_seconds()
        started = perf_counter()
        outcomes = server.run(arrivals)
        wall = perf_counter() - started
        cpu = _cpu_seconds() - cpu
        due = {incident.incident_id: started + offset for offset, incident in arrivals}
        truth = {incident.incident_id: incident.responsible_team for _, incident in arrivals}
        limit = LATENCY_LIMIT_S["stream"]
        served = [o for o in outcomes if not o.shed]
        due_latencies = [o.finished_at - due[o.incident_id] for o in served]
        # A served incident's service starts when its queue wait ends.
        busy = sum(o.finished_at - (o.submitted_at + o.queue_wait) for o in served)
        lags = [o.submitted_at - due[o.incident_id] for o in outcomes]
        waits = [o.queue_wait for o in served]
        failed = sum(1 for o in outcomes if o.shed or _failed_call(o.decision))
        layers = _cache_layers(before, _cache_counters(metrics))
        layers.update({
            "serving.stream.due_latency_p50_s": float(np.percentile(due_latencies, 50)),
            "serving.stream.due_latency_p95_s": float(np.percentile(due_latencies, 95)),
            "serving.stream.queue_wait_p50_s": float(np.percentile(waits, 50)),
            "serving.stream.queue_wait_p95_s": float(np.percentile(waits, 95)),
            "serving.stream.generator_lag_p95_s": float(np.percentile(lags, 95)),
            "serving.stream.shed": float(len(outcomes) - len(served)),
            "serving.stream.idle_s": wall - busy,
        })
        return Measurement(
            started=started,
            wall_s=wall,
            busy_s=busy,
            cpu_s=cpu,
            attempted=len(arrivals),
            failed=failed,
            correct=sum(o.suggested_team == truth[o.incident_id] for o in served),
            latencies=[o.decision.latency_seconds for o in served],
            missed_limit=(len(outcomes) - len(served))
            + sum(latency > limit for latency in due_latencies),
            layers=layers,
            outputs=(arrivals, outcomes),
        )

    def check(self, m: Measurement) -> list[tuple[str, bool, str]]:
        arrivals, outcomes = m.outputs
        arrived = sorted(incident.incident_id for _, incident in arrivals)
        decided = sorted(o.incident_id for o in outcomes)
        sampled = [o for o in outcomes if o.incident_id in self.expected and not o.shed]
        mismatched = [
            o.incident_id for o in sampled
            if o.suggested_team != self.expected[o.incident_id]
        ]
        return [
            ("stream.one_outcome_per_arrival", arrived == decided,
             f"{len(arrivals)} arrivals, {len(outcomes)} outcomes"),
            ("stream.sample_matches_serial_reference", bool(sampled) and not mismatched,
             f"{len(mismatched)} of {len(sampled)} sampled decisions differ"),
        ]


class Fleet:
    """The 120-team fleet behind a 2-worker process pool, no I/O stall."""

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        self.roster = build_fleet_roster(FLEET_TEAMS, seed=DEPLOYMENT_SEED)
        sim = CloudSimulation(
            SimulationConfig(seed=DEPLOYMENT_SEED, duration_days=FLEET_DAYS)
        )
        incidents = list(sim.generate(FLEET_CALIBRATION + FLEET_POOL))
        self.calibration = incidents[:FLEET_CALIBRATION]
        # The fleet's draws are keyed on incident ids, so fresh ids drawn
        # from the seed give every seed its own trace over the pool.
        rng = np.random.default_rng(seed % (1 << 63))
        self.pool = [incidents[FLEET_CALIBRATION + i] for i in rng.permutation(FLEET_POOL)]
        self.next_id = len(incidents) + int(rng.integers(1 << 40))
        # The signal memmap lives in the benchmark's own work directory.
        self.shard_dir = workdir
        self.server = FleetServer(
            self.roster, workers=JOBS, use_processes=True, io_stall_s=0.0,
            shard_dir=workdir,
        )
        # Calibrating starts the worker pool; one routed call warms it up.
        self.server.calibrate(self.calibration)
        self.server.route_trace(self._call(-1))

    def _call(self, index: int) -> list:
        """Route call ``index``: pool incidents under fresh ids."""
        first = index * FLEET_CALL
        return [
            replace(
                self.pool[(first + k) % len(self.pool)],
                incident_id=self.next_id + first + k,
            )
            for k in range(FLEET_CALL)
        ]

    def reference(self) -> None:
        with FleetServer(self.roster, shard_dir=self.shard_dir) as server:
            server.calibrate(self.calibration)
            for index in range(FLEET_REFERENCE_PREFIX // FLEET_CALL):
                server.route_trace(self._call(index))
            self.expected = json.dumps(server.decision_records(), sort_keys=True)

    def measure(self, seconds: float) -> Measurement:
        self.server.decisions.clear()
        latencies = []
        rates = []
        busy = 0.0
        cpu = _cpu_seconds()
        started = perf_counter()
        index = 0
        while perf_counter() - started < seconds:
            call = perf_counter()
            decisions = self.server.route_trace(self._call(index))
            elapsed = perf_counter() - call
            busy += elapsed
            rates.append(len(decisions) / elapsed)
            latencies.extend([elapsed] * len(decisions))
            index += 1
        wall = perf_counter() - started
        cpu = _cpu_seconds() - cpu
        decisions = self.server.decisions
        limit = LATENCY_LIMIT_S["fleet"]
        return Measurement(
            started=started,
            wall_s=wall,
            busy_s=busy,
            cpu_s=cpu,
            attempted=len(decisions),
            failed=sum(1 for d in decisions if d.errors or d.breaker_open),
            correct=sum(d.suggested_team == d.truth_team for d in decisions),
            latencies=latencies,
            missed_limit=sum(latency > limit for latency in latencies),
            call_rates=rates,
            outputs=list(decisions),
        )

    def check(self, m: Measurement) -> list[tuple[str, bool, str]]:
        decisions = m.outputs
        prefix = json.dumps(
            [d.to_record() for d in decisions[:FLEET_REFERENCE_PREFIX]],
            sort_keys=True,
        )
        return [
            ("fleet.pooled_log_matches_in_process_reference",
             len(decisions) >= FLEET_REFERENCE_PREFIX and prefix == self.expected,
             f"first {FLEET_REFERENCE_PREFIX} of {len(decisions)} decisions"),
        ]

    def close(self) -> None:
        self.server.close()


WORKLOADS = {"storm": Storm, "stream": Stream, "fleet": Fleet}
