"""Pin the monitoring query sequence that fault drills are timed against.

``FaultPlan`` schedules faults by 1-based query *ordinal*, so a change to
the number or order of store queries on the feature path would silently
re-time every fault drill.  On that path every query is a matrix pull
of the builder's per-call plan: one ``query_series_matrix`` per
time-series dataset (look-back window plus reference for a feature
build, look-back window only for a CPD+-only call), then one
``query_event_type_counts_matrix`` per event dataset, each covering
every device the call reads from that dataset.  This module serves a fixed seeded
workload — dataset builds and training for PhyNet plus the four starter
Scouts, then live predictions — over a ``FaultyStore`` with a no-fault
plan, and compares every gated query's ``(ordinal, dataset)`` with the
committed ``fault_drill_sequence.json``.

A deliberate re-baseline (a change that is *meant* to move the drills)
rewrites the file with::

    PYTHONPATH=src python -m tests.test_fault_drill_pins
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import phynet_config, team_scout_configs
from repro.core import ScoutFramework, TrainingOptions
from repro.datacenter import TopologySpec
from repro.monitoring import FaultPlan, FaultyStore
from repro.monitoring.faults import TransientMonitoringError
from repro.obs import Observability
from repro.simulation import CloudSimulation, SimulationConfig

_PINNED = Path(__file__).with_name("fault_drill_sequence.json")
_HISTORY = 90
_SERVED = 30


class RecordingStore(FaultyStore):
    """A ``FaultyStore`` that logs ``(ordinal, dataset)`` per gated query."""

    def __init__(self, inner, plan: FaultPlan) -> None:
        super().__init__(inner, plan)
        self.log: list[tuple[int, str]] = []

    def _gate(self, dataset: str) -> None:
        self.log.append((self.queries + 1, dataset))
        super()._gate(dataset)


def _deployment():
    """Five Scouts trained through a recording store, plus served inputs."""
    sim = CloudSimulation(
        SimulationConfig(seed=23, duration_days=60.0),
        topology_spec=TopologySpec(
            n_dcs=2, clusters_per_dc=3, racks_per_cluster=3,
            servers_per_rack=3, vms_per_server=2,
        ),
    )
    incidents = sim.generate(_HISTORY + _SERVED)
    store = RecordingStore(sim.store, FaultPlan())
    configs = [phynet_config()] + [
        config for _, config in sorted(team_scout_configs().items())
    ]
    scouts = []
    for config in configs:
        framework = ScoutFramework(
            config, sim.topology, store,
            TrainingOptions(n_estimators=8, cv_folds=2, rng=5),
        )
        scouts.append(
            framework.train(framework.dataset(incidents[:_HISTORY]).usable())
        )
    return sim, scouts, store, incidents[_HISTORY:]


def _serve(scouts, incidents) -> None:
    for incident in incidents:
        for scout in scouts:
            scout.predict(incident)


def _encode(log: list[tuple[int, str]]) -> dict:
    """Run-length encode a log whose ordinals count up from 1.

    Runs are ``[dataset index, length]`` pairs into a sorted name table.
    """
    assert [ordinal for ordinal, _ in log] == list(range(1, len(log) + 1))
    names = sorted({dataset for _, dataset in log})
    index = {name: i for i, name in enumerate(names)}
    runs: list[list[int]] = []
    for _, dataset in log:
        if runs and runs[-1][0] == index[dataset]:
            runs[-1][1] += 1
        else:
            runs.append([index[dataset], 1])
    return {"datasets": names, "runs": runs}


def _decode(encoded: dict) -> list[tuple[int, str]]:
    names = encoded["datasets"]
    datasets = [names[i] for i, n in encoded["runs"] for _ in range(n)]
    return list(enumerate(datasets, start=1))


@pytest.fixture(scope="module")
def deployment():
    return _deployment()


def test_default_path_query_sequence_is_pinned(deployment):
    _, scouts, store, served = deployment
    log = list(store.log)  # training, then the live predictions below
    before = len(store.log)
    try:
        _serve(scouts, served)
        log += store.log[before:]
    finally:
        del store.log[before:]
    pinned = _decode(json.loads(_PINNED.read_text()))
    assert len(log) == len(pinned)
    assert log == pinned


def test_query_counter_matches_store_ordinals_under_faults(deployment):
    # Counter ticks are tallied and flushed when a builder call returns
    # or raises; at each boundary the query counter must equal the
    # number of store queries the calls issued, faults included.
    sim, scouts, _, served = deployment
    faulty = FaultyStore(sim.store, FaultPlan(seed=3, error_rate=0.03))
    obs = Observability()
    saved = [(scout.builder.store, scout.builder.obs) for scout in scouts]
    raised = 0
    try:
        for scout in scouts:
            scout.builder.store = faulty
            scout.builder.obs = obs
        for incident in served:
            for scout in scouts:
                try:
                    scout.predict(incident)
                except TransientMonitoringError:
                    raised += 1
                queries = obs.metrics.get("monitoring_queries_total")
                total = queries.total() if queries is not None else 0.0
                assert total == faulty.queries
    finally:
        for scout, (store, old_obs) in zip(scouts, saved):
            scout.builder.store = store
            scout.builder.obs = old_obs
    assert 0 < raised < len(served) * len(scouts)
    assert faulty.injected_errors == raised


if __name__ == "__main__":
    _, scouts, store, served = _deployment()
    _serve(scouts, served)
    encoded = {
        "workload": (
            f"seed-23 simulation; {_HISTORY} training incidents for PhyNet "
            f"and the starter Scouts, then {_SERVED} served incidents"
        ),
        **_encode(store.log),
    }
    _PINNED.write_text(json.dumps(encoded, separators=(",", ":")) + "\n")
