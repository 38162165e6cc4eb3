"""Pinned serving outputs of the default Scout path.

``serving_golden.json`` was captured from the per-device feature path
(one ``TimeSeries`` per device, pooled by concatenation — the path
``tests/oracles.py`` keeps as ``OracleFeatureBuilder``).  A seeded
``handle`` loop over a fake clock serves real Scouts (PhyNet plus the
four starter teams) and records:

* per Scout, the sha256 of every feature vector and CPD+ signal vector
  it computed, in call order;
* the decision log, as JSON;
* ``monitoring_queries_total`` / ``monitoring_cache_hits_total`` by
  query kind;
* the metrics exposition without the latency histograms (they read the
  clock, not the Scouts).

Regenerate (only when a change is *meant* to move these bytes) with
``PYTHONPATH=src python -m tests.test_serving_golden``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

import pytest

from repro.config import phynet_config, team_scout_configs
from repro.core import ScoutFramework, TrainingOptions
from repro.datacenter import TopologySpec
from repro.monitoring import FakeClock
from repro.obs import render_exposition
from repro.serving import IncidentManager, ServingDecision
from repro.simulation import CloudSimulation, SimulationConfig

GOLDEN = Path(__file__).with_name("serving_golden.json")
_HISTORY = 70
_SERVED = 30


def golden_deployment():
    """Five trained Scouts and the incidents the golden loop serves."""
    sim = CloudSimulation(
        SimulationConfig(seed=29, duration_days=60.0),
        topology_spec=TopologySpec(
            n_dcs=2, clusters_per_dc=3, racks_per_cluster=3,
            servers_per_rack=3, vms_per_server=2,
        ),
    )
    incidents = sim.generate(_HISTORY + _SERVED)
    configs = [phynet_config()] + [
        config for _, config in sorted(team_scout_configs().items())
    ]
    scouts = []
    for config in configs:
        framework = ScoutFramework(
            config, sim.topology, sim.store,
            TrainingOptions(n_estimators=8, cv_folds=2, rng=7),
        )
        scout = framework.train(
            framework.dataset(incidents[:_HISTORY]).usable()
        )
        # A low novelty bar sends part of the served stream down the
        # CPD+ route, so both model paths are pinned.
        scout.selector.novelty_threshold = 0.1
        scouts.append(scout)
    return sim, scouts, incidents[_HISTORY:]


def _digest(vector, extra=()) -> str:
    h = hashlib.sha256(vector.tobytes())
    for item in extra:
        h.update(item.encode())
    return h.hexdigest()


class _Recorder:
    """Wraps each Scout's feature and CPD+ signal calls, hashing outputs."""

    def __init__(self, scouts) -> None:
        self.hashes: dict[str, list[str]] = {}
        self._saved = []
        for scout in scouts:
            team = scout.team
            self.hashes[team] = []
            builder, cpd = scout.builder, scout.cpd
            self._saved.append((builder, cpd))
            builder.features = self._wrap_features(team, builder.features)
            cpd.signals = self._wrap_signals(team, cpd.signals)

    def _wrap_features(self, team, features):
        def wrapped(extracted, t):
            vector = features(extracted, t)
            self.hashes[team].append("f:" + _digest(vector))
            return vector

        return wrapped

    def _wrap_signals(self, team, signals):
        def wrapped(extracted, t):
            vector, triggers = signals(extracted, t)
            self.hashes[team].append("s:" + _digest(vector, triggers))
            return vector, triggers

        return wrapped

    def close(self) -> None:
        for builder, cpd in self._saved:
            del builder.features
            del cpd.signals


def _plain(value):
    """JSON-ready form of a logged decision (enums by value)."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, ServingDecision):
        return {name: _plain(getattr(value, name)) for name in value.FIELDS}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, float) or hasattr(value, "item"):
        return repr(float(value))
    return value


def golden_artifacts(deployment) -> dict:
    sim, scouts, served = deployment
    for scout in scouts:
        scout.obs = None
        scout.builder.obs = None
        scout.builder.clear_cache()
    recorder = _Recorder(scouts)
    try:
        with IncidentManager(sim.registry, clock=FakeClock()) as manager:
            for scout in scouts:
                manager.register(scout)
            for incident in served:
                manager.handle(incident)
            metrics = manager.obs.metrics
            counters = {
                name: dict(
                    sorted(
                        (labels["kind"], value)
                        for labels, value in metrics.get(name).samples()
                    )
                )
                for name in (
                    "monitoring_queries_total",
                    "monitoring_cache_hits_total",
                )
            }
            exposition = [
                line
                for line in render_exposition(metrics).splitlines()
                if "latency_seconds" not in line
            ]
            log = [_plain(decision) for decision in manager.log]
    finally:
        recorder.close()
        for scout in scouts:
            scout.obs = None
            scout.builder.obs = None
    return {
        "vectors": recorder.hashes,
        "counters": counters,
        "decisions": log,
        "exposition": exposition,
    }


def _dumps(artifacts: dict) -> str:
    return json.dumps(artifacts, sort_keys=True, indent=1) + "\n"


@pytest.fixture(scope="module")
def deployment():
    return golden_deployment()


def test_serving_outputs_match_pinned_golden(deployment):
    assert _dumps(golden_artifacts(deployment)) == GOLDEN.read_text()


def test_golden_workload_reaches_both_model_routes():
    golden = json.loads(GOLDEN.read_text())
    kinds = {entry[0] for hashes in golden["vectors"].values() for entry in hashes}
    assert kinds == {"f", "s"}
    queries = golden["counters"]["monitoring_queries_total"]
    assert set(queries) == {"series", "event_counts"}
    assert golden["counters"]["monitoring_cache_hits_total"]


if __name__ == "__main__":
    GOLDEN.write_text(_dumps(golden_artifacts(golden_deployment())))
