"""Shared fixtures: a small synthetic cloud and a trained PhyNet Scout.

Session-scoped because dataset construction (monitoring pulls for every
incident) is the expensive step; tests must not mutate these fixtures'
state (the monitoring store's active set is restored by the fixtures
that touch it).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.ml.forest as forest_module
from repro.config import phynet_config
from repro.core import ScoutFramework, TrainingOptions
from repro.datacenter import TopologySpec
from repro.ml import imbalance_aware_split
from repro.simulation import CloudSimulation, SimulationConfig


@pytest.fixture(scope="session")
def sim() -> CloudSimulation:
    return CloudSimulation(
        SimulationConfig(seed=11, duration_days=120.0),
        topology_spec=TopologySpec(
            n_dcs=2,
            clusters_per_dc=3,
            racks_per_cluster=3,
            servers_per_rack=3,
            vms_per_server=2,
        ),
    )


@pytest.fixture(scope="session")
def incidents(sim):
    return sim.generate(220)


@pytest.fixture(scope="session")
def framework(sim) -> ScoutFramework:
    return ScoutFramework(
        phynet_config(),
        sim.topology,
        sim.store,
        TrainingOptions(n_estimators=40, cv_folds=2, rng=5),
    )


@pytest.fixture(scope="session")
def dataset(framework, incidents):
    return framework.dataset(incidents)


@pytest.fixture(scope="session")
def split(dataset):
    usable = dataset.usable()
    train_idx, test_idx = imbalance_aware_split(usable.y, rng=2)
    return usable.subset(train_idx), usable.subset(test_idx)


@pytest.fixture(scope="session")
def scout(framework, split):
    train, _ = split
    return framework.train(train)


@pytest.fixture()
def forest_pools(monkeypatch) -> list[int]:
    """Records the worker count of every process pool a forest fit starts."""
    started: list[int] = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(forest_module, "ProcessPoolExecutor", RecordingPool)
    return started
