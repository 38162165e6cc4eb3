"""A trained Scout's bundle bytes do not depend on parallelism or use.

The registry publishes a bundle's SHA-256, so the same training data
must serialize to the same bytes whatever ``n_jobs`` was and whether
the forest fits ran in a process pool: the forest does not pickle its
``n_jobs`` knob, and pool-fitted trees share numpy's dtype objects and
the forest's parameter objects exactly as in-process trees do.  Nor
does the forest pickle the merged ensemble it builds on its first
prediction, so serving an incident does not change the bytes.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np

import repro.ml.forest as forest_module
from repro.config import phynet_config
from repro.core import ScoutFramework, TrainingOptions
from repro.core.persistence import load_scout, save_scout
from repro.core.selector import Route
from repro.ml import RandomForestClassifier
from repro.registry import ModelRegistry


def _train(sim, train, n_jobs):
    framework = ScoutFramework(
        phynet_config(),
        sim.topology,
        sim.store,
        TrainingOptions(n_estimators=20, cv_folds=2, rng=5, n_jobs=n_jobs),
    )
    return framework.train(train)


def test_bundle_bytes_independent_of_parallelism(
    sim, split, tmp_path, forest_pools, monkeypatch
):
    train, _ = split
    # Every fit of this small training set is below the pool threshold.
    assert 20 * len(train) < forest_module._POOL_MIN_TREE_ROWS
    raw, digests = {}, {}
    for pooled in (False, True):
        if pooled:
            monkeypatch.setattr(forest_module, "_POOL_MIN_TREE_ROWS", 0)
        for n_jobs in (1, 2):
            scout = _train(sim, train, n_jobs)
            path = tmp_path / f"scout-{pooled}-{n_jobs}.pkl"
            save_scout(scout, path)
            raw[pooled, n_jobs] = path.read_bytes()
            registry = ModelRegistry(tmp_path / f"registry-{pooled}-{n_jobs}")
            digests[pooled, n_jobs] = registry.publish(scout).sha256
    # Only the n_jobs=2 training above the lowered threshold used pools:
    # two cross-validation forests and the Scout's forest.
    assert forest_pools == [2, 2, 2]
    assert len(set(raw.values())) == 1
    assert len(set(digests.values())) == 1


def test_bundle_bytes_independent_of_serving(sim, split, incidents, tmp_path):
    train, _ = split
    scout = _train(sim, train, 1)
    before = tmp_path / "before.pkl"
    save_scout(scout, before)
    for incident in incidents:
        if scout.predict(incident).route == Route.SUPERVISED:
            break
    # Both forests in the bundle have predicted and cached their ensemble.
    assert "_ensemble_" in vars(scout.forest)
    assert "_ensemble_" in vars(scout.selector._model)
    after = tmp_path / "after.pkl"
    save_scout(scout, after)
    assert after.read_bytes() == before.read_bytes()
    registry = ModelRegistry(tmp_path / "registry")
    assert registry.publish(scout).sha256 == hashlib.sha256(before.read_bytes()).hexdigest()


def test_bundle_with_pickled_ensemble_still_loads(sim, scout, split, tmp_path, monkeypatch):
    """Bundles that pickled the merged ensemble load and rebuild it."""
    _, test = split
    X = scout.imputer.transform(test.X)
    want = scout.forest.predict_proba(X[:1])
    path = tmp_path / "cached.pkl"
    with monkeypatch.context() as patch:
        patch.setattr(
            RandomForestClassifier, "__getstate__", lambda self: dict(self.__dict__)
        )
        save_scout(scout, path)
    loaded = load_scout(path, sim.topology, sim.store)
    assert "_ensemble_" not in vars(loaded.forest)
    assert loaded.forest.predict_proba(X[:1]).tobytes() == want.tobytes()


def test_forest_pickle_omits_n_jobs():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 5))
    y = (X[:, 0] > 0).astype(int)
    forest = RandomForestClassifier(n_estimators=4, rng=1, n_jobs=3).fit(X, y)
    raw = pickle.dumps(forest)
    assert b"n_jobs" not in raw
    restored = pickle.loads(raw)
    assert restored.n_jobs == 1
    assert np.array_equal(restored.predict_proba(X), forest.predict_proba(X))


def test_bundle_with_pickled_n_jobs_still_loads(sim, scout, split, tmp_path, monkeypatch):
    """Bundles written before n_jobs left the pickle keep loading."""
    _, test = split
    path = tmp_path / "old.pkl"
    with monkeypatch.context() as patch:
        # The old pickle: the forest's whole __dict__, n_jobs included.
        patch.setattr(
            RandomForestClassifier, "__getstate__", lambda self: dict(self.__dict__)
        )
        patch.setattr(scout.forest, "n_jobs", 3)
        save_scout(scout, path)
    assert b"n_jobs" in path.read_bytes()
    loaded = load_scout(path, sim.topology, sim.store)
    assert loaded.forest.n_jobs == 3
    X = scout.imputer.transform(test.X)
    assert np.array_equal(loaded.forest.predict_proba(X), scout.forest.predict_proba(X))
