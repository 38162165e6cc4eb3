"""The tree fit reproduces the reference fit bit for bit.

``DecisionTreeClassifier`` grows on row indices and scores every
candidate feature of a node in one vectorized pass.
``tests.oracles.ReferenceTree`` is the copy-per-node, feature-at-a-time
formulation it replaced.  Both must produce the same flat arrays,
importances and predictions, and leave the feature-subsampling rng in
the same state.  Generated inputs cover ties, constant columns, zero and
non-uniform sample weights, up to three classes, ``min_samples_leaf`` >
1, every ``max_features`` form, ``max_depth`` and tiny ``n``.  Forests
are held to the same oracle at every ``n_jobs``, pooled or in process.

One-row inference walks the merged ensemble in Python; its
probabilities and Palczewska contributions must equal the per-tree
loops of ``tests.oracles`` byte for byte, and a batch row must equal
the same row predicted alone.  The selector's bag-of-words counts are
held to the per-token loop they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.forest as forest_module
from repro.core.selector import MetaFeaturizer
from repro.ml import RandomForestClassifier
from repro.ml.tree import _NO_FEATURE, DecisionTreeClassifier
from tests.oracles import (
    ReferenceTree,
    reference_feature_contributions,
    reference_forest_proba,
    reference_meta_counts,
)

FLAT_FIELDS = (
    "feature",
    "threshold",
    "children_left",
    "children_right",
    "distribution",
    "n_samples",
    "depth",
)


def assert_same_tree(tree, reference, X: np.ndarray) -> None:
    for name in FLAT_FIELDS:
        got = getattr(tree.flat_, name)
        want = getattr(reference.flat_, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert tree.classes_.tobytes() == reference.classes_.tobytes()
    assert (
        tree.feature_importances_.tobytes()
        == reference.feature_importances_.tobytes()
    )
    assert tree.predict_proba(X).tobytes() == reference.predict_proba(X).tobytes()
    assert tree._rng.bit_generator.state == reference._rng.bit_generator.state


max_features = st.one_of(
    st.none(),
    st.sampled_from(["sqrt", "log2"]),
    st.integers(1, 8),
    st.floats(0.05, 1.0),
)


@st.composite
def fits(draw):
    """A training set, sample weights and tree parameters."""
    n = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Few distinct levels force tied values; one level is a constant
    # column, and constant columns are also planted explicitly.
    levels = draw(st.sampled_from([1, 2, 3, 5, None, None]))
    if levels is None:
        X = rng.normal(size=(n, n_features))
    else:
        X = rng.integers(0, levels, size=(n, n_features)).astype(float)
    constant = draw(st.lists(st.booleans(), min_size=n_features, max_size=n_features))
    X[:, np.asarray(constant)] = 0.5
    y = rng.integers(0, draw(st.integers(1, 3)), size=n)
    # Zero weights leave splits whose side has samples but no weight:
    # the fit must skip them.
    weights = draw(
        st.sampled_from(["none", "uniform", "varied", "some_zero", "some_zero", "all_zero"])
    )
    sample_weight = {
        "none": None,
        "uniform": np.full(n, 2.0),
        "varied": rng.uniform(0.1, 3.0, size=n),
        "some_zero": rng.choice([0.0, 0.0, 0.5, 1.0, 2.5], size=n),
        "all_zero": np.zeros(n),
    }[weights]
    params = {
        "max_depth": draw(st.none() | st.integers(0, 5)),
        "min_samples_split": draw(st.integers(2, 6)),
        "min_samples_leaf": draw(st.integers(1, 4)),
        "max_features": draw(max_features),
    }
    return X, y, sample_weight, params, draw(st.integers(0, 2**31))


@settings(max_examples=300, deadline=None)
@given(fits())
def test_tree_matches_reference_fit(fit):
    X, y, sample_weight, params, seed = fit
    tree = DecisionTreeClassifier(rng=seed, **params).fit(X, y, sample_weight)
    reference = ReferenceTree(rng=seed, **params).fit(X, y, sample_weight)
    assert_same_tree(tree, reference, X)
    fresh = np.random.default_rng(seed).normal(size=(16, X.shape[1]))
    assert tree.predict_proba(fresh).tobytes() == reference.predict_proba(fresh).tobytes()


def test_tree_matches_reference_on_wide_many_class_data():
    # Wider than a generated case: every feature is a candidate and the
    # class axis is long enough for numpy's pairwise summation.
    rng = np.random.default_rng(3)
    X = np.round(rng.normal(size=(300, 40)), 1)
    y = rng.integers(0, 9, size=300)
    w = rng.uniform(0.0, 2.0, size=300)
    for max_features in (None, "sqrt"):
        tree = DecisionTreeClassifier(max_features=max_features, rng=1).fit(X, y, w)
        reference = ReferenceTree(max_features=max_features, rng=1).fit(X, y, w)
        assert tree.flat_.n_nodes > 50
        assert_same_tree(tree, reference, X)


@pytest.fixture(scope="module")
def forest_data():
    rng = np.random.default_rng(21)
    X = np.round(rng.normal(size=(90, 12)), 1)
    y = ((X[:, 0] + X[:, 5] > 0).astype(int) + (X[:, 2] > 1.0)).astype(int)
    w = rng.uniform(0.2, 2.0, size=90)
    return X, y, w


@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize(
    "n_jobs, pooled", [(1, False), (2, False), (2, True)]
)
def test_forest_trees_match_reference_fit(
    forest_data, forest_pools, monkeypatch, bootstrap, n_jobs, pooled
):
    X, y, w = forest_data
    params = {"n_estimators": 6, "max_depth": 6, "bootstrap": bootstrap, "rng": 4}
    with monkeypatch.context() as patch:
        patch.setattr(forest_module, "DecisionTreeClassifier", ReferenceTree)
        reference = RandomForestClassifier(n_jobs=1, **params).fit(X, y, w)
    if pooled:
        monkeypatch.setattr(forest_module, "_POOL_MIN_TREE_ROWS", 0)
    forest = RandomForestClassifier(n_jobs=n_jobs, **params).fit(X, y, w)
    assert forest_pools == ([n_jobs] if pooled else [])
    assert all(type(tree) is ReferenceTree for tree in reference.trees_)
    for tree, oracle in zip(forest.trees_, reference.trees_, strict=True):
        assert_same_tree(tree, oracle, X)
    assert forest.feature_importances_.tobytes() == reference.feature_importances_.tobytes()
    assert forest.predict_proba(X).tobytes() == reference.predict_proba(X).tobytes()
    assert forest._rng.bit_generator.state == reference._rng.bit_generator.state


@st.composite
def forest_queries(draw):
    """A fitted forest and query rows that probe its split thresholds.

    Few distinct training levels give deep trees that test one feature
    more than once per path; tiny samples give bootstrap trees that saw
    one class, and ``max_depth=0`` gives single-leaf trees.  Query
    values are taken from the forest's own thresholds (so ``<=`` ties
    are exercised), the training values, or NaN.
    """
    n = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 3, 7, None]))
    if levels is None:
        X = np.round(rng.normal(size=(n, n_features)), 1)
    else:
        X = rng.integers(0, levels, size=(n, n_features)).astype(float)
    y = rng.integers(0, draw(st.integers(1, 3)), size=n)
    forest = RandomForestClassifier(
        n_estimators=draw(st.integers(1, 12)),
        max_depth=draw(st.sampled_from([None, None, 0, 1, 3])),
        max_features=draw(st.sampled_from(["sqrt", None])),
        bootstrap=draw(st.booleans()),
        rng=draw(st.integers(0, 2**31)),
    ).fit(X, y)
    split = np.concatenate([t.flat_.feature for t in forest.trees_])
    threshold = np.concatenate([t.flat_.threshold for t in forest.trees_])
    Q = X[rng.integers(0, n, size=draw(st.integers(1, 6)))].copy()
    for j in range(n_features):
        ties = threshold[split == j]
        if ties.size:
            pick = rng.random(len(Q)) < 0.6
            Q[pick, j] = rng.choice(ties, size=int(pick.sum()))
    Q[rng.random(Q.shape) < draw(st.sampled_from([0.0, 0.2]))] = np.nan
    return forest, Q


@settings(max_examples=300, deadline=None)
@given(forest_queries())
def test_one_row_inference_matches_reference(case):
    forest, Q = case
    batch = forest.predict_proba(Q)
    assert batch.tobytes() == reference_forest_proba(forest, Q).tobytes()
    for i in range(len(Q)):
        one = forest.predict_proba(Q[i : i + 1])
        assert one.tobytes() == reference_forest_proba(forest, Q[i : i + 1]).tobytes()
        assert one.tobytes() == batch[i : i + 1].tobytes()
        got = forest.feature_contributions(Q[i])
        want = reference_feature_contributions(forest, Q[i])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_single_leaf_forest_walks_to_the_roots():
    # perfbench's Database and Storage selectors are forests of this shape.
    X = np.zeros((6, 3))
    forest = RandomForestClassifier(n_estimators=5, rng=0).fit(X, np.zeros(6, dtype=int))
    assert all(tree.flat_.n_nodes == 1 for tree in forest.trees_)
    row = np.array([[np.nan, 1.0, -1.0]])
    assert forest.predict_proba(row).tobytes() == np.ones((1, 1)).tobytes()
    assert forest.feature_contributions(row[0]).tobytes() == np.zeros((3, 1)).tobytes()


def test_ensemble_walk_reports_every_step():
    rng = np.random.default_rng(8)
    X = rng.integers(0, 4, size=(60, 2)).astype(float)
    y = (X[:, 0] + X[:, 1] > 3).astype(int) + (X[:, 0] == 2)
    forest = RandomForestClassifier(n_estimators=7, rng=3).fit(X, y)
    ensemble = forest._merged()
    for row in X[:10]:
        leaves, parents, children = ensemble.walk(row, edges=True)
        assert leaves == ensemble.walk(row)[0]
        assert len(parents) == len(children)
        assert all(ensemble.feature[leaf] == _NO_FEATURE for leaf in leaves)
        # Per tree, the edges chain from the root down to its leaf.
        paths = [tree.flat_.decision_path(row) for tree in forest.trees_]
        want = [
            (int(root) + a, int(root) + b)
            for root, path in zip(ensemble.roots, paths)
            for a, b in zip(path, path[1:])
        ]
        assert list(zip(parents, children)) == want


words = st.sampled_from(
    ["disk", "latency", "timeout", "tor", "switch", "bgp", "vm-3.c1.dc0", "the", "zzz"]
)


@pytest.fixture(scope="module")
def featurizer():
    texts = [
        "disk latency on vm-3.c1.dc0",
        "tor switch drops packets",
        "bgp session flaps on the tor",
        "storage timeout disk full",
        "switch reboot after bgp flap",
        "vm timeout and latency spike",
    ]
    return MetaFeaturizer(top_k=5).fit(texts, [0, 1, 1, 0, 1, 0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(words, max_size=12).map(" ".join), min_size=1, max_size=4))
def test_meta_counts_match_token_loop(featurizer, texts):
    texts = texts + ["", "zzz zzz the", "disk disk disk Disk"]
    got = featurizer.transform(texts)
    want = reference_meta_counts(featurizer, texts)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got[-1, featurizer.vocabulary.index("disk")] == 4.0
