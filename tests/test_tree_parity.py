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
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.forest as forest_module
from repro.ml import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from tests.oracles import ReferenceTree

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
