"""Random forest classifier — the Scout's main supervised model (§5.2.1).

"RFs are a natural first choice: they are resilient to over-fitting and
offer explain-ability."  Explainability comes from aggregating per-tree
feature contributions (Palczewska et al. [57]) — see
:meth:`RandomForestClassifier.feature_contributions`.

Inference runs on one merged ensemble of every tree's flat arrays.  A
batch advances all (tree, row) lanes level by level in numpy; a single
row, the serving case, is one Python walk down every tree, and its
contributions come from the edges that walk took.  Both give the bytes
the per-tree loops give (``tests/oracles.py``).

Training draws every tree's rng seed and bootstrap sample *up front*
from the forest rng, so the per-tree fits are independent pure
functions of ``(params, X, y, seed, bootstrap_idx)``.  That makes
``n_jobs > 1`` (process-pool fitting) bit-identical to the serial path:
parallelism changes wall-clock, never predictions (§7 reproducibility).
"""

from __future__ import annotations

import io
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .base import Classifier, as_rng, check_Xy, check_matrix, resolve_n_jobs
from .tree import _NO_FEATURE, DecisionTreeClassifier

__all__ = ["RandomForestClassifier"]

_SEED_BOUND = 2**63

# Fits of fewer tree-rows (n_estimators x n_samples) than this run in
# process whatever n_jobs says: starting a process pool and shipping
# the data costs more than it saves.  Measured bracket on a 2-vCPU
# host: the Scout set-up fits of a 60-day history (1,880-5,840
# tree-rows) train about twice as fast serially; 120-tree fits over
# 400+ incidents (48,000+) still win with a pool.
_POOL_MIN_TREE_ROWS = 16_384


class _EnsembleArrays:
    """Every tree's flat arrays concatenated for one merged traversal.

    Concatenating the node arrays of all trees — child indices re-based
    by each tree's node offset, leaf distributions scattered into forest
    class columns — turns the whole forest into one big flat tree.  Two
    traversals read it:

    * :meth:`sum_proba` advances every (tree, row) lane together in one
      level-synchronous loop, so a batch costs roughly ``depth`` numpy
      calls, not ``n_rows × n_trees × depth`` Python steps;
    * :meth:`walk` follows one row down every tree in plain Python over
      list copies of the node arrays: for a single row, one list index
      per step is cheaper than the batch loop's per-level numpy calls.
    """

    __slots__ = (
        "feature", "threshold", "left", "right", "distribution", "roots",
        "_lists",
    )

    def __init__(self, trees: list[DecisionTreeClassifier], n_classes: int) -> None:
        flats = [tree.flat_ for tree in trees]
        sizes = np.array([flat.n_nodes for flat in flats], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(sizes[:-1])])
        self.roots = offsets
        self.feature = np.concatenate([flat.feature for flat in flats])
        self.threshold = np.concatenate([flat.threshold for flat in flats])
        # Leaves keep their -1 child markers; they are never dereferenced
        # because lanes leave the active set on reaching a leaf.
        self.left = np.concatenate(
            [flat.children_left.astype(np.int64) + off
             for flat, off in zip(flats, offsets)]
        )
        self.right = np.concatenate(
            [flat.children_right.astype(np.int64) + off
             for flat, off in zip(flats, offsets)]
        )
        distribution = np.zeros((int(sizes.sum()), n_classes))
        for tree, flat, off in zip(trees, flats, offsets):
            cols = tree.classes_.astype(int)
            distribution[off : off + flat.n_nodes][:, cols] = flat.distribution
        self.distribution = distribution
        self._lists = (
            self.feature.tolist(),
            self.threshold.tolist(),
            self.left.tolist(),
            self.right.tolist(),
            self.roots.tolist(),
        )

    def sum_proba(self, X: np.ndarray) -> np.ndarray:
        """Sum of per-tree class distributions for every row of ``X``."""
        n_rows = X.shape[0]
        n_trees = len(self.roots)
        if n_rows == 1:
            idx = self.walk(X[0])[0]
        else:
            idx = np.repeat(self.roots, n_rows)
            rows = np.tile(np.arange(n_rows), n_trees)
            feature = self.feature
            active = np.flatnonzero(feature[idx] != _NO_FEATURE)
            while active.size:
                cur = idx[active]
                go_left = X[rows[active], feature[cur]] <= self.threshold[cur]
                nxt = np.where(go_left, self.left[cur], self.right[cur])
                idx[active] = nxt
                active = active[feature[nxt] != _NO_FEATURE]
        # Summing over the leading tree axis adds tree by tree, in tree
        # order, whatever the row count.
        leaves = self.distribution[idx]
        return leaves.reshape(n_trees, n_rows, -1).sum(axis=0)

    def walk(
        self, row: np.ndarray, edges: bool = False
    ) -> tuple[list[int], list[int], list[int]]:
        """One row's leaf in every tree, in tree order.

        With ``edges``, also the parent and child node of every step
        taken, in tree order and root-to-leaf within a tree; otherwise
        those two lists are empty.  ``<=`` sends a row right on NaN,
        as the batch loop does.
        """
        feature, threshold, left, right, roots = self._lists
        x = row.tolist()
        leaves: list[int] = []
        parents: list[int] = []
        children: list[int] = []
        for node in roots:
            f = feature[node]
            while f != _NO_FEATURE:
                child = left[node] if x[f] <= threshold[node] else right[node]
                if edges:
                    parents.append(node)
                    children.append(child)
                node = child
                f = feature[node]
            leaves.append(node)
        return leaves, parents, children

    def contributions(self, row: np.ndarray, n_features: int) -> np.ndarray:
        """Summed per-tree Palczewska contributions for one row.

        Every step's class-probability delta is credited to the feature
        its parent tests.  The deltas are summed per (tree, feature) in
        path order, then per feature in tree order: the association of
        one accumulation per tree added into the total tree by tree.
        """
        _, parents, children = self.walk(row, edges=True)
        total = np.zeros((n_features, self.distribution.shape[1]))
        if not parents:
            return total
        parents = np.asarray(parents, dtype=np.int64)
        deltas = self.distribution[children] - self.distribution[parents]
        trees = np.searchsorted(self.roots, parents, side="right") - 1
        keys = trees * n_features + self.feature[parents]
        # np.unique sorts the (tree, feature) keys tree-major, and add.at
        # accumulates repeated indices in the order they are listed.
        per_tree_keys, slot = np.unique(keys, return_inverse=True)
        per_tree = np.zeros((len(per_tree_keys), total.shape[1]))
        np.add.at(per_tree, slot, deltas)
        np.add.at(total, per_tree_keys % n_features, per_tree)
        return total


def _fit_tree_shard(
    params: dict,
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray | None,
    seeds: np.ndarray,
    bootstrap_indices: np.ndarray | None,
) -> list[DecisionTreeClassifier]:
    """Fit a shard of trees serially (runs in a worker process).

    Module-level so it pickles for ``ProcessPoolExecutor``; also the
    serial path, so n_jobs=1 and n_jobs>1 execute identical code.
    """
    trees: list[DecisionTreeClassifier] = []
    for i, seed in enumerate(seeds):
        tree = DecisionTreeClassifier(rng=np.random.default_rng(int(seed)), **params)
        if bootstrap_indices is not None:
            idx = bootstrap_indices[i]
            tree.fit(X[idx], y[idx])
        else:
            tree.fit(X, y, sample_weight=sample_weight)
        trees.append(tree)
    return trees


class _SharedDtypePickler(pickle.Pickler):
    """Ships builtin numpy dtypes by name instead of by value.

    Unpickling an array normally gives it a fresh dtype object, while
    arrays built in process share numpy's dtype singletons.  Pickle
    memoizes by identity, so pool-fitted trees would pickle to
    different bytes than the same trees fitted in process.
    """

    def persistent_id(self, obj):
        if isinstance(obj, np.dtype) and np.dtype(obj.char) == obj:
            return obj.char
        return None


class _SharedDtypeUnpickler(pickle.Unpickler):
    """Resolves :class:`_SharedDtypePickler`'s dtype names to singletons."""

    def persistent_load(self, pid):
        return np.dtype(pid)


def _fit_tree_shard_shipped(*args) -> bytes:
    """:func:`_fit_tree_shard` for pool workers: trees as shareable bytes."""
    buffer = io.BytesIO()
    _SharedDtypePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(
        _fit_tree_shard(*args)
    )
    return buffer.getvalue()


class RandomForestClassifier(Classifier):
    """Bagged ensemble of CART trees with feature subsampling.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed to each :class:`DecisionTreeClassifier`.
    max_features:
        Features considered per split (default ``"sqrt"``).
    bootstrap:
        Sample rows with replacement per tree (bagging).
    rng:
        Seed or Generator for reproducibility.
    n_jobs:
        Upper bound on worker processes for tree fitting: 1 (default)
        fits serially in process, ``None``/-1 allows all cores.  Small
        forests (fewer than ``_POOL_MIN_TREE_ROWS`` tree-rows) fit in
        process whatever the value.  Results, and the pickled forest's
        bytes, are identical regardless of the value; ``n_jobs`` is not
        pickled (an unpickled forest fits serially).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: str | int | float | None = "sqrt",
        bootstrap: bool = True,
        rng: int | np.random.Generator | None = None,
        n_jobs: int | None = 1,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.n_jobs = n_jobs
        self._rng = as_rng(rng)

    def _tree_params(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    def fit(self, X, y, sample_weight=None) -> "RandomForestClassifier":
        X, y = check_Xy(X, y)
        encoded = self._encode_labels(y)
        n = len(encoded)
        if sample_weight is None:
            sample_weight = np.ones(n)
        else:
            sample_weight = np.asarray(sample_weight, dtype=float)
            if sample_weight.shape != encoded.shape:
                raise ValueError("sample_weight length must match y")
        self.n_features_ = X.shape[1]
        # Bootstrap probabilities follow the sample weights, so §8's
        # up-weighting of previously mis-classified incidents also biases
        # which rows each tree sees.
        weight_sum = sample_weight.sum()
        probabilities = (
            sample_weight / weight_sum if weight_sum > 0 else None
        )
        # Pre-draw every tree's seed and bootstrap sample from the
        # forest rng in a fixed order.  After this point tree fits are
        # independent of each other, so serial and parallel execution
        # consume the rng identically and produce the same forest.
        seeds = self._rng.integers(_SEED_BOUND, size=self.n_estimators)
        if self.bootstrap:
            bootstrap_indices = np.vstack(
                [
                    self._rng.choice(n, size=n, replace=True, p=probabilities)
                    for _ in range(self.n_estimators)
                ]
            )
        else:
            bootstrap_indices = None

        n_workers = resolve_n_jobs(self.n_jobs)
        params = self._tree_params()
        if (
            n_workers == 1
            or self.n_estimators == 1
            or self.n_estimators * n < _POOL_MIN_TREE_ROWS
        ):
            self.trees_ = _fit_tree_shard(
                params, X, encoded, sample_weight, seeds, bootstrap_indices
            )
        else:
            self.trees_ = self._fit_parallel(
                params, X, encoded, sample_weight, seeds, bootstrap_indices,
                n_workers,
            )

        importances = np.zeros(self.n_features_)
        for tree in self.trees_:
            # Trees trained on bootstrap samples may have seen only one
            # class; their importances are all-zero and harmless.
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        self._fitted = True
        return self

    def _fit_parallel(
        self,
        params: dict,
        X: np.ndarray,
        encoded: np.ndarray,
        sample_weight: np.ndarray,
        seeds: np.ndarray,
        bootstrap_indices: np.ndarray | None,
        n_workers: int,
    ) -> list[DecisionTreeClassifier]:
        """Fit tree shards in a process pool, preserving tree order."""
        n_shards = min(n_workers, self.n_estimators)
        shards = np.array_split(np.arange(self.n_estimators), n_shards)
        try:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                futures = [
                    pool.submit(
                        _fit_tree_shard_shipped,
                        params,
                        X,
                        encoded,
                        sample_weight,
                        seeds[shard],
                        None
                        if bootstrap_indices is None
                        else bootstrap_indices[shard],
                    )
                    for shard in shards
                ]
                results = [f.result() for f in futures]
        except (OSError, PermissionError):
            # Sandboxes without process spawning fall back to serial;
            # identical results either way.
            return _fit_tree_shard(
                params, X, encoded, sample_weight, seeds, bootstrap_indices
            )
        trees = [
            tree
            for shipped in results
            for tree in _SharedDtypeUnpickler(io.BytesIO(shipped)).load()
        ]
        for tree in trees:
            # Share this forest's parameter objects, as in-process trees
            # do: pickle memoizes strings (max_features) by identity too.
            vars(tree).update(params)
        return trees

    def __getstate__(self) -> dict:
        # n_jobs is a wall-clock knob, not model state: leaving it out
        # keeps the pickle of a fitted forest independent of it.
        # The merged ensemble is a cache rebuilt from trees_ on first
        # use: pickling it would make a bundle's bytes depend on whether
        # the forest had predicted before it was saved.
        state = self.__dict__.copy()
        state.pop("n_jobs", None)
        state.pop("_ensemble_", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Bundles written before the cache left the pickle may carry an
        # ensemble of an older layout; drop it and rebuild on use.
        state = dict(state)
        state.pop("_ensemble_", None)
        self.__dict__.update(state)
        self.__dict__.setdefault("n_jobs", 1)

    def _merged(self) -> _EnsembleArrays:
        """The concatenated flat-tree ensemble, built lazily and cached.

        Lazy so forests unpickled from bundles saved before this
        attribute existed rebuild it transparently on first use.
        """
        ensemble = getattr(self, "_ensemble_", None)
        if ensemble is None:
            ensemble = _EnsembleArrays(self.trees_, len(self.classes_))
            self._ensemble_ = ensemble
        return ensemble

    def predict_proba(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_matrix(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        # Trees are fit on integer-encoded labels, so each tree's
        # classes_ holds forest class indices; the merged ensemble has
        # them pre-scattered into forest columns.
        return self._merged().sum_proba(X) / self.n_estimators

    def feature_contributions(self, row) -> np.ndarray:
        """Average per-feature contribution across trees for one sample.

        Shape ``(n_features, n_classes)``; the contribution of feature
        ``f`` toward class ``c`` is positive when tests on ``f`` pushed
        the prediction toward ``c`` along the decision paths.
        """
        self._require_fitted()
        row = np.asarray(row, dtype=float).ravel()
        if row.shape[0] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {row.shape[0]}"
            )
        return self._merged().contributions(row, self.n_features_) / self.n_estimators
