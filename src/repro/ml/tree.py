"""CART decision-tree classifier with sample weights.

This is the building block of the random forest (§5.2.1).  It records,
for every node, the class distribution of the training samples that
reached it — which is what the feature-contribution explanation method
of Palczewska et al. [57] (used by the deployed PhyNet Scout) needs.

Fitting produces two views of the same tree:

* ``root_`` — the linked :class:`TreeNode` structure, kept for
  introspection and as the reference implementation of prediction;
* ``flat_`` — a :class:`FlatTree` of parallel numpy arrays (preorder
  node layout), which powers the vectorized batch ``predict_proba``
  and the feature-contribution walk.

Batch prediction advances *all* rows one tree level per iteration
instead of walking Python objects row by row, so its cost scales with
tree depth, not with ``n_rows × depth`` Python-level steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import Classifier, as_rng, check_Xy, check_matrix

__all__ = ["DecisionTreeClassifier", "TreeNode", "FlatTree"]

_NO_FEATURE = -1


@dataclass
class TreeNode:
    """One node of a fitted decision tree.

    ``distribution`` is the weighted class distribution (normalized to
    sum to 1) of training samples that reached the node.
    """

    distribution: np.ndarray
    n_samples: int
    depth: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = field(default=None, repr=False)
    right: "TreeNode | None" = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class FlatTree:
    """A fitted tree compiled into parallel arrays (preorder layout).

    ``feature[i] == -1`` marks node ``i`` as a leaf; for leaves,
    ``threshold`` / ``children_*`` entries are unused.  ``distribution``
    stacks every node's class distribution into one matrix so batch
    prediction is a single fancy-index into it.
    """

    feature: np.ndarray  # (n_nodes,) int32, -1 for leaves
    threshold: np.ndarray  # (n_nodes,) float64
    children_left: np.ndarray  # (n_nodes,) int32
    children_right: np.ndarray  # (n_nodes,) int32
    distribution: np.ndarray  # (n_nodes, n_classes) float64
    n_samples: np.ndarray  # (n_nodes,) int64
    depth: np.ndarray  # (n_nodes,) int32

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @classmethod
    def from_nodes(cls, root: TreeNode, n_classes: int) -> "FlatTree":
        """Compile a linked node tree into flat arrays (iteratively)."""
        nodes: list[TreeNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                # Push right first so the left child is processed next:
                # preorder layout, matching the recursive reading order.
                stack.append(node.right)
                stack.append(node.left)
        index = {id(node): i for i, node in enumerate(nodes)}
        n = len(nodes)
        feature = np.full(n, _NO_FEATURE, dtype=np.int32)
        threshold = np.zeros(n, dtype=np.float64)
        children_left = np.full(n, _NO_FEATURE, dtype=np.int32)
        children_right = np.full(n, _NO_FEATURE, dtype=np.int32)
        distribution = np.empty((n, n_classes), dtype=np.float64)
        n_samples = np.empty(n, dtype=np.int64)
        depth = np.empty(n, dtype=np.int32)
        for i, node in enumerate(nodes):
            distribution[i] = node.distribution
            n_samples[i] = node.n_samples
            depth[i] = node.depth
            if not node.is_leaf:
                feature[i] = node.feature
                threshold[i] = node.threshold
                children_left[i] = index[id(node.left)]
                children_right[i] = index[id(node.right)]
        return cls(
            feature=feature,
            threshold=threshold,
            children_left=children_left,
            children_right=children_right,
            distribution=distribution,
            n_samples=n_samples,
            depth=depth,
        )

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """The leaf node index each row of ``X`` lands in.

        Level-synchronous traversal: every iteration advances all
        still-internal rows one level, so the loop runs ``depth`` times
        regardless of batch size.
        """
        idx = np.zeros(X.shape[0], dtype=np.int32)
        feature = self.feature
        if self.n_nodes == 1:
            return idx
        threshold = self.threshold
        left = self.children_left
        right = self.children_right
        active = np.arange(X.shape[0])
        while active.size:
            cur = idx[active]
            f = feature[cur]
            go_left = X[active, f] <= threshold[cur]
            idx[active] = np.where(go_left, left[cur], right[cur])
            active = active[feature[idx[active]] != _NO_FEATURE]
        return idx

    def decision_path(self, row: np.ndarray) -> list[int]:
        """Node indices visited from root to leaf for one sample."""
        path = [0]
        node = 0
        while self.feature[node] != _NO_FEATURE:
            if row[self.feature[node]] <= self.threshold[node]:
                node = int(self.children_left[node])
            else:
                node = int(self.children_right[node])
            path.append(node)
        return path


def _gini(class_weights: np.ndarray) -> float:
    """Gini impurity of a weighted class-count vector."""
    total = class_weights.sum()
    if total <= 0.0:
        return 0.0
    p = class_weights / total
    return float(1.0 - np.dot(p, p))


def _class_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` over a trailing class axis, bit for bit.

    numpy reduces a length-2 axis one element pair at a time, roughly
    ten times slower than one elementwise add; for two classes the add
    is the same sum (two terms associate one way).
    """
    if a.shape[-1] == 2:
        return a[..., 0] + a[..., 1]
    return a.sum(axis=-1)


class DecisionTreeClassifier(Classifier):
    """A CART classifier (gini criterion, binary numeric splits).

    Parameters mirror sklearn: ``max_depth``, ``min_samples_split``,
    ``min_samples_leaf`` and ``max_features`` (``"sqrt"``, an int, a
    float fraction, or None for all features).  ``rng`` controls the
    feature subsampling used inside random forests.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: str | int | float | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = as_rng(rng)

    # -- fitting -----------------------------------------------------------

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        X, y = check_Xy(X, y)
        encoded = self._encode_labels(y)
        if sample_weight is None:
            sample_weight = np.ones(len(encoded))
        else:
            sample_weight = np.asarray(sample_weight, dtype=float)
            if sample_weight.shape != encoded.shape:
                raise ValueError("sample_weight length must match y")
            if np.any(sample_weight < 0):
                raise ValueError("sample_weight must be non-negative")
        self.n_features_ = X.shape[1]
        self._n_classes = len(self.classes_)
        self._feature_importance_acc = np.zeros(self.n_features_)
        self.root_ = self._build(X, encoded, sample_weight)
        self.flat_ = FlatTree.from_nodes(self.root_, self._n_classes)
        total = self._feature_importance_acc.sum()
        self.feature_importances_ = (
            self._feature_importance_acc / total
            if total > 0
            else np.zeros(self.n_features_)
        )
        self._fitted = True
        return self

    def _n_candidate_features(self) -> int:
        m = self.max_features
        if m is None:
            return self.n_features_
        if m == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if m == "log2":
            return max(1, int(np.log2(self.n_features_)))
        if isinstance(m, float):
            return max(1, int(m * self.n_features_))
        if isinstance(m, int):
            return max(1, min(m, self.n_features_))
        raise ValueError(f"bad max_features: {m!r}")

    def _class_weights(self, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.bincount(y, weights=w, minlength=self._n_classes)

    def _make_node(
        self, y: np.ndarray, w: np.ndarray, depth: int
    ) -> tuple[TreeNode, np.ndarray, float]:
        counts = self._class_weights(y, w)
        total = counts.sum()
        distribution = counts / total if total > 0 else np.full(
            self._n_classes, 1.0 / self._n_classes
        )
        node = TreeNode(distribution=distribution, n_samples=len(y), depth=depth)
        return node, counts, total

    def _build(self, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> TreeNode:
        """Grow the tree depth-first with an explicit stack.

        Nodes carry index arrays into the full ``X`` rather than copies
        of their rows; a split gathers only the candidate columns it
        scores.  Index arrays keep the rows in their original relative
        order, so every node sees its samples in the order a
        copy-per-node fit would.  The stack replaces recursion so
        arbitrarily deep trees (no ``max_depth``) cannot hit Python's
        recursion limit.  Children are pushed right-then-left,
        preserving the preorder in which the recursive formulation
        consumed the feature-subsampling rng.
        """
        root, counts, total = self._make_node(y, w, depth=0)
        stack: list[tuple[TreeNode, np.ndarray, np.ndarray, float]] = [
            (root, np.arange(len(y)), counts, total)
        ]
        while stack:
            node, rows, counts, total = stack.pop()
            if (
                len(rows) < self.min_samples_split
                or (self.max_depth is not None and node.depth >= self.max_depth)
                or np.count_nonzero(counts) <= 1
            ):
                continue
            split = self._best_split(X, rows, y[rows], w[rows], counts)
            if split is None:
                continue
            feature, threshold, gain = split
            node.feature = feature
            node.threshold = threshold
            self._feature_importance_acc[feature] += gain * total
            mask = X[rows, feature] <= threshold
            left_rows = rows[mask]
            right_rows = rows[~mask]
            left, lcounts, ltotal = self._make_node(
                y[left_rows], w[left_rows], node.depth + 1
            )
            right, rcounts, rtotal = self._make_node(
                y[right_rows], w[right_rows], node.depth + 1
            )
            node.left = left
            node.right = right
            stack.append((right, right_rows, rcounts, rtotal))
            stack.append((left, left_rows, lcounts, ltotal))
        return root

    def _best_split(
        self,
        X: np.ndarray,
        rows: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        counts: np.ndarray,
    ) -> tuple[int, float, float] | None:
        """Find the (feature, threshold) pair with the best gini gain.

        Scores every candidate feature of the node at once: column ``j``
        of the ``(n - 1, F)`` gain matrix holds the gains of splitting
        after each sorted position of candidate ``j``, with positions
        that are no valid split (tied values, a leaf below
        ``min_samples_leaf`` samples or without weight) at ``-inf``.
        The winner is the first candidate, in draw order, whose best
        gain beats the best so far by more than ``1e-12``; within a
        column the first maximal position wins.
        """
        parent_impurity = _gini(counts)
        if parent_impurity == 0.0:
            return None
        n_candidates = self._n_candidate_features()
        if n_candidates < self.n_features_:
            features = self._rng.choice(
                self.n_features_, size=n_candidates, replace=False
            )
        else:
            features = np.arange(self.n_features_)

        n = len(y)
        values = X[np.ix_(rows, features)]
        order = np.argsort(values, axis=0, kind="stable")
        sorted_values = np.take_along_axis(values, order, axis=0)
        onehot = np.zeros((n, self._n_classes))
        onehot[np.arange(n), y] = w
        # Weighted class counts left of a split after each sorted
        # position, shape (n - 1, F, n_classes).
        left = np.cumsum(onehot[order[:-1]], axis=0)
        right = counts - left
        left_total = _class_sum(left)
        right_total = _class_sum(right)
        positions = np.arange(n - 1)
        min_leaf = self.min_samples_leaf
        big_enough = (positions + 1 >= min_leaf) & (n - positions - 1 >= min_leaf)
        valid = (
            (np.diff(sorted_values, axis=0) > 0)
            & big_enough[:, None]
            & (left_total > 0)
            & (right_total > 0)
        )
        # Invalid positions may divide by a zero total; they are masked.
        with np.errstate(divide="ignore", invalid="ignore"):
            left_gini = 1.0 - _class_sum((left / left_total[..., None]) ** 2)
            right_gini = 1.0 - _class_sum((right / right_total[..., None]) ** 2)
            weighted = (
                left_total * left_gini + right_total * right_gini
            ) / w.sum()
        gains = np.where(valid, parent_impurity - weighted, -np.inf)
        best_positions = np.argmax(gains, axis=0)
        column_best = gains[best_positions, np.arange(len(features))]

        best: tuple[int, float, float] | None = None
        best_score = 0.0
        for j, gain in enumerate(column_best.tolist()):
            if gain > best_score + 1e-12:
                pos = best_positions[j]
                threshold = 0.5 * (
                    sorted_values[pos, j] + sorted_values[pos + 1, j]
                )
                best_score = gain
                best = (int(features[j]), float(threshold), best_score)
        return best

    # -- prediction --------------------------------------------------------

    def _leaf_path(self, row: np.ndarray) -> list[TreeNode]:
        """Nodes visited from root to leaf for one sample."""
        node = self.root_
        path = [node]
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
            path.append(node)
        return path

    def _check_predict_input(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_matrix(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        return X

    def predict_proba(self, X) -> np.ndarray:
        X = self._check_predict_input(X)
        return self.flat_.distribution[self.flat_.leaf_indices(X)]

    def predict_proba_nodes(self, X) -> np.ndarray:
        """Reference implementation: per-row walk of the node objects.

        Kept for equivalence testing against the vectorized flat-array
        path; do not use in hot loops.
        """
        X = self._check_predict_input(X)
        return np.vstack([self._leaf_path(row)[-1].distribution for row in X])

    def decision_contributions(self, row: np.ndarray) -> np.ndarray:
        """Per-feature contributions for one sample (Palczewska et al.).

        Returns an array of shape ``(n_features, n_classes)``: the sum of
        class-probability deltas along the decision path, attributed to
        the feature tested at each split.  The prediction decomposes as
        ``root.distribution + contributions.sum(axis=0)``.
        """
        self._require_fitted()
        row = np.asarray(row, dtype=float)
        contributions = np.zeros((self.n_features_, self._n_classes))
        flat = self.flat_
        path = flat.decision_path(row)
        if len(path) > 1:
            parents = np.asarray(path[:-1], dtype=np.int64)
            children = np.asarray(path[1:], dtype=np.int64)
            deltas = flat.distribution[children] - flat.distribution[parents]
            np.add.at(contributions, flat.feature[parents], deltas)
        return contributions

    # -- introspection -----------------------------------------------------

    @property
    def depth_(self) -> int:
        """Maximum leaf depth (computed from the flat arrays, no recursion)."""
        self._require_fitted()
        leaves = self.flat_.feature == _NO_FEATURE
        return int(self.flat_.depth[leaves].max())

    @property
    def n_leaves_(self) -> int:
        """Number of leaves (computed from the flat arrays, no recursion)."""
        self._require_fitted()
        return int(np.count_nonzero(self.flat_.feature == _NO_FEATURE))
