"""Test-side reference implementations the fast paths are held to."""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.core.features import _PERCENTILES, STAT_NAMES
from repro.ml.tree import DecisionTreeClassifier, TreeNode, _gini
from repro.serving.fleet import _SIGNAL_COLS, _SIGNAL_WINDOW


def reference_stats(pooled: np.ndarray) -> np.ndarray:
    """The eleven §5.2 statistics with ``np.percentile``.

    The feature builder's ``_stats`` computes its percentiles with the
    sorted-input replica ``exact_percentiles``; this is the plain numpy
    computation it must equal byte for byte (same degenerate-window
    zero-fill rules).
    """
    out = np.zeros(len(STAT_NAMES))
    if pooled.size == 0:
        return out
    out[0] = pooled.mean()
    out[2] = pooled.min()
    out[3] = pooled.max()
    if pooled.size < 2:
        return out
    out[1] = pooled.std()
    out[4:] = np.percentile(pooled, _PERCENTILES)
    return out


class ReferenceTree(DecisionTreeClassifier):
    """The copy-per-node, one-feature-at-a-time CART fit.

    ``DecisionTreeClassifier`` grows on row indices and scores every
    candidate feature of a node in one vectorized pass; this is the
    straightforward formulation it must reproduce bit for bit (same
    nodes, thresholds, importances and rng consumption): every child
    receives copies of its rows, and ``_best_split`` loops over the
    candidate features, keeping the first whose gain beats the best so
    far by more than ``1e-12``.
    """

    def _build(self, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> TreeNode:
        root, counts, total = self._make_node(y, w, depth=0)
        stack = [(root, X, y, w, counts, total)]
        while stack:
            node, Xn, yn, wn, counts, total = stack.pop()
            if (
                len(yn) < self.min_samples_split
                or (self.max_depth is not None and node.depth >= self.max_depth)
                or np.count_nonzero(counts) <= 1
            ):
                continue
            split = self._best_split(Xn, yn, wn, counts)
            if split is None:
                continue
            feature, threshold, gain = split
            node.feature = feature
            node.threshold = threshold
            self._feature_importance_acc[feature] += gain * total
            mask = Xn[:, feature] <= threshold
            inv = ~mask
            left, lcounts, ltotal = self._make_node(
                yn[mask], wn[mask], node.depth + 1
            )
            right, rcounts, rtotal = self._make_node(
                yn[inv], wn[inv], node.depth + 1
            )
            node.left = left
            node.right = right
            stack.append((right, Xn[inv], yn[inv], wn[inv], rcounts, rtotal))
            stack.append((left, Xn[mask], yn[mask], wn[mask], lcounts, ltotal))
        return root

    def _best_split(self, X, y, w, counts):
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

        best = None
        best_score = 0.0
        total_weight = w.sum()
        onehot = np.zeros((len(y), self._n_classes))
        onehot[np.arange(len(y)), y] = w
        min_leaf = self.min_samples_leaf

        for feature in features:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            left_counts = np.cumsum(onehot[order], axis=0)
            diffs = np.diff(sorted_values)
            positions = np.flatnonzero(diffs > 0)
            if positions.size == 0:
                continue
            positions = positions[
                (positions + 1 >= min_leaf)
                & (len(y) - positions - 1 >= min_leaf)
            ]
            if positions.size == 0:
                continue
            left = left_counts[positions]
            right = counts - left
            left_total = left.sum(axis=1)
            right_total = right.sum(axis=1)
            ok = (left_total > 0) & (right_total > 0)
            if not np.any(ok):
                continue
            left_gini = 1.0 - np.sum(
                (left[ok] / left_total[ok, None]) ** 2, axis=1
            )
            right_gini = 1.0 - np.sum(
                (right[ok] / right_total[ok, None]) ** 2, axis=1
            )
            weighted = (
                left_total[ok] * left_gini + right_total[ok] * right_gini
            ) / total_weight
            gains = parent_impurity - weighted
            best_local = int(np.argmax(gains))
            if gains[best_local] > best_score + 1e-12:
                pos = positions[ok][best_local]
                threshold = 0.5 * (sorted_values[pos] + sorted_values[pos + 1])
                best_score = float(gains[best_local])
                best = (int(feature), float(threshold), best_score)
        return best


# -- fleet scoring --------------------------------------------------------------


def reference_draw(seed: int, *parts) -> float:
    """The fleet's content-addressed uniform draw, key built by ``join``."""
    digest = hashlib.sha256(
        ("|".join(str(p) for p in (seed, *parts))).encode()
    ).digest()
    return struct.unpack(">Q", digest[:8])[0] / 2.0**64


def reference_signal_stat(
    signals: np.ndarray, row: int, incident_id: int
) -> float:
    """One team's window statistic, sliced and reduced on its own."""
    start = incident_id % (_SIGNAL_COLS - _SIGNAL_WINDOW)
    window = signals[row, start:start + _SIGNAL_WINDOW]
    return float(window.mean() + window.std())


def reference_score_one(
    spec, row, signals, incident_id, truth_team, seed,
    failure_rate, max_attempts, broken,
) -> tuple:
    """Score one (Scout, incident) pair: ``(team, verdict, confidence,
    attempts, ok)``, with ``verdict`` None when every attempt failed."""
    attempts = 0
    ok = False
    for attempt in range(max_attempts):
        attempts += 1
        if spec.team in broken:
            continue
        if reference_draw(
            seed, "fail", spec.team, incident_id, attempt
        ) >= failure_rate:
            ok = True
            break
    if not ok:
        return (spec.team, None, 0.0, attempts, False)
    truth = truth_team == spec.team
    correct = reference_draw(seed, "acc", spec.team, incident_id) < spec.accuracy
    verdict = truth if correct else (not truth)
    spread = reference_draw(seed, "conf", spec.team, incident_id)
    jitter = reference_signal_stat(signals, row, incident_id) % 1.0
    u = (spread + jitter) % 1.0
    if correct:
        confidence = 0.8 - spec.beta * u
    else:
        confidence = 0.5 + spec.beta * u
    return (spec.team, verdict, round(confidence, 9), attempts, True)


def reference_score_chunk(
    shard, signals, pairs, seed, failure_rate, max_attempts, broken,
) -> list[tuple[int, tuple]]:
    """The per-pair fleet task: every ``(row, spec)`` of one shard over
    every ``(incident_id, truth_team)`` pair, incident-major, as
    ``(incident_id, reference_score_one(...))`` tuples.

    The fleet's task kernel scores a whole (shard, chunk) task in one
    vectorized pass and returns columns; it must equal this loop pair
    by pair.
    """
    return [
        (
            incident_id,
            reference_score_one(
                spec, row, signals, incident_id, truth_team,
                seed, failure_rate, max_attempts, broken,
            ),
        )
        for incident_id, truth_team in pairs
        for row, spec in shard
    ]
