"""Test-side reference implementations the fast paths are held to."""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.core.cpd_plus import _LEAF_KINDS as _CPD_LEAF_KINDS
from repro.core.features import _PERCENTILES, STAT_NAMES, FeatureBuilder
from repro.ml.text import tokenize
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


# -- forest inference -------------------------------------------------------------


def reference_forest_proba(forest, X: np.ndarray) -> np.ndarray:
    """Forest class probabilities as a per-tree loop, summed in tree order.

    Each tree predicts with its own level-synchronous flat traversal and
    its distribution columns are added into the forest's class columns;
    ``RandomForestClassifier.predict_proba`` merges the trees and, for
    one row, walks them in Python instead.
    """
    total = np.zeros((X.shape[0], len(forest.classes_)))
    for tree in forest.trees_:
        total[:, tree.classes_.astype(int)] += tree.predict_proba(X)
    return total / forest.n_estimators


def reference_feature_contributions(forest, row: np.ndarray) -> np.ndarray:
    """Palczewska contributions as one ``decision_contributions`` per tree.

    The per-tree loop ``RandomForestClassifier.feature_contributions``
    replaced with one walk of the merged ensemble: every tree's
    contributions accumulate in path order, then add into the total
    tree by tree.
    """
    row = np.asarray(row, dtype=float).ravel()
    total = np.zeros((forest.n_features_, len(forest.classes_)))
    for tree in forest.trees_:
        total[:, tree.classes_.astype(int)] += tree.decision_contributions(row)
    return total / forest.n_estimators


def reference_meta_counts(featurizer, texts: list[str]) -> np.ndarray:
    """``MetaFeaturizer.transform`` as a per-token increment loop."""
    vocab = {word: j for j, word in enumerate(featurizer.vocabulary)}
    X = np.zeros((len(texts), len(vocab) + 1))
    for i, text in enumerate(texts):
        tokens = tokenize(text)
        for token in tokens:
            j = vocab.get(token)
            if j is not None:
                X[i, j] += 1.0
        X[i, -1] = len(tokens)
    return X


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


# -- the default feature path -------------------------------------------------


class OracleFeatureBuilder(FeatureBuilder):
    """The per-device default feature path the matrix path must equal.

    Every pull is a scalar store query memoized per device: one
    ``TimeSeries`` per (dataset, device, window) and one per-type count
    dict per (dataset, device, window).  A (dataset, time) batch of
    look-back windows is z-scored by stacking the device rows with
    ``np.vstack`` and reducing along ``axis=1``; a group pools its
    normalized rows with ``np.concatenate`` in locator → component →
    device order (duplicate devices pool twice); the statistics use
    ``np.percentile`` (:func:`reference_stats`).  Only ``features`` is
    replaced — schema, observables and the memo lifecycle are the
    builder's own.
    """

    def __init__(self, config, topology, store) -> None:
        super().__init__(config, topology, store)
        self._device_series: dict = {}
        self._device_counts: dict = {}

    def clear_cache(self) -> None:
        super().clear_cache()
        self._device_series.clear()
        self._device_counts.clear()

    def device_series(self, locator, device, t0, t1):
        key = (locator, device.name, t0, t1)
        if key not in self._device_series:
            self._device_series[key] = self.store.query_series(
                locator, device, t0, t1
            )
        return self._device_series[key]

    def device_counts(self, locator, device, t0, t1):
        key = (locator, device.name, t0, t1)
        if key not in self._device_counts:
            self._device_counts[key] = self.store.query_event_type_counts(
                locator, device, t0, t1
            )
        return self._device_counts[key]

    def normalized_windows(self, locator, devices, t) -> list:
        """Per device, in order: the z-scored look-back window (None
        when the dataset has no data for it)."""
        T = self.config.lookback
        ref_span = self.config.reference_multiple * T
        windows = [self.device_series(locator, d, t - T, t) for d in devices]
        out = [None if w is None else np.empty(0) for w in windows]
        usable = [i for i, w in enumerate(windows) if w is not None and len(w)]
        if not usable:
            return out
        stacked = np.vstack([windows[i].values for i in usable])
        references = [
            self.device_series(locator, devices[i], t - T - ref_span, t - T)
            for i in usable
        ]
        if references[0] is None or len(references[0]) < 2:
            means, stds = stacked.mean(axis=1), stacked.std(axis=1)
        else:
            ref_matrix = np.vstack([ref.values for ref in references])
            means, stds = ref_matrix.mean(axis=1), ref_matrix.std(axis=1)
        stds = np.where(stds == 0.0, 1.0, stds)
        normalized = (stacked - means[:, np.newaxis]) / stds[:, np.newaxis]
        for row, i in enumerate(usable):
            out[i] = normalized[row]
        return out

    def devices(self, locator, components) -> list:
        kinds = self.store.schema(locator).component_kinds
        return [d for c in components for d in self._observables(c, kinds)]

    def features(self, extracted, t) -> np.ndarray:
        T = self.config.lookback
        vector = np.empty(len(self.schema))
        pos = 0
        n_stats = len(STAT_NAMES)
        for group in self.schema.ts_groups:
            components = extracted.of_kind(group.kind)
            if not components:
                vector[pos : pos + n_stats] = 0.0
                pos += n_stats
                continue
            windows = []
            any_active = False
            for locator in group.locators:
                if not self.store.is_active(locator):
                    continue
                any_active = True
                devices = self.devices(locator, components)
                for window in self.normalized_windows(locator, devices, t):
                    if window is not None and len(window):
                        windows.append(window)
            if not any_active:
                vector[pos : pos + n_stats] = np.nan
            elif not windows:
                vector[pos : pos + n_stats] = 0.0
            else:
                vector[pos : pos + n_stats] = reference_stats(
                    np.concatenate(windows)
                )
            pos += n_stats
        for feature in self.schema.event_features:
            components = extracted.of_kind(feature.kind)
            if not components:
                vector[pos] = 0.0
            elif not self.store.is_active(feature.locator):
                vector[pos] = np.nan
            else:
                count = 0
                for device in self.devices(feature.locator, components):
                    counts = self.device_counts(feature.locator, device, t - T, t)
                    if counts is not None:
                        count += counts.get(feature.event_type, 0)
                vector[pos] = float(count)
            pos += 1
        for kind in self.config.kinds:
            vector[pos] = float(len(extracted.of_kind(kind)))
            pos += 1
        return vector


def oracle_cpd_signals(cpd, oracle: OracleFeatureBuilder, extracted, t):
    """CPD+'s signal vector and triggers from per-device pulls.

    Each device window is CUSUM-scanned on its own (``detect``), and
    event rates come from per-device count dicts.
    """
    T = oracle.config.lookback
    schema = oracle.schema
    store = oracle.store
    vector = np.zeros(len(schema.ts_groups) + len(schema.event_features))
    triggers: list[str] = []
    for g, group in enumerate(schema.ts_groups):
        components = extracted.of_kind(group.kind)
        if not components:
            continue
        detections = 0
        devices = 0
        for locator in group.locators:
            if not store.is_active(locator):
                continue
            for device in oracle.devices(locator, components):
                window = oracle.device_series(locator, device, t - T, t)
                if window is None or len(window) < 6:
                    continue
                devices += 1
                hit = bool(cpd.detector.detect(window.values))
                detections += int(hit)
                if hit and group.kind in _CPD_LEAF_KINDS:
                    triggers.append(
                        f"change-point in {locator} on {device.name}"
                    )
        if devices:
            vector[g] = detections / devices
    offset = len(schema.ts_groups)
    for e, feature in enumerate(schema.event_features):
        components = extracted.of_kind(feature.kind)
        if not components or not store.is_active(feature.locator):
            continue
        rate = store.schema(feature.locator).events.rates[feature.event_type]
        devices = oracle.devices(feature.locator, components)
        abnormal = 0
        for device in devices:
            counts = oracle.device_counts(feature.locator, device, t - T, t)
            if counts is None:
                continue
            count = counts.get(feature.event_type, 0)
            expected = rate * T / 3600.0
            threshold = max(expected + 1.64 * np.sqrt(expected) + 0.5, 2.5)
            if count > threshold:
                abnormal += 1
                if feature.kind in _CPD_LEAF_KINDS:
                    triggers.append(
                        f"{count}x {feature.event_type} events in "
                        f"{feature.locator} on {device.name}"
                    )
        if devices:
            vector[offset + e] = abnormal / len(devices)
    return vector, triggers
