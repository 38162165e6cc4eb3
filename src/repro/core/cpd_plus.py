"""CPD+ — the Scout's unsupervised arm (§5.2.2).

Change-point detection extended for incident routing:

* events are folded in alongside time series (plain CPD "cannot operate
  over events");
* when the incident implicates a whole cluster, a small random forest
  learns "whether change-points (and events) are due to failures" from
  the *average* per-component-type change-point/event counts — plain
  CPD "can make a mistake on each device" and false-positives
  accumulate;
* when the incident implicates only a handful of devices, CPD+ is
  conservative: any change-point or abnormal error burst means the team
  is responsible, and the triggering signal doubles as the explanation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config.spec import ScoutConfig
from ..datacenter.components import ComponentKind
from ..datacenter.topology import Topology
from ..ml.cpd import CusumDetector
from ..ml.forest import RandomForestClassifier
from ..monitoring.store import MonitoringStore
from .extraction import ExtractedComponents
from .features import FeatureBuilder

__all__ = ["CPDPlus", "CPDVerdict"]

_LEAF_KINDS = (ComponentKind.SERVER, ComponentKind.SWITCH)


@dataclass(frozen=True)
class CPDVerdict:
    """CPD+'s answer for one incident."""

    responsible: bool
    confidence: float
    triggers: tuple[str, ...] = ()


@dataclass
class CPDPlus:
    """The CPD+ classifier over a team's monitoring plane."""

    builder: FeatureBuilder
    detector: CusumDetector = field(default_factory=lambda: CusumDetector(threshold=5.0))
    # "A handful of devices": at or below this leaf-device count the
    # conservative any-signal rule applies; above it (or cluster-scope)
    # the learned cluster model takes over.
    handful_threshold: int = 6
    # Fallback threshold on the mean signal rate when the cluster RF has
    # not been trained yet.
    fallback_threshold: float = 0.15

    def __post_init__(self) -> None:
        self._cluster_rf: RandomForestClassifier | None = None

    # -- signal extraction -------------------------------------------------

    @property
    def config(self) -> ScoutConfig:
        return self.builder.config

    @property
    def store(self) -> MonitoringStore:
        return self.builder.store

    @property
    def topology(self) -> Topology:
        return self.builder.topology

    def signal_names(self) -> list[str]:
        names = [
            f"cp_rate.{group.kind.value}.{group.label}"
            for group in self.builder.schema.ts_groups
        ]
        names += [
            f"event_rate.{f.kind.value}.{f.locator}.{f.event_type}"
            for f in self.builder.schema.event_features
        ]
        return names

    def signals(
        self, extracted: ExtractedComponents, t: float
    ) -> tuple[np.ndarray, list[str]]:
        """Average change-point / abnormal-event rates per signal group.

        Returns the signal vector plus human-readable trigger strings
        for every device-level detection (used as explanations).
        """
        T = self.config.lookback
        schema = self.builder.schema
        vector = np.zeros(len(schema.ts_groups) + len(schema.event_features))
        triggers: list[str] = []
        # One look-back pull per locator, read below group by group.
        self.builder.pull_windows(extracted, t)

        for g, group in enumerate(schema.ts_groups):
            components = extracted.of_kind(group.kind)
            if not components:
                continue
            detections = 0
            devices = 0
            for locator in group.locators:
                if not self.store.is_active(locator):
                    continue
                # Same component→device expansion order as the feature
                # pulls (duplicate devices mentioned via two components
                # deliberately count twice, as they always have).
                devs = self.builder._devices(locator, components)
                positions, rows = self.builder.series_rows(
                    locator, devs, t - T, t
                )
                if rows.shape[1] < 6:
                    continue
                devices += len(positions)
                # All rows share the locator's sampling grid, so the
                # whole group CUSUM-scans as one matrix.
                hits = self.detector.detect_any(rows)
                detections += int(hits.sum())
                # Container-kind groups feed the cluster RF only;
                # device-level triggers (and thus the conservative
                # any-signal rule) come from the implicated leaf
                # devices themselves.
                if group.kind in _LEAF_KINDS:
                    for k in np.flatnonzero(hits).tolist():
                        triggers.append(
                            f"change-point in {locator} on "
                            f"{devs[positions[k]].name}"
                        )
            if devices:
                vector[g] = detections / devices

        offset = len(schema.ts_groups)
        for e, feature in enumerate(schema.event_features):
            components = extracted.of_kind(feature.kind)
            if not components:
                continue
            if not self.store.is_active(feature.locator):
                continue
            rate = self.store.schema(feature.locator).events.rates[
                feature.event_type
            ]
            devs_all = self.builder._devices(feature.locator, components)
            # Counts only (no event is materialized), served from the
            # plan's count pull; -1 marks no data.
            counts = self.builder.device_type_counts(
                feature.locator, devs_all, t - T, t, feature.event_type
            )
            expected = rate * T / 3600.0
            # Poisson upper-tail test: flag counts beyond the ~95%
            # envelope of the healthy rate, and never on a single
            # event — background noise produces lone events routinely.
            threshold = max(expected + 1.64 * np.sqrt(expected) + 0.5, 2.5)
            abnormal = np.flatnonzero(counts > threshold).tolist()
            if feature.kind in _LEAF_KINDS:
                for k in abnormal:
                    triggers.append(
                        f"{counts[k]}x {feature.event_type} events in "
                        f"{feature.locator} on {devs_all[k].name}"
                    )
            if devs_all:
                vector[offset + e] = len(abnormal) / len(devs_all)
        return vector, triggers

    # -- scope ---------------------------------------------------------------

    def _leaf_device_count(self, extracted: ExtractedComponents) -> int:
        return sum(len(extracted.of_kind(kind)) for kind in _LEAF_KINDS)

    def is_cluster_scope(self, extracted: ExtractedComponents) -> bool:
        """Does this incident require investigating whole clusters?"""
        mentioned_kinds = {c.kind for c in extracted.mentioned}
        mentions_container = bool(
            mentioned_kinds & {ComponentKind.CLUSTER, ComponentKind.DC}
        )
        mentions_leaf = bool(
            mentioned_kinds
            & {ComponentKind.SERVER, ComponentKind.SWITCH, ComponentKind.VM}
        )
        if mentions_container and not mentions_leaf:
            return True
        return self._leaf_device_count(extracted) > self.handful_threshold

    # -- training / prediction ------------------------------------------------

    def fit_cluster_model(
        self,
        signal_matrix: np.ndarray,
        labels: np.ndarray,
        rng=0,
    ) -> None:
        """Train the cluster-scope RF on (signal vector, label) pairs."""
        if len(np.unique(labels)) < 2:
            self._cluster_rf = None
            return
        rf = RandomForestClassifier(
            n_estimators=50, max_depth=8, rng=rng
        )
        rf.fit(signal_matrix, labels)
        self._cluster_rf = rf

    @property
    def has_cluster_model(self) -> bool:
        return self._cluster_rf is not None

    def predict(
        self, extracted: ExtractedComponents, t: float
    ) -> CPDVerdict:
        vector, triggers = self.signals(extracted, t)
        return self.verdict_from_signals(extracted, vector, tuple(triggers))

    def verdict_from_signals(
        self,
        extracted: ExtractedComponents,
        vector: np.ndarray,
        triggers: tuple[str, ...],
    ) -> CPDVerdict:
        """Apply the CPD+ decision rule to pre-computed signals.

        Shared by the live path and cached-dataset evaluation.
        """
        if not self.is_cluster_scope(extracted):
            # Conservative any-signal rule for few-device incidents; the
            # triggers are "themselves explanations of why the incident
            # was routed to the team".
            responsible = bool(triggers)
            confidence = min(0.95, 0.6 + 0.1 * len(triggers)) if responsible else 0.7
            return CPDVerdict(responsible, confidence, tuple(triggers))
        if self._cluster_rf is not None:
            proba = self._cluster_rf.predict_proba(vector.reshape(1, -1))[0]
            classes = list(self._cluster_rf.classes_)
            p_responsible = proba[classes.index(1)] if 1 in classes else 0.0
            return CPDVerdict(
                bool(p_responsible >= 0.5),
                float(max(proba)),
                tuple(triggers[:5]),
            )
        # Untrained fallback: threshold on the mean signal rate.
        score = float(vector.mean()) if len(vector) else 0.0
        responsible = score > self.fallback_threshold
        return CPDVerdict(responsible, 0.55, tuple(triggers[:5]))
