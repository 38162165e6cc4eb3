"""The Scout — a team's ML-assisted gate-keeper (§4, Figure 5).

A fitted Scout answers, for one incident: *is this team responsible?*
The answer carries an independent confidence score and an explanation
(§4).  The end-to-end pipeline (§5.3):

1. extract components from the incident text (config regexes +
   dependency expansion);
2. apply EXCLUDE rules; fall back to legacy routing when no component
   is found;
3. the model selector picks the supervised RF (common incidents) or
   CPD+ (new/rare incidents);
4. the chosen model classifies, and the verdict is explained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, TypeVar

import numpy as np

from ..config.spec import ScoutConfig
from ..incidents.incident import Incident
from ..ml.forest import RandomForestClassifier
from ..ml.preprocessing import MeanImputer
from ..obs import Observability, catalog, maybe_span
from .cpd_plus import CPDPlus
from .dataset import ScoutExample
from .explain import Explanation, explain_forest, render_report
from .extraction import ComponentExtractor, ExtractedComponents
from .features import FeatureBuilder
from .selector import ModelSelector, Route

if TYPE_CHECKING:  # avoids a core ↔ serving import cycle at runtime
    from ..serving.retry import RetryPolicy

__all__ = ["ScoutPrediction", "Scout"]

_T = TypeVar("_T")


@dataclass
class ScoutPrediction:
    """One Scout verdict.

    ``responsible`` is None when the Scout abstains (fallback to the
    legacy routing process).
    """

    incident_id: int
    responsible: bool | None
    confidence: float
    route: Route
    explanation: Explanation = field(default_factory=Explanation)
    novelty: float = 0.0

    def report(self, team: str) -> str:
        """The operator-facing recommendation text (§8)."""
        return render_report(team, self.responsible, self.confidence, self.explanation)


class Scout:
    """A fitted per-team incident gate-keeper."""

    def __init__(
        self,
        config: ScoutConfig,
        extractor: ComponentExtractor,
        builder: FeatureBuilder,
        selector: ModelSelector,
        forest: RandomForestClassifier,
        imputer: MeanImputer,
        cpd: CPDPlus,
        retry_policy: "RetryPolicy | None" = None,
        obs: Observability | None = None,
    ) -> None:
        self.config = config
        self.extractor = extractor
        self.builder = builder
        self.selector = selector
        self.forest = forest
        self.imputer = imputer
        self.cpd = cpd
        # Retry for transient monitoring-pull failures during live
        # prediction; the incident manager threads its policy in here.
        self.retry_policy = retry_policy
        # Observability sink for per-stage spans and verdict counters;
        # None (the default) keeps the pipeline un-instrumented.  The
        # incident manager threads its own sink in at registration.
        self.obs = obs

    @property
    def team(self) -> str:
        return self.config.team

    # -- live prediction -----------------------------------------------------

    def predict(self, incident: Incident) -> ScoutPrediction:
        """Run the full pipeline, pulling monitoring data live.

        Every stage opens a span when an observability sink is
        attached (nested under the caller's ``scout.call`` span when
        the incident manager drives the call): component extraction,
        model-selector choice, feature build, and RF vs. CPD+
        inference each show up with their own timing.

        The builder's per-call pull plan resets here, so a
        prediction's pulls and hits depend only on its own incident.
        The builder's feature-vector memo does not: an incident with
        the time and components of one served since the store last
        changed reuses that incident's vector and pulls nothing for
        its features (an outage storm's copies).  ``clear_cache()``
        resets both.
        """
        self.builder.clear_rows()
        prediction = self._predict_traced(incident)
        if self.obs is not None:
            self.obs.metrics.counter(
                catalog.SCOUT_PREDICTIONS_TOTAL
            ).inc(1, team=self.team, route=prediction.route.value)
        return prediction

    def _predict_traced(self, incident: Incident) -> ScoutPrediction:
        with maybe_span(self.obs, "scout.extract"):
            extracted = self.extractor.extract(incident.text)
        with maybe_span(self.obs, "scout.select"):
            decision = self.selector.decide(
                incident.title, incident.body, extracted
            )
        if decision.route is Route.EXCLUDED:
            return ScoutPrediction(
                incident.incident_id,
                responsible=False,
                confidence=1.0,
                route=Route.EXCLUDED,
                explanation=Explanation(notes=[decision.reason]),
            )
        if decision.route is Route.FALLBACK:
            return ScoutPrediction(
                incident.incident_id,
                responsible=None,
                confidence=0.0,
                route=Route.FALLBACK,
                explanation=Explanation(notes=[decision.reason]),
            )
        if decision.route is Route.UNSUPERVISED:
            with maybe_span(self.obs, "scout.infer_cpd"):
                return self._pull(
                    lambda: self._predict_cpd(
                        incident, extracted, decision.novelty
                    )
                )
        with maybe_span(self.obs, "scout.features"):
            features = self._pull(
                lambda: self.builder.features(extracted, incident.created_at)
            )
        with maybe_span(self.obs, "scout.infer_rf"):
            return self._predict_forest(
                incident, extracted, features, decision.novelty
            )

    def _pull(self, fn: Callable[[], _T]) -> _T:
        """Run a monitoring-pull stage under the retry policy (if any).

        Completed pulls stay in the builder's per-call plan between
        attempts, so a retry only re-issues the pull that failed.
        Extra attempts beyond the first are counted per team in
        ``scout_retry_attempts_total`` when observability is attached.
        """
        if self.retry_policy is None:
            return fn()
        if self.obs is None:
            return self.retry_policy.call(fn)
        attempts = 0

        def counted() -> _T:
            nonlocal attempts
            attempts += 1
            return fn()

        try:
            return self.retry_policy.call(counted)
        finally:
            if attempts > 1:
                self.obs.metrics.counter(
                    catalog.SCOUT_RETRY_ATTEMPTS_TOTAL
                ).inc(attempts - 1, team=self.team)

    # -- cached prediction ------------------------------------------------------

    def predict_example(self, example: ScoutExample) -> ScoutPrediction:
        """Predict from a pre-computed :class:`ScoutExample`.

        The cached path must produce exactly what live serving would
        log — §7's evaluation artifacts are audited against serving
        decisions.  Static routes therefore re-derive the selector's
        reason (cheap: ``decide`` short-circuits before any model work
        for EXCLUDED/FALLBACK) instead of returning an empty
        explanation.
        """
        incident = example.incident
        if example.static_route in (Route.EXCLUDED, Route.FALLBACK):
            decision = self.selector.decide(
                incident.title, incident.body, example.extracted
            )
            explanation = Explanation(notes=[decision.reason])
            if example.static_route is Route.EXCLUDED:
                return ScoutPrediction(
                    incident.incident_id, False, 1.0, Route.EXCLUDED,
                    explanation=explanation,
                )
            return ScoutPrediction(
                incident.incident_id, None, 0.0, Route.FALLBACK,
                explanation=explanation,
            )
        novelty = self.selector.novelty(incident.text)
        if novelty > self.selector.novelty_threshold:
            return self._cpd_verdict_from_cache(example, novelty)
        return self._predict_forest(
            incident, example.extracted, example.features, novelty
        )

    # -- model paths -----------------------------------------------------------------

    def _predict_forest(
        self,
        incident: Incident,
        extracted: ExtractedComponents,
        features: np.ndarray,
        novelty: float,
    ) -> ScoutPrediction:
        row = self.imputer.transform(features.reshape(1, -1))
        proba = self.forest.predict_proba(row)[0]
        classes = list(self.forest.classes_)
        p_responsible = proba[classes.index(1)] if 1 in classes else 0.0
        responsible = p_responsible >= 0.5
        explanation = Explanation(
            components=[c.name for c in extracted.mentioned],
            datasets=[ref.locator for ref in self.config.monitoring],
        )
        if responsible:
            explanation.attributions = explain_forest(
                self.forest, self.builder.schema, row[0], predicted_class=1
            )
        return ScoutPrediction(
            incident.incident_id,
            responsible=bool(responsible),
            confidence=float(max(p_responsible, 1.0 - p_responsible)),
            route=Route.SUPERVISED,
            explanation=explanation,
            novelty=novelty,
        )

    def _predict_cpd(
        self,
        incident: Incident,
        extracted: ExtractedComponents,
        novelty: float,
    ) -> ScoutPrediction:
        verdict = self.cpd.predict(extracted, incident.created_at)
        return ScoutPrediction(
            incident.incident_id,
            responsible=verdict.responsible,
            confidence=verdict.confidence,
            route=Route.UNSUPERVISED,
            explanation=Explanation(
                components=[c.name for c in extracted.mentioned],
                triggers=list(verdict.triggers),
            ),
            novelty=novelty,
        )

    def _cpd_verdict_from_cache(
        self, example: ScoutExample, novelty: float
    ) -> ScoutPrediction:
        verdict = self.cpd.verdict_from_signals(
            example.extracted, example.signals, example.triggers
        )
        return ScoutPrediction(
            example.incident.incident_id,
            responsible=verdict.responsible,
            confidence=verdict.confidence,
            route=Route.UNSUPERVISED,
            explanation=Explanation(
                components=[c.name for c in example.extracted.mentioned],
                # No extra truncation: verdict_from_signals already
                # applies the live path's trigger policy, so cached and
                # live explanations carry identical trigger lists.
                triggers=list(verdict.triggers),
            ),
            novelty=novelty,
        )
