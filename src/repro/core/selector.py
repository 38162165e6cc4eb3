"""The model selector (§5.3).

Given an incident, the selector:

1. applies the operator's ``EXCLUDE`` rules (out-of-scope ⇒ not the
   team's responsibility);
2. requires at least one extracted component — otherwise the incident
   is "too broad in scope" and routing falls back to the legacy system;
3. uses meta-learning over bag-of-important-words features [58] to
   decide whether the incident is one the supervised RF handles well
   ("old") or a new/rare one that should go to CPD+.

The decider model is pluggable — Figure 8 compares the default
bag-of-words RF against one-class SVMs (aggressive RBF / conservative
polynomial kernels) and AdaBoost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..config.spec import ScoutConfig
from ..ml.adaboost import AdaBoostClassifier
from ..ml.forest import RandomForestClassifier
from ..ml.svm import OneClassSVM
from ..ml.text import important_words, tokenize
from .extraction import ExtractedComponents

__all__ = ["Route", "SelectorDecision", "MetaFeaturizer", "ModelSelector"]


class Route(str, enum.Enum):
    """Where the selector sends an incident."""

    SUPERVISED = "rf"
    UNSUPERVISED = "cpd+"
    EXCLUDED = "excluded"
    FALLBACK = "fallback"  # legacy incident routing


@dataclass(frozen=True)
class SelectorDecision:
    route: Route
    reason: str
    novelty: float = 0.0  # P(the supervised model would get this wrong)


class MetaFeaturizer:
    """Counts of important words — the [58]-style meta-features."""

    def __init__(self, top_k: int = 60) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.top_k = top_k
        self._vocab: dict[str, int] = {}

    def fit(self, texts: list[str], labels) -> "MetaFeaturizer":
        words = important_words(texts, labels, top_k=self.top_k)
        self._vocab = {word: i for i, word in enumerate(words)}
        return self

    @property
    def vocabulary(self) -> list[str]:
        return sorted(self._vocab, key=self._vocab.get)

    def transform(self, texts: list[str]) -> np.ndarray:
        if not self._vocab:
            raise RuntimeError("MetaFeaturizer must be fitted first")
        width = len(self._vocab) + 1
        cells: list[int] = []
        lengths: list[int] = []
        for i, text in enumerate(texts):
            tokens = tokenize(text)
            base = i * width
            cells.extend(
                base + j for j in map(self._vocab.get, tokens) if j is not None
            )
            lengths.append(len(tokens))
        # Counts are small integers, exact in float64 whatever the order.
        counts = np.bincount(
            np.asarray(cells, dtype=np.intp), minlength=len(texts) * width
        )
        X = counts.reshape(len(texts), width).astype(float)
        X[:, -1] = lengths
        return X


class ModelSelector:
    """Exclusions + scoping + the RF/CPD+ decider."""

    def __init__(
        self,
        config: ScoutConfig,
        decider: str = "rf",
        top_k: int = 60,
        novelty_threshold: float = 0.5,
        rng: int = 0,
    ) -> None:
        if decider not in ("rf", "adaboost", "ocsvm_aggressive", "ocsvm_conservative"):
            raise ValueError(f"unknown decider: {decider!r}")
        self.config = config
        self.decider_kind = decider
        self.novelty_threshold = novelty_threshold
        self._featurizer = MetaFeaturizer(top_k=top_k)
        self._rng = rng
        self._model = None

    # -- training ----------------------------------------------------------

    def fit(
        self,
        texts: list[str],
        team_labels,
        hard_labels,
    ) -> "ModelSelector":
        """Fit the decider.

        ``team_labels`` guide important-word mining; ``hard_labels`` mark
        incidents the supervised model mis-classified in cross-validation
        (the meta-learning target).  One-class deciders ignore
        ``hard_labels`` and model the training distribution instead.
        """
        self._featurizer.fit(texts, team_labels)
        X = self._featurizer.transform(texts)
        hard = np.asarray(hard_labels, dtype=int)
        if self.decider_kind == "rf":
            model = RandomForestClassifier(n_estimators=50, max_depth=10, rng=self._rng)
            model.fit(X, hard)
        elif self.decider_kind == "adaboost":
            model = AdaBoostClassifier(n_estimators=60, base_max_depth=2, rng=self._rng)
            model.fit(X, hard)
        elif self.decider_kind == "ocsvm_aggressive":
            model = OneClassSVM(nu=0.15, kernel="rbf")
            model.fit(X)
        else:  # ocsvm_conservative
            model = OneClassSVM(nu=0.05, kernel="poly")
            model.fit(X)
        self._model = model
        return self

    @property
    def is_fitted(self) -> bool:
        return self._model is not None

    # -- novelty ---------------------------------------------------------------

    def novelty(self, text: str) -> float:
        """P(the supervised RF would mis-classify this incident)."""
        if self._model is None:
            return 0.0
        X = self._featurizer.transform([text])
        if isinstance(self._model, OneClassSVM):
            return 1.0 if self._model.predict(X)[0] == -1 else 0.0
        proba = self._model.predict_proba(X)[0]
        classes = list(self._model.classes_)
        return float(proba[classes.index(1)]) if 1 in classes else 0.0

    # -- the decision ----------------------------------------------------------

    def decide(
        self,
        title: str,
        body: str,
        extracted: ExtractedComponents,
    ) -> SelectorDecision:
        for rule in self.config.excludes:
            if rule.matches(title, body, extracted.all):
                return SelectorDecision(
                    Route.EXCLUDED,
                    f"matched EXCLUDE {rule.field} = {rule.pattern!r}",
                )
        if extracted.is_empty:
            return SelectorDecision(
                Route.FALLBACK,
                "no components extracted; incident too broad in scope",
            )
        novelty = self.novelty(f"{title}\n{body}")
        if novelty > self.novelty_threshold:
            return SelectorDecision(
                Route.UNSUPERVISED,
                f"incident looks new/rare (novelty={novelty:.2f})",
                novelty,
            )
        return SelectorDecision(
            Route.SUPERVISED,
            f"incident matches known patterns (novelty={novelty:.2f})",
            novelty,
        )
