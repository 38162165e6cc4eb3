"""The Scout framework (§5): builds, retrains, and evaluates Scouts.

Operators hand the framework a configuration file; it does the rest:
feature construction, model training, meta-learned model selection, and
periodic retraining.  §8's deployment lessons are built in as options:

* **down-weighting old incidents** — training weight decays with age;
* **learning from past mistakes** — incidents the model mis-classified
  in cross-validation are up-weighted for the final fit (the same CV
  predictions provide the model selector's meta-learning labels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config.spec import ScoutConfig
from ..datacenter.topology import Topology
from ..incidents.store import IncidentStore
from ..ml.forest import RandomForestClassifier
from ..ml.metrics import BinaryReport, classification_report
from ..ml.preprocessing import MeanImputer
from ..monitoring.store import MonitoringStore
from ..obs import Observability, catalog, maybe_span
from .cpd_plus import CPDPlus
from .dataset import ScoutDataset
from .extraction import ComponentExtractor
from .features import FeatureBuilder
from .scout import Scout, ScoutPrediction
from .selector import ModelSelector, Route

__all__ = ["TrainingOptions", "EvaluationReport", "ScoutFramework"]

_DAY = 86400.0


@dataclass(frozen=True)
class TrainingOptions:
    """Knobs for one framework training run."""

    n_estimators: int = 120
    max_depth: int | None = None
    decider: str = "rf"
    novelty_threshold: float = 0.5
    cv_folds: int = 3
    # §8 "Down-weighting old incidents": weight halves every this many
    # days of age (None disables).
    age_half_life_days: float | None = None
    # §8 "Learning from past mistakes": multiplier applied to incidents
    # mis-classified in cross-validation.
    mistake_boost: float = 2.0
    rng: int = 0
    # Worker processes for forest fitting and dataset featurization:
    # 1 = serial, None/-1 = all cores (an upper bound: small forests fit
    # in process).  Any value yields bit-identical models, features and
    # bundle bytes (§7 reproducibility) — only wall-clock changes.
    n_jobs: int | None = 1


@dataclass
class EvaluationReport:
    """Accuracy + route accounting for one evaluation run."""

    report: BinaryReport
    n_total: int
    n_fallback: int
    n_excluded: int
    n_supervised: int
    n_unsupervised: int

    @property
    def precision(self) -> float:
        return self.report.precision

    @property
    def recall(self) -> float:
        return self.report.recall

    @property
    def f1(self) -> float:
        return self.report.f1

    def __str__(self) -> str:
        return (
            f"{self.report} routes: rf={self.n_supervised} "
            f"cpd+={self.n_unsupervised} fallback={self.n_fallback} "
            f"excluded={self.n_excluded}"
        )


class _TrainingPhase:
    """Context manager: one traced, gauge-timed training phase.

    No-op when ``obs`` is None.  Durations are measured on the
    observability clock, so fake-clocked tests see exact values.
    """

    def __init__(self, obs: Observability | None, name: str) -> None:
        self._obs = obs
        self._name = name
        self._span = None
        self._started = 0.0

    def __enter__(self) -> "_TrainingPhase":
        if self._obs is not None:
            self._started = self._obs.clock()
            self._span = self._obs.trace.start_span(f"train.{self._name}")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._obs is None:
            return
        if exc_type is not None and self._span is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        self._obs.trace.finish(self._span)
        self._obs.metrics.gauge(
            catalog.TRAINING_PHASE_SECONDS
        ).set(self._obs.clock() - self._started, phase=self._name)


class ScoutFramework:
    """Builds a team's Scout from its config and incident history."""

    def __init__(
        self,
        config: ScoutConfig,
        topology: Topology,
        store: MonitoringStore,
        options: TrainingOptions | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.config = config
        self.topology = topology
        self.store = store
        self.options = options or TrainingOptions()
        self.extractor = ComponentExtractor(config, topology)
        self.builder = FeatureBuilder(config, topology, store)
        # Observability sink (None = un-instrumented): per-phase
        # training spans/durations, threaded into the builder's query
        # counters and every Scout this framework trains.
        self.obs = obs
        if obs is not None and self.builder.obs is None:
            self.builder.obs = obs

    def _phase(self, name: str):
        """A traced training phase whose duration lands in a gauge."""
        return _TrainingPhase(self.obs, name)

    # -- dataset construction ------------------------------------------------

    def dataset(
        self,
        incidents: IncidentStore,
        compute_signals: bool = True,
        n_jobs: int | None = None,
    ) -> ScoutDataset:
        """Pre-compute pipeline state for a set of incidents.

        ``n_jobs`` overrides the training options' worker count for this
        build (pass -1 for all cores); results are identical either way.
        """
        cpd = CPDPlus(self.builder)
        with self._phase("dataset_build"):
            return ScoutDataset.build(
                self.builder,
                self.extractor,
                cpd,
                incidents,
                compute_signals,
                n_jobs=self.options.n_jobs if n_jobs is None else n_jobs,
            )

    # -- training ----------------------------------------------------------------

    def _sample_weights(
        self, data: ScoutDataset, hard: np.ndarray | None
    ) -> np.ndarray:
        opts = self.options
        timestamps = data.timestamps
        weights = np.ones(len(data))
        if opts.age_half_life_days is not None and len(timestamps):
            age_days = (timestamps.max() - timestamps) / _DAY
            weights *= 0.5 ** (age_days / opts.age_half_life_days)
        if hard is not None and opts.mistake_boost != 1.0:
            weights = weights * np.where(hard == 1, opts.mistake_boost, 1.0)
        return weights

    def _cross_val_hard_labels(
        self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Which training incidents does the supervised model get wrong?

        k-fold cross-validation with a lighter forest; the resulting
        mistake mask feeds both §8's up-weighting and the selector's
        meta-learning labels.
        """
        opts = self.options
        n = len(y)
        hard = np.zeros(n, dtype=int)
        # cv_folds < 2 disables meta-learning (fast-retrain mode).
        if opts.cv_folds < 2 or n < opts.cv_folds * 2 or len(np.unique(y)) < 2:
            return hard
        order = rng.permutation(n)
        folds = np.array_split(order, opts.cv_folds)
        for fold in folds:
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            if len(np.unique(y[mask])) < 2:
                continue
            forest = RandomForestClassifier(
                n_estimators=max(20, opts.n_estimators // 3),
                max_depth=opts.max_depth,
                rng=np.random.default_rng(int(rng.integers(2**31))),
                n_jobs=opts.n_jobs,
            )
            forest.fit(X[mask], y[mask])
            hard[fold] = (forest.predict(X[fold]) != y[fold]).astype(int)
        return hard

    def train(
        self, train_data: ScoutDataset | IncidentStore, *, lint: bool = False
    ) -> Scout:
        """Build a fitted Scout from training incidents.

        When an observability sink is attached, each phase (imputation,
        cross-validation, forest fit, selector fit, CPD+ fit) runs in a
        ``train.*`` span and records its duration in the
        ``training_phase_seconds`` gauge.

        ``lint=True`` runs the config analyzer against this framework's
        monitoring store first and raises
        :class:`~repro.lint.LintError` on any ERROR finding — a cheap
        pre-flight before hours of feature construction.
        """
        if lint:
            from ..lint import lint_config, require_clean

            require_clean(lint_config(self.config, self.store))
        if isinstance(train_data, IncidentStore):
            train_data = self.dataset(train_data)
        with maybe_span(self.obs, "train", team=self.config.team):
            scout = self._train_traced(train_data)
        if self.obs is not None:
            self.obs.metrics.counter(catalog.TRAINING_RUNS_TOTAL).inc()
        return scout

    def _train_traced(self, train_data: ScoutDataset) -> Scout:
        opts = self.options
        rng = np.random.default_rng(opts.rng)
        usable = train_data.usable()
        if len(usable) == 0:
            raise ValueError("no usable training incidents (all excluded/fallback)")

        with self._phase("impute"):
            imputer = MeanImputer().fit(usable.X)
            X = imputer.transform(usable.X)
        y = usable.y

        with self._phase("cross_validate"):
            hard = self._cross_val_hard_labels(X, y, rng)
            weights = self._sample_weights(usable, hard)

        with self._phase("forest_fit"):
            forest = RandomForestClassifier(
                n_estimators=opts.n_estimators,
                max_depth=opts.max_depth,
                rng=np.random.default_rng(opts.rng + 1),
                n_jobs=opts.n_jobs,
            )
            forest.fit(X, y, sample_weight=weights)

        with self._phase("selector_fit"):
            selector = ModelSelector(
                self.config,
                decider=opts.decider,
                novelty_threshold=opts.novelty_threshold,
                rng=opts.rng + 2,
            )
            selector.fit(usable.texts, y, hard)

        with self._phase("cpd_fit"):
            cpd = CPDPlus(self.builder)
            cpd.fit_cluster_model(usable.signals_matrix, y, rng=opts.rng + 3)

        return Scout(
            config=self.config,
            extractor=self.extractor,
            builder=self.builder,
            selector=selector,
            forest=forest,
            imputer=imputer,
            cpd=cpd,
            obs=self.obs,
        )

    def retrain(self, scout: Scout, train_data: ScoutDataset | IncidentStore) -> Scout:
        """Periodic retraining: rebuild all models on fresh history."""
        del scout  # the framework rebuilds from scratch, as deployed
        return self.train(train_data)

    # -- evaluation ---------------------------------------------------------------

    def predictions(
        self, scout: Scout, data: ScoutDataset
    ) -> list[ScoutPrediction]:
        return [scout.predict_example(example) for example in data]

    def evaluate(
        self,
        scout: Scout,
        data: ScoutDataset,
        include_abstentions: bool = False,
    ) -> EvaluationReport:
        """Precision/recall/F1 of a Scout on pre-computed examples.

        By default abstentions (fallback to legacy routing) are not
        counted against the Scout, matching §7's protocol of focusing
        on incidents "where we can extract at least one component".
        """
        predictions = self.predictions(scout, data)
        counts = {route: 0 for route in Route}
        y_true: list[int] = []
        y_pred: list[int] = []
        for example, prediction in zip(data, predictions):
            counts[prediction.route] += 1
            if prediction.responsible is None:
                if include_abstentions:
                    y_true.append(example.label)
                    y_pred.append(0)
                continue
            y_true.append(example.label)
            y_pred.append(int(prediction.responsible))
        if y_true:
            report = classification_report(np.array(y_true), np.array(y_pred))
        else:
            # Every prediction abstained (and abstentions are not
            # scored): there is nothing to classify, so return an
            # explicit all-zero report instead of handing empty arrays
            # to the metric math.  Route counts below still describe
            # the dataset.
            report = BinaryReport(
                precision=0.0, recall=0.0, f1=0.0, support=0
            )
        return EvaluationReport(
            report=report,
            n_total=len(data),
            n_fallback=counts[Route.FALLBACK],
            n_excluded=counts[Route.EXCLUDED],
            n_supervised=counts[Route.SUPERVISED],
            n_unsupervised=counts[Route.UNSUPERVISED],
        )
