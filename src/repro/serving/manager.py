"""The incident manager: the online serving side of §6.

In production, "the online component provides a REST interface and is
activated once an incident is created in the provider's incident
management system: the incident manager makes calls to the online
component, which runs the desired models and returns a prediction."
Crucially, the deployed Scout ran in *suggestion mode*: "we do not take
action based on the output of the Scout but rather observe what would
have happened if it was used for routing decisions."

:class:`IncidentManager` is that integration point for the synthetic
cloud: Scouts register as gate-keepers, incoming incidents fan out to
them, answers compose through a Scout Master, and every decision —
acted on or merely suggested — lands in an auditable log.  A
:class:`~repro.core.drift.DriftMonitor` per Scout watches accuracy as
incidents resolve.

Because a Scout must never make routing *worse* than the legacy
process, the fan-out is failure-isolated: a Scout that raises, blows
its deadline, or sits behind an open circuit breaker degrades to an
*abstain* answer with the cause recorded in a :class:`ScoutCallOutcome`
— one bad gate-keeper can neither take down ``handle()`` nor block the
other teams' verdicts.

The manager is also the pipeline's observability root: it owns an
:class:`~repro.obs.Observability` (driven by the same injectable
clock), opens a ``serve.handle`` span per incident with one
``scout.call`` child per team, counts every :class:`CallStatus`,
records call latencies in a histogram, and emits an event for every
circuit-breaker transition.  Registered Scouts (and their feature
builders) inherit the manager's observability, so one
``manager.obs.render()`` exposes the whole pipeline.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass
from enum import Enum

from ..core.drift import DriftMonitor
from ..core.explain import Explanation
from ..core.scout import Scout, ScoutPrediction
from ..core.selector import Route
from ..incidents.incident import Incident
from ..obs import Observability, catalog
from ..simulation.scout_master import ScoutAnswer, ScoutMaster
from ..simulation.teams import TeamRegistry
from .breaker import BreakerPolicy, BreakerState, CircuitBreaker
from .locks import RankedLock
from .retry import RetryPolicy

__all__ = [
    "CallStatus",
    "ScoutCallOutcome",
    "ServingDecision",
    "ScoutServiceStats",
    "ShadowObservation",
    "IncidentManager",
]


class CallStatus(str, Enum):
    """How one per-Scout call ended."""

    OK = "ok"
    ERROR = "error"
    TIMEOUT = "timeout"
    BREAKER_OPEN = "breaker_open"


@dataclass(frozen=True)
class ScoutCallOutcome:
    """The serving-layer verdict on one per-Scout call.

    ``latency_seconds`` is None when the Scout was never invoked (a
    breaker-open skip): a skipped call has *no* latency, and recording
    ``0.0`` would be indistinguishable from an instant answer in any
    downstream aggregation.
    """

    team: str
    status: CallStatus
    latency_seconds: float | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status is CallStatus.OK

    @property
    def invoked(self) -> bool:
        """Did this call actually reach the Scout?"""
        return self.status is not CallStatus.BREAKER_OPEN


# Column codes of the decision record.
_STATUSES = tuple(CallStatus)
_ROUTES = tuple(Route)
_VERDICTS = (False, True, None)  # a prediction's ``responsible``
_OK = _STATUSES.index(CallStatus.OK)


class _DecisionLog:
    """Every decision a manager served, stored as columns.

    The manager keeps every decision, so what a decision costs to keep
    is what its columns cost.  Per decision: its incident id, suggested
    team, latency, composition latency, acted flag, trace id and the
    end offset of its run of calls.  Per call: the team, status,
    latency (NaN for a skipped call), model epoch, and the prediction's
    verdict, confidence, route, novelty and explanation.  Team names and
    explanation contents are interned, so an outage storm's copies share
    one explanation record.  Rare values (a call's error text, a
    prediction whose incident id is not its decision's) sit in sparse
    maps keyed by call index.
    """

    def __init__(self) -> None:
        self.teams: list[str] = []
        self._team_rows: dict[str, int] = {}
        self.explanations: list[tuple] = []
        self._explanation_rows: dict[tuple, int] = {}
        self.ids = array("q")
        self.suggested = array("I")  # team row + 1, 0 for no suggestion
        self.latency = array("d")
        self.compose = array("d")
        self.acted = array("B")
        self.trace_ids: list[str | None] = []
        self.call_end = array("I")
        self.call_team = array("I")
        self.status = array("B")
        self.call_latency = array("d")
        self.epoch = array("I")
        self.verdict = array("B")
        self.confidence = array("d")
        self.route = array("B")
        self.novelty = array("d")
        self.explanation = array("I")
        self.errors: dict[int, str] = {}
        self.prediction_ids: dict[int, int] = {}

    def _team(self, team: str) -> int:
        row = self._team_rows.get(team)
        if row is None:
            row = self._team_rows[team] = len(self.teams)
            self.teams.append(team)
        return row

    def _explanation(self, explanation: Explanation) -> int:
        key = (
            tuple(explanation.components),
            tuple(explanation.datasets),
            tuple(explanation.attributions),
            tuple(explanation.triggers),
            tuple(explanation.notes),
        )
        row = self._explanation_rows.get(key)
        if row is None:
            row = self._explanation_rows[key] = len(self.explanations)
            self.explanations.append(key)
        return row

    def append(
        self,
        incident_id: int,
        suggested: str | None,
        results: list[_CallResult],
        latency: float,
        compose: float,
        acted: bool,
        trace_id: str | None,
    ) -> int:
        """Record one decision; returns its index."""
        try:
            self.ids.append(incident_id)
        except OverflowError:  # ids beyond int64 stay Python ints
            self.ids = list(self.ids)
            self.ids.append(incident_id)
        self.suggested.append(0 if suggested is None else self._team(suggested) + 1)
        self.latency.append(latency)
        self.compose.append(compose)
        self.acted.append(acted)
        self.trace_ids.append(trace_id)
        for result in results:
            call = len(self.call_team)
            outcome = result.outcome
            prediction = result.prediction
            self.call_team.append(self._team(result.team))
            self.status.append(_STATUSES.index(outcome.status))
            latency_seconds = outcome.latency_seconds
            self.call_latency.append(
                math.nan if latency_seconds is None else latency_seconds
            )
            self.epoch.append(result.epoch)
            self.verdict.append(_VERDICTS.index(prediction.responsible))
            self.confidence.append(prediction.confidence)
            self.route.append(_ROUTES.index(prediction.route))
            self.novelty.append(prediction.novelty)
            self.explanation.append(self._explanation(prediction.explanation))
            if outcome.error is not None:
                self.errors[call] = outcome.error
            if prediction.incident_id != incident_id:
                self.prediction_ids[call] = prediction.incident_id
        self.call_end.append(len(self.call_team))
        return len(self.ids) - 1

    def calls(self, index: int) -> range:
        return range(self.call_end[index - 1] if index else 0, self.call_end[index])

    def prediction(self, call: int, incident_id: int) -> ScoutPrediction:
        components, datasets, attributions, triggers, notes = (
            self.explanations[self.explanation[call]]
        )
        return ScoutPrediction(
            self.prediction_ids.get(call, incident_id),
            responsible=_VERDICTS[self.verdict[call]],
            confidence=self.confidence[call],
            route=_ROUTES[self.route[call]],
            explanation=Explanation(
                components=list(components),
                datasets=list(datasets),
                attributions=list(attributions),
                triggers=list(triggers),
                notes=list(notes),
            ),
            novelty=self.novelty[call],
        )

    def outcome(self, call: int) -> ScoutCallOutcome:
        latency = self.call_latency[call]
        return ScoutCallOutcome(
            self.teams[self.call_team[call]],
            _STATUSES[self.status[call]],
            None if math.isnan(latency) else latency,
            self.errors.get(call),
        )


class ServingDecision:
    """One logged routing decision.

    ``trace_id`` keys into the manager's trace exporter
    (``manager.obs.trace.trace(decision.trace_id)``) and
    ``stage_latencies`` is the per-stage breakdown of
    ``latency_seconds``: one ``("scout.<team>", seconds)`` entry per
    invoked Scout plus a ``("compose", seconds)`` entry for the Scout
    Master composition.  ``model_epochs`` stamps, per team, which model
    epoch answered this incident — the audit trail a zero-downtime
    :meth:`IncidentManager.swap` leaves behind (in-flight incidents at
    swap time carry the old epoch, later arrivals the new one; a call
    degraded because its team was unregistered mid-flight stamps 0).

    A decision is a read-only view of its row in the manager's
    :class:`_DecisionLog`; every field is rebuilt from the columns on
    access (``answers``, ``stage_latencies`` and ``model_epochs`` from
    the per-call ones), and equality and ``repr`` go by the field
    values.  Each access builds fresh predictions, so mutating
    one changes no logged decision.
    """

    __slots__ = ("_log", "_i")

    FIELDS = (
        "incident_id", "suggested_team", "answers", "predictions",
        "latency_seconds", "acted", "outcomes", "trace_id",
        "stage_latencies", "model_epochs",
    )

    def __init__(self, log: _DecisionLog, index: int) -> None:
        self._log = log
        self._i = index

    @property
    def incident_id(self) -> int:
        return self._log.ids[self._i]

    @property
    def suggested_team(self) -> str | None:
        row = self._log.suggested[self._i]
        return self._log.teams[row - 1] if row else None

    @property
    def answers(self) -> tuple[ScoutAnswer, ...]:
        log = self._log
        return tuple(
            ScoutAnswer(
                log.teams[log.call_team[call]],
                _VERDICTS[log.verdict[call]],
                log.confidence[call],
            )
            for call in log.calls(self._i)
        )

    @property
    def predictions(self) -> tuple[ScoutPrediction, ...]:
        incident_id = self.incident_id
        return tuple(
            self._log.prediction(call, incident_id)
            for call in self._log.calls(self._i)
        )

    @property
    def latency_seconds(self) -> float:
        return self._log.latency[self._i]

    @property
    def acted(self) -> bool:
        return bool(self._log.acted[self._i])

    @property
    def outcomes(self) -> tuple[ScoutCallOutcome, ...]:
        return tuple(self._log.outcome(call) for call in self._log.calls(self._i))

    @property
    def trace_id(self) -> str | None:
        return self._log.trace_ids[self._i]

    @property
    def stage_latencies(self) -> tuple[tuple[str, float], ...]:
        log = self._log
        stages = tuple(
            (f"scout.{log.teams[log.call_team[call]]}", log.call_latency[call])
            for call in log.calls(self._i)
            if not math.isnan(log.call_latency[call])
        )
        return stages + (("compose", log.compose[self._i]),)

    @property
    def model_epochs(self) -> tuple[tuple[str, int], ...]:
        log = self._log
        return tuple(
            (log.teams[log.call_team[call]], log.epoch[call])
            for call in log.calls(self._i)
        )

    @property
    def degraded(self) -> bool:
        """Did any Scout fail to answer healthily for this incident?"""
        status = self._log.status
        return any(status[call] != _OK for call in self._log.calls(self._i))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ServingDecision):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.FIELDS, self._values())
        )
        return f"ServingDecision({body})"


@dataclass
class ScoutServiceStats:
    """Per-Scout serving counters."""

    team: str
    calls: int = 0
    said_yes: int = 0
    said_no: int = 0
    abstained: int = 0
    errors: int = 0
    timeouts: int = 0
    breaker_open_skips: int = 0
    total_latency: float = 0.0
    breaker_state: str = BreakerState.CLOSED.value

    @property
    def invoked(self) -> int:
        """Calls that actually reached the Scout (breaker skips don't)."""
        return self.calls - self.breaker_open_skips

    @property
    def mean_latency(self) -> float:
        """Mean latency over invoked calls only.

        ``total_latency`` accumulates exactly the outcomes that reached
        the Scout (OK, ERROR, TIMEOUT — the same set
        ``scout_call_latency_seconds`` observes), so the numerator and
        the ``invoked`` denominator always agree.
        """
        return self.total_latency / self.invoked if self.invoked else 0.0

    @property
    def availability(self) -> float:
        """Fraction of fan-outs this Scout answered healthily."""
        if not self.calls:
            return 1.0
        faulted = self.errors + self.timeouts + self.breaker_open_skips
        return (self.calls - faulted) / self.calls


def _abstain(incident_id: int, note: str) -> ScoutPrediction:
    """The degraded answer: fall back to the legacy routing process."""
    return ScoutPrediction(
        incident_id,
        responsible=None,
        confidence=0.0,
        route=Route.FALLBACK,
        explanation=Explanation(notes=[note]),
    )


def _route_name(prediction: ScoutPrediction) -> str:
    """The pipeline route as a plain string (tolerant of test doubles)."""
    route = getattr(prediction, "route", None)
    return getattr(route, "value", str(route))


@dataclass(frozen=True)
class ShadowObservation:
    """One side-by-side comparison of a shadow candidate vs. production.

    Shadow serving (:meth:`IncidentManager.register_shadow`) runs a
    candidate Scout on the same live incidents as the team's production
    model, *after* the production call and with zero influence on the
    routing decision.  Each observation records both verdicts as plain
    scalars (not full predictions — the shadow log is an analysis
    input, not an audit log) so :func:`repro.analysis.shadow_report`
    can build a promotion report from it.
    """

    incident_id: int
    team: str
    primary_epoch: int
    primary_status: CallStatus
    primary_responsible: bool | None
    primary_confidence: float
    primary_route: str
    shadow_status: CallStatus
    shadow_responsible: bool | None
    shadow_confidence: float
    shadow_route: str | None
    shadow_latency_seconds: float
    shadow_error: str | None = None

    @property
    def agrees(self) -> bool:
        """Did the healthy shadow reach the production verdict?"""
        return (
            self.shadow_status is CallStatus.OK
            and self.shadow_responsible == self.primary_responsible
        )

    @property
    def diff(self) -> bool:
        """A healthy shadow answer that *differs* from production.

        Shadow errors/timeouts are not diffs (they are counted
        separately); only a successful candidate disagreeing counts.
        """
        return (
            self.shadow_status is CallStatus.OK
            and self.shadow_responsible != self.primary_responsible
        )


@dataclass
class _CallResult:
    """One per-Scout call's full output.

    Carries the epoch stamp of the model that answered and the shadow
    observation (when a shadow is registered for the team), so
    :meth:`IncidentManager.handle` can account for everything under the
    commit lock.
    """

    team: str
    prediction: ScoutPrediction
    outcome: ScoutCallOutcome
    epoch: int
    shadow: ShadowObservation | None = None


# Lock ranks (see .locks): a thread holding a team lock may take the
# commit lock, never the reverse, and never two team locks at once.
_TEAM_RANK = 1
_COMMIT_RANK = 2


def _thread(target, name: str, value) -> None:
    """Set ``target.<name>`` to a manager's ``value`` unless the target
    brought its own.

    An unset attribute (None) is the manager's to fill, and so is one
    that still holds the object a manager threaded in before (recorded
    in ``target._threaded``).  Any other value is the target's own and
    stays, and a target without the attribute (a test double) is left
    alone.
    """
    current = getattr(target, name, False)
    threaded = getattr(target, "_threaded", {})
    if current is None or (name in threaded and current is threaded[name]):
        setattr(target, name, value)
        target._threaded = {**threaded, name: value}


class IncidentManager:
    """Registers Scouts and serves routing suggestions for incidents.

    Parameters
    ----------
    registry:
        The team universe (for the Scout Master's dependency logic).
    suggestion_mode:
        When True (the deployed default), decisions are logged but
        ``acted`` is False — what-if analysis without routing risk.
    confidence_floor:
        Minimum confidence for a "yes" to count in composition.
    n_jobs, batch_workers:
        Accepted for compatibility and ignored: the manager owns no
        threads.  :meth:`handle` calls an incident's Scouts one after
        another on the calling thread, and :meth:`handle_batch` is a
        :meth:`handle` loop.  Scout calls are CPU-bound Python, so
        threads at either level cost more CPU than they overlapped.
    scout_deadline:
        Per-Scout wall-clock budget in seconds (measured on ``clock``).
        A call that finishes over budget is recorded as a ``timeout``
        and its answer degrades to an abstain — a stalled Scout cannot
        poison the composition.  None disables the deadline.
    breaker:
        Circuit-breaker policy applied per Scout (None disables
        breakers).  After ``failure_threshold`` consecutive
        errors/timeouts the Scout is skipped outright until a cool-down
        elapses, then probed half-open.
    retry:
        When set, threaded to each registered :class:`Scout` (via its
        ``retry_policy`` attribute) so transient monitoring-pull
        failures inside ``predict`` retry with deterministic backoff.
    obs:
        The observability sink (metrics registry + tracer).  Defaults
        to a fresh :class:`~repro.obs.Observability` on the manager's
        ``clock``, so instrumentation is always on and — under a fake
        clock — bit-exact.
    """

    def __init__(
        self,
        registry: TeamRegistry,
        suggestion_mode: bool = True,
        confidence_floor: float = 0.5,
        clock=time.perf_counter,
        n_jobs: int | None = 1,
        scout_deadline: float | None = None,
        breaker: BreakerPolicy | None = BreakerPolicy(),
        retry: RetryPolicy | None = None,
        batch_workers: int | None = 1,
        obs: Observability | None = None,
    ) -> None:
        self.registry = registry
        self.suggestion_mode = suggestion_mode
        self.scout_deadline = scout_deadline
        self.breaker_policy = breaker
        self.retry_policy = retry
        self.obs = obs if obs is not None else Observability(clock=clock)
        self._master = ScoutMaster(registry, confidence_floor=confidence_floor)
        self._scouts: dict[str, Scout] = {}
        # Shadow candidates run side-by-side on live traffic without
        # touching routing; their comparisons land in _shadow_log when
        # the incident is accounted, in arrival order.
        self._shadows: dict[str, Scout] = {}
        self._shadow_log: list[ShadowObservation] = []
        # Per-team model epoch: 1 at register, bumped by swap().  The
        # stamp every decision carries, so an auditor can tell which
        # model generation answered.
        self._epochs: dict[str, int] = {}
        self._stats: dict[str, ScoutServiceStats] = {}
        self._monitors: dict[str, DriftMonitor] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_seen: dict[str, str] = {}
        self._decisions = _DecisionLog()
        self._log: list[ServingDecision] = []
        # incident_id -> position in _log of its latest decision, set
        # with the decision, and -> the position its last resolution
        # scored.  A resolution settles every earlier decision, so the
        # unresolved ones are always a suffix and resolve() is O(1).
        self._latest: dict[int, int] = {}
        self._scored: dict[int, int] = {}
        self._clock = clock
        # Serializes an incident's accounting (stats, metrics, log
        # append) against swap() and unregister() on another thread,
        # so neither ever sees it half done.
        self._commit_lock = RankedLock("commit lock", _COMMIT_RANK)
        # One lock per registered Scout, held across its predict():
        # swap() and unregister() wait on it, so a call in flight
        # finishes on the model it started with.
        self._team_locks: dict[str, RankedLock] = {}
        metrics = self.obs.metrics
        self._m_calls = metrics.counter(catalog.SCOUT_CALLS_TOTAL)
        self._m_latency = metrics.histogram(catalog.SCOUT_CALL_LATENCY_SECONDS)
        self._m_incidents = metrics.counter(catalog.SERVING_INCIDENTS_TOTAL)
        self._m_suggestions = metrics.counter(
            catalog.SERVING_SUGGESTIONS_TOTAL
        )
        self._m_model_abstains = metrics.counter(
            catalog.SERVING_MODEL_ABSTAINS_TOTAL
        )
        self._m_degraded = metrics.counter(
            catalog.SERVING_DEGRADED_INCIDENTS_TOTAL
        )
        self._m_handle_latency = metrics.histogram(
            catalog.SERVING_HANDLE_LATENCY_SECONDS
        )
        self._m_transitions = metrics.counter(
            catalog.SCOUT_BREAKER_TRANSITIONS_TOTAL
        )
        self._m_breaker_state = metrics.gauge(catalog.SCOUT_BREAKER_STATE)
        self._m_model_epoch = metrics.gauge(catalog.SCOUT_MODEL_EPOCH)
        self._m_swaps = metrics.counter(catalog.SCOUT_SWAPS_TOTAL)
        self._m_shadow_calls = metrics.counter(
            catalog.SCOUT_SHADOW_CALLS_TOTAL
        )
        self._m_shadow_diffs = metrics.counter(
            catalog.SCOUT_SHADOW_DIFFS_TOTAL
        )
        self._m_shadow_latency = metrics.histogram(
            catalog.SCOUT_SHADOW_LATENCY_SECONDS
        )

    # -- registration ------------------------------------------------------

    def register(self, scout: Scout, *, lint: bool = False) -> None:
        """Register a team's Scout as its gate-keeper.

        ``lint=True`` runs the config analyzer against the Scout's own
        monitoring store before registration and raises
        :class:`~repro.lint.LintError` on any ERROR finding, so a
        misconfigured Scout never goes live.
        """
        if scout.team not in self.registry:
            raise ValueError(f"unknown team: {scout.team!r}")
        if scout.team in self._scouts:
            raise ValueError(
                f"{scout.team} already has a registered Scout "
                "(use swap() to replace it without a serving gap)"
            )
        if lint:
            self._lint_preflight(scout)
        self._prepare_scout(scout)
        self._scouts[scout.team] = scout
        self._team_locks[scout.team] = RankedLock(
            f"{scout.team} team lock", _TEAM_RANK
        )
        self._epochs[scout.team] = 1
        self._m_model_epoch.set(1, team=scout.team)
        self._stats[scout.team] = ScoutServiceStats(team=scout.team)
        self._monitors[scout.team] = DriftMonitor()
        if self.breaker_policy is not None:
            self._breakers[scout.team] = CircuitBreaker(
                self.breaker_policy, clock=self._clock
            )
            self._breaker_seen[scout.team] = BreakerState.CLOSED.value
            self._m_breaker_state.set(0, team=scout.team)

    def _lint_preflight(self, scout: Scout) -> None:
        from ..lint import lint_config, require_clean

        store = getattr(getattr(scout, "builder", None), "store", None)
        require_clean(lint_config(scout.config, store))

    def _prepare_scout(self, scout: Scout) -> None:
        """Thread the manager's serving policies into one Scout.

        Shared by :meth:`register`, :meth:`swap`, and
        :meth:`register_shadow` so a replacement or shadow model serves
        under exactly the policies the original did.  The policies
        belong to the manager that registered the Scout last, unless
        the Scout brought its own (:func:`_thread`).
        """
        _thread(scout, "retry_policy", self.retry_policy)
        _thread(scout, "obs", self.obs)
        builder = getattr(scout, "builder", None)
        if builder is not None:
            _thread(builder, "obs", self.obs)
            # Start from empty memos, so this manager's pull and hit
            # counters depend only on the incidents it serves.
            builder.clear_cache()

    def swap(self, scout: Scout, *, lint: bool = False) -> int:
        """Hot-swap a team's Scout with zero serving downtime.

        The replacement is epoch-stamped: the swap waits on the team's
        own lock, so a call already in ``predict`` finishes on the old
        model (its decision carries the old epoch), while every call
        acquiring the lock afterwards sees the new one.  Nothing is
        shed and no fan-out ever observes a missing team — the
        replacement is a single reference assignment under the locks
        the serving path already takes.

        Serving stats and breaker-transition history continue across
        the swap (they describe the *service*); the drift monitor and
        the breaker's consecutive-failure count reset (they describe
        the *model*).  Returns the new epoch, visible as
        ``scout_model_epoch`` and on every subsequent decision's
        ``model_epochs`` stamp.
        """
        team = scout.team
        if team not in self._scouts:
            raise ValueError(
                f"no registered Scout for {team!r}; swap() replaces a "
                "live model — use register() first"
            )
        if lint:
            self._lint_preflight(scout)
        team_lock = self._team_locks[team]
        # The one team-then-commit order the lock ranks allow (the
        # serving path never holds both), so a swap can land
        # mid-incident without deadlocking or tearing half-done
        # accounting.
        with team_lock:
            # Under the team lock: the replacement may share a builder
            # with the model in flight, whose memos must not clear
            # under it.
            self._prepare_scout(scout)
            with self._commit_lock:
                self._scouts[team] = scout
                epoch = self._epochs.get(team, 1) + 1
                self._epochs[team] = epoch
                self._monitors[team] = DriftMonitor()
                if self.breaker_policy is not None:
                    self._breakers[team] = CircuitBreaker(
                        self.breaker_policy, clock=self._clock
                    )
                self._m_model_epoch.set(epoch, team=team)
                self._m_swaps.inc(1, team=team)
        return epoch

    # -- shadow serving ----------------------------------------------------

    def register_shadow(self, scout: Scout, *, lint: bool = False) -> None:
        """Run a candidate Scout side-by-side with the team's live one.

        The shadow is called on every incident the production model is
        (after it, under the same team lock, so per-team serving stays
        single-threaded), its verdict is compared and logged, and the
        routing decision is **never** affected — shadow predictions do
        not enter composition, stats, or the primary latency metrics.
        Shadow failures are isolated exactly like production failures.

        See :func:`repro.analysis.shadow_report` for turning the
        accumulated :attr:`shadow_log` into a promotion report, and
        :meth:`promote_shadow` for the swap that concludes a successful
        evaluation.
        """
        team = scout.team
        if team not in self._scouts:
            raise ValueError(
                f"no registered Scout for {team!r}; a shadow needs a "
                "production model to be compared against"
            )
        if lint:
            self._lint_preflight(scout)
        with self._team_locks[team]:
            self._prepare_scout(scout)
            self._shadows[team] = scout

    def unregister_shadow(self, team: str) -> None:
        """Stop shadowing ``team`` (accumulated observations remain)."""
        team_lock = self._team_locks.get(team)
        if team_lock is None:
            self._shadows.pop(team, None)
        else:
            with team_lock:
                self._shadows.pop(team, None)

    def promote_shadow(self, team: str) -> int:
        """Swap ``team``'s shadow candidate into production.

        The concluding step of a shadow evaluation: the candidate stops
        shadowing and replaces the live model via :meth:`swap` (new
        epoch, drift/breaker reset, zero downtime).  Returns the new
        epoch.
        """
        shadow = self._shadows.get(team)
        if shadow is None:
            raise ValueError(f"no shadow registered for {team!r}")
        with self._team_locks[team]:
            self._shadows.pop(team, None)
        return self.swap(shadow)

    @property
    def shadow_teams(self) -> list[str]:
        return sorted(self._shadows)

    @property
    def shadow_log(self) -> list[ShadowObservation]:
        """Every shadow comparison, in commit (arrival) order."""
        return list(self._shadow_log)

    def model_epoch(self, team: str) -> int:
        """The serving model generation for ``team`` (1 = original)."""
        epoch = self._epochs.get(team)
        if epoch is None:
            raise KeyError(f"no registered Scout for {team!r}")
        return epoch

    def unregister(self, team: str) -> None:
        """Remove a team's Scout and all of its serving state.

        Stats, drift history, and breaker state go with the Scout: a
        later ``register`` for the same team starts from a clean slate
        explicitly rather than serving stale counters for a gate-keeper
        that no longer exists.

        Safe against serving on another thread: teardown waits on the
        team's own lock (so no Scout call is mid-``predict``) and the
        commit lock (so no incident is mid-accounting) before popping
        state.  An incident that called the team *before* the
        unregister may still be accounted afterwards; :meth:`_account`
        treats the vanished team's stats as gone rather than
        KeyErroring, and :meth:`_invoke_scout` degrades a call to a
        removed Scout to an ERROR abstain — exactly how a crashed Scout
        is handled.
        """
        team_lock = self._team_locks.get(team)
        if team_lock is None:
            # Never registered (or already unregistered): nothing can
            # be in flight for it, plain pops are safe.
            self._scouts.pop(team, None)
            self._shadows.pop(team, None)
            self._epochs.pop(team, None)
            self._stats.pop(team, None)
            self._monitors.pop(team, None)
            self._breakers.pop(team, None)
            self._breaker_seen.pop(team, None)
            return
        # The serving path never holds both locks: _account holds only
        # the commit lock and _invoke_scout only the team lock, and the
        # lock ranks allow only team-then-commit, so this cannot
        # deadlock.
        with team_lock:
            with self._commit_lock:
                self._scouts.pop(team, None)
                self._shadows.pop(team, None)
                self._epochs.pop(team, None)
                self._stats.pop(team, None)
                self._monitors.pop(team, None)
                self._breakers.pop(team, None)
                self._breaker_seen.pop(team, None)
                self._team_locks.pop(team, None)

    @property
    def registered_teams(self) -> list[str]:
        return sorted(self._scouts)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """A no-op, kept for callers that close the manager.

        The manager owns no threads: :meth:`handle_batch` serves on the
        calling thread, so there is nothing to shut down.
        """

    def __enter__(self) -> "IncidentManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- serving -----------------------------------------------------------------

    _BREAKER_STATE_LEVELS = {
        BreakerState.CLOSED.value: 0,
        BreakerState.HALF_OPEN.value: 1,
        BreakerState.OPEN.value: 2,
    }

    def _note_breaker(self, team: str, state: BreakerState) -> None:
        """Emit a transition event when a breaker's state changes.

        Called before each call (where an elapsed cool-down reads as
        HALF_OPEN — the only chance to observe the probe state) and
        after it (catching trips and re-closes), so the metrics stream
        sees the full CLOSED→OPEN→HALF_OPEN→CLOSED cycle even though a
        stats snapshot only ever shows the latest state.
        """
        last = self._breaker_seen.get(team, BreakerState.CLOSED.value)
        if state.value == last:
            return
        self._breaker_seen[team] = state.value
        self._m_transitions.inc(
            1, team=team, from_state=last, to_state=state.value
        )
        self._m_breaker_state.set(
            self._BREAKER_STATE_LEVELS[state.value], team=team
        )

    def _call_one(self, incident: Incident, team: str) -> _CallResult:
        """One failure-isolated, traced Scout call: never raises."""
        breaker = self._breakers.get(team)
        if breaker is not None:
            self._note_breaker(team, breaker.state)
        with self.obs.trace.span("scout.call", team=team) as span:
            result = self._invoke_scout(incident, team, breaker)
            span.attributes["status"] = result.outcome.status.value
        if breaker is not None:
            self._note_breaker(team, breaker.state)
        return result

    def _invoke_scout(
        self, incident: Incident, team: str, breaker: CircuitBreaker | None
    ) -> _CallResult:
        # The team lock is what swap() and unregister() wait on, and it
        # keeps a Scout's builder memos and breaker (neither is locked
        # internally) single-threaded if handle() runs on several
        # threads.
        team_lock = self._team_locks.get(team)
        if team_lock is None:
            # The team was unregistered between fan-out and this call;
            # degrade like any other failed call instead of KeyErroring
            # the whole incident.
            return self._unregistered_outcome(incident, team)
        with team_lock:
            return self._invoke_scout_locked(incident, team, breaker)

    def _unregistered_outcome(
        self, incident: Incident, team: str
    ) -> _CallResult:
        """The abstain a call to a torn-down team degrades to."""
        prediction = _abstain(
            incident.incident_id, f"{team} scout unregistered mid-flight"
        )
        # The call reached serving (unlike a breaker skip) but did no
        # Scout work: a measured-but-zero-cost ERROR, so _account's
        # latency accounting stays uniform across ERROR outcomes.
        outcome = ScoutCallOutcome(
            team, CallStatus.ERROR, 0.0, error="scout unregistered mid-flight"
        )
        # Epoch 0: no model generation served this call.
        return _CallResult(team, prediction, outcome, epoch=0)

    def _invoke_scout_locked(
        self, incident: Incident, team: str, breaker: CircuitBreaker | None
    ) -> _CallResult:
        # Captured under the team lock: a swap() waiting on this lock
        # has not happened yet as far as this call is concerned, so the
        # decision record truthfully stamps the generation that served.
        epoch = self._epochs.get(team, 0)
        if breaker is not None and not breaker.allow():
            prediction = _abstain(
                incident.incident_id, f"{team} circuit breaker open"
            )
            # A skipped Scout has no latency: None, not a fake 0.0.
            outcome = ScoutCallOutcome(team, CallStatus.BREAKER_OPEN, None)
            return _CallResult(team, prediction, outcome, epoch)
        scout = self._scouts.get(team)
        if scout is None:
            # Unregistered after the lock object was fetched but before
            # we acquired it — the same degradation as the lockless race.
            return self._unregistered_outcome(incident, team)
        start = self._clock()
        try:
            prediction = scout.predict(incident)
        except Exception as exc:  # noqa: BLE001 — the isolation boundary
            elapsed = self._clock() - start
            if breaker is not None:
                breaker.record_failure()
            prediction = _abstain(
                incident.incident_id, f"{team} scout error: {exc}"
            )
            outcome = ScoutCallOutcome(
                team,
                CallStatus.ERROR,
                elapsed,
                error=f"{type(exc).__name__}: {exc}",
            )
            return self._with_shadow(
                incident, _CallResult(team, prediction, outcome, epoch)
            )
        elapsed = self._clock() - start
        if self.scout_deadline is not None and elapsed > self.scout_deadline:
            # Cooperative deadline: the answer arrived too late to be
            # trusted inside the fan-out budget, so it degrades to an
            # abstain (and counts against the breaker).
            if breaker is not None:
                breaker.record_failure()
            prediction = _abstain(
                incident.incident_id,
                f"{team} deadline overrun ({elapsed:.3f}s"
                f" > {self.scout_deadline:.3f}s)",
            )
            outcome = ScoutCallOutcome(
                team,
                CallStatus.TIMEOUT,
                elapsed,
                error=f"exceeded {self.scout_deadline:.3f}s deadline",
            )
            return self._with_shadow(
                incident, _CallResult(team, prediction, outcome, epoch)
            )
        if breaker is not None:
            breaker.record_success()
        return self._with_shadow(
            incident,
            _CallResult(
                team,
                prediction,
                ScoutCallOutcome(team, CallStatus.OK, elapsed),
                epoch,
            ),
        )

    def _with_shadow(
        self, incident: Incident, result: _CallResult
    ) -> _CallResult:
        """Run the team's shadow candidate (if any) on the same incident.

        Called under the team lock, *after* the primary: the shadow
        sees exactly the incidents the production model served (a
        breaker-open skip shadows nothing — the primary did no work
        either), its latency is measured separately, and any exception
        or deadline overrun is recorded on the observation without
        touching the primary's result.  The observation rides on the
        call's result and is logged by :meth:`_account`, in arrival
        order.
        """
        shadow = self._shadows.get(result.team)
        if shadow is None:
            return result
        incident_id = incident.incident_id
        start = self._clock()
        error = None
        shadow_prediction = None
        try:
            shadow_prediction = shadow.predict(incident)
            status = CallStatus.OK
        except Exception as exc:  # noqa: BLE001 — same isolation boundary
            status = CallStatus.ERROR
            error = f"{type(exc).__name__}: {exc}"
        elapsed = self._clock() - start
        if (
            status is CallStatus.OK
            and self.scout_deadline is not None
            and elapsed > self.scout_deadline
        ):
            status = CallStatus.TIMEOUT
            error = f"exceeded {self.scout_deadline:.3f}s deadline"
        primary = result.prediction
        result.shadow = ShadowObservation(
            incident_id=incident_id,
            team=result.team,
            primary_epoch=result.epoch,
            primary_status=result.outcome.status,
            primary_responsible=primary.responsible,
            primary_confidence=primary.confidence,
            primary_route=_route_name(primary),
            shadow_status=status,
            shadow_responsible=(
                shadow_prediction.responsible
                if status is CallStatus.OK
                else None
            ),
            shadow_confidence=(
                shadow_prediction.confidence
                if status is CallStatus.OK
                else 0.0
            ),
            shadow_route=(
                _route_name(shadow_prediction)
                if status is CallStatus.OK
                else None
            ),
            shadow_latency_seconds=elapsed,
            shadow_error=error,
        )
        return result

    def handle(self, incident: Incident) -> ServingDecision:
        """Fan an incident out to every registered Scout and compose.

        The Scouts are called one after another, in sorted team order,
        on the calling thread: their feature builds are CPU-bound
        Python, so threads cost more CPU than they overlapped.
        Failures never propagate: each call is isolated by
        :meth:`_call_one`, which also checks the deadline once the call
        returns.
        """
        with self.obs.trace.span(
            "serve.handle", incident_id=incident.incident_id
        ) as root:
            started = self._clock()
            results = [
                self._call_one(incident, team) for team in sorted(self._scouts)
            ]
            answers = tuple(
                ScoutAnswer(
                    r.team, r.prediction.responsible, r.prediction.confidence
                )
                for r in results
            )
            compose_started = self._clock()
            with self.obs.trace.span("serve.compose"):
                suggested = self._master.route(answers)
            compose_seconds = self._clock() - compose_started
            root.attributes["suggested_team"] = suggested
            decision = self._account(
                incident.incident_id,
                results,
                suggested,
                latency=self._clock() - started,
                compose=compose_seconds,
                trace_id=root.trace_id,
            )
        return decision

    def _account(
        self,
        incident_id: int,
        results: list[_CallResult],
        suggested: str | None,
        latency: float,
        compose: float,
        trace_id: str | None,
    ) -> ServingDecision:
        """Record one served incident: stats, metrics, logs.

        Runs under the commit lock, so a :meth:`swap` or
        :meth:`unregister` on another thread sees an incident either
        wholly accounted or not at all.  Returns the logged decision.
        """
        with self._commit_lock:
            degraded = False
            for result in results:
                team = result.team
                prediction = result.prediction
                outcome = result.outcome
                degraded = degraded or not outcome.ok
                # None when the team was unregistered after its call:
                # its stats object left with it, but the metric stream
                # and the decision record still see the call.
                stats = self._stats.get(team)
                if stats is None:
                    stats = ScoutServiceStats(team=team)
                stats.calls += 1
                self._m_calls.inc(1, team=team, status=outcome.status.value)
                # Latency accounting, explicit per status: OK, ERROR and
                # TIMEOUT all reached the Scout and carry a measured
                # latency; a BREAKER_OPEN skip never invoked it and
                # carries None.  The stats totals and the latency
                # histogram count exactly the same outcomes, so
                # `mean_latency`, histogram count/sum, and `invoked`
                # can never drift apart.
                if outcome.status is CallStatus.BREAKER_OPEN:
                    stats.breaker_open_skips += 1
                elif outcome.status is CallStatus.ERROR:
                    stats.errors += 1
                    stats.total_latency += outcome.latency_seconds
                elif outcome.status is CallStatus.TIMEOUT:
                    stats.timeouts += 1
                    stats.total_latency += outcome.latency_seconds
                else:
                    stats.total_latency += outcome.latency_seconds
                if outcome.latency_seconds is not None:
                    self._m_latency.observe(outcome.latency_seconds, team=team)
                if prediction.responsible is None:
                    stats.abstained += 1
                    if outcome.ok:
                        self._m_model_abstains.inc(1, team=team)
                elif prediction.responsible:
                    stats.said_yes += 1
                else:
                    stats.said_no += 1
                breaker = self._breakers.get(team)
                if breaker is not None:
                    stats.breaker_state = breaker.state.value
                obs = result.shadow
                if obs is not None:
                    self._shadow_log.append(obs)
                    self._m_shadow_calls.inc(
                        1, team=team, status=obs.shadow_status.value
                    )
                    self._m_shadow_latency.observe(
                        obs.shadow_latency_seconds, team=team
                    )
                    if obs.diff:
                        self._m_shadow_diffs.inc(1, team=team)
            self._m_incidents.inc()
            if suggested is not None:
                self._m_suggestions.inc()
            if degraded:
                self._m_degraded.inc()
            self._m_handle_latency.observe(latency)
            index = self._decisions.append(
                incident_id,
                suggested,
                results,
                latency,
                compose,
                not self.suggestion_mode and suggested is not None,
                trace_id,
            )
            decision = ServingDecision(self._decisions, index)
            self._log.append(decision)
            self._latest[incident_id] = index
        return decision

    def handle_batch(self, incidents: list[Incident]) -> list[ServingDecision]:
        """Serve a burst of incidents in arrival order: a :meth:`handle` loop.

        The burst is served on the calling thread, one incident after
        another, so the decisions, the audit log, the per-team stats,
        every breaker transition and the rendered exposition are those
        of the same ``handle`` calls.  There is deliberately no
        batch-level span or counter.
        """
        return [self.handle(incident) for incident in incidents]

    # -- feedback ------------------------------------------------------------------

    def resolve(self, incident_id: int, responsible_team: str) -> None:
        """Report an incident's resolution; feeds the drift monitors.

        The latest *unresolved* decision for the incident is scored and
        every decision for the incident is marked resolved — a repeated
        resolution (or a stale decision from a re-served incident) can
        never double-count drift observations.  Teams unregistered
        since the decision was served are skipped.  Raises ``KeyError``
        only if the incident was never served.

        O(1): a resolution settles every decision served before it, so
        the latest decision is unresolved exactly when it is not the one
        the incident's last resolution scored.
        """
        latest = self._latest.get(incident_id)
        if latest is None:
            raise KeyError(f"no served decision for incident {incident_id}")
        if self._scored.get(incident_id) == latest:
            return  # already resolved — idempotent
        self._scored[incident_id] = latest
        decision = self._log[latest]
        for answer in decision.answers:
            truth = answer.team == responsible_team
            if answer.responsible is None:
                continue
            monitor = self._monitors.get(answer.team)
            if monitor is None:
                continue  # unregistered since the decision was served
            monitor.record(correct=(answer.responsible == truth))

    # -- introspection ---------------------------------------------------------------

    @property
    def log(self) -> list[ServingDecision]:
        return list(self._log)

    def stats(self, team: str) -> ScoutServiceStats:
        return self._stats[team]

    def drift_monitor(self, team: str) -> DriftMonitor:
        return self._monitors[team]

    def breaker(self, team: str) -> CircuitBreaker | None:
        """The team's circuit breaker (None when breakers are disabled)."""
        if team not in self._scouts:
            raise KeyError(f"no registered Scout for {team!r}")
        return self._breakers.get(team)

    @property
    def degraded_teams(self) -> list[str]:
        """Teams whose breaker is not closed (open or half-open probe)."""
        return sorted(
            team
            for team, breaker in self._breakers.items()
            if breaker.state is not BreakerState.CLOSED
        )

    def whatif_accuracy(self, truth: dict[int, str]) -> dict[str, float]:
        """What-if analysis over the decision log.

        ``truth`` maps incident id → responsible team.  Returns the
        fraction of served incidents suggested correctly, the fraction
        that abstained, and the mis-suggestion rate.  A re-served
        incident is scored once, on its *latest* decision — the same
        dedupe semantics :meth:`resolve` guarantees — so repeats can't
        double-weight the accuracy figures.
        """
        latest: dict[int, ServingDecision] = {}
        for decision in self._log:
            latest[decision.incident_id] = decision
        suggested_right = suggested_wrong = abstained = 0
        for decision in latest.values():
            responsible = truth.get(decision.incident_id)
            if responsible is None:
                continue
            if decision.suggested_team is None:
                abstained += 1
            elif decision.suggested_team == responsible:
                suggested_right += 1
            else:
                suggested_wrong += 1
        total = suggested_right + suggested_wrong + abstained
        if total == 0:
            return {"correct": 0.0, "wrong": 0.0, "abstained": 0.0}
        return {
            "correct": suggested_right / total,
            "wrong": suggested_wrong / total,
            "abstained": abstained / total,
        }
