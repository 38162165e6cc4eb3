"""Streaming ingestion: sustained traffic, admission control, SLOs.

:class:`~.manager.IncidentManager.handle_batch` is a one-shot burst
API; production incident traffic is an unbounded stream (the regime
DeepTriage serves at Azure scale and TSGuard assumes for always-on
diagnosis).  :class:`StreamServer` is the long-lived front end over an
:class:`~.manager.IncidentManager`:

* **Bounded admission queue with backpressure.**  At most ``queue_cap``
  incidents wait for a Scout fan-out; the queue depth is the
  backpressure signal (exported as ``stream_queue_depth``) and an
  arrival that cannot be queued is *shed* immediately — it degrades to
  the legacy routing process instead of queuing forever.
* **Severity-based priority scheduling.**  The queue drains
  highest-severity-first (FIFO within a severity class); when the
  queue is full, a high-severity arrival evicts the newest
  lowest-severity waiter rather than being dropped itself — "all teams
  are involved in resolving the highest severity incidents" (§3.1), so
  those are the last decisions a Scout should skip.
* **Load shedding with a fast-path split.**  A shed incident is not
  silently lost: under :attr:`ShedPolicy.LEGACY` it falls back to the
  legacy router (no Scout work at all); under :attr:`ShedPolicy.TRIAGE`
  it takes the cheap *selector-only* fast path — component extraction
  plus EXCLUDE/scoping rules per registered Scout, no monitoring pulls,
  no model inference — the deterministic ~regex-cost path of the
  fast-path/smart-path split (SNIPPETS.md Snippet 2), which can still
  rule teams out and, when exactly one candidate survives, suggest it.
* **Per-stage p99 SLO budgets.**  :class:`SLOTracker` reads the
  *existing* obs histograms (``serving_handle_latency_seconds``,
  ``scout_call_latency_seconds``, and the new
  ``stream_queue_wait_seconds``) and computes **interval** p99s by
  diffing cumulative bucket counts between checks — a cumulative
  histogram's p99 never recovers, an interval one does.  A budget
  violation increments ``stream_slo_violations_total{stage=...}`` and
  flips the server into *degraded mode*, where sub-``HIGH`` arrivals
  are shed at admission until a clean check lets the backlog drain.

Everything is deterministic under an injectable
:class:`~repro.monitoring.faults.FakeClock`: the same seed and the same
arrival trace produce a byte-identical decision log, shed set, and
Prometheus exposition — the contract every prior subsystem honors.
Service time on a fake clock comes from whatever advances it (injected
monitoring latency via :class:`~repro.monitoring.faults.FaultyStore`,
or the explicit ``service_time`` floor).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..incidents.incident import Incident, Severity
from ..obs import catalog
from ..obs.metrics import bucket_quantile
from .manager import IncidentManager, ServingDecision

__all__ = [
    "ShedPolicy",
    "StreamStatus",
    "StreamOutcome",
    "SLOViolation",
    "SLOTracker",
    "StreamServer",
    "poisson_arrivals",
]


class ShedPolicy(str, Enum):
    """What happens to an incident the stream cannot afford to serve."""

    LEGACY = "legacy"  # fall back to the legacy router: no Scout work
    TRIAGE = "triage"  # selector-only fast path: extract + exclude rules


class StreamStatus(str, Enum):
    """How one streamed incident left the server."""

    SERVED = "served"
    SHED_LEGACY = "shed_legacy"
    SHED_TRIAGE = "shed_triage"


@dataclass(frozen=True)
class StreamOutcome:
    """One streamed incident's fate.

    ``decision`` is the manager's full :class:`ServingDecision` for
    served incidents and None for shed ones; ``triage_routes`` is the
    per-team selector verdict of the triage fast path (empty unless the
    incident was shed under :attr:`ShedPolicy.TRIAGE`).
    """

    incident_id: int
    status: StreamStatus
    severity: Severity
    submitted_at: float
    finished_at: float
    suggested_team: str | None = None
    queue_wait: float | None = None
    shed_reason: str | None = None
    decision: ServingDecision | None = None
    triage_routes: tuple[tuple[str, str], ...] = ()

    @property
    def shed(self) -> bool:
        return self.status is not StreamStatus.SERVED


@dataclass(frozen=True)
class SLOViolation:
    """One stage's interval p99 blowing its budget.

    ``saturated`` marks an interval whose p99 rank landed beyond the
    histogram's largest finite bucket: ``p99`` is then a *floor* (the
    top finite bound), and the violation stands no matter how the floor
    compares to the budget — an unresolvable p99 can never be declared
    within budget.
    """

    stage: str
    p99: float
    budget: float
    samples: int
    saturated: bool = False


# SLO stages resolve to histogram families the pipeline already emits;
# "queue" is the stream server's own wait histogram.
_STAGE_HISTOGRAMS = {
    "handle": catalog.SERVING_HANDLE_LATENCY_SECONDS,
    "scout": catalog.SCOUT_CALL_LATENCY_SECONDS,
    "queue": catalog.STREAM_QUEUE_WAIT_SECONDS,
}


class SLOTracker:
    """Interval-p99 budget enforcement over the existing histograms.

    Budgets map a stage name (``handle``, ``scout``, ``queue``) to a
    p99 latency budget in seconds.  Each :meth:`check` aggregates the
    stage histogram's bucket counts across label sets, diffs them
    against the previous check's snapshot, and reads the p99 of the
    *interval* with the same bucket-upper-bound rule
    :meth:`~repro.obs.metrics.Histogram.quantile` uses — a pure
    function of the recorded counts, so checks are deterministic.
    Intervals with fewer than ``min_samples`` observations return no
    verdict (an almost-empty window would let one outlier flap the
    degraded mode).
    """

    def __init__(self, metrics, budgets: dict[str, float], min_samples: int = 8) -> None:
        unknown = sorted(set(budgets) - set(_STAGE_HISTOGRAMS))
        if unknown:
            raise ValueError(
                f"unknown SLO stage(s) {unknown}; "
                f"known: {sorted(_STAGE_HISTOGRAMS)}"
            )
        for stage, budget in budgets.items():
            if budget <= 0:
                raise ValueError(f"SLO budget for {stage!r} must be > 0")
        self.metrics = metrics
        self.budgets = dict(budgets)
        self.min_samples = min_samples
        self._snapshots: dict[str, tuple[list[int], int]] = {}
        self._m_violations = metrics.counter(
            catalog.STREAM_SLO_VIOLATIONS_TOTAL
        )
        self._m_p99 = metrics.gauge(catalog.STREAM_SLO_P99_SECONDS)

    def _aggregate(self, family) -> tuple[list[int], int]:
        """Bucket counts + total count summed across a family's series."""
        counts = [0] * len(family.buckets)
        total = 0
        for _, series in family.samples():
            for i, c in enumerate(series.bucket_counts):
                counts[i] += c
            total += series.count
        return counts, total

    def check(self) -> list[SLOViolation]:
        """Compare each budgeted stage's interval p99 to its budget."""
        violations: list[SLOViolation] = []
        for stage in sorted(self.budgets):
            family = self.metrics.get(_STAGE_HISTOGRAMS[stage].name)
            if family is None:
                continue
            counts, total = self._aggregate(family)
            prev_counts, prev_total = self._snapshots.get(
                stage, ([0] * len(counts), 0)
            )
            interval = [c - p for c, p in zip(counts, prev_counts)]
            samples = total - prev_total
            if samples < self.min_samples:
                # Too thin to judge — leave the snapshot where it was,
                # so a slow trickle accumulates into the next check
                # instead of never being judged at all.
                continue
            self._snapshots[stage] = (counts, total)
            readout = bucket_quantile(family.buckets, interval, samples, 0.99)
            p99 = readout.value
            self._m_p99.set(p99, stage=stage)
            budget = self.budgets[stage]
            if readout.saturated or p99 > budget:
                # A saturated read-out violates unconditionally: the
                # true p99 is somewhere above the top finite bucket, so
                # "p99 == budget" must not pass as within-budget.
                self._m_violations.inc(1, stage=stage)
                violations.append(
                    SLOViolation(
                        stage, p99, budget, samples,
                        saturated=readout.saturated,
                    )
                )
        return violations


@dataclass
class _Waiter:
    """One queued incident (admission ordinal breaks severity ties)."""

    seq: int
    incident: Incident
    enqueued_at: float
    submitted_at: float


def poisson_arrivals(
    n: int, rate: float, seed: int = 0, start: float = 0.0
) -> np.ndarray:
    """Deterministic open-loop Poisson arrival offsets (seconds).

    ``rate`` is incidents/second; offsets are a seeded exponential
    inter-arrival cumsum from ``start`` — the standard open-loop
    arrival process, bit-reproducible for a given ``(n, rate, seed)``.
    """
    if rate <= 0:
        raise ValueError("arrival rate must be > 0")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=n)
    return start + np.cumsum(gaps)


class StreamServer:
    """A queue-driven, SLO-enforcing ingestion tier over one manager.

    Parameters
    ----------
    manager:
        The :class:`IncidentManager` that serves admitted incidents
        (one at a time, on the caller's thread — the stream is the
        concurrency control, not a second thread pool).
    queue_cap:
        Maximum incidents waiting for a fan-out.  The full queue is
        the backpressure boundary: further arrivals shed.
    shed_policy:
        What a shed incident degrades to (see :class:`ShedPolicy`).
    slo:
        Optional ``{stage: p99_budget_seconds}`` map (stages:
        ``handle``, ``scout``, ``queue``) enforced by an
        :class:`SLOTracker` every ``slo_check_interval`` served
        incidents.  While any stage is in violation the server runs
        *degraded*: arrivals below ``degrade_floor`` shed at admission.
    clock:
        Time source; defaults to the manager's clock so stream
        bookkeeping and serving latencies share one timeline.
    sleeper:
        How to wait for the next arrival when idle.  Defaults to
        ``clock.advance`` when the clock is advanceable (a
        :class:`~repro.monitoring.faults.FakeClock`) and
        ``time.sleep`` otherwise.
    service_time:
        Deterministic load model for fake clocks: each served incident
        occupies the server for at least this many clock-seconds (the
        clock is advanced by the shortfall after the manager returns).
        Ignored unless the clock is advanceable.
    """

    def __init__(
        self,
        manager: IncidentManager,
        queue_cap: int = 64,
        shed_policy: ShedPolicy | str = ShedPolicy.LEGACY,
        slo: dict[str, float] | None = None,
        slo_check_interval: int = 32,
        slo_min_samples: int = 8,
        degrade_floor: Severity = Severity.HIGH,
        clock=None,
        sleeper=None,
        service_time: float = 0.0,
    ) -> None:
        if queue_cap < 1:
            raise ValueError("queue_cap must be >= 1")
        if slo_check_interval < 1:
            raise ValueError("slo_check_interval must be >= 1")
        if service_time < 0:
            raise ValueError("service_time must be >= 0")
        self.manager = manager
        self.queue_cap = queue_cap
        self.shed_policy = ShedPolicy(shed_policy)
        self.slo_check_interval = slo_check_interval
        self.degrade_floor = degrade_floor
        self.service_time = service_time
        self._clock = clock if clock is not None else manager._clock
        advance = getattr(self._clock, "advance", None)
        self._advance = advance  # None on a real clock
        if sleeper is not None:
            self._sleeper = sleeper
        elif advance is not None:
            self._sleeper = advance
        else:
            self._sleeper = time.sleep
        self.obs = manager.obs
        # Per-severity FIFO lanes: drain highest first, evict from the
        # newest end of the lowest.  Lanes exist up-front so the queue
        # logic never depends on which severities happened to arrive.
        self._lanes: dict[int, deque[_Waiter]] = {
            int(sev): deque() for sev in Severity
        }
        self._depth = 0
        self._seq = 0
        self._served = 0
        self._degraded = False
        # Deterministic control plane: (after_served, insertion seq,
        # action) triples fired between serves — see schedule().
        self._scheduled: list[tuple[int, int, object]] = []
        self._sched_seq = 0
        self.outcomes: list[StreamOutcome] = []
        self.tracker = (
            SLOTracker(self.obs.metrics, slo, min_samples=slo_min_samples)
            if slo
            else None
        )
        metrics = self.obs.metrics
        self._m_submitted = metrics.counter(catalog.STREAM_SUBMITTED_TOTAL)
        self._m_admitted = metrics.counter(catalog.STREAM_ADMITTED_TOTAL)
        self._m_served = metrics.counter(catalog.STREAM_SERVED_TOTAL)
        self._m_shed = metrics.counter(catalog.STREAM_SHED_TOTAL)
        self._m_triage = metrics.counter(
            catalog.STREAM_TRIAGE_SUGGESTIONS_TOTAL
        )
        self._m_depth = metrics.gauge(catalog.STREAM_QUEUE_DEPTH)
        self._m_wait = metrics.histogram(catalog.STREAM_QUEUE_WAIT_SECONDS)

    # -- introspection -----------------------------------------------------

    @property
    def depth(self) -> int:
        """Current queue depth (the backpressure signal)."""
        return self._depth

    @property
    def degraded(self) -> bool:
        """Is the server shedding proactively after an SLO violation?"""
        return self._degraded

    @property
    def shed_outcomes(self) -> list[StreamOutcome]:
        """The shed set, in shed order."""
        return [o for o in self.outcomes if o.shed]

    def summary(self) -> dict:
        """Plain-data roll-up of the stream counters."""
        submitted = self._m_submitted.total()
        shed = self._m_shed.total()
        return {
            "submitted": int(submitted),
            "served": self._served,
            "shed": int(shed),
            "shed_rate": (shed / submitted) if submitted else 0.0,
            "queue_depth": self._depth,
            "degraded": self._degraded,
        }

    # -- admission ---------------------------------------------------------

    @staticmethod
    def _sev_label(severity: Severity) -> str:
        return severity.name.lower()

    def submit(self, incident: Incident) -> StreamOutcome | None:
        """Offer one arrival; returns the shed outcome or None if queued.

        Admission control runs at the current clock time: a degraded
        server sheds sub-``degrade_floor`` severities outright; a full
        queue sheds the arrival unless it outranks the newest waiter of
        the lowest queued severity, in which case that waiter is
        evicted (and shed) instead.
        """
        severity = incident.severity
        self._m_submitted.inc(1, severity=self._sev_label(severity))
        now = self._clock()
        if self._degraded and severity < self.degrade_floor:
            return self._shed(incident, now, "slo_degraded")
        if self._depth >= self.queue_cap:
            victim = self._evictable(severity)
            if victim is None:
                return self._shed(incident, now, "queue_full")
            self.outcomes.append(
                self._shed(victim.incident, now, "queue_full",
                           submitted_at=victim.submitted_at)
            )
        self._seq += 1
        lane = self._lanes[int(severity)]
        lane.append(_Waiter(self._seq, incident, now, now))
        self._depth += 1
        self._m_admitted.inc(1, severity=self._sev_label(severity))
        self._m_depth.set(self._depth)
        return None

    def _evictable(self, severity: Severity) -> _Waiter | None:
        """Pop the newest waiter of the lowest queued severity class —
        but only when the arrival strictly outranks it."""
        for sev in sorted(self._lanes):
            lane = self._lanes[sev]
            if lane and sev < int(severity):
                self._depth -= 1
                self._m_depth.set(self._depth)
                return lane.pop()
        return None

    # -- shedding ----------------------------------------------------------

    def _shed(
        self,
        incident: Incident,
        now: float,
        reason: str,
        submitted_at: float | None = None,
    ) -> StreamOutcome:
        self._m_shed.inc(
            1, reason=reason, severity=self._sev_label(incident.severity)
        )
        with self.obs.trace.span(
            "stream.shed",
            incident_id=incident.incident_id,
            reason=reason,
            mode=self.shed_policy.value,
        ):
            if self.shed_policy is ShedPolicy.TRIAGE:
                suggested, routes = self._triage(incident)
                status = StreamStatus.SHED_TRIAGE
            else:
                suggested, routes = None, ()
                status = StreamStatus.SHED_LEGACY
        if suggested is not None:
            self._m_triage.inc()
        return StreamOutcome(
            incident_id=incident.incident_id,
            status=status,
            severity=incident.severity,
            submitted_at=now if submitted_at is None else submitted_at,
            finished_at=self._clock(),
            suggested_team=suggested,
            shed_reason=reason,
            triage_routes=routes,
        )

    def _triage(
        self, incident: Incident
    ) -> tuple[str | None, tuple[tuple[str, str], ...]]:
        """The selector-only fast path: rule teams out, never pull data.

        Runs each registered Scout's component extractor and selector —
        the deterministic front half of the pipeline — and skips
        features, monitoring, and model inference entirely.  A team
        whose EXCLUDE rules match is ruled out; a team whose selector
        would have routed to a model (components found, not excluded)
        is a *candidate*.  When exactly one candidate remains and every
        other team is excluded, the fast path suggests it; anything
        less conclusive falls back to the legacy router.
        """
        routes: list[tuple[str, str]] = []
        for team in sorted(self.manager._scouts):
            scout = self.manager._scouts[team]
            extractor = getattr(scout, "extractor", None)
            selector = getattr(scout, "selector", None)
            if extractor is None or selector is None:
                routes.append((team, "unknown"))
                continue
            extracted = extractor.extract(incident.text)
            decision = selector.decide(incident.title, incident.body, extracted)
            routes.append((team, decision.route.value))
        candidates = [
            team
            for team, route in routes
            if route in ("rf", "cpd+")
        ]
        others_ruled_out = all(
            route == "excluded"
            for team, route in routes
            if team not in candidates
        )
        suggested = (
            candidates[0] if len(candidates) == 1 and others_ruled_out else None
        )
        return suggested, tuple(routes)

    # -- control plane -----------------------------------------------------

    def schedule(self, after_served: int, action) -> None:
        """Run ``action()`` once the ``after_served``-th serve commits.

        The stream's deterministic control plane: instead of a wall-time
        trigger (which would race the arrival trace), an action is keyed
        to the served-incident counter — "swap PhyNet's model in after
        the 40th decision" lands at exactly the same stream position in
        every same-seed run.  Actions fire between serves, never inside
        one, so a hot-swap scheduled here can land mid-stream without
        shedding and without tearing a fan-out: the in-flight decision
        committed before the action runs, the next one sees its effect.
        ``after_served=0`` fires before the first serve of the next
        :meth:`run`.  Actions fire in (threshold, scheduling) order and
        exceptions propagate to the caller of :meth:`process_one` /
        :meth:`run` — a failed swap should stop the stream loudly, not
        serve on silently.
        """
        if after_served < 0:
            raise ValueError("after_served must be >= 0")
        self._sched_seq += 1
        self._scheduled.append((int(after_served), self._sched_seq, action))
        self._scheduled.sort(key=lambda item: item[:2])

    def _fire_scheduled(self) -> None:
        while self._scheduled and self._scheduled[0][0] <= self._served:
            _, _, action = self._scheduled.pop(0)
            action()

    # -- serving -----------------------------------------------------------

    def _pop_best(self) -> _Waiter:
        for sev in sorted(self._lanes, reverse=True):
            lane = self._lanes[sev]
            if lane:
                self._depth -= 1
                self._m_depth.set(self._depth)
                return lane.popleft()
        raise IndexError("queue is empty")

    def process_one(self) -> StreamOutcome:
        """Serve the highest-priority waiter through the manager."""
        waiter = self._pop_best()
        started = self._clock()
        wait = started - waiter.enqueued_at
        self._m_wait.observe(wait)
        decision = self.manager.handle(waiter.incident)
        if self._advance is not None and self.service_time > 0.0:
            shortfall = self.service_time - (self._clock() - started)
            if shortfall > 0.0:
                self._advance(shortfall)
        self._served += 1
        self._m_served.inc(
            1, severity=self._sev_label(waiter.incident.severity)
        )
        outcome = StreamOutcome(
            incident_id=waiter.incident.incident_id,
            status=StreamStatus.SERVED,
            severity=waiter.incident.severity,
            submitted_at=waiter.submitted_at,
            finished_at=self._clock(),
            suggested_team=decision.suggested_team,
            queue_wait=wait,
            decision=decision,
        )
        if self.tracker is not None and self._served % self.slo_check_interval == 0:
            self._degraded = bool(self.tracker.check())
        self._fire_scheduled()
        return outcome

    # -- the event loop ----------------------------------------------------

    def run(self, arrivals) -> list[StreamOutcome]:
        """Drive an open-loop arrival trace to completion.

        ``arrivals`` is an iterable of ``(offset_seconds, incident)``
        pairs, offsets measured from the moment ``run`` starts (they
        must be non-decreasing).  Arrivals whose offset has passed are
        admitted before each serve; when the server is idle it waits
        (``sleeper``) for the next arrival.  Returns every
        :class:`StreamOutcome` in completion order — shed outcomes
        land at shed time, served ones at completion, exactly the
        order a live observer would see.
        """
        pending = deque(arrivals)
        last = None
        for offset, _ in pending:
            if last is not None and offset < last:
                raise ValueError("arrival offsets must be non-decreasing")
            last = offset
        epoch = self._clock()
        first = len(self.outcomes)
        self._fire_scheduled()  # after_served=0 actions land up front
        while pending or self._depth:
            now = self._clock() - epoch
            while pending and pending[0][0] <= now:
                _, incident = pending.popleft()
                shed = self.submit(incident)
                if shed is not None:
                    self.outcomes.append(shed)
            if self._depth:
                self.outcomes.append(self.process_one())
                continue
            # Idle: nothing queued, next arrival in the future.
            wait = pending[0][0] - (self._clock() - epoch)
            if wait > 0:
                self._sleeper(wait)
        return self.outcomes[first:]
