"""The Scout Master (Appendices C & D).

Coordinates a set of per-team Scouts into a global routing decision.
The strawman algorithm of Appendix C:

1. exactly one Scout says "yes" with high confidence → route there;
2. several say "yes" → prefer the *dependency* (if one yes-team's
   components depend on another's, send it to the latter), otherwise
   the most confident;
3. none say "yes" → fall back to the legacy process.

Appendix D evaluates fleets of *abstract* Scouts — each modeled by an
accuracy ``P`` and confidence intervals parameterized by ``β`` — over
real routing traces; :class:`AbstractScout` and
:func:`simulate_master_gain` implement that trace-driven simulation for
Figures 15 and 16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..incidents.store import IncidentStore
from ..ml.base import as_rng
from .teams import TeamRegistry

__all__ = [
    "ScoutAnswer",
    "ScoutMaster",
    "AbstractScout",
    "simulate_master_gain",
]


@dataclass(frozen=True)
class ScoutAnswer:
    """One Scout's reply to a Scout Master query."""

    team: str
    responsible: bool | None
    confidence: float


class ScoutMaster:
    """The Appendix C strawman composition of real Scout answers."""

    def __init__(
        self,
        registry: TeamRegistry,
        confidence_floor: float = 0.5,
    ) -> None:
        self.registry = registry
        self.confidence_floor = confidence_floor

    def route(self, answers: list[ScoutAnswer]) -> str | None:
        """The chosen team, or None to fall back to legacy routing."""
        yes = [
            a
            for a in answers
            if a.responsible is True and a.confidence >= self.confidence_floor
        ]
        if not yes:
            return None
        if len(yes) == 1:
            return yes[0].team
        # Several teams claim the incident: prefer the one the others
        # depend on (the deeper dependency is the likelier root cause).
        names = {a.team for a in yes}
        for answer in yes:
            others = names - {answer.team}
            if others and all(
                answer.team in self.registry[other].depends_on
                for other in others
            ):
                return answer.team
        return max(yes, key=lambda a: a.confidence).team


@dataclass
class AbstractScout:
    """Appendix D's parameterized Scout model.

    With probability ``accuracy`` the Scout answers correctly.  Correct
    answers draw confidence from ``(0.8 - beta, 0.8)``; incorrect ones
    from ``(0.5, 0.5 + beta)`` — both uniform, exactly as Appendix D
    specifies.
    """

    team: str
    accuracy: float = 1.0
    beta: float = 0.0

    def answer(
        self, responsible_team: str, rng: np.random.Generator
    ) -> ScoutAnswer:
        truth = responsible_team == self.team
        correct = rng.random() < self.accuracy
        verdict = truth if correct else not truth
        if self.accuracy >= 1.0:
            confidence = 1.0
        elif correct:
            confidence = float(rng.uniform(0.8 - self.beta, 0.8))
        else:
            confidence = float(rng.uniform(0.5, 0.5 + self.beta))
        return ScoutAnswer(self.team, verdict, confidence)


def simulate_master_gain(
    incidents: IncidentStore,
    scouts: list[AbstractScout],
    registry: TeamRegistry,
    rng: int | np.random.Generator | None = 0,
    confidence_floor: float = 0.5,
) -> np.ndarray:
    """Per-incident fraction of investigation time saved by a fleet.

    Replays baseline routing traces: when the Scout Master picks the
    truly responsible team, all earlier wrong-team hops are skipped;
    when it picks a wrong team, that team's (sampled) stint is added
    before the baseline routing resumes; when it abstains, the baseline
    stands.  Only mis-routed incidents are scored (Figure 15/16's
    population).
    """
    rng = as_rng(rng)
    master = ScoutMaster(registry, confidence_floor=confidence_floor)
    fractions = []
    for incident in incidents:
        trace = incidents.trace(incident.incident_id)
        if trace is None or not trace.mis_routed:
            continue
        total = trace.total_time
        if total <= 0:
            continue
        answers = [
            scout.answer(incident.responsible_team, rng) for scout in scouts
        ]
        choice = master.route(answers)
        if choice is None:
            fractions.append(0.0)
            continue
        if choice == incident.responsible_team:
            saved = trace.time_before(choice)
            fractions.append(saved / total)
        else:
            # Wrong team engaged first: extra stint comparable to the
            # trace's average wrong-team hop.
            wrong_times = [
                hop.time_spent
                for hop in trace.hops
                if hop.team != trace.resolved_by
            ]
            penalty = float(np.mean(wrong_times)) if wrong_times else 0.0
            fractions.append(-penalty / total)
    return np.array(fractions)
