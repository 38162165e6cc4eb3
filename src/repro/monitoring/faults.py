"""Fault injection for the monitoring plane and Scout call path.

§6's deployment reality is that the monitoring systems a Scout pulls
from fail too — sometimes during the very incident being routed.  This
module is the test harness for that reality: a deterministic, seeded
wrapper around :class:`~repro.monitoring.store.MonitoringStore` that
injects faults on a reproducible schedule, plus the doubles the serving
resilience tests use (a fake clock and a scriptable flaky Scout).

Everything here is deterministic: failures come from fixed query
ordinals or a hash of (seed, ordinal), and injected latency advances a
:class:`FakeClock` instead of sleeping — a fault scenario replays
bit-identically in CI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import series_seed, uniform_at

__all__ = [
    "TransientMonitoringError",
    "FakeClock",
    "FaultPlan",
    "FaultyStore",
    "FlakyScout",
]


class TransientMonitoringError(RuntimeError):
    """A monitoring pull failed in a (presumed) transient way.

    This is the retryable error class: :class:`~repro.serving.retry.
    RetryPolicy` retries it, anything else propagates immediately.
    """


class FakeClock:
    """A manually advanced clock, injectable wherever time is read.

    Calling the instance returns the current time, so it drops in for
    ``time.perf_counter``/``time.monotonic``; ``advance`` doubles as an
    injectable sleeper for :class:`~repro.serving.retry.RetryPolicy`.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance backwards")
        self.now += seconds


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible schedule of monitoring faults.

    Faults key off the wrapping store's 1-based query ordinal, so a plan
    replays identically for an identical query sequence:

    * ``fail_queries`` — raise on exactly these ordinals;
    * ``fail_first`` — raise on every ordinal ``<= fail_first``;
    * ``error_rate`` — raise intermittently, via a hash of
      ``(seed, ordinal)`` (deterministic, not an RNG stream);
    * ``latency_seconds`` — advance the store's fake clock by this much
      per query (models a slow monitor without real sleeping);
    * ``datasets`` — when set, only queries against these datasets are
      counted and faulted.
    """

    seed: int = 0
    error_rate: float = 0.0
    fail_queries: frozenset[int] = frozenset()
    fail_first: int = 0
    latency_seconds: float = 0.0
    datasets: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")

    def applies_to(self, dataset: str) -> bool:
        return self.datasets is None or dataset in self.datasets

    def should_fail(self, ordinal: int) -> bool:
        """Does query number ``ordinal`` (1-based) fail under this plan?"""
        if ordinal <= self.fail_first or ordinal in self.fail_queries:
            return True
        if self.error_rate <= 0.0:
            return False
        draw = uniform_at(
            series_seed(self.seed, "__faults__", "queries"),
            np.asarray([ordinal], dtype=np.uint64),
        )[0]
        return bool(draw < self.error_rate)


class FaultyStore:
    """A :class:`MonitoringStore` wrapper that injects planned faults.

    Query methods (scalar and matrix) consult the
    :class:`FaultPlan` before delegating; every other attribute passes
    straight through to the wrapped store, so a ``FaultyStore`` drops in
    anywhere a store is accepted (feature builders, CPD+,
    ``load_scout``).  Every public ``query_*`` method of the store must
    be overridden here — a forwarded query would bypass the plan, and
    ``tests/test_serving_resilience.py`` checks that none is.
    """

    def __init__(
        self,
        inner,
        plan: FaultPlan,
        clock: FakeClock | None = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.clock = clock
        self.queries = 0
        self.injected_errors = 0

    def _gate(self, dataset: str) -> None:
        if not self.plan.applies_to(dataset):
            return
        self.queries += 1
        if self.clock is not None and self.plan.latency_seconds > 0:
            self.clock.advance(self.plan.latency_seconds)
        if self.plan.should_fail(self.queries):
            self.injected_errors += 1
            raise TransientMonitoringError(
                f"injected fault on query #{self.queries} ({dataset})"
            )

    def query_series(self, dataset, component, t0, t1):
        self._gate(dataset)
        return self.inner.query_series(dataset, component, t0, t1)

    def query_series_matrix(self, dataset, components, t0, t1):
        self._gate(dataset)
        return self.inner.query_series_matrix(dataset, components, t0, t1)

    def query_events(self, dataset, component, t0, t1):
        self._gate(dataset)
        return self.inner.query_events(dataset, component, t0, t1)

    def query_event_type_counts(self, dataset, component, t0, t1):
        self._gate(dataset)
        return self.inner.query_event_type_counts(dataset, component, t0, t1)

    def query_event_type_counts_matrix(self, dataset, components, t0, t1):
        self._gate(dataset)
        return self.inner.query_event_type_counts_matrix(
            dataset, components, t0, t1
        )

    def __getattr__(self, name):
        return getattr(self.inner, name)


class FlakyScout:
    """A scriptable Scout double for exercising every degradation mode.

    ``script`` is a sequence of per-call actions, consumed in order and
    followed by ``default`` forever after:

    * ``"ok"``    — return a healthy prediction;
    * ``"error"`` — raise :class:`TransientMonitoringError`;
    * ``"slow"``  — advance ``clock`` by ``slow_seconds`` (a deadline
      overrun under a fake-clocked manager), then answer.
    """

    def __init__(
        self,
        team: str,
        script: tuple[str, ...] = (),
        default: str = "ok",
        responsible: bool | None = True,
        confidence: float = 0.9,
        clock: FakeClock | None = None,
        slow_seconds: float = 10.0,
    ) -> None:
        self.team = team
        self.script = tuple(script)
        self.default = default
        self.responsible = responsible
        self.confidence = confidence
        self.clock = clock
        self.slow_seconds = slow_seconds
        self.calls = 0

    def predict(self, incident):
        # Imported here: monitoring must not import repro.core at module
        # scope (core.features imports this package).
        from ..core.scout import ScoutPrediction
        from ..core.selector import Route

        action = (
            self.script[self.calls]
            if self.calls < len(self.script)
            else self.default
        )
        self.calls += 1
        if action == "error":
            raise TransientMonitoringError(
                f"{self.team} scripted failure on call #{self.calls}"
            )
        if action == "slow" and self.clock is not None:
            self.clock.advance(self.slow_seconds)
        elif action not in ("ok", "slow"):
            raise ValueError(f"unknown FlakyScout action: {action!r}")
        return ScoutPrediction(
            incident_id=incident.incident_id,
            responsible=self.responsible,
            confidence=self.confidence,
            route=Route.SUPERVISED,
        )
