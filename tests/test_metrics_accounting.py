"""Regression tests for the PR 9 metrics-accounting bugfix sweep.

A committed bench metric was silently wrong: ``stream_soak_p99_seconds``
read exactly 5.0 — a coarse bucket bound masquerading as a measured
p99, and in the worst case a histogram whose p99 rank escapes the
finite buckets clamps to the top bound, indistinguishable from
"p99 == budget".

These tests pin the fixes: the shared ``bucket_quantile`` helper carries
a ``saturated`` flag, ``SLOTracker`` treats a saturated interval p99 as
a violation unconditionally, and the stream-wait grid resolves
multi-second waits.  Property tests hold ``bucket_quantile`` and the
tracker's interval-p99 diffs to their definitions on random inputs.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricFamily, catalog
from repro.obs.catalog import STREAM_WAIT_BUCKETS
from repro.obs.metrics import MetricsRegistry, QuantileReadout, bucket_quantile
from repro.serving.stream import SLOTracker


# -- the shared quantile helper (satellite: clamp-pattern audit) -------------


class TestBucketQuantile:
    def test_resolved_rank_is_not_saturated(self):
        readout = bucket_quantile((0.1, 1.0), [3, 1], 4, 0.5)
        assert readout == QuantileReadout(0.1, False)

    def test_rank_beyond_finite_buckets_is_saturated(self):
        # All four observations overflowed into the implicit +Inf
        # bucket: the value clamps to the top finite bound and the
        # flag says so.
        readout = bucket_quantile((0.1, 1.0), [0, 0], 4, 0.99)
        assert readout.value == 1.0
        assert readout.saturated is True

    def test_empty_is_nan_not_saturated(self):
        readout = bucket_quantile((0.1, 1.0), [0, 0], 0, 0.99)
        assert math.isnan(readout.value)
        assert readout.saturated is False

    def test_float_coercion_and_validation(self):
        assert float(bucket_quantile((1.0,), [1], 1, 0.5)) == 1.0
        with pytest.raises(ValueError, match="q must be"):
            bucket_quantile((1.0,), [1], 1, 1.5)

    def test_histogram_quantile_ex_matches_plain_quantile(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            MetricFamily("h", "histogram", (), "", doc="", buckets=(0.5, 1.0))
        )
        for v in (0.2, 0.4, 2.0):
            hist.observe(v)
        assert hist.quantile(0.5) == hist.quantile_ex(0.5).value == 0.5
        assert hist.quantile_ex(0.5).saturated is False
        assert hist.quantile_ex(0.99).saturated is True


# -- SLOTracker: a saturated p99 can't masquerade as within budget -----------


class TestSaturatedSLO:
    @staticmethod
    def _tracker(budget: float, buckets=(0.1, 1.0)):
        metrics = MetricsRegistry()
        wait = metrics.histogram(
            replace(catalog.STREAM_QUEUE_WAIT_SECONDS, buckets=buckets)
        )
        tracker = SLOTracker(metrics, {"queue": budget}, min_samples=4)
        return metrics, wait, tracker

    def test_saturated_interval_violates_even_at_budget_equality(self):
        # Budget == top finite bound: pre-fix, the clamped p99 read as
        # exactly the budget and `p99 > budget` passed the check.
        metrics, wait, tracker = self._tracker(budget=1.0)
        for _ in range(16):
            wait.observe(50.0)  # every observation escapes the grid
        violations = tracker.check()
        assert len(violations) == 1
        v = violations[0]
        assert v.stage == "queue"
        assert v.saturated is True
        assert v.p99 == 1.0  # a floor, not a measurement
        assert metrics.get("stream_slo_violations_total").total() == 1

    def test_saturated_interval_violates_even_when_budget_is_looser(self):
        # Even a budget far above the top bound can't absolve an
        # unresolvable p99 — the true value is unknown.
        _, wait, tracker = self._tracker(budget=100.0)
        for _ in range(16):
            wait.observe(50.0)
        violations = tracker.check()
        assert violations and violations[0].saturated is True

    def test_resolved_interval_within_budget_passes(self):
        _, wait, tracker = self._tracker(budget=1.0)
        for _ in range(16):
            wait.observe(0.05)
        assert tracker.check() == []

    def test_resolved_over_budget_violation_is_not_saturated(self):
        _, wait, tracker = self._tracker(budget=0.05)
        for _ in range(16):
            wait.observe(0.09)
        violations = tracker.check()
        assert violations and violations[0].saturated is False
        assert violations[0].p99 == 0.1


# -- the widened stream-wait grid --------------------------------------------


class TestStreamWaitBuckets:
    def test_multi_second_waits_resolve_instead_of_clamping(self):
        # The soak bench's true p99 was ~4.2s; the default latency grid
        # jumps 2.5 → 5.0 and read it as exactly 5.0.  The wait grid
        # resolves it to the 4.5 bound.
        registry = MetricsRegistry()
        wait = registry.histogram(catalog.STREAM_QUEUE_WAIT_SECONDS)
        assert wait.buckets == STREAM_WAIT_BUCKETS
        for _ in range(99):
            wait.observe(4.2)
        wait.observe(0.01)
        readout = wait.quantile_ex(0.99)
        assert readout.value == 4.5
        assert readout.saturated is False

    def test_grid_extends_beyond_the_slo_sentinel_range(self):
        assert STREAM_WAIT_BUCKETS[-1] >= 600.0
        assert list(STREAM_WAIT_BUCKETS) == sorted(STREAM_WAIT_BUCKETS)


# -- properties -------------------------------------------------------------

_bucket_grids = st.lists(
    st.floats(0.001, 1000.0), min_size=1, max_size=8, unique=True
).map(sorted)


@st.composite
def _bucket_histograms(draw):
    """(buckets, finite bucket counts, total count incl. +Inf), count > 0."""
    buckets = draw(_bucket_grids)
    counts = draw(
        st.lists(st.integers(0, 20), min_size=len(buckets),
                 max_size=len(buckets))
    )
    overflow = draw(st.integers(0, 20))
    total = sum(counts) + overflow
    if total == 0:
        counts[-1] = 1
        total = 1
    return buckets, counts, total


class TestBucketQuantileProperties:
    @given(hist=_bucket_histograms(), qs=st.lists(
        st.floats(0.0, 1.0), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_q(self, hist, qs):
        buckets, counts, total = hist
        values = [
            bucket_quantile(buckets, counts, total, q).value
            for q in sorted(qs)
        ]
        assert values == sorted(values)

    @given(hist=_bucket_histograms(), q=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_result_is_smallest_bound_covering_q(self, hist, q):
        buckets, counts, total = hist
        readout = bucket_quantile(buckets, counts, total, q)
        assert readout.value in buckets
        finite = sum(counts)
        # The q-th observation is ranked max(1, q * total); it lands in
        # the implicit +Inf bucket exactly when the finite buckets
        # hold fewer observations than that.
        need = max(1.0, q * total)
        assert readout.saturated == (finite < need)
        if readout.saturated:
            assert readout.value == buckets[-1]
            return
        i = buckets.index(readout.value)
        assert sum(counts[: i + 1]) >= need
        assert sum(counts[:i]) < need


class TestSLOIntervalProperties:
    @given(
        batches=st.lists(
            st.lists(st.floats(0.0, 1000.0), max_size=12),
            min_size=1, max_size=6,
        ),
        min_samples=st.integers(1, 6),
        budget=st.floats(0.01, 100.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_interval_p99_is_p99_of_the_interval_alone(
        self, batches, min_samples, budget
    ):
        metrics = MetricsRegistry()
        wait = metrics.histogram(catalog.STREAM_QUEUE_WAIT_SECONDS)
        tracker = SLOTracker(metrics, {"queue": budget}, min_samples)
        p99_gauge = metrics.get("stream_slo_p99_seconds")
        pending: list[float] = []
        for batch in batches:
            for value in batch:
                wait.observe(value)
            pending.extend(batch)
            violations = tracker.check()
            if len(pending) < min_samples:
                # Too thin to judge: no verdict, and the observations
                # carry over into the next interval.
                assert violations == []
                continue
            alone = MetricsRegistry().histogram(
                catalog.STREAM_QUEUE_WAIT_SECONDS
            )
            for value in pending:
                alone.observe(value)
            want = alone.quantile_ex(0.99)
            assert p99_gauge.value(stage="queue") == want.value
            violated = want.saturated or want.value > budget
            assert [v.p99 for v in violations] == (
                [want.value] if violated else []
            )
            if violations:
                assert violations[0].saturated == want.saturated
                assert violations[0].samples == len(pending)
            pending = []
