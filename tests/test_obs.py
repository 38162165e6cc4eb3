"""Observability unit tests: metrics, tracing, exposition.

The contract under test is *determinism*: instruments never read the
wall clock, quantiles are pure functions of bucket counts, span ids are
sequential, and exposition renders byte-identically for identical
workloads.
"""

import math
import pickle
from dataclasses import replace

import pytest

from repro.monitoring import FakeClock
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricFamily,
    Observability,
    Tracer,
    maybe_span,
    parse_exposition,
    render_exposition,
)
from repro.obs.metrics import MetricsRegistry


def family(name, kind="counter", labels=(), help="", buckets=None):
    """A test-local declared family (src code registers catalog ones)."""
    if kind == "histogram" and buckets is None:
        buckets = DEFAULT_LATENCY_BUCKETS
    return MetricFamily(name, kind, labels, help, doc="", buckets=buckets)


CALLS = family("calls_total", labels=("team",), help="Calls.")


# -- counters and gauges ----------------------------------------------------


def test_counter_inc_value_and_total():
    registry = MetricsRegistry()
    calls = registry.counter(CALLS)
    calls.inc(1, team="PhyNet")
    calls.inc(2, team="PhyNet")
    calls.inc(5, team="DNS")
    assert calls.value(team="PhyNet") == 3
    assert calls.value(team="Storage") == 0  # never incremented
    assert calls.total() == 8
    assert calls.samples() == [
        ({"team": "DNS"}, 5.0),
        ({"team": "PhyNet"}, 3.0),
    ]


def test_counter_rejects_negative_and_wrong_labels():
    registry = MetricsRegistry()
    calls = registry.counter(CALLS)
    with pytest.raises(ValueError, match="only go up"):
        calls.inc(-1, team="PhyNet")
    with pytest.raises(ValueError, match="takes labels"):
        calls.inc(1, squad="PhyNet")
    with pytest.raises(ValueError, match="takes labels"):
        calls.inc(1)


def test_counter_bind_fast_path():
    registry = MetricsRegistry()
    calls = registry.counter(CALLS)
    bound = calls.bind(team="PhyNet")
    bound.inc()
    bound.inc(2)
    calls.inc(1, team="PhyNet")  # unbound path lands in the same series
    assert calls.value(team="PhyNet") == 4
    with pytest.raises(ValueError, match="only go up"):
        bound.inc(-1)
    with pytest.raises(ValueError, match="takes labels"):
        calls.bind(squad="PhyNet")  # validation happens at bind time
    clone = pickle.loads(pickle.dumps(registry))
    assert clone.counter(CALLS).total() == 4


def test_gauge_set_inc_dec():
    registry = MetricsRegistry()
    gauge = registry.gauge(family("depth", "gauge", ("queue",)))
    gauge.set(4.0, queue="a")
    gauge.inc(2.0, queue="a")
    gauge.dec(5.0, queue="a")
    assert gauge.value(queue="a") == 1.0


def test_registry_get_or_create_is_idempotent_and_typed():
    registry = MetricsRegistry()
    x_total = family("x_total", labels=("a",), help="help")
    first = registry.counter(x_total)
    assert registry.counter(replace(x_total, help="other help")) is first
    with pytest.raises(ValueError, match="already registered as a counter"):
        registry.gauge(replace(x_total, kind="gauge"))
    with pytest.raises(ValueError, match=r"counter with labels \('a',\)"):
        registry.counter(replace(x_total, labels=("b",)))
    with pytest.raises(ValueError, match="declared as a counter"):
        registry.gauge(x_total)
    assert registry.get("x_total") is first
    assert registry.get("missing") is None


def test_histogram_reregistered_with_other_buckets_raises():
    registry = MetricsRegistry()
    lat = family("lat", "histogram", buckets=(0.1, 1.0))
    first = registry.histogram(lat)
    assert registry.histogram(replace(lat, help="other help")) is first
    with pytest.raises(ValueError, match=r"buckets \(0\.1, 1\.0\)"):
        registry.histogram(replace(lat, buckets=(0.5, 1.0)))
    assert registry.get("lat").buckets == (0.1, 1.0)


# -- histograms -------------------------------------------------------------


def test_histogram_quantiles_resolve_to_bucket_bounds():
    registry = MetricsRegistry()
    hist = registry.histogram(
        family("lat", "histogram", buckets=(0.1, 0.5, 1.0))
    )
    for value in (0.05, 0.05, 0.3, 0.3, 0.3, 0.3, 0.3, 0.9, 0.9, 0.9):
        hist.observe(value)
    assert hist.count() == 10
    assert hist.sum() == pytest.approx(4.3)
    # Ranks land in buckets; read-outs are the bucket *upper bounds*.
    assert hist.quantile(0.0) == 0.1
    assert hist.quantile(0.5) == 0.5
    assert hist.quantile(0.99) == 1.0
    assert hist.percentiles() == {
        "p50": 0.5, "p90": 1.0, "p99": 1.0, "saturated": False,
    }


def test_histogram_empty_is_nan_and_overflow_caps():
    registry = MetricsRegistry()
    hist = registry.histogram(family("lat", "histogram", buckets=(0.1, 1.0)))
    assert math.isnan(hist.quantile(0.5))
    assert hist.quantile_ex(0.5).saturated is False  # empty != saturated
    hist.observe(50.0)  # beyond the largest finite bucket (+Inf bucket)
    assert hist.count() == 1
    assert hist.quantile(0.5) == 1.0  # capped at the largest finite bound
    # The extended read-out exposes the clamp instead of hiding it.
    readout = hist.quantile_ex(0.5)
    assert readout.value == 1.0 and readout.saturated is True
    assert hist.percentiles()["saturated"] is True


def test_histogram_validates_buckets_and_q():
    registry = MetricsRegistry()
    with pytest.raises(ValueError, match="ascending"):
        registry.histogram(family("bad", "histogram", buckets=(1.0, 0.5)))
    hist = registry.histogram(family("lat", "histogram"))
    assert hist.buckets == DEFAULT_LATENCY_BUCKETS
    with pytest.raises(ValueError, match="q must be"):
        hist.quantile(1.5)


# -- exposition -------------------------------------------------------------


def _tiny_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(CALLS).inc(3, team="PhyNet")
    registry.gauge(family("up", "gauge", help="Liveness.")).set(1.0)
    hist = registry.histogram(
        family("lat_seconds", "histogram", help="Latency.", buckets=(0.1, 1.0))
    )
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(7.0)
    return registry


def test_exposition_renders_prometheus_shape():
    text = render_exposition(_tiny_registry())
    assert "# HELP calls_total Calls.\n# TYPE calls_total counter" in text
    assert 'calls_total{team="PhyNet"} 3' in text
    assert "# TYPE lat_seconds histogram" in text
    # Cumulative buckets plus the implicit +Inf bucket.
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="1"} 2' in text
    assert 'lat_seconds_bucket{le="+Inf"} 3' in text
    assert "lat_seconds_sum 7.55" in text
    assert "lat_seconds_count 3" in text
    assert text.endswith("\n")


def test_exposition_roundtrips_through_parse():
    text = render_exposition(_tiny_registry())
    parsed = parse_exposition(text)
    assert parsed["calls_total"][(("team", "PhyNet"),)] == 3.0
    assert parsed["up"][()] == 1.0
    assert parsed["lat_seconds_count"][()] == 3.0
    assert parsed["lat_seconds_bucket"][(("le", "+Inf"),)] == 3.0


def test_exposition_is_byte_deterministic():
    assert render_exposition(_tiny_registry()) == render_exposition(
        _tiny_registry()
    )


def test_exposition_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter(family("c_total", labels=("msg",))).inc(
        1, msg='quote " slash \\ newline\n'
    )
    text = render_exposition(registry)
    parsed = parse_exposition(text)
    assert parsed["c_total"][(("msg", 'quote " slash \\ newline\n'),)] == 1.0


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError, match="malformed sample"):
        parse_exposition("this is not a sample line !!!")
    with pytest.raises(ValueError, match="malformed value"):
        parse_exposition("metric_total not_a_number")
    with pytest.raises(ValueError, match="malformed labels"):
        parse_exposition('metric_total{bad labels} 1')


def test_registry_pickles_to_identical_exposition():
    registry = _tiny_registry()
    clone = pickle.loads(pickle.dumps(registry))
    assert render_exposition(clone) == render_exposition(registry)
    clone.counter(CALLS).inc(1, team="DNS")
    assert clone.counter(CALLS).total() == 4


# -- tracing ----------------------------------------------------------------


def test_spans_nest_via_context_and_ids_are_sequential():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer") as outer:
        clock.advance(1.0)
        with tracer.span("inner") as inner:
            clock.advance(0.5)
        assert tracer.current() is outer
    assert tracer.current() is None
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id
    assert outer.trace_id == "trace-00000001"
    assert (outer.span_id, inner.span_id) == ("00000001", "00000002")
    assert outer.duration == pytest.approx(1.5)
    assert inner.duration == pytest.approx(0.5)
    # Same workload on a fresh tracer → the exact same ids.
    repeat = Tracer(clock=FakeClock())
    with repeat.span("outer") as outer2:
        with repeat.span("inner"):
            pass
    assert outer2.trace_id == outer.trace_id


def test_explicit_parent_wins_over_context():
    tracer = Tracer(clock=FakeClock())
    root = tracer.start_span("root")
    with tracer.span("elsewhere"):
        child = tracer.start_span("child", parent=root)
    assert child.parent_id == root.span_id
    assert child.trace_id == root.trace_id


def test_trace_children_and_render():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("serve", incident_id=7) as root:
        with tracer.span("scout.call", team="PhyNet"):
            clock.advance(0.25)
        with tracer.span("compose"):
            pass
    spans = tracer.trace(root.trace_id)
    assert [s.name for s in spans] == ["serve", "scout.call", "compose"]
    assert [s.name for s in tracer.children(root)] == ["scout.call", "compose"]
    text = tracer.render_trace(root.trace_id)
    assert "serve (250.000ms) incident_id=7" in text
    assert "\n  scout.call (250.000ms) team=PhyNet" in text


def test_exception_marks_span_and_still_finishes():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises(RuntimeError):
        with tracer.span("doomed") as span:
            raise RuntimeError("boom")
    assert span.finished
    assert span.attributes["error"] == "RuntimeError"
    assert tracer.current() is None


def test_exporter_is_bounded_and_counts_drops():
    tracer = Tracer(clock=FakeClock(), max_spans=3)
    for i in range(5):
        with tracer.span(f"s{i}"):
            pass
    assert [s.name for s in tracer.finished_spans] == ["s2", "s3", "s4"]
    assert tracer.dropped == 2
    with pytest.raises(ValueError):
        Tracer(max_spans=0)


def test_maybe_span_is_noop_without_obs():
    with maybe_span(None, "anything"):
        pass  # no tracer, no span, no error
    obs = Observability(clock=FakeClock())
    with maybe_span(obs, "stage") as span:
        pass
    assert span.name == "stage"
    assert obs.trace.finished_spans == [span]


def test_observability_bundles_clock_registry_tracer():
    clock = FakeClock()
    obs = Observability(clock=clock)
    assert obs.metrics.clock is clock
    assert obs.trace.clock is clock
    obs.metrics.counter(family("c_total")).inc()
    assert "c_total 1" in obs.render()
