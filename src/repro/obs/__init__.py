"""Observability for the Scout pipeline: metrics, traces, exposition.

The deployed Scout ran in *suggestion mode* so operators could watch
what the model would have done (§6); this package is the watching
apparatus for the reproduction — the declared metric families
(:mod:`.catalog`), a deterministic metrics registry (:mod:`.metrics`),
span-based tracing (:mod:`.tracing`), and a Prometheus-style text
exposition (:mod:`.exposition`).  Everything is
driven by an injectable clock and free of randomness, so instrumented
runs stay bit-reproducible: under a fake clock, two identical serving
runs render byte-identical exposition text.

:class:`Observability` bundles one registry and one tracer around a
shared clock; the incident manager owns one per process and threads it
into every registered Scout, its feature builder, and the training
framework, so a single ``manager.obs.render()`` shows the whole
pipeline.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from .catalog import DEFAULT_LATENCY_BUCKETS, MetricFamily
from .exposition import parse_exposition, render_exposition
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import Span, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Tracer",
    "maybe_span",
    "parse_exposition",
    "render_exposition",
]


class Observability:
    """One clock, one metrics registry, one tracer — a pipeline's eyes."""

    def __init__(self, clock=time.perf_counter, max_spans: int = 2048) -> None:
        self.clock = clock
        self.metrics = MetricsRegistry(clock=clock)
        self.trace = Tracer(clock=clock, max_spans=max_spans)

    def span(self, name: str, parent: Span | None = None, **attributes):
        """Shorthand for ``self.trace.span(...)``."""
        return self.trace.span(name, parent=parent, **attributes)

    def render(self) -> str:
        """The registry as Prometheus-style exposition text."""
        return render_exposition(self.metrics)


def maybe_span(obs: Observability | None, name: str, **attributes):
    """A span when observability is attached, a no-op otherwise.

    Instrumented components (Scout, feature builder, framework) carry
    ``obs=None`` by default so the hot path pays nothing until an
    incident manager (or a caller) threads an :class:`Observability`
    in.
    """
    if obs is None:
        return nullcontext()
    return obs.trace.span(name, **attributes)
