"""Layer tracing for the routing benchmark.

The benchmark attributes time to the program's layers without changing
the program: :class:`LayerTracer` replaces each layer's public entry
point with a wrapper that records a span (layer, start, end, parent,
incident id, phase) in memory, and puts the originals back on
:meth:`LayerTracer.uninstall`.

Parents are resolved per thread: a span nests under the innermost open
span of its own thread.  Work the incident manager hands to its pool
threads has no open span on that thread, so it attaches to the open
*root* span (``IncidentManager.handle`` / ``handle_batch``, fleet
routing) of the same incident, or else to the open batch-level root.
Self time is a span's duration minus the union of its children's
intervals, so two children running at once on two pool threads are not
subtracted twice.

The observability entry points (span start/finish, counter, gauge and
histogram updates) are far too frequent to record one span each; they
are counted and timed in aggregate as the ``obs`` layer.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict

__all__ = ["LayerTracer", "union_length"]

_clock = time.perf_counter

# Span record fields (a list per span keeps the recording path cheap).
_LAYER, _START, _END, _PARENT, _INCIDENT, _PHASE = range(6)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _incident_arg(args) -> int | None:
    """The incident id of a ``method(self, incident, ...)`` call."""
    return getattr(args[1], "incident_id", None) if len(args) > 1 else None


class LayerTracer:
    """Records spans around the program's layer entry points."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = "setup"
        self.routes: dict[str, Counter] = defaultdict(Counter)
        self._local = threading.local()
        # Open root spans by incident id (None: a batch-level root).
        self._roots: dict = {}
        self._patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self.obs_spans = 0
        self.obs_updates = 0
        self.obs_seconds = 0.0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, incident, root: bool) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            if incident is None:
                incident = self.spans[parent][_INCIDENT]
        else:
            parent = self._roots.get(incident)
            if parent is None:
                parent = self._roots.get(None)
            if parent is not None and incident is None:
                incident = self.spans[parent][_INCIDENT]
        with self._lock:
            index = len(self.spans)
            self.spans.append([layer, _clock(), None, parent, incident, self.phase])
        stack.append(index)
        if root:
            self._roots[incident] = index
        return index

    def _close(self, index: int, root: bool) -> None:
        span = self.spans[index]
        span[_END] = _clock()
        self._stack().pop()
        if root and self._roots.get(span[_INCIDENT]) == index:
            del self._roots[span[_INCIDENT]]

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            return  # the layer is gone in this version of the program
        setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))
        self._patched.append((owner, attr, original))

    def wrap(self, owner, attr: str, layer: str, *, incident=None,
             root: bool = False, after=None) -> None:
        """Record a ``layer`` span around every call of ``owner.attr``."""
        tracer = self

        def factory(original):
            def wrapper(*args, **kwargs):
                index = tracer._open(
                    layer, incident(args) if incident else None, root
                )
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index, root)
                if after is not None:
                    after(result)
                return result

            return wrapper

        self._patch(owner, attr, factory)

    def wrap_obs(self, owner, attr: str, kind: str) -> None:
        """Count and time one observability entry point in aggregate."""
        tracer = self
        local = self._local

        def factory(original):
            def wrapper(*args, **kwargs):
                if getattr(local, "in_obs", False):
                    return original(*args, **kwargs)
                local.in_obs = True
                started = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = _clock() - started
                    local.in_obs = False
                    with tracer._lock:
                        tracer.obs_seconds += elapsed
                        if kind == "span":
                            tracer.obs_spans += 1
                        else:
                            tracer.obs_updates += 1

            return wrapper

        self._patch(owner, attr, factory)

    def _count_route(self, decision) -> None:
        route = getattr(getattr(decision, "route", None), "value", "unknown")
        with self._lock:
            self.routes[self.phase][route] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer the per-layer table reports."""
        from repro.core import cpd_plus, extraction, features, framework, scout, selector
        from repro.ml import forest
        from repro.monitoring import store
        from repro.obs import metrics, tracing
        from repro.serving import fleet, manager, stream
        from repro.simulation import scout_master

        self.wrap(scout.Scout, "predict", "core.scout.predict", incident=_incident_arg)
        self.wrap(extraction.ComponentExtractor, "extract", "core.extraction.extract")
        self.wrap(selector.ModelSelector, "decide", "core.selector.decide",
                  after=self._count_route)
        self.wrap(features.FeatureBuilder, "features", "core.features.features")
        for attr in sorted(vars(store.MonitoringStore)):
            if attr.startswith("query_"):
                self.wrap(store.MonitoringStore, attr, "monitoring.store")
        self.wrap(forest.RandomForestClassifier, "predict_proba", "ml.forest.predict_proba")
        self.wrap(forest.RandomForestClassifier, "fit", "ml.forest.fit")
        # Scout imports explain_forest by name, so wrap it where it is called.
        self.wrap(scout, "explain_forest", "core.explain.explain_forest")
        self.wrap(cpd_plus.CPDPlus, "predict", "core.cpd_plus.predict")
        self.wrap(framework.ScoutFramework, "dataset", "core.framework.dataset")
        self.wrap(framework.ScoutFramework, "train", "core.framework.train")
        self.wrap(scout_master.ScoutMaster, "route", "simulation.scout_master.route")
        self.wrap(manager.IncidentManager, "handle", "serving.manager",
                  incident=_incident_arg, root=True)
        self.wrap(manager.IncidentManager, "handle_batch", "serving.manager", root=True)
        self.wrap(stream.StreamServer, "run", "serving.stream.run")
        self.wrap(fleet.FleetServer, "calibrate", "serving.fleet.calibrate", root=True)
        self.wrap(fleet.FleetServer, "route_trace", "serving.fleet.route_trace", root=True)
        self.wrap(fleet.FleetServer, "_score", "serving.fleet.pool_wait")
        self.wrap(fleet.MasterPolicy, "rank", "serving.fleet.rank")
        self.wrap_obs(tracing.Tracer, "start_span", "span")
        self.wrap_obs(tracing.Tracer, "finish", "update")
        self.wrap_obs(metrics.BoundCounter, "inc", "update")
        self.wrap_obs(metrics.Counter, "inc", "update")
        self.wrap_obs(metrics.Gauge, "set", "update")
        self.wrap_obs(metrics.Gauge, "inc", "update")
        self.wrap_obs(metrics.Histogram, "observe", "update")

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset_obs(self) -> None:
        with self._lock:
            self.obs_spans = self.obs_updates = 0
            self.obs_seconds = 0.0

    # -- analysis ----------------------------------------------------------

    def layer_table(self, phase: str) -> dict[str, dict[str, float]]:
        """Per layer: calls, busy seconds and self seconds in one phase.

        A span nested inside a span of its own layer (a batched store
        query issuing single queries, say) is part of the outer call:
        it counts neither as a call nor as extra busy time.
        """
        spans = self.spans
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            if span[_PARENT] is not None:
                children[span[_PARENT]].append(index)
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for index, span in enumerate(spans):
            if span[_PHASE] != phase or span[_END] is None:
                continue
            start, end = span[_START], span[_END]
            covered = union_length(
                (max(spans[c][_START], start), min(spans[c][_END], end))
                for c in children.get(index, ())
                if spans[c][_END] is not None
                and spans[c][_START] < end and spans[c][_END] > start
            )
            row = table[span[_LAYER]]
            row["self_s"] += (end - start) - covered
            if self._nested_in_same_layer(index):
                continue
            row["calls"] += 1
            row["busy_s"] += end - start
        return dict(table)

    def _nested_in_same_layer(self, index: int) -> bool:
        spans = self.spans
        layer = spans[index][_LAYER]
        parent = spans[index][_PARENT]
        while parent is not None:
            if spans[parent][_LAYER] == layer:
                return True
            parent = spans[parent][_PARENT]
        return False

    def covered_seconds(self, phase: str, start: float, end: float) -> float:
        """Wall time inside [start, end] covered by any span of ``phase``."""
        return union_length(
            (max(s[_START], start), min(s[_END], end))
            for s in self.spans
            if s[_PHASE] == phase and s[_END] is not None
            and s[_START] < end and s[_END] > start
        )

    def write(self, path) -> None:
        """Write every recorded span as one JSON array per line."""
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps([index, *span]) + "\n")
