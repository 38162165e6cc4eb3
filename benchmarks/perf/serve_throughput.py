"""Serve-path throughput bench: a ``handle`` loop vs ``handle_batch``.

The workload models an outage storm — the situation the serving layer
actually has to survive: a burst of near-duplicate incident reports
landing at the same timestamp (DeepTriage reports exactly this shape in
Microsoft's production traffic).  The *serial* reference is a
``handle()`` loop.  The *batch* measurement runs the same burst through
``handle_batch``, which is itself a ``handle`` loop on the calling
thread, so ``serve_batch_speedup`` measures ``handle_batch``'s overhead
over the plain loop and sits at about 1.0.  Both sides build features
the same way: the first copy of an incident pulls its windows, and each
later copy reuses its feature vector from the builder's vector memo,
which both sides start empty.

Reported metrics (merged into ``BENCH_scout.json``'s ``after`` dict):

* ``serve_serial_ips``     — incidents/sec through the ``handle`` loop
* ``serve_batch_ips``      — incidents/sec through ``handle_batch``
* ``serve_batch_speedup``  — batch over serial (≈ 1.0)
* ``serve_cache_hit_rate`` — memo hits / (hits + store pulls) during
  the batch run (batched pulls count as one store query each; a
  reused feature vector counts one hit)
* ``serve_burst_incidents`` — burst size, for context
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.serving import IncidentManager

__all__ = ["run_serve_bench"]


def _counter_total(metrics, name: str) -> float:
    family = metrics.get(name)
    return family.total() if family is not None else 0.0


def run_serve_bench(
    scout,
    registry,
    incidents,
    repeats: int = 5,
) -> dict:
    """Time the storm burst through both serving paths.

    ``incidents`` are the distinct storm members; each is replicated
    ``repeats`` times (fresh ids, one shared timestamp) and the copies
    are interleaved round-robin, the arrival order a real burst has.
    """
    burst_at = max(incident.created_at for incident in incidents)
    next_id = max(incident.incident_id for incident in incidents) + 1
    burst = []
    for _ in range(repeats):
        for incident in incidents:
            burst.append(
                replace(incident, incident_id=next_id, created_at=burst_at)
            )
            next_id += 1

    out: dict = {"serve_burst_incidents": len(burst)}

    # The Scout arrives with its framework's sink; detach it once so
    # that each manager threads its own in.  Registration also hands the
    # sink from the first manager to the second and starts the builder's
    # memos empty.
    scout.obs = None
    scout.builder.obs = None
    serial = IncidentManager(registry)
    serial.register(scout)
    start = time.perf_counter()
    for incident in burst:
        serial.handle(incident)
    serial_seconds = time.perf_counter() - start
    out["serve_serial_ips"] = len(burst) / serial_seconds

    manager = IncidentManager(registry)
    manager.register(scout)
    start = time.perf_counter()
    manager.handle_batch(burst)
    batch_seconds = time.perf_counter() - start
    metrics = manager.obs.metrics
    queries = _counter_total(metrics, "monitoring_queries_total")
    hits = _counter_total(metrics, "monitoring_cache_hits_total")
    out["serve_batch_ips"] = len(burst) / batch_seconds
    out["serve_batch_speedup"] = round(serial_seconds / batch_seconds, 3)
    lookups = queries + hits
    out["serve_cache_hit_rate"] = round(hits / lookups, 4) if lookups else 0.0
    return out
