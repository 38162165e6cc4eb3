"""The metric catalog: every family the pipeline emits, declared once.

The deployed Scout ran in suggestion mode so operators could watch
every would-be routing decision (§6); these families are what they
watch.  Each one is declared here exactly once — name, kind, label
names, help text, histogram buckets and the operator-facing meaning —
and everything else derives from that declaration:

* :class:`~repro.obs.metrics.MetricsRegistry` registers only
  :class:`MetricFamily` objects, so a call site cannot invent a name,
  relabel a family or re-bucket a histogram;
* the exposition's ``# HELP`` line is ``help``;
* the README metric table is :func:`markdown_table` (a test keeps the
  two byte-equal).

Declaration order is the README table's row order.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "FAMILIES",
    "SERIES_SUFFIXES",
    "STREAM_WAIT_BUCKETS",
    "MetricFamily",
    "family_of",
    "markdown_table",
]

_KINDS = ("counter", "gauge", "histogram")
# The exposition series a histogram family adds to its own name.
SERIES_SUFFIXES = ("_bucket", "_count", "_sum")

# Prometheus-style latency buckets (seconds), extended to cover the
# multi-second deadline overruns the fault harness injects.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

# Queue waits are not scout-call latencies: an overloaded stream parks
# incidents for whole seconds, where the default latency grid jumps
# 2.5 → 5 → 10 and a true p99 of ~4.2s reads as exactly 5.0 —
# indistinguishable from a 5-second budget sentinel.  The wait grid is
# dense through the single-digit seconds and extends to 10 minutes so
# a pathological backlog still resolves instead of clamping.
STREAM_WAIT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 8.0,
    10.0, 15.0, 20.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)


@dataclass(frozen=True)
class MetricFamily:
    """One declared metric family.

    ``help`` is the exposition's ``# HELP`` text, ``doc`` the README
    table's "Meaning" cell; ``buckets`` is set for histograms only.
    """

    name: str
    kind: str
    labels: tuple[str, ...]
    help: str
    doc: str
    buckets: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"{self.name}: unknown metric kind {self.kind!r}")
        if (self.kind == "histogram") != (self.buckets is not None):
            raise ValueError(f"{self.name}: buckets are for histograms only")


SCOUT_CALLS_TOTAL = MetricFamily(
    "scout_calls_total",
    "counter",
    ("team", "status"),
    help="Per-Scout call outcomes by CallStatus.",
    doc=(
        "per-Scout call outcomes by `CallStatus` "
        "(`ok`/`error`/`timeout`/`breaker_open`)"
    ),
)

SCOUT_CALL_LATENCY_SECONDS = MetricFamily(
    "scout_call_latency_seconds",
    "histogram",
    ("team",),
    help="Latency of calls that reached the Scout (OK/ERROR/TIMEOUT).",
    doc=(
        "latency of calls that reached the Scout (OK/ERROR/TIMEOUT; breaker "
        "skips excluded)"
    ),
    buckets=DEFAULT_LATENCY_BUCKETS,
)

SERVING_INCIDENTS_TOTAL = MetricFamily(
    "serving_incidents_total",
    "counter",
    (),
    help="Incidents handled by the manager.",
    doc="incidents handled by the manager",
)

SERVING_SUGGESTIONS_TOTAL = MetricFamily(
    "serving_suggestions_total",
    "counter",
    (),
    help="Decisions that suggested a responsible team.",
    doc="decisions that suggested a responsible team",
)

SERVING_MODEL_ABSTAINS_TOTAL = MetricFamily(
    "serving_model_abstains_total",
    "counter",
    ("team",),
    help="Healthy calls whose Scout abstained (model fallback).",
    doc="healthy calls whose Scout abstained (model fallback)",
)

SERVING_DEGRADED_INCIDENTS_TOTAL = MetricFamily(
    "serving_degraded_incidents_total",
    "counter",
    (),
    help="Incidents with at least one unhealthy Scout call.",
    doc="incidents with ≥1 unhealthy Scout call",
)

SERVING_HANDLE_LATENCY_SECONDS = MetricFamily(
    "serving_handle_latency_seconds",
    "histogram",
    (),
    help="End-to-end fan-out + composition latency per incident.",
    doc="end-to-end fan-out + composition latency",
    buckets=DEFAULT_LATENCY_BUCKETS,
)

SCOUT_BREAKER_TRANSITIONS_TOTAL = MetricFamily(
    "scout_breaker_transitions_total",
    "counter",
    ("team", "from_state", "to_state"),
    help="Circuit-breaker state transitions observed around calls.",
    doc=(
        "circuit-breaker transitions (the full CLOSED→OPEN→HALF_OPEN→CLOSED "
        "cycle)"
    ),
)

SCOUT_BREAKER_STATE = MetricFamily(
    "scout_breaker_state",
    "gauge",
    ("team",),
    help="Breaker state per team (0=closed, 1=half_open, 2=open).",
    doc="current breaker state (0=closed, 1=half_open, 2=open)",
)

SCOUT_PREDICTIONS_TOTAL = MetricFamily(
    "scout_predictions_total",
    "counter",
    ("team", "route"),
    help="Scout verdicts by pipeline route.",
    doc="Scout verdicts by pipeline route",
)

SCOUT_RETRY_ATTEMPTS_TOTAL = MetricFamily(
    "scout_retry_attempts_total",
    "counter",
    ("team",),
    help="Retried monitoring-pull attempts beyond the first.",
    doc="retried monitoring-pull attempts beyond the first",
)

MONITORING_QUERIES_TOTAL = MetricFamily(
    "monitoring_queries_total",
    "counter",
    ("kind",),
    help="Feature-builder monitoring-store matrix pulls by kind.",
    doc=(
        "feature-builder monitoring-store pulls (`series`, `event_counts`): "
        "one per matrix query of the per-call pull plan, which fetches "
        "every device a Scout call reads from one dataset at one incident "
        "time; event features and CPD+ read per-type counts, so "
        "materialized event pulls (`query_events`) come only from direct "
        "store calls, which this counter does not see"
    ),
)

MONITORING_CACHE_HITS_TOTAL = MetricFamily(
    "monitoring_cache_hits_total",
    "counter",
    ("kind",),
    help="Feature-builder reads served without a store pull.",
    doc=(
        "feature-builder reads served without a store pull of their own: "
        "CPD+ dataset reads (`series`, `event_counts`) served from the "
        "per-call pull plan it shares with the feature build, one per "
        "device each read covers (a feature build counts none); and "
        "feature vectors (`vector`) reused from the cross-incident memo, "
        "one per `features` call that pulled nothing"
    ),
)

TRAINING_PHASE_SECONDS = MetricFamily(
    "training_phase_seconds",
    "gauge",
    ("phase",),
    help="Wall-clock duration of the latest run of each training phase.",
    doc=(
        "latest duration of each training phase (`dataset_build`, `impute`, "
        "`cross_validate`, `forest_fit`, `selector_fit`, `cpd_fit`)"
    ),
)

TRAINING_RUNS_TOTAL = MetricFamily(
    "training_runs_total",
    "counter",
    (),
    help="Completed framework training runs.",
    doc="completed framework training runs",
)

INCIDENTS_GENERATED_TOTAL = MetricFamily(
    "incidents_generated_total",
    "counter",
    ("team",),
    help="Simulated incidents by responsible team.",
    doc="(`simulate`) incidents by responsible team",
)

INCIDENTS_MISROUTED_TOTAL = MetricFamily(
    "incidents_misrouted_total",
    "counter",
    (),
    help="Simulated incidents whose legacy routing took a wrong hop.",
    doc="(`simulate`) incidents whose legacy routing took a wrong hop",
)

STREAM_SUBMITTED_TOTAL = MetricFamily(
    "stream_submitted_total",
    "counter",
    ("severity",),
    help="Incidents offered to the stream server, by severity.",
    doc="(`stream`) arrivals offered to the admission queue",
)

STREAM_ADMITTED_TOTAL = MetricFamily(
    "stream_admitted_total",
    "counter",
    ("severity",),
    help="Incidents admitted to the queue, by severity.",
    doc="(`stream`) arrivals that entered the queue",
)

STREAM_SERVED_TOTAL = MetricFamily(
    "stream_served_total",
    "counter",
    ("severity",),
    help="Incidents served through the full Scout fan-out, by severity.",
    doc="(`stream`) incidents dequeued and fully served",
)

STREAM_SHED_TOTAL = MetricFamily(
    "stream_shed_total",
    "counter",
    ("reason", "severity"),
    help="Incidents shed instead of queued, by cause and severity.",
    doc="(`stream`) shed incidents by cause (`queue_full`, `slo_degraded`)",
)

STREAM_TRIAGE_SUGGESTIONS_TOTAL = MetricFamily(
    "stream_triage_suggestions_total",
    "counter",
    (),
    help="Shed incidents the selector-only fast path still routed.",
    doc="(`stream`) triage-policy sheds that still suggested a team",
)

STREAM_QUEUE_DEPTH = MetricFamily(
    "stream_queue_depth",
    "gauge",
    (),
    help="Incidents currently waiting in the queue.",
    doc="(`stream`) current admission-queue depth (the backpressure signal)",
)

STREAM_QUEUE_WAIT_SECONDS = MetricFamily(
    "stream_queue_wait_seconds",
    "histogram",
    (),
    help="Time from admission to the start of the Scout fan-out.",
    doc="(`stream`) per-incident wait between admission and service",
    buckets=STREAM_WAIT_BUCKETS,
)

STREAM_SLO_P99_SECONDS = MetricFamily(
    "stream_slo_p99_seconds",
    "gauge",
    ("stage",),
    help="Interval p99 per SLO stage at the latest check with enough samples.",
    doc="(`stream`) latest interval p99 per SLO stage",
)

STREAM_SLO_VIOLATIONS_TOTAL = MetricFamily(
    "stream_slo_violations_total",
    "counter",
    ("stage",),
    help="SLO checks whose interval p99 exceeded the stage budget.",
    doc="(`stream`) SLO checks whose interval p99 exceeded its budget",
)

SCOUT_MODEL_EPOCH = MetricFamily(
    "scout_model_epoch",
    "gauge",
    ("team",),
    help="Serving model generation per team (1 at register, +1 per swap).",
    doc=(
        "serving model epoch: 1 at `register`, +1 per hot-`swap` (decisions "
        "record the epoch that served them)"
    ),
)

SCOUT_SWAPS_TOTAL = MetricFamily(
    "scout_swaps_total",
    "counter",
    ("team",),
    help="Zero-downtime model hot-swaps applied per team.",
    doc="zero-downtime model hot-swaps landed",
)

SCOUT_SHADOW_CALLS_TOTAL = MetricFamily(
    "scout_shadow_calls_total",
    "counter",
    ("team", "status"),
    help="Shadow-candidate calls by outcome status.",
    doc="shadow-model predictions by outcome (shadows never affect routing)",
)

SCOUT_SHADOW_DIFFS_TOTAL = MetricFamily(
    "scout_shadow_diffs_total",
    "counter",
    ("team",),
    help="Healthy shadow answers that differ from production.",
    doc="shadow calls whose responsible-verdict differed from the primary's",
)

SCOUT_SHADOW_LATENCY_SECONDS = MetricFamily(
    "scout_shadow_latency_seconds",
    "histogram",
    ("team",),
    help="Latency of shadow-candidate calls (never on the serving path).",
    doc=(
        "shadow prediction latency on the manager clock (accounted separately "
        "from the primary's `scout_call_latency_seconds`)"
    ),
    buckets=DEFAULT_LATENCY_BUCKETS,
)

FLEET_TEAMS = MetricFamily(
    "fleet_teams",
    "gauge",
    (),
    help="Team Scouts registered in the fleet.",
    doc="(`fleet`) team Scouts registered in the fleet",
)

FLEET_SHARDS = MetricFamily(
    "fleet_shards",
    "gauge",
    (),
    help="Scout shards the fleet fans out over.",
    doc="(`fleet`) Scout shards the fleet fans out over",
)

FLEET_INCIDENTS_TOTAL = MetricFamily(
    "fleet_incidents_total",
    "counter",
    (),
    help="Incidents routed by the fleet.",
    doc="(`fleet`) incidents routed by the fleet",
)

FLEET_DECISIONS_TOTAL = MetricFamily(
    "fleet_decisions_total",
    "counter",
    ("result",),
    help="Fleet decisions by result (suggested vs. legacy fallback).",
    doc="(`fleet`) decisions by outcome (`suggested`, `legacy_fallback`)",
)

FLEET_REROUTES_TOTAL = MetricFamily(
    "fleet_reroutes_total",
    "counter",
    (),
    help="Re-route chain hops taken past bouncing or broken candidates.",
    doc=(
        "(`fleet`) re-route chain hops taken past bouncing or broken "
        "candidates"
    ),
)

FLEET_SCOUT_ANSWERS_TOTAL = MetricFamily(
    "fleet_scout_answers_total",
    "counter",
    ("status",),
    help="Per-Scout fleet call outcomes.",
    doc=(
        "(`fleet`) per-Scout call outcomes (`ok`, `error`, `retry`, "
        "`breaker_open`)"
    ),
)

FLEET_BREAKERS_OPEN = MetricFamily(
    "fleet_breakers_open",
    "gauge",
    (),
    help="Fleet Scouts currently behind an open breaker.",
    doc="(`fleet`) Scouts currently behind an open breaker",
)

FLEET_ROUTE_LATENCY_SECONDS = MetricFamily(
    "fleet_route_latency_seconds",
    "histogram",
    (),
    help="Wall time per route_trace call on the injected clock.",
    doc="(`fleet`) wall time per `route_trace` call on the injected clock",
    buckets=DEFAULT_LATENCY_BUCKETS,
)

FAMILIES = (
    SCOUT_CALLS_TOTAL,
    SCOUT_CALL_LATENCY_SECONDS,
    SERVING_INCIDENTS_TOTAL,
    SERVING_SUGGESTIONS_TOTAL,
    SERVING_MODEL_ABSTAINS_TOTAL,
    SERVING_DEGRADED_INCIDENTS_TOTAL,
    SERVING_HANDLE_LATENCY_SECONDS,
    SCOUT_BREAKER_TRANSITIONS_TOTAL,
    SCOUT_BREAKER_STATE,
    SCOUT_PREDICTIONS_TOTAL,
    SCOUT_RETRY_ATTEMPTS_TOTAL,
    MONITORING_QUERIES_TOTAL,
    MONITORING_CACHE_HITS_TOTAL,
    TRAINING_PHASE_SECONDS,
    TRAINING_RUNS_TOTAL,
    INCIDENTS_GENERATED_TOTAL,
    INCIDENTS_MISROUTED_TOTAL,
    STREAM_SUBMITTED_TOTAL,
    STREAM_ADMITTED_TOTAL,
    STREAM_SERVED_TOTAL,
    STREAM_SHED_TOTAL,
    STREAM_TRIAGE_SUGGESTIONS_TOTAL,
    STREAM_QUEUE_DEPTH,
    STREAM_QUEUE_WAIT_SECONDS,
    STREAM_SLO_P99_SECONDS,
    STREAM_SLO_VIOLATIONS_TOTAL,
    SCOUT_MODEL_EPOCH,
    SCOUT_SWAPS_TOTAL,
    SCOUT_SHADOW_CALLS_TOTAL,
    SCOUT_SHADOW_DIFFS_TOTAL,
    SCOUT_SHADOW_LATENCY_SECONDS,
    FLEET_TEAMS,
    FLEET_SHARDS,
    FLEET_INCIDENTS_TOTAL,
    FLEET_DECISIONS_TOTAL,
    FLEET_REROUTES_TOTAL,
    FLEET_SCOUT_ANSWERS_TOTAL,
    FLEET_BREAKERS_OPEN,
    FLEET_ROUTE_LATENCY_SECONDS,
)

_BY_NAME = {family.name: family for family in FAMILIES}


def family_of(name: str) -> MetricFamily | None:
    """The declared family of a family or exposition series name.

    A histogram's series suffixes (``_bucket``/``_count``/``_sum``) fold
    to its family name; None when nothing declared matches.
    """
    if name in _BY_NAME:
        return _BY_NAME[name]
    for suffix in SERIES_SUFFIXES:
        family = _BY_NAME.get(name.removesuffix(suffix))
        if family is not None and family.kind == "histogram":
            return family
    return None


def markdown_table() -> str:
    """The README metric table: one row per family, in declaration order."""
    lines = ["| Metric | Type | Labels | Meaning |", "|---|---|---|---|"]
    for family in FAMILIES:
        labels = ", ".join(f"`{label}`" for label in family.labels) or "—"
        lines.append(
            f"| `{family.name}` | {family.kind} | {labels} | {family.doc} |"
        )
    return "\n".join(lines) + "\n"
