"""Command-line interface for the Scouts reproduction.

The subcommands cover the operator workflow end to end::

    repro-scouts simulate --seed 7 --incidents 500 --out incidents.json
    repro-scouts train    --seed 7 --incidents 500 --out phynet.scout
    repro-scouts evaluate --seed 7 --incidents 500 --model phynet.scout
    repro-scouts route    --seed 7 --model phynet.scout --text "..." [--time T]
    repro-scouts serve    --seed 7 --incidents 200 --model phynet.scout
    repro-scouts stream   --seed 7 --incidents 200 --model phynet.scout \
                          --arrival-rate 50 --queue-cap 32 --shed-policy triage
    repro-scouts publish  --seed 7 --registry ./registry --model phynet.scout
    repro-scouts promote  --seed 7 --registry ./registry --team PhyNet \
                          --candidate 2 --shadow-eval

``simulate`` writes an incident dataset (JSON) for inspection; ``train``
builds and persists a PhyNet Scout; ``evaluate`` reports §7-style
accuracy; ``route`` runs one ad-hoc incident through a saved Scout and
prints the operator report; ``serve`` replays a simulated incident
stream through the §6 incident manager in suggestion mode, with the
serving resilience knobs (``--scout-deadline``, circuit breakers,
retry) and optional monitoring fault injection exposed; ``stream``
replays the same incidents as an open-loop arrival process through the
streaming ingestion tier (bounded admission queue, severity-priority
scheduling, load shedding, per-stage p99 SLO budgets).  ``simulate``,
``serve``, and ``stream`` accept ``--metrics`` / ``--metrics-out PATH``
to emit a Prometheus-style exposition of everything the run counted.

``publish`` lint-gates a trained bundle into a versioned model registry
(manifest with SHA-256 digest and config/schema hashes); ``promote``
optionally shadow-evaluates a candidate version against the active one
on replayed traffic and moves the ``ACTIVE`` pointer when the candidate
clears the agreement/error thresholds.  ``serve`` and ``stream`` accept
``--registry DIR`` in place of ``--model`` (active versions load with
digest verification), ``--shadow TEAM=VERSION`` for side-by-side
candidate serving, and ``--decision-log PATH`` for a replay-comparable
JSON-lines record of every decision (including per-team model epochs);
``stream --swap TEAM=VERSION@N`` hot-swaps a registry version in after
the N-th served incident — mid-stream, with zero shedding.

Because the monitoring plane is deterministic in the seed, a Scout
trained with ``--seed 7`` can be reloaded against a fresh ``--seed 7``
simulation and see the same signals — no monitoring snapshots needed.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .analysis import availability_from_registry, slo_report
from .config import phynet_config, team_scout_configs
from .core import ScoutFramework, TrainingOptions, load_scout, save_scout
from .incidents import Incident, IncidentSource, Severity
from .ml import imbalance_aware_split
from .monitoring import FakeClock, FaultPlan, FaultyStore
from .obs import Observability, catalog
from .serving import (
    BreakerPolicy,
    IncidentManager,
    RetryPolicy,
    StreamServer,
    poisson_arrivals,
)
from .simulation import CloudSimulation, SimulationConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scouts",
        description="Scouts (SIGCOMM 2020) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=7, help="simulation seed")
        p.add_argument(
            "--days", type=float, default=120.0, help="history length (days)"
        )
        p.add_argument(
            "--incidents", type=int, default=500, help="incident count"
        )

    def jobs_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for featurization/training (-1 = all cores)",
        )

    def metrics_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--metrics",
            action="store_true",
            help="print Prometheus-style metrics exposition on exit",
        )
        p.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="also write the metrics exposition to this file",
        )

    def model_source_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--model",
            action="append",
            default=None,
            help="saved Scout path (repeat to register several teams); "
            "optional when --registry is given",
        )
        p.add_argument(
            "--registry",
            default=None,
            metavar="DIR",
            help="model registry directory: register the digest-verified "
            "ACTIVE version of every published team",
        )
        p.add_argument(
            "--shadow",
            action="append",
            default=[],
            metavar="TEAM=VERSION",
            help="shadow-serve a registry version next to TEAM's live "
            "Scout (repeatable; requires --registry); shadows never "
            "affect routing",
        )
        p.add_argument(
            "--decision-log",
            default=None,
            metavar="PATH",
            help="write one sorted-key JSON line per serving decision "
            "(incident id, suggestion, per-team statuses and model "
            "epochs) — byte-comparable across same-seed runs",
        )

    p_sim = sub.add_parser("simulate", help="generate an incident dataset")
    common(p_sim)
    p_sim.add_argument("--out", required=True, help="output JSON path")
    metrics_flags(p_sim)

    p_train = sub.add_parser("train", help="train and save the PhyNet Scout")
    common(p_train)
    jobs_flag(p_train)
    p_train.add_argument("--out", required=True, help="output model path")
    p_train.add_argument(
        "--team",
        default="PhyNet",
        choices=["PhyNet", "Storage", "SLB", "DNS", "Database"],
        help="which team's Scout to train",
    )
    p_train.add_argument("--trees", type=int, default=80)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved Scout")
    common(p_eval)
    jobs_flag(p_eval)
    p_eval.add_argument("--model", required=True, help="saved Scout path")

    p_route = sub.add_parser("route", help="route one ad-hoc incident")
    p_route.add_argument("--seed", type=int, default=7)
    p_route.add_argument("--days", type=float, default=120.0)
    p_route.add_argument("--model", required=True)
    p_route.add_argument("--text", required=True, help="incident description")
    p_route.add_argument(
        "--time",
        type=float,
        default=None,
        help="incident timestamp in seconds (default: end of history)",
    )

    p_serve = sub.add_parser(
        "serve", help="replay incidents through the §6 incident manager"
    )
    common(p_serve)
    model_source_flags(p_serve)
    p_serve.add_argument(
        "--scout-deadline",
        type=float,
        default=None,
        help="per-Scout call budget in seconds (over-budget answers "
        "degrade to abstains; default: no deadline)",
    )
    p_serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive failures before a Scout's circuit breaker "
        "opens (0 disables breakers)",
    )
    p_serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        help="seconds an open breaker waits before a half-open probe",
    )
    p_serve.add_argument(
        "--retry-attempts",
        type=int,
        default=1,
        help="attempts per monitoring pull (1 = no retry)",
    )
    p_serve.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        help="base backoff seconds between retry attempts",
    )
    p_serve.add_argument(
        "--inject-error-rate",
        type=float,
        default=0.0,
        help="fault-injection: deterministic per-query monitoring "
        "failure probability",
    )
    p_serve.add_argument(
        "--inject-seed",
        type=int,
        default=0,
        help="seed for the injected-fault schedule",
    )
    metrics_flags(p_serve)

    p_stream = sub.add_parser(
        "stream",
        help="replay incidents as an open-loop arrival stream with "
        "admission control, load shedding, and SLO budgets",
    )
    common(p_stream)
    model_source_flags(p_stream)
    p_stream.add_argument(
        "--swap",
        action="append",
        default=[],
        metavar="TEAM=VERSION@N",
        help="hot-swap TEAM to a registry version after the N-th served "
        "incident (repeatable; requires --registry) — lands mid-stream "
        "with zero shedding, stamping later decisions with a new epoch",
    )
    p_stream.add_argument(
        "--arrival-rate",
        type=float,
        default=50.0,
        help="open-loop Poisson arrival rate (incidents/second of "
        "stream time)",
    )
    p_stream.add_argument(
        "--arrival-seed",
        type=int,
        default=0,
        help="seed for the arrival-trace inter-arrival draws",
    )
    p_stream.add_argument(
        "--queue-cap",
        type=int,
        default=64,
        help="admission-queue capacity; arrivals beyond it shed",
    )
    p_stream.add_argument(
        "--shed-policy",
        choices=["legacy", "triage"],
        default="legacy",
        help="what a shed incident degrades to: the legacy router "
        "(no Scout work) or the selector-only triage fast path",
    )
    p_stream.add_argument(
        "--slo-p99",
        action="append",
        default=[],
        metavar="STAGE=SECONDS",
        help="p99 latency budget per stage (handle, scout, queue); "
        "repeatable.  A violating interval flips the stream into "
        "degraded mode (sub-HIGH arrivals shed at admission).",
    )
    p_stream.add_argument(
        "--service-time",
        type=float,
        default=0.0,
        help="deterministic per-incident service time on the stream "
        "clock (models load; the stream runs on a fake clock)",
    )
    p_stream.add_argument(
        "--inject-error-rate",
        type=float,
        default=0.0,
        help="fault-injection: deterministic per-query monitoring "
        "failure probability",
    )
    p_stream.add_argument(
        "--inject-seed",
        type=int,
        default=0,
        help="seed for the injected-fault schedule",
    )
    metrics_flags(p_stream)

    p_fleet = sub.add_parser(
        "fleet",
        help="route a workload through a 50-200 team Scout fleet: "
        "Master policy (calibration, top-k, re-route chains) over "
        "sharded multi-process Scout scoring",
    )
    common(p_fleet)
    p_fleet.add_argument(
        "--teams",
        type=int,
        default=120,
        help="fleet size: region-qualified team Scouts generated from "
        "the simulation's team roster",
    )
    p_fleet.add_argument(
        "--fleet-seed",
        type=int,
        default=0,
        help="roster-generation seed (also seeds every fleet draw)",
    )
    p_fleet.add_argument(
        "--fleet-workers",
        type=int,
        default=1,
        help="concurrent scoring tasks (with --processes, the process-"
        "pool size)",
    )
    p_fleet.add_argument(
        "--processes",
        action="store_true",
        help="score Scout shards on a process pool (byte-identical "
        "to in-process serving; a throughput knob, not a semantics "
        "knob)",
    )
    p_fleet.add_argument(
        "--shard-count",
        type=int,
        default=8,
        help="Scout shards per incident chunk (fixed independently of "
        "worker count so logs and metrics never depend on the pool)",
    )
    p_fleet.add_argument(
        "--top-k",
        type=int,
        default=3,
        help="candidate teams ranked per decision by calibrated "
        "confidence",
    )
    p_fleet.add_argument(
        "--calibration",
        type=int,
        default=200,
        help="labeled incidents used to fit the cross-team reliability "
        "curve before serving (0 = uncalibrated)",
    )
    p_fleet.add_argument(
        "--failure-rate",
        type=float,
        default=0.0,
        help="deterministic per-attempt transient Scout-failure "
        "probability (exercises retry and breakers)",
    )
    p_fleet.add_argument(
        "--real-clock",
        action="store_true",
        help="measure latencies on the wall clock instead of the "
        "deterministic fake clock (breaks byte-comparability of the "
        "metrics exposition)",
    )
    p_fleet.add_argument(
        "--decision-log",
        default=None,
        metavar="PATH",
        help="write one sorted-key JSON line per fleet decision "
        "(candidates, re-route chain, suggestion) — byte-comparable "
        "across same-seed runs at any worker count",
    )
    metrics_flags(p_fleet)

    p_publish = sub.add_parser(
        "publish",
        help="lint-gate a trained Scout bundle into a model registry "
        "as the team's next version",
    )
    common(p_publish)
    p_publish.add_argument(
        "--registry", required=True, metavar="DIR", help="registry directory"
    )
    p_publish.add_argument(
        "--model", required=True, help="saved Scout bundle to publish"
    )
    p_publish.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the scoutlint pre-flight (not recommended)",
    )
    p_publish.add_argument(
        "--activate",
        action="store_true",
        help="point the team's ACTIVE version at this publish "
        "(default: only the first publish self-activates)",
    )
    p_publish.add_argument(
        "--note",
        default=None,
        help="free-form provenance note recorded in the manifest",
    )

    p_promote = sub.add_parser(
        "promote",
        help="move a team's ACTIVE pointer to a candidate version, "
        "optionally gated on a shadow evaluation",
    )
    common(p_promote)
    p_promote.add_argument(
        "--registry", required=True, metavar="DIR", help="registry directory"
    )
    p_promote.add_argument("--team", required=True, help="team to promote")
    p_promote.add_argument(
        "--candidate",
        type=int,
        default=None,
        metavar="VERSION",
        help="candidate version (default: the latest published)",
    )
    p_promote.add_argument(
        "--shadow-eval",
        action="store_true",
        help="replay simulated incidents with the candidate shadowing "
        "the active version; promote only if the report clears the "
        "agreement/error thresholds",
    )
    p_promote.add_argument(
        "--agreement-floor",
        type=float,
        default=0.98,
        help="minimum candidate/active agreement rate over comparable "
        "verdicts for a shadow-gated promotion",
    )
    p_promote.add_argument(
        "--max-error-rate",
        type=float,
        default=0.02,
        help="maximum candidate error+timeout rate for a shadow-gated "
        "promotion",
    )
    p_promote.add_argument(
        "--force",
        action="store_true",
        help="promote even when the shadow evaluation says HOLD",
    )
    p_promote.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write the shadow promotion report as JSON to this file",
    )

    # The lint subcommand owns its argument surface; main() hands the
    # remaining argv straight to repro.lint.cli.  The stub keeps the
    # command visible in --help.
    sub.add_parser(
        "lint",
        help="static analysis for Scout configs and pipeline invariants "
        "(see `lint --help`)",
        add_help=False,
    )
    return parser


def _emit_metrics(args, obs: Observability) -> None:
    """Honor ``--metrics`` / ``--metrics-out`` for an instrumented run."""
    text = obs.render()
    if args.metrics:
        print()
        print(text, end="")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            handle.write(text)
        print(f"wrote metrics exposition to {args.metrics_out}")


def _simulation(args) -> CloudSimulation:
    return CloudSimulation(
        SimulationConfig(seed=args.seed, duration_days=args.days)
    )


def _config_for(team: str):
    if team == "PhyNet":
        return phynet_config()
    return team_scout_configs()[team]


def _cmd_simulate(args) -> int:
    sim = _simulation(args)
    incidents = sim.generate(args.incidents)
    with open(args.out, "w") as handle:
        handle.write(incidents.to_json())
    mis = sum(1 for i in incidents if incidents.trace(i.incident_id).mis_routed)
    print(
        f"wrote {len(incidents)} incidents ({mis} mis-routed) to {args.out}"
    )
    obs = Observability()
    by_team = obs.metrics.counter(catalog.INCIDENTS_GENERATED_TOTAL)
    for incident in incidents:
        by_team.inc(1, team=incident.responsible_team)
    obs.metrics.counter(catalog.INCIDENTS_MISROUTED_TOTAL).inc(mis)
    _emit_metrics(args, obs)
    return 0


def _cmd_train(args) -> int:
    sim = _simulation(args)
    incidents = sim.generate(args.incidents)
    framework = ScoutFramework(
        _config_for(args.team),
        sim.topology,
        sim.store,
        TrainingOptions(
            n_estimators=args.trees, cv_folds=2, rng=0, n_jobs=args.jobs
        ),
    )
    data = framework.dataset(incidents).usable()
    scout = framework.train(data)
    save_scout(scout, args.out)
    print(
        f"trained the {args.team} Scout on {len(data)} incidents; "
        f"saved to {args.out}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    sim = _simulation(args)
    incidents = sim.generate(args.incidents)
    scout = load_scout(args.model, sim.topology, sim.store)
    framework = ScoutFramework(
        scout.config,
        sim.topology,
        sim.store,
        TrainingOptions(n_jobs=args.jobs),
    )
    data = framework.dataset(incidents).usable()
    _, test_idx = imbalance_aware_split(data.y, rng=1)
    report = framework.evaluate(scout, data.subset(test_idx))
    print(f"{scout.team} Scout on {len(test_idx)} held-out incidents:")
    print(f"  {report}")
    return 0


def _cmd_route(args) -> int:
    sim = _simulation(args)
    # Materialize the background incident history so the monitoring
    # plane carries realistic effects.
    sim.generate(200)
    scout = load_scout(args.model, sim.topology, sim.store)
    t = args.time if args.time is not None else args.days * 86400.0
    incident = Incident(
        incident_id=0,
        created_at=t,
        title=args.text.splitlines()[0][:120],
        body=args.text,
        severity=Severity.MEDIUM,
        source=IncidentSource.CUSTOMER,
        source_team="",
        responsible_team="unknown",
    )
    prediction = scout.predict(incident)
    print(prediction.report(scout.team))
    return 0


def _parse_shadow_specs(specs: list[str]) -> list[tuple[str, int]]:
    parsed = []
    for spec in specs:
        team, _, version = spec.partition("=")
        if not team or not version.strip().isdigit():
            raise SystemExit(f"--shadow expects TEAM=VERSION, got {spec!r}")
        parsed.append((team, int(version)))
    return parsed


def _parse_swap_specs(specs: list[str]) -> list[tuple[str, int, int]]:
    parsed = []
    for spec in specs:
        team, _, rest = spec.partition("=")
        version, _, after = rest.partition("@")
        if (
            not team
            or not version.strip().isdigit()
            or not after.strip().isdigit()
        ):
            raise SystemExit(f"--swap expects TEAM=VERSION@N, got {spec!r}")
        parsed.append((team, int(version), int(after)))
    return parsed


def _register_models(args, manager, sim, store):
    """Register primaries from ``--model`` paths and/or ``--registry``.

    Explicit ``--model`` paths win; the registry then fills in the
    ACTIVE version of every published team not already registered.
    Returns the opened :class:`~repro.registry.ModelRegistry` (or None),
    which ``--shadow`` / ``--swap`` resolution needs afterwards.
    """
    registry = None
    if args.registry:
        from .registry import ModelRegistry

        registry = ModelRegistry(args.registry)
    if not args.model and registry is None:
        raise SystemExit("provide --model and/or --registry")
    for path in args.model or []:
        manager.register(load_scout(path, sim.topology, store))
    if registry is not None:
        for team in registry.teams():
            if team not in manager.registered_teams:
                manager.register(registry.load(team, sim.topology, store))
    for team, version in _parse_shadow_specs(args.shadow):
        if registry is None:
            raise SystemExit("--shadow requires --registry")
        manager.register_shadow(
            registry.load(team, sim.topology, store, version=version)
        )
    return registry


def _manager_records(manager: IncidentManager) -> list[dict]:
    """The replay-comparable record of each decision (ids,
    suggestions, statuses, epochs — no wall latencies)."""
    return [
        {
            "incident_id": decision.incident_id,
            "suggested_team": decision.suggested_team,
            "acted": decision.acted,
            "answers": {a.team: a.responsible for a in decision.answers},
            "statuses": {
                o.team: o.status.value for o in decision.outcomes
            },
            "model_epochs": dict(decision.model_epochs),
        }
        for decision in manager.log
    ]


def _write_decision_log(path: str, records: list[dict]) -> None:
    """Write one sorted-key JSON line per decision, atomically.

    The whole log is serialized first, written to a temp file beside
    ``path`` and renamed over it, so a failure at any point leaves the
    previous log intact, never a torn one.
    """
    import json
    from pathlib import Path

    from .core.persistence import _replace_bytes

    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    _replace_bytes(Path(path), text.encode("utf-8"))
    print(f"wrote {len(records)} decisions to {path}")


def _cmd_serve(args) -> int:
    sim = _simulation(args)
    incidents = sim.generate(args.incidents)
    store = sim.store
    if args.inject_error_rate > 0.0:
        store = FaultyStore(
            store,
            FaultPlan(
                seed=args.inject_seed, error_rate=args.inject_error_rate
            ),
        )
    breaker = (
        BreakerPolicy(
            failure_threshold=args.breaker_threshold,
            cooldown_seconds=args.breaker_cooldown,
        )
        if args.breaker_threshold > 0
        else None
    )
    retry = (
        RetryPolicy(
            max_attempts=args.retry_attempts,
            backoff_seconds=args.retry_backoff,
        )
        if args.retry_attempts > 1
        else None
    )
    manager = IncidentManager(
        sim.registry,
        suggestion_mode=True,
        scout_deadline=args.scout_deadline,
        breaker=breaker,
        retry=retry,
    )
    _register_models(args, manager, sim, store)
    print(
        f"serving {len(incidents)} incidents through "
        f"{len(manager.registered_teams)} Scout(s): "
        f"{', '.join(manager.registered_teams)}"
        + (f"; shadowing {', '.join(manager.shadow_teams)}"
           if manager.shadow_teams else "")
    )
    manager.handle_batch(list(incidents))
    for incident in incidents:
        manager.resolve(incident.incident_id, incident.responsible_team)
    print()
    print(availability_from_registry(manager.obs.metrics).render())
    print()
    for team in manager.registered_teams:
        stats = manager.stats(team)
        print(
            f"{team}: calls={stats.calls} yes={stats.said_yes} "
            f"no={stats.said_no} abstain={stats.abstained} "
            f"errors={stats.errors} timeouts={stats.timeouts} "
            f"breaker_skips={stats.breaker_open_skips} "
            f"breaker={stats.breaker_state} "
            f"availability={stats.availability:.3f} "
            f"mean_latency={stats.mean_latency * 1000.0:.1f}ms"
        )
    if manager.degraded_teams:
        print(f"degraded teams: {', '.join(manager.degraded_teams)}")
    truth = {i.incident_id: i.responsible_team for i in incidents}
    summary = manager.whatif_accuracy(truth)
    print(
        f"what-if: correct={summary['correct']:.3f} "
        f"wrong={summary['wrong']:.3f} abstained={summary['abstained']:.3f}"
    )
    if manager.shadow_teams:
        from .analysis import shadow_report

        for team in manager.shadow_teams:
            print()
            print(shadow_report(manager.shadow_log, team).render())
    if args.decision_log:
        _write_decision_log(args.decision_log, _manager_records(manager))
    _emit_metrics(args, manager.obs)
    return 0


def _parse_slo_budgets(pairs: list[str]) -> dict[str, float]:
    budgets: dict[str, float] = {}
    for pair in pairs:
        stage, _, value = pair.partition("=")
        if not value:
            raise SystemExit(
                f"--slo-p99 expects STAGE=SECONDS, got {pair!r}"
            )
        budgets[stage.strip()] = float(value)
    return budgets


def _cmd_stream(args) -> int:
    budgets = _parse_slo_budgets(args.slo_p99)  # fail fast on typos
    sim = _simulation(args)
    incidents = sim.generate(args.incidents)
    # The stream runs on a fake clock shared with fault injection, so
    # the same seed and arrival trace replay byte-identically; wall
    # time only shows up in the reported throughput.
    clock = FakeClock()
    store = sim.store
    if args.inject_error_rate > 0.0:
        store = FaultyStore(
            store,
            FaultPlan(
                seed=args.inject_seed, error_rate=args.inject_error_rate
            ),
            clock=clock,
        )
    manager = IncidentManager(
        sim.registry,
        suggestion_mode=True,
        clock=clock,
    )
    registry = _register_models(args, manager, sim, store)
    server = StreamServer(
        manager,
        queue_cap=args.queue_cap,
        shed_policy=args.shed_policy,
        slo=budgets or None,
        service_time=args.service_time,
    )
    swap_specs = _parse_swap_specs(args.swap)
    if swap_specs and registry is None:
        raise SystemExit("--swap requires --registry")
    for team, version, after in swap_specs:
        # Load (and digest-verify) the replacement up front; the swap
        # itself lands deterministically after the N-th served
        # incident, mid-stream, without shedding a single arrival.
        replacement = registry.load(team, sim.topology, store, version=version)
        server.schedule(
            after, lambda scout=replacement: manager.swap(scout)
        )
    offsets = poisson_arrivals(
        len(incidents), args.arrival_rate, seed=args.arrival_seed
    )
    arrivals = list(zip((float(o) for o in offsets), incidents))
    print(
        f"streaming {len(incidents)} incidents at "
        f"{args.arrival_rate:g}/s through "
        f"{len(manager.registered_teams)} Scout(s): "
        f"{', '.join(manager.registered_teams)} "
        f"(queue_cap={args.queue_cap}, shed={args.shed_policy})"
    )
    wall_start = time.perf_counter()
    server.run(arrivals)
    wall_seconds = time.perf_counter() - wall_start
    summary = server.summary()
    ips = summary["served"] / wall_seconds if wall_seconds > 0 else 0.0
    print(
        f"stream throughput: {ips:.1f} incidents/sec (wall), "
        f"{summary['served']} served, {summary['shed']} shed "
        f"(rate {summary['shed_rate']:.3f})"
    )
    if swap_specs:
        epochs = ", ".join(
            f"{team}=e{manager.model_epoch(team)}"
            for team, _, _ in swap_specs
        )
        print(f"hot-swaps landed: {epochs}")
    if manager.shadow_teams:
        from .analysis import shadow_report

        for team in manager.shadow_teams:
            print()
            print(shadow_report(manager.shadow_log, team).render())
    print()
    print(slo_report(manager.obs.metrics, budgets).render())
    if args.decision_log:
        _write_decision_log(args.decision_log, _manager_records(manager))
    _emit_metrics(args, manager.obs)
    return 0


def _cmd_fleet(args) -> int:
    from .monitoring import FakeClock
    from .serving import FleetServer, build_fleet_roster

    sim = _simulation(args)
    store = sim.generate(args.incidents + args.calibration)
    incidents = list(store)
    calibration = incidents[: args.calibration]
    trace = incidents[args.calibration:]

    roster = build_fleet_roster(args.teams, seed=args.fleet_seed)
    clock = None if args.real_clock else FakeClock()
    server = FleetServer(
        roster,
        workers=args.fleet_workers,
        use_processes=args.processes,
        shard_count=args.shard_count,
        top_k=args.top_k,
        failure_rate=args.failure_rate,
        clock=clock,
    )
    with server:
        samples = server.calibrate(calibration)
        server.route_trace(trace)
        summary = server.summary()
        # Legacy baseline from the simulation's own routing traces:
        # how often the stochastic hop chain started at the truth team.
        direct = sum(
            1
            for incident in trace
            if (t := store.trace(incident.incident_id)) is not None
            and t.hops
            and t.hops[0].team == incident.responsible_team
        )
        legacy_accuracy = direct / len(trace) if trace else 0.0
        mode = "process-pool" if args.processes else "in-process"
        print(
            f"fleet: {summary['teams']} team Scouts in "
            f"{summary['shards']} shards, {summary['workers']} "
            f"{mode} worker(s)"
        )
        print(
            f"calibration: {samples} labeled answers over "
            f"{len(calibration)} incidents"
        )
        print(
            f"routed {summary['incidents']} incidents: "
            f"accuracy {summary['accuracy']:.4f} "
            f"(legacy first-hop {legacy_accuracy:.4f}), "
            f"{summary['reroutes']} re-routes, "
            f"{summary['legacy_fallbacks']} legacy fallbacks, "
            f"{summary['breakers_open']} breakers open"
        )
        if args.decision_log:
            _write_decision_log(args.decision_log, server.decision_records())
        _emit_metrics(args, server.obs)
    return 0


def _cmd_publish(args) -> int:
    from .core.persistence import read_bundle
    from .lint import LintError
    from .registry import ModelRegistry

    sim = _simulation(args)
    # Materialize the incident history: the lint pre-flight and the
    # feature-schema digest both read the monitoring store's dataset
    # catalog, which fills as the simulation runs.
    sim.generate(args.incidents)
    registry = ModelRegistry(args.registry)
    bundle = read_bundle(args.model)
    training = {
        "seed": args.seed,
        "days": args.days,
        "incidents": args.incidents,
        "source": args.model,
    }
    if args.note:
        training["note"] = args.note
    try:
        manifest = registry.publish_bundle(
            bundle,
            sim.store,
            lint=not args.no_lint,
            training=training,
            activate=True if args.activate else "auto",
        )
    except LintError as exc:
        print(f"publish refused by the lint gate:\n{exc}")
        return 1
    active = registry.active_version(bundle.team)
    print(
        f"published {bundle.team} v{manifest.version} "
        f"({manifest.size_bytes} bytes, sha256 {manifest.sha256[:12]}…, "
        f"{manifest.n_features} features) to {args.registry}"
    )
    print(f"{bundle.team} ACTIVE is v{active}")
    return 0


def _cmd_promote(args) -> int:
    import json

    from .analysis import shadow_report
    from .registry import ModelRegistry

    registry = ModelRegistry(args.registry)
    team = args.team
    candidate = (
        args.candidate
        if args.candidate is not None
        else registry.latest_version(team)
    )
    if candidate is None:
        print(f"no published versions for {team} in {args.registry}")
        return 1
    registry.verify(team, candidate)  # digest gate before anything else
    active = registry.active_version(team)
    if args.shadow_eval and active is not None and active != candidate:
        sim = _simulation(args)
        incidents = sim.generate(args.incidents)
        manager = IncidentManager(
            sim.registry,
            suggestion_mode=True,
            clock=FakeClock(),
        )
        manager.register(
            registry.load(team, sim.topology, sim.store, version=active)
        )
        manager.register_shadow(
            registry.load(team, sim.topology, sim.store, version=candidate)
        )
        print(
            f"shadow-evaluating {team} v{candidate} against active "
            f"v{active} on {len(incidents)} replayed incidents"
        )
        for incident in incidents:
            manager.handle(incident)
        report = shadow_report(
            manager.shadow_log,
            team,
            agreement_floor=args.agreement_floor,
            max_error_rate=args.max_error_rate,
        )
        print()
        print(report.render())
        if args.report_out:
            with open(args.report_out, "w") as handle:
                json.dump(report.to_dict(), handle, sort_keys=True, indent=2)
                handle.write("\n")
            print(f"wrote shadow report to {args.report_out}")
        if not report.promote:
            if not args.force:
                print(f"holding: {team} ACTIVE stays at v{active}")
                return 1
            print("promoting despite HOLD (--force)")
    elif args.shadow_eval:
        print(
            "shadow evaluation skipped: no distinct active version "
            "to compare against"
        )
    registry.set_active(team, candidate)
    suffix = f" (was v{active})" if active is not None else ""
    print(f"{team} ACTIVE -> v{candidate}{suffix}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "route": _cmd_route,
    "serve": _cmd_serve,
    "stream": _cmd_stream,
    "fleet": _cmd_fleet,
    "publish": _cmd_publish,
    "promote": _cmd_promote,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        from .lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
