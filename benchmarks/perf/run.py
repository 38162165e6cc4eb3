"""Times the Scout pipeline's expensive stages on a fixed workload.

The harness exists to catch performance regressions: every stage that
the optimization work targets — dataset featurization, forest training,
batched ``predict_proba``, and single-incident serving — is timed on
the standard bench workload (seed 7, 2000 incidents over 270 days) and
compared against the committed seed-implementation numbers in
``baseline_seed.json``.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.perf.run            # full workload
    PYTHONPATH=src python -m benchmarks.perf.run --quick    # CI smoke
    PYTHONPATH=src python -m benchmarks.perf.run --jobs 4

Output schema (written to ``BENCH_scout.json`` at the repo root)::

    {
      "workload":  {seed, duration_days, n_incidents, n_usable, n_features},
      "n_jobs":    resolved worker count,
      "before":    seed-implementation metrics (baseline_seed.json),
      "after":     metrics measured by this run,
      "speedup":   before/after ratios per metric (and train_plus_build)
    }

Metrics (all wall-clock seconds):

* ``dataset_build_seconds``   — ``ScoutFramework.dataset`` over the history
* ``framework_train_seconds`` — ``ScoutFramework.train`` (CV + final fit)
* ``forest_fit_seconds``      — a bare 120-tree ``RandomForestClassifier.fit``
* ``batch_predict_seconds``   — ``predict_proba`` over every usable incident
* ``scout_predict_seconds_mean`` — mean live ``Scout.predict`` per
  incident (each prediction pulls its own windows: every memo of the
  builder, the feature-vector memo included, is cleared before a lap)
* ``eval_f1``                 — held-out F1, guarding against silent
  accuracy loss from a "fast but wrong" change
* ``serve_serial_ips`` / ``serve_batch_ips`` / ``serve_batch_speedup`` /
  ``serve_cache_hit_rate`` — the serve-throughput bench (an outage-storm
  burst through a ``handle`` loop vs ``handle_batch``, itself a
  ``handle`` loop, so the speedup sits at about 1.0; see
  ``serve_throughput.py``).  Throughput
  metrics are higher-is-better: the ``--check-against`` gate flags them
  when they fall *below* the committed numbers by more than the
  tolerance.
* ``stream_soak_ips`` / ``stream_soak_shed_rate`` /
  ``stream_soak_p99_seconds`` — the open-loop streaming soak (a 10⁵
  Poisson arrival trace at 1.5x utilization through the stream server's
  admission queue, shedding, and SLO checks; see ``stream_soak.py``).
  The shed rate and p99 run on a fake clock and are deterministic; the
  wall-clock ``stream_soak_ips`` joins the higher-is-better gate.
* ``fleet_accuracy`` / ``fleet_legacy_accuracy`` / ``fleet_ips`` /
  ``fleet_speedup_x`` / ``fleet_decision_log_identical`` — the fleet
  routing bench (a 120-team Scout fleet behind the Master policy,
  scored through a process pool with a simulated monitoring-fetch
  stall; see ``fleet_routing.py``).  ``fleet_ips`` and
  ``fleet_speedup_x`` join the higher-is-better gate; the determinism
  flag asserts byte-identical decision logs across worker counts.
  ``fleet_speedup_x`` measures how well the pool overlaps the stall;
  ``fleet_score_ips`` (in-process, no stall) measures the scoring work
  itself and is reported ungated until ``BENCH_scout.json`` records it.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.config import phynet_config
from repro.core import ScoutFramework, TrainingOptions
from repro.ml import RandomForestClassifier, imbalance_aware_split
from repro.obs import Observability
from repro.simulation import CloudSimulation, SimulationConfig

from .fleet_routing import run_fleet_bench
from .serve_throughput import run_serve_bench
from .stream_soak import run_stream_soak

_REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_BASELINE = Path(__file__).resolve().parent / "baseline_seed.json"

# The standard bench workload; --quick shrinks it for CI smoke runs.
SEED = 7
DURATION_DAYS = 270.0
N_INCIDENTS = 2000


def run_bench(
    seed: int = SEED,
    duration_days: float = DURATION_DAYS,
    n_incidents: int = N_INCIDENTS,
    n_jobs: int | None = None,
    predict_samples: int = 20,
    serve_distinct: int = 6,
    serve_repeats: int = 5,
    soak_incidents: int = 100_000,
    fleet_teams: int = 120,
    fleet_trace: int = 256,
    fleet_calibration: int = 128,
    fleet_stall: float = 0.1,
) -> dict:
    """Time every stage once and return the metric dict."""
    out: dict = {}
    sim = CloudSimulation(SimulationConfig(seed=seed, duration_days=duration_days))
    incidents = sim.generate(n_incidents)

    framework = ScoutFramework(
        phynet_config(),
        sim.topology,
        sim.store,
        TrainingOptions(n_estimators=120, cv_folds=3, rng=0, n_jobs=n_jobs),
        # Instrumentation stays on for the bench: the timed numbers must
        # include the metrics/tracing overhead the serving path pays, so
        # an observability regression trips the tolerance gate too.
        obs=Observability(),
    )
    start = time.perf_counter()
    data = framework.dataset(incidents)
    out["dataset_build_seconds"] = time.perf_counter() - start

    usable = data.usable()
    train_idx, test_idx = imbalance_aware_split(usable.y, rng=3)
    train, test = usable.subset(train_idx), usable.subset(test_idx)

    start = time.perf_counter()
    scout = framework.train(train)
    out["framework_train_seconds"] = time.perf_counter() - start

    X = scout.imputer.transform(usable.X)
    y = usable.y
    forest = RandomForestClassifier(n_estimators=120, rng=1, n_jobs=n_jobs)
    start = time.perf_counter()
    forest.fit(X, y)
    out["forest_fit_seconds"] = time.perf_counter() - start

    start = time.perf_counter()
    forest.predict_proba(X)
    out["batch_predict_seconds"] = time.perf_counter() - start
    out["batch_predict_rows"] = int(X.shape[0])

    laps = []
    for example in test.examples[:predict_samples]:
        # The dataset build just featurized these incidents with this
        # builder: a lap must time a full predict, not a memo hit.
        scout.builder.clear_cache()
        start = time.perf_counter()
        scout.predict(example.incident)
        laps.append(time.perf_counter() - start)
    out["scout_predict_seconds_mean"] = float(np.mean(laps)) if laps else 0.0

    report = framework.evaluate(scout, test)
    out["eval_f1"] = report.f1

    storm = [example.incident for example in test.examples[:serve_distinct]]
    out.update(run_serve_bench(scout, sim.registry, storm, repeats=serve_repeats))

    out.update(run_stream_soak(soak_incidents))

    out.update(
        run_fleet_bench(
            n_teams=fleet_teams,
            trace_incidents=fleet_trace,
            calibration_incidents=fleet_calibration,
            io_stall_s=fleet_stall,
        )
    )

    out["workload"] = {
        "seed": seed,
        "duration_days": duration_days,
        "n_incidents": n_incidents,
        "n_usable": len(usable),
        "n_features": int(X.shape[1]),
    }
    return out


_SPEEDUP_KEYS = {
    "dataset_build": "dataset_build_seconds",
    "framework_train": "framework_train_seconds",
    "forest_fit": "forest_fit_seconds",
    "batch_predict": "batch_predict_seconds",
    "scout_predict": "scout_predict_seconds_mean",
}

# Higher-is-better throughput metrics: the tolerance gate flags
# these when they fall *below* the committed numbers.  The fleet keys
# gate the process pool itself: fleet_ips is pooled routing throughput
# and fleet_speedup_x the pooled-over-serial wall ratio — a scheduling
# or serialization regression shows up as either falling.
_THROUGHPUT_KEYS = (
    "serve_serial_ips",
    "serve_batch_ips",
    "stream_soak_ips",
    "fleet_ips",
    "fleet_speedup_x",
)


def check_tolerance(
    after: dict, committed: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Regression check of this run against committed metrics.

    Returns ``(violations, skipped)``: violation messages for every
    timing metric that is more than ``tolerance`` (fractional) slower
    than the committed number, and for an ``eval_f1`` drop beyond 0.02
    — the resilience/serving wrappers must not regress the healthy fast
    path.  A metric present on only one side (a bench gained or lost a
    stage between commits) cannot be compared; it is *skipped with a
    warning* rather than silently ignored, so a renamed metric does not
    quietly disable its own gate.
    """
    violations: list[str] = []
    skipped: list[str] = []

    def _comparable(key: str) -> bool:
        ref, cur = committed.get(key), after.get(key)
        if not ref and not cur:
            return False  # absent on both sides: nothing to say
        if not ref or not cur:
            side = "committed baseline" if not ref else "this run"
            skipped.append(
                f"{key}: missing from {side}; skipping comparison"
            )
            return False
        return True

    for key in _SPEEDUP_KEYS.values():
        if not _comparable(key):
            continue
        ref = committed[key]
        limit = ref * (1.0 + tolerance)
        if after[key] > limit:
            violations.append(
                f"{key}: {after[key]:.3f}s exceeds committed "
                f"{ref:.3f}s by more than {tolerance:.0%}"
            )
    for key in _THROUGHPUT_KEYS:
        if not _comparable(key):
            continue
        ref = committed[key]
        floor = ref * (1.0 - tolerance)
        if after[key] < floor:
            violations.append(
                f"{key}: {after[key]:.1f} incidents/s fell below committed "
                f"{ref:.1f} by more than {tolerance:.0%}"
            )
    ref_f1 = committed.get("eval_f1")
    if ref_f1 is not None and after.get("eval_f1") is not None:
        if after["eval_f1"] < ref_f1 - 0.02:
            violations.append(
                f"eval_f1: {after['eval_f1']:.4f} fell more than 0.02 "
                f"below committed {ref_f1:.4f}"
            )
    elif ref_f1 is not None or after.get("eval_f1") is not None:
        side = "committed baseline" if ref_f1 is None else "this run"
        skipped.append(
            f"eval_f1: missing from {side}; skipping comparison"
        )
    return violations, skipped


def compare(before: dict, after: dict) -> dict:
    """before/after wall-clock ratios (>1 means the change is faster)."""
    speedup = {}
    for label, key in _SPEEDUP_KEYS.items():
        if key in before and after.get(key):
            speedup[label] = round(before[key] / after[key], 3)
    both = ("dataset_build_seconds", "framework_train_seconds")
    if all(k in before and k in after for k in both):
        speedup["train_plus_build"] = round(
            sum(before[k] for k in both) / sum(after[k] for k in both), 3
        )
    return speedup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf.run", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload (CI smoke): 80 incidents over 60 days",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker count for fitting/featurization (default: all cores)",
    )
    parser.add_argument(
        "--out", type=Path, default=_REPO_ROOT / "BENCH_scout.json",
        help="output path (default: BENCH_scout.json at the repo root)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=_BASELINE,
        help="baseline metrics JSON to compare against ('' to skip)",
    )
    parser.add_argument(
        "--check-against", type=Path, default=None,
        help="committed bench JSON (e.g. BENCH_scout.json): exit 1 when "
        "this run's timings exceed its 'after' numbers by --tolerance",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.10,
        help="allowed fractional slowdown for --check-against "
        "(default 0.10 = 10%%)",
    )
    args = parser.parse_args(argv)

    # Snapshot the committed numbers up front: with the default --out
    # both paths are BENCH_scout.json, and reading the gate's reference
    # after writing this run's results would compare the run to itself.
    committed = None
    if args.check_against is not None:
        committed = json.loads(args.check_against.read_text())

    if args.quick:
        after = run_bench(
            duration_days=60.0, n_incidents=80, n_jobs=args.jobs,
            predict_samples=5, serve_distinct=4, serve_repeats=3,
            soak_incidents=4000, fleet_teams=100, fleet_trace=96,
            fleet_calibration=48, fleet_stall=0.05,
        )
    else:
        after = run_bench(n_jobs=args.jobs)

    from repro.ml import resolve_n_jobs

    result = {
        "workload": after.pop("workload"),
        "n_jobs": resolve_n_jobs(args.jobs),
        "after": after,
    }
    baseline_path = Path(args.baseline) if str(args.baseline) else None
    if baseline_path and baseline_path.exists() and not args.quick:
        before = json.loads(baseline_path.read_text())
        before.pop("workload", None)
        result["before"] = before
        result["speedup"] = compare(before, after)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"\nwritten to {args.out}")

    if committed is not None:
        committed_after = committed.get("after", committed)
        committed_workload = committed.get("workload")
        if committed_workload and committed_workload != result["workload"]:
            print(
                f"error: --check-against workload {committed_workload} "
                f"does not match this run's {result['workload']}; "
                "run the same workload (no --quick mismatch) to compare"
            )
            return 2
        violations, skipped = check_tolerance(
            after, committed_after, args.tolerance
        )
        for warning in skipped:
            print(f"warning: {warning}")
        if violations:
            print(f"PERF REGRESSION vs {args.check_against}:")
            for violation in violations:
                print(f"  {violation}")
            return 1
        print(
            f"within {args.tolerance:.0%} tolerance of {args.check_against}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
