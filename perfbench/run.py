"""End-to-end routing benchmark: one command for every workload.

Run from the repository root::

    python3 perfbench/run.py --workload storm --seed 1 --seconds 15 --trace 0

``--workload`` is ``storm``, ``stream`` or ``fleet`` (see
``perfbench/workloads.py`` and ``BENCHMARK.json`` for why each exists).
The run sets the workload up several times and reports the median set-up
time, measures for ``--seconds``, checks the outputs against serial or
in-process references, and prints a table followed by one JSON line:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``.
* ``--trace 1``: the per-layer metrics.  The timed phase runs twice on
  the same inputs, untraced then traced, so ``trace_overhead`` is the
  traced serving time over the untraced one; the spans are written to
  ``.perfbench-out/`` at the end.

A failed output check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3

# The end-to-end metrics of BENCHMARK.json.  The run also prints
# latency_p95_s, accuracy and failed_ratio without reporting them: tail
# latency on a shared two-core host swings more between identical runs
# than the largest bound allows, storm's accuracy rests on a few dozen
# distinct incidents, and failed_ratio is 0 on a healthy run (failures
# are reported in the result's "failed" count).
END_TO_END_UNITS = {
    "setup_s": "s",
    "routed_per_s": "incidents/s",
    "cpu_ms_per_incident": "ms",
    "latency_p50_s": "s",
    "within_limit_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PRINTED_UNITS = {"latency_p95_s": "s", "failed_ratio": "ratio", "accuracy": "ratio"}

# Layers whose spans fall in the timed phase, reported per routed incident.
RUN_LAYERS = (
    "core.scout.predict",
    "core.extraction.extract",
    "core.selector.decide",
    "core.features.features",
    "ml.forest.predict_proba",
    "core.explain.explain_forest",
    "core.cpd_plus.predict",
    "simulation.scout_master.route",
    "serving.fleet.rank",
)
ROUTES = {"rf": "rf", "cpd+": "cpd", "excluded": "excluded", "fallback": "fallback"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("storm", "stream", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(cls, args, workdir, repeats):
    """Set the workload up ``repeats`` times; keep the last one."""
    times = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        started = perf_counter()
        workload = cls(args.seed, args.seconds, workdir)
        times.append(perf_counter() - started)
    return workload, statistics.median(times)


def _layer_metrics(tracer, untraced, traced) -> dict[str, tuple[float, str]]:
    run = tracer.layer_table("run")
    setup = tracer.layer_table("setup")
    n = traced.attempted

    def field(table, layer, name):
        return table.get(layer, {}).get(name, 0.0)

    out: dict[str, tuple[float, str]] = {}
    for layer in RUN_LAYERS:
        out[f"{layer}.calls"] = (field(run, layer, "calls") / n, "1/incident")
        out[f"{layer}.busy_s"] = (field(run, layer, "busy_s") / n, "s/incident")
    decided = sum(tracer.routes["run"].values())
    for route, name in ROUTES.items():
        share = tracer.routes["run"][route] / decided if decided else 0.0
        out[f"core.selector.route.{name}"] = (share, "ratio")
    out["core.features.cache_hit_ratio"] = (
        traced.layers.get("core.features.cache_hit_ratio", 0.0), "ratio")
    out["monitoring.store.queries"] = (field(run, "monitoring.store", "calls") / n, "1/incident")
    out["monitoring.store.busy_s"] = (field(run, "monitoring.store", "busy_s") / n, "s/incident")
    out["monitoring.store.shard_materializations"] = (
        traced.layers.get("monitoring.store.shard_materializations", 0.0) / n, "1/incident")
    out["core.framework.dataset.busy_s"] = (field(setup, "core.framework.dataset", "busy_s"), "s")
    out["core.framework.train.busy_s"] = (field(setup, "core.framework.train", "busy_s"), "s")
    out["ml.forest.fit.calls"] = (field(setup, "ml.forest.fit", "calls"), "count")
    out["ml.forest.fit.busy_s"] = (field(setup, "ml.forest.fit", "busy_s"), "s")
    out["serving.manager.self_s"] = (field(run, "serving.manager", "self_s") / n, "s/incident")
    for name, unit in (("due_latency_p50_s", "s"), ("due_latency_p95_s", "s"),
                       ("queue_wait_p50_s", "s"), ("queue_wait_p95_s", "s"),
                       ("generator_lag_p95_s", "s"), ("shed", "count"), ("idle_s", "s")):
        out[f"serving.stream.{name}"] = (traced.layers.get(f"serving.stream.{name}", 0.0), unit)
    out["serving.fleet.calibrate.busy_s"] = (field(setup, "serving.fleet.calibrate", "busy_s"), "s")
    out["serving.fleet.route_trace.busy_s"] = (
        field(run, "serving.fleet.route_trace", "busy_s") / n, "s/incident")
    out["serving.fleet.pool_wait_s"] = (
        field(run, "serving.fleet.pool_wait", "busy_s") / n, "s/incident")
    out["obs.span_calls"] = (tracer.obs_spans / n, "1/incident")
    out["obs.metric_updates"] = (tracer.obs_updates / n, "1/incident")
    out["obs.busy_s"] = (tracer.obs_seconds / n, "s/incident")
    out["trace_overhead"] = (traced.busy_s / untraced.busy_s, "ratio")
    covered = tracer.covered_seconds("run", traced.started, traced.started + traced.wall_s)
    out["unattributed_s"] = (max(0.0, traced.wall_s - covered) / n, "s/incident")
    return out


def _print_end_to_end(args, measurement, values) -> None:
    print(f"end-to-end: {args.workload}, seed {args.seed}, "
          f"{measurement.attempted} incidents attempted")
    for name in sorted(values):
        reported = name in END_TO_END_UNITS
        unit = END_TO_END_UNITS[name] if reported else PRINTED_UNITS[name]
        print(f"  {name:<22} {values[name]:>14.6f} {unit:<12}"
              f"{'' if reported else '(not reported)'}")
    for name in sorted(measurement.layers):
        print(f"  layer {name:<40} {measurement.layers[name]:>14.6f}")


def _print_layers(tracer, traced, args, layers) -> None:
    moves = json.loads((HERE / "interactions.json").read_text())["per_layer"]
    print(f"per-layer table: {args.workload}, seed {args.seed}, "
          f"{traced.attempted} incidents, {traced.wall_s:.3f} s timed")
    print(f"  {'phase':<6} {'layer':<34} {'calls':>9} {'busy_s':>10} {'self_s':>10}")
    for phase in ("setup", "run"):
        table = tracer.layer_table(phase)
        for layer in sorted(table):
            row = table[layer]
            print(f"  {phase:<6} {layer:<34} {row['calls']:>9d} {row['busy_s']:>10.4f}"
                  f" {row['self_s']:>10.4f}")
    print("layer metrics -> the end-to-end metric each should move (interactions.json):")
    for name in sorted(layers):
        value, unit = layers[name]
        target = ", ".join(f"{w} {m}" for w, m in moves.get(name, {}).get("moves", []))
        print(f"  {name:<44} {value:>14.6g} {unit:<11} -> {target or '-'}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        print("perfbench: --seconds must be between 1 and 60", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    # Anything the program puts in a temporary file stays in the checkout.
    tempfile.tempdir = workdir
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    from perfbench.tracing import LayerTracer
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    tracer = LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload, setup_s = _setup(cls, args, workdir, 1 if tracer else SETUP_REPEATS)
    try:
        if tracer is not None:
            tracer.uninstall()
        workload.reference()
        untraced = workload.measure(args.seconds)
        checks = workload.check(untraced)
        traced = None
        if tracer is not None:
            tracer.phase = "run"
            tracer.reset_obs()
            tracer.install()
            try:
                traced = workload.measure(args.seconds)
            finally:
                tracer.uninstall()
            checks += workload.check(traced)
    finally:
        workload.close()

    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if traced is None:
        values = untraced.end_to_end()
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = _peak_rss_mb()
        _print_end_to_end(args, untraced, values)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        result = untraced
    else:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        layers = _layer_metrics(tracer, untraced, traced)
        _print_layers(tracer, traced, args, layers)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        result = traced
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
