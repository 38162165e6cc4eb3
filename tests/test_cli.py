"""CLI tests (drive main() in-process)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.incidents import IncidentStore


@pytest.fixture(scope="module")
def small_args():
    return ["--seed", "3", "--days", "45", "--incidents", "120"]


@pytest.fixture(scope="module")
def phynet_model(tmp_path_factory, small_args):
    path = tmp_path_factory.mktemp("cli-models") / "phynet.scout"
    assert main(
        ["train", *small_args, "--trees", "20", "--out", str(path)]
    ) == 0
    return path


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, small_args, phynet_model):
    """A registry with PhyNet v1 (ACTIVE) and v2 published.

    Module-scoped and read-only: tests that move the ACTIVE pointer
    must publish into their own registry instead.
    """
    registry = tmp_path_factory.mktemp("cli-registry") / "registry"
    for _ in range(2):
        assert main([
            "publish", *small_args,
            "--registry", str(registry), "--model", str(phynet_model),
        ]) == 0
    return registry


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_jobs_is_a_train_and_evaluate_flag():
    parser = build_parser()
    assert parser.parse_args(["train", "--jobs", "2", "--out", "m"]).jobs == 2
    assert parser.parse_args(
        ["evaluate", "--jobs", "2", "--model", "m"]
    ).jobs == 2


def test_serve_rejects_jobs(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["serve", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_decision_log_write_is_atomic(tmp_path, monkeypatch, capsys):
    """A write that fails before the rename leaves the old log as is."""
    import os

    from repro.cli import _write_decision_log

    log = tmp_path / "decisions.jsonl"
    _write_decision_log(str(log), [{"incident_id": 1, "acted": False}])
    before = log.read_bytes()
    assert before == b'{"acted": false, "incident_id": 1}\n'
    assert "wrote 1 decisions" in capsys.readouterr().out

    # Unserializable: fails before any file is touched.
    with pytest.raises(TypeError):
        _write_decision_log(str(log), [{"incident_id": object()}])

    def crash(src, dst):
        raise OSError("crashed before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="before the rename"):
        _write_decision_log(str(log), [{"incident_id": 2}])
    monkeypatch.undo()
    assert log.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["decisions.jsonl"]


def test_simulate_writes_json(tmp_path, small_args, capsys):
    out = tmp_path / "incidents.json"
    assert main(["simulate", *small_args, "--out", str(out)]) == 0
    store = IncidentStore.from_json(out.read_text())
    assert len(store) == 120
    assert "mis-routed" in capsys.readouterr().out


def test_train_evaluate_route_roundtrip(tmp_path, small_args, capsys):
    model = tmp_path / "phynet.scout"
    assert main(["train", *small_args, "--trees", "25", "--out", str(model)]) == 0
    assert model.exists()
    capsys.readouterr()

    assert main(["evaluate", *small_args, "--model", str(model)]) == 0
    out = capsys.readouterr().out
    assert "precision=" in out

    assert main([
        "route", "--seed", "3", "--days", "45", "--model", str(model),
        "--text", "Probes show packet loss reaching sw-tor0.c1.dc0 in c1.dc0",
    ]) == 0
    out = capsys.readouterr().out
    assert "PhyNet Scout" in out


def test_train_other_team(tmp_path, small_args, capsys):
    model = tmp_path / "storage.scout"
    code = main([
        "train", *small_args, "--team", "Storage", "--trees", "20",
        "--out", str(model),
    ])
    assert code == 0
    assert "Storage Scout" in capsys.readouterr().out


def test_serve_replays_incidents_with_faults(tmp_path, small_args, capsys):
    model = tmp_path / "phynet.scout"
    main(["train", *small_args, "--trees", "20", "--out", str(model)])
    capsys.readouterr()
    code = main([
        "serve", "--seed", "3", "--days", "45", "--incidents", "40",
        "--model", str(model),
        "--scout-deadline", "30",
        "--breaker-threshold", "3", "--breaker-cooldown", "60",
        "--retry-attempts", "2", "--retry-backoff", "0.01",
        "--inject-error-rate", "0.3", "--inject-seed", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "availability" in out
    assert "abstain causes:" in out
    assert "what-if:" in out
    assert "PhyNet: calls=40" in out


def test_serve_healthy_path(tmp_path, small_args, capsys):
    model = tmp_path / "phynet.scout"
    main(["train", *small_args, "--trees", "20", "--out", str(model)])
    capsys.readouterr()
    code = main([
        "serve", "--seed", "3", "--days", "45", "--incidents", "25",
        "--model", str(model),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "availability            1.000" in out
    assert "errors=0" in out


def test_stream_sheds_under_overload(tmp_path, small_args, capsys):
    model = tmp_path / "phynet.scout"
    main(["train", *small_args, "--trees", "20", "--out", str(model)])
    capsys.readouterr()
    metrics_out = tmp_path / "stream-metrics.prom"
    code = main([
        "stream", "--seed", "3", "--days", "45", "--incidents", "40",
        "--model", str(model),
        "--arrival-rate", "200", "--queue-cap", "4",
        "--shed-policy", "triage",
        "--slo-p99", "handle=0.05", "--slo-p99", "queue=0.25",
        "--service-time", "0.02",
        "--metrics-out", str(metrics_out),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "stream throughput:" in out
    assert "shed rate" in out
    assert "slo stages:" in out
    exposition = metrics_out.read_text()
    assert "stream_submitted_total" in exposition
    assert "stream_shed_total" in exposition
    assert "stream_queue_wait_seconds" in exposition


def test_stream_healthy_path_serves_everything(tmp_path, small_args, capsys):
    model = tmp_path / "phynet.scout"
    main(["train", *small_args, "--trees", "20", "--out", str(model)])
    capsys.readouterr()
    code = main([
        "stream", "--seed", "3", "--days", "45", "--incidents", "15",
        "--model", str(model),
        "--arrival-rate", "5", "--queue-cap", "32",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "15 served, 0 shed" in out
    assert "shed rate               0.000" in out


def test_stream_rejects_malformed_slo_budget(tmp_path, small_args):
    with pytest.raises(SystemExit):
        main([
            "stream", *small_args, "--model", "whatever.scout",
            "--slo-p99", "handle",
        ])


def test_route_without_components_falls_back(tmp_path, small_args, capsys):
    model = tmp_path / "phynet.scout"
    main(["train", *small_args, "--trees", "20", "--out", str(model)])
    capsys.readouterr()
    main([
        "route", "--seed", "3", "--days", "45", "--model", str(model),
        "--text", "everything is slow, please help",
    ])
    out = capsys.readouterr().out
    assert "falling back" in out


class TestRegistryCli:
    def test_publish_versions_and_active(
        self, tmp_path, small_args, phynet_model, capsys
    ):
        registry = tmp_path / "registry"
        assert main([
            "publish", *small_args,
            "--registry", str(registry), "--model", str(phynet_model),
            "--note", "first cut",
        ]) == 0
        out = capsys.readouterr().out
        assert "published PhyNet v1" in out
        assert "PhyNet ACTIVE is v1" in out

        # The second publish versions up but does not steal ACTIVE.
        assert main([
            "publish", *small_args,
            "--registry", str(registry), "--model", str(phynet_model),
        ]) == 0
        out = capsys.readouterr().out
        assert "published PhyNet v2" in out
        assert "PhyNet ACTIVE is v1" in out

        manifest = json.loads(
            (registry / "PhyNet" / "1.manifest.json").read_text()
        )
        assert manifest["training"]["note"] == "first cut"
        assert manifest["training"]["seed"] == 3

    def test_promote_shadow_eval_writes_report(
        self, tmp_path, phynet_model, capsys
    ):
        registry = tmp_path / "registry"
        args = ["--seed", "3", "--days", "45", "--incidents", "30"]
        for _ in range(2):
            assert main([
                "publish", *args,
                "--registry", str(registry), "--model", str(phynet_model),
            ]) == 0
        capsys.readouterr()
        report_out = tmp_path / "report.json"
        assert main([
            "promote", *args, "--registry", str(registry),
            "--team", "PhyNet", "--shadow-eval",
            "--report-out", str(report_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "shadow-evaluating PhyNet v2 against active v1" in out
        # Identical bytes shadow-agree everywhere: a clean PROMOTE.
        assert "PROMOTE" in out
        assert "PhyNet ACTIVE -> v2 (was v1)" in out
        report = json.loads(report_out.read_text())
        assert report["team"] == "PhyNet"
        assert report["promote"] is True
        assert report["observations"] == 30

    def test_serve_from_registry_with_shadow(
        self, tmp_path, registry_dir, capsys
    ):
        log = tmp_path / "decisions.jsonl"
        assert main([
            "serve", "--seed", "3", "--days", "45", "--incidents", "20",
            "--registry", str(registry_dir),
            "--shadow", "PhyNet=2",
            "--decision-log", str(log),
        ]) == 0
        out = capsys.readouterr().out
        assert "shadowing PhyNet" in out
        assert "shadow evaluation — PhyNet" in out
        records = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert len(records) == 20
        # The shadow never becomes the primary: every decision was
        # served by the registered epoch-1 model.
        assert all(r["model_epochs"] == {"PhyNet": 1} for r in records)

    def test_stream_hot_swap_flips_epoch_mid_run(
        self, tmp_path, registry_dir, capsys
    ):
        log = tmp_path / "decisions.jsonl"
        assert main([
            "stream", "--seed", "3", "--days", "45", "--incidents", "16",
            "--registry", str(registry_dir),
            "--swap", "PhyNet=2@8",
            "--arrival-rate", "5", "--queue-cap", "32",
            "--decision-log", str(log),
        ]) == 0
        out = capsys.readouterr().out
        assert "hot-swaps landed: PhyNet=e2" in out
        assert "16 served, 0 shed" in out
        epochs = [
            json.loads(line)["model_epochs"]["PhyNet"]
            for line in log.read_text().splitlines()
        ]
        assert epochs == [1] * 8 + [2] * 8

    def test_stream_swap_requires_registry(self, phynet_model):
        with pytest.raises(SystemExit, match="--swap requires --registry"):
            main([
                "stream", "--seed", "3", "--days", "45", "--incidents", "5",
                "--model", str(phynet_model),
                "--swap", "PhyNet=2@3",
            ])

    def test_malformed_swap_spec_rejected(self, registry_dir):
        with pytest.raises(SystemExit, match="TEAM=VERSION@N"):
            main([
                "stream", "--seed", "3", "--days", "45", "--incidents", "5",
                "--registry", str(registry_dir),
                "--swap", "PhyNet=2",
            ])

    def test_serve_needs_a_model_source(self):
        with pytest.raises(
            SystemExit, match="provide --model and/or --registry"
        ):
            main([
                "serve", "--seed", "3", "--days", "45", "--incidents", "5",
            ])


def test_lint_subcommand_delegates(capsys):
    assert main(["lint", "--phynet"]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_listed_in_help():
    parser = build_parser()
    assert "lint" in parser.format_help()
