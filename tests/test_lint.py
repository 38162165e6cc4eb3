"""scoutlint tests: one fixture per rule, suppression machinery, CLI,
and the self-check that the shipped configs and src/repro are clean."""

import json
import pickle
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.config import PHYNET_CONFIG_TEXT, parse_config, phynet_config
from repro.core.persistence import FORMAT_VERSION, ScoutBundle
from repro.lint import (
    RULES,
    Allowlist,
    LintError,
    Severity,
    default_store,
    exit_code,
    lint_config,
    lint_config_text,
    lint_model,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    require_clean,
)
from repro.lint.cli import main as lint_main
from repro.lint.regex_analysis import exemplars, has_catastrophic_backtracking

REPO_ROOT = Path(__file__).resolve().parent.parent

BASE = """TEAM PhyNet;
let switch = "sw-\\d+";
MONITORING m = CREATE_MONITORING("cpu_usage", {switch=all}, TIME_SERIES);
"""


def rules_of(findings):
    return {f.rule for f in findings}


def finding(findings, rule):
    matches = [f for f in findings if f.rule == rule]
    assert matches, f"no {rule} finding in {findings}"
    return matches[0]


@pytest.fixture(scope="module")
def store():
    return default_store()


class TestConfigRules:
    def test_clean_config(self, store):
        assert lint_config_text(BASE, store) == []

    def test_syntax_error(self, store):
        text = BASE + "bogus statement here;\n"
        f = finding(lint_config_text(text, store), "syntax-error")
        assert f.severity is Severity.ERROR
        assert f.line == 4

    def test_unknown_kind(self, store):
        text = BASE + 'let gadget = "g-\\d+";\n'
        f = finding(lint_config_text(text, store), "unknown-kind")
        assert f.line == 4

    def test_regex_invalid(self, store):
        text = BASE + 'let server = "srv[";\n'
        f = finding(lint_config_text(text, store), "regex-invalid")
        assert f.line == 4

    def test_regex_backtracking(self, store):
        text = BASE + 'let server = "(srv-\\d+)+";\n'
        f = finding(lint_config_text(text, store), "regex-backtracking")
        assert f.severity is Severity.WARN
        assert f.line == 4

    def test_dup_let(self, store):
        text = BASE + 'let switch = "other-\\d+";\n'
        f = finding(lint_config_text(text, store), "dup-let")
        assert f.line == 4

    def test_dup_monitoring(self, store):
        text = BASE + (
            'MONITORING m = CREATE_MONITORING("snmp_syslogs", '
            "{switch=all}, EVENT);\n"
        )
        f = finding(lint_config_text(text, store), "dup-monitoring")
        assert f.line == 4

    def test_dup_set(self, store):
        text = BASE + "SET lookback = 7200;\nSET lookback = 3600;\n"
        f = finding(lint_config_text(text, store), "dup-set")
        assert f.line == 5

    def test_dup_team(self, store):
        text = BASE + "TEAM Storage;\n"
        f = finding(lint_config_text(text, store), "dup-team")
        assert f.line == 4

    def test_unknown_option(self, store):
        text = BASE + "SET frobnicate = 3;\n"
        f = finding(lint_config_text(text, store), "unknown-option")
        assert f.line == 4

    def test_bad_option_value(self, store):
        text = BASE + "SET lookback = fast;\n"
        f = finding(lint_config_text(text, store), "bad-option-value")
        assert f.line == 4

    def test_unknown_locator(self, store):
        text = BASE + (
            'MONITORING m2 = CREATE_MONITORING("cpu_usag", '
            "{switch=all}, TIME_SERIES);\n"
        )
        f = finding(lint_config_text(text, store), "unknown-locator")
        assert f.line == 4
        assert "cpu_usage" in f.hint  # nearest-name suggestion

    def test_datatype_mismatch(self, store):
        text = BASE + (
            'MONITORING m2 = CREATE_MONITORING("snmp_syslogs", '
            "{switch=all}, TIME_SERIES);\n"
        )
        f = finding(lint_config_text(text, store), "datatype-mismatch")
        assert f.line == 4

    def test_tag_unknown_kind(self, store):
        text = BASE + (
            'MONITORING m2 = CREATE_MONITORING("snmp_syslogs", '
            "{gadget=all}, EVENT);\n"
        )
        f = finding(lint_config_text(text, store), "tag-unknown-kind")
        assert f.line == 4

    def test_tag_without_let(self, store):
        text = BASE + (
            'MONITORING m2 = CREATE_MONITORING("ping_statistics", '
            "{server=all}, TIME_SERIES);\n"
        )
        f = finding(lint_config_text(text, store), "tag-unknown-kind")
        assert "no matching let" in f.message

    def test_tag_coverage_mismatch(self, store):
        # cpu_usage covers switches only; a server tag over-claims.
        text = (
            "TEAM PhyNet;\n"
            'let switch = "sw-\\d+";\n'
            'let server = "srv-\\d+";\n'
            'MONITORING m = CREATE_MONITORING("cpu_usage", '
            "{server=all}, TIME_SERIES);\n"
            'MONITORING p = CREATE_MONITORING("ping_statistics", '
            "{server=all}, TIME_SERIES);\n"
        )
        f = finding(lint_config_text(text, store), "tag-coverage-mismatch")
        assert f.line == 4

    def test_class_tag_mixed_kind(self, store):
        text = BASE + (
            'MONITORING a = CREATE_MONITORING("snmp_syslogs", '
            "{switch=all}, EVENT, MIXED);\n"
            'MONITORING b = CREATE_MONITORING("pfc_counters", '
            "{switch=all}, TIME_SERIES, MIXED);\n"
        )
        f = finding(lint_config_text(text, store), "class-tag-mixed-kind")
        assert f.severity is Severity.ERROR
        assert f.line == 5

    def test_let_overlap(self, store):
        text = (
            "TEAM PhyNet;\n"
            'let switch = "sw-\\d+";\n'
            'let server = "sw.*";\n'
            'MONITORING m = CREATE_MONITORING("cpu_usage", '
            "{switch=all}, TIME_SERIES);\n"
        )
        f = finding(lint_config_text(text, store), "let-overlap")
        assert f.line == 2  # switch matches are a subset of server's

    def test_exclude_unreachable(self, store):
        text = BASE + 'EXCLUDE switch = "lab-.*";\n'
        f = finding(lint_config_text(text, store), "exclude-unreachable")
        assert f.line == 4

    def test_exclude_without_let_unreachable(self, store):
        text = BASE + 'EXCLUDE server = "srv-.*";\n'
        f = finding(lint_config_text(text, store), "exclude-unreachable")
        assert "no let declares" in f.message

    def test_exclude_shadows_kind(self, store):
        text = BASE + 'EXCLUDE switch = "sw-\\d+";\n'
        f = finding(lint_config_text(text, store), "exclude-shadows-kind")
        assert f.line == 4

    def test_exclude_reachable_is_clean(self, store):
        # A narrowing exclude (one lab device) is legitimate.
        text = BASE + 'EXCLUDE switch = "sw-9.*";\n'
        assert "exclude-unreachable" not in rules_of(
            lint_config_text(text, store)
        )

    def test_lookback_bounds_warn(self, store):
        text = BASE + "SET lookback = 10;\n"
        f = finding(lint_config_text(text, store), "lookback-bounds")
        assert f.severity is Severity.WARN

    def test_lookback_nonpositive_is_error(self, store):
        text = BASE + "SET lookback = 0;\n"
        f = finding(lint_config_text(text, store), "lookback-bounds")
        assert f.severity is Severity.ERROR

    def test_dead_let(self, store):
        text = BASE + 'let VM = "vm-\\d+";\n'
        f = finding(lint_config_text(text, store), "dead-let")
        assert f.severity is Severity.INFO
        assert f.line == 4

    def test_object_path_matches_text_path(self, store):
        config = parse_config(BASE)
        assert lint_config(config, store) == []

    def test_object_path_reports_semantics(self, store):
        config = phynet_config()
        # The object path cannot see inline disables, so the deliberate
        # VM dead-let is the only finding.
        findings = lint_config(config, store)
        assert rules_of(findings) == {"dead-let"}


class TestSchemaDrift:
    def _bundle_path(self, tmp_path, config, n_features):
        bundle = ScoutBundle(
            format_version=FORMAT_VERSION,
            team=config.team,
            config=config,
            forest=SimpleNamespace(n_features_=n_features),
            imputer=None,
            selector=None,
            cpd_cluster_rf=None,
            cpd_handful_threshold=5,
            cpd_fallback_threshold=0.5,
        )
        path = tmp_path / "scout.pkl"
        path.write_bytes(b"SCOUTPKL" + pickle.dumps(bundle))
        return path

    def test_no_drift_is_clean(self, tmp_path, store):
        from repro.core.features import FeatureSchema

        config = phynet_config()
        width = len(FeatureSchema(config, store))
        path = self._bundle_path(tmp_path, config, width)
        assert lint_model(path, config, store) == []

    def test_config_drift_is_reported(self, tmp_path, store):
        from repro.core.features import FeatureSchema

        old = parse_config(BASE)
        width = len(FeatureSchema(old, store))
        path = self._bundle_path(tmp_path, old, width)
        current = phynet_config()
        f = finding(lint_model(path, current, store), "schema-drift")
        assert f.severity is Severity.ERROR

    def test_forest_width_drift(self, tmp_path, store):
        config = parse_config(BASE)
        path = self._bundle_path(tmp_path, config, 3)
        f = finding(lint_model(path, config, store), "schema-drift")
        assert "forest expects 3" in f.message

    def test_unreadable_bundle(self, tmp_path, store):
        path = tmp_path / "junk.pkl"
        path.write_bytes(b"not a bundle")
        f = finding(lint_model(path, phynet_config(), store), "schema-drift")
        assert "cannot read" in f.message


CODE_FIXTURES = {
    "naked-clock": "import time\n\ndef f():\n    return time.time()\n",
    "unseeded-random": "import random\n\ndef f():\n    return random.random()\n",
    "lock-getstate": (
        "import threading\n\nclass Holder:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
    ),
    "no-print": "def f():\n    print('hi')\n",
}


class TestCodeRules:
    @pytest.mark.parametrize("rule", sorted(CODE_FIXTURES))
    def test_rule_fires(self, rule):
        f = finding(lint_source(CODE_FIXTURES[rule], path="mod.py"), rule)
        assert f.severity is RULES[rule].severity
        assert f.line is not None

    def test_aliased_imports_resolve(self):
        source = (
            "import numpy as np\n"
            "from time import monotonic as mono\n\n"
            "def f():\n"
            "    return np.random.rand(3), mono()\n"
        )
        assert rules_of(lint_source(source)) == {
            "unseeded-random", "naked-clock"
        }

    def test_sanctioned_idioms_are_clean(self):
        source = (
            "import time\n"
            "import numpy as np\n\n"
            "def f(clock=time.perf_counter, rng=None):\n"
            "    gen = np.random.default_rng(0 if rng is None else rng)\n"
            "    return clock(), gen.integers(10)\n"
        )
        assert lint_source(source) == []

    def test_default_rng_without_seed_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        f = finding(lint_source(source), "unseeded-random")
        assert "without a seed" in f.message

    def test_lock_with_getstate_is_clean(self):
        source = (
            "import threading\n\nclass Holder:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def __getstate__(self):\n"
            "        return {}\n"
        )
        assert lint_source(source) == []

    def test_ranked_lock_holder_needs_getstate(self):
        source = (
            "from .locks import RankedLock\n\nclass Manager:\n"
            "    def __init__(self):\n"
            "        self._commit_lock = RankedLock('commit lock', 2)\n"
        )
        f = finding(lint_source(source), "lock-getstate")
        assert "holds a RankedLock" in f.message

    def test_print_allowed_in_cli_modules(self):
        assert lint_source(CODE_FIXTURES["no-print"], path="cli.py") == []
        assert lint_source(CODE_FIXTURES["no-print"], path="x/__main__.py") == []

    def test_clock_allowed_in_faults_module(self):
        assert lint_source(CODE_FIXTURES["naked-clock"], path="faults.py") == []

    def test_module_syntax_error_is_finding(self):
        f = finding(lint_source("def f(:\n", path="broken.py"), "syntax-error")
        assert f.severity is Severity.ERROR

    def test_hot_path_recompute_fires_in_hot_files(self):
        source = (
            "import numpy as np\n\n"
            "def stats(window):\n"
            "    return np.percentile(window, [50, 99])\n"
        )
        for name in ("features.py", "cpd_plus.py", "scout.py"):
            f = finding(
                lint_source(source, path=f"src/repro/core/{name}"),
                "hot-path-recompute",
            )
            assert f.severity is RULES["hot-path-recompute"].severity
            assert f.line == 4

    def test_hot_path_recompute_ignores_other_files(self):
        # The percentile replica, training code, analysis — anywhere
        # outside the per-incident hot path — may use order statistics
        # freely.
        source = "import numpy as np\nq = np.median([1.0, 2.0])\n"
        assert lint_source(source, path="window_agg.py") == []
        assert lint_source(source, path="analysis.py") == []

    def test_hot_path_oracle_inline_disable(self):
        # A parity oracle in a hot-path file is allowlisted inline: it is
        # the reference the fast path is byte-checked against.
        source = (
            "import numpy as np\n\n"
            "def stats(w):\n"
            "    return np.percentile(w, 50)"
            "  # scoutlint: disable=hot-path-recompute\n"
        )
        assert lint_source(source, path="features.py") == []


class TestSuppression:
    def test_inline_disable(self):
        source = "def f():\n    print('x')  # scoutlint: disable=no-print\n"
        assert lint_source(source) == []

    def test_inline_disable_all(self):
        source = (
            "import time\n\ndef f():\n"
            "    return time.time()  # scoutlint: disable=all\n"
        )
        assert lint_source(source) == []

    def test_inline_disable_wrong_rule_keeps_finding(self):
        source = "def f():\n    print('x')  # scoutlint: disable=naked-clock\n"
        # The finding survives, and the wrong-rule disable is itself
        # reported as dead (it suppressed nothing).
        assert rules_of(lint_source(source)) == {
            "no-print", "stale-suppression"
        }

    def test_dsl_disable(self, store):
        text = BASE + (
            'let VM = "vm-\\d+";  # scoutlint: disable=dead-let\n'
        )
        assert lint_config_text(text, store) == []

    def test_allowlist(self, tmp_path):
        allow = tmp_path / "allow"
        allow.write_text(
            "# comment\nmod.py:no-print  # trailing comment\n"
        )
        findings = lint_source(CODE_FIXTURES["no-print"], path="some/mod.py")
        assert Allowlist.load(allow).apply(findings) == []

    def test_allowlist_path_must_match(self, tmp_path):
        allow = tmp_path / "allow"
        allow.write_text("other.py:no-print\n")
        findings = lint_source(CODE_FIXTURES["no-print"], path="mod.py")
        assert Allowlist.load(allow).apply(findings) == findings

    def test_allowlist_rejects_bad_entries(self, tmp_path):
        allow = tmp_path / "allow"
        allow.write_text("justapath\n")
        with pytest.raises(ValueError):
            Allowlist.load(allow)


class TestRendering:
    def test_exit_code_is_max_severity(self, store):
        assert exit_code(lint_config_text(BASE, store)) == 0
        warn = lint_config_text(BASE + "SET lookback = 10;\n", store)
        assert exit_code(warn) == 1
        error = lint_config_text(BASE + "SET x = 1;\n", store)
        assert exit_code(error) == 2

    def test_json_is_deterministic(self, store):
        findings = lint_config_text(BASE + "SET x = 1;\nbad;\n", store)
        assert render_json(findings) == render_json(list(reversed(findings)))
        payload = json.loads(render_json(findings))
        assert payload["exit_code"] == 2
        assert payload["summary"]["error"] == len(payload["findings"])

    def test_text_rendering(self, store):
        text = render_text(lint_config_text(BASE + "SET x = 1;\n", store))
        assert "[unknown-option]" in text
        assert "1 error" in text
        assert render_text([]) == "clean: no findings\n"

    def test_require_clean(self, store):
        require_clean(lint_config_text(BASE, store))
        with pytest.raises(LintError) as err:
            require_clean(lint_config_text(BASE + "SET x = 1;\n", store))
        assert "unknown-option" in str(err.value)


class TestRegexAnalysis:
    def test_exemplars_are_verified_matches(self):
        import re

        pattern = r"sw-(?:tor|agg)\d+\.c\d+"
        samples = exemplars(pattern)
        assert samples
        assert all(re.search(pattern, s) for s in samples)

    def test_backtracking_detection(self):
        assert has_catastrophic_backtracking(r"(a+)+")
        assert has_catastrophic_backtracking(r"(\d+)*")
        assert not has_catastrophic_backtracking(r"\d+\.\d+")
        assert not has_catastrophic_backtracking(r"sw-(?:tor|agg)\d+")


class TestSelfCheck:
    """The shipped code and configs must satisfy their own linter."""

    def test_phynet_text_is_clean(self, store):
        assert lint_config_text(
            PHYNET_CONFIG_TEXT, store, path="phynet"
        ) == []

    def test_src_repro_is_clean_modulo_allowlist(self, store):
        findings = lint_paths([str(REPO_ROOT / "src" / "repro")])
        allow = Allowlist.load(REPO_ROOT / ".scoutlint-allowlist")
        # Path normalization: findings carry absolute paths here.
        remaining = [
            f for f in allow.apply(findings)
            if f.severity is not Severity.INFO
        ]
        assert remaining == [], [f.render() for f in remaining]


class TestCli:
    def test_cli_clean_run(self, capsys):
        code = lint_main(
            [
                "--phynet",
                "--code", str(REPO_ROOT / "src" / "repro"),
                "--allowlist", str(REPO_ROOT / ".scoutlint-allowlist"),
            ]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_config_file_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.scout"
        bad.write_text(BASE + "SET frobnicate = 1;\n")
        code = lint_main(["--config", str(bad), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["findings"][0]["rule"] == "unknown-option"

    def test_cli_inline_configs_offsets_lines(self, tmp_path, capsys):
        module = tmp_path / "example.py"
        module.write_text(
            "X = 1\n"
            'DEMO_CONFIG_TEXT = """\\\n'
            "TEAM PhyNet;\n"
            'let switch = "sw-[0-9]+";\n'
            "SET frobnicate = 1;\n"
            '"""\n'
        )
        code = lint_main(
            ["--inline-configs", str(module), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        f = next(
            f for f in payload["findings"] if f["rule"] == "unknown-option"
        )
        assert f["line"] == 4  # file line, not string-relative line
        assert f["path"].endswith("example.py")

    def test_cli_requires_inputs(self):
        with pytest.raises(SystemExit):
            lint_main(["--format", "json"])

    def test_program_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(["--program"])
        assert exc.value.code == 2
        assert "--program" in capsys.readouterr().err

    def test_changed_lints_only_modified_files(self, tmp_path, capsys,
                                               monkeypatch):
        repo = tmp_path / "repo"
        repo.mkdir()
        env = {
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
        }

        def git(*argv):
            subprocess.run(
                ["git", *argv], cwd=repo, check=True,
                capture_output=True, env={**env, "HOME": str(tmp_path)},
            )

        git("init", "-q")
        (repo / "clean.py").write_text("X = 1\n", encoding="utf-8")
        (repo / "dirty.py").write_text("Y = 2\n", encoding="utf-8")
        git("add", ".")
        git("commit", "-q", "-m", "seed")
        # clean.py is untouched; dirty.py gains a violation, and a new
        # untracked file appears.
        (repo / "dirty.py").write_text(
            "import time\n\ndef f():\n    return time.time()\n",
            encoding="utf-8",
        )
        (repo / "fresh.py").write_text(
            "def g():\n    print('hi')\n", encoding="utf-8"
        )
        monkeypatch.chdir(repo)
        code = lint_main(["--changed", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        flagged = {
            (f["path"], f["rule"]) for f in payload["findings"]
        }
        assert ("dirty.py", "naked-clock") in flagged
        assert ("fresh.py", "no-print") in flagged
        assert not any(path == "clean.py" for path, _ in flagged)

    def test_changed_with_explicit_ref(self, tmp_path, capsys,
                                       monkeypatch):
        repo = tmp_path / "repo"
        repo.mkdir()
        env = {
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
        }

        def git(*argv):
            subprocess.run(
                ["git", *argv], cwd=repo, check=True,
                capture_output=True, env={**env, "HOME": str(tmp_path)},
            )

        git("init", "-q")
        (repo / "mod.py").write_text("X = 1\n", encoding="utf-8")
        git("add", ".")
        git("commit", "-q", "-m", "one")
        (repo / "mod.py").write_text(
            "def f():\n    print('x')\n", encoding="utf-8"
        )
        git("add", ".")
        git("commit", "-q", "-m", "two")
        monkeypatch.chdir(repo)
        # vs HEAD: nothing changed.
        assert lint_main(["--changed"]) == 0
        assert "clean" in capsys.readouterr().out
        # vs HEAD~1: mod.py changed and carries a violation.
        code = lint_main(["--changed", "HEAD~1", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert any(
            f["rule"] == "no-print" for f in payload["findings"]
        )


class TestPreflightHooks:
    def test_framework_train_lint_raises(self):
        from repro.core.framework import ScoutFramework
        from repro.datacenter.topology import build_topology

        # A class tag merging EVENT and TIME_SERIES datasets constructs
        # fine (only TIME_SERIES features merge by class) but is exactly
        # the misconfiguration the pre-flight exists to catch.
        config = parse_config(
            BASE
            + 'MONITORING a = CREATE_MONITORING("snmp_syslogs", '
            "{switch=all}, EVENT, MIXED);\n"
            'MONITORING b = CREATE_MONITORING("pfc_counters", '
            "{switch=all}, TIME_SERIES, MIXED);\n"
        )
        framework = ScoutFramework(config, build_topology(), default_store())
        with pytest.raises(LintError) as err:
            framework.train(None, lint=True)
        assert "class-tag-mixed-kind" in str(err.value)

    def test_manager_register_lint_raises(self):
        from repro.serving.manager import IncidentManager
        from repro.simulation.teams import default_teams

        bad_config = parse_config(
            BASE + 'MONITORING q = CREATE_MONITORING("no_such_ds", '
            "{switch=all}, EVENT);\n"
        )
        scout = SimpleNamespace(
            team="PhyNet",
            config=bad_config,
            builder=SimpleNamespace(store=default_store()),
        )
        manager = IncidentManager(default_teams())
        with pytest.raises(LintError):
            manager.register(scout, lint=True)


class TestNakedClockGap:
    def test_perf_counter_call_flagged(self):
        from repro.lint import lint_source

        source = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert "naked-clock" in rules_of(lint_source(source))

    def test_sleep_call_flagged(self):
        from repro.lint import lint_source

        source = "import time\n\ndef f():\n    time.sleep(1)\n"
        assert "naked-clock" in rules_of(lint_source(source))

    def test_default_argument_reference_sanctioned(self):
        from repro.lint import lint_source

        source = (
            "import time\n\n"
            "def f(clock=time.perf_counter, sleeper=time.sleep):\n"
            "    return clock()\n"
        )
        assert rules_of(lint_source(source)) == set()

    def test_cli_module_exempt(self):
        from repro.lint import lint_source

        source = "import time\n\nT = time.perf_counter()\n"
        assert rules_of(lint_source(source, path="cli.py")) == set()


def test_rule_catalog_documented():
    """Every rule id appears in docs/linting.md."""
    doc = (REPO_ROOT / "docs" / "linting.md").read_text()
    for rule_id in RULES:
        assert f"`{rule_id}`" in doc, f"{rule_id} missing from docs/linting.md"
