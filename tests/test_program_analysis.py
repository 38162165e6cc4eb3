"""Whole-program analyzer tests (``repro.lint.program_analysis``).

One executable fixture per rule — inverted lock order, blocking call
under a lock, wall-clock into a decision log — plus the self-check that ``src/repro`` itself is clean, the byte-determinism
property of ``--format json``, and the ``--changed`` pre-flight path.
"""

import json
import random
import subprocess
import textwrap
from pathlib import Path

from repro.lint import Severity, analyze_program
from repro.lint.cli import main as lint_main
from repro.lint.program_analysis import build_program

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def write_tree(tmp_path, files):
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def rules_of(findings):
    return {f.rule for f in findings}


def finding(findings, rule):
    matches = [f for f in findings if f.rule == rule]
    assert matches, f"no {rule} finding in {findings}"
    return matches[0]


# ---------------------------------------------------------------------------
# lock-order analysis


INVERTED_LOCKS = """\
    import threading

    class Manager:
        def __init__(self):
            self.lock_a = threading.Lock()
            self.lock_b = threading.Lock()

        def forward(self):
            with self.lock_a:
                with self.lock_b:
                    return 1

        def backward(self):
            with self.lock_b:
                with self.lock_a:
                    return 2

        def __getstate__(self):
            return {}
"""


class TestLockOrder:
    def test_inverted_order_is_a_cycle_error(self, tmp_path):
        tree = write_tree(tmp_path, {"mgr.py": INVERTED_LOCKS})
        findings = analyze_program([tree])
        f = finding(findings, "lock-order-cycle")
        assert f.severity is Severity.ERROR
        # Both acquisition sites and both lock names are in the proof.
        assert "Manager.lock_a" in f.message
        assert "Manager.lock_b" in f.message
        assert "mgr.py:10" in f.message  # forward's inner acquisition
        assert "mgr.py:15" in f.message  # backward's inner acquisition

    def test_consistent_order_is_clean(self, tmp_path):
        consistent = INVERTED_LOCKS.replace(
            "with self.lock_b:\n                with self.lock_a:",
            "with self.lock_a:\n                with self.lock_b:",
        )
        tree = write_tree(tmp_path, {"mgr.py": consistent})
        assert "lock-order-cycle" not in rules_of(
            analyze_program([tree])
        )

    def test_interprocedural_cycle_names_call_path(self, tmp_path):
        source = """\
            import threading

            class Manager:
                def __init__(self):
                    self.lock_a = threading.Lock()
                    self.lock_b = threading.Lock()

                def outer(self):
                    with self.lock_a:
                        self.inner()

                def inner(self):
                    with self.lock_b:
                        return 1

                def other(self):
                    with self.lock_b:
                        with self.lock_a:
                            return 2

                def __getstate__(self):
                    return {}
        """
        tree = write_tree(tmp_path, {"mgr.py": source})
        f = finding(
            analyze_program([tree]), "lock-order-cycle"
        )
        # The A->B edge comes through the outer -> inner call.
        assert "Manager.outer" in f.message
        assert "Manager.inner" in f.message
        assert "calls" in f.message

    def test_dict_of_locks_then_plain_lock_matches_manager_idiom(
        self, tmp_path
    ):
        source = """\
            import threading

            class Manager:
                def __init__(self):
                    self._team_locks = {}
                    self._commit_lock = threading.Lock()
                    for team in ("a", "b"):
                        self._team_locks[team] = threading.Lock()

                def swap(self, team):
                    team_lock = self._team_locks[team]
                    with team_lock:
                        with self._commit_lock:
                            return team

                def __getstate__(self):
                    return {}
        """
        tree = write_tree(tmp_path, {"mgr.py": source})
        findings = analyze_program([tree])
        assert "lock-order-cycle" not in rules_of(findings)
        # ... but the edge itself was seen (local alias resolved).
        program = build_program([tree])
        from repro.lint.program_analysis import lock_order

        facts = lock_order._gather(program)
        pairs = [p for f in facts.values() for p in f.pairs]
        assert [
            (p[0], p[2]) for p in pairs
        ] == [("Manager._team_locks[]", "Manager._commit_lock")]

    def test_blocking_call_under_lock_warns(self, tmp_path):
        source = """\
            import threading
            import time

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def tick(self):
                    with self._lock:
                        time.sleep(0.1)

                def __getstate__(self):
                    return {}
        """
        tree = write_tree(tmp_path, {"worker.py": source})
        f = finding(
            analyze_program([tree]), "lock-held-blocking"
        )
        assert f.severity is Severity.WARN
        assert "time.sleep()" in f.message
        assert "Worker._lock" in f.message

    def test_future_result_under_lock_warns(self, tmp_path):
        source = """\
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def collect(self, futures):
                    with self._lock:
                        return [f.result() for f in futures]

                def __getstate__(self):
                    return {}
        """
        tree = write_tree(tmp_path, {"worker.py": source})
        assert "lock-held-blocking" in rules_of(
            analyze_program([tree])
        )

    def test_dict_get_under_lock_is_not_blocking(self, tmp_path):
        source = """\
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cache = {}

                def lookup(self, key):
                    with self._lock:
                        return self._cache.get(key, None)

                def __getstate__(self):
                    return {}
        """
        tree = write_tree(tmp_path, {"worker.py": source})
        assert "lock-held-blocking" not in rules_of(
            analyze_program([tree])
        )

    def test_inline_disable_and_stale_suppression(self, tmp_path):
        source = """\
            import threading
            import time

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()

                def tick(self):
                    with self._lock:
                        time.sleep(0.1)  # scoutlint: disable=lock-held-blocking

                def idle(self):
                    return 1  # scoutlint: disable=lock-order-cycle

                def __getstate__(self):
                    return {}
        """
        tree = write_tree(tmp_path, {"worker.py": source})
        findings = analyze_program([tree])
        assert "lock-held-blocking" not in rules_of(findings)
        stale = finding(findings, "stale-suppression")
        assert "lock-order-cycle" in stale.message
        assert stale.line == 13


# ---------------------------------------------------------------------------
# determinism taint


class TestTaint:
    def test_wall_clock_into_decision_log(self, tmp_path):
        source = """\
            import time

            class Recorder:
                def __init__(self):
                    self._log = []

                def commit(self, team):
                    stamp = time.time()
                    self._log.append((team, stamp))
        """
        tree = write_tree(tmp_path, {"rec.py": source})
        f = finding(
            analyze_program([tree]), "determinism-taint"
        )
        assert f.severity is Severity.ERROR
        assert "wall-clock time.time()" in f.message
        assert "decision-log append" in f.message
        assert f.line == 9

    def test_injected_clock_is_clean(self, tmp_path):
        source = """\
            import time

            class Recorder:
                def __init__(self, clock=time.perf_counter):
                    self._clock = clock
                    self._log = []

                def commit(self, team):
                    self._log.append((team, self._clock()))
        """
        tree = write_tree(tmp_path, {"rec.py": source})
        assert "determinism-taint" not in rules_of(
            analyze_program([tree])
        )

    def test_uuid_into_serving_decision(self, tmp_path):
        source = """\
            import uuid

            from repro.serving.decision import ServingDecision

            def decide(team):
                return ServingDecision(trace_id=str(uuid.uuid4()))
        """
        tree = write_tree(tmp_path, {"dec.py": source})
        f = finding(
            analyze_program([tree]), "determinism-taint"
        )
        assert "uuid.uuid4()" in f.message
        assert "ServingDecision" in f.message
        assert "trace_id" in f.message

    def test_unseeded_rng_into_metric_emission(self, tmp_path):
        source = """\
            import random

            class Sampler:
                def __init__(self, metrics):
                    self._m_draws = metrics.counter("draws_total", "d")

                def draw(self):
                    self._m_draws.inc(random.random())
        """
        tree = write_tree(tmp_path, {"s.py": source})
        f = finding(
            analyze_program([tree]), "determinism-taint"
        )
        assert "unseeded RNG random.random()" in f.message
        assert "metric emission" in f.message

    def test_set_iteration_tainted_unless_sorted(self, tmp_path):
        source = """\
            class Walker:
                def __init__(self):
                    self._teams = set()
                    self._log = []

                def bad(self):
                    for team in self._teams:
                        self._log.append(team)

                def good(self):
                    for team in sorted(self._teams):
                        self._log.append(team)
        """
        tree = write_tree(tmp_path, {"w.py": source})
        findings = [
            f
            for f in analyze_program([tree])
            if f.rule == "determinism-taint"
        ]
        assert len(findings) == 1
        assert findings[0].line == 8
        assert "unordered set iteration" in findings[0].message

    def test_interprocedural_taint_through_return(self, tmp_path):
        source = """\
            import time

            def now():
                return time.time()

            class Recorder:
                def __init__(self):
                    self._log = []

                def commit(self, team):
                    self._log.append((team, now()))
        """
        tree = write_tree(tmp_path, {"rec.py": source})
        f = finding(
            analyze_program([tree]), "determinism-taint"
        )
        assert f.line == 11

    def test_interprocedural_taint_through_parameter(self, tmp_path):
        source = """\
            import time

            class Recorder:
                def __init__(self):
                    self._log = []

                def _write(self, value):
                    self._log.append(value)

                def commit(self):
                    self._write(time.time())
        """
        tree = write_tree(tmp_path, {"rec.py": source})
        f = finding(
            analyze_program([tree]), "determinism-taint"
        )
        # Reported at the call site that injects the tainted value.
        assert f.line == 11
        assert "_write()" in f.message


# ---------------------------------------------------------------------------
# the real tree


class TestSelfCheck:
    def test_src_repro_program_clean(self):
        findings = analyze_program([SRC])
        assert findings == [], [f.render() for f in findings]

    def test_real_lock_edge_is_seen(self):
        """The clean self-check is not vacuous: the analyzer sees the
        manager's team-lock -> commit-lock edge and finds no cycle."""
        from repro.lint.program_analysis import lock_order

        program = build_program([SRC])
        facts = lock_order._gather(program)
        closure = lock_order._transitive_acquires(facts)
        edges = lock_order._collect_edges(facts, closure)
        pairs = {(e.first, e.second) for e in edges}
        assert (
            "IncidentManager._team_locks[]",
            "IncidentManager._commit_lock",
        ) in pairs
        assert not lock_order._find_cycles(edges)


# ---------------------------------------------------------------------------
# CLI: --program, byte determinism, --changed


class TestCli:
    def test_cli_program_flag_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["--program", str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_bare_program_defaults_to_src_repro(
        self, capsys, monkeypatch
    ):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["--program"]) == 0
        capsys.readouterr()

    def test_cli_program_fixture_exit_code(self, tmp_path, capsys):
        write_tree(tmp_path, {"mgr.py": INVERTED_LOCKS})
        code = lint_main(["--program", str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["summary"]["error"] >= 1

    def test_json_byte_determinism(self, tmp_path, capsys):
        """Two runs — and runs with shuffled path order — are
        byte-identical (the property the CI job cmp's)."""
        files = {
            "a/one.py": INVERTED_LOCKS,
            "b/two.py": "import time\n\nclass R:\n"
            "    def __init__(self):\n        self._log = []\n"
            "    def go(self):\n"
            "        self._log.append(time.time())\n",
            "c/three.py": "X = 1\n",
        }
        write_tree(tmp_path, files)
        paths = [str(tmp_path / name) for name in files]

        def run(order):
            argv = []
            for p in order:
                argv.extend(["--program", p])
            lint_main(argv + ["--format", "json"])
            return capsys.readouterr().out.encode()

        baseline = run(paths)
        assert run(paths) == baseline
        rng = random.Random(7)
        for _ in range(3):
            shuffled = paths[:]
            rng.shuffle(shuffled)
            assert run(shuffled) == baseline

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


# ---------------------------------------------------------------------------
# satellite: naked-clock gap


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
