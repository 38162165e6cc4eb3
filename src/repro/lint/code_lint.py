"""Codebase invariant checker (the ``scoutlint`` code pass).

A small stdlib-``ast`` analyzer that enforces the determinism and
picklability invariants the pipeline depends on:

* ``naked-clock`` — no direct wall-clock *calls* (``time.time()``,
  ``time.monotonic()``, ``datetime.now()``) outside the designated
  clock/fault modules.  Passing a clock as a default-argument
  *reference* (``clock=time.perf_counter``) is the sanctioned idiom and
  is not flagged: the call site is then injectable in tests.
* ``unseeded-random`` — no module-global RNG use (``random.random()``,
  ``np.random.rand()``); randomness must flow through an explicit seed
  or ``np.random.default_rng(seed)`` / ``Generator``.
* ``lock-getstate`` — a class that stores a ``threading`` lock (or a
  serving ``RankedLock``) must define ``__getstate__`` so instances
  stay picklable (process-pool training, model persistence).
* ``no-print`` — library code reports through return values, logging,
  or the metrics registry; ``print`` is reserved for CLI entry points.
* ``hot-path-recompute`` — no full-window order statistics
  (``np.percentile``/``np.quantile``/``np.median``) in the per-incident
  hot-path modules (``HOT_PATH_FILES``): window statistics there sort
  the window once and read percentiles with
  ``core.window_agg.exact_percentiles``, as ``_stats`` in
  ``features.py`` does.

Suppression: ``# scoutlint: disable=RULE`` on the offending line, or a
``path:rule`` entry in an allowlist file (see ``.scoutlint-allowlist``
at the repo root).
"""

from __future__ import annotations

import ast
from pathlib import Path

from .findings import (
    Finding,
    apply_disables,
    make_finding,
    parse_disable_comments,
    parse_python_disable_comments,
    stale_suppressions,
)

__all__ = [
    "lint_source",
    "lint_file",
    "lint_paths",
    "DEFAULT_EXEMPT_FILES",
    "HOT_PATH_FILES",
]

# Wall-clock callables, keyed by their normalized dotted name.  Direct
# *calls* are the violation; passing one as a default-argument
# reference (``clock=time.perf_counter``, ``sleep=time.sleep``) is the
# sanctioned injection idiom and never flagged (references are not
# ``ast.Call`` nodes).
_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

# Global-RNG namespaces.  Anything called through these is unseeded by
# construction — the module-level generator is shared mutable state.
_RANDOM_PREFIXES = ("random.", "numpy.random.")
_RANDOM_ALLOWED = {
    # Explicitly-seeded constructions are the sanctioned replacements.
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "random.Random",
    "random.SystemRandom",
}

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    # The serving manager's ranked lock (serving/locks.py), seen by its
    # bare name because relative imports are not normalized.
    "RankedLock",
}

# Module basenames that own wall-clock access (real time is their job)
# and CLI surfaces where print() is the output channel.  CLI entry
# points are exempt from naked-clock too: wall-time summaries printed
# to a terminal are the one place real time *is* the product.
DEFAULT_EXEMPT_FILES = {
    "naked-clock": ("clock.py", "faults.py", "cli.py", "__main__.py"),
    "no-print": ("cli.py", "__main__.py"),
}

# Per-incident hot-path modules: code here runs once per served
# incident, so percentiles come from one sort plus
# core.window_agg.exact_percentiles (as _stats does), not from a
# numpy order-statistic call per percentile.  The rule fires *only* in
# these files — np.percentile is fine in training, analysis, or the
# replica itself.
HOT_PATH_FILES = ("features.py", "cpd_plus.py", "scout.py")

# Full-window order statistics: each call re-scans (and re-partitions)
# the whole window, work that one shared sort does once for all seven
# percentiles.
_HOT_PATH_CALLS = {
    "numpy.percentile",
    "numpy.quantile",
    "numpy.median",
    "numpy.nanpercentile",
    "numpy.nanquantile",
    "numpy.nanmedian",
}


def _normalize_imports(tree: ast.Module) -> dict[str, str]:
    """Map local names to canonical dotted prefixes.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``;
    ``from time import monotonic as mono`` -> ``{"mono": "time.monotonic"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    aliases[item.asname] = item.name
                else:
                    top = item.name.split(".", 1)[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                local = item.asname or item.name
                aliases[local] = f"{node.module}.{item.name}"
    return aliases


def _dotted_name(node: ast.expr) -> str | None:
    """Reconstruct ``a.b.c`` from an attribute chain, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _canonical(name: str, aliases: dict[str, str]) -> str:
    head, _, rest = name.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


class _Checker(ast.NodeVisitor):
    def __init__(self, path: str, aliases: dict[str, str]) -> None:
        self.path = path
        self.aliases = aliases
        self.findings: list[Finding] = []
        self._class_stack: list[dict] = []
        self._exempt = {
            rule: Path(path).name in names
            for rule, names in DEFAULT_EXEMPT_FILES.items()
        }
        self._hot_path = Path(path).name in HOT_PATH_FILES

    def _add(self, rule: str, message: str, line: int,
             hint: str | None = None) -> None:
        if self._exempt.get(rule, False):
            return
        self.findings.append(
            make_finding(rule, message, path=self.path, line=line, hint=hint)
        )

    # -- calls -------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted_name(node.func)
        canonical = _canonical(name, self.aliases) if name else None
        if canonical is not None:
            self._check_clock(node, canonical)
            self._check_random(node, canonical)
            self._check_lock(node, canonical)
            self._check_hot_path(node, canonical)
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self._add(
                "no-print",
                "print() in library code",
                node.lineno,
                hint="return the value, use the metrics/tracing registry, "
                "or move the statement into a CLI module",
            )
        self.generic_visit(node)

    def _check_clock(self, node: ast.Call, canonical: str) -> None:
        if canonical in _CLOCK_CALLS:
            self._add(
                "naked-clock",
                f"direct wall-clock call {canonical}()",
                node.lineno,
                hint="accept a clock callable (clock=time.perf_counter) "
                "and call that, so tests can inject a fake clock",
            )

    def _check_random(self, node: ast.Call, canonical: str) -> None:
        if not canonical.startswith(_RANDOM_PREFIXES):
            return
        if canonical in _RANDOM_ALLOWED:
            if node.args or node.keywords:
                return
            self._add(
                "unseeded-random",
                f"{canonical}() constructed without a seed",
                node.lineno,
                hint="pass an explicit seed so runs are reproducible",
            )
            return
        self._add(
            "unseeded-random",
            f"global RNG call {canonical}()",
            node.lineno,
            hint="thread an np.random.Generator (see repro.ml.base.as_rng)",
        )

    def _check_lock(self, node: ast.Call, canonical: str) -> None:
        if canonical in _LOCK_FACTORIES and self._class_stack:
            self._class_stack[-1]["locks"].append((canonical, node.lineno))

    def _check_hot_path(self, node: ast.Call, canonical: str) -> None:
        if self._hot_path and canonical in _HOT_PATH_CALLS:
            self._add(
                "hot-path-recompute",
                f"full-window {canonical}() in a per-incident hot path",
                node.lineno,
                hint="sort the window once and read percentiles with "
                "core.window_agg.exact_percentiles, as _stats does; the "
                "parity oracle may keep an inline disable",
            )

    # -- classes -----------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        frame = {
            "name": node.name,
            "line": node.lineno,
            "locks": [],
            "has_getstate": any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "__getstate__"
                for item in node.body
            ),
        }
        self._class_stack.append(frame)
        self.generic_visit(node)
        self._class_stack.pop()
        if frame["locks"] and not frame["has_getstate"]:
            factory, lock_line = frame["locks"][0]
            self._add(
                "lock-getstate",
                f"class {node.name} holds a {factory} (line {lock_line}) "
                "but defines no __getstate__",
                node.lineno,
                hint="locks are not picklable; drop them in __getstate__ "
                "and re-create them in __setstate__",
            )


def lint_source(
    source: str, path: str = "<source>"
) -> list[Finding]:
    """Check one module's source text; returns findings (never raises
    on bad syntax — a syntax error becomes an ERROR finding)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            make_finding(
                "syntax-error",
                f"module does not parse: {exc.msg}",
                path=path,
                line=exc.lineno,
            )
        ]
    checker = _Checker(path, _normalize_imports(tree))
    checker.visit(tree)
    used: set[tuple[int, str]] = set()
    findings = apply_disables(
        checker.findings, parse_disable_comments(source), used
    )
    # Dead disables are findings themselves (INFO): a suppression that
    # suppresses nothing today would silently mask the rule's next real
    # firing.  Only genuine comment tokens are judged — DSL disables
    # embedded in *CONFIG_TEXT strings belong to the config analyzer.
    findings.extend(
        stale_suppressions(
            parse_python_disable_comments(source), used,
            path=path, scopes=("code",),
        )
    )
    return findings


def lint_file(path) -> list[Finding]:
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, path=str(path))


def lint_paths(paths) -> list[Finding]:
    """Check files and/or directories (``.py`` files, recursively)."""
    findings: list[Finding] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for file in sorted(entry.rglob("*.py")):
                findings.extend(lint_file(file))
        else:
            findings.extend(lint_file(entry))
    return findings
