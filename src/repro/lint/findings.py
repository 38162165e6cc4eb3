"""Finding model, rule catalog, and renderers for ``scoutlint``.

Every analyzer in :mod:`repro.lint` emits :class:`Finding` objects —
(rule id, severity, file, line, message, fix hint) — and the CLI turns
a finding list into text or JSON output plus an exit code.  Rendering
is deterministic: findings sort by (path, line, rule, message) and the
JSON form has sorted keys and no timestamps, so two runs over the same
inputs are byte-identical.
"""

from __future__ import annotations

import enum
import io
import json
import re
import tokenize
from dataclasses import dataclass, field

__all__ = [
    "Severity",
    "Finding",
    "Rule",
    "RULES",
    "LintError",
    "make_finding",
    "apply_disables",
    "sort_findings",
    "render_text",
    "render_json",
    "exit_code",
    "require_clean",
    "parse_disable_comments",
    "parse_python_disable_comments",
    "stale_suppressions",
    "Allowlist",
]


class Severity(enum.IntEnum):
    """Finding severity; the CLI exit code is the run's maximum."""

    INFO = 0
    WARN = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Rule:
    """One catalog entry: id, default severity, one-line summary."""

    id: str
    severity: Severity
    summary: str
    scope: str  # "config" or "code"


# The rule catalog.  docs/linting.md documents each entry with
# examples; tests assert the two stay in sync.
RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in [
        # -- config analyzer ------------------------------------------------
        Rule("syntax-error", Severity.ERROR, "statement failed to parse", "config"),
        Rule("unknown-kind", Severity.ERROR,
             "let/EXCLUDE references an unknown component kind", "config"),
        Rule("regex-invalid", Severity.ERROR, "regex fails to compile", "config"),
        Rule("regex-backtracking", Severity.WARN,
             "nested unbounded quantifiers (catastrophic backtracking shape)",
             "config"),
        Rule("dup-let", Severity.ERROR,
             "second let for the same component kind", "config"),
        Rule("dup-monitoring", Severity.ERROR,
             "two MONITORING registrations share a name", "config"),
        Rule("dup-set", Severity.WARN,
             "repeated SET key silently overwrites an earlier value", "config"),
        Rule("dup-team", Severity.WARN,
             "a later TEAM statement overrides an earlier one", "config"),
        Rule("unknown-option", Severity.ERROR, "SET key is not a known option",
             "config"),
        Rule("bad-option-value", Severity.ERROR,
             "SET value is not a number", "config"),
        Rule("unknown-locator", Severity.ERROR,
             "MONITORING locator absent from the monitoring store", "config"),
        Rule("datatype-mismatch", Severity.ERROR,
             "declared TIME_SERIES/EVENT disagrees with the store schema",
             "config"),
        Rule("tag-unknown-kind", Severity.WARN,
             "tag references a component kind with no let declaration",
             "config"),
        Rule("tag-coverage-mismatch", Severity.WARN,
             "declared tag kind is not covered by the dataset's schema",
             "config"),
        Rule("class-tag-mixed-kind", Severity.ERROR,
             "class_tag merges TIME_SERIES and EVENT datasets", "config"),
        Rule("let-overlap", Severity.WARN,
             "one kind's matches are a subset of another kind's", "config"),
        Rule("exclude-unreachable", Severity.WARN,
             "EXCLUDE pattern can never match the kind's extractor output",
             "config"),
        Rule("exclude-shadows-kind", Severity.WARN,
             "EXCLUDE matches everything the kind's extractor can produce",
             "config"),
        Rule("lookback-bounds", Severity.WARN,
             "SET lookback outside sane bounds", "config"),
        Rule("dead-let", Severity.INFO,
             "declared kind is never covered by any monitoring registration",
             "config"),
        Rule("schema-drift", Severity.ERROR,
             "persisted model's feature schema no longer derivable from the "
             "current config", "config"),
        # -- codebase invariant checker ------------------------------------
        Rule("naked-clock", Severity.ERROR,
             "wall-clock call outside the clock/fault modules "
             "(clock must be injected)", "code"),
        Rule("unseeded-random", Severity.ERROR,
             "global/unseeded RNG use (pass an explicit seed or Generator)",
             "code"),
        Rule("lock-getstate", Severity.ERROR,
             "class holds a threading lock but defines no __getstate__",
             "code"),
        Rule("no-print", Severity.WARN,
             "print() in library code (CLI modules excepted)", "code"),
        Rule("hot-path-recompute", Severity.WARN,
             "full-window order statistic (np.percentile/quantile/median) "
             "in a per-incident hot-path module", "code"),
        Rule("stale-suppression", Severity.INFO,
             "a scoutlint disable comment that suppresses nothing", "code"),
    ]
}


@dataclass(frozen=True)
class Finding:
    """One analyzer result."""

    rule: str
    severity: Severity
    message: str
    path: str = "<config>"
    line: int | None = None
    hint: str | None = None

    def render(self) -> str:
        location = self.path if self.line is None else f"{self.path}:{self.line}"
        text = f"{location}: {self.severity} [{self.rule}] {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


def make_finding(
    rule: str,
    message: str,
    *,
    path: str = "<config>",
    line: int | None = None,
    hint: str | None = None,
    severity: Severity | None = None,
) -> Finding:
    """Build a finding with the catalog's default severity."""
    catalog = RULES[rule]
    return Finding(
        rule=rule,
        severity=catalog.severity if severity is None else severity,
        message=message,
        path=path,
        line=line,
        hint=hint,
    )


class LintError(ValueError):
    """Raised by ``lint=True`` pre-flights when ERROR findings exist."""

    def __init__(self, findings: list[Finding]) -> None:
        self.findings = sort_findings(findings)
        errors = [f for f in self.findings if f.severity is Severity.ERROR]
        lines = "\n".join(f"  {f.render()}" for f in errors)
        super().__init__(
            f"lint found {len(errors)} error finding(s):\n{lines}"
        )


def sort_findings(findings: list[Finding]) -> list[Finding]:
    return sorted(
        findings,
        key=lambda f: (f.path, f.line if f.line is not None else 0,
                       f.rule, f.message),
    )


def exit_code(findings: list[Finding]) -> int:
    """Exit code = maximum severity (INFO=0, WARN=1, ERROR=2)."""
    return max((int(f.severity) for f in findings), default=0)


def require_clean(findings: list[Finding]) -> None:
    """Raise :class:`LintError` if any finding is an ERROR."""
    if any(f.severity is Severity.ERROR for f in findings):
        raise LintError(findings)


def render_text(findings: list[Finding]) -> str:
    ordered = sort_findings(findings)
    lines = [f.render() for f in ordered]
    counts = {sev: 0 for sev in Severity}
    for finding in ordered:
        counts[finding.severity] += 1
    summary = (
        f"{len(ordered)} finding(s): {counts[Severity.ERROR]} error, "
        f"{counts[Severity.WARN]} warning, {counts[Severity.INFO]} info"
    )
    if not ordered:
        return "clean: no findings\n"
    return "\n".join(lines + [summary]) + "\n"


def render_json(findings: list[Finding]) -> str:
    ordered = sort_findings(findings)
    payload = {
        "findings": [
            {
                "rule": f.rule,
                "severity": str(f.severity),
                "message": f.message,
                "path": f.path,
                "line": f.line,
                "hint": f.hint,
            }
            for f in ordered
        ],
        "summary": {
            "total": len(ordered),
            "error": sum(1 for f in ordered if f.severity is Severity.ERROR),
            "warn": sum(1 for f in ordered if f.severity is Severity.WARN),
            "info": sum(1 for f in ordered if f.severity is Severity.INFO),
        },
        "exit_code": exit_code(ordered),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- suppression ------------------------------------------------------------

_DISABLE = re.compile(r"#\s*scoutlint:\s*disable=([\w,\- ]+)")


def parse_disable_comments(text: str) -> dict[int, set[str]]:
    """Map line number -> rules disabled by ``# scoutlint: disable=...``.

    Works for both Python source and DSL config text (the DSL strips
    comments before parsing, so the escape hatch is read from the raw
    text).  ``disable=all`` suppresses every rule on that line.
    """
    disables: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        match = _DISABLE.search(line)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            disables[lineno] = {rule for rule in rules if rule}
    return disables


def parse_python_disable_comments(source: str) -> dict[int, set[str]]:
    """Like :func:`parse_disable_comments`, but only for *real* Python
    comment tokens.

    The text-based parser deliberately also matches disables embedded
    in string literals (inline DSL configs carry their suppressions
    that way), which is correct for *applying* them but wrong for
    judging staleness: a DSL disable inside a ``*CONFIG_TEXT`` constant
    is consumed by the config analyzer, not the code pass.  Staleness
    therefore only considers genuine ``tokenize.COMMENT`` tokens.
    Falls back to the text parser when the module does not tokenize.
    """
    disables: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _DISABLE.search(token.string)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                disables[token.start[0]] = {rule for rule in rules if rule}
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return parse_disable_comments(source)
    return disables


def apply_disables(
    findings: list[Finding],
    disables: dict[int, set[str]],
    used: set[tuple[int, str]] | None = None,
) -> list[Finding]:
    """Drop findings suppressed by an inline disable on their line.

    ``used``, when given, collects the ``(line, token)`` pairs that
    actually suppressed something — the input for
    :func:`stale_suppressions`, which turns the *unused* remainder into
    ``stale-suppression`` findings so dead disables can't silently mask
    future regressions.
    """
    kept = []
    for finding in findings:
        line = finding.line or -1
        rules = disables.get(line, set())
        if finding.rule in rules:
            if used is not None:
                used.add((line, finding.rule))
            continue
        if "all" in rules:
            if used is not None:
                used.add((line, "all"))
            continue
        kept.append(finding)
    return kept


def stale_suppressions(
    disables: dict[int, set[str]],
    used: set[tuple[int, str]],
    *,
    path: str,
    scopes: tuple[str, ...],
    offset: int = 0,
) -> list[Finding]:
    """INFO findings for disable tokens that suppressed nothing.

    Judged per analysis pass: a token is only reported stale by the
    pass whose rule *scope* owns it (``scopes``), so a
    ``disable=dead-let`` inside an inline DSL config is not declared
    dead by the per-file code checker that never runs that rule.
    Tokens naming no catalog rule at all (and ``all``) are dead by
    construction and judged by every pass that sees them.  ``offset``
    shifts reported lines (inline DSL configs embedded in ``.py``
    files).
    """
    findings = []
    for line in sorted(disables):
        for token in sorted(disables[line]):
            if (line, token) in used:
                continue
            rule = RULES.get(token)
            if rule is not None and rule.scope not in scopes:
                continue
            findings.append(
                make_finding(
                    "stale-suppression",
                    f"disable={token} suppresses nothing on this line",
                    path=path,
                    line=line + offset,
                    hint="remove the dead disable comment (or fix the "
                    "rule name) so it cannot mask a future regression",
                )
            )
    return findings


@dataclass
class Allowlist:
    """File-level suppressions: ``path:rule`` entries, one per line.

    ``#`` starts a comment; a finding is suppressed when its rule
    matches and its (posix-normalized) path ends with the entry path.
    """

    entries: list[tuple[str, str]] = field(default_factory=list)

    @classmethod
    def load(cls, path) -> "Allowlist":
        entries: list[tuple[str, str]] = []
        with open(path, encoding="utf-8") as handle:
            for raw in handle:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                entry_path, _, rule = line.rpartition(":")
                if not entry_path or not rule:
                    raise ValueError(f"bad allowlist entry: {raw.strip()!r}")
                entries.append((entry_path.replace("\\", "/"), rule))
        return cls(entries)

    def allows(self, finding: Finding) -> bool:
        path = finding.path.replace("\\", "/")
        for entry_path, rule in self.entries:
            if rule == finding.rule and (
                path == entry_path or path.endswith("/" + entry_path)
            ):
                return True
        return False

    def apply(self, findings: list[Finding]) -> list[Finding]:
        return [f for f in findings if not self.allows(f)]
