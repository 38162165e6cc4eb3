"""Command-line front end for ``scoutlint``.

Reachable as ``repro lint ...`` or ``python -m repro.lint ...``.

Input selection:

* ``--config FILE`` — lint a DSL text file (repeatable).
* ``--phynet`` — lint the shipped PhyNet config in place (real file
  line numbers inside ``src/repro/config/phynet.py``).
* ``--teams`` — lint the built-in team configs via the object path.
* ``--inline-configs PATH`` — scan ``.py`` files for top-level
  ``*CONFIG_TEXT`` string constants and lint each with file-relative
  line numbers (how the examples keep their configs checkable).
* ``--code PATH`` — run the codebase invariant checker over files or
  directories (repeatable).
* ``--changed [REF]`` — lint only files changed versus a git ref
  (default ``HEAD``): changed ``.py`` files go through the code and
  inline-config passes.
* ``--model FILE`` — schema-drift check of a persisted Scout bundle
  against the selected config (``--phynet`` or the first ``--config``).

Output: ``--format text|json`` (both deterministic); exit code is the
maximum severity across all findings (0 info/clean, 1 warn, 2 error).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

from .code_lint import lint_paths
from .config_lint import default_store, lint_config, lint_config_text, lint_model
from .findings import Allowlist, Finding, exit_code, render_json, render_text

__all__ = ["main", "build_parser"]

_DEFAULT_ALLOWLIST = ".scoutlint-allowlist"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static analysis for Scout configs and pipeline "
        "determinism invariants.",
    )
    parser.add_argument(
        "--config", action="append", default=[], metavar="FILE",
        help="Scout DSL text file to analyze (repeatable)",
    )
    parser.add_argument(
        "--phynet", action="store_true",
        help="analyze the shipped PhyNet config in place",
    )
    parser.add_argument(
        "--teams", action="store_true",
        help="analyze the built-in team configs (object path)",
    )
    parser.add_argument(
        "--inline-configs", action="append", default=[], metavar="PATH",
        help="scan .py files (or directories) for *CONFIG_TEXT constants "
        "and analyze each (repeatable)",
    )
    parser.add_argument(
        "--code", action="append", default=[], metavar="PATH",
        help="run the codebase invariant checker over files/directories "
        "(repeatable)",
    )
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="REF",
        help="lint only .py files changed versus a git ref "
        "(default: HEAD); adds them to the code and inline-config "
        "passes",
    )
    parser.add_argument(
        "--model", metavar="FILE",
        help="schema-drift check of a persisted Scout bundle against the "
        "selected config",
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="skip the monitoring-store rules (locator existence, "
        "coverage, dead lets)",
    )
    parser.add_argument(
        "--allowlist", metavar="FILE",
        help="suppression file with path:rule entries "
        f"(default: {_DEFAULT_ALLOWLIST} if present)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    return parser


def _phynet_source() -> tuple[str, str]:
    """(path, module source) of the shipped PhyNet config module."""
    from ..config import phynet

    path = Path(phynet.__file__)
    return str(path), path.read_text(encoding="utf-8")


def _inline_config_texts(source: str, path: str):
    """Yield (label, text, line_offset) for *CONFIG_TEXT constants."""
    tree = ast.parse(source)
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id.endswith("CONFIG_TEXT")
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                yield target.id, value.value, value.lineno - 1


def _shift(findings: list[Finding], offset: int) -> list[Finding]:
    if offset == 0:
        return findings
    return [
        Finding(
            rule=f.rule, severity=f.severity, message=f.message,
            path=f.path,
            line=None if f.line is None else f.line + offset,
            hint=f.hint,
        )
        for f in findings
    ]


def _lint_inline(path: Path, store, findings: list[Finding]) -> None:
    source = path.read_text(encoding="utf-8")
    for _name, text, offset in _inline_config_texts(source, str(path)):
        findings.extend(
            _shift(lint_config_text(text, store, path=str(path)), offset)
        )


def _changed_files(ref: str) -> list[Path]:
    """``.py`` files changed versus ``ref`` (plus untracked ones)."""
    import subprocess

    files: set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        result = subprocess.run(
            cmd, capture_output=True, text=True, check=False
        )
        if result.returncode != 0:
            raise SystemExit(
                f"scoutlint --changed: {' '.join(cmd)} failed: "
                f"{result.stderr.strip()}"
            )
        files.update(result.stdout.split())
    return sorted(
        p for name in files
        if name.endswith(".py") and (p := Path(name)).is_file()
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (
        args.config or args.phynet or args.teams
        or args.inline_configs or args.code or args.changed or args.model
    ):
        parser.error(
            "nothing to lint: pass --config/--phynet/--teams/"
            "--inline-configs/--code/--changed/--model"
        )

    store = None if args.no_store else default_store()
    findings: list[Finding] = []
    drift_config = None

    for config_path in args.config:
        text = Path(config_path).read_text(encoding="utf-8")
        findings.extend(lint_config_text(text, store, path=config_path))
        if drift_config is None:
            from ..config.parser import ConfigSyntaxError, parse_config

            try:
                drift_config = parse_config(text)
            except ConfigSyntaxError:
                pass  # already reported as findings

    if args.phynet:
        phynet_path, phynet_source = _phynet_source()
        for _name, text, offset in _inline_config_texts(
            phynet_source, phynet_path
        ):
            findings.extend(
                _shift(lint_config_text(text, store, path=phynet_path), offset)
            )
        if drift_config is None:
            from ..config import phynet_config

            drift_config = phynet_config()

    if args.teams:
        from ..config import team_scout_configs

        for team, config in sorted(team_scout_configs().items()):
            findings.extend(
                lint_config(config, store, path=f"<team:{team}>")
            )

    for entry in args.inline_configs:
        entry = Path(entry)
        files = sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
        for file in files:
            _lint_inline(file, store, findings)

    code_paths = list(args.code)
    if args.changed is not None:
        changed = _changed_files(args.changed)
        code_paths.extend(str(p) for p in changed)
        for file in changed:
            _lint_inline(file, store, findings)

    if code_paths:
        findings.extend(lint_paths(code_paths))

    if args.model:
        if drift_config is None or store is None:
            parser.error(
                "--model needs a config (--phynet or --config) and the "
                "monitoring store (drop --no-store)"
            )
        findings.extend(lint_model(args.model, drift_config, store))

    allowlist_path = args.allowlist
    if allowlist_path is None and Path(_DEFAULT_ALLOWLIST).is_file():
        allowlist_path = _DEFAULT_ALLOWLIST
    if allowlist_path is not None:
        findings = Allowlist.load(allowlist_path).apply(findings)

    render = render_json if args.format == "json" else render_text
    sys.stdout.write(render(findings))
    return exit_code(findings)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
