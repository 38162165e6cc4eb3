"""scoutlint: static analysis for Scout configs and pipeline invariants.

Three analyzers share one finding model:

* :mod:`repro.lint.config_lint` — semantic checks over Scout DSL text
  or :class:`~repro.config.spec.ScoutConfig` objects, optionally
  against a monitoring store and a persisted model bundle.
* :mod:`repro.lint.code_lint` — AST checks of the determinism and
  picklability invariants the pipeline relies on.
* :mod:`repro.lint.program_analysis` — whole-program passes over a
  call graph (``--program``): lock-order cycles and determinism taint
  into decision logs/metrics.

Run via ``repro lint`` or ``python -m repro.lint``; call
:func:`lint_config` / :func:`lint_config_text` / :func:`lint_paths`
programmatically, or pass ``lint=True`` to
:meth:`repro.core.framework.ScoutFramework.train` and
:meth:`repro.serving.manager.IncidentManager.register` for a pre-flight
that raises :class:`LintError` on ERROR findings.
"""

from .code_lint import lint_file, lint_paths, lint_source
from .config_lint import default_store, lint_config, lint_config_text, lint_model
from .program_analysis import analyze_program, build_program
from .findings import (
    Allowlist,
    Finding,
    LintError,
    Rule,
    RULES,
    Severity,
    exit_code,
    render_json,
    render_text,
    require_clean,
    sort_findings,
)

__all__ = [
    "Allowlist",
    "Finding",
    "LintError",
    "RULES",
    "Rule",
    "Severity",
    "analyze_program",
    "build_program",
    "default_store",
    "exit_code",
    "lint_config",
    "lint_config_text",
    "lint_file",
    "lint_model",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "require_clean",
    "sort_findings",
]
