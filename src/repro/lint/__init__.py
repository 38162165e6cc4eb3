"""scoutlint: static analysis for Scout configs and pipeline invariants.

Two analyzers share one finding model:

* :mod:`repro.lint.config_lint` — semantic checks over Scout DSL text
  or :class:`~repro.config.spec.ScoutConfig` objects, optionally
  against a monitoring store and a persisted model bundle.
* :mod:`repro.lint.code_lint` — AST checks of the determinism and
  picklability invariants the pipeline relies on.

The serving manager's lock order and the byte-determinism of decision
logs and metrics are not lint rules: ranked locks
(:mod:`repro.serving.locks`) check the first on every acquisition, and
``tests/test_determinism.py`` checks the second across processes.

Run via ``repro lint`` or ``python -m repro.lint``; call
:func:`lint_config` / :func:`lint_config_text` / :func:`lint_paths`
programmatically, or pass ``lint=True`` to
:meth:`repro.core.framework.ScoutFramework.train` and
:meth:`repro.serving.manager.IncidentManager.register` for a pre-flight
that raises :class:`LintError` on ERROR findings.
"""

from .code_lint import lint_file, lint_paths, lint_source
from .config_lint import default_store, lint_config, lint_config_text, lint_model
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
