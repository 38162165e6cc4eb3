"""Whole-program analysis for scoutlint (``--program``).

Two interprocedural passes over a call graph of the analyzed tree
(:mod:`.callgraph`):

* :mod:`.lock_order` — lock acquisition ordering (deadlock cycles,
  blocking calls under a held lock);
* :mod:`.taint` — nondeterminism sources flowing into decision logs,
  metric emissions, and ``ServingDecision`` fields.

Metric names, kinds and labels are not analyzed here: they are
declared once in :mod:`repro.obs.catalog`, which the registry enforces.

:func:`analyze_program` is the entry point: it honours inline
``# scoutlint: disable=<rule>`` comments (program-scope rules only) and
reports program-scope stale suppressions, mirroring the per-file
passes.  Output is deterministic regardless of input path order.
"""

from __future__ import annotations

from ..findings import (
    Finding,
    apply_disables,
    parse_python_disable_comments,
    stale_suppressions,
)
from .callgraph import Program, build_program
from .lock_order import analyze_locks
from .taint import analyze_taint

__all__ = [
    "analyze_program",
    "build_program",
    "Program",
    "analyze_locks",
    "analyze_taint",
]


def analyze_program(paths) -> list[Finding]:
    """Run all whole-program passes over ``paths``."""
    program = build_program(paths)
    raw: list[Finding] = []
    raw.extend(analyze_locks(program))
    raw.extend(analyze_taint(program))

    # Inline suppression: program-scope rules honour the same
    # ``# scoutlint: disable=...`` comments as the per-file passes.
    by_path: dict[str, list[Finding]] = {}
    for finding in raw:
        by_path.setdefault(finding.path, []).append(finding)
    sources = {
        module.path: module.source for module in program.modules.values()
    }
    out: list[Finding] = []
    for path in sorted(sources):
        disables = parse_python_disable_comments(sources[path])
        used: set[tuple[int, str]] = set()
        out.extend(apply_disables(by_path.get(path, []), disables, used))
        out.extend(
            stale_suppressions(
                disables, used, path=path, scopes=("program",)
            )
        )
    return out
