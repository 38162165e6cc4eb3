"""The metric catalog (``repro.obs.catalog``) is the one source of truth.

Every family is declared once there; these tests hold the rest of the
repository to that declaration: the registry refuses anything else,
no other module declares a family, every declared family is emitted
somewhere, and the README table and the docs' metric references are
derived from (or checked against) the catalog.
"""

import ast
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.obs import MetricFamily, catalog
from repro.obs.metrics import MetricsRegistry

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
CATALOG_PY = SRC / "obs" / "catalog.py"

_BACKTICKED = re.compile(r"`([a-z_][a-z0-9_]*)`")


def _src_modules():
    return [p for p in sorted(SRC.rglob("*.py")) if p != CATALOG_PY]


def _declared_constants() -> dict[str, MetricFamily]:
    return {
        name: value
        for name, value in vars(catalog).items()
        if isinstance(value, MetricFamily)
    }


def _bench_keys() -> set[str]:
    """Benchmark result keys: prose names them, but they are not metrics."""
    bench = json.loads((REPO_ROOT / "BENCH_scout.json").read_text())
    return set(bench["after"])


def _unknown_metric_tokens(text: str) -> list[str]:
    """Backticked metric-like tokens in ``text`` that name no family.

    A token is metric-like when it ends in ``_total`` or ``_seconds``
    once a histogram series suffix (``_bucket``/``_count``/``_sum``) is
    folded away; ordinary identifiers in prose are never held to the
    catalog.
    """
    unknown = []
    for token in _BACKTICKED.findall(text):
        if catalog.family_of(token) is not None:
            continue
        base = next(
            (
                token.removesuffix(suffix)
                for suffix in catalog.SERIES_SUFFIXES
                if token.endswith(suffix)
            ),
            token,
        )
        if base.endswith(("_total", "_seconds")):
            unknown.append(base)
    return unknown


# -- the declarations --------------------------------------------------------


def test_families_lists_every_declaration_once():
    declared = _declared_constants()
    assert list(catalog.FAMILIES) == list(
        dict.fromkeys(catalog.FAMILIES)
    ), "a family is listed twice"
    assert set(catalog.FAMILIES) == set(declared.values())
    names = [family.name for family in catalog.FAMILIES]
    assert len(names) == len(set(names))
    for constant, family in declared.items():
        assert constant == family.name.upper()


def test_metric_family_validates_kind_and_buckets():
    with pytest.raises(ValueError, match="unknown metric kind"):
        MetricFamily("x_total", "summary", (), "", doc="")
    with pytest.raises(ValueError, match="histograms only"):
        MetricFamily("x_total", "counter", (), "", doc="", buckets=(1.0,))
    with pytest.raises(ValueError, match="histograms only"):
        MetricFamily("x_seconds", "histogram", (), "", doc="")


def test_metric_family_constructed_only_in_catalog():
    offenders = []
    for path in _src_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            if callee == "MetricFamily":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_family_is_emitted_by_some_module():
    referenced: set[str] = set()
    for path in _src_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    orphans = sorted(set(_declared_constants()) - referenced)
    assert orphans == [], f"declared but never emitted: {orphans}"


# -- the registry enforces the declarations -----------------------------------


def test_registry_rejects_undeclared_name():
    registry = MetricsRegistry()
    for method in (registry.counter, registry.gauge, registry.histogram):
        with pytest.raises(TypeError, match="MetricFamily"):
            method("x_total")
    assert registry.families() == []


def test_registry_rejects_label_drift():
    registry = MetricsRegistry()
    declared = catalog.SCOUT_CALLS_TOTAL
    first = registry.counter(declared)
    with pytest.raises(ValueError, match=r"with labels \('team', 'status'\)"):
        registry.counter(replace(declared, labels=("team",)))
    assert registry.counter(declared) is first


def test_registry_rejects_kind_drift():
    registry = MetricsRegistry()
    declared = catalog.SCOUT_BREAKER_STATE
    registry.gauge(declared)
    with pytest.raises(ValueError, match="declared as a gauge"):
        registry.counter(declared)
    with pytest.raises(ValueError, match="already registered as a gauge"):
        registry.counter(replace(declared, kind="counter"))


def test_instruments_carry_the_declaration():
    registry = MetricsRegistry()
    wait = registry.histogram(catalog.STREAM_QUEUE_WAIT_SECONDS)
    assert wait.family is catalog.STREAM_QUEUE_WAIT_SECONDS
    assert wait.help == catalog.STREAM_QUEUE_WAIT_SECONDS.help
    assert wait.buckets == catalog.STREAM_WAIT_BUCKETS
    assert wait.label_names == ()


# -- documentation derives from the catalog -----------------------------------


def test_readme_table_is_catalog_markdown():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    start = lines.index("| Metric | Type | Labels | Meaning |")
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    table = "\n".join(lines[start:end]) + "\n"
    assert table == catalog.markdown_table()


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
def test_doc_metric_tokens_name_catalog_families(doc):
    text = (REPO_ROOT / doc).read_text(encoding="utf-8")
    unknown = sorted(set(_unknown_metric_tokens(text)) - _bench_keys())
    assert unknown == [], f"{doc} names undeclared metrics: {unknown}"


def test_unknown_metric_token_is_reported():
    text = "The `vanished_total` counter is long gone.\n"
    assert _unknown_metric_tokens(text) == ["vanished_total"]


def test_prose_identifiers_are_not_metric_tokens():
    text = "Tune `min_samples` and `n_samples` freely.\n"
    assert _unknown_metric_tokens(text) == []


def test_series_suffixes_fold_to_family():
    family = catalog.SCOUT_CALL_LATENCY_SECONDS
    for suffix in ("", "_bucket", "_count", "_sum"):
        assert catalog.family_of(family.name + suffix) is family
    assert catalog.family_of("scout_calls_total_sum") is None
    text = "Query `scout_call_latency_seconds_count` or `_sum`.\n"
    assert _unknown_metric_tokens(text) == []
