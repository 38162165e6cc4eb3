"""Sliding-window aggregation: exact parity and O(delta) accounting.

``WindowAggregator.stats`` claims byte-identical output to the full
recompute on the pooled concatenation; these tests hold it to that
claim — against the ``np.percentile`` reference in ``tests/oracles.py``,
since the builder's ``_stats`` shares ``exact_percentiles`` with the
engine — across random pools, degenerate windows, and advance sequences.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import _PERCENTILES
from repro.core.window_agg import (
    Block,
    WindowAggregator,
    exact_percentiles,
)
from tests.oracles import reference_stats


def _random_pool(rng, n_blocks: int, max_len: int = 40) -> list[np.ndarray]:
    return [
        rng.normal(size=rng.integers(0, max_len)) for _ in range(n_blocks)
    ]


def _advance(agg: WindowAggregator, windows: list[np.ndarray]):
    return agg.advance([(i, Block(w)) for i, w in enumerate(windows)])


class TestExactPercentiles:
    def test_matches_numpy_randomized(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            values = rng.normal(size=int(rng.integers(2, 200)))
            # Canonicalize zeros: np.percentile itself is sign-unstable
            # for -0.0/+0.0 ties (documented caveat; z-scored feature
            # windows cannot produce -0.0).
            values = values + 0.0
            q = tuple(sorted(rng.uniform(0, 100, size=5)))
            want = np.percentile(values, q)
            got = exact_percentiles(np.sort(values, kind="stable"), q)
            assert np.array_equal(want, got), f"trial {trial}"

    def test_endpoints_and_duplicates(self):
        values = np.array([3.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        q = (0, 1, 10, 25, 50, 75, 90, 99, 100)
        assert np.array_equal(
            np.percentile(values, q),
            exact_percentiles(np.sort(values, kind="stable"), q),
        )

    def test_two_sample_interpolation_branches(self):
        # gamma < 0.5 and gamma >= 0.5 exercise both _lerp branches.
        values = np.sort(np.array([0.1, 0.9]))
        for q in ((30,), (70,), (50,)):
            assert np.array_equal(
                np.percentile(values, q), exact_percentiles(values, q)
            )


class TestBlock:
    def test_aggregates(self):
        block = Block(np.array([2.0, -1.0, 5.0]))
        assert block.count == 3
        assert block.minimum == -1.0 and block.maximum == 5.0
        assert np.array_equal(block.sorted_values, [-1.0, 2.0, 5.0])

    def test_empty(self):
        block = Block(np.empty(0))
        assert block.count == 0
        assert block.minimum == np.inf and block.maximum == -np.inf


class TestWindowAggregator:
    def test_stats_byte_equal_full_recompute(self):
        rng = np.random.default_rng(3)
        agg = WindowAggregator()
        for _ in range(25):
            windows = _random_pool(rng, int(rng.integers(1, 8)))
            _advance(agg, windows)
            nonempty = [w for w in windows if w.size]
            if nonempty:
                want = reference_stats(np.concatenate(nonempty))
            else:
                want = np.zeros(4 + len(_PERCENTILES))
            got = agg.stats(_PERCENTILES)
            assert np.array_equal(want, got)

    def test_degenerate_windows(self):
        agg = WindowAggregator()
        _advance(agg, [np.empty(0)])
        assert np.array_equal(
            agg.stats(_PERCENTILES), np.zeros(4 + len(_PERCENTILES))
        )
        _advance(agg, [np.array([2.5])])
        got = agg.stats(_PERCENTILES)
        assert np.array_equal(got, reference_stats(np.array([2.5])))
        assert got[1] == 0.0 and np.all(got[4:] == 0.0)

    def test_advance_accounting(self):
        agg = WindowAggregator()
        a, b = Block(np.ones(4)), Block(np.zeros(6))
        added, dropped = agg.advance([("a", a), ("b", b)])
        assert (added, dropped) == (10, 0)
        # Keep "a", drop "b", add "c": only the delta moves.
        c = Block(np.full(3, 2.0))
        added, dropped = agg.advance([("a", a), ("c", c)])
        assert (added, dropped) == (3, 6)
        assert agg.samples_added == 13 and agg.samples_dropped == 6
        assert agg.count == 7

    def test_advance_accounting_duplicates(self):
        # A device pooled through two extracted components counts twice.
        agg = WindowAggregator()
        a = Block(np.ones(5))
        assert agg.advance([("a", a), ("a", a)]) == (10, 0)
        assert agg.advance([("a", a)]) == (0, 5)
        assert np.array_equal(
            agg.stats(_PERCENTILES), reference_stats(np.ones(5))
        )

    def test_unchanged_window_is_zero_delta(self):
        agg = WindowAggregator()
        keyed = [("k", Block(np.arange(8, dtype=float)))]
        agg.advance(keyed)
        assert agg.advance(keyed) == (0, 0)

    def test_duplicate_key_pool_matches_duplicate_concat(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=17)
        agg = WindowAggregator()
        block = Block(w)
        agg.advance([("k", block), ("k", block)])
        assert np.array_equal(
            agg.stats(_PERCENTILES), reference_stats(np.concatenate([w, w]))
        )
