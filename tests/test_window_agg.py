"""``exact_percentiles``: byte parity with ``np.percentile``.

The builder's ``_stats`` sorts a pooled window once and reads its seven
percentiles with ``exact_percentiles``; these tests hold the replica to
numpy's default linear method across random windows, endpoints,
duplicates and both interpolation branches.
"""

from __future__ import annotations

import numpy as np

from repro.core.window_agg import exact_percentiles


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
