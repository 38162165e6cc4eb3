"""Test-side reference implementations the fast paths are held to."""

from __future__ import annotations

import numpy as np

from repro.core.features import _PERCENTILES, STAT_NAMES


def reference_stats(pooled: np.ndarray) -> np.ndarray:
    """The eleven §5.2 statistics with ``np.percentile``.

    The feature builder's ``_stats`` computes its percentiles with the
    sorted-input replica ``exact_percentiles``; this is the plain numpy
    computation it must equal byte for byte (same degenerate-window
    zero-fill rules).
    """
    out = np.zeros(len(STAT_NAMES))
    if pooled.size == 0:
        return out
    out[0] = pooled.mean()
    out[2] = pooled.min()
    out[3] = pooled.max()
    if pooled.size < 2:
        return out
    out[1] = pooled.std()
    out[4:] = np.percentile(pooled, _PERCENTILES)
    return out
