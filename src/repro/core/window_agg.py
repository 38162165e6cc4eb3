"""A byte-exact ``np.percentile`` replica for sorted feature windows.

The §5.2 statistics include seven percentiles of a pooled window.
``_stats`` in :mod:`.features` sorts the window once and reads all
seven with :func:`exact_percentiles`, which reproduces
``np.percentile(..)``'s default linear method byte for byte without its
per-call dispatch, validation and partition.

One documented caveat: ``np.percentile`` itself is sign-unstable when
``-0.0`` and ``+0.0`` tie at an interpolation boundary (its selection
network orders equal-comparing zeros arbitrarily), so byte-equality is
guaranteed for zero-canonical inputs.  Feature windows are z-scores and
cannot produce ``-0.0``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["exact_percentiles"]


def exact_percentiles(
    sorted_values: np.ndarray, percentiles: tuple[float, ...] | np.ndarray
) -> np.ndarray:
    """``np.percentile(values, percentiles)`` replicated on sorted input.

    Byte-for-byte identical to numpy's default (``linear``) method —
    including the branch numpy's ``_lerp`` takes for interpolation
    weights >= 0.5 — but skips the per-call dispatch, validation, and
    partition machinery, which dominate at feature-window sizes.
    """
    n = sorted_values.size
    q = np.true_divide(percentiles, 100)
    virtual = (n - 1) * q
    previous = np.floor(virtual)
    gamma = virtual - previous
    prev_idx = previous.astype(np.intp)
    next_idx = prev_idx + 1
    above = virtual >= n - 1
    prev_idx[above] = n - 1
    next_idx[above] = n - 1
    a = sorted_values[prev_idx]
    b = sorted_values[next_idx]
    diff = b - a
    out = a + diff * gamma
    hi = gamma >= 0.5
    out[hi] = b[hi] - diff[hi] * (1.0 - gamma[hi])
    return out
