"""Sliding-window aggregation for the incremental feature engine.

The §5.2 statistics are computed over a *pooled window*: the
concatenated normalized look-back windows of every device in a
time-series group.  From one incident to the next, most of that pool is
unchanged — the look-back grid only advances a sample every five
minutes, and a storm of correlated incidents re-pools the exact same
device windows.  A :class:`WindowAggregator` exploits this with a
deque-of-blocks design: each device window is one immutable
:class:`Block` carrying its per-block aggregates (count, min, max, and
a cached sorted copy), and advancing the window means diffing the block
multiset — O(delta blocks), not O(window).

Statistics stay **byte-identical** to the full recompute
(``_stats(np.concatenate(windows))``):

* ``min``/``max`` fold over per-block minima/maxima — the same values
  the pooled scan would find;
* ``mean``/``std`` are deliberately *not* assembled from per-block
  partial sums: numpy's pairwise summation is not reproducible from
  partials, so they are computed on the canonical-order concatenation
  (microseconds at feature-window sizes; the expensive part of the full
  recompute was never the mean);
* percentiles come from :func:`exact_percentiles`, a byte-exact replica
  of ``np.percentile(..)``'s default linear method applied to the
  merged sorted pool.  The merge reuses each block's cached sorted
  copy, so only *new* blocks ever pay a sort.

One documented caveat: ``np.percentile`` itself is sign-unstable when
``-0.0`` and ``+0.0`` tie at an interpolation boundary (its selection
network orders equal-comparing zeros arbitrarily), so byte-equality is
guaranteed for zero-canonical inputs.  Feature windows are z-scores and
cannot produce ``-0.0``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

__all__ = [
    "Block",
    "WindowAggregator",
    "exact_percentiles",
]


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


class Block:
    """One immutable device window with its per-block aggregates.

    Blocks are content-addressed by the engine (the key encodes the
    signal identity, the sampling grid, and the effects generation), so
    the sorted copy and min/max are computed once per *distinct* window
    no matter how many incidents pool it.
    """

    __slots__ = ("values", "sorted_values", "count", "minimum", "maximum")

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self.count = int(values.size)
        self.sorted_values = np.sort(values, kind="stable")
        self.minimum = float(self.sorted_values[0]) if self.count else np.inf
        self.maximum = float(self.sorted_values[-1]) if self.count else -np.inf


class WindowAggregator:
    """Multiset-of-blocks sliding window with exact pooled statistics.

    ``advance`` replaces the window contents with a keyed block list
    (duplicate keys allowed — a device mentioned through two extracted
    components deliberately counts twice) and reports how many samples
    entered and left, which is what the ``window_advance_samples``
    counter observes.  ``stats`` then produces the eleven §5.2
    statistics byte-identical to ``_stats`` on the pooled
    concatenation.
    """

    def __init__(self) -> None:
        self._blocks: list[tuple[object, Block]] = []
        self._keys: Counter = Counter()
        self.samples_added = 0
        self.samples_dropped = 0

    @property
    def count(self) -> int:
        return sum(block.count for _, block in self._blocks)

    def advance(self, keyed_blocks: list[tuple[object, Block]]) -> tuple[int, int]:
        """Replace the window; returns (samples added, samples dropped)."""
        new_keys = Counter(key for key, _ in keyed_blocks)
        sizes = {key: block.count for key, block in keyed_blocks}
        for key, block in self._blocks:
            sizes.setdefault(key, block.count)
        added = sum(
            sizes[key] * max(0, n - self._keys[key])
            for key, n in new_keys.items()
        )
        dropped = sum(
            sizes[key] * max(0, n - new_keys[key])
            for key, n in self._keys.items()
        )
        self._blocks = list(keyed_blocks)
        self._keys = new_keys
        self.samples_added += added
        self.samples_dropped += dropped
        return added, dropped

    def stats(self, percentiles: tuple[float, ...]) -> np.ndarray:
        """mean/std/min/max + percentiles, byte-equal to the full recompute."""
        out = np.zeros(4 + len(percentiles))
        blocks = [block for _, block in self._blocks if block.count]
        total = sum(block.count for block in blocks)
        if total == 0:
            return out
        # Pairwise summation makes np.mean/np.std irreproducible from
        # per-block partials, so both run on the canonical-order pool.
        pooled = (
            blocks[0].values
            if len(blocks) == 1
            else np.concatenate([block.values for block in blocks])
        )
        out[0] = pooled.mean()
        out[2] = min(block.minimum for block in blocks)
        out[3] = max(block.maximum for block in blocks)
        if total < 2:
            return out  # std and percentile slots stay zero-filled
        out[1] = pooled.std()
        merged = (
            blocks[0].sorted_values
            if len(blocks) == 1
            else np.sort(
                np.concatenate([block.sorted_values for block in blocks]),
                kind="stable",
            )
        )
        out[4:] = exact_percentiles(merged, percentiles)
        return out

