"""Deterministic random-access signal generation.

Nine months of per-5-minute telemetry for every component × dataset pair
would be enormous if materialized, so signals are *functions of time*:
the value at sample index ``i`` of a series is derived from a
SplitMix64-style hash of ``(series_seed, i)``.  Any window can be
queried lazily, repeatedly, and out of order, and always yields the
same data — which the Scout's look-back queries and the retraining
experiments both rely on.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .base import BaselineSpec, DatasetSchema

__all__ = [
    "baseline_series_values",
    "background_event_parts",
    "series_seed",
    "uniform_at",
    "normal_at",
    "uniform_grid",
    "normal_grid",
    "uniform_mixed",
    "poisson_counts",
    "poisson_counts_grid",
]

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)

_DAY = 86400.0
_HOUR = 3600.0
# Event noise is binned at one-minute granularity.
_EVENT_BIN = 60.0


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer — a high-quality 64-bit mixer.

    Unsigned array arithmetic wraps silently in numpy, so no overflow
    guards are needed (this runs in the store's per-query hot path).
    """
    x = x.astype(np.uint64)
    z = (x + np.uint64(0x9E3779B97F4A7C15)) & _MASK
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK
    return z ^ (z >> np.uint64(31))


_MASK_INT = 0xFFFFFFFFFFFFFFFF


def _splitmix64_int(x: int) -> int:
    """Scalar SplitMix64 finalizer on Python ints (hot path)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK_INT
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK_INT
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK_INT
    return x ^ (x >> 31)


def series_seed(global_seed: int, dataset: str, component: str) -> int:
    """A stable 64-bit seed for one (dataset, component) signal."""
    # Python's hash() is salted per-process; use FNV-1a + SplitMix64.
    acc = global_seed & _MASK_INT
    for text in (dataset, component):
        for byte in text.encode():
            acc = ((acc * 1099511628211) & _MASK_INT) ^ byte
        acc = _splitmix64_int(acc)
    return acc


def uniform_at(seed: int, indices: np.ndarray, stream: int = 0) -> np.ndarray:
    """Uniform(0, 1) samples at arbitrary integer indices of a stream."""
    indices = np.asarray(indices, dtype=np.uint64)
    keys = (
        np.uint64(seed)
        ^ (indices * np.uint64(0x9E3779B97F4A7C15))
        ^ np.uint64((seed * 0xD6E8FEB86659FD93 * (stream + 1)) & _MASK_INT)
    ) & _MASK
    bits = _splitmix64(keys)
    # 53-bit mantissa → uniform in (0, 1), never exactly 0 or 1.
    return (bits >> np.uint64(11)).astype(float) / 9007199254740992.0 + 5e-17


def normal_at(seed: int, indices: np.ndarray, stream: int = 0) -> np.ndarray:
    """Standard-normal samples at arbitrary indices (inverse CDF)."""
    return ndtri(uniform_at(seed, indices, stream))


def uniform_grid(
    seeds: np.ndarray, indices: np.ndarray, stream: int = 0
) -> np.ndarray:
    """Uniform(0, 1) samples for many streams over shared indices.

    Returns a ``(len(seeds), len(indices))`` matrix whose row ``d``
    equals ``uniform_at(seeds[d], indices, stream)`` bit-for-bit: the
    per-key construction is the same modular arithmetic, just broadcast
    so one :func:`_splitmix64` call covers every (seed, index) pair.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    indices = np.asarray(indices, dtype=np.uint64).reshape(1, -1)
    # seed * C * (stream+1) mod 2**64 — modular products commute, so
    # folding the constant first matches the scalar path exactly.
    salt = seeds * np.uint64((0xD6E8FEB86659FD93 * (stream + 1)) & _MASK_INT)
    keys = seeds ^ (indices * np.uint64(0x9E3779B97F4A7C15)) ^ salt
    bits = _splitmix64(keys)
    return (bits >> np.uint64(11)).astype(float) / 9007199254740992.0 + 5e-17


def normal_grid(
    seeds: np.ndarray, indices: np.ndarray, stream: int = 0
) -> np.ndarray:
    """Standard-normal samples for many streams over shared indices."""
    return ndtri(uniform_grid(seeds, indices, stream))


def uniform_mixed(
    seeds: np.ndarray, indices: np.ndarray, stream: int = 0
) -> np.ndarray:
    """Uniform(0, 1) samples where each element carries its own seed.

    ``uniform_mixed(seeds, indices)[k] == uniform_at(seeds[k],
    [indices[k]])[0]`` bit-for-bit — it lets callers concatenate the
    pending draws of many streams and hash them in a single pass.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    indices = np.asarray(indices, dtype=np.uint64)
    salt = seeds * np.uint64((0xD6E8FEB86659FD93 * (stream + 1)) & _MASK_INT)
    keys = seeds ^ (indices * np.uint64(0x9E3779B97F4A7C15)) ^ salt
    bits = _splitmix64(keys)
    return (bits >> np.uint64(11)).astype(float) / 9007199254740992.0 + 5e-17


def poisson_counts(
    seed: int, indices: np.ndarray, lam: float, stream: int = 0
) -> np.ndarray:
    """Poisson(λ) counts at arbitrary bin indices via inverse transform.

    Intended for the small per-bin rates of background event noise;
    truncated at a count where the CDF is ≥ 1 - 1e-9 for the given λ.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if lam == 0.0:
        return np.zeros(len(np.atleast_1d(indices)), dtype=int)
    u = uniform_at(seed, indices, stream)
    return np.searchsorted(_poisson_cdf(lam), u).astype(int)


def poisson_counts_grid(
    seeds: np.ndarray, indices: np.ndarray, lam: float, stream: int = 0
) -> np.ndarray:
    """Poisson(λ) counts for many streams over shared bin indices.

    Returns a ``(len(seeds), len(indices))`` matrix whose row ``d``
    equals ``poisson_counts(seeds[d], indices, lam, stream)``
    bit-for-bit: the same inverse-transform lookup, fed by
    :func:`uniform_grid` so one hash pass covers every (seed, bin)
    pair.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    seeds = np.asarray(seeds, dtype=np.uint64)
    if lam == 0.0:
        n = len(np.atleast_1d(indices))
        return np.zeros((len(seeds), n), dtype=int)
    u = uniform_grid(seeds, indices, stream)
    return np.searchsorted(_poisson_cdf(lam), u).astype(int)


_POISSON_CDF_CACHE: dict[float, np.ndarray] = {}


def _poisson_cdf(lam: float) -> np.ndarray:
    """Poisson CDF out to the far tail, cached per rate."""
    cdf = _POISSON_CDF_CACHE.get(lam)
    if cdf is None:
        max_k = max(10, int(lam + 10.0 * np.sqrt(lam) + 10))
        pmf = np.empty(max_k + 1)
        pmf[0] = np.exp(-lam)
        for k in range(1, max_k + 1):
            pmf[k] = pmf[k - 1] * lam / k
        cdf = np.cumsum(pmf)
        _POISSON_CDF_CACHE[lam] = cdf
    return cdf


def baseline_series_values(
    spec: BaselineSpec, seed: int, indices: np.ndarray, timestamps: np.ndarray
) -> np.ndarray:
    """Healthy baseline samples at ``indices`` (pre-effect, pre-floor).

    The single source of truth for the series value formula: the
    store's scalar query path calls it, and every operation is
    elementwise, so a window computed over any sub-range is
    bit-identical to the same samples of a wider one.
    """
    return (
        spec.mean
        + spec.diurnal_amp * np.sin(2.0 * np.pi * timestamps / _DAY)
        + spec.std * normal_at(seed, indices)
    )


def background_event_parts(
    schema: DatasetSchema, seed: int, first: int, last: int
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Background events for bins ``[first, last]``, in generator order.

    Returns one ``(event_type, times, counts)`` triple per event type
    (types sorted — the generator's iteration order), where ``times``
    holds the event timestamps in construction order (bins ascending,
    the j-th event of a bin hashed at index ``bin + j``) and ``counts``
    the per-bin event counts.
    """
    parts: list[tuple[str, np.ndarray, np.ndarray]] = []
    n_bins = last - first + 1
    indices = np.arange(first, last + 1, dtype=np.uint64)
    for stream, (event_type, hourly_rate) in enumerate(
        sorted(schema.events.rates.items())
    ):
        lam = hourly_rate * _EVENT_BIN / _HOUR
        counts = poisson_counts(seed, indices, lam, stream=stream + 1)
        nonzero = counts > 0
        if not np.any(nonzero):
            parts.append((event_type, np.empty(0), np.zeros(n_bins, dtype=int)))
            continue
        bins = indices[nonzero]
        per_bin = counts[nonzero]
        total = int(per_bin.sum())
        # Event j of a bin draws its offset at hash index ``bin + j``.
        rep_bins = np.repeat(bins, per_bin)
        ends = np.cumsum(per_bin)
        within = (
            np.arange(total, dtype=np.uint64)
            - np.repeat(ends - per_bin, per_bin).astype(np.uint64)
        )
        offsets = uniform_at(seed, rep_bins + within, stream=1000 + stream)
        times = rep_bins.astype(float) * _EVENT_BIN + offsets * _EVENT_BIN
        parts.append((event_type, times, counts))
    return parts
