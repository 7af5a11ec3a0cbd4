"""Scalar and formula references that pin the package's vectorised code.

Each function here is the plain, unoptimised form of something the package
computes over arrays: the tests require the two to agree bit for bit.
"""

import numpy as np

from epibias.streams import _2_POW_MINUS_53, _GOLDEN, _MASK64, mix64


def _to_unit(z: int) -> float:
    # Top 53 bits, centered on half-steps: output lies strictly inside (0, 1).
    return ((z >> 11) + 0.5) * _2_POW_MINUS_53


def stream_key(master_seed: int, replicate_index: int) -> int:
    """64-bit key of the stream for one replicate (`streams.stream_keys`)."""
    if replicate_index < 0:
        raise ValueError(f"replicate_index must be >= 0, got {replicate_index}")
    return mix64((master_seed + (replicate_index + 1) * _GOLDEN) & _MASK64)


def counter_uniform(key: int, counter: int) -> float:
    """The `counter`-th uniform of the stream with the given key
    (`streams.counter_uniform_array`)."""
    return _to_unit(mix64((key + (counter + 1) * _GOLDEN) & _MASK64))


def truncated_normal_formula(mean, variance, lower, upper, u):
    """`noise.truncated_normal_transform` as the direct formula, one
    temporary per operation, with every upper CDF computed."""
    from scipy.special import ndtr, ndtri

    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        sd = np.sqrt(variance)
        cdf_lo = ndtr((lower - mean) / sd)
        cdf_hi = ndtr((upper - mean) / sd)
        x = mean + sd * ndtri(cdf_lo + u * (cdf_hi - cdf_lo))
    degenerate = np.broadcast_to(variance == 0.0, x.shape)
    x = np.where(degenerate, np.clip(mean, lower, upper), x)
    return np.clip(x, lower, upper)
