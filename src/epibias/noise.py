"""Truncated-normal sampling by inverse CDF.

The inverse-CDF method consumes exactly one uniform variate per draw no
matter how severe the truncation, unlike rejection sampling whose consumption
is random.  Fixed consumption keeps counter-based replicate streams aligned
across scenarios, which the reproducibility guarantees depend on.
"""

from __future__ import annotations

import numpy as np


def truncated_normal_transform(mean, variance, lower, upper, u):
    """Map uniforms in (0, 1) to truncated-normal variates. Vectorized.

    All arguments broadcast.  Zero-variance entries map to
    clamp(mean, lower, upper) while still consuming their uniform, so every
    replicate's stream stays draw-aligned whatever its state.
    """
    # Imported on first use: scipy.special is most of the package's import
    # time, and the commands that draw no noise never need it.
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
    # Guard against quantile round-off at extreme u; the support contract is hard.
    return np.clip(x, lower, upper)

