"""Truncated-normal sampling by inverse CDF.

The inverse-CDF method consumes exactly one uniform variate per draw no
matter how severe the truncation, unlike rejection sampling whose consumption
is random.  Fixed consumption keeps counter-based replicate streams aligned
across scenarios, which the reproducibility guarantees depend on.
"""

from __future__ import annotations

import numpy as np

# The least z with scipy's ndtr(z) exactly 1.0; ndtr is 1.0 from here to
# +inf, so an upper CDF at or past it need not be computed.  Verified on
# scipy 1.17.1: ndtr of this value is 1.0, ndtr of the float below it is
# not, and ndtr is 1.0 on the next 200,000 floats, a dense grid up to 40 and
# at +inf (tests/test_noise.py pins this on the installed scipy).
NDTR_SATURATION = 8.292361075813597


def truncated_normal_transform(mean, variance, lower, upper, u):
    """Map uniforms in (0, 1) to truncated-normal variates. Vectorized.

    The arguments are float64 arrays or Python floats, and broadcast.
    Zero-variance entries map to clamp(mean, lower, upper) while still
    consuming their uniform, so every replicate's stream stays draw-aligned
    whatever its state.  No argument is written to.

    The result is bit-identical to

        sd = sqrt(variance)
        cdf_lo, cdf_hi = ndtr((lower - mean) / sd), ndtr((upper - mean) / sd)
        x = mean + sd * ndtri(cdf_lo + u * (cdf_hi - cdf_lo))

    with zero-variance entries replaced and the result clipped to
    [lower, upper].  The same operations run in the same sequence, in two
    working buffers; only the operands of `+` and `*`, which commute
    exactly, are swapped.  Where the upper z-score is at or past
    NDTR_SATURATION, ndtr returns exactly 1.0, so the upper CDF may be set
    to 1.0 without calling it; a NaN z-score is never skipped.
    """
    # Imported on first use: scipy.special is most of the package's import
    # time, and the commands that draw no noise never need it.
    from scipy.special import ndtr, ndtri

    variance = np.asarray(variance, dtype=np.float64)
    shape = np.broadcast(mean, variance, lower, upper, u).shape

    # Both buffers are full-shape arrays, 0-d included, so every `out=` has an
    # array to write to.  ndtr and ndtri are never given `where=`: on scipy
    # 1.17.1, ndtr(z, out=d, where=m) over 2,000 elements left 821 of the
    # 1,417 selected entries of d unwritten and then aborted the interpreter
    # with heap corruption.  The unsaturated upper CDFs are gathered and
    # scattered by index instead; a boolean mask costs about twice as much
    # when saturation is mixed.  When more than three quarters are
    # unsaturated, ndtr on every element is cheaper than the gather: on
    # 8,192 of figures34's z-scores (2-core x86_64, scipy 1.17.1) the gather
    # won at 75% unsaturated and lost from 80% on, taking 1.37x the time of
    # the full ndtr at 100%.  Both branches run: null-control's calls are
    # all saturated (eps1) or over 95% unsaturated (eps2), and figures34's
    # mix both.
    z = np.empty(shape)
    x = np.empty(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        sd = np.sqrt(variance)
        np.subtract(upper, mean, out=z)
        z /= sd
        unsaturated = ~(z >= NDTR_SATURATION)
        count = np.count_nonzero(unsaturated)
        if 4 * count > 3 * z.size:
            ndtr(z, out=x)
        else:
            x.fill(1.0)
            if count:
                lanes = np.flatnonzero(unsaturated)
                x.reshape(-1)[lanes] = ndtr(z.reshape(-1)[lanes])
        np.subtract(lower, mean, out=z)
        z /= sd
        cdf_lo = ndtr(z, out=z)
        x -= cdf_lo
        x *= u
        x += cdf_lo
        ndtri(x, out=x)
        x *= sd
        x += mean
    degenerate = variance == 0.0
    if degenerate.any():
        np.copyto(x, np.clip(mean, lower, upper), where=degenerate)
    # Guard against quantile round-off at extreme u; the support contract is hard.
    np.clip(x, lower, upper, out=x)
    return x if x.ndim else x[()]
