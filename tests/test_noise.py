"""Truncated-normal sampler checks, including a second route through scipy."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from epibias.noise import NDTR_SATURATION, truncated_normal_transform
from epibias.streams import counter_uniform_array, stream_keys
from reference import truncated_normal_formula


def test_symmetric_interval_mean_and_bounds():
    # N(0, 1) truncated to [-1, 1]: a million draws should average to zero.
    keys = stream_keys(1234, np.arange(1_000_000, dtype=np.uint64))
    u = counter_uniform_array(keys, 0)
    draws = truncated_normal_transform(0.0, 1.0, -1.0, 1.0, u)
    assert abs(draws.mean()) < 0.01
    assert draws.min() >= -1.0 and draws.max() <= 1.0


def test_zero_variance_clamps_mean():
    assert truncated_normal_transform(5.0, 0.0, -1.0, 1.0, 0.77) == 1.0
    assert truncated_normal_transform(-5.0, 0.0, -1.0, 1.0, 0.13) == -1.0
    assert truncated_normal_transform(0.3, 0.0, -1.0, 1.0, 0.5) == 0.3


def test_consumes_exactly_one_uniform():
    # One variate per uniform, each a function of its own uniform only, also
    # for zero-variance and severely truncated entries.
    mean = np.array([0.0, 5.0, 0.0, 0.0])
    variance = np.array([4.0, 0.0, 1.0, 1e-12])
    lower = np.array([-3.0, -1.0, 30.0, -1e-9])
    upper = np.array([3.0, 1.0, 31.0, 1e-9])
    u = np.array([0.2, 0.4, 0.6, 0.8])
    draws = truncated_normal_transform(mean, variance, lower, upper, u)
    assert draws.shape == u.shape
    for j in range(u.size):
        moved = u.copy()
        moved[j] = 0.9
        changed = truncated_normal_transform(mean, variance, lower, upper, moved) != draws
        assert not changed[np.arange(u.size) != j].any()


def test_matches_scipy_truncnorm():
    # Independent route: scipy's truncnorm ppf on the same uniforms.
    rng = np.random.default_rng(0)
    for _ in range(200):
        mean = rng.normal(scale=3)
        sd = rng.uniform(0.1, 5)
        lo = mean - rng.uniform(0.05, 4) * sd
        hi = mean + rng.uniform(0.05, 4) * sd
        u = rng.uniform(1e-6, 1 - 1e-6)
        ours = truncated_normal_transform(mean, sd * sd, lo, hi, u)
        a, b = (lo - mean) / sd, (hi - mean) / sd
        ref = scipy.stats.truncnorm.ppf(u, a, b, loc=mean, scale=sd)
        assert ours == pytest.approx(ref, abs=1e-9)


def test_monotone_in_u():
    us = np.linspace(1e-9, 1 - 1e-9, 501)
    draws = truncated_normal_transform(1.0, 2.0, -4.0, 6.0, us)
    assert np.all(np.diff(draws) >= 0)


def test_extreme_uniforms_stay_inside():
    for u in (1e-15, 1 - 1e-15):
        x = truncated_normal_transform(0.0, 1.0, -0.5, 2.0, u)
        assert -0.5 <= x <= 2.0


def test_one_sided_interval():
    # Lower bound far into the left tail barely moves the distribution.
    x = truncated_normal_transform(0.0, 1.0, -50.0, 50.0, 0.5)
    assert x == pytest.approx(0.0, abs=1e-12)


@settings(deadline=None)
@given(
    mean=st.floats(-100, 100),
    var=st.floats(0, 1000),
    width_lo=st.floats(0, 50),
    width_hi=st.floats(0, 50),
    u=st.floats(1e-12, 1 - 1e-12),
)
def test_always_within_bounds(mean, var, width_lo, width_hi, u):
    lo, hi = mean - width_lo, mean + width_hi
    x = truncated_normal_transform(mean, var, lo, hi, u)
    assert lo <= x <= hi


def test_ndtr_saturates_exactly_at_the_skip_point():
    # The transform skips ndtr for upper z-scores at or past NDTR_SATURATION
    # and uses 1.0.  Pin that on the installed scipy: a scipy whose ndtr
    # rounds differently must fail here, not silently change output bytes.
    from scipy.special import ndtr

    assert ndtr(NDTR_SATURATION) == 1.0
    assert ndtr(np.nextafter(NDTR_SATURATION, -np.inf)) < 1.0
    next_floats = (np.array([NDTR_SATURATION]).view(np.int64)
                   + np.arange(200_000)).view(np.float64)
    assert (ndtr(next_floats) == 1.0).all()
    assert (ndtr(np.linspace(NDTR_SATURATION, 40.0, 2_000_000)) == 1.0).all()
    assert ndtr(np.inf) == 1.0


C_NEIGHBOURS = [np.nextafter(NDTR_SATURATION, -np.inf), NDTR_SATURATION,
                np.nextafter(NDTR_SATURATION, np.inf)]


@st.composite
def transform_inputs(draw):
    """(mean, variance, lower, upper, u) as 0-d values, as arrays behind a
    broadcast scalar mean, or as arrays throughout; variances include 0 and
    upper z-scores sit at +inf and on both sides of NDTR_SATURATION."""
    layout = draw(st.sampled_from(["0-d", "scalar-mean", "arrays"]))
    n = 1 if layout == "0-d" else draw(st.integers(1, 12))
    finite = st.floats(-1e3, 1e3)
    mean = draw(st.lists(finite, min_size=n, max_size=n))
    var = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0, 1e4), min_size=n, max_size=n))
    z_lo = draw(st.lists(st.floats(-40, 40), min_size=n, max_size=n))
    z_hi = draw(st.lists(st.sampled_from(C_NEIGHBOURS + [np.inf]) | st.floats(-40, 40),
                         min_size=n, max_size=n))
    u = draw(st.lists(st.floats(1e-12, 1 - 1e-12), min_size=n, max_size=n))
    mean, var, z_lo, z_hi = map(np.array, (mean, var, z_lo, z_hi))
    # With mean 0 and sd 1 the upper z-score is exactly the drawn value.
    mean[(var == 1.0) | (layout == "scalar-mean")] = 0.0
    sd = np.sqrt(var)
    lower = mean + sd * z_lo
    with np.errstate(invalid="ignore"):
        upper = np.where(np.isinf(z_hi), np.inf, mean + sd * z_hi)
    if layout == "0-d":
        return float(mean[0]), float(var[0]), float(lower[0]), float(upper[0]), float(u[0])
    if layout == "scalar-mean":
        return 0.0, var, lower, upper, np.array(u)
    return mean, var, lower, upper, np.array(u)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(args=transform_inputs())
def test_bit_identical_to_the_formula(args):
    # Same bits, type and shape as the direct formula, and no argument is
    # written to.
    before = [np.array(a, copy=True) for a in args]
    with np.errstate(all="ignore"):
        want = truncated_normal_formula(*args)
    got = truncated_normal_transform(*args)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    for a, b in zip(args, before):
        assert np.asarray(a).tobytes() == b.tobytes()


def test_bit_identical_on_sir_noise_arguments():
    # Full-width arrays shaped like the SIR step's, with most upper z-scores
    # far past saturation, some zero variances, and a broadcast 0-d mean.
    rng = np.random.default_rng(11)
    drift = rng.uniform(0, 400, 8192)
    drift[::97] = 0.0
    pool = drift + rng.uniform(0, 2e5, 8192) * (rng.random(8192) < 0.3)
    u = counter_uniform_array(stream_keys(3, np.arange(8192, dtype=np.uint64)), 0)
    args = (0.0, 500.0 * drift, -drift, pool - drift, u)
    got = truncated_normal_transform(*args)
    assert got.tobytes() == truncated_normal_formula(*args).tobytes()
