"""Truncated-normal sampler checks, including a second route through scipy."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from epibias.noise import truncated_normal_transform
from epibias.streams import counter_uniform_array, stream_keys


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
