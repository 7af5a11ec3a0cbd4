"""Epidemic step dynamics: drift arithmetic, invariants, reductions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epibias.errors import ConfigError, SimulationOverflowError
from epibias.montecarlo import estimate_causal, simulate
from epibias.noise import truncated_normal_transform
from epibias.policies import ExogenousRule, ForcedSequenceRule
from epibias.sir import MAX_HORIZON, SirParams, sir_step_arrays
from epibias.streams import counter_uniform_array, stream_keys
from reference import counter_uniform, stream_key


def zero_noise_params(**overrides) -> SirParams:
    defaults = dict(overdispersion=0.0)
    defaults.update(overrides)
    return SirParams(**defaults)


def step_one(s, i, r, params, a, u1=0.5, u2=0.5):
    """One day for a single replicate, through the vectorized kernel."""
    s, i, r = sir_step_arrays(
        np.array([s]), np.array([i]), np.array([r]), params, a, np.array([u1]), np.array([u2])
    )
    return float(s[0]), float(i[0]), float(r[0])


def reference_step(s, i, r, params, a, u1, u2):
    """The day's update written out per replicate from the `sir.py` docstring."""
    new_inf = math.exp(params.lam * a) * params.beta * s * i / params.population
    new_rec = params.gamma * i
    eps1 = float(truncated_normal_transform(
        0.0, params.overdispersion * new_inf, -new_inf, s - new_inf, u1))
    pool = i + new_inf + eps1
    eps2 = float(truncated_normal_transform(
        0.0, params.overdispersion * new_rec, -new_rec, pool - new_rec, u2))
    return max(s - new_inf - eps1, 0.0), max(pool - new_rec - eps2, 0.0), r + new_rec + eps2


def test_single_step_drift_at_default_parameters():
    # With the noise zeroed, one day from (999800, 200, 0) moves
    # beta*S*I/N = 57.1314... into I and 200/7 = 28.5714... out of it.
    s, i, r = step_one(999_800.0, 200.0, 0.0, zero_noise_params(), 0)
    assert s == pytest.approx(999_742.8686, abs=1e-3)
    assert i == pytest.approx(228.5600, abs=1e-3)
    assert r == pytest.approx(28.5714, abs=1e-3)


def test_zero_overdispersion_reduces_to_classical_recursion():
    params = zero_noise_params(horizon=50)
    state = (params.population - params.initial_infected, params.initial_infected, 0.0)

    s, i, r = state
    for _ in range(50):
        state = step_one(*state, params, 0)
        new_inf = params.beta * s * i / params.population
        new_rec = params.gamma * i
        s, i, r = s - new_inf, i + new_inf - new_rec, r + new_rec
    assert state[0] == pytest.approx(s, rel=1e-12)
    assert state[1] == pytest.approx(i, rel=1e-12)
    assert state[2] == pytest.approx(r, rel=1e-12)


def test_treatment_attenuates_transmission():
    params = zero_noise_params()
    s0 = 999_800.0
    untreated = step_one(s0, 200.0, 0.0, params, 0)
    treated = step_one(s0, 200.0, 0.0, params, 1)
    drop_untreated = s0 - untreated[0]
    drop_treated = s0 - treated[0]
    assert drop_treated == pytest.approx(math.exp(params.lam) * drop_untreated, rel=1e-12)
    assert drop_treated < drop_untreated


def test_scalar_and_array_steps_agree():
    # The kernel, run on a batch, equals the per-replicate reference step on
    # each replicate's own uniforms, bit for bit.
    params = SirParams()
    s = np.array([999_800.0, 500_000.0, 10.0, 900_000.0])
    i = np.array([200.0, 300_000.0, 5.0, 0.0])
    r = np.array([0.0, 200_000.0, 999_985.0, 100_000.0])
    a = np.array([0, 1, 0, 1], dtype=np.int8)
    keys = stream_keys(42, np.arange(17, 21, dtype=np.uint64))
    batch = sir_step_arrays(s, i, r, params, a, counter_uniform_array(keys, 0),
                            counter_uniform_array(keys, 1))
    for j in range(4):
        key = stream_key(42, 17 + j)
        ref = reference_step(s[j], i[j], r[j], params, int(a[j]),
                             counter_uniform(key, 0), counter_uniform(key, 1))
        assert tuple(float(x[j]) for x in batch) == ref


def test_extinct_state_is_absorbing():
    params = SirParams()
    state = (900_000.0, 0.0, 100_000.0)
    key = stream_key(3, 0)
    for day in range(5):
        state = step_one(*state, params, 0, counter_uniform(key, 2 * day),
                         counter_uniform(key, 2 * day + 1))
    assert state == (900_000.0, 0.0, 100_000.0)


def test_invariants_over_noisy_trajectories():
    params = SirParams(horizon=40)
    keys = stream_keys(7, np.arange(50, dtype=np.uint64))
    prev_y = np.full(50, params.initial_outcome)
    for *_, s, i, r in simulate(params, ForcedSequenceRule((0,) * 40), keys):
        assert (s >= 0).all() and (i >= 0).all() and (r >= 0).all()
        assert np.abs(s + i + r - params.population).max() <= 1e-6
        y = 1.0 - s / params.population
        assert (y >= prev_y - 1e-15).all()
        prev_y = y


def test_noise_on_its_upper_bound_leaves_exactly_zero():
    # The step clamps nothing at 0: each noise term is clipped to at most the
    # array it is then subtracted from, and x - y is +0.0 when y == x.  The
    # last uniform below 1 and a vast variance put both terms on that bound.
    params = SirParams(overdispersion=1e8)
    s = params.population * np.geomspace(1e-6, 1 - 1e-6, 2001)
    i = params.population - s
    u = np.full(s.size, 1 - 2.0**-53)
    a = np.zeros(s.size, dtype=np.int8)
    s_next, i_next, _ = sir_step_arrays(s, i, np.zeros(s.size), params, a, u, u)
    assert ((s_next == 0.0) & (i_next == 0.0)).sum() > 100
    assert not np.signbit(s_next).any() and not np.signbit(i_next).any()


def test_rejects_bad_treatment():
    # A forced path is the only place a caller chooses treatments directly.
    with pytest.raises(ValueError):
        ForcedSequenceRule((0, 2))
    with pytest.raises(ValueError):
        ForcedSequenceRule((0.5,))
    with pytest.raises(ValueError):
        estimate_causal(SirParams(horizon=2), [2, 2], 10, 1)


def test_param_validation():
    with pytest.raises(ValueError):
        SirParams(population=-5)
    with pytest.raises(ValueError):
        SirParams(initial_infected=0)
    with pytest.raises(ValueError):
        SirParams(gamma=1.5)
    with pytest.raises(ValueError):
        SirParams(horizon=0)
    assert SirParams(horizon=MAX_HORIZON).horizon == MAX_HORIZON
    assert MAX_HORIZON == 8175  # 8,192 lanes of (T+1) outcomes and 128 bytes in 512 MiB
    with pytest.raises(ValueError, match="MiB"):
        SirParams(horizon=MAX_HORIZON + 1)
    # Drift arithmetic that overflows on day 1, untreated or treated.
    for overflowing in (dict(population=1e308), dict(lam=800.0),
                        dict(overdispersion=1e308, beta=10.0)):
        with pytest.raises(ValueError, match="day-1 drifts"):
            SirParams(**overflowing)
    for name in ("population", "initial_infected", "beta", "gamma", "lam",
                 "overdispersion", "horizon"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SirParams(**{name: value})


@pytest.mark.parametrize("population", [0.0, -5.0])
def test_a_population_that_is_not_positive_is_named(population):
    # 0 < initial_infected < population refuses it too, but names another field.
    with pytest.raises(ValueError, match="population must be > 0"):
        SirParams(population=population)


@pytest.mark.parametrize("field,value", [
    ("beta", 0.0), ("gamma", 0.0), ("gamma", math.nextafter(1.0, 2.0)), ("overdispersion", -5e-324),
])
def test_a_value_just_outside_its_range_is_refused(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        SirParams(**{field: value})


@pytest.mark.parametrize("kwargs", [
    dict(beta=5e-324), dict(gamma=1.0), dict(overdispersion=0.0),
    dict(population=0.5, initial_infected=0.25),
])
def test_a_value_on_the_edge_of_its_range_is_accepted(kwargs):
    params = SirParams(**kwargs)
    assert all(getattr(params, name) == value for name, value in kwargs.items())


def test_someone_must_start_susceptible():
    with pytest.raises(ValueError, match="initial_infected must be in"):
        SirParams(population=100.0, initial_infected=100.0)


def test_horizon_must_be_an_integer():
    # A float or bool horizon would pass the range checks and fail mid-run.
    for value in (3.0, 2.5, True):
        with pytest.raises(ValueError, match="horizon must be an integer"):
            SirParams(horizon=value)
    params = SirParams(horizon=np.int64(3))
    assert estimate_causal(params, (0,) * 3, 10, 1).replicates_retained == 10


def test_mid_run_overflow_raises():
    # SirParams accepts the day-1 drifts; the step that overflows raises
    # instead of carrying inf and nan forward.
    params = SirParams(population=1e160, horizon=4000)
    with pytest.raises(SimulationOverflowError, match="overflowed"):
        estimate_causal(params, (0,) * params.horizon, 2, 42)
    big = np.array([1e160])
    with pytest.raises(ConfigError):
        sir_step_arrays(big, big, np.zeros(1), params, 0, np.full(1, 0.5), np.full(1, 0.5))


def test_trajectory_structure():
    params = SirParams(horizon=12)
    days = list(simulate(params, ForcedSequenceRule((0,) * 12), stream_keys(11, [0])))
    assert len(days) == 12
    last, diverged, outcomes = days[-1][:3]
    assert last.shape == diverged.shape == (1,) and outcomes.shape == (1, 13)
    assert last[0] == 0 and diverged[0] == 0
    assert outcomes[0, 0] == params.initial_outcome
    # Outcomes are the per-day cumulative shares 1 - S_t/N.
    for t, (*_, s, i, r) in enumerate(days, start=1):
        assert outcomes[0, t] == 1.0 - s[0] / params.population


def test_trajectory_under_random_rule_consumes_aligned_stream():
    # A random rule draws its policy uniform first each day, then the
    # infection and recovery noise: three counters per day.
    params = SirParams(horizon=15)
    rule = ExogenousRule(0.5)
    key = stream_key(2, 5)
    state = (params.population - params.initial_infected, params.initial_infected, 0.0)
    days = simulate(params, rule, stream_keys(2, [5]))
    for t, (last, _, _, s, i, r) in enumerate(days, start=1):
        c = 3 * (t - 1)
        a = int(counter_uniform(key, c) < rule.p)
        state = reference_step(*state, params, a, counter_uniform(key, c + 1),
                               counter_uniform(key, c + 2))
        assert last[0] == a
        assert (float(s[0]), float(i[0]), float(r[0])) == state


@settings(deadline=None, max_examples=50)
@given(
    s=st.floats(100, 1e6),
    i=st.floats(1e-6, 1e5),
    seed=st.integers(0, 2**32),
    a=st.integers(0, 1),
)
def test_one_step_invariants_hold_anywhere(s, i, seed, a):
    params = SirParams(population=s + i + 50.0, initial_infected=1.0)
    key = stream_key(seed, 0)
    nxt = step_one(s, i, 50.0, params, a, counter_uniform(key, 0), counter_uniform(key, 1))
    assert min(nxt) >= 0
    assert sum(nxt) == pytest.approx(s + i + 50.0, abs=1e-6)
    assert nxt[0] <= s + 1e-9
