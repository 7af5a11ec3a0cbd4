"""Monte Carlo estimator engine: determinism, conditioning, thread safety."""

import dataclasses

import numpy as np
import pytest

from epibias import montecarlo
from epibias.errors import EmptyConditioningError
from epibias.montecarlo import (
    CHUNK_SIZE,
    EstimateResult,
    associational_pass,
    compute_bias_report,
    estimate_associational,
    estimate_causal,
)
from epibias.policies import ExogenousRule, ThresholdRule
from epibias.sir import SirParams
from epibias.streams import derive_substream_seed, stream_keys

SMALL = SirParams(horizon=10)
ZEROS = (0,) * SMALL.horizon


def test_causal_estimate_is_deterministic():
    a = estimate_causal(SMALL, ZEROS, 3000, 42)
    b = estimate_causal(SMALL, ZEROS, 3000, 42)
    assert a.mean == b.mean
    assert a.std_error == b.std_error
    assert a.per_time_means == b.per_time_means


def test_different_seeds_differ():
    a = estimate_causal(SMALL, ZEROS, 3000, 42)
    b = estimate_causal(SMALL, ZEROS, 3000, 43)
    assert a.mean != b.mean


def test_threads_do_not_change_results():
    one = estimate_causal(SMALL, ZEROS, 20000, 7, threads=1)
    four = estimate_causal(SMALL, ZEROS, 20000, 7, threads=4)
    assert one.mean == four.mean
    assert one.std_error == four.std_error
    assert one.per_time_means == four.per_time_means


@pytest.mark.parametrize(
    "threads, cpus, expected",
    [(64, 8, [3]), (64, 2, [2]), (2, 8, [2]), (64, None, []), (1, 8, [])],
)
def test_worker_threads_are_capped(monkeypatch, threads, cpus, expected):
    created = []

    class SerialExecutor:
        """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialExecutor)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    params = SirParams(horizon=2)
    res = estimate_causal(params, (0, 0), 2 * CHUNK_SIZE + 1, 3, threads=threads)
    assert created == expected  # three chunks
    assert res.mean == estimate_causal(params, (0, 0), 2 * CHUNK_SIZE + 1, 3).mean


def test_replicates_spanning_chunks_match_single_pass():
    # 20000 replicates cross the internal chunk boundary; the fold order is
    # fixed, so splitting cannot perturb even the last bit.
    r1 = estimate_causal(SMALL, ZEROS, 8192, 5)
    r2 = estimate_causal(SMALL, ZEROS, 8193, 5)
    assert r1.replicates_retained == 8192
    assert r2.replicates_retained == 8193


def test_never_triggered_threshold_equals_causal_exactly():
    # A threshold no trajectory can cross conditions on nothing, and the
    # threshold rule consumes no policy randomness, so both estimators see
    # identical noise streams: every statistic must match bit for bit.
    causal = estimate_causal(SMALL, ZEROS, 5000, 11)
    assoc = estimate_associational(SMALL, ThresholdRule(1.0 - 1e-9), ZEROS, 5000, 11)
    assert assoc.replicates_retained == 5000
    assert assoc.mean == causal.mean
    assert assoc.std_error == causal.std_error
    assert assoc.per_time_means == causal.per_time_means


def test_retained_counts_and_samples():
    res = estimate_associational(
        SMALL, ThresholdRule(0.001), ZEROS, 4000, 13, keep_samples=True
    )
    assert 0 < res.replicates_retained < 4000
    assert len(res.samples) == res.replicates_retained
    assert res.mean == pytest.approx(np.mean(res.samples))
    expected_se = np.std(res.samples, ddof=1) / np.sqrt(res.replicates_retained)
    assert res.std_error == pytest.approx(expected_se)
    # Retained trajectories never crossed the threshold before the last day.
    assert all(s <= 0.5 for s in res.samples)


def test_empty_conditioning_raises_with_diagnostics():
    # Threshold below y_0: the rule fires on day one for every replicate.
    with pytest.raises(EmptyConditioningError) as exc:
        estimate_associational(SMALL, ThresholdRule(1e-7), ZEROS, 64, 3)
    err = exc.value
    assert err.replicates_total == 64
    # Everyone diverged at the first treatment decision.
    assert err.first_divergence == {1: 64}


def test_per_time_conditioning_agrees_at_final_time():
    full = estimate_associational(
        SMALL, ThresholdRule(0.002), ZEROS, 20000, 21, conditioning="full-path"
    )
    per_t = estimate_associational(
        SMALL, ThresholdRule(0.002), ZEROS, 20000, 21, conditioning="per-time"
    )
    assert per_t.mean == full.mean
    assert per_t.replicates_retained == full.replicates_retained
    # Earlier times condition on a looser event, so the means can differ
    # but must exist wherever the full-path means exist.
    assert len(per_t.per_time_means) == len(full.per_time_means)


def test_unknown_conditioning_mode_rejected():
    with pytest.raises(ValueError):
        estimate_associational(
            SMALL, ThresholdRule(0.1), ZEROS, 100, 1, conditioning="sideways"
        )


def test_bias_report_wires_subseeds():
    report = compute_bias_report(SMALL, ThresholdRule(0.003), ZEROS, 8000, 42)
    causal = estimate_causal(SMALL, ZEROS, 8000, derive_substream_seed(42, 0))
    assoc = estimate_associational(
        SMALL, ThresholdRule(0.003), ZEROS, 8000, derive_substream_seed(42, 1)
    )
    assert report.causal.mean == causal.mean
    assert report.associational.mean == assoc.mean
    assert report.bias == assoc.mean - causal.mean
    assert report.threshold == 0.003
    assert len(report.bias_evolution) == SMALL.horizon
    assert report.bias_evolution[-1] == report.bias


def test_exogenous_rule_conditioning_runs():
    # Random rule: policy draws consume stream space but results stay
    # reproducible.
    params = SirParams(horizon=6)
    res1 = estimate_associational(params, ExogenousRule(0.5), (0,) * 6, 2000, 5)
    res2 = estimate_associational(params, ExogenousRule(0.5), (0,) * 6, 2000, 5)
    assert res1.mean == res2.mean
    assert res1.replicates_retained == res2.replicates_retained
    # Roughly 2^-6 of replicates survive full-path matching.
    assert 10 < res1.replicates_retained < 80


def test_exogenous_bias_report_golden_means():
    # Values recorded before associational replicates were retired from the
    # day loop at their first divergence.  8,492 replicates cross a chunk
    # boundary; per-time conditioning sums outcome columns of every row.
    params = SirParams(horizon=4)
    report = compute_bias_report(
        params, ExogenousRule(0.5), (0,) * 4, CHUNK_SIZE + 300, 17, 2, "per-time"
    )
    assert report.causal.mean.hex() == "0x1.efc62f58549dfp-11"
    assert report.associational.mean.hex() == "0x1.fa1bfea47dd42p-11"
    assert report.associational.replicates_retained == 519
    assert [m.hex() for m in report.associational.per_time_means] == [
        "0x1.789268284fd18p-12",
        "0x1.1d2807d52fba6p-11",
        "0x1.8173afe878510p-11",
        "0x1.fa1bfea47dd42p-11",
    ]


def score_full_width(params, rule, target, seed, lo, hi, per_time):
    """Reference for `_chunk_stats`: simulate every lane for all T days with
    no target, then condition on `target` afterwards."""
    T = params.horizon
    keys = stream_keys(seed, np.arange(lo, hi, dtype=np.uint64))
    treatments = np.zeros((hi - lo, T), dtype=np.int8)
    for t, (last, _, outcomes, *_) in enumerate(montecarlo.simulate(params, rule, keys), 1):
        treatments[:, t - 1] = last
    matches = treatments == np.asarray(target, dtype=np.int8)
    on_path = np.logical_and.accumulate(matches, axis=1)
    retained = on_path[:, -1]
    if per_time:
        per_t_sums = (outcomes[:, 1:] * on_path).sum(axis=0)
        per_t_counts = on_path.sum(axis=0)
    else:
        per_t_sums = outcomes[retained, 1:].sum(axis=0)
        per_t_counts = np.full(T, retained.sum())
    first_div = on_path.sum(axis=1) + 1  # day of the first mismatch
    y_final = outcomes[retained, T]
    return {
        "retained": int(retained.sum()),
        "per_t_sums": per_t_sums,
        "per_t_counts": per_t_counts,
        "final_sum": float(y_final.sum()),
        "final_sumsq": float((y_final * y_final).sum()),
        "divergence_hist": np.bincount(first_div[~retained], minlength=T + 1),
        "samples": y_final,
    }


RETIREMENT_CASES = [
    pytest.param(SirParams(horizon=30), ThresholdRule(0.01), (0,) * 30, False, id="threshold"),
    pytest.param(SirParams(horizon=30), ThresholdRule(0.01), (0,) * 30, True,
                 id="threshold-per-time"),
    pytest.param(SirParams(horizon=6), ExogenousRule(0.5), (0, 1, 0, 1, 1, 0), False,
                 id="exogenous"),
    pytest.param(SirParams(horizon=6), ExogenousRule(0.5), (0, 1, 0, 1, 1, 0), True,
                 id="exogenous-per-time"),
]


@pytest.mark.parametrize("params, rule, target, per_time", RETIREMENT_CASES)
def test_retiring_lanes_matches_full_width_scoring(params, rule, target, per_time):
    # Lanes that leave the target path stop being simulated; every statistic
    # must still equal full-width simulation scored afterwards, bit for bit.
    lo, hi = 100, 2100
    got, = montecarlo._chunk_stats(
        params, (rule,), np.asarray(target, dtype=np.int8), 5, lo, hi, per_time, True
    )
    want = score_full_width(params, rule, target, 5, lo, hi, per_time)
    assert 0 < got["retained"] < hi - lo
    assert got.keys() == want.keys()
    for field in want:
        assert np.array_equal(got[field], want[field]), field
        assert np.asarray(got[field]).dtype.kind == np.asarray(want[field]).dtype.kind, field


@pytest.mark.parametrize(
    "rule, target, all_leave_on_day_1",
    [
        pytest.param(ThresholdRule(0.01), (0,) * 30, False, id="threshold"),
        pytest.param(ThresholdRule(1e-7), (0,) * 30, True, id="below-y0"),
        pytest.param(ExogenousRule(0.5), (1, 0) * 15, False, id="exogenous"),
    ],
)
def test_retired_lanes_take_no_steps(monkeypatch, rule, target, all_leave_on_day_1):
    # A lane that first diverges on day d is decided on days 1..d and takes
    # d - 1 steps, a retained lane T of each; the day loop still makes one
    # step call per day when none is live.  A random rule draws one policy
    # uniform per decision, and a retired lane draws nothing.
    params = SirParams(horizon=30)
    lanes, decided, policy_draws, draws = [], [], [], []
    step = montecarlo.sir_step_arrays
    decide = rule.decide_batch
    draw = montecarlo.counter_uniform_array

    def counted(s, *args):
        lanes.append(s.size)
        return step(s, *args)

    def counted_draw(keys, counter):
        draws.append(keys.size)
        return draw(keys, counter)

    def counted_decide(t, last, y, u):
        decided.append(last.size)
        assert y.size == last.size
        if u is not None:
            policy_draws.append(u.size)
        return decide(t, last, y, u)

    monkeypatch.setattr(montecarlo, "sir_step_arrays", counted)
    monkeypatch.setattr(montecarlo, "counter_uniform_array", counted_draw)
    monkeypatch.setattr(rule, "decide_batch", counted_decide)
    n = 1500
    res, = montecarlo._chunk_stats(
        params, (rule,), np.asarray(target, dtype=np.int8), 9, 0, n, False, False
    )
    T = params.horizon
    hist = res["divergence_hist"]
    assert hist.sum() + res["retained"] == n
    assert (hist[1] == n) == all_leave_on_day_1
    assert len(lanes) == T and len(decided) == T
    days = np.arange(T + 1)
    assert sum(lanes) == (hist * (days - 1)).sum() + res["retained"] * T
    assert sum(decided) == (hist * days).sum() + res["retained"] * T
    assert policy_draws == (decided if rule.uses_randomness else [])
    assert sum(draws) == sum(policy_draws) + 2 * sum(lanes)


def test_retired_lanes_freeze():
    # A lane retired on day d records d as its divergence day, keeps its
    # diverging decision and its s, i, r at their day d-1 values, and its
    # outcome columns d..T stay 0.
    params = SirParams(horizon=8)
    target = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.int8)
    n = 1024
    keys = stream_keys(3, np.arange(n, dtype=np.uint64))
    was_on = np.ones(n, dtype=bool)
    prev = None
    days = montecarlo.simulate(params, ExogenousRule(0.5), keys, target)
    for t, (last, diverged, outcomes, s, i, r) in enumerate(days, 1):
        on = was_on & (last == target[t - 1])
        assert (diverged[on] == 0).all() and (diverged[was_on & ~on] == t).all()
        assert (outcomes[~on, t] == 0.0).all() and (outcomes[on, t] > 0.0).all()
        if prev is not None:
            assert np.array_equal(last[~was_on], prev[0][~was_on])
            for now, before in zip((s, i, r), prev[1:]):
                assert np.array_equal(now[~on], before[~on])
        prev = (last.copy(), s.copy(), i.copy(), r.copy())
        was_on = on
    assert 0 < was_on.sum() < n


# Given in no order; 1e-7 lies below y_0, so its rule retains nothing.
SHARED_THRESHOLDS = (0.01, 1e-7, 0.003, 0.03, 0.001)
SHARED = SirParams(horizon=30)
SHARED_ZEROS = (0,) * SHARED.horizon


def shared_estimates(thresholds, replicates, seed, threads, conditioning):
    """Every threshold's estimate read from one shared pass (None when empty)."""
    rules = {thr: ThresholdRule(thr) for thr in thresholds}
    shared = associational_pass(
        SHARED, sorted(rules.values(), key=lambda rule: rule.threshold), SHARED_ZEROS,
        replicates, seed, threads, conditioning, keep_samples=True,
    )
    out = {}
    for thr, rule in rules.items():
        try:
            out[thr] = estimate_associational(
                SHARED, rule, SHARED_ZEROS, replicates, seed, threads, conditioning,
                keep_samples=True, shared=shared,
            )
        except EmptyConditioningError as exc:
            out[thr] = exc.first_divergence
    return out


def assert_same_estimate(got, want):
    for field in dataclasses.fields(EstimateResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "samples":
            assert a.dtype == b.dtype and np.array_equal(a, b)
        elif isinstance(a, tuple):
            assert [x.hex() for x in a] == [x.hex() for x in b], field.name
        elif isinstance(a, float):
            assert a.hex() == b.hex(), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("conditioning", ["full-path", "per-time"])
def test_shared_pass_matches_per_threshold_estimates(conditioning, threads):
    # One pass under the widest threshold scores every threshold bit for bit
    # as its own pass does, across a chunk boundary, in both modes.
    replicates = CHUNK_SIZE + 300
    got = shared_estimates(SHARED_THRESHOLDS, replicates, 7, threads, conditioning)
    assert list(got) == list(SHARED_THRESHOLDS)
    for thr, result in got.items():
        try:
            want = estimate_associational(
                SHARED, ThresholdRule(thr), SHARED_ZEROS, replicates, 7, threads,
                conditioning, keep_samples=True,
            )
        except EmptyConditioningError as exc:
            assert thr == 1e-7 and result == exc.first_divergence == {1: replicates}
            continue
        assert 0 < want.replicates_retained < replicates
        assert_same_estimate(result, want)


def test_shared_pass_steps_like_the_widest_rule(monkeypatch):
    # A shared pass makes one step call per day per chunk, on the lanes a
    # pass under the widest rule alone steps.
    lanes = []
    step = montecarlo.sir_step_arrays

    def counted(s, *args):
        lanes.append(s.size)
        return step(s, *args)

    monkeypatch.setattr(montecarlo, "sir_step_arrays", counted)
    replicates = CHUNK_SIZE + 300
    shared_estimates(SHARED_THRESHOLDS, replicates, 7, 1, "full-path")
    shared_lanes = lanes[:]
    lanes.clear()
    estimate_associational(SHARED, ThresholdRule(max(SHARED_THRESHOLDS)), SHARED_ZEROS,
                           replicates, 7)
    assert len(shared_lanes) == 2 * SHARED.horizon
    assert shared_lanes == lanes


def test_shared_pass_rejects_what_it_cannot_score():
    wide, narrow = ThresholdRule(0.03), ThresholdRule(0.003)
    args = (SHARED_ZEROS, 2000, 7)
    # The pass runs under the last rule; here it retires lanes the first
    # rule still follows.
    misordered = associational_pass(SHARED, (wide, narrow), *args)
    with pytest.raises(ValueError, match="diverge last"):
        estimate_associational(SHARED, wide, *args, shared=misordered)
    with pytest.raises(ValueError, match="random rule"):
        associational_pass(SHARED, (ExogenousRule(0.5), wide), *args)
    shared = associational_pass(SHARED, (narrow, wide), *args)
    with pytest.raises(ValueError, match="other arguments"):
        estimate_associational(SHARED, wide, SHARED_ZEROS, 2000, 8, shared=shared)
    with pytest.raises(ValueError, match="not a rule"):
        estimate_associational(SHARED, ThresholdRule(0.03), *args, shared=shared)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        estimate_causal(SMALL, ZEROS, 0, 1)
    with pytest.raises(ValueError):
        estimate_causal(SMALL, (0,) * 3, 100, 1)  # wrong sequence length
