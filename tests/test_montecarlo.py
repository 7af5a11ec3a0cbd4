"""Monte Carlo estimator engine: determinism, conditioning, thread safety."""

import collections
import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from epibias import montecarlo
from epibias.errors import EmptyConditioningError
from epibias.montecarlo import (
    CHUNK_SIZE,
    CONDITIONING_MODES,
    EstimateResult,
    Pass,
    compute_bias_report,
    estimate_associational,
    estimate_causal,
)
from epibias.policies import ExogenousRule, ForcedSequenceRule, ThresholdRule
from epibias.sir import CHUNK_BYTES_BUDGET, LANE_BYTES, SirParams
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


def test_one_worker_is_the_caller_and_more_step_off_it(monkeypatch):
    # The pool's results equal a serial run's, so only the threads tell them
    # apart; every entry point defaults to one worker.
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    callers = set()
    step = montecarlo.sir_step_arrays

    def recorded(*args):
        callers.add(threading.get_ident())
        return step(*args)

    monkeypatch.setattr(montecarlo, "sir_step_arrays", recorded)
    params, zeros, n, rule = SirParams(horizon=2), (0, 0), 2 * CHUNK_SIZE, ThresholdRule(0.5)
    for run in (lambda: estimate_causal(params, zeros, n, 3),
                lambda: Pass(params, [rule], zeros, n, 3).totals,
                lambda: compute_bias_report(params, rule, zeros, n, 3)):
        callers.clear()
        run()
        assert callers == {threading.get_ident()}
    callers.clear()
    estimate_causal(params, zeros, n, 3, threads=2)
    assert callers and threading.get_ident() not in callers


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
    rule = ThresholdRule(1.0 - 1e-9)
    assoc = estimate_associational(Pass(SMALL, [rule], ZEROS, 5000, 11), rule)
    assert assoc.replicates_retained == 5000
    assert assoc.mean == causal.mean
    assert assoc.std_error == causal.std_error
    assert assoc.per_time_means == causal.per_time_means


def test_retained_counts_and_samples():
    rule = ThresholdRule(0.001)
    res = estimate_associational(
        Pass(SMALL, [rule], ZEROS, 4000, 13, keep_samples=True), rule
    )
    assert 0 < res.replicates_retained < 4000
    assert len(res.samples) == res.replicates_retained
    assert res.mean == pytest.approx(np.mean(res.samples))
    expected_se = np.std(res.samples, ddof=1) / np.sqrt(res.replicates_retained)
    assert res.std_error == pytest.approx(expected_se)
    # Retained trajectories never crossed the threshold before the last day.
    assert all(s <= 0.5 for s in res.samples)


def test_standard_error_of_one_and_two_replicates():
    # One sample has no spread to measure; two have the sample formula's.
    rule = ForcedSequenceRule(ZEROS)
    one, two = (
        estimate_associational(Pass(SMALL, [rule], None, n, 13, keep_samples=True), rule)
        for n in (1, 2)
    )
    assert one.std_error == 0.0
    assert two.std_error == pytest.approx(abs(two.samples[0] - two.samples[1]) / 2)
    assert two.std_error > 0


def test_empty_conditioning_raises_with_diagnostics():
    # Threshold below y_0: the rule fires on day one for every replicate.
    rule = ThresholdRule(1e-7)
    with pytest.raises(EmptyConditioningError) as exc:
        estimate_associational(Pass(SMALL, [rule], ZEROS, 64, 3), rule)
    err = exc.value
    assert err.replicates_total == 64
    # Everyone diverged at the first treatment decision.
    assert err.first_divergence == {1: 64}


def test_empty_conditioning_names_the_three_commonest_divergence_days():
    err = EmptyConditioningError(12, {1: 1, 2: 5, 3: 3, 4: 2, 5: 1})
    assert str(err).endswith("(most common first divergence: t=2: 5, t=3: 3, t=4: 2)")


def test_a_lone_divergence_reaches_the_diagnostics():
    # A day on which one replicate diverged is a day of the histogram.
    rule = ThresholdRule(1e-7)
    with pytest.raises(EmptyConditioningError) as exc:
        estimate_associational(Pass(SMALL, [rule], ZEROS, 1, 3), rule)
    assert exc.value.first_divergence == {1: 1}


def test_per_time_conditioning_agrees_at_final_time():
    rule = ThresholdRule(0.002)
    full = estimate_associational(
        Pass(SMALL, [rule], ZEROS, 20000, 21, conditioning="full-path"), rule
    )
    per_t = estimate_associational(
        Pass(SMALL, [rule], ZEROS, 20000, 21, conditioning="per-time"), rule
    )
    assert per_t.mean == full.mean
    assert per_t.replicates_retained == full.replicates_retained
    # Earlier times condition on a looser event, so the means can differ
    # but must exist wherever the full-path means exist.
    assert len(per_t.per_time_means) == len(full.per_time_means)


def test_unknown_conditioning_mode_rejected():
    rule = ThresholdRule(0.1)
    with pytest.raises(ValueError):
        estimate_associational(
            Pass(SMALL, [rule], ZEROS, 100, 1, conditioning="sideways"), rule
        )


def test_bias_report_wires_subseeds():
    report = compute_bias_report(SMALL, ThresholdRule(0.003), ZEROS, 8000, 42)
    causal = estimate_causal(SMALL, ZEROS, 8000, derive_substream_seed(42, 0))
    rule = ThresholdRule(0.003)
    assoc = estimate_associational(
        Pass(SMALL, [rule], ZEROS, 8000, derive_substream_seed(42, 1)), rule
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
    rule = ExogenousRule(0.5)
    res1 = estimate_associational(Pass(params, [rule], (0,) * 6, 2000, 5), rule)
    res2 = estimate_associational(Pass(params, [rule], (0,) * 6, 2000, 5), rule)
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
    return montecarlo.Sums(
        retained=int(retained.sum()),
        per_t_sums=per_t_sums,
        per_t_counts=per_t_counts,
        final_sum=float(y_final.sum()),
        final_sumsq=float((y_final * y_final).sum()),
        divergence_hist=np.bincount(first_div[~retained], minlength=T + 1),
        samples=(y_final,),
    )


RETIREMENT_CASES = [
    pytest.param(SirParams(horizon=30), ThresholdRule(0.01), (0,) * 30, False, id="threshold"),
    pytest.param(SirParams(horizon=30), ThresholdRule(0.01), (0,) * 30, True,
                 id="threshold-per-time"),
    pytest.param(SirParams(horizon=6), ExogenousRule(0.5), (0, 1, 0, 1, 1, 0), False,
                 id="exogenous"),
    pytest.param(SirParams(horizon=6), ExogenousRule(0.5), (0, 1, 0, 1, 1, 0), True,
                 id="exogenous-per-time"),
    # One column is summed pairwise, where a mask would change the pairs.
    pytest.param(SirParams(horizon=1, beta=3.0, overdispersion=100.0), ExogenousRule(0.3), (0,),
                 True, id="one-day-per-time"),
]


@pytest.mark.parametrize("params, rule, target, per_time", RETIREMENT_CASES)
def test_retiring_lanes_matches_full_width_scoring(params, rule, target, per_time):
    # Lanes that leave the target path stop being simulated; every statistic
    # must still equal full-width simulation scored afterwards, bit for bit.
    lo, hi = 100, 2100
    conditioning = "per-time" if per_time else "full-path"
    run = montecarlo.Pass(params, (rule,), target, hi, 5, conditioning=conditioning,
                          keep_samples=True)
    got, = montecarlo._chunk_stats(run, lo, hi)[0]
    want = score_full_width(params, rule, target, 5, lo, hi, per_time)
    assert 0 < got.retained < hi - lo
    for field in dataclasses.fields(montecarlo.Sums):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.array_equal(a, b), field.name
        assert np.asarray(a).dtype.kind == np.asarray(b).dtype.kind, field.name


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
    res, = montecarlo._chunk_stats(montecarlo.Pass(params, (rule,), target, n, 9), 0, n)[0]
    T = params.horizon
    hist = res.divergence_hist
    assert hist.sum() + res.retained == n
    assert (hist[1] == n) == all_leave_on_day_1
    assert len(lanes) == T and len(decided) == T
    days = np.arange(T + 1)
    assert sum(lanes) == (hist * (days - 1)).sum() + res.retained * T
    assert sum(decided) == (hist * days).sum() + res.retained * T
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
    """Every threshold's estimate read from one shared pass made with the
    rules in the order given (the first divergence when empty)."""
    rules = {thr: ThresholdRule(thr) for thr in thresholds}
    shared = Pass(
        SHARED, list(rules.values()), SHARED_ZEROS, replicates, seed, threads, conditioning,
        keep_samples=True,
    )
    out = {}
    for thr, rule in rules.items():
        try:
            out[thr] = estimate_associational(shared, rule)
        except EmptyConditioningError as exc:
            out[thr] = exc.first_divergence
    return out


def assert_same_estimate(got, want):
    for field in dataclasses.fields(EstimateResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "samples" and a is not None:
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
            rule = ThresholdRule(thr)
            want = estimate_associational(
                Pass(SHARED, [rule], SHARED_ZEROS, replicates, 7, threads,
                     conditioning, keep_samples=True),
                rule,
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
    rule = ThresholdRule(max(SHARED_THRESHOLDS))
    estimate_associational(Pass(SHARED, [rule], SHARED_ZEROS, replicates, 7), rule)
    assert len(shared_lanes) == 2 * SHARED.horizon
    assert shared_lanes == lanes


@pytest.mark.parametrize("rules, target", [
    pytest.param((ExogenousRule(0.5), ThresholdRule(0.03)), SHARED_ZEROS, id="exogenous"),
    pytest.param((ForcedSequenceRule(SHARED_ZEROS), ThresholdRule(0.03)), SHARED_ZEROS,
                 id="forced"),
    pytest.param((ThresholdRule(0.003), ThresholdRule(0.03)), (0,) * 29 + (1,),
                 id="nonzero-target"),
    pytest.param((ThresholdRule(0.003), ThresholdRule(0.03)), None, id="no-target"),
])
def test_shared_pass_rejects_what_it_cannot_score(rules, target):
    # Only threshold rules on the all-zero target share a pass: there the
    # largest threshold leaves the target last on every replicate.
    with pytest.raises(ValueError, match="only threshold rules"):
        montecarlo.Pass(SHARED, rules, target, 2000, 7)


def test_a_shared_pass_reads_only_its_own_rules():
    narrow, wide = ThresholdRule(0.003), ThresholdRule(0.03)
    shared = Pass(SHARED, (narrow, wide), SHARED_ZEROS, 2000, 7)
    with pytest.raises(ValueError, match="not a rule"):
        estimate_associational(shared, ThresholdRule(0.03))


@pytest.mark.parametrize("threads", [1, 2])
def test_engine_memory_does_not_grow_with_the_chunk_count(monkeypatch, threads):
    # Each chunk's partial sums are folded into the totals as the chunk is
    # yielded, and workers run at most two windows of blocks ahead of the
    # fold, so a shared pass over 400 chunks peaks where one over 50 does.
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 8)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    params = SirParams(horizon=5)
    rules = [ThresholdRule(thr) for thr in sorted(SHARED_THRESHOLDS)]

    def peak(chunks):
        shared = Pass(params, rules, (0,) * 5, 8 * chunks, 7, threads)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        shared.totals
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        peak(2)  # leave one-time allocations out of both peaks
        fifty, four_hundred = peak(50), peak(400)
    finally:
        tracemalloc.stop()
    assert four_hundred <= 1.5 * fifty


def test_per_time_sums_copy_no_outcomes():
    # Per-time sums leave retired columns out by a mask, not a masked copy of
    # the (n, T) outcomes, so a six-threshold pass at T = 1,000 peaks where
    # the same pass under full-path conditioning does.
    rules = [ThresholdRule(thr) for thr in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)]

    def peak(horizon, conditioning):
        shared = Pass(SirParams(horizon=horizon), rules, (0,) * horizon,
                      CHUNK_SIZE, 7, 1, conditioning)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        shared.totals
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        peak(5, "per-time")  # leave one-time allocations, scipy's import too, out of both
        full_path, per_time = peak(1000, "full-path"), peak(1000, "per-time")
    finally:
        tracemalloc.stop()
    assert per_time <= 1.02 * full_path


FOLD_RUNS = [
    pytest.param(SirParams(horizon=6), (ExogenousRule(0.5),), (0, 1, 0, 1, 1, 0), 4,
                 id="exogenous"),
    pytest.param(SHARED, tuple(ThresholdRule(thr) for thr in (0.003, 0.01, 0.03)),
                 SHARED_ZEROS, 0, id="shared"),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("conditioning", CONDITIONING_MODES)
@pytest.mark.parametrize("params, rules, target, seed", FOLD_RUNS)
def test_fold_from_the_first_chunk_equals_a_fold_from_zeros(
    monkeypatch, params, rules, target, seed, conditioning, threads
):
    # A pass merges every chunk's sums from the first chunk's own.  It must
    # give the bits of a fold from zeros over fresh chunk sums, also for a
    # rule whose first chunk retains nothing.  The fold here is written out
    # field by field, apart from `Sums.merge`.
    monkeypatch.setattr(montecarlo, "CHUNK_SIZE", 8)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    T = params.horizon
    run = montecarlo.Pass(params, rules, target, 8 * 20 + 3, seed, threads, conditioning,
                          keep_samples=True)
    zero = montecarlo.Sums(retained=0, per_t_sums=np.zeros(T),
                           per_t_counts=np.zeros(T, dtype=np.int64), final_sum=0.0,
                           final_sumsq=0.0, divergence_hist=np.zeros(T + 1, dtype=np.int64),
                           samples=())
    want = [zero] * len(rules)
    _, blocks = montecarlo._blocks(T, run.replicates, threads)
    chunks = [chunk for lo, hi in blocks for chunk in montecarlo._chunk_stats(run, lo, hi)]
    assert chunks[0][0].retained == 0
    for chunk in chunks:
        want = [
            montecarlo.Sums(
                retained=total.retained + res.retained,
                per_t_sums=total.per_t_sums + res.per_t_sums,
                per_t_counts=total.per_t_counts + res.per_t_counts,
                final_sum=total.final_sum + res.final_sum,
                final_sumsq=total.final_sumsq + res.final_sumsq,
                divergence_hist=total.divergence_hist + res.divergence_hist,
                samples=total.samples + res.samples,
            )
            for total, res in zip(want, chunk)
        ]
    assert run.totals[0].retained > 0
    for got, total in zip(run.totals, want):
        assert len(got.samples) == len(total.samples) == len(chunks)
        for a, b in zip(got.samples, total.samples):
            assert np.array_equal(a, b)
        for field in ("final_sum", "final_sumsq"):
            assert getattr(got, field).hex() == getattr(total, field).hex(), field
        assert [x.hex() for x in got.per_t_sums] == [x.hex() for x in total.per_t_sums]
        for field in ("per_t_counts", "divergence_hist", "retained"):
            a, b = getattr(got, field), getattr(total, field)
            assert np.array_equal(a, b), field
            assert np.asarray(a).dtype == np.asarray(b).dtype, field


# Six chunks, the last of 77 replicates; and three, the last of one.
BLOCK_EDGE_REPLICATES = [5 * CHUNK_SIZE + 77, 2 * CHUNK_SIZE + 1]


def error_text(call):
    try:
        call()
    except EmptyConditioningError as exc:
        return f"{exc} {exc.first_divergence}"
    except ValueError as exc:
        return str(exc)
    raise AssertionError("no error raised")


@pytest.mark.parametrize("replicates", BLOCK_EDGE_REPLICATES)
def test_blocks_move_no_bit_at_any_thread_count(monkeypatch, replicates):
    # Two to four workers step the day loop over blocks of one or two chunks;
    # each chunk is still reduced alone and folded in ascending order, so
    # every figure and error reads as with one worker.
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    params = SirParams(horizon=3)
    rules = [ThresholdRule(thr) for thr in (0.0004, 0.0005, 0.0006)]

    def run(threads):
        out = [estimate_causal(params, (0,) * 3, replicates, 7, threads)]
        for conditioning in CONDITIONING_MODES:
            shared = Pass(params, rules, (0,) * 3, replicates, 7, threads,
                          conditioning, keep_samples=True)
            out += [estimate_associational(shared, rule) for rule in rules]
            # Listed widest first, the family still runs under the widest.
            misordered = Pass(params, rules[::-1], (0,) * 3, replicates, 7,
                              threads, conditioning, keep_samples=True)
            for rule, want in zip(rules, out[-3:]):
                assert_same_estimate(estimate_associational(misordered, rule), want)
        report = compute_bias_report(params, ExogenousRule(0.5), (0,) * 3, replicates, 7,
                                     threads, "per-time")
        out += [report.causal, report.associational]
        empty = Pass(params, [ThresholdRule(1e-7)], (0,) * 3, replicates, 7, threads)
        errors = [error_text(lambda: estimate_associational(empty, empty.rules[0]))]
        return out, errors

    want, want_errors = run(1)
    assert all(0 < res.replicates_retained < replicates for res in want[1:7])
    assert f"{{1: {replicates}}}" in want_errors[0]
    for threads in (2, 3, 4):
        got, errors = run(threads)
        for a, b in zip(got, want):
            assert_same_estimate(a, b)
        assert errors == want_errors


@pytest.mark.parametrize("threads, widths", [
    (1, [CHUNK_SIZE] * 5 + [77]),
    (2, [2 * CHUNK_SIZE] * 2 + [CHUNK_SIZE + 77]),
    (3, [2 * CHUNK_SIZE] * 2 + [CHUNK_SIZE + 77]),
    (4, [2 * CHUNK_SIZE] * 2 + [CHUNK_SIZE, 77]),
])
def test_each_block_steps_all_its_days_on_one_thread(monkeypatch, threads, widths):
    # perfbench's tracer takes every horizon-th step call on a thread as the
    # last day of some block, so each block's T step calls run in a row on
    # one thread.  Blocks hold at most two chunks, never fewer than workers.
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    params = SirParams(horizon=3)
    calls = collections.defaultdict(list)
    step = montecarlo.sir_step_arrays

    def counted(s, *args):
        calls[threading.get_ident()].append(s.size)
        return step(s, *args)

    monkeypatch.setattr(montecarlo, "sir_step_arrays", counted)
    estimate_causal(params, (0,) * 3, 5 * CHUNK_SIZE + 77, 7, threads)
    T = params.horizon
    blocks = []
    for sizes in calls.values():
        assert len(sizes) % T == 0
        for k in range(0, len(sizes), T):
            assert sizes[k : k + T] == [sizes[k]] * T
            blocks.append(sizes[k])
    assert sum(len(sizes) for sizes in calls.values()) == T * len(widths)
    assert sorted(blocks) == sorted(widths)


def test_two_chunk_blocks_fit_the_chunk_budget(monkeypatch):
    # Above this horizon two chunks' outcomes and lane vectors would pass
    # sir.CHUNK_BYTES_BUDGET, so every block is one chunk.
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    two_fit = (CHUNK_BYTES_BUDGET // (2 * CHUNK_SIZE) - LANE_BYTES) // 8 - 1
    for horizon, width in [(two_fit, 2 * CHUNK_SIZE), (two_fit + 1, CHUNK_SIZE)]:
        workers, blocks = montecarlo._blocks(horizon, 8 * CHUNK_SIZE, 2)
        assert workers == 2
        assert [hi - lo for lo, hi in blocks] == [width] * (8 * CHUNK_SIZE // width)
    assert two_fit == 4079
    # Below it, chunks pair up but never into fewer blocks than workers: the
    # docstring's 4 chunks on 3 workers, and 5 chunks on 2.
    for chunks, threads, widths in [(4, 3, [2, 1, 1]), (5, 2, [2, 2, 1])]:
        workers, blocks = montecarlo._blocks(100, chunks * CHUNK_SIZE, threads)
        assert workers == threads
        assert [(hi - lo) // CHUNK_SIZE for lo, hi in blocks] == widths


@pytest.mark.parametrize("seed, threads, message", [
    pytest.param(2**70, 1, "master_seed", id="seed-2**70"),
    pytest.param(-1, 1, "master_seed", id="seed-minus-1"),
    pytest.param(5, 0, "threads", id="threads-0"),
    pytest.param(3.0, 1, "master_seed", id="seed-float"),
    pytest.param("3", 1, "master_seed", id="seed-str"),
])
def test_rejects_aliasing_seeds_and_no_threads(seed, threads, message):
    # Stream keys read a seed's low 64 bits, so 2**70 would run seed 0 and
    # -1 would run 2**64 - 1; and zero threads would run one worker.  The
    # sub-seeds of a bias report refuse a seed as a pass does.
    rule = ThresholdRule(0.1)
    with pytest.raises(ValueError, match=message):
        estimate_causal(SMALL, ZEROS, 100, seed, threads)
    with pytest.raises(ValueError, match=message):
        Pass(SMALL, [rule], ZEROS, 100, seed, threads)
    with pytest.raises(ValueError, match=message):
        compute_bias_report(SMALL, rule, ZEROS, 100, seed, threads)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        estimate_causal(SMALL, ZEROS, 0, 1)
    with pytest.raises(ValueError):
        estimate_causal(SMALL, (0,) * 3, 100, 1)  # wrong sequence length


@pytest.mark.parametrize("replicates, seed, threads, message", [
    pytest.param(100.0, 5, 1, "replicates", id="replicates-float"),
    pytest.param(100, 3.0, 1, "master_seed", id="seed-float"),
    pytest.param(100, 5, 2.5, "threads", id="threads-float"),
    pytest.param(100, 5, True, "threads", id="threads-bool"),
])
def test_rejects_non_integer_counts(replicates, seed, threads, message):
    # A float count would fail only at the first read, deep in numpy or the
    # streams, and a float or bool thread count would run without complaint.
    with pytest.raises(ValueError, match=message):
        estimate_causal(SMALL, ZEROS, replicates, seed, threads)
    with pytest.raises(ValueError, match=message):
        Pass(SMALL, [ThresholdRule(0.1)], ZEROS, replicates, seed, threads)


def test_accepts_numpy_integer_counts():
    got = estimate_causal(SMALL, ZEROS, np.int64(100), np.uint64(5), np.int32(2))
    assert_same_estimate(got, estimate_causal(SMALL, ZEROS, 100, 5, 2))
    rule = ThresholdRule(0.1)
    report = compute_bias_report(SMALL, rule, ZEROS, np.int64(100), np.uint64(5))
    assert report == compute_bias_report(SMALL, rule, ZEROS, 100, 5)


@pytest.mark.parametrize("entry", [0.5, 300, True, 1.0, -1])
def test_rejects_a_target_entry_other_than_0_or_1(entry):
    # 0.5 once ran the all-zero target, truncated; 300 overflowed int8; True
    # and 1.0 ran as 1.  A forced sequence refuses the same entries.
    target = (0, entry) + (0,) * (SMALL.horizon - 2)
    with pytest.raises(ValueError, match="0 or 1"):
        Pass(SMALL, [ThresholdRule(0.1)], target, 100, 5)
    with pytest.raises(ValueError, match="0 or 1"):
        estimate_causal(SMALL, target, 100, 5)
    assert Pass(SMALL, [ThresholdRule(0.1)], list(ZEROS), 100, 5).target == ZEROS


def test_a_pass_stores_one_or_more_rules_as_a_tuple():
    rule = ThresholdRule(0.1)
    assert Pass(SMALL, [rule], ZEROS, 100, 5).rules == (rule,)
    with pytest.raises(ValueError, match="no rule"):
        Pass(SMALL, [], ZEROS, 100, 5)


@pytest.mark.parametrize("length", [SMALL.horizon - 1, SMALL.horizon + 1])
def test_a_target_of_another_length_than_the_horizon_is_refused(length):
    with pytest.raises(ValueError, match="does not match horizon"):
        Pass(SMALL, [ThresholdRule(0.1)], (0,) * length, 100, 5)
