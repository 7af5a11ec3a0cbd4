"""Monte Carlo estimator engine: determinism, conditioning, thread safety."""

import numpy as np
import pytest

from epibias import montecarlo
from epibias.errors import EmptyConditioningError
from epibias.montecarlo import (
    CHUNK_SIZE,
    compute_bias_report,
    estimate_associational,
    estimate_causal,
)
from epibias.policies import ExogenousRule, ThresholdRule
from epibias.sir import SirParams
from epibias.streams import derive_substream_seed

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


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        estimate_causal(SMALL, ZEROS, 0, 1)
    with pytest.raises(ValueError):
        estimate_causal(SMALL, (0,) * 3, 100, 1)  # wrong sequence length
