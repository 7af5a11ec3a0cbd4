"""Decision rules: threshold triggering, forced sequences, coin flips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epibias.errors import SequenceExhaustedError
from epibias.policies import ExogenousRule, ForcedSequenceRule, ThresholdRule
from epibias.streams import counter_uniform_array, stream_keys


def decide_one(rule, t, last, y, u=None):
    """The rule's day-t decision for one replicate whose previous decision
    was `last` and latest outcome `y`."""
    u_arr = None if u is None else np.array([u])
    out = rule.decide_batch(t, np.array([last], dtype=np.int8), np.array([y]), u_arr)
    assert out.shape == (1,)
    return int(out[0])


@pytest.mark.parametrize("rule,name,draws", [
    (ThresholdRule(0.1), "threshold(0.1)", False),
    (ForcedSequenceRule([0, 1]), "forced", False),
    (ExogenousRule(0.5), "exogenous(0.5)", True),
])
def test_a_rule_names_itself_and_says_whether_it_draws(rule, name, draws):
    # The engine budgets a policy uniform by `uses_randomness`, and errors name the rule.
    assert (rule.name, rule.uses_randomness) == (name, draws)


@pytest.mark.parametrize("p,treated", [(0.0, 0), (1.0, 1)])
def test_exogenous_rule_at_the_ends_of_its_range(p, treated):
    u = np.array([2.0**-54, 0.5, 1.0 - 2.0**-53])  # near both ends of (0, 1)
    decided = ExogenousRule(p).decide_batch(1, np.zeros(3, np.int8), np.zeros(3), u)
    assert decided.tolist() == [treated] * 3


class TestThresholdRule:
    def test_below_threshold_does_not_trigger(self):
        rule = ThresholdRule(0.05)
        assert decide_one(rule, 1, 0, 0.0002) == 0
        assert decide_one(rule, 3, 0, 0.049) == 0

    def test_tie_does_not_trigger(self):
        rule = ThresholdRule(0.05)
        assert decide_one(rule, 1, 0, 0.05) == 0

    def test_strictly_above_triggers(self):
        rule = ThresholdRule(0.05)
        assert decide_one(rule, 1, 0, 0.050001) == 1
        assert decide_one(rule, 2, 0, 0.3) == 1

    def test_intervention_is_absorbing(self):
        rule = ThresholdRule(0.05)
        # Started earlier, outcome back below threshold: absorbing.
        assert decide_one(rule, 3, 1, 0.01) == 1

    def test_threshold_attribute_round_trips(self):
        assert ThresholdRule(0.25).threshold == 0.25

    def test_threshold_must_be_interior(self):
        for bad in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError):
                ThresholdRule(bad)

    def test_batch_matches_scalar(self):
        # Fed its own decisions, the rule gives each row "any earlier
        # treatment, or y > threshold", written out per replicate.
        rule = ThresholdRule(0.1)
        outcomes = np.random.default_rng(4).uniform(0, 0.13, size=(40, 6))
        history = [[] for _ in range(40)]
        last = np.zeros(40, dtype=np.int8)
        kept_on = 0  # decisions that treat only because treatment started earlier
        for t in range(1, 7):
            last = rule.decide_batch(t, last, outcomes[:, t - 1])
            assert last.dtype == np.int8
            for row in range(40):
                started = any(a != 0 for a in history[row])
                expected = 1 if started or outcomes[row, t - 1] > 0.1 else 0
                assert last[row] == expected
                history[row].append(expected)
                kept_on += started and outcomes[row, t - 1] <= 0.1
        assert 0 < last.sum() < 40 and kept_on > 0


class TestForcedSequence:
    def test_replays_sequence(self):
        rule = ForcedSequenceRule((0, 1, 1))
        assert decide_one(rule, 1, 0, 0.1) == 0
        assert decide_one(rule, 2, 0, 0.2) == 1
        assert decide_one(rule, 3, 1, 0.3) == 1

    def test_exhaustion_raises(self):
        rule = ForcedSequenceRule((0,))
        with pytest.raises(SequenceExhaustedError):
            decide_one(rule, 2, 0, 0.2)

    def test_batch_ignores_outcomes(self):
        rule = ForcedSequenceRule((1, 0))
        out = rule.decide_batch(1, np.zeros(5, dtype=np.int8), np.full(5, 0.9))
        np.testing.assert_array_equal(out, np.ones(5, dtype=np.int8))

    def test_consumes_no_randomness(self):
        assert not ForcedSequenceRule((0,)).uses_randomness


class TestExogenousRule:
    def test_uses_randomness(self):
        assert ExogenousRule(0.5).uses_randomness

    def test_decision_is_u_less_than_p(self):
        rule = ExogenousRule(0.3)
        assert decide_one(rule, 1, 0, 0.1, u=0.29) == 1
        assert decide_one(rule, 1, 0, 0.1, u=0.31) == 0

    def test_batch_matches_scalar_semantics(self):
        rule = ExogenousRule(0.6)
        u = np.array([0.1, 0.59, 0.6, 0.95])
        out = rule.decide_batch(1, np.zeros(4, dtype=np.int8), np.full(4, 0.2), u)
        np.testing.assert_array_equal(out, np.array([1, 1, 0, 0]))

    def test_long_run_frequency(self):
        rule = ExogenousRule(0.25)
        u = counter_uniform_array(stream_keys(99, np.arange(4000, dtype=np.uint64)), 0)
        draws = rule.decide_batch(1, np.zeros(4000, dtype=np.int8), np.full(4000, 0.1), u)
        assert abs(np.mean(draws) - 0.25) < 0.02

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            ExogenousRule(-0.1)
        with pytest.raises(ValueError):
            ExogenousRule(1.5)


@given(threshold=st.floats(0.01, 0.99), y=st.floats(0, 1), t=st.integers(1, 100))
def test_threshold_rule_never_triggers_below(threshold, y, t):
    # Not yet started, the rule treats exactly when y exceeds the threshold.
    assert decide_one(ThresholdRule(threshold), t, 0, y) == (1 if y > threshold else 0)


FIGURES34_THRESHOLDS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


def divergence_days_per_lane(rule, target, outcomes):
    """First day t whose decision leaves `target`, one lane at a time, with
    the rule fed its own previous decision; 0 for a lane that never leaves."""
    days = []
    for row in outcomes:
        day, last = 0, 0
        for t in range(1, len(target) + 1):
            last = decide_one(rule, t, last, row[t - 1])
            if last != target[t - 1]:
                day = t
                break
        days.append(day)
    return np.array(days)


def pass_outcomes(seed, n=300, T=12):
    """Outcome rows like a pass's: nondecreasing shares, some entries exactly
    at a figures34 threshold (a tie must not trigger), and every column from
    a lane's pass divergence day on zeroed."""
    rng = np.random.default_rng(seed)
    outcomes = np.sort(rng.uniform(0, 0.36, size=(n, T + 1)), axis=1)
    ties = rng.random(outcomes.shape) < 0.15
    outcomes[ties] = rng.choice(FIGURES34_THRESHOLDS, size=ties.sum())
    pass_day = rng.integers(0, T + 1, size=n)  # 0: retained
    columns = np.arange(T + 1)
    outcomes[(pass_day[:, None] > 0) & (columns >= pass_day[:, None])] = 0.0
    return outcomes


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("threshold", FIGURES34_THRESHOLDS)
def test_threshold_divergence_days_match_the_day_loop(seed, threshold):
    # On the all-zero target ThresholdRule reads every lane's first crossing
    # at once; it must equal a per-lane walk, ties and zeroed tails included.
    outcomes = pass_outcomes(seed)
    rule = ThresholdRule(threshold)
    target = np.zeros(outcomes.shape[1] - 1, dtype=np.int8)
    days = rule.divergence_days(outcomes)
    assert days.dtype == np.int64
    np.testing.assert_array_equal(days, divergence_days_per_lane(rule, target, outcomes))
    assert 0 < (days == 0).sum() < days.size
