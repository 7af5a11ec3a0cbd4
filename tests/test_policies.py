"""Decision rules: threshold triggering, forced sequences, coin flips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epibias.errors import SequenceExhaustedError
from epibias.policies import ExogenousRule, ForcedSequenceRule, ThresholdRule
from epibias.streams import counter_uniform_array, stream_keys


def decide_one(rule, treatments, outcomes, u=None):
    """The rule's decision for one replicate with the given history."""
    u_arr = None if u is None else np.array([u])
    out = rule.decide_batch(
        np.array([treatments], dtype=np.int8),
        np.array([outcomes], dtype=np.float64),
        u_arr,
    )
    assert out.shape == (1,)
    return int(out[0])


class TestThresholdRule:
    def test_below_threshold_does_not_trigger(self):
        rule = ThresholdRule(0.05)
        assert decide_one(rule, [], [0.0002]) == 0
        assert decide_one(rule, [0, 0], [0.0002, 0.01, 0.049]) == 0

    def test_tie_does_not_trigger(self):
        rule = ThresholdRule(0.05)
        assert decide_one(rule, [], [0.05]) == 0

    def test_strictly_above_triggers(self):
        rule = ThresholdRule(0.05)
        assert decide_one(rule, [], [0.050001]) == 1
        assert decide_one(rule, [0], [0.0002, 0.3]) == 1

    def test_intervention_is_absorbing(self):
        rule = ThresholdRule(0.05)
        # Started earlier, outcome back below threshold: absorbing.
        assert decide_one(rule, [0, 1], [0.0002, 0.06, 0.01]) == 1

    def test_threshold_attribute_round_trips(self):
        assert ThresholdRule(0.25).threshold == 0.25

    def test_threshold_must_be_interior(self):
        for bad in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError):
                ThresholdRule(bad)

    def test_batch_matches_scalar(self):
        # Each row of a batch decision equals the rule applied to that row
        # alone, written out per replicate.
        rule = ThresholdRule(0.1)
        rng = np.random.default_rng(4)
        for t in range(4):
            treatments = rng.integers(0, 2, size=(40, t))
            outcomes = rng.uniform(0, 0.2, size=(40, t + 1))
            batch = rule.decide_batch(treatments, outcomes)
            assert batch.dtype == np.int8
            for row in range(40):
                started = any(a != 0 for a in treatments[row])
                expected = 1 if started or outcomes[row, -1] > 0.1 else 0
                assert batch[row] == expected


class TestForcedSequence:
    def test_replays_sequence(self):
        rule = ForcedSequenceRule((0, 1, 1))
        assert decide_one(rule, [], [0.1]) == 0
        assert decide_one(rule, [0], [0.1, 0.2]) == 1
        assert decide_one(rule, [0, 1], [0.1, 0.2, 0.3]) == 1

    def test_exhaustion_raises(self):
        rule = ForcedSequenceRule((0,))
        with pytest.raises(SequenceExhaustedError):
            decide_one(rule, [0], [0.1, 0.2])

    def test_batch_ignores_outcomes(self):
        rule = ForcedSequenceRule((1, 0))
        out = rule.decide_batch(np.zeros((5, 0), dtype=np.int8), np.full((5, 1), 0.9))
        np.testing.assert_array_equal(out, np.ones(5, dtype=np.int8))

    def test_consumes_no_randomness(self):
        assert not ForcedSequenceRule((0,)).uses_randomness


class TestExogenousRule:
    def test_uses_randomness(self):
        assert ExogenousRule(0.5).uses_randomness

    def test_decision_is_u_less_than_p(self):
        rule = ExogenousRule(0.3)
        assert decide_one(rule, [], [0.1], u=0.29) == 1
        assert decide_one(rule, [], [0.1], u=0.31) == 0

    def test_batch_matches_scalar_semantics(self):
        rule = ExogenousRule(0.6)
        u = np.array([0.1, 0.59, 0.6, 0.95])
        out = rule.decide_batch(np.zeros((4, 0)), np.full((4, 1), 0.2), u)
        np.testing.assert_array_equal(out, np.array([1, 1, 0, 0]))

    def test_long_run_frequency(self):
        rule = ExogenousRule(0.25)
        u = counter_uniform_array(stream_keys(99, np.arange(4000, dtype=np.uint64)), 0)
        draws = rule.decide_batch(np.zeros((4000, 0)), np.full((4000, 1), 0.1), u)
        assert abs(np.mean(draws) - 0.25) < 0.02

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            ExogenousRule(-0.1)
        with pytest.raises(ValueError):
            ExogenousRule(1.5)


@given(
    threshold=st.floats(0.01, 0.99),
    outcomes=st.lists(st.floats(0, 1), min_size=1, max_size=6),
)
def test_threshold_rule_never_triggers_below(threshold, outcomes):
    rule = ThresholdRule(threshold)
    treatments = [0] * (len(outcomes) - 1)
    decision = decide_one(rule, treatments, outcomes)
    assert decision == (1 if outcomes[-1] > threshold else 0)
