"""Opportunism diagnostics, identities, and the negative-bias property."""

import dataclasses
import hashlib
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from epibias import finite
from epibias.cli import main
from epibias.errors import UndefinedConditionalError
from epibias.finite import (
    BUILTIN_INSTANCES,
    associational_exact,
    associational_via_ratios,
    audit_decomposition,
    audit_zero_mean,
    check_monotone_process,
    check_opportunistic,
    coin_epidemic,
    exogenous_null,
    FiniteDgp,
    g_formula_exact,
    random_dgp,
    random_opportunistic_dgp,
    reversed_coin_epidemic,
    verify_theorem1,
)


class TestOpportunismChecks:
    def test_worked_example_is_opportunistic(self):
        report = check_opportunistic(coin_epidemic(), (0, 0))
        assert report.opportunistic_everywhere
        assert report.has_nonconstant
        assert report.witness_margin == pytest.approx(1.0, abs=1e-12)
        (t1,) = report.per_time
        assert t1.t == 1
        assert t1.condition_i and t1.condition_ii and t1.opportunistic
        (h,) = t1.histories
        assert h.distortion_mass == pytest.approx(1.0, abs=1e-12)
        assert h.margin == pytest.approx(1.0, abs=1e-12)

    def test_reversed_rule_fails_the_ordering_condition(self):
        report = check_opportunistic(reversed_coin_epidemic(), (0, 0))
        assert not report.opportunistic_everywhere
        (t1,) = report.per_time
        assert not t1.condition_i
        assert t1.condition_ii  # adaptation still varies with the outcome

    def test_exogenous_rule_has_no_nonconstant_times(self):
        report = check_opportunistic(exogenous_null(), (0, 0))
        assert not report.has_nonconstant
        # No time step qualifies as opportunistic on its own; the
        # "everywhere" flag is vacuously true and only meaningful jointly
        # with has_nonconstant, which is how verify_theorem1 consumes it.
        assert all(not tc.opportunistic for tc in report.per_time)

    def test_monotone_process_detected(self):
        assert check_monotone_process(coin_epidemic())

    def test_single_period_is_vacuously_monotone(self):
        dgp = FiniteDgp.from_functions(
            1, (0.0, 1.0), (0, 1), 0,
            lambda t, a, y: (0.5, 0.5),
            lambda t, a, y: (0.5, 0.5),
        )
        assert check_monotone_process(dgp)

    def test_the_start_is_not_a_time_checked(self):
        # y_1 = 1 - y_0, then y_2 = y_1: f_{2,1} rises in y_1, and only
        # f_{2,0} falls, over y_0, which is the fixed start, not a time 1..T-1.
        def outcome_fn(t, a, y):
            y_t = 1 - y[-1] if t == 1 else y[-1]
            return (1.0, 0.0) if y_t == 0 else (0.0, 1.0)

        dgp = FiniteDgp.from_functions(
            2, (0.0, 1.0), (0, 1), 0, outcome_fn, lambda t, a, y: (0.5, 0.5)
        )
        assert check_monotone_process(dgp)

    def test_anti_monotone_process_detected(self):
        # Higher intermediate outcome pushes the final outcome DOWN.
        def outcome_fn(t, a, y):
            if t == 1:
                return (0.5, 0.5)
            return (0.1, 0.9) if y[-1] == 0 else (0.9, 0.1)

        dgp = FiniteDgp.from_functions(
            2, (0.0, 1.0), (0, 1), 0, outcome_fn, lambda t, a, y: (0.5, 0.5)
        )
        assert not check_monotone_process(dgp)


class TestTheoremOnKnownInstances:
    def test_worked_example(self):
        report = verify_theorem1(coin_epidemic(), (0, 0))
        assert report.bias == pytest.approx(-0.5, abs=1e-12)
        assert report.opportunistic.opportunistic_everywhere
        assert report.theorem_respected

    def test_reversed_example_respects_theorem_vacuously(self):
        report = verify_theorem1(reversed_coin_epidemic(), (0, 0))
        assert report.bias == pytest.approx(0.5, abs=1e-12)
        assert not report.opportunistic.opportunistic_everywhere
        assert report.theorem_respected

    def test_exogenous_rule_is_unbiased(self):
        report = verify_theorem1(exogenous_null(), (0, 0))
        assert abs(report.bias) <= 1e-12
        assert report.theorem_respected


class TestIdentities:
    def test_zero_mean_identity_on_random_instances(self):
        rng = np.random.default_rng(314)
        for _ in range(25):
            assert audit_zero_mean(random_dgp(rng)) <= 1e-10

    def test_decomposition_identity_on_random_instances(self):
        rng = np.random.default_rng(159)
        for _ in range(25):
            assert audit_decomposition(random_dgp(rng)) <= 1e-10

    def test_zero_mean_audit_reports_a_row_that_does_not_sum_to_one(self, monkeypatch):
        # The residual sum_y (s_t(y) - 1) p_t(y) is 1 - sum_y p_t(y), so
        # outcome rows scaled by 1 + 1e-6 show as a residual of 1e-6.
        pinned = finite._pinned

        def scaled(dgp, path):
            P, R = pinned(dgp, path)
            return [None] + [p * (1.0 + 1e-6) for p in P[1:]], R

        monkeypatch.setattr(finite, "_pinned", scaled)
        assert audit_zero_mean(coin_epidemic()) == pytest.approx(1e-6, rel=1e-6)

    @pytest.mark.parametrize("route", ["_backward", "_forward"])
    def test_zero_mean_audit_reports_a_pass_that_disagrees(self, monkeypatch, route):
        # One pass alone scales the last rule factor by 1 + 1e-6, so its lag-1
        # propensity is off the other pass's by that factor on each reached row.
        original = getattr(finite, route)

        def scaled(P, R, *rest):
            return original(P, [*R[:-1], R[-1] * (1.0 + 1e-6)], *rest)

        monkeypatch.setattr(finite, route, scaled)
        assert audit_zero_mean(coin_epidemic()) == pytest.approx(1e-6, rel=1e-5)

    def test_decomposition_audit_reports_the_largest_disagreement(self, monkeypatch):
        # coin-epidemic can follow (0, 0) and (0, 1) only; the second is off by 2e-6.
        via_ratios = finite.associational_via_ratios
        monkeypatch.setattr(finite, "associational_via_ratios",
                            lambda dgp, target: via_ratios(dgp, target) + 1e-6 * (1 + sum(target)))
        assert audit_decomposition(coin_epidemic()) == pytest.approx(2e-6, rel=1e-6)

    def test_ratio_route_refuses_an_unreachable_target(self):
        with pytest.raises(UndefinedConditionalError, match="probability zero"):
            associational_via_ratios(coin_epidemic(), (1, 0))  # step one never treats

    def test_ratio_route_matches_path_route(self):
        rng = np.random.default_rng(358)
        checked = 0
        while checked < 15:
            dgp = random_dgp(rng)
            target = tuple(
                int(rng.choice(dgp.treatment_values)) for _ in range(dgp.horizon)
            )
            try:
                direct = associational_exact(dgp, target)
            except Exception:
                continue
            via_ratios = associational_via_ratios(dgp, target)
            assert via_ratios == pytest.approx(direct, abs=1e-10)
            checked += 1


class TestRandomizedTheoremSweep:
    def test_opportunistic_instances_have_negative_bias(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            dgp, target = random_opportunistic_dgp(rng)
            report = verify_theorem1(dgp, target)
            assert report.opportunistic.opportunistic_everywhere
            assert report.bias < 0.0
            assert report.theorem_respected

    def test_random_instances_respect_the_theorem_at_every_target(self):
        # Unstructured instances include opportunistic targets whose witness
        # margin is 0, where the exact bias is 0 up to rounding; they lie
        # outside the hypothesis.  Targets outside it with a real bias show
        # the hypothesis is not vacuous.
        rng = np.random.default_rng(2026)
        outside_with_bias = 0
        for _ in range(500):
            dgp = random_dgp(rng)
            for target in itertools.product(dgp.treatment_values, repeat=dgp.horizon):
                try:
                    report = verify_theorem1(dgp, target)
                except UndefinedConditionalError:
                    continue
                assert report.theorem_respected, target
                hypothesis = (
                    report.opportunistic.opportunistic_everywhere
                    and report.opportunistic.has_nonconstant
                    and report.opportunistic.witness_margin > 1e-12
                )
                if not hypothesis and abs(report.bias) > 1e-12:
                    outside_with_bias += 1
        assert outside_with_bias > 0

    def test_monotone_threshold_rules_are_opportunistic(self):
        # The structural family from the motivating example: monotone
        # outcome process plus a threshold-triggered intervention, checked
        # against a no-intervention target.
        rng = np.random.default_rng(4242)
        for _ in range(10):
            dgp, target, threshold = reference.random_monotone_threshold_dgp(rng)
            assert check_monotone_process(dgp)
            report = verify_theorem1(dgp, target)
            assert report.opportunistic.opportunistic_everywhere
            assert report.opportunistic.has_nonconstant
            assert report.bias < 0.0


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31))
def test_path_probabilities_always_sum_to_one(seed):
    dgp = random_dgp(np.random.default_rng(seed))
    total = sum(p.probability for p in reference.enumerate_paths(dgp))
    assert total == pytest.approx(1.0, abs=1e-10)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**31))
def test_g_formula_stays_inside_outcome_range(seed):
    rng = np.random.default_rng(seed)
    dgp = random_dgp(rng)
    target = tuple(int(rng.choice(dgp.treatment_values)) for _ in range(dgp.horizon))
    g = g_formula_exact(dgp, target)
    assert dgp.outcome_values[0] - 1e-12 <= g <= dgp.outcome_values[-1] + 1e-12


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**31))
def test_zero_mean_identity_property(seed):
    dgp = random_dgp(np.random.default_rng(seed))
    assert audit_zero_mean(dgp) <= 1e-10


# ---------------------------------------------------------------------------
# Broadcast generators against their row-function references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [42, 9042])
def test_opportunistic_generator_matches_row_reference(seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for index in range(250):
        dgp, target = random_opportunistic_dgp(fast)
        ref_dgp, ref_target = reference.random_opportunistic_dgp(slow)
        assert target == ref_target
        assert json.dumps(dgp.to_dict()) == json.dumps(ref_dgp.to_dict()), index
        got, want = verify_theorem1(dgp, target), verify_theorem1(ref_dgp, ref_target)
        assert got.bias.hex() == want.bias.hex()
        assert got.g_formula.hex() == want.g_formula.hex()
        assert got.opportunistic.witness_margin.hex() == want.opportunistic.witness_margin.hex()


def test_associational_mean_matches_enumeration_bit_for_bit():
    # The forward pass's reach probabilities, added one at a time in C order,
    # give the bits of conditioning the enumerated joint law, at every target;
    # a target the rule never follows fails alike on both sides.
    instances = [build() for build in BUILTIN_INSTANCES.values()]
    rng = np.random.default_rng(42)
    instances += [random_opportunistic_dgp(rng)[0] for _ in range(250)]
    instances += [random_dgp(np.random.default_rng(seed)) for seed in range(20)]
    unreachable = 0
    for index, dgp in enumerate(instances):
        for target in itertools.product(dgp.treatment_values, repeat=dgp.horizon):
            try:
                want = reference.associational_exact(dgp, target)
            except UndefinedConditionalError as exc:
                unreachable += 1
                with pytest.raises(UndefinedConditionalError, match=re.escape(str(exc))):
                    associational_exact(dgp, target)
            else:
                assert associational_exact(dgp, target).hex() == want.hex(), (index, target)
    assert unreachable > 0


def test_associational_mean_of_an_all_negative_zero_outcome_is_positive_zero():
    # Every path ends at the outcome -0.0, so each weighted term is -0.0; a
    # sum started at 0.0, as the enumeration's is, still gives +0.0.
    dgp = FiniteDgp.from_functions(
        1, (-1.0, -0.0), (0,), 0, lambda t, a, y: (0.0, 1.0), lambda t, a, y: (1.0,)
    )
    want = reference.associational_exact(dgp, (0,))
    assert want.hex() == "0x0.0p+0"
    assert associational_exact(dgp, (0,)).hex() == want.hex()


# sha256 of every report that test_report_digest writes, recorded before the
# fuzz tables and the opportunism passes were rebuilt with fewer numpy calls,
# with one field changed since: a zero witness margin puts
# random_dgp(default_rng(12)) at target (0, 1, 0), bias 2.2e-16, outside the
# theorem's hypothesis, so theorem_respected is True there.  The reports lost
# four fields that repeated others (HistoryCheck.nonconstant, and
# TheoremReport's target, opportunistic_everywhere and has_nonconstant); the
# digest moved with them, and the earlier reports with those four left out
# hash to it.
REPORT_DIGEST = "51d427ba9c520790de9f513a108b1446bd14b002cb293e70e98837d95dbcf74e"


def _canonical(value):
    """One text per report: floats by float.hex, sets and dicts sorted, and
    an int kept apart from the float it equals."""
    if isinstance(value, bool) or type(value) is int or isinstance(value, str):
        return repr(value)
    if type(value) is float:
        return value.hex()
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(map(_canonical, value))) + "}"
    if isinstance(value, dict):
        entries = (f"{_canonical(k)}:{_canonical(v)}" for k, v in value.items())
        return "{" + ",".join(sorted(entries)) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(map(_canonical, value)) + ")"
    if dataclasses.is_dataclass(value):
        body = ",".join(
            f"{f.name}={_canonical(getattr(value, f.name))}" for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({body})"
    raise TypeError(f"no canonical text for {type(value).__name__} {value!r}")


def test_report_digest():
    # Every field of verify_theorem1's report, every HistoryCheck included,
    # at every target of the builtins, the 250 seed-42 fuzz instances and
    # 20 random_dgp draws; an unreachable target contributes its opportunism
    # report, g-formula and error message.
    instances = [build() for build in BUILTIN_INSTANCES.values()]
    rng = np.random.default_rng(42)
    instances += [random_opportunistic_dgp(rng)[0] for _ in range(250)]
    instances += [random_dgp(np.random.default_rng(seed)) for seed in range(20)]
    digest = hashlib.sha256()
    for dgp in instances:
        for target in itertools.product(dgp.treatment_values, repeat=dgp.horizon):
            try:
                text = _canonical(verify_theorem1(dgp, target))
            except UndefinedConditionalError as exc:
                report, g = check_opportunistic(dgp, target), g_formula_exact(dgp, target)
                text = f"{_canonical(report)};{_canonical(g)};{exc}"
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == REPORT_DIGEST


def test_fuzz_instance_is_checked_once(monkeypatch, capsys):
    # Each candidate runs the opportunism check's passes once: the CLI's
    # verify_theorem1 reuses the report the generator computed.
    counts = {"built": 0, "checked": 0}
    forward, post_init = finite._forward, finite.FiniteDgp.__post_init__

    def counted_forward(*args):
        counts["checked"] += 1
        return forward(*args)

    def counted_post_init(self):
        counts["built"] += 1
        post_init(self)

    monkeypatch.setattr(finite, "_forward", counted_forward)
    monkeypatch.setattr(finite.FiniteDgp, "__post_init__", counted_post_init)
    assert main(["fuzz-theorem", "--count", "20", "--seed", "42"]) == 0
    assert "20 respected" in capsys.readouterr().out
    assert counts["checked"] == counts["built"] >= 20


def test_zero_bias_under_the_hypothesis_is_a_violation(monkeypatch):
    # The theorem's inequality is strict: coin-epidemic meets the hypothesis,
    # and an associational mean equal to the g-formula refutes it.
    monkeypatch.setattr(finite, "associational_exact", finite.g_formula_exact)
    report = verify_theorem1(coin_epidemic(), (0, 0))
    assert report.bias == 0.0
    assert not report.theorem_respected


def test_generator_gives_up_after_500_tries(monkeypatch):
    tries = []
    from_functions = FiniteDgp.from_functions.__func__

    def counted(cls, *args):
        tries.append(args)
        return from_functions(cls, *args)

    monkeypatch.setattr(FiniteDgp, "from_functions", classmethod(counted))
    monkeypatch.setattr(finite, "_MIN_MARGIN", float("inf"))  # no candidate is accepted
    with pytest.raises(RuntimeError, match="in 500 tries"):
        random_opportunistic_dgp(np.random.default_rng(0))
    assert len(tries) == 500


def test_opportunism_report_is_kept_per_target():
    dgp = coin_epidemic()
    report = check_opportunistic(dgp, (0, 0))
    assert check_opportunistic(dgp, (0.0, 0.0)) is report
    assert check_opportunistic(dgp, (0, 1)) is not report
    assert verify_theorem1(dgp, (0, 0)).opportunistic is report
    with pytest.raises(ValueError):
        check_opportunistic(dgp, (0.5, 0))  # not a treatment value, memo or not
    assert check_opportunistic(coin_epidemic(), (0, 0)) is not report
