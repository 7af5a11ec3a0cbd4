"""Exact finite-alphabet oracle vs. an independent brute-force enumeration.

The reference implementations below use nothing from the module under test
except the kernel tables themselves: they walk every (treatment, outcome)
path with itertools and accumulate joint probabilities directly.  Any
disagreement at 1e-12 is a bug on one side or the other.
"""

import hashlib
import json
from itertools import product

import numpy as np
import pytest

from reference import enumerate_paths
from epibias.errors import (
    InstanceTooLargeError,
    KernelValidationError,
    UndefinedConditionalError,
)
from epibias.finite import (
    BUILTIN_INSTANCES,
    FiniteDgp,
    associational_exact,
    check_opportunistic,
    coin_epidemic,
    exogenous_null,
    g_formula_exact,
    random_dgp,
    random_opportunistic_dgp,
    reversed_coin_epidemic,
)


# ---------------------------------------------------------------------------
# Independent reference implementations
# ---------------------------------------------------------------------------

def brute_force_joint(dgp):
    """Yield (a_indices, y_indices_with_y0, probability) for every path."""
    T = dgp.horizon
    n_a = len(dgp.treatment_values)
    n_y = len(dgp.outcome_values)
    y0 = dgp.initial_outcome_index
    for a_path in product(range(n_a), repeat=T):
        for y_tail in product(range(n_y), repeat=T):
            ys = (y0,) + y_tail
            prob = 1.0
            for t in range(T):
                prob *= dgp.rule_row(t, a_path[:t], ys[: t + 1])[a_path[t]]
                prob *= dgp.outcome_row(t + 1, a_path[: t + 1], ys[: t + 1])[y_tail[t]]
            yield a_path, ys, prob


def brute_force_g(dgp, target):
    """Mean final outcome with treatments forced: only outcome kernels count."""
    T = dgp.horizon
    a_path = tuple(dgp.treatment_index(a) for a in target)
    total = 0.0
    y0 = dgp.initial_outcome_index
    for y_tail in product(range(len(dgp.outcome_values)), repeat=T):
        ys = (y0,) + y_tail
        prob = 1.0
        for t in range(T):
            prob *= dgp.outcome_row(t + 1, a_path[: t + 1], ys[: t + 1])[y_tail[t]]
        total += prob * dgp.outcome_values[y_tail[-1]]
    return total


def brute_force_assoc(dgp, target):
    """Mean final outcome among joint paths whose treatments equal target."""
    a_target = tuple(dgp.treatment_index(a) for a in target)
    num = den = 0.0
    for a_path, ys, prob in brute_force_joint(dgp):
        if a_path == a_target:
            num += prob * dgp.outcome_values[ys[-1]]
            den += prob
    return num / den


# ---------------------------------------------------------------------------
# The worked two-period example
# ---------------------------------------------------------------------------

def first_history(dgp):
    """The opportunism report's check at t = 1 and history y_0, target (0, 0)."""
    return check_opportunistic(dgp, (0, 0)).per_time[0].histories[0]


class TestCoinEpidemic:
    def test_path_enumeration(self):
        paths = enumerate_paths(coin_epidemic())
        assert len(paths) == 6
        assert sum(p.probability for p in paths) == pytest.approx(1.0, abs=1e-12)
        # Paths carry values, not indices, and include y_0.
        for p in paths:
            assert len(p.treatments) == 2
            assert len(p.outcomes) == 3
            assert p.outcomes[0] == 0.0
            assert p.probability > 0.0

    def test_g_formula_value(self):
        assert g_formula_exact(coin_epidemic(), (0, 0)) == pytest.approx(1.1, abs=1e-12)

    def test_associational_value(self):
        assert associational_exact(coin_epidemic(), (0, 0)) == pytest.approx(0.6, abs=1e-12)

    def test_bias_against_brute_force(self):
        dgp = coin_epidemic()
        g = g_formula_exact(dgp, (0, 0))
        assoc = associational_exact(dgp, (0, 0))
        assert g == pytest.approx(brute_force_g(dgp, (0, 0)), abs=1e-12)
        assert assoc == pytest.approx(brute_force_assoc(dgp, (0, 0)), abs=1e-12)
        assert assoc - g == pytest.approx(-0.5, abs=1e-12)

    def test_adaptive_ratios(self):
        # After y_1 = 0 the rule continues with 0.8, and 0.4 with y_1
        # marginalized out: s_1(0) = 2; y_1 = 1 never continues.
        ratios = first_history(coin_epidemic()).partition.ratios
        assert ratios == pytest.approx({0.0: 2.0, 1.0: 0.0}, abs=1e-12)

    def test_adaptation_partition(self):
        part = first_history(coin_epidemic()).partition
        assert part.upweighted == frozenset({0.0})
        assert part.downweighted == frozenset({1.0})
        assert part.neutral == frozenset()
        assert part.nonconstant

    def test_moving_marginal_expectations(self):
        f = first_history(coin_epidemic()).expectations
        assert f[0.0] == pytest.approx(0.6, abs=1e-12)
        assert f[1.0] == pytest.approx(1.6, abs=1e-12)


# ---------------------------------------------------------------------------
# Structural edge cases
# ---------------------------------------------------------------------------

def uniform_dgp(horizon=1, n_y=2, n_a=2):
    return FiniteDgp.from_functions(
        horizon,
        tuple(float(k) for k in range(n_y)),
        tuple(range(n_a)),
        0,
        lambda t, a, y: (1.0 / n_y,) * n_y,
        lambda t, a, y: (1.0 / n_a,) * n_a,
    )


def test_single_period_uniform_paths():
    paths = enumerate_paths(uniform_dgp())
    assert len(paths) == 4
    for p in paths:
        assert p.probability == pytest.approx(0.25, abs=1e-15)


def test_single_period_g_formula_is_one_step_mean():
    dgp = uniform_dgp()
    assert g_formula_exact(dgp, (0,)) == pytest.approx(0.5, abs=1e-15)


def test_zero_probability_rule_rows_prune_paths():
    # Rule always picks treatment 0: no path with treatment 1 appears.
    dgp = FiniteDgp.from_functions(
        2, (0.0, 1.0), (0, 1), 0,
        lambda t, a, y: (0.5, 0.5),
        lambda t, a, y: (1.0, 0.0),
    )
    paths = enumerate_paths(dgp)
    assert all(p.treatments == (0, 0) for p in paths)
    assert sum(p.probability for p in paths) == pytest.approx(1.0, abs=1e-12)


def test_treatment_independent_kernels_make_g_constant():
    rng = np.random.default_rng(5)
    rows = {}

    def outcome_fn(t, a, y):
        key = (t, y)
        if key not in rows:
            probs = rng.dirichlet((1.0, 1.0, 1.0))
            rows[key] = tuple(probs)
        return rows[key]

    dgp = FiniteDgp.from_functions(
        2, (0.0, 0.5, 1.0), (0, 1), 0, outcome_fn, lambda t, a, y: (0.5, 0.5)
    )
    values = {
        g_formula_exact(dgp, target)
        for target in product((0, 1), repeat=2)
    }
    assert max(values) - min(values) < 1e-12


def test_exogenous_rule_means_no_confounding():
    dgp = exogenous_null()
    for target in ((0, 0), (0, 1), (1, 0), (1, 1)):
        g = g_formula_exact(dgp, target)
        assoc = associational_exact(dgp, target)
        assert assoc == pytest.approx(g, abs=1e-12)


def test_unreachable_conditioning_raises(tmp_path):
    dgp = FiniteDgp.from_functions(
        1, (0.0, 1.0), (0, 1), 0,
        lambda t, a, y: (0.5, 0.5),
        lambda t, a, y: (1.0, 0.0),
    )
    with pytest.raises(UndefinedConditionalError):
        associational_exact(dgp, (1,))


def test_history_without_a_continuation_is_skipped():
    # The rule never continues the target after y_1, so the lag-1 propensity
    # at the one reachable history is zero and s_1 is undefined there.
    dgp = coin_epidemic().with_rule(lambda t, a, y: (0.5, 0.5) if t == 0 else (0.0, 1.0))
    (t1,) = check_opportunistic(dgp, (0, 0)).per_time
    assert t1.skipped == 1
    assert t1.histories == ()


@pytest.mark.parametrize("estimate", [g_formula_exact, associational_exact, check_opportunistic])
@pytest.mark.parametrize("target", [(0,), (0, 5)], ids=["short", "outside-alphabet"])
def test_target_is_validated(estimate, target):
    with pytest.raises(ValueError):
        estimate(coin_epidemic(), target)


def test_moving_marginal_constant_outcome():
    dgp = FiniteDgp.from_functions(
        2, (0.0, 0.7), (0, 1), 0,
        lambda t, a, y: (0.0, 1.0),  # always jumps to 0.7
        lambda t, a, y: (0.5, 0.5),
    )
    assert first_history(dgp).expectations == pytest.approx({0.7: 0.7}, abs=1e-12)


def test_moving_marginal_at_last_step_is_one_step_expectation():
    dgp = coin_epidemic()
    f = first_history(dgp).expectations[1.0]
    row = dgp.outcome_row(2, (0, 0), (0, 1))
    direct = sum(p * v for p, v in zip(row, dgp.outcome_values))
    assert f == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# Validation and serialization
# ---------------------------------------------------------------------------

class TestValidation:
    def test_row_sum_checked(self):
        with pytest.raises(KernelValidationError):
            FiniteDgp.from_functions(
                1, (0.0, 1.0), (0, 1), 0,
                lambda t, a, y: (0.6, 0.6),
                lambda t, a, y: (0.5, 0.5),
            )

    def test_negative_entries_checked(self):
        with pytest.raises(KernelValidationError):
            FiniteDgp.from_functions(
                1, (0.0, 1.0), (0, 1), 0,
                lambda t, a, y: (1.5, -0.5),
                lambda t, a, y: (0.5, 0.5),
            )

    def test_outcome_values_must_increase(self):
        with pytest.raises(KernelValidationError):
            FiniteDgp.from_functions(
                1, (1.0, 0.0), (0, 1), 0,
                lambda t, a, y: (0.5, 0.5),
                lambda t, a, y: (0.5, 0.5),
            )

    def test_path_cap_enforced(self):
        with pytest.raises(InstanceTooLargeError):
            uniform_dgp(horizon=13, n_y=2, n_a=2)  # 4^13 > 10^7

    def test_treatment_values_not_truncated(self):
        with pytest.raises(KernelValidationError):
            FiniteDgp.from_functions(
                1, (0.0, 1.0), (0.5, 1), 0,
                lambda t, a, y: (0.5, 0.5),
                lambda t, a, y: (0.5, 0.5),
            )

    def test_array_axes_bounded(self):
        uniform_dgp(horizon=15, n_y=1, n_a=2)
        with pytest.raises(InstanceTooLargeError):
            uniform_dgp(horizon=16, n_y=1, n_a=2)  # 33 axes; numpy 1.x allows 32

    def test_missing_table_detected(self):
        dgp = coin_epidemic()
        broken = dict(dgp.outcome_kernels)
        del broken[2]
        with pytest.raises(KernelValidationError):
            FiniteDgp(
                dgp.horizon,
                dgp.outcome_values,
                dgp.treatment_values,
                dgp.initial_outcome_index,
                broken,
                dgp.rule_kernels,
            )


def test_dict_round_trip():
    dgp = coin_epidemic()
    clone = FiniteDgp.from_dict(dgp.to_dict())
    assert clone == dgp
    assert g_formula_exact(clone, (0, 0)) == g_formula_exact(dgp, (0, 0))


def test_equality_compares_every_table():
    assert coin_epidemic() == coin_epidemic()
    assert coin_epidemic() != reversed_coin_epidemic()
    assert coin_epidemic() != "coin-epidemic"


def test_kernels_are_read_only_arrays_in_key_order():
    dgp = coin_epidemic()
    assert dgp.outcome_kernels[2].shape == (2, 2, 3, 3, 3)
    assert dgp.rule_kernels[1].shape == (2, 3, 3, 2)
    assert dgp.outcome_row(2, (0, 1), (0, 1)) == (0.0, 0.7, 0.3)
    assert list(dgp.to_dict()["rule_kernels"]["1"])[:4] == [
        "a=0;y=0,0", "a=0;y=0,1", "a=0;y=0,2", "a=0;y=1,0"
    ]
    with pytest.raises(ValueError):
        dgp.outcome_kernels[1][0, 0, 0] = 1.0


# sha256 of json.dumps(to_dict()), recorded before the kernel tables became
# arrays: it pins the row functions' call order (and so the RNG draws), the
# row order and the JSON key order.
GOLDEN_JSON = {
    "coin-epidemic": "35d1702e642f498bf71a69114986179d232b43651efd0e80fffc31638a9e09fb",
    "reversed-coin-epidemic": "3eba399c9d56090a0b94c6f9693269d11bbc3b90b041431eba4979be2a389838",
    "exogenous-null": "46f6785b5f9c446ffc541aaefc6d0b4ed18414cf1e3dedef00187860a8b6a0cb",
}
# The first 20 random_opportunistic_dgp(default_rng(42)) instances, joined by newlines.
GOLDEN_JSON_SEED_42 = "66d1c0f15dafb8a0a85cc09838c65550d558ff940d7c6ef68d100d8ff95923cf"


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
def test_builtin_json_golden(name):
    assert sha256_text(json.dumps(BUILTIN_INSTANCES[name]().to_dict())) == GOLDEN_JSON[name]


def test_generated_json_golden():
    rng = np.random.default_rng(42)
    dumps = [json.dumps(random_opportunistic_dgp(rng)[0].to_dict()) for _ in range(20)]
    assert sha256_text("\n".join(dumps)) == GOLDEN_JSON_SEED_42


def test_from_dict_reorders_rows_by_key():
    data = coin_epidemic().to_dict()
    table = data["rule_kernels"]["1"]
    data["rule_kernels"]["1"] = dict(reversed(list(table.items())))
    assert FiniteDgp.from_dict(data) == coin_epidemic()


def test_reversed_instance_flips_the_bias_sign():
    dgp = reversed_coin_epidemic()
    bias = associational_exact(dgp, (0, 0)) - g_formula_exact(dgp, (0, 0))
    assert bias == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# Randomized cross-checks against the brute-force route
# ---------------------------------------------------------------------------

def test_random_instances_match_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        dgp = random_dgp(rng)
        target = tuple(
            int(rng.choice(dgp.treatment_values)) for _ in range(dgp.horizon)
        )
        assert g_formula_exact(dgp, target) == pytest.approx(
            brute_force_g(dgp, target), abs=1e-12
        )
        joint_mass = sum(
            prob
            for a_path, _, prob in brute_force_joint(dgp)
            if a_path == tuple(dgp.treatment_index(a) for a in target)
        )
        if joint_mass > 1e-9:
            assert associational_exact(dgp, target) == pytest.approx(
                brute_force_assoc(dgp, target), abs=1e-12
            )


def brute_force_f(dgp, target_idx, ys):
    """f_{T,t} at outcome indices ys = y_0..y_t, treatments forced to target_idx."""
    T, t = dgp.horizon, len(ys) - 1
    total = 0.0
    for tail in product(range(len(dgp.outcome_values)), repeat=T - t):
        full = ys + tail
        prob = 1.0
        for s in range(t, T):
            prob *= dgp.outcome_row(s + 1, target_idx[: s + 1], full[: s + 1])[full[s + 1]]
        total += prob * dgp.outcome_values[full[-1]]
    return total


def test_opportunism_report_matches_brute_force():
    # Reach probabilities (forward pass), ratios and f_{T,t} (backward passes)
    # against joint-path enumeration.
    # s_t * p_t = P(y_t | target, history) is the Bayes step behind the ratio
    # decomposition, so it is checked at the drawn target and at every target
    # the rule can follow.
    rng = np.random.default_rng(606)
    for _ in range(12):
        dgp = random_dgp(rng)
        drawn = tuple(int(a) for a in rng.integers(0, 2, dgp.horizon))
        joint = list(brute_force_joint(dgp))
        for target in sorted({drawn} | {a for a, _, p in joint if p > 0.0}):
            for tc in check_opportunistic(dgp, target).per_time:
                t = tc.t
                for hc in tc.histories:
                    ys = tuple(dgp.outcome_values.index(y) for y in hc.outcomes)
                    reach = sum(p for a, y, p in joint if a[:t] == target[:t] and y[:t] == ys)
                    assert hc.reach_probability == pytest.approx(reach, abs=1e-12)
                    future = sum(p for a, y, p in joint if a == target and y[:t] == ys)
                    for value, s in hc.partition.ratios.items():
                        step = ys + (dgp.outcome_values.index(value),)
                        mass = sum(p for a, y, p in joint if a == target and y[: t + 1] == step)
                        assert s * dgp.outcome_row(t, target[:t], ys)[step[-1]] == pytest.approx(
                            mass / future, abs=1e-12
                        )
                        assert hc.expectations[value] == pytest.approx(
                            brute_force_f(dgp, target, step), abs=1e-12
                        )


def test_enumerated_paths_match_brute_force_probabilities():
    rng = np.random.default_rng(77)
    dgp = random_dgp(rng)
    enumerated = {
        (p.treatments, p.outcomes): p.probability for p in enumerate_paths(dgp)
    }
    for a_path, ys, prob in brute_force_joint(dgp):
        key = (
            tuple(dgp.treatment_values[a] for a in a_path),
            tuple(dgp.outcome_values[y] for y in ys),
        )
        if prob > 0.0:
            assert enumerated[key] == pytest.approx(prob, abs=1e-12)
        else:
            assert key not in enumerated


# ---------------------------------------------------------------------------
# Ready tables in place of row functions
# ---------------------------------------------------------------------------

def _as_table(row_fn):
    """row_fn's t = 1 rows for 2 treatments and 3 outcomes, as one object array."""
    return np.array(
        [[list(row_fn(1, (a,), (y,))) for y in range(3)] for a in range(2)], dtype=object
    )


def _error_text(outcome):
    with pytest.raises(KernelValidationError) as info:
        FiniteDgp.from_functions(
            1, (0.0, 1.0, 2.0), (0, 1), 0, outcome, lambda t, a, y: (0.5, 0.5)
        )
    return str(info.value)


class TestTablePath:
    @pytest.mark.parametrize("bad_row", [
        (0.5, 0.5),  # two entries for a 3-letter alphabet
        ("x", 0.5, 0.5),
        (float("nan"), 0.5, 0.5),
        (0.5, 0.5, 0.5),
        (1.5, -0.5, 0.0),
    ], ids=["shape", "non-float", "nan", "row-sum", "negative"])
    def test_table_errors_match_row_errors(self, bad_row):
        def row_fn(t, a, y):
            # A short row goes everywhere, so the rows still stack.
            return bad_row if (a, y) == ((1,), (2,)) or len(bad_row) == 2 else (0.2, 0.3, 0.5)

        from_rows = _error_text(row_fn)
        from_table = _error_text({1: _as_table(row_fn)})
        assert from_table == from_rows

    def test_wrong_history_shape_is_refused(self):
        table = np.full((3, 2, 3), 1.0 / 3.0)  # the history axes swapped
        assert _error_text({1: table}) == (
            "outcome kernel t=1: expected a float64 array of shape (2, 3, 3), got (3, 2, 3)"
        )

    def test_missing_table_is_refused(self):
        assert _error_text({}) == "outcome kernel missing for t=1"

    def test_table_equals_its_rows(self):
        def row_fn(t, a, y):
            return (0.1 * (1 + a[0]), 0.2, 0.7 - 0.1 * a[0]) if y[0] else (0.0, 1.0, 0.0)

        rule = lambda t, a, y: (0.25, 0.75)  # noqa: E731
        from_rows = FiniteDgp.from_functions(1, (0.0, 1.0, 2.0), (0, 1), 0, row_fn, rule)
        table = _as_table(row_fn).astype(float)
        from_table = FiniteDgp.from_functions(1, (0.0, 1.0, 2.0), (0, 1), 0, {1: table}, rule)
        assert json.dumps(from_table.to_dict()) == json.dumps(from_rows.to_dict())

    def test_caller_table_is_copied_not_frozen(self):
        dgp = coin_epidemic()
        tables = {t: np.array(k) for t, k in dgp.outcome_kernels.items()}
        clone = FiniteDgp.from_functions(
            dgp.horizon, dgp.outcome_values, dgp.treatment_values,
            dgp.initial_outcome_index, tables, dgp.rule_kernels,
        )
        assert clone == dgp
        for t, table in tables.items():
            assert table.flags.writeable
            assert not np.shares_memory(table, clone.outcome_kernels[t])
            assert clone.outcome_kernels[t].flags.c_contiguous
        tables[1][0, 0] = (1.0, 0.0, 0.0)
        assert clone == dgp

    def test_with_rule_copies_the_outcome_tables(self):
        dgp = coin_epidemic()
        other = dgp.with_rule(lambda t, a, y: (0.5, 0.5))
        for t, table in dgp.outcome_kernels.items():
            assert np.array_equal(other.outcome_kernels[t], table)
            assert not np.shares_memory(other.outcome_kernels[t], table)
