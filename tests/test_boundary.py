"""The library's public calls refuse a bad number or path with ValueError.

Each case replaces one numeric or path argument of a valid call, or one
alphabet or alphabet entry of a tabular instance, with a hostile value; the
call must then succeed or raise `ValueError` (or one of its subclasses),
never a `TypeError`, `OverflowError` or anything else.
Object-typed arguments (`params`, `rule`, `dgp`) are out of scope.  Valid
counts are drawn below 100 and the Monte Carlo calls run three days, so no
accepted call runs long.  A drawn path is at most two entries long, one
short of the three-day target, so no accepted path can leave a bias report
with nothing retained.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epibias.finite import FiniteDgp, coin_epidemic, verify_theorem1
from epibias.montecarlo import Pass, compute_bias_report, estimate_causal
from epibias.policies import ExogenousRule, ThresholdRule
from epibias.sir import SirParams
from epibias.streams import derive_substream_seed

PARAMS = SirParams(horizon=3)
TARGET = (0,) * PARAMS.horizon
RULE = ThresholdRule(0.1)
COIN = coin_epidemic()

HOSTILE = [
    None, "3", "0.1", True, False, math.nan, math.inf, -math.inf, 2**70, -1, 0, 3, 3.0, 0.5,
    np.int64(3), np.int8(-1), np.uint64(2), np.float64(0.5), np.float32(3.0),
    np.float64(math.nan), np.bool_(True), [], [1], [0.5, 1], [None], (0, True),
]

VALUES = st.one_of(
    st.sampled_from(HOSTILE),
    st.integers(-2, 99),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.sampled_from([0, 1, 2, -1, 0.0, 1.0, 0.5, True, None, "0"]), max_size=2),
)


def sir_field(name):
    return lambda value: SirParams(**{name: value})


def from_functions(**changes):
    arguments = dict(
        horizon=COIN.horizon, outcome_values=COIN.outcome_values,
        treatment_values=COIN.treatment_values,
        initial_outcome_index=COIN.initial_outcome_index,
        outcome_fn=COIN.outcome_kernels, rule_fn=COIN.rule_kernels,
    )
    return FiniteDgp.from_functions(**{**arguments, **changes})


def with_entry(values, index, value):
    return tuple(value if k == index else v for k, v in enumerate(values))


CALLS = {
    **{f"SirParams.{name}": sir_field(name) for name in (
        "population", "initial_infected", "beta", "gamma", "lam", "overdispersion", "horizon",
    )},
    "ThresholdRule.threshold": ThresholdRule,
    "ExogenousRule.p": ExogenousRule,
    "Pass.target": lambda v: Pass(PARAMS, (RULE,), v, 50, 7),
    "Pass.replicates": lambda v: Pass(PARAMS, (RULE,), TARGET, v, 7),
    "Pass.master_seed": lambda v: Pass(PARAMS, (RULE,), TARGET, 50, v),
    "Pass.threads": lambda v: Pass(PARAMS, (RULE,), TARGET, 50, 7, v),
    "estimate_causal.sequence": lambda v: estimate_causal(PARAMS, v, 20, 7),
    "estimate_causal.replicates": lambda v: estimate_causal(PARAMS, TARGET, v, 7),
    "estimate_causal.master_seed": lambda v: estimate_causal(PARAMS, TARGET, 20, v),
    "estimate_causal.threads": lambda v: estimate_causal(PARAMS, TARGET, 20, 7, v),
    "compute_bias_report.target": lambda v: compute_bias_report(PARAMS, RULE, v, 20, 7),
    "compute_bias_report.replicates": lambda v: compute_bias_report(PARAMS, RULE, TARGET, v, 7),
    "compute_bias_report.master_seed":
        lambda v: compute_bias_report(PARAMS, RULE, TARGET, 20, v),
    "compute_bias_report.threads": lambda v: compute_bias_report(PARAMS, RULE, TARGET, 20, 7, v),
    "derive_substream_seed.master_seed": lambda v: derive_substream_seed(v, 1),
    "derive_substream_seed.label": lambda v: derive_substream_seed(5, v),
    "verify_theorem1.target": lambda v: verify_theorem1(COIN, v),
    "from_functions.horizon": lambda v: from_functions(horizon=v),
    "from_functions.initial_outcome_index": lambda v: from_functions(initial_outcome_index=v),
    "from_functions.outcome_values": lambda v: from_functions(outcome_values=v),
    "from_functions.treatment_values": lambda v: from_functions(treatment_values=v),
    "from_functions.outcome_value": lambda v: from_functions(
        outcome_values=with_entry(COIN.outcome_values, 1, v)),
    "from_functions.treatment_value": lambda v: from_functions(
        treatment_values=with_entry(COIN.treatment_values, 1, v)),
}


def every_hostile_value(test):
    for value in HOSTILE:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=30, deadline=None)
@every_hostile_value
@given(value=VALUES)
def test_a_bad_number_or_path_raises_value_error(name, value):
    try:
        CALLS[name](value)
    except ValueError:
        pass
