"""Exact analysis of small tabular outcome/treatment processes.

Everything in this module works on a `FiniteDgp`: a fully tabular law for
an alternating sequence y_0, a_1, y_1, ..., a_T, y_T where outcome kernels
give p_t(y_t | a_1..a_t, y_0..y_{t-1}) and rule kernels give
pi_t(a_{t+1} | a_1..a_t, y_0..y_t).  Instances are small enough to
enumerate, so every quantity here is computed exactly (up to float
arithmetic), with no sampling:

* the interventional mean of Y_T under a forced treatment path (g-formula),
* the conditional mean of Y_T given that the realized treatments happened
  to equal that path (the associational quantity),
* lag-0/lag-1 prospective propensity scores, their ratio s_t, and the
  partition of outcomes into upweighted / neutral / downweighted
  adaptations,
* moving marginal expectations f_{T,t},
* the opportunistic-intervention test and the negative-bias theorem check
  built on it.

These exact values serve as oracles for the Monte Carlo machinery and as
the substrate for randomized property tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    InstanceTooLargeError,
    KernelValidationError,
    UndefinedConditionalError,
    UndefinedRatioError,
)

PATH_CAP = 10_000_000

_ROW_SUM_TOL = 1e-12
_NEUTRAL_TOL = 1e-12

KernelKey = tuple[tuple[int, ...], tuple[int, ...]]


# ---------------------------------------------------------------------------
# The tabular process
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteDgp:
    """A tabular data-generating process over finite alphabets.

    Kernel tables are total: `outcome_kernels[t]` has a row for every
    (treatment-index tuple of length t, outcome-index tuple of length t)
    pair, t = 1..horizon, and `rule_kernels[t]` one for every (length-t,
    length-t+1) pair, t = 0..horizon-1.  Rows are probability vectors over
    the outcome and treatment alphabets respectively.  Keys hold alphabet
    indices, not values.  Treat instances as immutable once built.
    """

    horizon: int
    outcome_values: tuple[float, ...]
    treatment_values: tuple[int, ...]
    initial_outcome_index: int
    outcome_kernels: dict[int, dict[KernelKey, tuple[float, ...]]]
    rule_kernels: dict[int, dict[KernelKey, tuple[float, ...]]]

    def __post_init__(self):
        T = self.horizon
        if T < 1:
            raise KernelValidationError(f"horizon must be >= 1, got {T}")
        if list(self.outcome_values) != sorted(set(self.outcome_values)):
            raise KernelValidationError(
                f"outcome values must be strictly increasing, got {self.outcome_values}"
            )
        if len(set(self.treatment_values)) != len(self.treatment_values):
            raise KernelValidationError(
                f"treatment values must be distinct, got {self.treatment_values}"
            )
        if not 0 <= self.initial_outcome_index < len(self.outcome_values):
            raise KernelValidationError(
                f"initial outcome index {self.initial_outcome_index} outside alphabet"
            )
        n_y = len(self.outcome_values)
        n_a = len(self.treatment_values)
        if (n_y * n_a) ** T > PATH_CAP:
            raise InstanceTooLargeError(
                f"({n_y} outcomes x {n_a} treatments)^{T} exceeds the {PATH_CAP} path cap"
            )
        for t in range(1, T + 1):
            self._validate_table("outcome", t, n_a, t, t, n_y)
        for t in range(T):
            self._validate_table("rule", t, n_a, t, t + 1, n_a)

    def _validate_table(self, kind, t, n_a, a_len, y_len, width):
        tables = self.outcome_kernels if kind == "outcome" else self.rule_kernels
        if t not in tables:
            raise KernelValidationError(f"{kind} kernel missing for t={t}")
        table = tables[t]
        expected = (len(self.treatment_values) ** a_len) * (len(self.outcome_values) ** y_len)
        if len(table) != expected:
            raise KernelValidationError(
                f"{kind} kernel t={t}: expected {expected} rows, got {len(table)}"
            )
        for key, row in table.items():
            a_idx, y_idx = key
            if len(a_idx) != a_len or len(y_idx) != y_len:
                raise KernelValidationError(
                    f"{kind} kernel t={t} row a={a_idx} y={y_idx}: key lengths "
                    f"should be ({a_len}, {y_len})"
                )
            if len(row) != width:
                raise KernelValidationError(
                    f"{kind} kernel t={t} row a={a_idx} y={y_idx}: "
                    f"{len(row)} entries for a {width}-letter alphabet"
                )
            total = sum(row)
            if not math.isfinite(total):
                raise KernelValidationError(
                    f"{kind} kernel t={t} row a={a_idx} y={y_idx}: non-finite entry in {row!r}"
                )
            if abs(total - 1.0) > _ROW_SUM_TOL:
                raise KernelValidationError(
                    f"{kind} kernel t={t} row a={a_idx} y={y_idx}: sums to {total!r}"
                )
            if min(row) < 0.0:
                raise KernelValidationError(
                    f"{kind} kernel t={t} row a={a_idx} y={y_idx}: negative entry"
                )

    # -- lookups ------------------------------------------------------------

    def outcome_row(self, t: int, a_idx: tuple[int, ...], y_idx: tuple[int, ...]):
        """Probability vector of y_t given treatments a_1..a_t, outcomes y_0..y_{t-1}."""
        return self.outcome_kernels[t][(a_idx, y_idx)]

    def rule_row(self, t: int, a_idx: tuple[int, ...], y_idx: tuple[int, ...]):
        """Probability vector of a_{t+1} given treatments a_1..a_t, outcomes y_0..y_t."""
        return self.rule_kernels[t][(a_idx, y_idx)]

    def outcome_index(self, value: float) -> int:
        try:
            return self.outcome_values.index(value)
        except ValueError:
            raise ValueError(f"outcome value {value!r} not in alphabet {self.outcome_values}")

    def treatment_index(self, value: int) -> int:
        try:
            return self.treatment_values.index(value)
        except ValueError:
            raise ValueError(
                f"treatment value {value!r} not in alphabet {self.treatment_values}"
            )

    @property
    def initial_outcome_value(self) -> float:
        return self.outcome_values[self.initial_outcome_index]

    # -- construction helpers -----------------------------------------------

    @classmethod
    def from_functions(
        cls,
        horizon: int,
        outcome_values: Sequence[float],
        treatment_values: Sequence[int],
        initial_outcome_index: int,
        outcome_fn: Callable[[int, tuple[int, ...], tuple[int, ...]], Sequence[float]],
        rule_fn: Callable[[int, tuple[int, ...], tuple[int, ...]], Sequence[float]],
    ) -> "FiniteDgp":
        """Build total kernel tables by evaluating row functions on every key."""
        # Refuse oversized instances before materializing any table; the
        # tables themselves can dwarf the path count the validator checks.
        if (len(outcome_values) * len(treatment_values)) ** max(horizon, 1) > PATH_CAP:
            raise InstanceTooLargeError(
                f"({len(outcome_values)} outcomes x {len(treatment_values)} "
                f"treatments)^{horizon} exceeds the {PATH_CAP} path cap"
            )
        a_range = range(len(treatment_values))
        y_range = range(len(outcome_values))
        outcome_kernels = {}
        for t in range(1, horizon + 1):
            outcome_kernels[t] = {
                (a, y): tuple(float(p) for p in outcome_fn(t, a, y))
                for a in itertools.product(a_range, repeat=t)
                for y in itertools.product(y_range, repeat=t)
            }
        rule_kernels = {}
        for t in range(horizon):
            rule_kernels[t] = {
                (a, y): tuple(float(p) for p in rule_fn(t, a, y))
                for a in itertools.product(a_range, repeat=t)
                for y in itertools.product(y_range, repeat=t + 1)
            }
        return cls(
            horizon=horizon,
            outcome_values=tuple(float(v) for v in outcome_values),
            treatment_values=tuple(int(v) for v in treatment_values),
            initial_outcome_index=initial_outcome_index,
            outcome_kernels=outcome_kernels,
            rule_kernels=rule_kernels,
        )

    def with_rule(self, rule_fn) -> "FiniteDgp":
        """Same outcome process, different decision rule."""
        return FiniteDgp.from_functions(
            self.horizon,
            self.outcome_values,
            self.treatment_values,
            self.initial_outcome_index,
            lambda t, a, y: self.outcome_kernels[t][(a, y)],
            rule_fn,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def dump(tables):
            return {
                str(t): {_dump_key(k): list(row) for k, row in table.items()}
                for t, table in tables.items()
            }

        return {
            "horizon": self.horizon,
            "outcome_values": list(self.outcome_values),
            "treatment_values": list(self.treatment_values),
            "initial_outcome_index": self.initial_outcome_index,
            "outcome_kernels": dump(self.outcome_kernels),
            "rule_kernels": dump(self.rule_kernels),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteDgp":
        try:
            def load(tables):
                return {
                    int(t): {_parse_key(k): tuple(float(p) for p in row)
                             for k, row in table.items()}
                    for t, table in tables.items()
                }

            return cls(
                horizon=int(data["horizon"]),
                outcome_values=tuple(float(v) for v in data["outcome_values"]),
                treatment_values=tuple(int(v) for v in data["treatment_values"]),
                initial_outcome_index=int(data["initial_outcome_index"]),
                outcome_kernels=load(data["outcome_kernels"]),
                rule_kernels=load(data["rule_kernels"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise KernelValidationError(f"malformed instance data: {exc}") from exc


def _dump_key(key: KernelKey) -> str:
    a_idx, y_idx = key
    return "a=" + ",".join(map(str, a_idx)) + ";y=" + ",".join(map(str, y_idx))


def _parse_key(text: str) -> KernelKey:
    a_part, y_part = text.split(";")
    a_body = a_part.removeprefix("a=")
    y_body = y_part.removeprefix("y=")
    a_idx = tuple(int(x) for x in a_body.split(",")) if a_body else ()
    y_idx = tuple(int(x) for x in y_body.split(",")) if y_body else ()
    return (a_idx, y_idx)


def _a_indices(dgp: FiniteDgp, treatments: Iterable[int]) -> tuple[int, ...]:
    return tuple(dgp.treatment_index(a) for a in treatments)


def _y_indices(dgp: FiniteDgp, outcomes: Iterable[float]) -> tuple[int, ...]:
    return tuple(dgp.outcome_index(y) for y in outcomes)


# ---------------------------------------------------------------------------
# Path enumeration and the two exact estimands
# ---------------------------------------------------------------------------

class PathWeight(NamedTuple):
    """One complete realization: treatment values, outcome values (y_0
    first), and its exact joint probability under the rule."""

    treatments: tuple[int, ...]
    outcomes: tuple[float, ...]
    probability: float


def enumerate_paths(dgp: FiniteDgp, max_paths: int = PATH_CAP) -> tuple[PathWeight, ...]:
    """All positive-probability (treatment path, outcome path) pairs.

    Branches whose rule or outcome probability is exactly zero are dropped,
    so the result is the support of the joint law; probabilities sum to 1.
    """
    n_y = len(dgp.outcome_values)
    n_a = len(dgp.treatment_values)
    if (n_y * n_a) ** dgp.horizon > max_paths:
        raise InstanceTooLargeError(
            f"({n_y} outcomes x {n_a} treatments)^{dgp.horizon} exceeds the "
            f"{max_paths} path cap"
        )

    paths = []

    def walk(t, a_idx, y_idx, prob):
        if t == dgp.horizon:
            paths.append(
                PathWeight(
                    tuple(dgp.treatment_values[i] for i in a_idx),
                    tuple(dgp.outcome_values[i] for i in y_idx),
                    prob,
                )
            )
            return
        rule_row = dgp.rule_row(t, a_idx, y_idx)
        for a, p_a in enumerate(rule_row):
            if p_a == 0.0:
                continue
            outcome_row = dgp.outcome_row(t + 1, a_idx + (a,), y_idx)
            for y, p_y in enumerate(outcome_row):
                if p_y == 0.0:
                    continue
                walk(t + 1, a_idx + (a,), y_idx + (y,), prob * p_a * p_y)

    walk(0, (), (dgp.initial_outcome_index,), 1.0)
    return tuple(paths)


def g_formula_exact(dgp: FiniteDgp, target: Sequence[int]) -> float:
    """Mean final outcome when the treatment path is forced to `target`.

    Sums y_T * prod_t p_t(y_t | ...) over all outcome paths; the rule
    kernels play no part, which is exactly what distinguishes this from the
    associational quantity below.
    """
    a_idx = _a_indices(dgp, target)
    if len(a_idx) != dgp.horizon:
        raise ValueError(f"target length {len(a_idx)} != horizon {dgp.horizon}")

    def walk(t, y_idx, prob):
        if t == dgp.horizon:
            return prob * dgp.outcome_values[y_idx[-1]]
        row = dgp.outcome_row(t + 1, a_idx[: t + 1], y_idx)
        return sum(
            walk(t + 1, y_idx + (y,), prob * p) for y, p in enumerate(row) if p > 0.0
        )

    return walk(0, (dgp.initial_outcome_index,), 1.0)


def associational_exact(dgp: FiniteDgp, target: Sequence[int]) -> float:
    """Mean final outcome among paths whose realized treatments equal `target`."""
    want = tuple(int(a) for a in target)
    if len(want) != dgp.horizon:
        raise ValueError(f"target length {len(want)} != horizon {dgp.horizon}")
    mass = 0.0
    weighted = 0.0
    for path in enumerate_paths(dgp):
        if path.treatments == want:
            mass += path.probability
            weighted += path.probability * path.outcomes[-1]
    if mass == 0.0:
        raise UndefinedConditionalError(
            f"treatment path {want} has probability zero under the rule"
        )
    return weighted / mass


# ---------------------------------------------------------------------------
# Propensity machinery
# ---------------------------------------------------------------------------

def _continuation(dgp, t, future_idx, a_idx, y_idx) -> float:
    """P(a_{t+1}..a_T = future | treatments a_idx, outcomes y_idx through y_t)."""
    if t == dgp.horizon:
        return 1.0
    a_next = future_idx[0]
    p_a = dgp.rule_row(t, a_idx, y_idx)[a_next]
    if p_a == 0.0:
        return 0.0
    row = dgp.outcome_row(t + 1, a_idx + (a_next,), y_idx)
    total = 0.0
    for y, p_y in enumerate(row):
        if p_y > 0.0:
            total += p_y * _continuation(dgp, t + 1, future_idx[1:], a_idx + (a_next,), y_idx + (y,))
    return p_a * total


def _lag1(dgp, t, future_idx, a_idx, y_prev_idx) -> float:
    """Like _continuation but with y_t not yet observed: marginalize it out."""
    row = dgp.outcome_row(t, a_idx, y_prev_idx)
    total = 0.0
    for y, p_y in enumerate(row):
        if p_y > 0.0:
            total += p_y * _continuation(dgp, t, future_idx, a_idx, y_prev_idx + (y,))
    return total


def _history_weight(dgp, a_idx, y_idx) -> float:
    """Joint probability of treatments a_1..a_t and outcomes y_0..y_{t-1} or y_t.

    Accepts len(y_idx) == len(a_idx) (history stops after a_t) or
    len(y_idx) == len(a_idx) + 1 (history includes y_t).
    """
    prob = 1.0 if y_idx[0] == dgp.initial_outcome_index else 0.0
    for s, a in enumerate(a_idx):
        if prob == 0.0:
            return 0.0
        prob *= dgp.rule_row(s, a_idx[:s], y_idx[: s + 1])[a]
        if s + 1 < len(y_idx):
            prob *= dgp.outcome_row(s + 1, a_idx[: s + 1], y_idx[: s + 1])[y_idx[s + 1]]
    return prob


def prospective_propensity(
    dgp: FiniteDgp,
    t: int,
    lag: int,
    future: Sequence[int],
    treatments: Sequence[int],
    outcomes: Sequence[float],
) -> float:
    """Probability the rule will produce `future` (a_{t+1}..a_T) from here.

    lag=0 conditions on outcomes y_0..y_t; lag=1 conditions on y_0..y_{t-1}
    only, marginalizing y_t.  The conditioning history must itself be
    reachable (positive probability), otherwise the conditional does not
    exist and UndefinedConditionalError is raised.
    """
    if lag not in (0, 1):
        raise ValueError(f"lag must be 0 or 1, got {lag!r}")
    if not 0 <= t <= dgp.horizon:
        raise ValueError(f"t must be in 0..{dgp.horizon}, got {t}")
    a_idx = _a_indices(dgp, treatments)
    y_idx = _y_indices(dgp, outcomes)
    future_idx = _a_indices(dgp, future)
    if len(a_idx) != t:
        raise ValueError(f"expected {t} past treatments, got {len(a_idx)}")
    if len(future_idx) != dgp.horizon - t:
        raise ValueError(
            f"expected future of length {dgp.horizon - t}, got {len(future_idx)}"
        )
    expected_y = t + 1 if lag == 0 else t
    if len(y_idx) != expected_y:
        raise UndefinedConditionalError(
            f"lag-{lag} history at t={t} needs {expected_y} outcomes (y_0 first), "
            f"got {len(y_idx)}"
        )
    if _history_weight(dgp, a_idx, y_idx) == 0.0:
        raise UndefinedConditionalError(
            f"conditioning event a={tuple(treatments)} y={tuple(outcomes)} has "
            f"probability zero"
        )
    if lag == 0:
        return _continuation(dgp, t, future_idx, a_idx, y_idx)
    return _lag1(dgp, t, future_idx, a_idx, y_idx)


def adaptive_ratio(
    dgp: FiniteDgp,
    t: int,
    future: Sequence[int],
    treatments: Sequence[int],
    outcomes: Sequence[float],
    y_t: float,
) -> float:
    """s_t(y_t): how observing y_t reweights the chance of the future path.

    Ratio of the lag-0 to the lag-1 prospective propensity; `outcomes` is
    the history y_0..y_{t-1}, with y_t passed separately.
    """
    a_idx = _a_indices(dgp, treatments)
    y_prev_idx = _y_indices(dgp, outcomes)
    future_idx = _a_indices(dgp, future)
    y_idx = dgp.outcome_index(y_t)
    denom = _lag1(dgp, t, future_idx, a_idx, y_prev_idx)
    if denom == 0.0:
        raise UndefinedRatioError(
            f"lag-1 propensity is zero at t={t}, history y={tuple(outcomes)}"
        )
    return _continuation(dgp, t, future_idx, a_idx, y_prev_idx + (y_idx,)) / denom


@dataclass(frozen=True)
class AdaptationPartition:
    """Supported outcome values at time t split by their ratio s_t."""

    upweighted: frozenset[float]
    neutral: frozenset[float]
    downweighted: frozenset[float]
    ratios: dict[float, float]

    @property
    def nonconstant(self) -> bool:
        """True when observing y_t can actually move the future-path odds."""
        return bool(self.upweighted or self.downweighted)


def classify_adaptations(
    dgp: FiniteDgp,
    t: int,
    future: Sequence[int],
    treatments: Sequence[int],
    outcomes: Sequence[float],
) -> AdaptationPartition:
    """Partition supported y_t values into s>1 / s=1 / s<1 classes."""
    a_idx = _a_indices(dgp, treatments)
    y_prev_idx = _y_indices(dgp, outcomes)
    row = dgp.outcome_row(t, a_idx, y_prev_idx)
    up, neutral, down = set(), set(), set()
    ratios = {}
    for y, p_y in enumerate(row):
        if p_y == 0.0:
            continue
        value = dgp.outcome_values[y]
        s = adaptive_ratio(dgp, t, future, treatments, outcomes, value)
        ratios[value] = s
        if abs(s - 1.0) <= _NEUTRAL_TOL:
            neutral.add(value)
        elif s > 1.0:
            up.add(value)
        else:
            down.add(value)
    return AdaptationPartition(frozenset(up), frozenset(neutral), frozenset(down), ratios)


def moving_marginal_expectation(
    dgp: FiniteDgp,
    t: int,
    y_t: float,
    future: Sequence[int],
    treatments: Sequence[int],
    outcomes: Sequence[float],
) -> float:
    """f_{T,t}(y_t): expected final outcome given y_t, under forced future treatments.

    Marginalizes outcomes at times t+1..T using the outcome kernels with
    a_{t+1}..a_T pinned to `future`; the decision rule is irrelevant here.
    """
    a_idx = _a_indices(dgp, treatments)
    future_idx = _a_indices(dgp, future)
    y_idx = _y_indices(dgp, outcomes) + (dgp.outcome_index(y_t),)
    if len(a_idx) != t or len(y_idx) != t + 1:
        raise ValueError(f"history lengths inconsistent with t={t}")
    if len(future_idx) != dgp.horizon - t:
        raise ValueError(
            f"expected future of length {dgp.horizon - t}, got {len(future_idx)}"
        )
    all_a = a_idx + future_idx

    def walk(s, y_hist):
        if s == dgp.horizon:
            return dgp.outcome_values[y_hist[-1]]
        row = dgp.outcome_row(s + 1, all_a[: s + 1], y_hist)
        return sum(p * walk(s + 1, y_hist + (y,)) for y, p in enumerate(row) if p > 0.0)

    return walk(t, y_idx)


# ---------------------------------------------------------------------------
# Opportunism and the negative-bias theorem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HistoryCheck:
    """Adaptation diagnostics at one reachable outcome history y_0..y_{t-1}."""

    outcomes: tuple[float, ...]
    reach_probability: float
    partition: AdaptationPartition
    expectations: dict[float, float]  # y_t value -> f_{T,t}(y_t)
    condition_i: bool
    nonconstant: bool
    margin: float
    distortion_mass: float  # integral of |1 - s_t| against p_t over non-neutral y


@dataclass(frozen=True)
class OpportunisticTimeCheck:
    """Verdict at one time index, aggregated over reachable histories."""

    t: int
    opportunistic: bool
    condition_i: bool
    condition_ii: bool
    witness_margin: float
    nonconstant: bool
    histories: tuple[HistoryCheck, ...]
    skipped: int


@dataclass(frozen=True)
class OpportunisticReport:
    target: tuple[int, ...]
    per_time: tuple[OpportunisticTimeCheck, ...]
    opportunistic_everywhere: bool
    has_nonconstant: bool
    witness_margin: float


def _reachable_prefixes(dgp, target_idx, t):
    """Outcome histories y_0..y_{t-1} jointly reachable with a_1..a_t = target.

    Yields (y_idx tuple, joint probability > 0).
    """
    def walk(s, y_idx, prob):
        # y_idx holds y_0..y_s; stop once it is the full prefix y_0..y_{t-1}.
        if s == t - 1:
            yield y_idx, prob
            return
        p_a = dgp.rule_row(s, target_idx[:s], y_idx)[target_idx[s]]
        if p_a == 0.0:
            return
        row = dgp.outcome_row(s + 1, target_idx[: s + 1], y_idx)
        for y, p_y in enumerate(row):
            if p_y > 0.0:
                yield from walk(s + 1, y_idx + (y,), prob * p_a * p_y)

    # The prefix ends just before a_t is chosen; append that rule factor.
    for y_idx, prob in walk(0, (dgp.initial_outcome_index,), 1.0):
        p_last = dgp.rule_row(t - 1, target_idx[: t - 1], y_idx)[target_idx[t - 1]]
        if p_last > 0.0:
            yield y_idx, prob * p_last


def check_opportunistic(dgp: FiniteDgp, target: Sequence[int]) -> OpportunisticReport:
    """Test whether the rule's adaptations always favor the target path.

    At each t = 1..T-1 and each reachable history with positive lag-1
    propensity, checks

    (i)  every downweighted outcome has f_{T,t} at least as large as every
         upweighted one (vacuous when either class is empty), and
    (ii) some non-neutral outcome set carries positive |1 - s_t| p_t mass;
         the margin m is the largest f-distance from the downweighted
         infimum achievable by such a set (singletons suffice, since any
         union's margin is the min over its members).

    Histories where the target path can no longer occur are skipped and
    counted.  A time with no non-neutral history anywhere fails (ii) and is
    reported as not opportunistic; it also cannot contribute bias.
    """
    target_idx = _a_indices(dgp, target)
    if len(target_idx) != dgp.horizon:
        raise ValueError(f"target length {len(target_idx)} != horizon {dgp.horizon}")
    target_vals = tuple(int(a) for a in target)

    per_time = []
    for t in range(1, dgp.horizon):
        future = target_vals[t:]
        past = target_vals[:t]
        checks = []
        skipped = 0
        for y_idx, weight in _reachable_prefixes(dgp, target_idx, t):
            y_vals = tuple(dgp.outcome_values[i] for i in y_idx)
            if _lag1(dgp, t, target_idx[t:], target_idx[:t], y_idx) == 0.0:
                skipped += 1
                continue
            partition = classify_adaptations(dgp, t, future, past, y_vals)
            expectations = {
                y: moving_marginal_expectation(dgp, t, y, future, past, y_vals)
                for y in partition.ratios
            }
            non_neutral = partition.upweighted | partition.downweighted
            if partition.downweighted and partition.upweighted:
                down_inf = min(expectations[y] for y in partition.downweighted)
                up_sup = max(expectations[y] for y in partition.upweighted)
                cond_i = down_inf >= up_sup - _NEUTRAL_TOL
            else:
                cond_i = True
            if partition.downweighted:
                pivot = min(expectations[y] for y in partition.downweighted)
                margin = max(abs(expectations[y] - pivot) for y in non_neutral)
            else:
                margin = 0.0
            row = dgp.outcome_row(t, target_idx[:t], y_idx)
            mass = sum(
                row[dgp.outcome_index(y)] * abs(1.0 - partition.ratios[y])
                for y in non_neutral
            )
            checks.append(
                HistoryCheck(
                    outcomes=y_vals,
                    reach_probability=weight,
                    partition=partition,
                    expectations=expectations,
                    condition_i=cond_i,
                    nonconstant=partition.nonconstant,
                    margin=margin,
                    distortion_mass=mass,
                )
            )
        cond_i_all = all(c.condition_i for c in checks)
        adaptive = [c for c in checks if c.nonconstant]
        cond_ii = any(c.distortion_mass > 0.0 for c in adaptive)
        witness = max((c.margin for c in adaptive), default=0.0)
        per_time.append(
            OpportunisticTimeCheck(
                t=t,
                opportunistic=cond_i_all and cond_ii,
                condition_i=cond_i_all,
                condition_ii=cond_ii,
                witness_margin=witness,
                nonconstant=bool(adaptive),
                histories=tuple(checks),
                skipped=skipped,
            )
        )

    has_nonconstant = any(tc.nonconstant for tc in per_time)
    everywhere = all(tc.opportunistic for tc in per_time if tc.nonconstant)
    return OpportunisticReport(
        target=target_vals,
        per_time=tuple(per_time),
        opportunistic_everywhere=everywhere,
        has_nonconstant=has_nonconstant,
        witness_margin=max((tc.witness_margin for tc in per_time), default=0.0),
    )


def check_monotone_process(dgp: FiniteDgp) -> bool:
    """True iff f_{T,t} is nondecreasing in y_t everywhere.

    Quantifies over every t = 1..T-1, every treatment history and future
    specification, and every outcome history row in the (total) tables.
    Horizons below 2 have no intermediate time, so they pass vacuously.
    """
    n_y = range(len(dgp.outcome_values))
    for t in range(1, dgp.horizon):
        for a_hist in itertools.product(dgp.treatment_values, repeat=t):
            for future in itertools.product(dgp.treatment_values, repeat=dgp.horizon - t):
                for y_hist_idx in itertools.product(n_y, repeat=t):
                    y_hist = tuple(dgp.outcome_values[i] for i in y_hist_idx)
                    previous = None
                    for y in dgp.outcome_values:
                        f = moving_marginal_expectation(dgp, t, y, future, a_hist, y_hist)
                        if previous is not None and f < previous - _NEUTRAL_TOL:
                            return False
                        previous = f
    return True


@dataclass(frozen=True)
class TheoremReport:
    """Negative-bias check: bias must be < 0 whenever the rule is
    opportunistic at every ratio-nonconstant time and at least one such
    time exists."""

    target: tuple[int, ...]
    g_formula: float
    associational: float
    bias: float
    opportunistic_everywhere: bool
    has_nonconstant: bool
    theorem_respected: bool
    opportunistic: OpportunisticReport


def verify_theorem1(dgp: FiniteDgp, target: Sequence[int]) -> TheoremReport:
    """Compute both estimands and test the negative-bias implication."""
    report = check_opportunistic(dgp, target)
    causal = g_formula_exact(dgp, target)
    associational = associational_exact(dgp, target)
    bias = associational - causal
    hypothesis = report.opportunistic_everywhere and report.has_nonconstant
    return TheoremReport(
        target=report.target,
        g_formula=causal,
        associational=associational,
        bias=bias,
        opportunistic_everywhere=report.opportunistic_everywhere,
        has_nonconstant=report.has_nonconstant,
        theorem_respected=(not hypothesis) or bias < 0.0,
        opportunistic=report,
    )


# ---------------------------------------------------------------------------
# Identity audits (exact cross-checks between independent computations)
# ---------------------------------------------------------------------------

def audit_zero_mean(dgp: FiniteDgp) -> float:
    """Max |sum_y (s_t(y) - 1) p_t(y | ...)| over all rows and futures.

    The lag-1 propensity is by construction the p_t-average of the lag-0
    propensity, so this sum is identically zero; the audit exposes any
    disagreement between the ratio code paths.
    """
    worst = 0.0
    n_y = range(len(dgp.outcome_values))
    for t in range(1, dgp.horizon):
        for a_hist in itertools.product(range(len(dgp.treatment_values)), repeat=t):
            for y_hist in itertools.product(n_y, repeat=t):
                row = dgp.outcome_row(t, a_hist, y_hist)
                for future in itertools.product(
                    range(len(dgp.treatment_values)), repeat=dgp.horizon - t
                ):
                    denom = _lag1(dgp, t, future, a_hist, y_hist)
                    if denom == 0.0:
                        continue
                    total = 0.0
                    for y, p_y in enumerate(row):
                        if p_y == 0.0:
                            continue
                        s = _continuation(dgp, t, future, a_hist, y_hist + (y,)) / denom
                        total += (s - 1.0) * p_y
                    worst = max(worst, abs(total))
    return worst


def associational_via_ratios(dgp: FiniteDgp, target: Sequence[int]) -> float:
    """The associational mean rebuilt from ratio-weighted outcome kernels.

    Walks outcome paths only, weighting each step by s_t * p_t; agreement
    with `associational_exact` (which conditions the enumerated joint)
    validates the ratio decomposition.
    """
    target_idx = _a_indices(dgp, target)
    if len(target_idx) != dgp.horizon:
        raise ValueError(f"target length {len(target_idx)} != horizon {dgp.horizon}")

    start = _continuation(dgp, 0, target_idx, (), (dgp.initial_outcome_index,))
    if start == 0.0:
        raise UndefinedConditionalError(
            f"treatment path {tuple(target)} has probability zero under the rule"
        )

    def walk(t, y_idx, weight):
        if t == dgp.horizon:
            return weight * dgp.outcome_values[y_idx[-1]]
        row = dgp.outcome_row(t + 1, target_idx[: t + 1], y_idx)
        denom = _lag1(dgp, t + 1, target_idx[t + 1 :], target_idx[: t + 1], y_idx)
        if denom == 0.0:
            return 0.0
        total = 0.0
        for y, p_y in enumerate(row):
            if p_y == 0.0:
                continue
            s = (
                _continuation(dgp, t + 1, target_idx[t + 1 :], target_idx[: t + 1], y_idx + (y,))
                / denom
            )
            if s > 0.0:
                total += walk(t + 1, y_idx + (y,), weight * s * p_y)
        return total

    return walk(0, (dgp.initial_outcome_index,), 1.0)


def audit_decomposition(dgp: FiniteDgp) -> float:
    """Max |associational_via_ratios - associational_exact| over valid targets."""
    worst = 0.0
    seen = set()
    for path in enumerate_paths(dgp):
        if path.treatments in seen:
            continue
        seen.add(path.treatments)
        direct = associational_exact(dgp, path.treatments)
        reweighted = associational_via_ratios(dgp, path.treatments)
        worst = max(worst, abs(direct - reweighted))
    return worst


def audit_bayes_consistency(dgp: FiniteDgp) -> float:
    """Max gap between s_t * p_t and the target-conditional outcome law.

    The right side is recovered from the enumerated joint:
    p_t(y | a-path = target, y_0..y_{t-1}), i.e. a ratio of path-mass sums.
    Agreement confirms the Bayes step that justifies the ratio
    decomposition.
    """
    worst = 0.0
    paths = enumerate_paths(dgp)
    targets = sorted({p.treatments for p in paths})
    for target in targets:
        target_idx = _a_indices(dgp, target)
        matching = [p for p in paths if p.treatments == target]
        for t in range(1, dgp.horizon):
            denom_lag1 = {}
            prefix_mass = {}
            joint_mass = {}
            for p in matching:
                prefix = tuple(p.outcomes[:t])
                prefix_mass[prefix] = prefix_mass.get(prefix, 0.0) + p.probability
                step = tuple(p.outcomes[: t + 1])
                joint_mass[step] = joint_mass.get(step, 0.0) + p.probability
            for step, mass in joint_mass.items():
                prefix = step[:-1]
                conditional = mass / prefix_mass[prefix]
                y_idx = _y_indices(dgp, prefix)
                row = dgp.outcome_row(t, target_idx[:t], y_idx)
                p_y = row[dgp.outcome_index(step[-1])]
                denom = denom_lag1.setdefault(
                    prefix, _lag1(dgp, t, target_idx[t:], target_idx[:t], y_idx)
                )
                if denom == 0.0:
                    continue
                s = _continuation(
                    dgp, t, target_idx[t:], target_idx[:t], y_idx + (dgp.outcome_index(step[-1]),)
                ) / denom
                worst = max(worst, abs(conditional - s * p_y))
    return worst


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------

def coin_epidemic() -> FiniteDgp:
    """Two-step instance with a fair first step and an outcome-chasing rule.

    y_0 = 0; y_1 is 0 or 1 with equal probability either arm; y_2 adds a
    Bernoulli increment whose success probability is 0.6 untreated and 0.3
    treated.  The rule never treats at step one, then treats with
    probability 0.2 after y_1 = 0 and always after y_1 = 1.  Conditioning
    on the never-treated path therefore screens out every y_1 = 1
    trajectory, dragging the associational mean (0.6) far below the
    interventional one (1.1).
    """

    def outcome_fn(t, a_idx, y_idx):
        if t == 1:
            return (0.5, 0.5, 0.0)
        prev = y_idx[-1]
        if prev == 2:  # unreachable once y_1 is binary; rows must still be valid
            return (0.0, 0.0, 1.0)
        q = 0.6 if a_idx[-1] == 0 else 0.3
        probs = [0.0, 0.0, 0.0]
        probs[prev] = 1.0 - q
        probs[prev + 1] = q
        return tuple(probs)

    def rule_fn(t, a_idx, y_idx):
        if t == 0:
            return (1.0, 0.0)
        y1 = y_idx[-1]
        if y1 == 0:
            return (0.8, 0.2)
        return (0.0, 1.0)

    return FiniteDgp.from_functions(2, (0.0, 1.0, 2.0), (0, 1), 0, outcome_fn, rule_fn)


def reversed_coin_epidemic() -> FiniteDgp:
    """The coin epidemic with its second-step rule flipped.

    Treating eagerly after the *good* interim outcome makes the surviving
    conditional population sicker than average, so condition (i) of the
    opportunism test fails and the bias guarantee no longer applies.
    """
    base = coin_epidemic()

    def rule_fn(t, a_idx, y_idx):
        if t == 0:
            return (1.0, 0.0)
        if y_idx[-1] == 0:
            return (0.0, 1.0)
        return (0.8, 0.2)

    return base.with_rule(rule_fn)


def exogenous_null() -> FiniteDgp:
    """Coin-epidemic outcomes with a rule that ignores them.

    Treatment probabilities depend on nothing, so every adaptation ratio is
    1 and the associational quantity coincides with the interventional one:
    the zero-bias control case.
    """
    base = coin_epidemic()

    def rule_fn(t, a_idx, y_idx):
        return (0.5, 0.5) if t == 0 else (0.8, 0.2)

    return base.with_rule(rule_fn)


BUILTIN_INSTANCES: dict[str, Callable[[], FiniteDgp]] = {
    "coin-epidemic": coin_epidemic,
    "reversed-coin-epidemic": reversed_coin_epidemic,
    "exogenous-null": exogenous_null,
}


# ---------------------------------------------------------------------------
# Random instance generators (for property tests and fuzzing)
# ---------------------------------------------------------------------------

def _random_row(rng: np.random.Generator, width: int, zero_fraction: float):
    row = rng.dirichlet(np.ones(width))
    if width > 1 and rng.random() < zero_fraction:
        row[rng.integers(width)] = 0.0
        total = row.sum()
        if total > 0.0:
            row = row / total
        else:
            row = np.full(width, 1.0 / width)
    return tuple(float(p) for p in row)


def random_dgp(
    rng: np.random.Generator,
    horizon: int | None = None,
    outcome_count: int | None = None,
    zero_fraction: float = 0.25,
) -> FiniteDgp:
    """An unstructured random instance: Dirichlet rows, occasional hard zeros.

    Used for identity audits, which must hold for any valid instance.
    """
    T = int(horizon if horizon is not None else rng.integers(2, 4))
    n_y = int(outcome_count if outcome_count is not None else rng.integers(2, 4))
    values = tuple(float(v) for v in np.cumsum(rng.uniform(0.2, 1.0, n_y)))

    def outcome_fn(t, a_idx, y_idx):
        return _random_row(rng, n_y, zero_fraction)

    def rule_fn(t, a_idx, y_idx):
        return _random_row(rng, 2, zero_fraction)

    return FiniteDgp.from_functions(T, values, (0, 1), 0, outcome_fn, rule_fn)


def _monotone_outcome_fn(rng: np.random.Generator, horizon: int, n_y: int):
    """Capped-increment outcome kernels: y_t = min(y_{t-1} + step, top).

    The step distribution varies with time and the treatment history but
    never with the current outcome, which makes the process monotone (steps
    are nonnegative) and stochastically monotone (higher y now cannot lower
    the distribution of y later).
    """
    increments = {}

    def outcome_fn(t, a_idx, y_idx):
        key = (t, a_idx)
        if key not in increments:
            increments[key] = rng.dirichlet(np.ones(3))
        inc = increments[key]
        prev = y_idx[-1]
        probs = [0.0] * n_y
        for step, p in enumerate(inc):
            probs[min(prev + step, n_y - 1)] += float(p)
        return tuple(probs)

    return outcome_fn


def random_opportunistic_dgp(
    rng: np.random.Generator,
    margin_min: float = 0.05,
    max_tries: int = 500,
) -> tuple[FiniteDgp, tuple[int, ...]]:
    """Rejection-sample an instance whose rule passes check_opportunistic.

    Construction: monotone capped-increment outcomes plus a rule whose
    probability of continuing the never-treat path strictly decreases in
    the current outcome, so observing a worse outcome always makes the
    target path less likely.  Each candidate is still verified, not
    trusted: it is accepted only if the target is reachable, some time has
    a nonconstant ratio, every such time passes the opportunism test, and
    the verified margin is at least `margin_min` (so the predicted strict
    inequality is not resting on a degenerate zero-width witness).
    """
    for _ in range(max_tries):
        T = int(rng.integers(2, 4))
        n_y = T + 2
        values = tuple(float(v) for v in np.cumsum(rng.uniform(0.2, 1.0, n_y)))
        outcome_fn = _monotone_outcome_fn(rng, T, n_y)
        continue_probs = {
            t: np.sort(rng.uniform(0.05, 0.95, n_y))[::-1] for t in range(T)
        }

        def rule_fn(t, a_idx, y_idx):
            c = float(continue_probs[t][y_idx[-1]])
            return (c, 1.0 - c)

        dgp = FiniteDgp.from_functions(T, values, (0, 1), 0, outcome_fn, rule_fn)
        target = (0,) * T
        if _continuation(dgp, 0, (0,) * T, (), (0,)) == 0.0:
            continue
        report = check_opportunistic(dgp, target)
        if not report.has_nonconstant:
            continue
        if not report.opportunistic_everywhere:
            continue
        if report.witness_margin < margin_min:
            continue
        return dgp, target
    raise RuntimeError(f"no opportunistic instance found in {max_tries} tries")


def random_monotone_threshold_dgp(
    rng: np.random.Generator,
    max_tries: int = 500,
) -> tuple[FiniteDgp, tuple[int, ...], float]:
    """A monotone outcome process governed by a deterministic threshold rule.

    The rule treats (and keeps treating) once the current outcome exceeds a
    threshold placed between two alphabet values.  Returns (instance,
    never-treat target, threshold).  Instances are redrawn until some time
    actually has a nonconstant ratio, i.e. the threshold splits reachable
    outcomes.
    """
    for _ in range(max_tries):
        T = int(rng.integers(2, 4))
        n_y = T + 2
        values = tuple(float(v) for v in np.cumsum(rng.uniform(0.2, 1.0, n_y)))
        outcome_fn = _monotone_outcome_fn(rng, T, n_y)
        cut = int(rng.integers(0, n_y - 1))
        threshold = float((values[cut] + values[cut + 1]) / 2.0)

        def rule_fn(t, a_idx, y_idx):
            if any(a != 0 for a in a_idx):
                return (0.0, 1.0)  # once treated, stay treated
            return (0.0, 1.0) if values[y_idx[-1]] > threshold else (1.0, 0.0)

        dgp = FiniteDgp.from_functions(T, values, (0, 1), 0, outcome_fn, rule_fn)
        target = (0,) * T
        if _continuation(dgp, 0, target, (), (0,)) == 0.0:
            continue
        report = check_opportunistic(dgp, target)
        if not report.has_nonconstant:
            continue
        return dgp, target, threshold
    raise RuntimeError(f"no threshold instance with adaptive times in {max_tries} tries")
