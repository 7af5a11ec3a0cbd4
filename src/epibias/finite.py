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

The kernels are dense arrays indexed by history.  Every quantity along one
treatment path is read from two passes over them: `_backward`, the
g-computation recursion, and `_forward`, the reach probability of every
outcome history.  `enumerate_paths` and `associational_exact` condition the
enumerated joint law instead; they are the reference the audits check the
passes against.

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
# numpy 1.x arrays have at most 32 axes, and outcome_kernels[T] has 2T + 1.
_MAX_AXES = 32

_ROW_SUM_TOL = 1e-12
_NEUTRAL_TOL = 1e-12


# ---------------------------------------------------------------------------
# The tabular process
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteDgp:
    """A tabular data-generating process over finite alphabets.

    Kernel tables are total float arrays indexed by alphabet indices, not
    values: `outcome_kernels[t][a_1..a_t, y_0..y_{t-1}]`, t = 1..horizon,
    is the probability vector of y_t, and `rule_kernels[t][a_1..a_t,
    y_0..y_t]`, t = 0..horizon-1, that of a_{t+1}.  Their shapes are
    (n_a,)*t + (n_y,)*t + (n_y,) and (n_a,)*t + (n_y,)*(t+1) + (n_a,), so
    in C order the rows follow `itertools.product` over the history.
    Validation makes the arrays read-only.
    """

    horizon: int
    outcome_values: tuple[float, ...]
    treatment_values: tuple[int, ...]
    initial_outcome_index: int
    outcome_kernels: dict[int, np.ndarray]
    rule_kernels: dict[int, np.ndarray]

    def __post_init__(self):
        _check_header(
            self.horizon, self.outcome_values, self.treatment_values, self.initial_outcome_index
        )
        for kind, t, shape, width in _kernel_specs(
            self.horizon, len(self.treatment_values), len(self.outcome_values)
        ):
            self._validate_table(kind, t, shape + (width,))

    def _validate_table(self, kind, t, shape):
        table = getattr(self, f"{kind}_kernels").get(t)
        if table is None:
            raise KernelValidationError(f"{kind} kernel missing for t={t}")
        if not isinstance(table, np.ndarray) or table.dtype != np.float64 or table.shape != shape:
            raise KernelValidationError(
                f"{kind} kernel t={t}: expected a float64 array of shape {shape}, "
                f"got {np.shape(table)}"
            )
        checks = (
            ("non-finite entry in", lambda: ~np.isfinite(table).all(axis=-1)),
            ("does not sum to 1:", lambda: np.abs(table.sum(axis=-1) - 1.0) > _ROW_SUM_TOL),
            ("negative entry in", lambda: (table < 0.0).any(axis=-1)),
        )
        for problem, find_bad in checks:
            bad = np.argwhere(find_bad())
            if len(bad):
                index = tuple(bad[0].tolist())
                raise KernelValidationError(
                    f"{kind} kernel t={t} row a={index[:t]} y={index[t:]}: "
                    f"{problem} {table[index].tolist()!r}"
                )
        table.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, FiniteDgp):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    # -- lookups ------------------------------------------------------------

    def outcome_row(self, t: int, a_idx: tuple[int, ...], y_idx: tuple[int, ...]):
        """Probability vector of y_t given treatments a_1..a_t, outcomes y_0..y_{t-1}."""
        return tuple(self.outcome_kernels[t][a_idx + y_idx].tolist())

    def rule_row(self, t: int, a_idx: tuple[int, ...], y_idx: tuple[int, ...]):
        """Probability vector of a_{t+1} given treatments a_1..a_t, outcomes y_0..y_t."""
        return tuple(self.rule_kernels[t][a_idx + y_idx].tolist())

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
        outcome_values = tuple(float(v) for v in outcome_values)
        treatment_values = tuple(_integer(v, "treatment value") for v in treatment_values)
        # Refuse oversized instances before materializing any table; the
        # tables themselves can dwarf the path count the validator checks.
        _check_header(horizon, outcome_values, treatment_values, initial_outcome_index)
        row_fns = {"outcome": outcome_fn, "rule": rule_fn}
        tables = {"outcome": {}, "rule": {}}
        for kind, t, shape, width in _kernel_specs(
            horizon, len(treatment_values), len(outcome_values)
        ):
            tables[kind][t] = _tabulate(kind, row_fns[kind], t, shape, width)
        return cls(
            horizon=horizon,
            outcome_values=outcome_values,
            treatment_values=treatment_values,
            initial_outcome_index=initial_outcome_index,
            outcome_kernels=tables["outcome"],
            rule_kernels=tables["rule"],
        )

    def with_rule(self, rule_fn) -> "FiniteDgp":
        """Same outcome process, different decision rule."""
        return FiniteDgp.from_functions(
            self.horizon, self.outcome_values, self.treatment_values, self.initial_outcome_index,
            lambda t, a, y: self.outcome_kernels[t][a + y], rule_fn,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def dump(tables):
            return {
                str(t): dict(zip(
                    (_dump_key(index, t) for index in np.ndindex(table.shape[:-1])),
                    table.reshape(-1, table.shape[-1]).tolist(),
                ))
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
            horizon = _integer(data["horizon"], "horizon")
            outcome_values = tuple(float(v) for v in data["outcome_values"])
            treatment_values = tuple(
                _integer(v, "treatment value") for v in data["treatment_values"]
            )
            initial = _integer(data["initial_outcome_index"], "initial outcome index")
            _check_header(horizon, outcome_values, treatment_values, initial)
            rows = {"outcome": {}, "rule": {}}
            for kind, t, shape, width in _kernel_specs(
                horizon, len(treatment_values), len(outcome_values)
            ):
                serialized = {int(k): v for k, v in data[f"{kind}_kernels"].items()}.get(t)
                rows[kind][t] = _place_rows(kind, t, shape, width, serialized)
            return cls.from_functions(
                horizon, outcome_values, treatment_values, initial,
                lambda t, a, y: rows["outcome"][t][a + y],
                lambda t, a, y: rows["rule"][t][a + y],
            )
        except KernelValidationError:
            raise
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise KernelValidationError(f"malformed instance data: {exc}") from exc


def _check_header(horizon, outcome_values, treatment_values, initial_outcome_index):
    """Validate everything but the kernel tables, and refuse oversized instances."""
    if horizon < 1:
        raise KernelValidationError(f"horizon must be >= 1, got {horizon}")
    if not all(math.isfinite(y) for y in outcome_values):
        raise KernelValidationError(f"outcome values must be finite, got {outcome_values}")
    if list(outcome_values) != sorted(set(outcome_values)):
        raise KernelValidationError(
            f"outcome values must be strictly increasing, got {outcome_values}"
        )
    if not treatment_values or len(set(treatment_values)) != len(treatment_values):
        raise KernelValidationError(
            f"treatment values must be distinct and not empty, got {treatment_values}"
        )
    if not 0 <= initial_outcome_index < len(outcome_values):
        raise KernelValidationError(
            f"initial outcome index {initial_outcome_index} outside alphabet"
        )
    n_y, n_a = len(outcome_values), len(treatment_values)
    if 2 * horizon + 1 > _MAX_AXES or (n_y * n_a) ** horizon > PATH_CAP:
        raise InstanceTooLargeError(
            f"({n_y} outcomes x {n_a} treatments)^{horizon} exceeds the {PATH_CAP} path cap "
            f"or the horizon needs more than {_MAX_AXES} array axes"
        )


def _kernel_specs(horizon, n_a, n_y):
    """(kind, t, history shape, row width) of every kernel table, in table order."""
    for t in range(1, horizon + 1):
        yield "outcome", t, (n_a,) * t + (n_y,) * t, n_y
    for t in range(horizon):
        yield "rule", t, (n_a,) * t + (n_y,) * (t + 1), n_a


def _integer(value, name: str) -> int:
    """int(value), refusing a float that int() would truncate."""
    if isinstance(value, float) and not value.is_integer():
        raise KernelValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _tabulate(kind, row_fn, t, shape, width) -> np.ndarray:
    """row_fn(t, a_idx, y_idx) on every history of `shape`, in key order, as one array."""
    rows = [
        row_fn(t, a, y)
        for a in itertools.product(*map(range, shape[:t]))
        for y in itertools.product(*map(range, shape[t:]))
    ]
    try:
        table = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise KernelValidationError(f"{kind} kernel t={t}: rows are not numeric: {exc}") from exc
    if table.shape != (len(rows), width):
        raise KernelValidationError(
            f"{kind} kernel t={t}: rows of shape {table.shape[1:]} for a {width}-letter alphabet"
        )
    return table.reshape(shape + (width,))


def _place_rows(kind, t, shape, width, serialized) -> dict:
    """Rows of one serialized table by history index; the keys must cover `shape` once."""
    if serialized is None:
        raise KernelValidationError(f"{kind} kernel missing for t={t}")
    placed = {}
    for key, row in serialized.items():
        a_idx, y_idx = _parse_key(key)
        index = a_idx + y_idx
        if (
            len(a_idx) != t
            or len(index) != len(shape)
            or not all(i in range(n) for i, n in zip(index, shape))
            or index in placed
        ):
            raise KernelValidationError(
                f"{kind} kernel t={t}: key {key!r} is not a new history inside the alphabets"
            )
        if len(row) != width:
            raise KernelValidationError(
                f"{kind} kernel t={t} key {key!r}: {len(row)} entries for a "
                f"{width}-letter alphabet"
            )
        placed[index] = row
    if len(placed) != math.prod(shape):
        raise KernelValidationError(
            f"{kind} kernel t={t}: expected {math.prod(shape)} rows, got {len(placed)}"
        )
    return placed


def _dump_key(index: tuple[int, ...], t: int) -> str:
    return "a=" + ",".join(map(str, index[:t])) + ";y=" + ",".join(map(str, index[t:]))


def _parse_key(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    try:
        a_part, y_part = text.split(";")
        a_body = a_part.removeprefix("a=")
        y_body = y_part.removeprefix("y=")
        a_idx = tuple(int(x) for x in a_body.split(",")) if a_body else ()
        y_idx = tuple(int(x) for x in y_body.split(",")) if y_body else ()
    except ValueError as exc:
        raise KernelValidationError(f"kernel key {text!r} is not 'a=...;y=...'") from exc
    return (a_idx, y_idx)


def _a_indices(dgp: FiniteDgp, treatments: Iterable[int]) -> tuple[int, ...]:
    return tuple(dgp.treatment_index(a) for a in treatments)


def _y_indices(dgp: FiniteDgp, outcomes: Iterable[float]) -> tuple[int, ...]:
    return tuple(dgp.outcome_index(y) for y in outcomes)


# ---------------------------------------------------------------------------
# The two passes along one treatment path
# ---------------------------------------------------------------------------

def _pinned(dgp: FiniteDgp, path: tuple[int, ...]):
    """Views of the kernels with treatments fixed to `path` (indices a_1..a_T).

    P[t][y_0..y_t] = p_t(y_t | path[:t], y_0..y_{t-1}) for t = 1..T (P[0] is
    None); R[t][y_0..y_t] = pi_t(path[t] | path[:t], y_0..y_t) for t < T.
    """
    P = [None] + [dgp.outcome_kernels[t][path[:t]] for t in range(1, dgp.horizon + 1)]
    R = [dgp.rule_kernels[t][path[:t]][..., path[t]] for t in range(dgp.horizon)]
    return P, R


def _backward(P, R, payoff, stop: int = 0) -> list:
    """The g-computation recursion along the path that P and R are pinned to.

    V[T][y_0..y_T] = payoff(y_T) and, down to t = stop (V is None below),
    V[t][y_0..y_t] = R[t] * sum_y P[t+1][y_0..y_t, y] * V[t+1][y_0..y_t, y],
    with the factor R[t] only when R is given.  With R and payoff 1, V[t]
    is the lag-0 propensity of the rest of the path.  Without R and with
    payoff y_T, V[t] is f_{T,t}, and V[0] at y_0 is the g-formula.
    """
    T = len(P) - 1
    V = [None] * (T + 1)
    V[T] = np.broadcast_to(payoff, P[T].shape)
    for t in range(T - 1, stop - 1, -1):
        V[t] = (P[t + 1] * V[t + 1]).sum(axis=-1)
        if R is not None:
            V[t] = R[t] * V[t]
    return V


def _forward(P, R, initial: int) -> list:
    """Reach probabilities along the path that P and R are pinned to.

    F[t][y_0..y_t] is the joint probability of y_0..y_t and a_1..a_t =
    path[:t], for t = 0..T; F[t] * R[t] adds a_{t+1} = path[t].
    """
    F = [np.eye(len(R[0]))[initial]]
    for t in range(1, len(P)):
        F.append((F[-1] * R[t - 1])[..., None] * P[t])
    return F


def _path(dgp: FiniteDgp, t: int, treatments, future) -> tuple[int, ...]:
    """Alphabet indices of a_1..a_t followed by a_{t+1}..a_T, lengths checked."""
    past, rest = _a_indices(dgp, treatments), _a_indices(dgp, future)
    if len(past) != t or len(rest) != dgp.horizon - t:
        raise ValueError(
            f"expected {t} past and {dgp.horizon - t} future treatments, "
            f"got {len(past)} and {len(rest)}"
        )
    return past + rest


# ---------------------------------------------------------------------------
# Path enumeration and the two exact estimands
# ---------------------------------------------------------------------------

class PathWeight(NamedTuple):
    """One complete realization: treatment values, outcome values (y_0
    first), and its exact joint probability under the rule."""

    treatments: tuple[int, ...]
    outcomes: tuple[float, ...]
    probability: float


def enumerate_paths(dgp: FiniteDgp) -> tuple[PathWeight, ...]:
    """All positive-probability (treatment path, outcome path) pairs.

    Branches whose rule or outcome probability is exactly zero are dropped,
    so the result is the support of the joint law; probabilities sum to 1.
    The path count is bounded by PATH_CAP at construction.
    """
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

    The backward pass with payoff y_T and no rule factors: the rule kernels
    play no part, which is exactly what distinguishes this from the
    associational quantity below.
    """
    P, _ = _pinned(dgp, _path(dgp, 0, (), target))
    return float(_backward(P, None, dgp.outcome_values)[0][dgp.initial_outcome_index])


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
    only, marginalizing y_t, and needs t >= 1.  The conditioning history
    must itself be reachable (positive probability), otherwise the
    conditional does not exist and UndefinedConditionalError is raised.
    """
    if lag not in (0, 1) or t < lag:
        raise ValueError(f"lag must be 0 or 1 and at most t, got lag {lag!r} at t={t}")
    path = _path(dgp, t, treatments, future)
    y_idx = _y_indices(dgp, outcomes)
    expected_y = t + 1 if lag == 0 else t
    if len(y_idx) != expected_y:
        raise UndefinedConditionalError(
            f"lag-{lag} history at t={t} needs {expected_y} outcomes (y_0 first), "
            f"got {len(y_idx)}"
        )
    P, R = _pinned(dgp, path)
    if not _forward(P, R, dgp.initial_outcome_index)[t][y_idx].any():
        raise UndefinedConditionalError(
            f"conditioning event a={tuple(treatments)} y={tuple(outcomes)} has "
            f"probability zero"
        )
    propensity = _backward(P, R, 1.0, stop=t)[t][y_idx]
    if lag == 1:
        propensity = (P[t][y_idx] * propensity).sum(axis=-1)
    return float(propensity)


def _step_ratios(dgp, t, future, treatments, outcomes):
    """p_t(y_t | history) and s_t(y_t) for every y_t, as two lists.

    `outcomes` is the history y_0..y_{t-1}.  Raises UndefinedRatioError
    where the lag-1 propensity is zero.
    """
    P, R = _pinned(dgp, _path(dgp, t, treatments, future))
    y_prev_idx = _y_indices(dgp, outcomes)
    if t < 1 or len(y_prev_idx) != t:
        raise ValueError(f"expected {t} >= 1 outcomes y_0..y_{{t-1}}, got {len(y_prev_idx)}")
    row = P[t][y_prev_idx]
    lag0 = _backward(P, R, 1.0, stop=t)[t][y_prev_idx]
    denom = (row * lag0).sum(axis=-1)
    if denom == 0.0:
        raise UndefinedRatioError(
            f"lag-1 propensity is zero at t={t}, history y={tuple(outcomes)}"
        )
    return row.tolist(), (lag0 / denom).tolist()


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
    _, ratios = _step_ratios(dgp, t, future, treatments, outcomes)
    return ratios[dgp.outcome_index(y_t)]


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


def _partition(values, row, ratios) -> AdaptationPartition:
    """Split the supported outcomes of `row` by their ratio in `ratios`."""
    up, neutral, down = set(), set(), set()
    by_value = {}
    for y, p_y in enumerate(row):
        if p_y == 0.0:
            continue
        value = values[y]
        s = by_value[value] = ratios[y]
        if abs(s - 1.0) <= _NEUTRAL_TOL:
            neutral.add(value)
        elif s > 1.0:
            up.add(value)
        else:
            down.add(value)
    return AdaptationPartition(frozenset(up), frozenset(neutral), frozenset(down), by_value)


def classify_adaptations(
    dgp: FiniteDgp,
    t: int,
    future: Sequence[int],
    treatments: Sequence[int],
    outcomes: Sequence[float],
) -> AdaptationPartition:
    """Partition supported y_t values into s>1 / s=1 / s<1 classes."""
    row, ratios = _step_ratios(dgp, t, future, treatments, outcomes)
    return _partition(dgp.outcome_values, row, ratios)


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
    P, _ = _pinned(dgp, _path(dgp, t, treatments, future))
    y_idx = _y_indices(dgp, outcomes) + (dgp.outcome_index(y_t),)
    if len(y_idx) != t + 1:
        raise ValueError(f"expected {t} outcomes y_0..y_{{t-1}}, got {len(y_idx) - 1}")
    return float(_backward(P, None, dgp.outcome_values, stop=t)[t][y_idx])


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
    reported as not opportunistic; it also cannot contribute bias.  Every
    value is read from the reach, lag-0 propensity and f_{T,t} passes.
    """
    target_vals = tuple(int(a) for a in target)
    values = dgp.outcome_values
    n_y = len(values)
    P, R = _pinned(dgp, _path(dgp, 0, (), target))
    reach = _forward(P, R, dgp.initial_outcome_index)
    lag0 = _backward(P, R, 1.0)
    expected = _backward(P, None, values)

    per_time = []
    for t in range(1, dgp.horizon):
        # Reachable histories y_0..y_{t-1}, in C order, which is the order of
        # a depth-first walk over increasing outcome indices.
        reach_t = reach[t - 1] * R[t - 1]  # y_0..y_{t-1} jointly with a_1..a_t
        weights = reach_t.reshape(-1)
        kept = np.flatnonzero(weights)
        rows = P[t].reshape(-1, n_y)[kept]
        lag0_rows = lag0[t].reshape(-1, n_y)[kept]
        histories = zip(
            np.stack(np.unravel_index(kept, reach_t.shape), axis=-1).tolist(),
            weights[kept].tolist(),
            rows.tolist(),
            lag0_rows.tolist(),
            (rows * lag0_rows).sum(axis=-1).tolist(),
            expected[t].reshape(-1, n_y)[kept].tolist(),
        )
        checks = []
        skipped = 0
        for y_idx, weight, row, lag0_row, denom, f_row in histories:
            if denom == 0.0:
                skipped += 1
                continue
            partition = _partition(values, row, [p / denom for p in lag0_row])
            expectations = {values[y]: f_row[y] for y, p in enumerate(row) if p != 0.0}
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
            mass = sum(
                row[dgp.outcome_index(y)] * abs(1.0 - partition.ratios[y])
                for y in non_neutral
            )
            checks.append(
                HistoryCheck(
                    outcomes=tuple(values[i] for i in y_idx),
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
    specification, and every outcome history row in the (total) tables:
    one backward pass per full treatment path covers all of them.
    Horizons below 2 have no intermediate time, so they pass vacuously.
    """
    for path in itertools.product(range(len(dgp.treatment_values)), repeat=dgp.horizon):
        P, _ = _pinned(dgp, path)
        expected = _backward(P, None, dgp.outcome_values, stop=1)
        for f in expected[1:-1]:
            if (f[..., 1:] < f[..., :-1] - _NEUTRAL_TOL).any():
                return False
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
    for path in itertools.product(range(len(dgp.treatment_values)), repeat=dgp.horizon):
        P, R = _pinned(dgp, path)
        lag0 = _backward(P, R, 1.0, stop=1)
        for t in range(1, dgp.horizon):
            lag1 = (P[t] * lag0[t]).sum(axis=-1)
            live = lag1 != 0.0
            ratios = lag0[t][live] / lag1[live][:, None]
            residual = ((ratios - 1.0) * P[t][live]).sum(axis=-1)
            worst = max(worst, float(np.abs(residual).max(initial=0.0)))
    return worst


def associational_via_ratios(dgp: FiniteDgp, target: Sequence[int]) -> float:
    """The associational mean rebuilt from ratio-weighted outcome kernels.

    Weights each outcome step by s_t * p_t along the target, with s_t from
    the backward pass; agreement with `associational_exact` (which
    conditions the enumerated joint) validates the ratio decomposition.
    """
    P, R = _pinned(dgp, _path(dgp, 0, (), target))
    lag0 = _backward(P, R, 1.0)
    init = dgp.initial_outcome_index
    if lag0[0][init] == 0.0:
        raise UndefinedConditionalError(
            f"treatment path {tuple(target)} has probability zero under the rule"
        )
    weight = np.eye(len(dgp.outcome_values))[init]
    for t in range(1, dgp.horizon + 1):
        lag1 = (P[t] * lag0[t]).sum(axis=-1)[..., None]
        ratios = np.divide(lag0[t], lag1, out=np.zeros(P[t].shape), where=lag1 != 0.0)
        weight = weight[..., None] * ratios * P[t]
    return float((weight * np.asarray(dgp.outcome_values)).sum())


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
    for target in sorted({p.treatments for p in paths}):
        P, R = _pinned(dgp, _a_indices(dgp, target))
        lag0 = _backward(P, R, 1.0, stop=1)
        mass = np.zeros(P[-1].shape)  # of y_0..y_T jointly with the target path
        for p in paths:
            if p.treatments == target:
                mass[_y_indices(dgp, p.outcomes)] += p.probability
        for t in range(dgp.horizon - 1, 0, -1):
            mass = mass.sum(axis=-1)
            lag1 = (P[t] * lag0[t]).sum(axis=-1)[..., None]
            with np.errstate(divide="ignore", invalid="ignore"):
                gap = mass / mass.sum(axis=-1, keepdims=True) - lag0[t] / lag1 * P[t]
            seen = (mass > 0.0) & (lag1 != 0.0)
            worst = max(worst, float(np.abs(gap[seen]).max(initial=0.0)))
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

# Candidates a rejection-sampling generator draws before it gives up.
_MAX_TRIES = 500
# Smallest witness margin an opportunistic instance is accepted with.
_MIN_MARGIN = 0.05


def _random_row(rng: np.random.Generator, width: int):
    """A Dirichlet row with, a quarter of the time, one entry forced to zero."""
    row = rng.dirichlet(np.ones(width))
    if width > 1 and rng.random() < 0.25:
        row[rng.integers(width)] = 0.0
        total = row.sum()
        if total > 0.0:
            row = row / total
        else:
            row = np.full(width, 1.0 / width)
    return row


def random_dgp(rng: np.random.Generator) -> FiniteDgp:
    """An unstructured random instance: Dirichlet rows, occasional hard zeros.

    Used for identity audits, which must hold for any valid instance.
    """
    T = int(rng.integers(2, 4))
    n_y = int(rng.integers(2, 4))
    values = tuple(float(v) for v in np.cumsum(rng.uniform(0.2, 1.0, n_y)))

    def outcome_fn(t, a_idx, y_idx):
        return _random_row(rng, n_y)

    def rule_fn(t, a_idx, y_idx):
        return _random_row(rng, 2)

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


def random_opportunistic_dgp(rng: np.random.Generator) -> tuple[FiniteDgp, tuple[int, ...]]:
    """Rejection-sample an instance whose rule passes check_opportunistic.

    Construction: monotone capped-increment outcomes plus a rule whose
    probability of continuing the never-treat path strictly decreases in
    the current outcome, so observing a worse outcome always makes the
    target path less likely.  Each candidate is still verified, not
    trusted: it is accepted only if some time has a nonconstant ratio
    (which needs a reachable target), every such time passes the
    opportunism test, and the verified margin is at least _MIN_MARGIN (so the
    predicted strict inequality is not resting on a degenerate zero-width
    witness).
    """
    for _ in range(_MAX_TRIES):
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
        report = check_opportunistic(dgp, target)
        if not report.has_nonconstant:
            continue
        if not report.opportunistic_everywhere:
            continue
        if report.witness_margin < _MIN_MARGIN:
            continue
        return dgp, target
    raise RuntimeError(f"no opportunistic instance found in {_MAX_TRIES} tries")


def random_monotone_threshold_dgp(
    rng: np.random.Generator,
) -> tuple[FiniteDgp, tuple[int, ...], float]:
    """A monotone outcome process governed by a deterministic threshold rule.

    The rule treats (and keeps treating) once the current outcome exceeds a
    threshold placed between two alphabet values.  Returns (instance,
    never-treat target, threshold).  Instances are redrawn until some time
    actually has a nonconstant ratio, i.e. the threshold splits reachable
    outcomes.
    """
    for _ in range(_MAX_TRIES):
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
        report = check_opportunistic(dgp, target)
        if not report.has_nonconstant:
            continue
        return dgp, target, threshold
    raise RuntimeError(f"no threshold instance with adaptive times in {_MAX_TRIES} tries")
