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
* the opportunism report, which holds, at every reachable history, the
  adaptive ratio s_t, the partition of outcomes into upweighted / neutral
  / downweighted adaptations, and the moving marginal expectations
  f_{T,t},
* the negative-bias theorem check built on that report.

The kernels are dense arrays indexed by history.  Every quantity along one
treatment path is read from two passes over them: `_backward`, the
g-computation recursion, and `_forward`, the reach probability of every
outcome history.  The passes along a target path run once per instance,
and the opportunism report, the g-formula and the associational mean are
all read from them.  `associational_via_ratios` rebuilds the associational
mean from ratio-weighted kernels instead, and `audit_decomposition`
compares the two.  The independent path enumerators that pin these values
live with the tests (`tests/reference.py`, and the brute-force route of the
acceptance tests).

These exact values serve as oracles for the Monte Carlo machinery and as
the substrate for randomized property tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InstanceTooLargeError, KernelValidationError, UndefinedConditionalError

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
    Validation makes the arrays read-only, so the passes along a target
    path run once: `_reports` keeps what they give per target path.
    """

    horizon: int
    outcome_values: tuple[float, ...]
    treatment_values: tuple[int, ...]
    initial_outcome_index: int
    outcome_kernels: dict[int, np.ndarray]
    rule_kernels: dict[int, np.ndarray]
    _reports: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
        # Two whole-array tests first; the row searches below only name a bad
        # row.  A NaN or a -inf fails the first, a +inf the second; the
        # header checks guarantee the table is not empty.
        if table.min() >= 0.0:
            error = table.sum(axis=-1)
            error -= 1.0
            if np.abs(error, out=error).max() <= _ROW_SUM_TOL:
                table.flags.writeable = False
                return
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
        outcome_fn: Callable[[int, tuple, tuple], Sequence[float]] | dict[int, np.ndarray],
        rule_fn: Callable[[int, tuple, tuple], Sequence[float]] | dict[int, np.ndarray],
    ) -> "FiniteDgp":
        """Kernel tables from row functions, called per key, or dicts t -> table (copied)."""
        outcome_values = tuple(float(v) for v in outcome_values)
        treatment_values = tuple(_integer(v, "treatment value") for v in treatment_values)
        # Refuse oversized instances before materializing any table; the
        # tables themselves can dwarf the path count the validator checks.
        _check_header(horizon, outcome_values, treatment_values, initial_outcome_index)
        sources = {"outcome": outcome_fn, "rule": rule_fn}
        tables = {"outcome": {}, "rule": {}}
        for kind, t, shape, width in _kernel_specs(
            horizon, len(treatment_values), len(outcome_values)
        ):
            tables[kind][t] = _tabulate(kind, sources[kind], t, shape, width)
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
            self.outcome_kernels, rule_fn,
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def keys(t, shape):
            a_part, y_part = (
                [",".join(map(str, index)) for index in itertools.product(*map(range, axes))]
                for axes in (shape[:t], shape[t:])
            )
            return [f"a={a};y={y}" for a in a_part for y in y_part]

        def dump(tables):
            return {
                str(t): dict(zip(
                    keys(t, table.shape[:-1]), table.reshape(-1, table.shape[-1]).tolist()
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
            horizon = _number(data["horizon"], "horizon", integral=True)
            outcome_values = tuple(_number(v, "outcome value") for v in data["outcome_values"])
            treatment_values = tuple(
                _number(v, "treatment value", integral=True) for v in data["treatment_values"]
            )
            initial = _number(data["initial_outcome_index"], "initial outcome index", integral=True)
            _check_header(horizon, outcome_values, treatment_values, initial)
            rows = {"outcome": {}, "rule": {}}
            for kind, t, shape, width in _kernel_specs(
                horizon, len(treatment_values), len(outcome_values)
            ):
                serialized = data[f"{kind}_kernels"].get(str(t))
                rows[kind][t] = _place_rows(kind, t, shape, width, serialized)
            for kind, tables in rows.items():
                extra = set(data[f"{kind}_kernels"]) - {str(t) for t in tables}
                if extra:
                    raise KernelValidationError(
                        f"{kind} kernels: table keys {', '.join(sorted(map(repr, extra)))} "
                        f"are not times of a horizon-{horizon} instance"
                    )
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


def _is_number(value) -> bool:
    """Whether value is a JSON number: an int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, name: str, integral: bool = False):
    """A JSON number as a float, or as an int when `integral`; a bool or a
    string is refused, not coerced."""
    if not _is_number(value):
        raise KernelValidationError(f"{name} must be a number, got {value!r}")
    return _integer(value, name) if integral else float(value)


def _integer(value, name: str) -> int:
    """int(value), refusing a float that int() would truncate."""
    if isinstance(value, float) and not value.is_integer():
        raise KernelValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _tabulate(kind, source, t, shape, width) -> np.ndarray:
    """A fresh C-order table from a row function, called per key, or a dict of tables."""
    if callable(source):
        keys = itertools.product(*map(range, shape))  # a_1..a_t, then the outcomes
        rows = [source(t, key[:t], key[t:]) for key in keys]
        lead = (len(rows),)
    else:
        rows, lead = source.get(t), shape
        if rows is None:
            raise KernelValidationError(f"{kind} kernel missing for t={t}")
    try:
        table = np.array(rows, dtype=float, order="C")
    except (TypeError, ValueError) as exc:
        raise KernelValidationError(f"{kind} kernel t={t}: rows are not numeric: {exc}") from exc
    # A table whose history axes are wrong fails FiniteDgp's shape check.
    if table.shape[:len(lead)] == lead and table.shape[len(lead):] != (width,):
        raise KernelValidationError(
            f"{kind} kernel t={t}: rows of shape {table.shape[len(lead):]} "
            f"for a {width}-letter alphabet"
        )
    return table if lead == shape else table.reshape(shape + (width,))


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
        if not all(map(_is_number, row)):
            raise KernelValidationError(
                f"{kind} kernel t={t} key {key!r}: entries must be numbers, got {row!r}"
            )
        placed[index] = row
    if len(placed) != math.prod(shape):
        raise KernelValidationError(
            f"{kind} kernel t={t}: expected {math.prod(shape)} rows, got {len(placed)}"
        )
    return placed


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
    V[T] = np.empty(P[T].shape)
    V[T][...] = payoff
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
    F = [np.zeros(len(R[0]))]
    F[0][initial] = 1.0
    for t in range(1, len(P)):
        F.append((F[-1] * R[t - 1])[..., None] * P[t])
    return F


def _path(dgp: FiniteDgp, target: Sequence[int]) -> tuple[int, ...]:
    """Alphabet indices of the treatment path a_1..a_T, its length checked."""
    path = tuple(dgp.treatment_index(a) for a in target)
    if len(path) != dgp.horizon:
        raise ValueError(f"expected {dgp.horizon} treatments, got {len(path)}")
    return path


# ---------------------------------------------------------------------------
# Opportunism, the two exact estimands and the negative-bias theorem
# ---------------------------------------------------------------------------

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


class _Exact(NamedTuple):
    """What the passes along one target path give, kept on the instance."""

    report: OpportunisticReport
    g_formula: float
    mass: float  # probability that the realized treatments equal the target
    weighted: float  # that mass weighted by the final outcome


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
    `verify_theorem1` asks, besides, for a positive witness margin.  Every
    value is read from the reach, lag-0 propensity and f_{T,t} passes.  The
    report is computed once per instance and target path, then reused.
    """
    return _exact(dgp, target).report


def _exact(dgp: FiniteDgp, target: Sequence[int]) -> _Exact:
    """The opportunism report and both estimands along `target`, from one
    forward and two backward passes run once per instance and target path."""
    path = _path(dgp, target)
    if path in dgp._reports:
        return dgp._reports[path]
    values = dgp.outcome_values
    value_array = np.array(values)
    column = {value: y for y, value in enumerate(values)}
    P, R = _pinned(dgp, path)
    reach = _forward(P, R, dgp.initial_outcome_index)
    lag0 = _backward(P, R, 1.0)
    expected = _backward(P, None, value_array)

    per_time = []
    for t in range(1, dgp.horizon):
        # Reachable histories y_0..y_{t-1}, in C order, which is the order of
        # a depth-first walk over increasing outcome indices.
        reach_t = reach[t - 1] * R[t - 1]  # y_0..y_{t-1} jointly with a_1..a_t
        kept = reach_t.nonzero()
        rows, lag0_rows = P[t][kept], lag0[t][kept]
        histories = zip(
            zip(*(value_array[axis].tolist() for axis in kept)),  # the outcome values
            reach_t[kept].tolist(),
            rows.tolist(),
            lag0_rows.tolist(),
            (rows * lag0_rows).sum(axis=-1).tolist(),
            expected[t][kept].tolist(),
        )
        checks = []
        skipped = 0
        for outcomes, weight, row, lag0_row, denom, f_row in histories:
            if denom == 0.0:
                skipped += 1
                continue
            partition = _partition(values, row, [p / denom for p in lag0_row])
            ratios, up, down = partition.ratios, partition.upweighted, partition.downweighted
            expectations = {y: f_row[column[y]] for y in ratios}
            non_neutral = up | down
            margin = 0.0
            cond_i = True
            if down:
                pivot = min(expectations[y] for y in down)
                margin = max(abs(expectations[y] - pivot) for y in non_neutral)
                if up:
                    cond_i = pivot >= max(expectations[y] for y in up) - _NEUTRAL_TOL
            # Added one at a time in set order from int 0, as sum() does up to
            # Python 3.11 (3.12's sum() compensates).
            mass = 0
            for y in non_neutral:
                mass += row[column[y]] * abs(1.0 - ratios[y])
            checks.append(
                HistoryCheck(
                    outcomes=outcomes,
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
    report = OpportunisticReport(
        target=tuple(int(a) for a in target),
        per_time=tuple(per_time),
        opportunistic_everywhere=everywhere,
        has_nonconstant=has_nonconstant,
        witness_margin=max((tc.witness_margin for tc in per_time), default=0.0),
    )
    # Conditioning the joint law on the target: reach[T] holds each outcome
    # path's probability as the product ((1 * p_a1) * p_y1) * p_a2 * ...
    # cumsum adds them one at a time in C order, the depth-first order of the
    # paths, never pairwise as numpy's sum does; the final + 0.0 turns an
    # all -0.0 total into the 0.0 that a sum started at 0.0 gives.
    final = reach[-1][dgp.initial_outcome_index]
    mass = float(np.cumsum(final)[-1]) + 0.0
    weighted = float(np.cumsum(final * value_array)[-1]) + 0.0
    g_formula = float(expected[0][dgp.initial_outcome_index])
    return dgp._reports.setdefault(path, _Exact(report, g_formula, mass, weighted))


def g_formula_exact(dgp: FiniteDgp, target: Sequence[int]) -> float:
    """Mean final outcome when the treatment path is forced to `target`.

    The backward pass with payoff y_T and no rule factors: the rule kernels
    play no part, which is exactly what distinguishes this from the
    associational quantity below.
    """
    return _exact(dgp, target).g_formula


def associational_exact(dgp: FiniteDgp, target: Sequence[int]) -> float:
    """Mean final outcome among paths whose realized treatments equal `target`."""
    exact = _exact(dgp, target)
    if exact.mass == 0.0:
        raise UndefinedConditionalError(
            f"treatment path {exact.report.target} has probability zero under the rule"
        )
    return exact.weighted / exact.mass


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
    opportunistic at every ratio-nonconstant time, at least one such time
    exists, and the report's witness margin is positive (beyond
    `_NEUTRAL_TOL`).  At a zero margin every non-neutral outcome has the
    same f_{T,t}, so nothing separates the outcomes and the bias is zero."""

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
    hypothesis = (
        report.opportunistic_everywhere
        and report.has_nonconstant
        and report.witness_margin > _NEUTRAL_TOL
    )
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
    conditions the forward pass's joint law) validates the ratio
    decomposition.
    """
    P, R = _pinned(dgp, _path(dgp, target))
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
    """Max |associational_via_ratios - associational_exact| over the targets
    the rule can follow."""
    worst = 0.0
    for target in itertools.product(dgp.treatment_values, repeat=dgp.horizon):
        try:
            direct = associational_exact(dgp, target)
        except UndefinedConditionalError:
            continue
        worst = max(worst, abs(direct - associational_via_ratios(dgp, target)))
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
    return FiniteDgp.from_functions(
        T, values, (0, 1), 0,
        lambda t, a, y: _random_row(rng, n_y), lambda t, a, y: _random_row(rng, 2),
    )


def _monotone_outcome_tables(rng: np.random.Generator, horizon: int, n_y: int) -> dict:
    """Capped-increment outcome kernels y_t = min(y_{t-1} + step, top), with one
    Dirichlet step distribution per (t, a_1..a_t) in C order.  It never depends on
    y_{t-1}, so the process is monotone (steps are nonnegative) and stochastically
    monotone (higher y now cannot lower the distribution of y later)."""
    steps = rng.dirichlet(np.ones(3), size=2 ** (horizon + 1) - 2)
    prev = np.arange(n_y)
    kernels = np.zeros((len(steps), n_y, n_y))  # [(t, a_1..a_t), y_{t-1}, y_t]
    for step in range(3):  # capped steps add up in this order
        kernels[:, prev, np.minimum(prev + step, n_y - 1)] += steps[:, step, None]
    tables = {}
    for t in range(1, horizon + 1):
        # Table t repeats its kernels over y_0..y_{t-2}, which sit between the
        # treatment axes and y_{t-1}.
        table = np.empty((2**t, n_y ** (t - 1), n_y, n_y))
        table[...] = kernels[2**t - 2 : 2 ** (t + 1) - 2, None]
        tables[t] = table.reshape((2,) * t + (n_y,) * (t + 1))
    return tables


def _rule_tables(continues: np.ndarray) -> dict:
    """Rule table t with rows (c, 1 - c), c = continues[t, y_t] for every a_1..a_t
    and y_0..y_{t-1}."""
    horizon, n_y = continues.shape
    rows = np.empty((horizon, n_y, 2))
    rows[..., 0] = continues
    np.subtract(1.0, continues, out=rows[..., 1])
    tables = {}
    for t in range(horizon):
        table = np.empty(((2 * n_y) ** t, n_y, 2))
        table[...] = rows[t]
        tables[t] = table.reshape((2,) * t + (n_y,) * (t + 1) + (2,))
    return tables


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
        values = tuple(np.cumsum(rng.uniform(0.2, 1.0, n_y)).tolist())
        rules = _rule_tables(np.sort(rng.uniform(0.05, 0.95, (T, n_y)))[:, ::-1])
        outcomes = _monotone_outcome_tables(rng, T, n_y)
        dgp = FiniteDgp.from_functions(T, values, (0, 1), 0, outcomes, rules)
        target = (0,) * T
        report = check_opportunistic(dgp, target)
        if report.has_nonconstant and report.opportunistic_everywhere:
            if report.witness_margin >= _MIN_MARGIN:
                return dgp, target
    raise RuntimeError(f"no opportunistic instance found in {_MAX_TRIES} tries")

