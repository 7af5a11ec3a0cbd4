"""Scalar and formula references that pin the package's vectorised code.

Most functions here are the plain, unoptimised form of something the
package computes over arrays: the tests require the two to agree bit for
bit.  Two have no package twin: `random_monotone_threshold_dgp`, the
threshold-rule instance generator of the theorem tests, and
`enumerate_paths`, the joint law as a list of paths, which
`associational_exact` conditions.
"""

import math
from typing import NamedTuple

import numpy as np

from epibias.errors import UndefinedConditionalError
from epibias.finite import (
    _MAX_TRIES,
    _MIN_MARGIN,
    FiniteDgp,
    check_opportunistic,
)
from epibias.streams import _2_POW_MINUS_53, _GOLDEN, _MASK64, mix64


def _to_unit(z: int) -> float:
    # Top 53 bits, centered on half-steps; the top value rounds to 1.0, which
    # is taken to the largest float below 1, so the output lies inside (0, 1).
    return min(((z >> 11) + 0.5) * _2_POW_MINUS_53, math.nextafter(1.0, 0.0))


def stream_key(master_seed: int, replicate_index: int) -> int:
    """64-bit key of the stream for one replicate (`streams.stream_keys`)."""
    if replicate_index < 0:
        raise ValueError(f"replicate_index must be >= 0, got {replicate_index}")
    return mix64((master_seed + (replicate_index + 1) * _GOLDEN) & _MASK64)


def counter_uniform(key: int, counter: int) -> float:
    """The `counter`-th uniform of the stream with the given key
    (`streams.counter_uniform_array`)."""
    return _to_unit(mix64((key + (counter + 1) * _GOLDEN) & _MASK64))


def truncated_normal_formula(mean, variance, lower, upper, u):
    """`noise.truncated_normal_transform` as the direct formula, one
    temporary per operation, with every upper CDF computed."""
    from scipy.special import ndtr, ndtri

    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        sd = np.sqrt(variance)
        cdf_lo = ndtr((lower - mean) / sd)
        cdf_hi = ndtr((upper - mean) / sd)
        x = mean + sd * ndtri(cdf_lo + u * (cdf_hi - cdf_lo))
    degenerate = np.broadcast_to(variance == 0.0, x.shape)
    x = np.where(degenerate, np.clip(mean, lower, upper), x)
    return np.clip(x, lower, upper)


def _monotone_outcome_fn(rng, horizon: int, n_y: int):
    """Capped-increment outcome rows, drawn lazily per (t, a_1..a_t)
    (`finite._monotone_outcome_tables`)."""
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


def random_opportunistic_dgp(rng):
    """`finite.random_opportunistic_dgp` built row by row from row functions."""
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


def random_monotone_threshold_dgp(rng):
    """A monotone outcome process governed by a deterministic threshold rule,
    built row by row from row functions.

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


class PathWeight(NamedTuple):
    """One complete realization: treatment values, outcome values (y_0
    first), and its exact joint probability under the rule."""

    treatments: tuple[int, ...]
    outcomes: tuple[float, ...]
    probability: float


def enumerate_paths(dgp):
    """All positive-probability (treatment path, outcome path) pairs, depth
    first as indices increase, by a recursive walk that reads one row at a
    time from the kernel tables.

    Branches whose rule or outcome probability is exactly zero are dropped,
    so the result is the support of the joint law.
    """
    paths = []

    def walk(t, a_idx, y_idx, prob):
        if t == dgp.horizon:
            paths.append(PathWeight(
                tuple(dgp.treatment_values[i] for i in a_idx),
                tuple(dgp.outcome_values[i] for i in y_idx),
                prob,
            ))
            return
        for a, p_a in enumerate(dgp.rule_kernels[t][a_idx + y_idx].tolist()):
            if p_a == 0.0:
                continue
            for y, p_y in enumerate(dgp.outcome_kernels[t + 1][a_idx + (a,) + y_idx].tolist()):
                if p_y == 0.0:
                    continue
                walk(t + 1, a_idx + (a,), y_idx + (y,), prob * p_a * p_y)

    walk(0, (), (dgp.initial_outcome_index,), 1.0)
    return tuple(paths)


def associational_exact(dgp, target):
    """`finite.associational_exact` by conditioning the enumerated joint law,
    adding the paths on the target one at a time in enumeration order."""
    want = tuple(int(a) for a in target)
    mass = weighted = 0.0
    for path in enumerate_paths(dgp):
        if path.treatments == want:
            mass += path.probability
            weighted += path.probability * path.outcomes[-1]
    if mass == 0.0:
        raise UndefinedConditionalError(
            f"treatment path {want} has probability zero under the rule"
        )
    return weighted / mass
