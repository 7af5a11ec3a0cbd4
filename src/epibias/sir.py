"""Stochastic discrete-time SIR transition kernel.

One day's update moves drift quantities between compartments and adds
truncated-normal perturbations:

    newInf = exp(lam * a) * beta * S * I / N        (new infections drift)
    newRec = gamma * I                              (new recoveries drift)
    S' = S - newInf - eps1
    I' = I + newInf - newRec + eps1 - eps2
    R' = R + newRec + eps2

eps1 ~ N(0, overdispersion * newInf) truncated to [-newInf, S - newInf], so
total new infections (newInf + eps1) land in [0, S].  eps2 ~ N(0,
overdispersion * newRec) truncated to [-newRec, I + newInf + eps1 - newRec],
so total recoveries land in [0, infected pool after today's infections].
The second upper bound is slightly tighter than the "compartments stay below
N" requirement alone would demand; the looser bound N - R - newRec admits
recovery flows that exceed the infected pool and drive I below zero, which
would poison the next step's variance.  Bounding recoveries by the infected
pool is the minimal restriction that keeps every compartment nonnegative by
construction (and it implies R' <= N).

The truncated noise has a positive mean.  Cut below at -drift and, in
practice, nowhere above, N(0, overdispersion * drift) has mean
sd * phi(c) / (1 - Phi(c)) > 0 with sd = sqrt(overdispersion * drift) and
c = -drift / sd, so the mean flow exceeds its drift.  At the defaults, day-1
new infections average about 158 against a drift of 57, and an infected pool
of 0.3 persons draws about 5.25 expected new infections a day against a drift
of 0.086.  A sub-person infected pool can therefore regrow: runs that stay
below a trigger threshold are mostly late epidemics, not stalled ones.

Treatment timing: a_t acts on the transition that produces the state at t,
i.e. the step from t-1 to t applies exp(lam * a_t).

Compartments are real-valued: the noise is continuous, so no rounding is
applied anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import SimulationOverflowError, checked_integer, checked_real
from .noise import truncated_normal_transform

# Replicates per Monte Carlo chunk (`montecarlo` re-exports it).  Part of the
# byte contract: chunk partial sums are folded in order, so another size
# changes output bytes.
CHUNK_SIZE = 8192

# Ceiling, in bytes, on the working set of one block of the engine's day
# loop: (T+1) float64 outcomes plus LANE_BYTES of per-lane vectors (stream
# keys, compartments, uniforms, last decision, divergence day and the step's
# temporaries) per lane.  A one-chunk block must fit, which bounds the
# horizon; a worker steps a two-chunk block only where two chunks fit.  It
# is not a setting.
CHUNK_BYTES_BUDGET = 512 * 2**20
LANE_BYTES = 128
MAX_HORIZON = (CHUNK_BYTES_BUDGET // CHUNK_SIZE - LANE_BYTES) // 8 - 1


@dataclass(frozen=True)
class SirParams:
    """Parameters of the epidemic process.

    population: closed population size N.
    initial_infected: I at t=0 (S starts at N - I0, R at 0).
    beta: daily contact rate.
    gamma: daily recovery rate.
    lam: log-scale intervention strength; treatment a multiplies the contact
        rate by exp(lam * a), so lam < 0 attenuates transmission.
    overdispersion: variance of each noise term per unit of drift.
    horizon: number of simulated days T, at most MAX_HORIZON.

    The day-1 drifts, treated and untreated, and their noise variances must
    be finite.
    """

    population: float = 1_000_000.0
    initial_infected: float = 200.0
    beta: float = 2.0 / 7.0
    gamma: float = 1.0 / 7.0
    lam: float = -0.2
    overdispersion: float = 500.0
    horizon: int = 100

    def __post_init__(self):
        for f in fields(self)[:-1]:  # every field but the horizon
            checked_real(f.name, getattr(self, f.name))
        checked_integer("horizon", self.horizon, 1)
        if not self.population > 0:
            raise ValueError(f"population must be > 0, got {self.population!r}")
        if not 0 < self.initial_infected < self.population:
            raise ValueError(
                f"initial_infected must be in (0, population), got {self.initial_infected!r}"
            )
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta!r}")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma!r}")
        if self.overdispersion < 0:
            raise ValueError(f"overdispersion must be >= 0, got {self.overdispersion!r}")
        if self.horizon > MAX_HORIZON:
            raise ValueError(
                f"horizon must be <= {MAX_HORIZON}, got {self.horizon!r}: a "
                f"{CHUNK_SIZE}-replicate chunk must fit in {CHUNK_BYTES_BUDGET >> 20} MiB"
            )
        s0, i0 = self.population - self.initial_infected, self.initial_infected
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.exp(self.lam * np.array([0.0, 1.0]))
            drifts = np.append(scale * self.beta * s0 * i0 / self.population, self.gamma * i0)
            day_one = np.append(drifts, self.overdispersion * drifts)
        if not np.isfinite(day_one).all():
            raise ValueError(
                f"day-1 drifts and noise variances must be finite, got {day_one.tolist()}"
            )

    @property
    def initial_outcome(self) -> float:
        """y_0 = 1 - S_0/N, the infected share before any step runs."""
        return self.initial_infected / self.population


def sir_step_arrays(s, i, r, params: SirParams, a, u1, u2):
    """Vectorized one-day update over arrays of independent replicates.

    `u1`, `u2` are the step's pre-drawn uniforms for the infection and
    recovery noise respectively.  Returns the new (s, i, r) arrays.

    Raises SimulationOverflowError when any of the arithmetic overflows
    float64 instead of carrying inf and nan into later days.
    """
    try:
        with np.errstate(over="raise"):
            # The arithmetic of the module docstring, in its order, with
            # each result built in place in as few buffers as it allows.
            new_inf = np.exp(params.lam * np.asarray(a, dtype=np.float64)) * params.beta * s
            new_inf *= i
            new_inf /= params.population
            new_rec = params.gamma * i

            s_next = s - new_inf  # eps1's upper bound, then S'
            eps1 = truncated_normal_transform(
                0.0, params.overdispersion * new_inf, -new_inf, s_next, u1
            )
            i_next = i + new_inf  # the infected pool, then eps2's upper bound, then I'
            i_next += eps1
            i_next -= new_rec
            eps2 = truncated_normal_transform(
                0.0, params.overdispersion * new_rec, -new_rec, i_next, u2
            )

            # No clamp: each eps is at most the array it leaves, and x - y >= +0 if y <= x.
            s_next -= eps1
            i_next -= eps2
            r_next = r + new_rec
            r_next += eps2
    except FloatingPointError as exc:
        raise SimulationOverflowError(
            f"the SIR step overflowed float64 ({exc}): an epidemic in a population "
            f"of {params.population:g} outgrows float64 within {params.horizon} days"
        ) from exc
    return s_next, i_next, r_next

