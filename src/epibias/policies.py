"""Dynamic treatment-assignment rules.

A rule maps a replicate's previous decision a_{t-1} and latest outcome
y_{t-1} to a_t, for a batch of replicates sharing day t.  The threshold rule
is absorbing, so on its own histories "already started" is a_{t-1} != 0.
Rules are immutable and stateless between calls; decisions depend only on
that state and, for random rules, the supplied uniforms.  Nothing here can
peek at future or counterfactual outcomes, so sequential ignorability holds
by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import SequenceExhaustedError, checked_path, checked_real


class PolicyRule:
    """Base class for decision rules.

    Each rule sets a `name` and `uses_randomness`, which tells the
    simulation engine whether to budget one uniform per decision.
    """

    def decide_batch(
        self, t: int, last: np.ndarray, y: np.ndarray, u: np.ndarray | None
    ) -> np.ndarray:
        """Vectorized day-t decision (t = 1..T) for replicates sharing the day.

        last: (n,) int8 previous decisions a_{t-1}, 0 on day 1; y: (n,) latest
        outcomes y_{t-1}; u: per-replicate uniform when the rule is random,
        else None.  Returns a_t as (n,) int8.
        """
        raise NotImplementedError


class ThresholdRule(PolicyRule):
    """Self-triggering rule: intervene from the first time the outcome crosses
    the threshold.

    Treats when an intervention has already started (the intervention is
    absorbing) or the latest outcome strictly exceeds the threshold (ties do
    not trigger).  Deterministic; consumes no randomness.
    """

    uses_randomness = False

    def __init__(self, threshold: float):
        self.threshold = checked_real("threshold", threshold)
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be inside (0, 1), got {threshold!r}")
        self.name = f"threshold({self.threshold:g})"

    def decide_batch(self, t, last, y, u=None) -> np.ndarray:
        return ((last != 0) | (y > self.threshold)).astype(np.int8)

    def divergence_days(self, outcomes: np.ndarray) -> np.ndarray:
        """Each lane's first day t with y_{t-1} > threshold, 0 if none: the
        day it leaves the all-zero target, read off all days at once from
        (n, T+1) outcomes with y_{t-1} in column t-1."""
        # Compared in full rows, which is faster than over the strided
        # columns 0..T-1; a first crossing in column T is no crossing.
        crossed = outcomes > self.threshold
        first = crossed.argmax(axis=1)
        crosses = (first < outcomes.shape[1] - 1) & crossed[np.arange(first.size), first]
        return np.where(crosses, first + 1, 0)


class ForcedSequenceRule(PolicyRule):
    """Next treatment from a fixed 0/1 sequence, ignoring outcomes entirely.

    This is the do-operation used for causal-estimand simulation.
    """

    uses_randomness = False

    def __init__(self, sequence: Sequence[int]):
        self.sequence = checked_path("forced sequence", sequence)
        self.name = "forced"

    def decide_batch(self, t, last, y, u=None) -> np.ndarray:
        if t > len(self.sequence):
            raise SequenceExhaustedError(
                f"day {t} is past the end of a forced sequence "
                f"of length {len(self.sequence)}"
            )
        return np.full(last.shape, self.sequence[t - 1], dtype=np.int8)


class ExogenousRule(PolicyRule):
    """Treat with probability p, independent of the history.

    Under this rule observing an outcome never reweights future treatment
    probabilities, so associational and causal quantities coincide.  Used as
    the bias-free null control.
    """

    uses_randomness = True

    def __init__(self, p: float):
        self.p = checked_real("p", p)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p!r}")
        self.name = f"exogenous({self.p:g})"

    def decide_batch(self, t, last, y, u) -> np.ndarray:
        return (u < self.p).astype(np.int8)
