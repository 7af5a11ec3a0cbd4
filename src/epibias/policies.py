"""Dynamic treatment-assignment rules.

A rule maps the observed history (all past treatments plus all outcomes seen
so far, including the one just realized) to the next treatment, for a batch
of replicates that share a time index.  Rules are immutable and stateless
between calls; decisions depend only on the supplied history and, for random
rules, the supplied uniforms.  Nothing here can peek at future or
counterfactual outcomes, so sequential ignorability holds by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import SequenceExhaustedError


class PolicyRule:
    """Base class for decision rules.

    `uses_randomness` tells the simulation engine whether to budget one
    uniform per decision.
    """

    name: str = "policy"
    uses_randomness: bool = False

    def decide_batch(
        self, treatments: np.ndarray, outcomes: np.ndarray, u: np.ndarray | None
    ) -> np.ndarray:
        """Vectorized decision for replicates sharing a time index.

        treatments: (n, t) realized treatments so far; outcomes: (n, t+1)
        outcomes including y_0; u: per-replicate uniform when the rule is
        random, else None.
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
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be inside (0, 1), got {threshold!r}")
        self.threshold = threshold
        self.name = f"threshold({threshold:g})"

    def decide_batch(self, treatments, outcomes, u=None) -> np.ndarray:
        started = (treatments != 0).any(axis=1)
        return (started | (outcomes[:, -1] > self.threshold)).astype(np.int8)


class ForcedSequenceRule(PolicyRule):
    """Next treatment from a fixed 0/1 sequence, ignoring outcomes entirely.

    This is the do-operation used for causal-estimand simulation.
    """

    uses_randomness = False

    def __init__(self, sequence: Sequence[int]):
        sequence = tuple(sequence)
        if any(a not in (0, 1) for a in sequence):
            raise ValueError(f"forced treatments must be 0 or 1, got {sequence!r}")
        self.sequence = tuple(int(a) for a in sequence)
        self.name = "forced"

    def decide_batch(self, treatments, outcomes, u=None) -> np.ndarray:
        t = treatments.shape[1]
        if t >= len(self.sequence):
            raise SequenceExhaustedError(
                f"decision index {t} is past the end of a forced sequence "
                f"of length {len(self.sequence)}"
            )
        return np.full(outcomes.shape[0], self.sequence[t], dtype=np.int8)


class ExogenousRule(PolicyRule):
    """Treat with probability p, independent of the history.

    Under this rule observing an outcome never reweights future treatment
    probabilities, so associational and causal quantities coincide.  Used as
    the bias-free null control.
    """

    uses_randomness = True

    def __init__(self, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p!r}")
        self.p = float(p)
        self.name = f"exogenous({p:g})"

    def decide_batch(self, treatments, outcomes, u) -> np.ndarray:
        return (u < self.p).astype(np.int8)
