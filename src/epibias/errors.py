"""Exception types shared across the package."""

from __future__ import annotations


class SequenceExhaustedError(IndexError):
    """Raised when a forced treatment sequence is indexed past its horizon."""


class EmptyConditioningError(RuntimeError):
    """No simulated trajectory matched the conditioning treatment path.

    Carries retention diagnostics: how many replicates were simulated and a
    histogram, indexed by time step, of where each rejected trajectory first
    diverged from the target path.
    """

    def __init__(self, replicates_total: int, first_divergence: dict[int, int]):
        self.replicates_total = replicates_total
        self.first_divergence = dict(first_divergence)
        top = sorted(self.first_divergence.items(), key=lambda kv: -kv[1])[:3]
        detail = ", ".join(f"t={t}: {c}" for t, c in top)
        super().__init__(
            f"0 of {replicates_total} replicates matched the target treatment "
            f"path (most common first divergence: {detail})"
        )


class KernelValidationError(ValueError):
    """A tabular kernel row fails to be a probability distribution."""


class UndefinedConditionalError(ValueError):
    """Conditioning event has probability zero, so the conditional is undefined."""


class InstanceTooLargeError(ValueError):
    """Exact enumeration refused: the path space exceeds the configured cap."""


class ConfigError(ValueError):
    """Experiment configuration failed to parse or validate."""


class SimulationOverflowError(ConfigError):
    """The SIR arithmetic overflowed float64 mid-run.

    SirParams bounds only the day-1 drifts, and beta * S * I grows with I,
    so a large enough population overflows once its epidemic grows.
    """
