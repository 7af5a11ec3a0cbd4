"""Exception types shared across the package, and its only checks of a
public call's numbers and Monte Carlo paths, which raise `ValueError`, never
`TypeError`, so a bad value reads the same at every entry point."""

from __future__ import annotations

import math

import numpy as np

_INTEGER = (int, np.integer)  # concrete classes test faster than `numbers`' ABCs
_REAL = (float, np.floating, *_INTEGER)


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


def checked_real(name: str, value) -> float:
    """`value` as a float; ValueError unless it is a real number, not a
    bool, and finite."""
    if isinstance(value, bool) or not isinstance(value, _REAL):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        if math.isfinite(real := float(value)):
            return real
    except OverflowError:  # an int past float64's range
        pass
    raise ValueError(f"{name} must be finite, got {value!r}")


def checked_integer(name: str, value, low, high=2**64 - 1) -> int:
    """`value` as an int; ValueError unless it is an integer, not a bool, in
    [low, high].  A float is refused even when integral, and a NaN or an
    infinity as `checked_real` refuses it.  The default `high` is the widest
    seed: stream keys read a seed's low 64 bits, so a wider one would alias."""
    if isinstance(value, _INTEGER) and not isinstance(value, bool) and low <= value <= high:
        return int(value)
    if isinstance(value, _REAL) and not isinstance(value, _INTEGER):
        checked_real(name, value)
    raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def checked_path(name: str, path) -> tuple[int, ...]:
    """`path` as a tuple of int treatments, each 0 or 1 as `checked_integer`
    checks it; ValueError for anything else, None and a bare number too."""
    try:
        return tuple(checked_integer(name, a, 0, 1) for a in path)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be a sequence of treatments, each 0 or 1, got {path!r}"
        ) from None
