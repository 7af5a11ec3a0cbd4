"""Counter-based deterministic random streams.

Every uniform variate in a simulation is a pure function of
(master seed, replicate index, draw counter).  That property is what makes
replicates reproducible *and* schedule-independent: a replicate's draws do
not depend on how many other replicates ran before it, on chunking, or on
the number of worker threads.

The construction is the splitmix64 output function applied to a per-replicate
key plus a counter stride.  splitmix64's finalizer is a well-studied 64-bit
bijection (Steele, Lea & Flood 2014); walking its input by the golden-ratio
increment gives full-period, well-equidistributed output.
"""

from __future__ import annotations

import numpy as np

from .errors import checked_integer

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, the splitmix64 increment
_SUBSEED = 0xD1B54A32D192ED03  # distinct stride for deriving sub-seeds

_U64_30 = np.uint64(30)
_U64_27 = np.uint64(27)
_U64_31 = np.uint64(31)
_U64_11 = np.uint64(11)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_2_POW_MINUS_53 = 2.0 ** -53
_BELOW_ONE = np.nextafter(1.0, 0.0)  # the largest float below 1


def mix64(x: int) -> int:
    """splitmix64 finalizer on a Python integer in [0, 2**64)."""
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer; `z` must be uint64.

    Works in place: `z` is overwritten with the result and returned.
    """
    z ^= z >> _U64_30
    z *= _MUL1
    z ^= z >> _U64_27
    z *= _MUL2
    z ^= z >> _U64_31
    return z


def _to_unit_array(z: np.ndarray) -> np.ndarray:
    # Top 53 bits, centered on half-steps, in [2**-54, 1 - 2**-53]: inverse-CDF
    # transforms never see 0 or 1 exactly.  Below 2**52 the half-step is
    # exact; above it z + 0.5 rounds to the even neighbour, and the top value,
    # 2**53 - 1, to 2**53, which the clamp takes to the largest float below 1
    # (no other z lands there).  Shifts `z` in place.
    z >>= _U64_11
    unit = np.add(z, 0.5)
    unit *= _2_POW_MINUS_53
    np.minimum(unit, _BELOW_ONE, out=unit)
    return unit


def stream_keys(master_seed: int, replicate_indices: np.ndarray) -> np.ndarray:
    """The 64-bit stream key of each replicate index, mix64 of
    master_seed + (index + 1) * golden (mod 2**64).  Pure function."""
    idx = np.asarray(replicate_indices, dtype=np.uint64)
    seed = np.uint64(master_seed & _MASK64)
    golden = np.uint64(_GOLDEN)
    return mix64_array(seed + (idx + np.uint64(1)) * golden)


def counter_uniform_array(keys: np.ndarray, counter: int) -> np.ndarray:
    """The `counter`-th uniform variate of each key's stream."""
    stride = np.uint64(((counter + 1) * _GOLDEN) & _MASK64)
    return _to_unit_array(mix64_array(keys + stride))


def derive_substream_seed(master_seed: int, label: int) -> int:
    """A 64-bit sub-seed for an independent purpose (e.g. a second estimator).

    Uses a stride constant different from the replicate-key stride so
    sub-seeds never collide with replicate keys of the parent seed.
    """
    seed = checked_integer("master_seed", master_seed, 0)
    label = checked_integer("label", label, 0)
    return mix64((seed + (label + 1) * _SUBSEED) & _MASK64)

