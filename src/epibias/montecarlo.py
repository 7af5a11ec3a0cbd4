"""Monte Carlo estimation of causal and associational epidemic outcomes.

Two quantities are estimated for a static treatment path:

* the causal estimand E[Y_t under do(path)]: forward simulation with the
  treatments forced, averaging over all replicates; and
* the associational quantity E[Y_t | treatments happened to equal the path]
  by forward simulation under an endogenous rule, retaining only replicates
  whose realized treatment sequence matches the path (rejection
  conditioning).  Rejection is exact here because the rules of interest are
  deterministic given outcomes, so importance weights would be 0/1 anyway.

Their difference is the time-varying confounding bias.

From the day its decision leaves the target path, a replicate contributes
nothing in either conditioning mode, so the day loop retires it there: it
keeps its diverging decision, its compartments freeze, its later outcome
columns stay 0, and it draws no more noise.  Every statistic is bit-identical
to simulating all replicates for all T days.

Determinism: replicates are processed in fixed-size chunks; each replicate's
randomness comes from a counter-based stream keyed by (seed, replicate
index); chunk partial sums use numpy's pairwise reduction over arrays whose
content depends only on the chunk; and chunks are folded in ascending index
order after all workers finish.  Results are therefore bit-identical for any
thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyConditioningError
from .policies import ForcedSequenceRule, PolicyRule
from .sir import SirParams, sir_step_arrays
from .streams import counter_uniform_array, derive_substream_seed, stream_keys

CHUNK_SIZE = 8192

CONDITIONING_MODES = ("full-path", "per-time")


@dataclass
class EstimateResult:
    """A Monte Carlo estimate with its sampling metadata.

    mean / std_error describe Y_T over retained replicates; per_time_means
    holds the retained-sample mean of Y_t for t = 1..T.  samples (kept only
    on request) are the retained Y_T values in replicate order.
    """

    mean: float
    std_error: float
    replicates_total: int
    replicates_retained: int
    per_time_means: tuple[float, ...]
    samples: np.ndarray | None = None


@dataclass
class BiasReport:
    """Causal and associational estimates for one target path, and their gap."""

    threshold: float | None
    causal: EstimateResult
    associational: EstimateResult
    bias: float
    bias_evolution: tuple[float, ...]  # associational minus causal per-time means, t = 1..T


def simulate(
    params: SirParams, rule: PolicyRule, keys: np.ndarray, target: np.ndarray | None = None
):
    """Run one replicate per stream key forward under `rule`, day by day.

    Yields (treatments, outcomes, s, i, r) after each day t = 1..T:
    treatments is (n, T) with columns filled through t-1, outcomes is
    (n, T+1) with columns filled through t (column 0 holds y_0), and s, i, r
    are the compartments at t.  The treatment and outcome arrays are the same
    objects on every day, filled in place.

    Each day draws, in stream order, one policy uniform when the rule is
    random, then the infection and recovery noise uniforms.

    With a `target` path (length T), a lane whose decision a_t differs from
    target[t-1] is retired on day t: the rule still sees every lane, so the
    lane's treatments keep its diverging decision, but from day t on it draws
    no noise uniforms and takes no SIR step.  Its s, i, r stay frozen at
    their day t-1 values and its outcome columns t..T stay 0.  Live lanes are
    stepped on the gathered subset; draws are keyed per (replicate, counter)
    and the step is elementwise, so they get the same bits as a full-width
    run.  Without a target every lane is live and stepped full width.
    """
    n = keys.size
    T = params.horizon
    pop = params.population
    s = np.full(n, pop - params.initial_infected)
    i = np.full(n, params.initial_infected)
    r = np.zeros(n)

    treatments = np.zeros((n, T), dtype=np.int8)
    # Zeros, not empty: retired lanes' outcome columns are read (times 0) by
    # per-time conditioning, and an uninitialised NaN would poison the sums.
    outcomes = np.zeros((n, T + 1))
    outcomes[:, 0] = params.initial_outcome

    everyone = slice(None)
    live = everyone  # the lanes still on the target path
    counter = 0
    for t in range(1, T + 1):
        if rule.uses_randomness:
            u_policy = counter_uniform_array(keys, counter)
            counter += 1
        else:
            u_policy = None
        a = rule.decide_batch(treatments[:, : t - 1], outcomes[:, :t], u_policy)
        treatments[:, t - 1] = a
        if target is not None:
            stays = a[live] == target[t - 1]
            if not stays.all():
                live = np.arange(n)[live][stays]
        u1 = counter_uniform_array(keys[live], counter)
        u2 = counter_uniform_array(keys[live], counter + 1)
        counter += 2
        # One step call per day even with no live lane left: perfbench's
        # tracer counts the calls on a thread to find each chunk's last day.
        stepped = sir_step_arrays(s[live], i[live], r[live], params, a[live], u1, u2)
        if live is everyone:
            s, i, r = stepped
        else:
            # New arrays each day, so a caller may keep an earlier day's s, i, r.
            s, i, r = s.copy(), i.copy(), r.copy()
            s[live], i[live], r[live] = stepped
        outcomes[live, t] = 1.0 - stepped[0] / pop
        yield treatments, outcomes, s, i, r


def _chunk_stats(
    params: SirParams,
    rule: PolicyRule,
    target: np.ndarray | None,
    master_seed: int,
    lo: int,
    hi: int,
    per_time_conditioning: bool,
    keep_samples: bool,
):
    """Simulate replicates [lo, hi) and reduce them to partial sums.

    With a target, `simulate` retires each replicate at its first divergence;
    the reductions below read only what a retired replicate keeps.
    Everything returned is a pure function of the arguments, independent of
    which worker thread runs the chunk.
    """
    n = hi - lo
    T = params.horizon
    keys = stream_keys(master_seed, np.arange(lo, hi, dtype=np.uint64))
    for treatments, outcomes, *_ in simulate(params, rule, keys, target):
        pass

    if target is None:
        retained_mask = np.ones(n, dtype=bool)
        divergence_hist = np.zeros(T + 1, dtype=np.int64)
        per_t_sums = outcomes[:, 1:].sum(axis=0)
        per_t_counts = np.full(T, n, dtype=np.int64)
    else:
        matches = treatments == target
        if per_time_conditioning:
            prefix_ok = np.minimum.accumulate(matches, axis=1)
            per_t_sums = (outcomes[:, 1:] * prefix_ok).sum(axis=0)
            per_t_counts = prefix_ok.sum(axis=0).astype(np.int64)
            retained_mask = prefix_ok[:, -1]
        else:
            retained_mask = matches.all(axis=1)
            per_t_sums = outcomes[retained_mask, 1:].sum(axis=0)
            per_t_counts = np.full(T, int(retained_mask.sum()), dtype=np.int64)
        full_match = matches.all(axis=1)
        first_div = np.where(full_match, 0, matches.argmin(axis=1) + 1)
        divergence_hist = np.bincount(first_div[~full_match], minlength=T + 1)

    y_final = outcomes[retained_mask, T]
    return {
        "retained": int(retained_mask.sum()),
        "per_t_sums": per_t_sums,
        "per_t_counts": per_t_counts,
        "final_sum": float(y_final.sum()),
        "final_sumsq": float((y_final * y_final).sum()),
        "divergence_hist": divergence_hist,
        "samples": y_final.copy() if keep_samples else None,
    }


def _run_engine(
    params: SirParams,
    rule: PolicyRule,
    target: Sequence[int] | None,
    replicates: int,
    master_seed: int,
    threads: int,
    conditioning: str,
    keep_samples: bool,
) -> EstimateResult:
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if conditioning not in CONDITIONING_MODES:
        raise ValueError(f"conditioning must be one of {CONDITIONING_MODES}, got {conditioning!r}")
    target_arr = None
    if target is not None:
        target_arr = np.asarray(list(target), dtype=np.int8)
        if target_arr.shape != (params.horizon,):
            raise ValueError(
                f"target path length {target_arr.size} does not match horizon {params.horizon}"
            )

    bounds = [(lo, min(lo + CHUNK_SIZE, replicates)) for lo in range(0, replicates, CHUNK_SIZE)]
    per_time = conditioning == "per-time"

    def work(span):
        lo, hi = span
        return _chunk_stats(params, rule, target_arr, master_seed, lo, hi, per_time, keep_samples)

    workers = min(threads, len(bounds), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(pool.map(work, bounds))
    else:
        chunk_results = [work(span) for span in bounds]

    # Deterministic fold in ascending chunk order.
    T = params.horizon
    per_t_sums = np.zeros(T)
    per_t_counts = np.zeros(T, dtype=np.int64)
    divergence = np.zeros(T + 1, dtype=np.int64)
    final_sum = 0.0
    final_sumsq = 0.0
    retained = 0
    sample_parts: list[np.ndarray] = []
    for res in chunk_results:
        per_t_sums += res["per_t_sums"]
        per_t_counts += res["per_t_counts"]
        divergence += res["divergence_hist"]
        final_sum += res["final_sum"]
        final_sumsq += res["final_sumsq"]
        retained += res["retained"]
        if keep_samples:
            sample_parts.append(res["samples"])

    if retained == 0:
        hist = {int(t): int(c) for t, c in enumerate(divergence) if c > 0}
        raise EmptyConditioningError(replicates, hist)

    mean = final_sum / retained
    if retained > 1:
        var = max(final_sumsq - retained * mean * mean, 0.0) / (retained - 1)
        std_error = float(np.sqrt(var / retained))
    else:
        std_error = 0.0

    with np.errstate(invalid="ignore"):
        per_time_means = np.where(per_t_counts > 0, per_t_sums / per_t_counts, np.nan)

    return EstimateResult(
        mean=mean,
        std_error=std_error,
        replicates_total=replicates,
        replicates_retained=retained,
        per_time_means=tuple(float(m) for m in per_time_means),
        samples=np.concatenate(sample_parts) if keep_samples else None,
    )


def estimate_causal(
    params: SirParams,
    sequence: Sequence[int],
    replicates: int,
    master_seed: int,
    threads: int = 1,
    keep_samples: bool = False,
) -> EstimateResult:
    """E[Y_t] under do(sequence): simulate with treatments forced, keep everything."""
    if len(sequence) != params.horizon:
        raise ValueError(
            f"sequence length {len(sequence)} does not match horizon {params.horizon}"
        )
    rule = ForcedSequenceRule(sequence)
    return _run_engine(
        params, rule, None, replicates, master_seed, threads, "full-path", keep_samples
    )


def estimate_associational(
    params: SirParams,
    rule: PolicyRule,
    target: Sequence[int],
    replicates: int,
    master_seed: int,
    threads: int = 1,
    conditioning: str = "full-path",
    keep_samples: bool = False,
) -> EstimateResult:
    """E[Y_t | realized treatments == target] under the endogenous rule.

    conditioning="full-path" retains a trajectory for all t only if its whole
    treatment path matches the target (the default).  "per-time" computes the
    intermediate Y_t means over trajectories matching the target only up to
    t, a looser conditioning set some analyses prefer for mid-course curves;
    final-time quantities are identical in both modes.

    Raises EmptyConditioningError when nothing matches.
    """
    return _run_engine(
        params, rule, target, replicates, master_seed, threads, conditioning, keep_samples
    )


def compute_bias_report(
    params: SirParams,
    rule: PolicyRule,
    target: Sequence[int],
    replicates: int,
    master_seed: int,
    threads: int = 1,
    conditioning: str = "full-path",
    keep_samples: bool = False,
) -> BiasReport:
    """Run both estimators on independent sub-seeds and compare them.

    The causal arm uses sub-seed 0, the associational arm sub-seed 1, so the
    two Monte Carlo experiments share no randomness.
    """
    causal = estimate_causal(
        params,
        [0] * params.horizon if target is None else target,
        replicates,
        derive_substream_seed(master_seed, 0),
        threads,
        keep_samples,
    )
    associational = estimate_associational(
        params,
        rule,
        target,
        replicates,
        derive_substream_seed(master_seed, 1),
        threads,
        conditioning,
        keep_samples,
    )
    threshold = getattr(rule, "threshold", None)
    return BiasReport(
        threshold=threshold,
        causal=causal,
        associational=associational,
        bias=associational.mean - causal.mean,
        bias_evolution=tuple(
            a - c for a, c in zip(associational.per_time_means, causal.per_time_means)
        ),
    )
