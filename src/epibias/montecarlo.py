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

The day loop carries per-replicate state, not histories.  From the day its
decision leaves the target path, a replicate contributes nothing in either
conditioning mode, so the day loop retires it there and records the day: its
compartments freeze, its later outcome columns stay 0, and it is not decided
or drawn for again.  Every statistic is read from those days and the
outcomes, bit-identical to simulating all replicates for all T days.

A family of deterministic rules shares one associational pass
(`associational_pass`): a rule still on the target has seen exactly the
target's treatments, so a pass under the rule that diverges last gives every
rule's divergence days and outcomes (the clone-censor argument for comparing
dynamic regimes).  A single rule is a one-rule family.

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
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyConditioningError
from .policies import ForcedSequenceRule, PolicyRule
from .sir import CHUNK_SIZE, SirParams, sir_step_arrays
from .streams import counter_uniform_array, derive_substream_seed, stream_keys

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

    Yields (last, diverged, outcomes, s, i, r) after each day t = 1..T:
    last holds each lane's latest decision, diverged its first-divergence day
    (0 while on the target), outcomes is (n, T+1) with columns filled through
    t (column 0 holds y_0), and s, i, r are the compartments at t.  last,
    diverged and outcomes are the same objects every day, filled in place.

    Each day the rule sees each live lane's a_{t-1} and y_{t-1}, and draws,
    in stream order, one policy uniform when the rule is random, then the
    infection and recovery noise uniforms.

    With a `target` path (length T), a lane whose a_t differs from
    target[t-1] is retired on day t: diverged records t, last keeps a_t, and
    from then on the lane is not decided, draws nothing and takes no SIR
    step, so its s, i, r freeze and its outcome columns t..T stay 0.  Live
    lanes are gathered; draws are keyed per (replicate, counter) and every
    operation is elementwise, so they get the same bits as a full-width run.
    Without a target every lane is live and stepped full width.
    """
    n = keys.size
    T = params.horizon
    pop = params.population
    s = np.full(n, pop - params.initial_infected)
    i = np.full(n, params.initial_infected)
    r = np.zeros(n)

    last = np.zeros(n, dtype=np.int8)
    diverged = np.zeros(n, dtype=np.int64)
    # Zeros, not empty: per-time conditioning sums every row's outcome
    # columns, retired ones included, and an uninitialised NaN would survive.
    outcomes = np.zeros((n, T + 1))
    outcomes[:, 0] = params.initial_outcome

    everyone = slice(None)
    live = everyone  # the lanes still on the target path
    counter = 0
    for t in range(1, T + 1):
        u_policy = None
        if rule.uses_randomness:
            u_policy = counter_uniform_array(keys[live], counter)
            counter += 1
        a = rule.decide_batch(t, last[live], outcomes[live, t - 1], u_policy)
        last[live] = a
        if target is not None:
            leaves = a != target[t - 1]
            if leaves.any():
                lanes = np.arange(n)[live]
                diverged[lanes[leaves]] = t
                live = lanes[~leaves]
                a = a[~leaves]
        u1 = counter_uniform_array(keys[live], counter)
        u2 = counter_uniform_array(keys[live], counter + 1)
        counter += 2
        # One step call per day even with no live lane left: perfbench's
        # tracer counts the calls on a thread to find each chunk's last day.
        stepped = sir_step_arrays(s[live], i[live], r[live], params, a, u1, u2)
        if live is everyone:
            s, i, r = stepped
        else:
            # New arrays each day, so a caller may keep an earlier day's s, i, r.
            s, i, r = s.copy(), i.copy(), r.copy()
            s[live], i[live], r[live] = stepped
        outcomes[live, t] = 1.0 - stepped[0] / pop
        yield last, diverged, outcomes, s, i, r


def _divergence_days(rule: PolicyRule, target: np.ndarray, outcomes: np.ndarray, pass_days):
    """Each lane's first-divergence day under `rule`, read from a pass's outcomes.

    A lane still on the target after day t-1 has a_{t-1} = target[t-2] (0 on
    day 1), and the pass gives its y_{t-1}, so `rule` decides day t from those
    alone.  Columns from a lane's pass divergence day on are 0, not outcomes,
    so `rule` must have diverged on every lane the pass retired, no later.
    """
    n, T = outcomes.shape[0], outcomes.shape[1] - 1
    days = np.zeros(n, dtype=np.int64)
    lanes = np.arange(n)
    for t in range(1, T + 1):
        if not lanes.size:
            break
        last = np.full(lanes.size, target[t - 2] if t > 1 else 0, dtype=np.int8)
        leaves = rule.decide_batch(t, last, outcomes[lanes, t - 1], None) != target[t - 1]
        days[lanes[leaves]] = t
        lanes = lanes[~leaves]
    late = (pass_days > 0) & ((days == 0) | (days > pass_days))
    if late.any():
        raise ValueError(
            f"{rule.name} is still on the target on {int(late.sum())} replicates "
            f"the pass retired: the rule that runs the pass must diverge last"
        )
    return days


def _reduce(days, outcomes, per_time_conditioning: bool, keep_samples: bool):
    """One rule's partial sums from its divergence days and a pass's outcomes.

    A replicate diverging on day d counts at times before d.  Its columns from
    d on enter per-time sums as +0.0: masked here, which changes no bits for
    the pass's own rule, whose retired rows already hold +0.0 from day d.
    """
    n, T = outcomes.shape[0], outcomes.shape[1] - 1
    retained_mask = days == 0
    retained = int(retained_mask.sum())
    divergence_hist = np.bincount(days[~retained_mask], minlength=T + 1)
    # With no row retired the two modes coincide, and the sums read
    # `outcomes` in place instead of copying every row.
    if per_time_conditioning or retained == n:
        columns = outcomes[:, 1:]
        if retained < n:
            live_until = np.where(retained_mask, T + 1, days)
            columns = np.where(np.arange(1, T + 1) < live_until[:, None], columns, 0.0)
        per_t_sums = columns.sum(axis=0)
        per_t_counts = n - np.cumsum(divergence_hist[1:])
    else:
        per_t_sums = outcomes[retained_mask, 1:].sum(axis=0)
        per_t_counts = np.full(T, retained, dtype=np.int64)

    y_final = outcomes[retained_mask, T]
    return {
        "retained": retained,
        "per_t_sums": per_t_sums,
        "per_t_counts": per_t_counts,
        "final_sum": float(y_final.sum()),
        "final_sumsq": float((y_final * y_final).sum()),
        "divergence_hist": divergence_hist,
        "samples": y_final.copy() if keep_samples else None,
    }


def _chunk_stats(
    params: SirParams,
    rules: Sequence[PolicyRule],
    target: np.ndarray | None,
    master_seed: int,
    lo: int,
    hi: int,
    per_time_conditioning: bool,
    keep_samples: bool,
):
    """Simulate replicates [lo, hi) once and reduce them to partial sums for
    each rule, in the order of `rules`.

    The day loop runs under the last rule, which must diverge last on every
    replicate; the others' divergence days are read from its outcomes.  The
    result is a pure function of the arguments, whichever thread runs the
    chunk.
    """
    keys = stream_keys(master_seed, np.arange(lo, hi, dtype=np.uint64))
    for _, diverged, outcomes, *_ in simulate(params, rules[-1], keys, target):
        pass
    days = [_divergence_days(rule, target, outcomes, diverged) for rule in rules[:-1]]
    return [_reduce(d, outcomes, per_time_conditioning, keep_samples) for d in days + [diverged]]


def _check_arguments(params: SirParams, rules, target, replicates: int, conditioning: str):
    """Reject what the engine cannot run; return the target as int8, or None."""
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if conditioning not in CONDITIONING_MODES:
        raise ValueError(f"conditioning must be one of {CONDITIONING_MODES}, got {conditioning!r}")
    if not rules:
        raise ValueError("no rule to simulate")
    if len(rules) > 1 and any(rule.uses_randomness for rule in rules):
        # A random rule's decisions depend on its own policy draws, which a
        # pass under another rule does not make.
        raise ValueError("a random rule cannot share a pass with other rules")
    if target is None:
        return None
    target_arr = np.asarray(list(target), dtype=np.int8)
    if target_arr.shape != (params.horizon,):
        raise ValueError(
            f"target path length {target_arr.size} does not match horizon {params.horizon}"
        )
    return target_arr


def _run_engine(
    params: SirParams,
    rules: Sequence[PolicyRule],
    target: Sequence[int] | None,
    replicates: int,
    master_seed: int,
    threads: int,
    conditioning: str,
    keep_samples: bool,
) -> list[dict]:
    """Every rule's sums over all chunks, folded in ascending chunk order."""
    target_arr = _check_arguments(params, rules, target, replicates, conditioning)
    bounds = [(lo, min(lo + CHUNK_SIZE, replicates)) for lo in range(0, replicates, CHUNK_SIZE)]
    per_time = conditioning == "per-time"

    def work(span):
        lo, hi = span
        return _chunk_stats(params, rules, target_arr, master_seed, lo, hi, per_time, keep_samples)

    workers = min(threads, len(bounds), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunk_results = list(pool.map(work, bounds))
    else:
        chunk_results = [work(span) for span in bounds]

    T = params.horizon
    totals = []
    for k in range(len(rules)):
        total = {
            "per_t_sums": np.zeros(T),
            "per_t_counts": np.zeros(T, dtype=np.int64),
            "divergence_hist": np.zeros(T + 1, dtype=np.int64),
            "final_sum": 0.0,
            "final_sumsq": 0.0,
            "retained": 0,
        }
        for res in chunk_results:
            for field in total:
                total[field] += res[k][field]
        total["samples"] = (
            np.concatenate([res[k]["samples"] for res in chunk_results]) if keep_samples else None
        )
        totals.append(total)
    return totals


def _estimate(total: dict, replicates: int) -> EstimateResult:
    """The estimate from one rule's folded sums; raises EmptyConditioningError
    when it retained nothing."""
    retained = total["retained"]
    if retained == 0:
        hist = {int(t): int(c) for t, c in enumerate(total["divergence_hist"]) if c > 0}
        raise EmptyConditioningError(replicates, hist)

    mean = total["final_sum"] / retained
    if retained > 1:
        var = max(total["final_sumsq"] - retained * mean * mean, 0.0) / (retained - 1)
        std_error = float(np.sqrt(var / retained))
    else:
        std_error = 0.0

    per_t_counts = total["per_t_counts"]
    with np.errstate(invalid="ignore"):
        per_time_means = np.where(per_t_counts > 0, total["per_t_sums"] / per_t_counts, np.nan)

    return EstimateResult(
        mean=mean,
        std_error=std_error,
        replicates_total=replicates,
        replicates_retained=retained,
        per_time_means=tuple(float(m) for m in per_time_means),
        samples=total["samples"],
    )


@dataclass(frozen=True)
class AssociationalPass:
    """One associational day-loop pass shared by a family of rules.

    Made by `associational_pass`.  `estimate_associational(..., shared=pass)`
    reads one rule's estimate from it; the pass runs at the first such read.
    """

    params: SirParams
    rules: tuple[PolicyRule, ...]
    target: tuple[int, ...]
    replicates: int
    master_seed: int
    threads: int
    conditioning: str
    keep_samples: bool

    @cached_property
    def totals(self) -> list[dict]:
        return _run_engine(
            self.params, self.rules, self.target, self.replicates, self.master_seed,
            self.threads, self.conditioning, self.keep_samples,
        )

    def estimate(self, rule: PolicyRule) -> EstimateResult:
        """`rule`'s estimate; raises EmptyConditioningError when it retained nothing."""
        for k, member in enumerate(self.rules):
            if member is rule:
                return _estimate(self.totals[k], self.replicates)
        raise ValueError(f"{rule.name} is not a rule of the shared pass")


def associational_pass(
    params: SirParams,
    rules: Sequence[PolicyRule],
    target: Sequence[int],
    replicates: int,
    master_seed: int,
    threads: int = 1,
    conditioning: str = "full-path",
    keep_samples: bool = False,
) -> AssociationalPass:
    """One associational pass that scores every rule of a family.

    The day loop runs under the last rule, and every other rule is scored
    from its outcomes.  That is exact when the rules are deterministic and the
    last one diverges from the target last on every replicate: a rule still
    on the target has seen exactly the target's treatments, and so the same
    outcomes.  For absorbing threshold rules and the all-zero target that is
    the largest threshold.  Random rules cannot share a pass, and a rule
    found on the target where the last one left it raises ValueError.
    """
    rules = tuple(rules)
    _check_arguments(params, rules, target, replicates, conditioning)
    return AssociationalPass(
        params, rules, tuple(int(a) for a in target), replicates, master_seed, threads,
        conditioning, keep_samples,
    )


def estimate_causal(
    params: SirParams,
    sequence: Sequence[int],
    replicates: int,
    master_seed: int,
    threads: int = 1,
) -> EstimateResult:
    """E[Y_t] under do(sequence): simulate with treatments forced, keep everything."""
    if len(sequence) != params.horizon:
        raise ValueError(
            f"sequence length {len(sequence)} does not match horizon {params.horizon}"
        )
    rule = ForcedSequenceRule(sequence)
    total, = _run_engine(
        params, (rule,), None, replicates, master_seed, threads, "full-path", keep_samples=False
    )
    return _estimate(total, replicates)


def estimate_associational(
    params: SirParams,
    rule: PolicyRule,
    target: Sequence[int],
    replicates: int,
    master_seed: int,
    threads: int = 1,
    conditioning: str = "full-path",
    keep_samples: bool = False,
    shared: AssociationalPass | None = None,
) -> EstimateResult:
    """E[Y_t | realized treatments == target] under the endogenous rule.

    conditioning="full-path" retains a trajectory for all t only if its whole
    treatment path matches the target (the default).  "per-time" computes the
    intermediate Y_t means over trajectories matching the target only up to
    t, a looser conditioning set some analyses prefer for mid-course curves;
    final-time quantities are identical in both modes.

    With `shared`, a pass from `associational_pass` made with these same
    arguments and holding `rule`, the estimate is read from that pass.

    Raises EmptyConditioningError when nothing matches.
    """
    asked = associational_pass(
        params, (rule,) if shared is None else shared.rules, target, replicates, master_seed,
        threads, conditioning, keep_samples,
    )
    if shared is None:
        shared = asked
    elif shared != asked:
        raise ValueError("the shared pass was made with other arguments")
    return shared.estimate(rule)


def compute_bias_report(
    params: SirParams,
    rule: PolicyRule,
    target: Sequence[int],
    replicates: int,
    master_seed: int,
    threads: int = 1,
    conditioning: str = "full-path",
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
    )
    associational = estimate_associational(
        params,
        rule,
        target,
        replicates,
        derive_substream_seed(master_seed, 1),
        threads,
        conditioning,
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
