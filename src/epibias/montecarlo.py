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

A family of threshold rules on the all-zero target shares one associational
pass: a rule still on the target has seen exactly the target's treatments,
and y > max threshold implies y > threshold, so a pass under the largest
threshold gives every rule's divergence days and outcomes (the clone-censor
argument for comparing dynamic regimes).  Any other rule runs alone, as a
one-rule family.

A run of the engine is one value, a `Pass`.  `errors`' checks refuse a bad
argument with `ValueError` when it is made, and its `totals` step every block
and fold every chunk at the first read.  The estimators read it:
`estimate_causal` makes a one-rule pass with no target, and
`estimate_associational` reads one rule's estimate from a family's pass.

Determinism: the chunk of CHUNK_SIZE replicates is the unit of reduction,
and the block of one or two consecutive chunks is the unit of the day loop.
Each replicate's randomness comes from a counter-based stream keyed by
(seed, replicate index), and every day-loop operation is elementwise, so a
lane gets the same bits in any block.  Each chunk is reduced on its own, by
numpy reductions over arrays whose content depends only on the chunk, to one
`Sums` per rule, and these are merged in ascending chunk order as they are
yielded.  Results are therefore bit-identical for any thread count.  One
worker steps one chunk at a time; more workers step two, where the memory
budget allows, because a numpy call over 8,192 lanes is too short to hide
the hand-off of the GIL that every call makes.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import EmptyConditioningError, checked_integer, checked_path
from .policies import ForcedSequenceRule, PolicyRule, ThresholdRule
from .sir import CHUNK_BYTES_BUDGET, CHUNK_SIZE, LANE_BYTES, SirParams, sir_step_arrays
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


@dataclass(frozen=True)
class Sums:
    """One rule's sums over one chunk, or over consecutive chunks in order.
    samples holds each chunk's retained Y_T when they are kept, else nothing."""

    retained: int
    per_t_sums: np.ndarray
    per_t_counts: np.ndarray
    final_sum: float
    final_sumsq: float
    divergence_hist: np.ndarray
    samples: tuple[np.ndarray, ...]

    def merge(self, later: Sums) -> Sums:
        """These sums followed by `later`'s, as fresh values: every field adds."""
        return Sums(**{name: value + getattr(later, name) for name, value in vars(self).items()})


def simulate(
    params: SirParams, rule: PolicyRule, keys: np.ndarray, target: np.ndarray | None = None
):
    """Run one replicate per stream key forward under `rule`, day by day.

    Yields (last, diverged, outcomes, s, i, r) after each day t = 1..T:
    last holds each lane's latest decision, diverged its first-divergence day
    (0 while on the target), outcomes is (n, T+1) with columns filled through
    t (column 0 holds y_0), and s, i, r are the compartments at t.  last,
    diverged and outcomes are the same objects every day, filled in place,
    and so are s, i and r once a lane has retired.

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
        live_keys = keys[live]
        u1 = counter_uniform_array(live_keys, counter)
        u2 = counter_uniform_array(live_keys, counter + 1)
        counter += 2
        # One step call per day even with no live lane left: perfbench's
        # tracer counts the calls on a thread to find each chunk's last day.
        stepped = sir_step_arrays(s[live], i[live], r[live], params, a, u1, u2)
        if live is everyone:
            s, i, r = stepped
        else:
            s[live], i[live], r[live] = stepped
        outcomes[live, t] = 1.0 - stepped[0] / pop
        yield last, diverged, outcomes, s, i, r


def _reduce(days, outcomes, per_time_conditioning: bool, keep_samples: bool, zeroed: bool):
    """One rule's `Sums` from its divergence days and a pass's outcomes.

    A replicate diverging on day d counts at times before d.  Per-time sums
    mask its columns from d on, unless `zeroed` (the pass retired it, so they
    hold +0.0), which keeps every bit also at T = 1, where numpy sums the one
    column pairwise and a mask would change the pairs.
    """
    n, T = outcomes.shape[0], outcomes.shape[1] - 1
    retained_mask = days == 0
    retained = int(retained_mask.sum())
    divergence_hist = np.bincount(days[~retained_mask], minlength=T + 1)
    # With no row retired the two modes coincide, and the sums read
    # `outcomes` in place instead of copying every row.
    if per_time_conditioning or retained == n:
        live = True
        if retained < n and not zeroed:
            live_until = np.where(retained_mask, T + 1, days)
            live = np.arange(1, T + 1) < live_until[:, None]
        per_t_sums = outcomes[:, 1:].sum(axis=0, where=live)
        per_t_counts = n - np.cumsum(divergence_hist[1:])
    else:
        per_t_sums = outcomes[retained_mask, 1:].sum(axis=0)
        per_t_counts = np.full(T, retained, dtype=np.int64)

    y_final = outcomes[retained_mask, T]  # a copy: boolean indexing copies
    return Sums(retained, per_t_sums, per_t_counts, float(y_final.sum()),
                float((y_final * y_final).sum()), divergence_hist,
                (y_final,) if keep_samples else ())


def _chunk_stats(run: Pass, lo: int, hi: int):
    """Simulate the block of replicates [lo, hi) of `run` once, and reduce
    each of its CHUNK_SIZE-replicate chunks from lo on to `Sums` for each rule.

    Returns one list per chunk, in chunk order, of each rule's sums in the
    order of `run.rules`.  The day loop runs under the only rule, or under
    the largest threshold of a family, which leaves the all-zero target last;
    the others' divergence days are read from its outcomes.  A chunk's sums
    are a pure function of the run and its bounds, whichever block holds it
    and whichever thread runs it.
    """
    keys = stream_keys(run.master_seed, np.arange(lo, hi, dtype=np.uint64))
    target = None if run.target is None else np.asarray(run.target, dtype=np.int8)
    lead = max(run.rules, key=lambda rule: getattr(rule, "threshold", 0.0))
    for _, diverged, outcomes, *_ in simulate(run.params, lead, keys, target):
        pass
    per_time = run.conditioning == "per-time"
    chunks = []
    for start in range(0, hi - lo, CHUNK_SIZE):
        rows = slice(start, start + CHUNK_SIZE)
        chunks.append([
            _reduce(diverged[rows] if rule is lead else rule.divergence_days(outcomes[rows]),
                    outcomes[rows], per_time, run.keep_samples, rule is lead)
            for rule in run.rules
        ])
    return chunks


def _blocks(horizon: int, replicates: int, threads: int):
    """The worker count, and an iterator over the [lo, hi) replicates of each
    day-loop block in order.

    One worker steps one chunk per block.  More workers step two consecutive
    chunks per block where two fit CHUNK_BYTES_BUDGET, but there are never
    fewer blocks than workers: 4 chunks on 3 workers make blocks of 2, 1, 1.
    Not more than two, because every chunk a block adds is held by every
    worker, and two already make each numpy call long enough to overlap.
    """
    chunks = -(-replicates // CHUNK_SIZE)
    workers = min(threads, chunks, os.cpu_count() or 1)
    pairs = 0
    if workers > 1 and 2 * CHUNK_SIZE * ((horizon + 1) * 8 + LANE_BYTES) <= CHUNK_BYTES_BUDGET:
        pairs = chunks - max(workers, (chunks + 1) // 2)
    split = 2 * pairs * CHUNK_SIZE  # two chunks per block below, one from here on
    edges = itertools.chain(
        range(0, split, 2 * CHUNK_SIZE), range(split, replicates, CHUNK_SIZE), (replicates,)
    )
    return workers, itertools.pairwise(edges)


def _map_ahead(pool, fn, items, window: int):
    """pool.map(fn, items) over the iterator `items`, submitted `window` items
    at a time and one window ahead of the consumer, so that the futures and
    results in flight do not grow with the number of items."""
    ahead = pool.map(fn, itertools.islice(items, window))
    while batch := list(itertools.islice(items, window)):
        current, ahead = ahead, pool.map(fn, batch)
        yield from current
    yield from ahead


def _estimate(total: Sums, replicates: int) -> EstimateResult:
    """The estimate from one rule's total sums; raises EmptyConditioningError
    when it retained nothing."""
    retained = total.retained
    if retained == 0:
        hist = {int(t): int(c) for t, c in enumerate(total.divergence_hist) if c > 0}
        raise EmptyConditioningError(replicates, hist)

    mean = total.final_sum / retained
    if retained > 1:
        var = max(total.final_sumsq - retained * mean * mean, 0.0) / (retained - 1)
        std_error = float(np.sqrt(var / retained))
    else:
        std_error = 0.0

    # Every per-time count is at least `retained`, so none is 0 here.
    per_time_means = total.per_t_sums / total.per_t_counts

    return EstimateResult(
        mean=mean,
        std_error=std_error,
        replicates_total=replicates,
        replicates_retained=retained,
        per_time_means=tuple(float(m) for m in per_time_means),
        samples=np.concatenate(total.samples) if total.samples else None,
    )


@dataclass(frozen=True)
class Pass:
    """One run of the engine, checked when it is made: a day-loop pass over
    `replicates` replicates under one rule, or under the largest threshold of
    a family of `ThresholdRule`s on the all-zero target, from whose outcomes
    every rule is scored.

    `target` is the 0/1 path the rules are conditioned on, or None to keep
    every replicate; the counts are stored as ints, `rules` and `target` as
    tuples.  "full-path" conditioning keeps a replicate only if its whole path
    matches the target; "per-time" averages each Y_t over those that match up
    to t, with the same final-time values.  The estimators read the pass's
    `totals`, which run it at the first read.
    """

    params: SirParams
    rules: tuple[PolicyRule, ...]
    target: tuple[int, ...] | None
    replicates: int
    master_seed: int
    threads: int = 1
    conditioning: str = "full-path"
    keep_samples: bool = False

    def __post_init__(self):
        # Stored as checked, so the engine's arithmetic sees Python ints.
        for name, low in (("replicates", 1), ("master_seed", 0), ("threads", 1)):
            object.__setattr__(self, name, checked_integer(name, getattr(self, name), low))
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.conditioning not in CONDITIONING_MODES:
            raise ValueError(
                f"conditioning must be one of {CONDITIONING_MODES}, got {self.conditioning!r}"
            )
        if not self.rules:
            raise ValueError("no rule to simulate")
        if self.target is not None:
            object.__setattr__(self, "target", checked_path("target", self.target))
            if len(self.target) != self.params.horizon:
                raise ValueError(
                    f"target path length {len(self.target)} does not match horizon "
                    f"{self.params.horizon}"
                )
        if len(self.rules) > 1 and (
            not all(isinstance(rule, ThresholdRule) for rule in self.rules)
            or self.target is None or any(self.target)
        ):
            raise ValueError(
                "only threshold rules on the all-zero target can share a pass, "
                f"got {[rule.name for rule in self.rules]} on {self.target!r}"
            )

    @cached_property
    def totals(self) -> list[Sums]:
        """Every rule's sums over all chunks, merged as each chunk is yielded,
        in ascending chunk order from the first chunk's own.  A merge is pure,
        writing nothing in place, and keeps every bit of a fold from zeros,
        since each sum is an int64 count or a float sum of outcomes >= +0.0."""
        workers, blocks = _blocks(self.params.horizon, self.replicates, self.threads)

        def work(block):
            return _chunk_stats(self, *block)

        def fold(block_stats):
            chunks = itertools.chain.from_iterable(block_stats)
            return reduce(lambda totals, chunk: list(map(Sums.merge, totals, chunk)), chunks)

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return fold(_map_ahead(pool, work, blocks, workers))
        return fold(map(work, blocks))


def estimate_causal(
    params: SirParams,
    sequence: Sequence[int],
    replicates: int,
    master_seed: int,
    threads: int = 1,
) -> EstimateResult:
    """E[Y_t] under do(sequence): simulate with treatments forced, keep everything."""
    rule = ForcedSequenceRule(sequence)
    if len(rule.sequence) != params.horizon:
        raise ValueError(
            f"sequence length {len(rule.sequence)} does not match horizon {params.horizon}"
        )
    run = Pass(params, (rule,), None, replicates, master_seed, threads)
    return _estimate(run.totals[0], run.replicates)


def estimate_associational(shared: Pass, rule: PolicyRule) -> EstimateResult:
    """E[Y_t | realized treatments == target] under the endogenous `rule`,
    read from a `Pass` that holds `rule`.

    Raises EmptyConditioningError when nothing matches.
    """
    for k, member in enumerate(shared.rules):
        if member is rule:
            return _estimate(shared.totals[k], shared.replicates)
    raise ValueError(f"{rule.name} is not a rule of the shared pass")


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
        params, target, replicates, derive_substream_seed(master_seed, 0), threads
    )
    shared = Pass(
        params, (rule,), target, replicates, derive_substream_seed(master_seed, 1), threads,
        conditioning,
    )
    associational = estimate_associational(shared, rule)
    return BiasReport(
        threshold=getattr(rule, "threshold", None),
        causal=causal,
        associational=associational,
        bias=associational.mean - causal.mean,
        bias_evolution=tuple(
            a - c for a, c in zip(associational.per_time_means, causal.per_time_means)
        ),
    )
