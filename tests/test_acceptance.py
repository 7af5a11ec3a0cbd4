"""Acceptance suite: ten build-gate checks, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see every verdict line as it
is produced; without -s, pytest still shows the line for any failing
criterion in its captured-output block.

The full-scale Monte Carlo runs (criteria 1-4) share one session fixture so
the whole file stays within a couple of minutes on a single core.
"""

import subprocess
import sys
import time
from itertools import product

import numpy as np
import pytest

from epibias.config import ExperimentConfig
from epibias.finite import (
    audit_decomposition,
    audit_zero_mean,
    coin_epidemic,
    associational_exact,
    g_formula_exact,
    random_dgp,
    random_opportunistic_dgp,
    verify_theorem1,
)
from epibias.montecarlo import (
    associational_pass,
    estimate_associational,
    estimate_causal,
    simulate,
)
from epibias.policies import ExogenousRule, ThresholdRule
from epibias.sir import SirParams, sir_step_arrays
from epibias.streams import counter_uniform_array, derive_substream_seed, stream_keys


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {verdict} - {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def full_scale_run():
    """Defaults (N=1e6, T=100, 100k replicates, seed 42): one causal run and
    one associational estimate per default threshold, with the causal wall
    time."""
    cfg = ExperimentConfig()
    params = cfg.sir
    zeros = (0,) * params.horizon

    started = time.monotonic()
    causal = estimate_causal(
        params, zeros, cfg.replicates, derive_substream_seed(cfg.seed, 0)
    )
    causal_seconds = time.monotonic() - started

    # The thresholds are scored from one shared pass, as `figures34` scores
    # them.
    assoc_seed = derive_substream_seed(cfg.seed, 1)
    rules = {threshold: ThresholdRule(threshold) for threshold in cfg.thresholds}
    shared = associational_pass(
        params, list(rules.values()), zeros, cfg.replicates, assoc_seed, keep_samples=True
    )
    assoc = {}
    for threshold, rule in rules.items():
        assoc[threshold] = estimate_associational(
            params, rule, zeros, cfg.replicates, assoc_seed, keep_samples=True, shared=shared,
        )
    return {
        "config": cfg,
        "causal": causal,
        "causal_seconds": causal_seconds,
        "assoc": assoc,
    }


def test_criterion_01_causal_estimand_at_full_scale(full_scale_run):
    causal = full_scale_run["causal"]
    seconds = full_scale_run["causal_seconds"]
    ok = causal.mean >= 0.75 and seconds <= 300.0
    report(
        1,
        ok,
        f"causal mean Y_T = {causal.mean:.6f} (want >= 0.75) "
        f"in {seconds:.1f}s (want <= 300s) over {causal.replicates_total} replicates",
    )


def untreated_reference(params, replicates, master_seed):
    """Untreated dynamics written straight from `sir_step_arrays` and the
    counter streams: per replicate, the running max of Y_0..Y_{T-1} and the
    final Y_T.

    A threshold rule draws no uniforms and, at step t, sees Y_{t-1}.  A run
    whose Y_0..Y_{T-1} all stay at or below the threshold is therefore never
    treated and follows the untreated path of its own stream (infection and
    recovery noise at counters 2(t-1) and 2(t-1)+1).  Those runs, and no
    others, are what the associational estimator for the all-zeros path keeps.
    """
    keys = stream_keys(master_seed, np.arange(replicates, dtype=np.uint64))
    pop = params.population
    s = np.full(replicates, pop - params.initial_infected)
    i = np.full(replicates, params.initial_infected)
    r = np.zeros(replicates)
    y = np.full(replicates, params.initial_outcome)
    peak_before_final = y.copy()
    for t in range(params.horizon):
        np.maximum(peak_before_final, y, out=peak_before_final)
        u1 = counter_uniform_array(keys, 2 * t)
        u2 = counter_uniform_array(keys, 2 * t + 1)
        s, i, r = sir_step_arrays(s, i, r, params, 0, u1, u2)
        y = 1.0 - s / pop
    return peak_before_final, y


def test_criterion_02_associational_quantity(full_scale_run):
    # E[Y_T | never triggered] is checked exactly against the reference runs
    # rather than against a fixed ceiling: no document supports one, and the
    # documented model's never-triggered runs are late epidemics (sir.py).
    cfg = full_scale_run["config"]
    peak, y_final = untreated_reference(
        cfg.sir, cfg.replicates, derive_substream_seed(cfg.seed, 1)
    )
    ok = True
    parts = []
    for thr, res in sorted(full_scale_run["assoc"].items()):
        expected = y_final[peak <= thr]
        matches = res.replicates_retained == expected.size and np.array_equal(
            res.samples, expected
        )
        below = res.mean < thr
        ok = ok and matches and below
        flags = "" if matches else f", differs from reference ({expected.size} retained there)"
        flags += "" if below else f", not below {thr:g}"
        parts.append(
            f"{thr:g}: mean {res.mean:.4f}, retained {res.replicates_retained}/"
            f"{res.replicates_total}, SE {res.std_error:.4f}{flags}"
        )
    report(
        2,
        ok,
        "associational Y_T by threshold (want the retained Y_T equal, in replicate "
        "order, to those of the untreated reference runs under sub-seed 1 with "
        "max Y_0..Y_{T-1} <= threshold, and each mean below its threshold): "
        + "; ".join(parts),
    )


def test_criterion_03_bias_band(full_scale_run):
    causal = full_scale_run["causal"].mean
    biases = {thr: res.mean - causal for thr, res in full_scale_run["assoc"].items()}
    ok = all(-0.75 <= b <= -0.55 for b in biases.values())
    detail = ", ".join(f"{thr:g}: {b:+.4f}" for thr, b in sorted(biases.items()))
    report(3, ok, f"bias_T by threshold (want each in [-0.75, -0.55]): {detail}")


def test_criterion_04_bias_ordering(full_scale_run):
    causal = full_scale_run["causal"].mean
    ordered = [
        abs(full_scale_run["assoc"][thr].mean - causal)
        for thr in sorted(full_scale_run["assoc"])
    ]
    ok = all(a > b for a, b in zip(ordered, ordered[1:]))
    detail = " > ".join(f"{b:.4f}" for b in ordered)
    report(4, ok, f"|bias_T| from threshold 5% to 30%: {detail} (want strictly decreasing)")


def brute_force_values(dgp, target):
    """Path enumeration written from scratch: g-formula and associational
    means straight off the kernel tables."""
    T = dgp.horizon
    a_target = tuple(dgp.treatment_index(a) for a in target)
    y0 = dgp.initial_outcome_index
    n_y = len(dgp.outcome_values)
    n_a = len(dgp.treatment_values)

    g = 0.0
    for tail in product(range(n_y), repeat=T):
        ys = (y0,) + tail
        prob = 1.0
        for t in range(T):
            prob *= dgp.outcome_row(t + 1, a_target[: t + 1], ys[: t + 1])[tail[t]]
        g += prob * dgp.outcome_values[tail[-1]]

    num = den = 0.0
    for a_path in product(range(n_a), repeat=T):
        for tail in product(range(n_y), repeat=T):
            ys = (y0,) + tail
            prob = 1.0
            for t in range(T):
                prob *= dgp.rule_row(t, a_path[:t], ys[: t + 1])[a_path[t]]
                prob *= dgp.outcome_row(t + 1, a_path[: t + 1], ys[: t + 1])[tail[t]]
            if a_path == a_target:
                num += prob * dgp.outcome_values[tail[-1]]
                den += prob
    return g, num / den


def test_criterion_05_oracle_exactness():
    dgp = coin_epidemic()
    g = g_formula_exact(dgp, (0, 0))
    assoc = associational_exact(dgp, (0, 0))
    bias = assoc - g
    ref_g, ref_assoc = brute_force_values(dgp, (0, 0))
    ok = (
        abs(g - 1.1) <= 1e-12
        and abs(assoc - 0.6) <= 1e-12
        and abs(bias - (-0.5)) <= 1e-12
        and abs(g - ref_g) <= 1e-12
        and abs(assoc - ref_assoc) <= 1e-12
    )
    report(
        5,
        ok,
        f"coin-epidemic g = {g:.12f}, associational = {assoc:.12f}, bias = {bias:.12f}; "
        f"brute-force enumeration agrees within 1e-12",
    )


def test_criterion_06_appendix_identities():
    rng = np.random.default_rng(20240817)
    worst_zero_mean = 0.0
    worst_decomposition = 0.0
    for _ in range(50):
        dgp = random_dgp(rng)
        worst_zero_mean = max(worst_zero_mean, audit_zero_mean(dgp))
        worst_decomposition = max(worst_decomposition, audit_decomposition(dgp))
    ok = worst_zero_mean <= 1e-10 and worst_decomposition <= 1e-10
    report(
        6,
        ok,
        f"50 random instances: max zero-mean residual {worst_zero_mean:.2e}, "
        f"max decomposition residual {worst_decomposition:.2e} (want <= 1e-10)",
    )


def test_criterion_07_theorem_property_suite():
    rng = np.random.default_rng(1789)
    violations = 0
    worst = -np.inf
    for _ in range(100):
        dgp, target = random_opportunistic_dgp(rng)
        result = verify_theorem1(dgp, target)
        assert result.opportunistic_everywhere and result.has_nonconstant
        worst = max(worst, result.bias)
        if result.bias >= 0.0:
            violations += 1
    ok = violations == 0
    report(
        7,
        ok,
        f"100 opportunistic instances: {violations} nonnegative biases "
        f"(largest bias {worst:+.4f}; want all < 0)",
    )


def test_criterion_08_null_endogeneity_control():
    # Exogenous coin-flip rule: conditioning cannot correlate with the noise,
    # so the associational and causal means must agree up to Monte Carlo
    # error.  Population 1e4; a short horizon keeps the all-zeros event
    # common enough (p = 2^-3) to leave thousands of retained replicates.
    params = SirParams(population=10_000.0, initial_infected=200.0, horizon=3)
    zeros = (0,) * params.horizon
    causal = estimate_causal(params, zeros, 100_000, derive_substream_seed(7, 0))
    assoc = estimate_associational(
        params, ExogenousRule(0.5), zeros, 100_000, derive_substream_seed(7, 1)
    )
    bias = assoc.mean - causal.mean
    pooled = float(np.hypot(causal.std_error, assoc.std_error))
    ok = abs(bias) < 3.0 * pooled
    report(
        8,
        ok,
        f"exogenous p=0.5: bias {bias:+.6f}, pooled SE {pooled:.6f}, "
        f"|bias|/SE = {abs(bias) / pooled:.2f} (want < 3) "
        f"with {assoc.replicates_retained} retained",
    )


def test_criterion_09_invariant_suite():
    params = SirParams()
    keys = stream_keys(555, np.arange(1000, dtype=np.uint64))
    worst_gap = 0.0
    for t, (_, _, outcomes, s, i, r) in enumerate(simulate(params, ExogenousRule(0.2), keys), 1):
        worst_gap = max(worst_gap, float(np.abs(s + i + r - params.population).max()))
        assert (s >= 0.0).all() and (i >= 0.0).all() and (r >= 0.0).all()
        assert (outcomes[:, t] >= outcomes[:, t - 1] - 1e-15).all()
    ok = worst_gap <= 1e-6
    report(
        9,
        ok,
        f"1000 trajectories: max |S+I+R-N| = {worst_gap:.2e} (want <= 1e-6), "
        f"all compartments nonnegative, Y nondecreasing",
    )


def test_criterion_10_determinism(tmp_path, package_env):
    def run(out, threads):
        cmd = [
            sys.executable, "-m", "epibias", "figures34",
            "--out", str(out),
            "--replicates", "2000",
            "--thresholds", "0.05,0.3",
            "--seed", "42",
            "--threads", str(threads),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=package_env)
        assert proc.returncode == 0, proc.stderr
        return (
            (out / "bias_evolution.csv").read_bytes(),
            (out / "bias_summary.csv").read_bytes(),
        )

    first = run(tmp_path / "one", 1)
    second = run(tmp_path / "two", 1)
    eight = run(tmp_path / "eight", 8)
    ok = first == second == eight
    report(
        10,
        ok,
        "figures34 CSVs byte-identical across a repeat run and threads 1 vs 8"
        if ok
        else "figures34 CSVs differ between runs or thread counts",
    )
