"""The benchmark's workloads, one pass each, with their correctness gates.

A pass runs the workload once and returns a `PassResult`.  Every pass is
checked: a pass whose outputs are wrong counts all of its operations as
failed.  Recorded outputs (`expected.json`, made by `record.py` when the
benchmark was added) give bit-exact gates for the seeds they cover; other
seeds get the structural and statistical gates alone.

`epibias` must be importable before this module is imported.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

# Library calls go through the module attributes so that the tracer's
# rebinding of them applies to these call sites as well.
from epibias import cli, montecarlo
from epibias.config import ExperimentConfig
from epibias.policies import ExogenousRule
from epibias.sir import SirParams

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

FIGURES34_CSVS = ("bias_evolution.csv", "bias_summary.csv")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class PassResult:
    """One pass: its wall time, operations attempted and failed, logical
    replicate-days (instance-days for the exact oracle), the pooled SE of
    the bias (None when exact), and `parts_s`: the pass's operations' times
    in a fixed order, then what remains of the wall time."""

    wall_s: float
    attempted: int
    failed: int
    rep_days: int
    se_bias: float | None
    parts_s: list[float]
    stdout_bytes: int = 0
    problems: list[str] = field(default_factory=list)


class LineClock(io.StringIO):
    """A stdout stand-in that timestamps every completed line."""

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        if "\n" in text:
            self.stamps.append(perf_counter())
        return super().write(text)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-12)


def _is_difference(bias: str, assoc: str, causal: str) -> bool:
    """bias == assoc - causal, up to the 10-digit rounding of all three cells."""
    b, a, c = float(bias), float(assoc), float(causal)
    return abs(b - (a - c)) <= 1e-9 * (abs(a) + abs(c) + abs(b))


# ---------------------------------------------------------------------------
# figures34
# ---------------------------------------------------------------------------

def check_figures34(out: str, config: ExperimentConfig, recorded: dict | None) -> list[str]:
    """Problems with the figures34 CSVs in `out` (empty when they are right).

    With a recording for the seed the CSVs must match it byte for byte.
    Without one they must have the right shape and satisfy identities that
    hold for any seed: one causal column shared by every threshold, bias =
    associational - causal, means nondecreasing in t (full-path
    conditioning keeps one sample per threshold), and a negative final bias.
    """
    paths = {name: os.path.join(out, name) for name in FIGURES34_CSVS}
    missing = [name for name, path in paths.items() if not os.path.isfile(path)]
    if missing:
        return [f"missing {', '.join(missing)}"]
    if recorded is not None:
        return [f"{name}: sha256 {sha256(path)} != recorded {recorded[name]}"
                for name, path in paths.items() if sha256(path) != recorded[name]]

    problems = []
    with open(paths["bias_summary.csv"], encoding="utf-8", newline="") as fh:
        summary = list(csv.reader(fh)) or [[]]
    with open(paths["bias_evolution.csv"], encoding="utf-8", newline="") as fh:
        evolution = list(csv.reader(fh)) or [[]]
    thresholds = [cli.fmt(t) for t in config.thresholds]
    T = config.sir.horizon
    y0 = cli.fmt(config.sir.initial_outcome)
    if summary[0] != ["threshold", "causal_T", "associational_T", "bias_T", "retained", "total"]:
        problems.append(f"summary header {summary[0]}")
    if evolution[0] != ["threshold", "t", "causal_mean", "associational_mean", "bias"]:
        problems.append(f"evolution header {evolution[0]}")
    if [row[:1] for row in summary[1:]] != [[thr] for thr in thresholds]:
        return problems + ["summary thresholds differ from the config"]
    if len(evolution) != 1 + len(thresholds) * (T + 1):
        return problems + [f"evolution has {len(evolution) - 1} rows"]
    try:
        causal_T = {row[1] for row in summary[1:]}
        if len(causal_T) != 1:
            problems.append("causal_T differs between thresholds")
        for thr, causal, assoc, bias, retained, total in summary[1:]:
            if int(total) != config.replicates or not 0 < int(retained) <= int(total):
                problems.append(f"threshold {thr}: retained {retained}/{total}")
            if not _is_difference(bias, assoc, causal):
                problems.append(f"threshold {thr}: bias {bias} != {assoc} - {causal}")
            if not float(bias) < 0.0:
                problems.append(f"threshold {thr}: final bias {bias} is not negative")
        causal_columns = set()
        for k, thr in enumerate(thresholds):
            block = evolution[1 + k * (T + 1): 1 + (k + 1) * (T + 1)]
            if block[0] != [thr, "0", y0, y0, "0"]:
                problems.append(f"threshold {thr}: t=0 row {block[0]}")
            if [row[:2] for row in block] != [[thr, str(t)] for t in range(T + 1)]:
                problems.append(f"threshold {thr}: rows out of order")
                continue
            causal = [float(row[2]) for row in block]
            assoc = [float(row[3]) for row in block]
            causal_columns.add(tuple(row[2] for row in block))
            if any(b < a for a, b in zip(causal, causal[1:])) or \
                    any(b < a for a, b in zip(assoc, assoc[1:])):
                problems.append(f"threshold {thr}: a mean decreases in t")
            if not all(_is_difference(row[4], row[3], row[2]) for row in block):
                problems.append(f"threshold {thr}: bias column != associational - causal")
            final = summary[1 + k]
            if not (_close(causal[-1], float(final[1])) and _close(assoc[-1], float(final[2]))):
                problems.append(f"threshold {thr}: t={T} row disagrees with the summary")
        if len(causal_columns) > 1:
            problems.append("causal column differs between thresholds")
    except (ValueError, IndexError) as exc:
        problems.append(f"malformed CSV: {exc}")
    return problems


class Figures34:
    """`epibias figures34` at the default config but 2^13 + 1696 replicates,
    one thread: a full chunk and a short last one, as in the default run's
    100,000 = 12 * 8192 + 1696.  The short pass (about 1.3 s) lets a run
    hold many passes; the per-chunk work is that of the default run.

    Pass k runs master seed `seed + k * 2^32` (mod 2^64).  Pass 0 is checked
    against the recorded hashes for `seed`; later passes get the structural
    gate, and their standard errors pool into `time_to_se_s`.
    """

    name = "figures34"
    threads = 1
    replicates = 2 ** 13 + 1696

    def __init__(self, seed: int, workdir: str, expected: dict):
        self.seed = seed
        self.config = ExperimentConfig(seed=seed, replicates=self.replicates,
                                       threads=self.threads)
        self.out = os.path.join(workdir, self.name)
        self.recorded = expected.get(self.name, {}).get(str(seed))
        self.gate = "recorded sha256, then structural" if self.recorded else "structural"
        sir = self.config.sir
        self.horizon = sir.horizon
        self.estimates = 1 + len(self.config.thresholds)
        self.rep_days = self.estimates * self.config.replicates * sir.horizon
        self.passes = 0

    def working_set_bytes(self, chunk: int) -> int:
        """Per-chunk arrays `_chunk_stats` keeps live: outcomes (n, T+1) f8,
        treatments (n, T) i1, keys u8, s/i/r f8 and two uniforms f8."""
        T = self.horizon
        return chunk * ((T + 1) * 8 + T + 8 * 6)

    def run_pass(self) -> PassResult:
        # The gate must see only files this pass wrote.
        shutil.rmtree(self.out, ignore_errors=True)
        seed = (self.seed + (self.passes << 32)) % 2 ** 64
        recorded = self.recorded if self.passes == 0 else None
        self.passes += 1
        argv = ["figures34", "--seed", str(seed), "--replicates", str(self.replicates),
                "--threads", str(self.threads), "--out", self.out]
        results = []
        originals = cli.estimate_causal, cli.estimate_associational

        # Keep each estimate the CLI computes, to read its standard error.
        # No clock is read here; per-estimate times come from the CLI's own
        # progress lines, timestamped by LineClock.
        def keep(fn):
            def kept(*args, **kwargs):
                result = fn(*args, **kwargs)
                results.append(result)
                return result
            return kept

        cli.estimate_causal, cli.estimate_associational = (keep(f) for f in originals)
        stdout = LineClock()
        try:
            start = perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            wall = perf_counter() - start
        finally:
            cli.estimate_causal, cli.estimate_associational = originals

        problems = [] if code == 0 else [f"exit code {code}"]
        lines = stdout.getvalue().splitlines()
        progress = [stamp for line, stamp in zip(lines, stdout.stamps)
                    if line.startswith(("causal mean", "threshold "))]
        if len(results) != self.estimates or len(progress) != self.estimates:
            problems.append(f"{len(results)} estimates, {len(progress)} progress lines, "
                            f"want {self.estimates}")
        problems += check_figures34(self.out, self.config, recorded)
        marks = [start] + progress + [start + wall]
        parts = [b - a for a, b in zip(marks, marks[1:])]
        se = max((math.hypot(results[0].std_error, r.std_error) for r in results[1:]),
                 default=None)
        return PassResult(wall, self.estimates, self.estimates if problems else 0,
                          self.rep_days, se, parts,
                          len(stdout.getvalue().encode()), problems)


# ---------------------------------------------------------------------------
# null-control
# ---------------------------------------------------------------------------

class NullControl:
    """`compute_bias_report` under the exogenous coin-flip rule (criterion 8
    scaled up): the associational and causal means must agree."""

    name = "null-control"
    threads = 2
    replicates = 2 ** 19 + 1696  # 64 full chunks and a short last one
    params = SirParams(population=10_000.0, initial_infected=200.0, horizon=3)

    def __init__(self, seed: int, workdir: str, expected: dict):
        self.seed = seed
        self.horizon = self.params.horizon
        self.rule = ExogenousRule(0.5)
        self.target = (0,) * self.horizon
        self.rep_days = 2 * self.replicates * self.horizon
        self.report = None  # the last pass's BiasReport
        self.recorded = expected.get(self.name, {}).get(str(seed))
        self.gate = "3 SE, recorded means" if self.recorded else "3 SE"

    def working_set_bytes(self, chunk: int) -> int:
        T = self.horizon
        return chunk * ((T + 1) * 8 + T + 8 * 7)  # three uniforms per step

    def run_pass(self) -> PassResult:
        start = perf_counter()
        report = self.report = montecarlo.compute_bias_report(
            self.params, self.rule, self.target, self.replicates, self.seed, self.threads,
            "per-time")
        wall = perf_counter() - start
        problems = check_null_control(report, self.recorded)
        se = math.hypot(report.causal.std_error, report.associational.std_error)
        return PassResult(wall, 1, 1 if problems else 0, self.rep_days, se, [wall, 0.0],
                          problems=problems)


def check_null_control(report, recorded: dict | None) -> list[str]:
    problems = []
    pooled = math.hypot(report.causal.std_error, report.associational.std_error)
    if not abs(report.bias) < 3.0 * pooled:
        problems.append(f"|bias| {abs(report.bias):.3g} >= 3 pooled SE {pooled:.3g}")
    if recorded is not None:
        for key, estimate in (("causal_mean", report.causal),
                              ("associational_mean", report.associational)):
            if estimate.mean.hex() != recorded[key]:
                problems.append(f"{key} {estimate.mean.hex()} != recorded {recorded[key]}")
    return problems


# ---------------------------------------------------------------------------
# fuzz-theorem
# ---------------------------------------------------------------------------

class FuzzTheorem:
    """`epibias fuzz-theorem` on generated opportunistic instances: pure
    exact-oracle work, no Monte Carlo.

    A pass runs the CLI and gates its summary line.  A hook on the CLI's
    `verify_theorem1` reads the clock after each instance, so each
    instance (generated and verified) is timed on the CLI's own path.
    Every pass checks the same 250 instances: a pass of about 1.2 s gives
    each instance about 25 timings per 36 s run (see README: Steadiness).
    """

    name = "fuzz-theorem"
    threads = 1
    count = 250
    gate = "exact summary, zero violations"

    def __init__(self, seed: int, workdir: str, expected: dict):
        self.seed = seed
        self.horizon = self.rep_days = 0  # no Monte Carlo replicates
        self.out = os.path.join(workdir, self.name)
        self.argv = ["fuzz-theorem", "--seed", str(seed), "--count", str(self.count),
                     "--out", self.out]
        self.summary = (f"checked {self.count} opportunistic instances: {self.count} "
                        f"respected the negative-bias theorem, 0 violations")

    def working_set_bytes(self, chunk: int) -> int:
        return 0

    def run_pass(self) -> PassResult:
        marks, days = [], []
        original = cli.verify_theorem1

        def marked(dgp, target):
            report = original(dgp, target)
            marks.append(perf_counter())
            days.append(dgp.horizon)
            return report

        cli.verify_theorem1 = marked
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            start = perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(self.argv)
            wall = perf_counter() - start
        finally:
            cli.verify_theorem1 = original

        problems = [] if code == 0 else [f"exit code {code}"]
        if stdout.getvalue() != self.summary + "\n":
            problems.append(f"summary {stdout.getvalue()!r}, want {self.summary!r}")
        if stderr.getvalue():
            problems.append(f"stderr {stderr.getvalue()[:200]!r}")
        if len(marks) != self.count:
            problems.append(f"{len(marks)} instances verified, want {self.count}")
        marks = [start] + marks + [start + wall]
        parts = [b - a for a, b in zip(marks, marks[1:])]
        return PassResult(wall, self.count, self.count if problems else 0, sum(days), None,
                          parts, len(stdout.getvalue().encode()), problems)


WORKLOADS = {w.name: w for w in (Figures34, NullControl, FuzzTheorem)}

# Seeds named for later claims: a gain measured while a change is written
# must also hold on the held-out seed, which was not used to tune it.
REFERENCE_SEEDS = {"figures34": 42, "null-control": 7, "fuzz-theorem": 42}
HELD_OUT_SEEDS = {"figures34": 9001, "null-control": 9007, "fuzz-theorem": 9042}
