"""Self-tests of the benchmark: its gates catch wrong outputs, its tracer
measures self time and leaves nothing installed, and the metric names it
prints match BENCHMARK.json.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from epibias import cli, montecarlo  # noqa: E402
from epibias.config import ExperimentConfig  # noqa: E402
from epibias.sir import SirParams  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


@pytest.fixture(scope="module")
def figures34(tmp_path_factory):
    """A small real figures34 run: its CSVs and the config that made them."""
    out = str(tmp_path_factory.mktemp("figures34"))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["figures34", "--seed", "5", "--replicates", "3000", "--out", out])
    assert code == 0
    return out, ExperimentConfig(seed=5, replicates=3000)


def hashes(out):
    return {name: workloads.sha256(os.path.join(out, name))
            for name in workloads.FIGURES34_CSVS}


def test_gates_accept_real_output(figures34):
    out, config = figures34
    assert workloads.check_figures34(out, config, None) == []
    assert workloads.check_figures34(out, config, hashes(out)) == []


@pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "structural"])
@pytest.mark.parametrize("csv_name", workloads.FIGURES34_CSVS)
def test_corrupted_csv_fails_the_gate(figures34, tmp_path, recorded, csv_name):
    out, config = figures34
    expected = hashes(out) if recorded else None
    corrupt = str(tmp_path / "out")
    shutil.copytree(out, corrupt)
    path = os.path.join(corrupt, csv_name)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    # Change the associational mean in the last row: a plausible wrong number.
    cells = lines[-1].split(",")
    cells[-4 if csv_name == "bias_summary.csv" else -2] = "0.5"
    lines[-1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    assert workloads.check_figures34(corrupt, config, expected) != []


def test_missing_or_empty_csv_fails_the_gate(figures34, tmp_path):
    out, config = figures34
    assert workloads.check_figures34(str(tmp_path), config, hashes(out)) != []
    for name in workloads.FIGURES34_CSVS:
        (tmp_path / name).write_text("")
    assert workloads.check_figures34(str(tmp_path), config, None) != []


def test_stale_csv_from_an_earlier_pass_fails_the_gate(tmp_path, monkeypatch):
    """A pass that stops writing its CSVs must fail even when correct CSVs
    of the same seed are left in the output directory."""
    monkeypatch.setattr(workloads.Figures34, "replicates", 3000)
    first = workloads.Figures34(5, str(tmp_path), {})
    with contextlib.redirect_stdout(io.StringIO()):
        assert first.run_pass().problems == []
    recorded = {"figures34": {"5": hashes(first.out)}}
    monkeypatch.setattr(cli, "_write_csv", lambda *args: None)
    with contextlib.redirect_stdout(io.StringIO()):
        result = workloads.Figures34(5, str(tmp_path), recorded).run_pass()
    assert result.failed == result.attempted
    assert any(problem.startswith("missing") for problem in result.problems)


def test_fuzz_theorem_pass_times_each_cli_instance(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.FuzzTheorem, "count", 20)
    fuzz = workloads.FuzzTheorem(3, str(tmp_path), {})
    verify = cli.verify_theorem1
    result = fuzz.run_pass()
    assert result.problems == [] and result.failed == 0
    assert len(result.parts_s) == 21 and result.rep_days >= 40
    assert cli.verify_theorem1 is verify
    # A wrong summary line fails every instance of the pass.
    fuzz.summary = "checked nothing"
    assert fuzz.run_pass().failed == 20


def test_null_control_gate():
    def report(causal, assoc, se):
        return SimpleNamespace(
            causal=SimpleNamespace(mean=causal, std_error=se),
            associational=SimpleNamespace(mean=assoc, std_error=se),
            bias=assoc - causal)

    recorded = {"causal_mean": (0.5).hex(), "associational_mean": (0.5001).hex()}
    assert workloads.check_null_control(report(0.5, 0.5001, 1e-4), recorded) == []
    assert workloads.check_null_control(report(0.5, 0.5001, 1e-4), None) == []
    # One bit off the recorded mean, still well inside 3 SE.
    off = report(0.5, 0.5001 + 2 ** -52, 1e-4)
    assert workloads.check_null_control(off, recorded) != []
    assert workloads.check_null_control(report(0.5, 0.501, 1e-4), None) != []


def test_metric_names_match_benchmark_json():
    passes = [workloads.PassResult(1.0, 1, 0, 100, 2e-3, [0.4, 0.5, 0.1]),
              workloads.PassResult(1.1, 1, 0, 100, None, [0.6, 0.3, 0.2])]
    end_to_end = run.end_to_end_metrics([0.3, 0.4], passes)
    layers = run.traced_metrics(SimpleNamespace(rep_days=100, horizon=3), tracer.Tracer(),
                                passes, passes)
    for section, values in (("end_to_end", end_to_end), ("per_layer", layers)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert sorted(declared) == sorted(values), section
        assert all(run.UNITS[name] == unit for name, unit in declared.items())
    assert all(value > 0 for value in end_to_end.values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_floor_wall_sums_each_parts_fastest_time():
    passes = [workloads.PassResult(1.0, 1, 0, 100, None, [0.4, 0.5, 0.1]),
              workloads.PassResult(1.1, 1, 0, 100, None, [0.6, 0.3, 0.2])]
    assert run.floor_wall(passes) == pytest.approx(0.8)
    # Passes whose parts do not line up fall back to the fastest pass.
    passes.append(workloads.PassResult(1.05, 1, 0, 100, None, [1.05, 0.0]))
    assert run.floor_wall(passes) == 1.0


def test_self_time_subtracts_the_union_of_child_spans():
    # Span 1 runs 0-100 on the main thread; children 2 and 3 ran on two
    # worker threads over 10-60 and 40-80 (their counters until 62 and 80).
    spans = [(1, 1, 0, "montecarlo", "estimate_causal", 0, 100, 100, 1),
             (1, 2, 1, "montecarlo", "_chunk_stats", 10, 60, 62, 2),
             (1, 3, 1, "montecarlo", "_chunk_stats", 40, 80, 80, 3)]
    assert tracer.self_times(spans) == {1: 30, 2: 50, 3: 40}


def test_tracer_wraps_and_restores_every_binding():
    original = montecarlo.estimate_causal
    decide_batch = vars(montecarlo.ForcedSequenceRule)["decide_batch"]
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
        assert cli.estimate_causal is montecarlo.estimate_causal is not original
        montecarlo.estimate_causal(SirParams(horizon=2), (0, 0), 10, 1)
    finally:
        t.uninstall()
    assert cli.estimate_causal is original and montecarlo.estimate_causal is original
    assert vars(montecarlo.ForcedSequenceRule)["decide_batch"] is decide_batch
    names = {span[4] for span in t.spans}
    assert {"estimate_causal", "_chunk_stats", "sir_step_arrays", "truncated_normal_transform",
            "counter_uniform_array", "ForcedSequenceRule.decide_batch"} <= names
    assert t.counts["sir.lane_steps"] == 20 and t.counts["sir.final_lanes"] == 10


def test_run_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, a run exits non-zero
    without printing a result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures34", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
