"""Command-line interface: outputs, formats, exit codes."""

import configparser
import csv
import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from epibias import cli
from epibias.cli import _attach_dash_values, build_parser, fmt, main
from epibias.config import SETTINGS, ExperimentConfig, dump_config
from epibias.errors import ConfigError
from epibias.finite import (
    coin_epidemic, random_dgp, random_opportunistic_dgp, verify_theorem1,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_fmt_uses_ten_significant_digits():
    assert fmt(0.1234567890123) == "0.123456789"
    assert fmt(1.0) == "1"
    assert fmt(1e-7) == "1e-07"


class TestFigure2:
    def test_writes_trajectory_files(self, tmp_path, capsys):
        out = tmp_path / "fig2"
        assert main(["figure2", "--out", str(out), "--seed", "5"]) == 0
        rows = read_csv(out / "trajectory.csv")
        assert rows[0] == ["t", "s", "i", "r", "y"]
        assert len(rows) == 102  # header + t = 0..100
        assert rows[1][0] == "0" and rows[1][4] == "0.0002"
        assert (out / "trajectory.svg").exists()

    def test_reports_the_files_it_wrote(self, tmp_path, capsys):
        assert main(["figure2", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {tmp_path / name}" for name in ("trajectory.csv", "trajectory.svg")
        ]

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["figure2", "--out", str(a)])
        main(["figure2", "--out", str(b)])
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert (a / "trajectory.svg").read_bytes() == (b / "trajectory.svg").read_bytes()


    # sha256 of the files written before figure2 moved onto the engine's day
    # loop; the trajectory bytes must not move.
    GOLDEN = {
        42: ("04e6620b7c159e35ebd707905edebe445411478f4411867a8d14f3d0340b6ffa",
             "0748942e6aa007938bf740a27967f0ee67d59b189bd79996f885e7e3871c4f4f"),
        5: ("713412b3c3046cf514739bb8b1ebffa0fc0360baccddcfdd648450232c311d58",
            "fd17dde8b1b3809d3093b7926942ce3aabd44eb4bc03ae979cfd695149567723"),
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, capsys, seed):
        assert main(["figure2", "--out", str(tmp_path), "--seed", str(seed)]) == 0
        digests = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("trajectory.csv", "trajectory.svg")
        )
        assert digests == self.GOLDEN[seed]


class TestFigures34:
    def run(self, tmp_path, *extra):
        out = tmp_path / "f34"
        code = main([
            "figures34",
            "--out", str(out),
            "--replicates", "400",
            "--thresholds", "0.05,0.3",
            "--seed", "42",
            *extra,
        ])
        return code, out

    def test_csv_layout(self, tmp_path):
        code, out = self.run(tmp_path)
        assert code == 0
        evo = read_csv(out / "bias_evolution.csv")
        assert evo[0] == ["threshold", "t", "causal_mean", "associational_mean", "bias"]
        # Two thresholds, t = 0..100 each.
        assert len(evo) == 1 + 2 * 101
        assert evo[1][:2] == ["0.05", "0"]
        assert evo[1][2] == evo[1][3] == "0.0002"
        assert evo[1][4] == "0"

        summary = read_csv(out / "bias_summary.csv")
        assert summary[0] == [
            "threshold", "causal_T", "associational_T", "bias_T", "retained", "total",
        ]
        assert len(summary) == 3
        # causal column identical across thresholds: one causal run is shared
        assert summary[1][1] == summary[2][1]
        assert summary[1][5] == summary[2][5] == "400"
        assert (out / "bias_evolution.svg").exists()
        assert (out / "bias_summary.svg").exists()

    def test_some_empty_thresholds_still_succeed(self, tmp_path, capsys):
        out = tmp_path / "partial"
        code = main([
            "figures34", "--out", str(out), "--replicates", "300",
            "--thresholds", "0.0001,0.4", "--seed", "1",
        ])
        assert code == 0
        summary = read_csv(out / "bias_summary.csv")
        empty_row = summary[1]
        assert empty_row[0] == "0.0001"
        assert empty_row[2] == "" and empty_row[3] == ""
        assert empty_row[4] == "0"
        # The impossible threshold contributes no evolution rows.
        evo = read_csv(out / "bias_evolution.csv")
        assert all(r[0] != "0.0001" for r in evo[1:])

    def test_reports_each_threshold_and_each_file(self, tmp_path, capsys):
        out = tmp_path / "partial"
        code = main([
            "figures34", "--out", str(out), "--replicates", "300",
            "--thresholds", "0.0001,0.4", "--seed", "1",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("causal mean Y_T = ") and lines[0].endswith(" (300 replicates)")
        assert lines[1] == "threshold 0.0001: no retained trajectories (300 simulated)"
        assert lines[2].startswith("threshold 0.4: retained ") and "/300, bias " in lines[2]
        assert lines[3:] == [f"wrote {out / name}" for name in (
            "bias_evolution.csv", "bias_summary.csv", "bias_evolution.svg", "bias_summary.svg")]

    def test_all_empty_thresholds_exit_3(self, tmp_path, capsys):
        out = tmp_path / "empty"
        code = main([
            "figures34", "--out", str(out), "--replicates", "200",
            "--thresholds", "0.0001", "--seed", "1",
        ])
        assert code == 3
        # The summary is still written for diagnosis.
        summary = read_csv(out / "bias_summary.csv")
        assert summary[1][4] == "0"
        assert not (out / "bias_summary.svg").exists()

    # sha256 of bias_evolution.csv, bias_summary.csv, bias_evolution.svg and
    # bias_summary.svg at seed 42, default thresholds, 9,888 = 8,192 + 1,696
    # replicates (a full chunk and a short one).  The CSVs were recorded
    # before associational replicates were retired from the day loop at their
    # first divergence, the SVGs before figures34 was built in one pass; the
    # bytes must not move.
    FILES = ("bias_evolution.csv", "bias_summary.csv", "bias_evolution.svg", "bias_summary.svg")
    GOLDEN = {
        "full-path": ("10947f385ff96b39cb27ea249334a391d13b413813c94bc8dc8ff8c3c760acad",
                      "ad5121d32603c0cdd136f70357c7d587e6b700c1318d6f988976dfe145e32f63",
                      "7b58b0ce4dd3dd6a08956695070b90f0eca7a6eeb59eaf5dc70a5a021c5d5887",
                      "62cce22b1f6be802334acb9c8bd389aea8f1f60cb2f15d3e8baeec6980bb0771"),
        "per-time": ("ddab8a23f4fb29c6c61f74c0695318024416a0b07a2c04c9d059cecaff23d03e",
                     "ad5121d32603c0cdd136f70357c7d587e6b700c1318d6f988976dfe145e32f63",
                     "53ef7075c6641dc208d850e631d91bca5c519c6851adcba55798ebdf874cf1ee",
                     "62cce22b1f6be802334acb9c8bd389aea8f1f60cb2f15d3e8baeec6980bb0771"),
    }
    GOLDEN_ARGV = ["figures34", "--seed", "42", "--replicates", "9888"]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("conditioning", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, capsys, conditioning, threads):
        code = main([*self.GOLDEN_ARGV, "--out", str(tmp_path), "--conditioning", conditioning,
                     "--threads", str(threads)])
        assert code == 0
        digests = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in self.FILES
        )
        assert digests == self.GOLDEN[conditioning]

    @pytest.mark.parametrize("conditioning", sorted(GOLDEN))
    def test_golden_partial_run_stdout(self, tmp_path, capsys, conditioning):
        code, captured = run_main([*self.GOLDEN_ARGV, "--out", str(tmp_path), "--conditioning",
                                   conditioning, "--thresholds", "0.0001,0.4"], capsys)
        assert code == 0 and captured.err == ""
        assert captured.out.splitlines() == [
            "causal mean Y_T = 0.7559477278 (9888 replicates)",
            "threshold 0.0001: no retained trajectories (9888 simulated)",
            "threshold 0.4: retained 342/9888, bias -0.538949305",
            *(f"wrote {tmp_path / name}" for name in self.FILES),
        ]

    @pytest.mark.parametrize("conditioning", sorted(GOLDEN))
    def test_golden_partial_run_one_point_summary_chart(self, tmp_path, capsys, conditioning):
        # One threshold retains, so the final-bias chart holds one point,
        # drawn as a circle; recorded before the chart elements were drawn
        # through shared helpers.
        code = main([*self.GOLDEN_ARGV, "--out", str(tmp_path), "--conditioning", conditioning,
                     "--thresholds", "0.0001,0.4"])
        assert code == 0
        digest = hashlib.sha256((tmp_path / "bias_summary.svg").read_bytes()).hexdigest()
        assert digest == "523b9b86eb26dffffcffa7efc486e66ac99fe7b13bb0f543a20d0145a966bfd4"

    @pytest.mark.parametrize("conditioning", sorted(GOLDEN))
    def test_golden_all_empty_run(self, tmp_path, capsys, conditioning):
        # Exit 3 still writes both CSVs for diagnosis, and neither SVG.
        code, captured = run_main([*self.GOLDEN_ARGV, "--out", str(tmp_path), "--conditioning",
                                   conditioning, "--thresholds", "0.0001"], capsys)
        assert code == 3
        assert captured.err == "error: conditioning was empty at every threshold\n"
        assert captured.out.splitlines() == [
            "causal mean Y_T = 0.7559477278 (9888 replicates)",
            "threshold 0.0001: no retained trajectories (9888 simulated)",
            *(f"wrote {tmp_path / name}" for name in self.FILES[:2]),
        ]
        assert sorted(os.listdir(tmp_path)) == sorted(self.FILES[:2])
        assert (tmp_path / "bias_evolution.csv").read_bytes() == (
            b"threshold,t,causal_mean,associational_mean,bias\n")
        assert (tmp_path / "bias_summary.csv").read_bytes() == (
            b"threshold,causal_T,associational_T,bias_T,retained,total\n"
            b"0.0001,0.7559477278,,,0,9888\n")


def rename_key(table, t, old, new):
    def mutate(data):
        data[table][t][new] = data[table][t].pop(old)
    return mutate


def set_row(table, t, key, row):
    def mutate(data):
        data[table][t][key] = row
    return mutate


# Edits of a coin-epidemic instance JSON, each of which breaks it, with a
# phrase the error message must contain.
MUTATIONS = {
    "outcome key out of range":
        (rename_key("outcome_kernels", "1", "a=0;y=0", "a=0;y=9"), "'a=0;y=9'"),
    "rule key negative":
        (rename_key("rule_kernels", "1", "a=0;y=0,1", "a=0;y=0,-1"), "'a=0;y=0,-1'"),
    "treatment key out of range":
        (rename_key("outcome_kernels", "1", "a=0;y=0", "a=2;y=0"), "'a=2;y=0'"),
    "key too long": (rename_key("outcome_kernels", "1", "a=0;y=0", "a=0;y=0,0"), "'a=0;y=0,0'"),
    "duplicate key": (rename_key("outcome_kernels", "1", "a=0;y=1", "a=0;y=00"), "'a=0;y=00'"),
    "missing key":
        (lambda data: data["outcome_kernels"]["2"].pop("a=1,1;y=0,2"), "expected 36 rows"),
    "empty table": (lambda data: data["outcome_kernels"].update({"1": {}}), "got 0"),
    "bad key separator": (rename_key("outcome_kernels", "1", "a=0;y=0", "a=0|y=0"), "'a=0|y=0'"),
    "non-integral treatment":
        (lambda data: data.update(treatment_values=[0.5, 1]), "must be an integer"),
    "non-integral initial index":
        (lambda data: data.update(initial_outcome_index=0.7), "must be an integer"),
    "non-integral horizon": (lambda data: data.update(horizon=2.5), "must be an integer"),
    "unreachable target": (
        set_row("rule_kernels", "0", "a=;y=0", [0.0, 1.0]),
        "treatment path (0, 0) has probability zero",
    ),
    "short row": (set_row("outcome_kernels", "1", "a=0;y=0", [0.5, 0.5]), "2 entries"),
    "null row": (set_row("outcome_kernels", "1", "a=0;y=0", None), "malformed"),
    "nan entry":
        (set_row("outcome_kernels", "1", "a=0;y=0", [float("nan"), 0.5, 0.5]), "non-finite"),
    "horizon 30": (lambda data: data.update(horizon=30),
                   "error: (3 outcomes x 2 treatments)^30 exceeds the 10000000 path cap"),
    "empty outcome alphabet": (lambda data: data.update(outcome_values=[]), "outside alphabet"),
    "empty treatment alphabet": (lambda data: data.update(treatment_values=[]), "not empty"),
    "kernels not a mapping": (lambda data: data.update(rule_kernels=[]), "malformed"),
    "boolean horizon": (lambda data: data.update(horizon=True), "horizon must be an integer"),
    "string probabilities": (
        set_row("outcome_kernels", "1", "a=0;y=0", ["0.5", "0.5", "0.0"]),
        "entries must be numbers",
    ),
    "string outcome values": (
        lambda data: data.update(outcome_values=["0", "1", "2"]), "outcome values must be a number"
    ),
    "string initial index": (
        lambda data: data.update(initial_outcome_index="0"),
        "initial outcome index must be an integer",
    ),
    "boolean treatments": (
        lambda data: data.update(treatment_values=[False, True]),
        "treatment value must be an integer",
    ),
    "boolean rule row":
        (set_row("rule_kernels", "0", "a=;y=0", [True, False]), "entries must be numbers"),
    "extra outcome table": (
        lambda data: data["outcome_kernels"].update({"7": data["outcome_kernels"]["1"]}), "'7'"
    ),
    "padded table key": (
        lambda data: data["outcome_kernels"].update(
            {"01": {**data["outcome_kernels"]["1"], "a=0;y=0": [0.0, 1.0, 0.0]}}
        ),
        "'01'",
    ),
}


class TestOracle:
    def test_builtin_instance(self, tmp_path, capsys):
        out = tmp_path / "orc"
        assert main(["oracle", "coin-epidemic", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "bias: -0.5" in stdout
        rows = read_csv(out / "oracle_report.csv")
        assert rows[0] == ["kind", "t", "history", "outcome", "value"]
        by_kind = {r[0] for r in rows[1:]}
        assert {"g_formula", "associational", "bias", "ratio", "adaptation"} <= by_kind

    def test_builtin_instance_summary(self, tmp_path, capsys):
        out = tmp_path / "orc"
        assert main(["oracle", "coin-epidemic", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "instance: coin-epidemic (horizon 2)",
            "target treatment path: (0, 0)",
            "g-formula mean final outcome: 1.1",
            "associational mean final outcome: 0.6",
            "bias: -0.5",
            "times with nonconstant ratio: [1]",
            "opportunistic at every such time: True",
            "theorem respected: True",
            f"wrote {out / 'oracle_report.csv'}",
        ]

    def test_json_instance(self, tmp_path):
        payload = tmp_path / "dgp.json"
        payload.write_text(json.dumps(coin_epidemic().to_dict()))
        out = tmp_path / "orc"
        assert main(["oracle", str(payload), "--out", str(out)]) == 0

    def test_zero_witness_margin_is_not_a_violation(self, tmp_path, capsys):
        # The 690th random_dgp draw at seed 2026 is opportunistic at its one
        # nonconstant time, but with witness margin 0: the bias is rounding.
        rng = np.random.default_rng(2026)
        for _ in range(689):
            random_dgp(rng)
        payload = tmp_path / "dgp.json"
        payload.write_text(json.dumps(random_dgp(rng).to_dict()))
        assert main(["oracle", str(payload), "--out", str(tmp_path / "o")]) == 0
        stdout = capsys.readouterr().out
        assert "bias: 4.440892099e-16" in stdout
        assert "opportunistic at every such time: True" in stdout
        assert "theorem respected: True" in stdout

    def test_unknown_instance_exits_2(self, tmp_path, capsys):
        assert main(["oracle", "no-such-thing", "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_kernel_entry_exits_2(self, tmp_path, capsys, value):
        data = coin_epidemic().to_dict()
        row = next(iter(data["outcome_kernels"]["1"].values()))
        row[0] = value
        payload = tmp_path / "dgp.json"
        payload.write_text(json.dumps(data))
        assert main(["oracle", str(payload), "--out", str(tmp_path / "o")]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_outcome_value_exits_2(self, tmp_path, capsys, value):
        data = coin_epidemic().to_dict()
        data["outcome_values"][-1] = value
        payload = tmp_path / "dgp.json"
        payload.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main(["oracle", str(payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "outcome values must be finite" in err
        assert not (out / "oracle_report.csv").exists()

    def test_invalid_json_instance_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"horizon": 1}))
        assert main(["oracle", str(bad), "--out", str(tmp_path / "o")]) == 2

    # sha256 of oracle_report.csv, recorded before the kernel tables became
    # arrays: the three built-ins, then the first two
    # random_opportunistic_dgp(default_rng(42)) instances read back from JSON.
    GOLDEN = {
        "coin-epidemic": "cdde8bf72694c8f807722b203e7b9b18959275232b85f37a36650758d8af5a2c",
        "reversed-coin-epidemic":
            "c55a420c94102e5d460deef2ed5bb95352989e90ba1d8e23454d6fca950c1c51",
        "exogenous-null": "9911721d941f4a9b5e0a7450ee247bb4a042c8854494d1a62240ecf816ce7465",
    }
    GOLDEN_GENERATED = (
        "05812b98a8bf5d1a5151394d2247a1878a876886e0d13c91c58bdcd9cb8f23a1",
        "9949b56974bacdfe79ed26b707bb06da7c218f3d9bf5c5daf71e6fc8bbb17c37",
    )

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, capsys, name):
        assert main(["oracle", name, "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "oracle_report.csv").read_bytes()).hexdigest()
        assert digest == self.GOLDEN[name]

    def test_golden_bytes_generated_instances(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        for index, golden in enumerate(self.GOLDEN_GENERATED):
            dgp, _ = random_opportunistic_dgp(rng)
            payload = tmp_path / f"dgp{index}.json"
            payload.write_text(json.dumps(dgp.to_dict()))
            out = tmp_path / f"o{index}"
            assert main(["oracle", str(payload), "--out", str(out)]) == 0
            digest = hashlib.sha256((out / "oracle_report.csv").read_bytes()).hexdigest()
            assert digest == golden

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_invalid_instance_exits_2(self, tmp_path, capsys, mutation):
        mutate, phrase = MUTATIONS[mutation]
        data = coin_epidemic().to_dict()
        mutate(data)
        payload = tmp_path / "dgp.json"
        payload.write_text(json.dumps(data))
        out = tmp_path / "o"
        # Returning at all means no exception escaped to the user.
        assert main(["oracle", str(payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and phrase in err and "Traceback" not in err
        assert not (out / "oracle_report.csv").exists()

    # Repeats that plain json.load would settle silently by keeping the last
    # value: (text in the coin-epidemic JSON, what is added right after it,
    # the repeated key).  The row repeat ran to exit 0 with bias -0.75.
    REPEATS = {
        "row": ('"a=0;y=0": [0.5, 0.5, 0.0]', ', "a=0;y=0": [0.25, 0.75, 0.0]', "'a=0;y=0'"),
        "table": ('"outcome_kernels": {', '"1": {}, ', "'1'"),
        "top level": ('"horizon": 2', ', "horizon": 2', "'horizon'"),
    }

    @pytest.mark.parametrize("place", sorted(REPEATS))
    def test_repeated_key_exits_2(self, tmp_path, capsys, place):
        anchor, added, key = self.REPEATS[place]
        text = json.dumps(coin_epidemic().to_dict())
        assert text.count(anchor) == 1
        payload = tmp_path / "dgp.json"
        payload.write_text(text.replace(anchor, anchor + added))
        out = tmp_path / "o"
        assert main(["oracle", str(payload), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"key {key} repeats" in err
        assert not (out / "oracle_report.csv").exists()

    def test_undecodable_instance_exits_2(self, tmp_path, capsys):
        payload = tmp_path / "dgp.json"
        payload.write_bytes(b'{"horizon": "\xff"}')
        assert main(["oracle", str(payload), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "invalid JSON" in err and "Traceback" not in err


class TestFuzzTheorem:
    def test_small_sweep_passes(self, capsys):
        assert main(["fuzz-theorem", "--count", "3", "--seed", "11"]) == 0
        stdout = capsys.readouterr().out
        assert "0 violations" in stdout


    def test_checks_100_instances_by_default(self, capsys):
        assert main(["fuzz-theorem", "--seed", "11"]) == 0
        assert capsys.readouterr().out.startswith("checked 100 opportunistic instances: ")

    def test_one_instance_is_enough(self, capsys):
        assert main(["fuzz-theorem", "--count", "1", "--seed", "11"]) == 0
        assert capsys.readouterr().out == (
            "checked 1 opportunistic instances: 1 respected the negative-bias theorem, "
            "0 violations\n"
        )

    def test_violations_exit_1_and_are_counted(self, monkeypatch, capsys):
        def refuted(dgp, target):
            return dataclasses.replace(verify_theorem1(dgp, target), theorem_respected=False)

        monkeypatch.setattr("epibias.cli.verify_theorem1", refuted)
        assert main(["fuzz-theorem", "--count", "2", "--seed", "11"]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "checked 2 opportunistic instances: 0 respected the negative-bias theorem, "
            "2 violations\n"
        )
        assert [line.split(":")[0] for line in captured.err.splitlines()] == [
            "VIOLATION at instance 0", "VIOLATION at instance 1"]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_exits_2(self, capsys, count):
        assert main(["fuzz-theorem", "--count", count, "--seed", "11"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--count" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestConfigHandling:
    def test_print_config_round_trips(self, tmp_path, capsys):
        assert main(["print-config"]) == 0
        text = capsys.readouterr().out
        cfg_file = tmp_path / "echo.ini"
        cfg_file.write_text(text)
        assert main(["print-config", "--config", str(cfg_file)]) == 0
        assert capsys.readouterr().out == text

    def test_config_file_applies(self, tmp_path, capsys):
        cfg = tmp_path / "small.ini"
        cfg.write_text("[sir]\nhorizon = 3\n\n[experiment]\nseed = 123\n")
        assert main(["print-config", "--config", str(cfg)]) == 0
        text = capsys.readouterr().out
        assert "horizon = 3" in text
        assert "seed = 123" in text

    def test_flag_overrides_beat_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "base.ini"
        cfg.write_text("[experiment]\nseed = 1\n")
        assert main(["print-config", "--config", str(cfg), "--seed", "99"]) == 0
        assert "seed = 99" in capsys.readouterr().out

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[experiment]\nthreads = zero\n")
        assert main(["print-config", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["population", "initial_infected", "beta", "gamma",
                                     "lambda", "overdispersion", "horizon"])
    def test_non_finite_sir_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[sir]\n{key} = {value}\n")
        code = main(["figures34", "--config", str(cfg), "--replicates", "50",
                     "--thresholds", "0.3", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["horizon = 1000000000000", "population = 1e308"],
                             ids=["horizon", "population"])
    def test_unrunnable_sir_value_exits_2(self, tmp_path, capsys, line):
        # A horizon past the chunk memory budget, and a population whose
        # day-1 infection drift overflows, are rejected before anything runs.
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[sir]\n{line}\n")
        code = main(["figures34", "--config", str(cfg), "--replicates", "1",
                     "--thresholds", "0.3", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_mid_run_overflow_exits_2(self, tmp_path, capsys):
        # Day 1 is finite, but beta * S * I overflows once the epidemic grows
        # (about day 2,500); the run stops there and writes nothing.
        cfg = tmp_path / "big.ini"
        cfg.write_text("[sir]\npopulation = 1e160\nhorizon = 4000\n")
        code = main(["figure2", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "overflowed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["figures34", "print-config"])
    @pytest.mark.parametrize("flag", ["--threads", "--replicates", "--seed"])
    def test_count_past_2_64_exits_2(self, tmp_path, capsys, command, flag):
        # The config asks the engine's own checks, so the CLI refuses what a
        # Pass refuses; a thread count past 2**64 once escaped as a traceback.
        code = main([command, flag, str(2**70), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert flag[2:] in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,flags,ini", [
        ("seed", ["--seed", "-1"], None),
        ("lambda", [], "[sir]\nlambda = nan\n"),
    ], ids=["seed", "lambda"])
    def test_error_names_the_setting(self, tmp_path, capsys, key, flags, ini):
        # Not the library's parameter (master_seed, lam) that the value reaches.
        if ini is not None:
            (tmp_path / "bad.ini").write_text(ini)
            flags = ["--config", str(tmp_path / "bad.ini")]
        code, captured = run_main(["print-config", *flags], capsys)
        assert code == 2 and captured.err.startswith(f"error: {key} must be ")

    def test_bad_flag_value_exits_2(self, capsys):
        assert main(["figures34", "--thresholds", "pancake"]) == 2

    def test_unwritable_output_exits_4(self, capsys):
        assert main(["figure2", "--out", "/proc/definitely-not-writable"]) == 4
        assert capsys.readouterr().err.startswith(  # naming the path
            "error: I/O failure (/proc/definitely-not-writable): ")

    @pytest.mark.parametrize("argv,blocked,written", [
        (["figure2"], "trajectory.svg", ["trajectory.csv"]),
        (["figures34", "--replicates", "400", "--thresholds", "0.05,0.3"], "bias_evolution.svg",
         ["bias_evolution.csv", "bias_summary.csv"]),
        (["oracle", "coin-epidemic"], "oracle_report.csv", []),
    ], ids=["figure2", "figures34", "oracle"])
    def test_io_failure_mid_command_exits_4(self, tmp_path, capsys, argv, blocked, written):
        # A directory where an output file goes stops the command there; each
        # file written before it has its `wrote` line, and no other has one.
        (tmp_path / blocked).mkdir()
        code, captured = run_main([*argv, "--out", str(tmp_path)], capsys)
        assert code == 4 and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: I/O failure ({tmp_path / blocked}): ")
        assert [line for line in captured.out.splitlines() if line.startswith("wrote ")] == [
            f"wrote {tmp_path / name}" for name in written]
        assert sorted(os.listdir(tmp_path)) == sorted([blocked, *written])

    def test_interrupt_exits_130_with_one_line(self, tmp_path, monkeypatch, capsys):
        # Ctrl-C during a run ends it with one error line, not a traceback.
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "estimate_causal", interrupted)
        code, captured = run_main(["figures34", "--out", str(tmp_path / "out")], capsys)
        assert code == 130 and captured.out == ""
        assert captured.err == "error: interrupted\n"
        assert not (tmp_path / "out").exists()


# Strings a hand-written INI value or flag might hold: non-finite and extreme
# floats, signed zero, configparser interpolation syntax, empty, hex, booleans,
# an integer past 2**64 and a negative one.
HOSTILE = ["nan", "inf", "-inf", "1e308", "1e400", "0", "-0", "5e-324", "%", "%%",
           "%(seed)s", "", "0x10", "True", "1180591620717411303424", "-1"]


def run_main(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr()


class TestSettingsBoundary:
    def test_percent_in_out_is_literal_and_round_trips(self, tmp_path, capsys):
        cfg = tmp_path / "pct.ini"
        cfg.write_text("[experiment]\nout = 100%dir\n")
        code, captured = run_main(["print-config", "--config", str(cfg)], capsys)
        assert code == 0 and "out = 100%dir\n" in captured.out
        echo = tmp_path / "echo.ini"
        echo.write_text(captured.out)
        assert run_main(["print-config", "--config", str(echo)], capsys) == (code, captured)

    def test_percent_in_out_flag(self, capsys):
        code, captured = run_main(["print-config", "--out", "a%b"], capsys)
        assert code == 0 and "out = a%b\n" in captured.out and captured.err == ""

    @pytest.mark.parametrize("value", ["%", "%(seed)s"])
    def test_percent_threshold_exits_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "pct.ini"
        cfg.write_text(f"[experiment]\nthresholds = {value}\n")
        code, captured = run_main(["print-config", "--config", str(cfg)], capsys)
        assert code == 2 and captured.err.startswith("error:")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_default_section_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "default.ini"
        cfg.write_text("[DEFAULT]\nseed = 5\n")
        code, captured = run_main(["print-config", "--config", str(cfg)], capsys)
        assert code == 2 and captured.err == "error: unknown config section [DEFAULT]\n"

    @pytest.mark.parametrize("source", ["ini", "flag"])
    def test_empty_out_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, source):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "empty.ini"
        cfg.write_text("[experiment]\nout =\n")
        argv = ["figure2", "--config", str(cfg)] if source == "ini" else ["figure2", "--out", ""]
        code, captured = run_main(argv, capsys)
        assert code == 2 and captured.err.startswith("error:") and "out" in captured.err
        assert os.listdir(tmp_path) == ["empty.ini"]

    @pytest.mark.parametrize("source", ["ini", "flag"])
    def test_nul_in_out_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, source):
        # os refuses such a path with ValueError, which once escaped as a traceback.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "nul.ini"
        cfg.write_text("[experiment]\nout = a\0b\n")
        argv = ["--config", str(cfg)] if source == "ini" else ["--out", "a\0b"]
        code, captured = run_main(["figures34", "--replicates", "20", *argv], capsys)
        assert code == 2 and captured.out == ""
        assert captured.err == "error: out must not hold a NUL character, got 'a\\x00b'\n"
        assert os.listdir(tmp_path) == ["nul.ini"]

    @pytest.mark.parametrize("source", ["library", "flag", "ini"])
    @pytest.mark.parametrize("char,name", [
        ("\0", "NUL"), ("\n", "line feed"), ("\r", "carriage return"),
    ])
    def test_out_that_cannot_round_trip_is_refused(
        self, tmp_path, monkeypatch, capsys, char, name, source
    ):
        # os refuses a NUL, and a line break in `out` would print INI text
        # that reloads to another value or not at all.
        if source == "library":
            with pytest.raises(ConfigError, match=f"out must not hold a {name} character"):
                ExperimentConfig(out=f"a{char}b")
            return
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.ini"
        # configparser joins an indented continuation line with "\n", and
        # reads "\r" as a line break, so a line break reaches `out` that way.
        value = "a\0b" if char == "\0" else f"a{char}  b"
        cfg.write_bytes(f"[experiment]\nout = {value}\n".encode())
        argv = ["--config", str(cfg)] if source == "ini" else ["--out", f"a{char}b"]
        for command in (["print-config"], ["figures34", "--replicates", "20"]):
            code, captured = run_main([*command, *argv], capsys)
            assert code == 2 and captured.out == "" and "Traceback" not in captured.err
            assert captured.err.startswith("error: out must not hold a ")
            assert captured.err.count("\n") == 1
        assert os.listdir(tmp_path) == ["bad.ini"]

    @pytest.mark.parametrize("text", ["abc", "1.5", "0x10", ""])
    @pytest.mark.parametrize("key", ["seed", "replicates", "threads"])
    def test_flag_parses_like_its_ini_key(self, tmp_path, capsys, key, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[experiment]\n{key} = {text}\n")
        from_file = run_main(["print-config", "--config", str(cfg)], capsys)
        from_flag = run_main(["print-config", f"--{key}", text], capsys)
        assert from_flag == from_file
        code, captured = from_flag
        assert code == 2 and captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("value", HOSTILE)
    @pytest.mark.parametrize("section,key", [(s, k) for s in SETTINGS for k in SETTINGS[s]])
    def test_hostile_value_exits_with_a_documented_code(
        self, tmp_path, monkeypatch, capsys, section, key, value
    ):
        # Each handler that reads the config runs in-process; an exception
        # escaping `main` would fail the test before the assertions.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "hostile.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        for argv, codes in (
            (["print-config"], {0, 2}),
            (["figure2"], {0, 2}),
            (["figures34", "--replicates", "20"], {0, 2, 3}),
        ):
            code, captured = run_main(argv + ["--config", str(cfg)], capsys)
            assert code in codes, (argv, code, captured.err)
            assert "Traceback" not in captured.err
            if code:
                assert captured.err.startswith("error:"), captured.err


def default_texts():
    """(section, key) -> the value text `print-config` writes by default."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(dump_config(ExperimentConfig()))
    return {(s, k): parser[s][k] for s in SETTINGS for k in SETTINGS[s]}


DEFAULT_TEXTS = default_texts()


class TestWhitespace:
    def test_padded_out_flag_round_trips(self, tmp_path, capsys):
        # The INI line print-config writes reloads to the value the flag gave.
        code, captured = run_main(["print-config", "--out", " lead "], capsys)
        assert code == 0 and "out = lead\n" in captured.out
        echo = tmp_path / "echo.ini"
        echo.write_text(captured.out)
        assert run_main(["print-config", "--config", str(echo)], capsys) == (code, captured)

    @pytest.mark.parametrize("section,key", [(s, k) for s in SETTINGS for k in SETTINGS[s]])
    @settings(derandomize=True, max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        core=st.sampled_from(["default", "lead", "per-time", "0.1,0.2", "7"] + HOSTILE),
        before=st.text(" \t", max_size=3),
        after=st.text(" \t", max_size=3),
        flag_space=st.sampled_from(["", "\n", "\r", "\x0b", "\x0c", "\u00a0", "\u2003"]),
    )
    def test_padded_value_reloads_to_the_same_config(
        self, tmp_path, capsys, section, key, core, before, after, flag_space
    ):
        # A padded value, in the INI file or as a flag, loads as the bare
        # value does, and the INI text print-config writes for it reloads to
        # the same config; or it exits 2 with an error line.
        core = DEFAULT_TEXTS[section, key] if core == "default" else core
        cfg = tmp_path / "padded.ini"
        runs = []
        for text in (core, before + core + after):
            cfg.write_text(f"[{section}]\n{key} = {text}\n")
            runs.append(run_main(["print-config", "--config", str(cfg)], capsys))
        if section == "experiment":
            padded = flag_space + before + core + after + flag_space
            for text in (core, padded):
                # `--key=value`, since argparse takes a separate "-inf" for a flag.
                runs.append(run_main(["print-config", f"--{key}={text}"], capsys))
        code, captured = runs[0]
        assert all(run == runs[0] for run in runs), runs
        assert code in (0, 2) and "Traceback" not in captured.err
        if code:
            assert captured.err.startswith("error:") and captured.out == ""
            return
        echo = tmp_path / "echo.ini"
        echo.write_text(captured.out)
        assert run_main(["print-config", "--config", str(echo)], capsys) == runs[0]


# Text a setting might be given: anything, numbers, and the characters INI
# syntax, numbers and lists are made of.
ANY_TEXT = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="0123456789.,+-eEinfa%[]=:;# \t\n\r", max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["full-path", "per-time", "0.05,0.3", "out"]),
)


class TestArbitraryText:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(setting=st.sampled_from([(s, k) for s in SETTINGS for k in SETTINGS[s]]),
           text=ANY_TEXT)
    def test_print_config_round_trips_or_exits_2(self, tmp_path, capsys, setting, text):
        # In the INI file, and as the flag where the key has one: exit 0 with
        # output that reloads to itself, or exit 2 with one error line.
        section, key = setting
        cfg = tmp_path / "any.ini"
        cfg.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
        argvs = [["print-config", "--config", str(cfg)]]
        if section == "experiment":
            argvs.append(["print-config", f"--{key}={text}"])
        for argv in argvs:
            code, captured = run_main(argv, capsys)
            assert "Traceback" not in captured.err
            if code:
                assert code == 2 and captured.out == "", (argv, captured)
                assert captured.err.startswith("error:") and captured.err.count("\n") == 1, (
                    argv, captured.err)
                continue
            echo = tmp_path / "echo.ini"
            echo.write_text(captured.out, encoding="utf-8")
            assert run_main(["print-config", "--config", str(echo)], capsys) == (code, captured)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(setting=st.sampled_from([(s, k) for s in SETTINGS for k in SETTINGS[s]]),
           text=ANY_TEXT)
    def test_figures34_exits_with_a_documented_code(
        self, tmp_path, monkeypatch, capsys, setting, text
    ):
        # The same text through a 20-replicate figures34, which also runs the
        # passes and writes the files: a documented exit code and one error
        # line, or exit 0.  An exception escaping `main` fails the test.
        section, key = setting
        if key == "out":  # the run writes where `out` says; keep that in tmp_path
            assume(not text.strip().startswith("/") and ".." not in text)
        run = tmp_path / "run"
        run.mkdir(exist_ok=True)
        monkeypatch.chdir(run)
        cfg = tmp_path / "any.ini"
        cfg.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
        argv = ["figures34", "--replicates", "20"]
        argvs = [[*argv, "--config", str(cfg)]]
        if section == "experiment" and key != "replicates":  # a flag would replace the 20
            argvs.append([*argv, f"--{key}={text}"])
        for argv in argvs:
            code, captured = run_main(argv, capsys)
            assert code in (0, 2, 3, 4) and "Traceback" not in captured.err, (argv, captured)
            if code:
                assert captured.err.startswith("error:") and captured.err.count("\n") == 1, (
                    argv, captured.err)


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6,
)


class TestArbitraryJson:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_edited_instance_exits_0_or_2(self, tmp_path, capsys, data):
        # One to three edits of the coin-epidemic JSON, anywhere in it: a
        # value replaced, a key or list item deleted, or a number retyped.
        root = [coin_epidemic().to_dict()]
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            parent, key = root, 0
            for _ in range(data.draw(st.integers(0, 5), label="depth")):
                node = parent[key]
                if not isinstance(node, (dict, list)) or not node:
                    break
                parent, key = node, data.draw(st.sampled_from(
                    list(node) if isinstance(node, dict) else range(len(node))))
            value = parent[key]
            edits = ["replace"] + ["delete"] * (parent is not root)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                edits.append("retype")
            edit = data.draw(st.sampled_from(edits), label="edit")
            if edit == "delete":
                del parent[key]
            elif edit == "retype":
                retyped = [float(value), str(value), bool(value)]
                if math.isfinite(value):
                    retyped.append(int(value))
                parent[key] = data.draw(st.sampled_from(retyped), label="retyped")
            else:
                parent[key] = data.draw(JSON_VALUE, label="value")
        payload = tmp_path / "dgp.json"
        payload.write_text(json.dumps(root[0]), encoding="utf-8")
        code, captured = run_main(["oracle", str(payload), "--out", str(tmp_path / "o")], capsys)
        assert "Traceback" not in captured.err
        assert code in (0, 2), (code, captured)
        if code == 2:
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1, (
                captured.err)


class TestDashValues:
    # A flag value that starts with "-" reaches the setting's parser as the
    # `--key=value` form does, instead of being taken for an option.
    @pytest.mark.parametrize("key,value", [
        ("threads", "-inf"), ("seed", "-1"), ("replicates", "-x"),
        ("thresholds", "-0.1,0.2"), ("conditioning", "-full-path"), ("out", "-x"),
    ])
    def test_separate_value_parses_like_the_joined_form(self, capsys, key, value):
        joined = run_main(["print-config", f"--{key}={value}"], capsys)
        assert run_main(["print-config", f"--{key}", value], capsys) == joined
        code, captured = joined
        assert "usage:" not in captured.err and "Traceback" not in captured.err
        if key == "out":
            assert code == 0 and "out = -x\n" in captured.out
        else:
            assert code == 2 and captured.err.startswith("error:")

    def test_option_after_a_flag_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["print-config", "--out", "--seed", "3"])
        assert info.value.code == 2 and "expected one argument" in capsys.readouterr().err

    def test_tokens_after_double_dash_are_left_alone(self):
        assert _attach_dash_values(build_parser(), ["oracle", "--", "--out", "-x"]) == [
            "oracle", "--", "--out", "-x"
        ]

    def test_unambiguous_prefix_counts_as_the_flag(self, capsys):
        joined = run_main(["print-config", "--thresholds=-0.1"], capsys)
        assert run_main(["print-config", "--thresh", "-0.1"], capsys) == joined
        assert joined[0] == 2 and joined[1].err.startswith("error:")

    def test_unambiguous_prefix_takes_a_dash_value(self):
        # "-x" is no number, so argparse alone would take it for an option.
        assert _attach_dash_values(build_parser(), ["print-config", "--thresh", "-x"]) == [
            "print-config", "--thresh=-x"]

    def test_a_joined_option_after_a_flag_is_still_an_option(self):
        argv = ["print-config", "--out", "--seed=3"]
        assert _attach_dash_values(build_parser(), argv) == argv

    def test_tokens_after_a_rewritten_pair_are_kept(self):
        argv = ["print-config", "--out", "-x", "--seed", "3"]
        assert _attach_dash_values(build_parser(), argv) == [
            "print-config", "--out=-x", "--seed", "3"]

    def test_the_first_token_is_read_too(self):
        assert _attach_dash_values(build_parser(), ["--seed", "-1"]) == ["--seed=-1"]

    def test_joined_flag_leaves_the_next_token_alone(self):
        argv = ["print-config", "--out=-x", "-y"]
        assert _attach_dash_values(build_parser(), argv) == argv

    @pytest.mark.parametrize("key", sorted(SETTINGS["experiment"]))
    def test_double_dash_value_parses_like_its_ini_key(self, tmp_path, capsys, key):
        # argparse hands `--key=--` over as an empty list, which once escaped
        # as a traceback.
        cfg = tmp_path / "dash.ini"
        cfg.write_text(f"[experiment]\n{key} = --\n")
        from_file = run_main(["print-config", "--config", str(cfg)], capsys)
        from_flag = run_main(["print-config", f"--{key}=--"], capsys)
        assert from_flag == from_file
        code, captured = from_flag
        assert "Traceback" not in captured.err
        if key == "out":
            assert code == 0 and "out = --\n" in captured.out
        else:
            assert code == 2 and captured.err.startswith("error:")
