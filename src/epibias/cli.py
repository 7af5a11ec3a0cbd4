"""Command-line front end.

Subcommands:

* `figure2`      one no-intervention epidemic trajectory -> CSV + SVG
* `figures34`    bias of the associational estimate across intervention
                 thresholds -> evolution CSV, summary CSV, two SVGs
* `oracle`       exact analysis of a small tabular instance (built-in name
                 or JSON file) -> report CSV + stdout summary
* `fuzz-theorem` randomized negative-bias check on generated opportunistic
                 instances
* `print-config` dump the effective configuration as reloadable INI

Exit codes: 0 success, 1 property violations (fuzz), 2 configuration or
validation errors, including SIR arithmetic that overflows mid-run (for
`oracle` also a target path the instance's rule never follows), 3 empty
conditioning at every threshold, 4 I/O errors, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .charts import LineSeries, render_line_chart
from .config import (
    SETTINGS,
    ExperimentConfig,
    apply_overrides,
    dump_config,
    load_config,
    parse_setting,
)
from .errors import (
    ConfigError,
    EmptyConditioningError,
    InstanceTooLargeError,
    KernelValidationError,
    UndefinedConditionalError,
)
from .finite import (
    BUILTIN_INSTANCES,
    FiniteDgp,
    random_opportunistic_dgp,
    verify_theorem1,
)
from .montecarlo import (
    CONDITIONING_MODES,
    estimate_associational,
    estimate_causal,
    simulate,
)
from .policies import ForcedSequenceRule
from .streams import derive_substream_seed, stream_keys


def fmt(value: float) -> str:
    """Fixed 10-significant-digit numeric formatting for CSV cells."""
    return format(float(value), ".10g")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_outputs(out: str, csvs: list[tuple], svgs: list[tuple[str, str]]) -> None:
    """Create `out`, write each (name, header, rows) CSV and then each
    (name, text) SVG into it, and print `wrote <path>` as each is written."""
    os.makedirs(out, exist_ok=True)
    for write, files in ((_write_csv, csvs), (_write_text, svgs)):
        for name, *content in files:
            path = os.path.join(out, name)
            write(path, *content)
            print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def run_figure2(args, config: ExperimentConfig) -> int:
    params = config.sir
    keys = stream_keys(derive_substream_seed(config.seed, 2), [0])
    rule = ForcedSequenceRule((0,) * params.horizon)
    sir = [(params.population - params.initial_infected, params.initial_infected, 0.0)]
    sir += [(s.item(), i.item(), r.item()) for *_, s, i, r in simulate(params, rule, keys)]
    rows = [
        [str(t), fmt(s), fmt(i), fmt(r), fmt(1.0 - s / params.population)]
        for t, (s, i, r) in enumerate(sir)
    ]
    days = tuple(float(t) for t in range(len(sir)))
    chart = render_line_chart(
        [LineSeries(label, days, series)
         for label, series in zip(("susceptible", "infected", "recovered"), zip(*sir))],
        title="Epidemic trajectory without intervention",
        x_label="day",
        y_label="individuals",
    )
    _write_outputs(config.out, [("trajectory.csv", ["t", "s", "i", "r", "y"], rows)],
                   [("trajectory.svg", chart)])
    return 0


def run_figures34(args, config: ExperimentConfig) -> int:
    params = config.sir
    causal = estimate_causal(
        params, (0,) * params.horizon, config.replicates,
        derive_substream_seed(config.seed, 0), config.threads,
    )
    print(f"causal mean Y_T = {fmt(causal.mean)} ({config.replicates} replicates)")

    # One associational pass scores every threshold; a threshold that
    # retains nothing adds only its summary row.
    days = tuple(float(t) for t in range(params.horizon + 1))
    y0 = fmt(params.initial_outcome)
    evolution_rows, summary_rows, curves, finals = [], [], [], []
    for threshold, rule in zip(config.thresholds, config.shared_pass.rules):
        try:
            estimate = estimate_associational(config.shared_pass, rule)
        except EmptyConditioningError as exc:
            print(f"threshold {threshold:g}: no retained trajectories "
                  f"({exc.replicates_total} simulated)")
            summary_rows.append(
                [fmt(threshold), fmt(causal.mean), "", "", "0", str(config.replicates)])
            continue
        bias = estimate.mean - causal.mean
        print(
            f"threshold {threshold:g}: retained "
            f"{estimate.replicates_retained}/{estimate.replicates_total}, bias {fmt(bias)}"
        )
        evolution_rows.append([fmt(threshold), "0", y0, y0, "0"])
        biases = [0.0]
        for t, (c, a) in enumerate(zip(causal.per_time_means, estimate.per_time_means), 1):
            evolution_rows.append([fmt(threshold), str(t), fmt(c), fmt(a), fmt(a - c)])
            biases.append(a - c)
        curves.append(LineSeries(f"threshold {threshold:g}", days, tuple(biases)))
        finals.append((threshold, bias))
        summary_rows.append([
            fmt(threshold), fmt(causal.mean), fmt(estimate.mean), fmt(bias),
            str(estimate.replicates_retained), str(estimate.replicates_total),
        ])

    svgs = [] if not curves else [
        ("bias_evolution.svg", render_line_chart(
            curves,
            title="Bias of the associational estimate over time",
            x_label="day",
            y_label="associational minus causal mean",
        )),
        ("bias_summary.svg", render_line_chart(
            [LineSeries("final bias", *zip(*finals))],
            title="Final-time bias by intervention threshold",
            x_label="threshold",
            y_label="associational minus causal mean",
        )),
    ]
    _write_outputs(config.out, [
        ("bias_evolution.csv", ["threshold", "t", "causal_mean", "associational_mean", "bias"],
         evolution_rows),
        ("bias_summary.csv",
         ["threshold", "causal_T", "associational_T", "bias_T", "retained", "total"],
         summary_rows),
    ], svgs)
    if not curves:
        print("error: conditioning was empty at every threshold", file=sys.stderr)
        return 3
    return 0


def _load_instance(name: str) -> FiniteDgp:
    if name in BUILTIN_INSTANCES:
        return BUILTIN_INSTANCES[name]()
    try:
        with open(name, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(
            f"{name!r} is not a built-in instance "
            f"({', '.join(sorted(BUILTIN_INSTANCES))}) and cannot be read as a "
            f"file: {exc}"
        ) from exc
    except ValueError as exc:  # malformed JSON or UTF-8, or a repeated key
        raise ConfigError(f"instance file {name}: invalid JSON: {exc}") from exc
    return FiniteDgp.from_dict(data)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key it repeats (json keeps the last)."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"key {key!r} repeats in one object")
        data[key] = value
    return data


def _bool_cell(flag: bool) -> str:
    return "true" if flag else "false"


def run_oracle(args, config: ExperimentConfig) -> int:
    try:
        dgp = _load_instance(args.instance)
        report = verify_theorem1(dgp, (dgp.treatment_values[0],) * dgp.horizon)
    except (KernelValidationError, InstanceTooLargeError, UndefinedConditionalError) as exc:
        # An unreachable target leaves the associational mean undefined.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    opportunistic = report.opportunistic
    rows = [
        ["g_formula", "", "", "", fmt(report.g_formula)],
        ["associational", "", "", "", fmt(report.associational)],
        ["bias", "", "", "", fmt(report.bias)],
    ]
    for tc in opportunistic.per_time:
        t = str(tc.t)
        rows.append(["opportunistic", t, "", "", _bool_cell(tc.opportunistic)])
        rows.append(["condition_i", t, "", "", _bool_cell(tc.condition_i)])
        rows.append(["condition_ii", t, "", "", _bool_cell(tc.condition_ii)])
        rows.append(["witness_margin", t, "", "", fmt(tc.witness_margin)])
        rows.append(["skipped_histories", t, "", "", str(tc.skipped)])
        for hc in tc.histories:
            history = "|".join(fmt(y) for y in hc.outcomes)
            for y in sorted(hc.partition.ratios):
                if y in hc.partition.upweighted:
                    label = "upweighted"
                elif y in hc.partition.downweighted:
                    label = "downweighted"
                else:
                    label = "neutral"
                rows.append(["ratio", t, history, fmt(y), fmt(hc.partition.ratios[y])])
                rows.append(["adaptation", t, history, fmt(y), label])
                rows.append(["expectation", t, history, fmt(y), fmt(hc.expectations[y])])
            rows.append(["history_margin", t, history, "", fmt(hc.margin)])
            rows.append(["distortion_mass", t, history, "", fmt(hc.distortion_mass)])
    rows.append(
        ["opportunistic_everywhere", "", "", "",
         _bool_cell(opportunistic.opportunistic_everywhere)]
    )
    rows.append(["has_nonconstant", "", "", "", _bool_cell(opportunistic.has_nonconstant)])
    rows.append(["theorem_respected", "", "", "", _bool_cell(report.theorem_respected)])

    adaptive = [tc.t for tc in opportunistic.per_time if tc.nonconstant]
    print(f"instance: {args.instance} (horizon {dgp.horizon})")
    print(f"target treatment path: {opportunistic.target}")
    print(f"g-formula mean final outcome: {fmt(report.g_formula)}")
    print(f"associational mean final outcome: {fmt(report.associational)}")
    print(f"bias: {fmt(report.bias)}")
    print(f"times with nonconstant ratio: {adaptive}")
    print(f"opportunistic at every such time: {opportunistic.opportunistic_everywhere}")
    print(f"theorem respected: {report.theorem_respected}")
    _write_outputs(config.out,
                   [("oracle_report.csv", ["kind", "t", "history", "outcome", "value"], rows)], [])
    return 0


def run_fuzz_theorem(args, config: ExperimentConfig) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    rng = np.random.default_rng(config.seed)
    violations = 0
    for index in range(args.count):
        dgp, target = random_opportunistic_dgp(rng)
        report = verify_theorem1(dgp, target)
        if not report.theorem_respected:
            violations += 1
            print(
                f"VIOLATION at instance {index}: bias {fmt(report.bias)} with "
                f"opportunistic rule (horizon {dgp.horizon})",
                file=sys.stderr,
            )
    print(
        f"checked {args.count} opportunistic instances: "
        f"{args.count - violations} respected the negative-bias theorem, "
        f"{violations} violations"
    )
    return 0 if violations == 0 else 1


def run_print_config(args, config: ExperimentConfig) -> int:
    sys.stdout.write(dump_config(config))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="INI configuration file")
    shared.add_argument("--seed", metavar="U64", help="master random seed")
    shared.add_argument("--replicates", metavar="N",
                        help="Monte Carlo replicates per estimate")
    shared.add_argument("--thresholds", metavar="LIST",
                        help="comma-separated intervention thresholds, e.g. 0.05,0.1")
    shared.add_argument("--out", metavar="DIR", help="output directory")
    shared.add_argument("--conditioning", metavar="{%s}" % ",".join(CONDITIONING_MODES),
                        help="conditioning set for intermediate times")
    shared.add_argument("--threads", metavar="N", help="worker threads")

    parser = argparse.ArgumentParser(
        prog="epibias",
        description="Measure how conditioning on an endogenous treatment path "
                    "biases epidemic outcome estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary in (
        ("figure2", run_figure2, "simulate one no-intervention trajectory"),
        ("figures34", run_figures34, "bias across intervention thresholds"),
        ("oracle", run_oracle, "exact analysis of a small tabular instance"),
        ("fuzz-theorem", run_fuzz_theorem, "randomized negative-bias theorem check"),
        ("print-config", run_print_config, "dump the effective configuration"),
    ):
        sub.add_parser(name, parents=[shared], help=summary).set_defaults(handler=handler)
    sub.choices["oracle"].add_argument(
        "instance", help="built-in name (%s) or JSON file" % ", ".join(sorted(BUILTIN_INSTANCES)))
    sub.choices["fuzz-theorem"].add_argument(
        "--count", type=int, default=100, metavar="N",
        help="number of generated instances (default 100)")
    return parser


def _attach_dash_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Rewrite `--key -x` as `--key=-x` for a setting flag, unless `-x` is (a
    prefix of) an option of this program.

    argparse takes a separate value that starts with `-` and is not a number
    for an option, and stops with a usage message where the setting's own
    parser would print its `error:` line.
    """
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = (parser, *sub.choices.values())
    known = {o for p in parsers for a in p._actions for o in a.option_strings}
    flags = {f"--{key}" for key in SETTINGS["experiment"]}

    def options(prefix):  # argparse reads an unambiguous prefix as its option
        return {o for o in known if o.startswith(prefix)}

    out, i = list(argv), 0
    while i + 1 < len(out) and out[i] != "--":
        token, value = out[i], out[i + 1]
        match = options(token) if token.startswith("--") and "=" not in token else set()
        is_flag = token in flags or (len(match) == 1 and match <= flags)
        if is_flag and value.startswith("-") and not options(value.partition("=")[0]):
            out[i : i + 2] = [f"{token}={value}"]
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(parser, sys.argv[1:] if argv is None else argv))

    try:
        flags = {  # argparse reads the value of `--key=--` as [], not as "--"
            key: parse_setting("experiment", key, "--" if text == [] else text)
            for key, text in vars(args).items()
            if key in SETTINGS["experiment"] and text is not None
        }
        config = apply_overrides(load_config(args.config), **flags)
        return args.handler(args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except OSError as exc:
        target = getattr(exc, "filename", None)
        where = f" ({target})" if target else ""
        print(f"error: I/O failure{where}: {exc}", file=sys.stderr)
        return 4
