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
conditioning at every threshold, 4 I/O errors.
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
    associational_pass,
    estimate_associational,
    estimate_causal,
    simulate,
)
from .policies import ForcedSequenceRule, ThresholdRule
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


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def run_figure2(args, config: ExperimentConfig) -> int:
    params = config.sir
    keys = stream_keys(derive_substream_seed(config.seed, 2), [0])
    rule = ForcedSequenceRule((0,) * params.horizon)
    s_series = [params.population - params.initial_infected]
    i_series = [params.initial_infected]
    r_series = [0.0]
    for *_, s, i, r in simulate(params, rule, keys):
        s_series.append(float(s[0]))
        i_series.append(float(i[0]))
        r_series.append(float(r[0]))

    xs = [float(t) for t in range(params.horizon + 1)]
    rows = [
        [str(t), fmt(s), fmt(i), fmt(r), fmt(1.0 - s / params.population)]
        for t, (s, i, r) in enumerate(zip(s_series, i_series, r_series))
    ]

    os.makedirs(config.out, exist_ok=True)
    csv_path = os.path.join(config.out, "trajectory.csv")
    svg_path = os.path.join(config.out, "trajectory.svg")
    _write_csv(csv_path, ["t", "s", "i", "r", "y"], rows)
    chart = render_line_chart(
        [
            LineSeries("susceptible", tuple(xs), tuple(s_series)),
            LineSeries("infected", tuple(xs), tuple(i_series)),
            LineSeries("recovered", tuple(xs), tuple(r_series)),
        ],
        title="Epidemic trajectory without intervention",
        x_label="day",
        y_label="individuals",
    )
    _write_text(svg_path, chart)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


def run_figures34(args, config: ExperimentConfig) -> int:
    params = config.sir
    zeros = (0,) * params.horizon
    causal = estimate_causal(
        params, zeros, config.replicates,
        derive_substream_seed(config.seed, 0), config.threads,
    )
    print(f"causal mean Y_T = {fmt(causal.mean)} ({config.replicates} replicates)")

    # One associational pass scores every threshold.  It runs under the
    # largest, which the config puts last: an absorbing threshold rule leaves
    # the all-zero path no earlier than any rule with a smaller threshold.
    rules = [ThresholdRule(threshold) for threshold in config.thresholds]
    arguments = (zeros, config.replicates, derive_substream_seed(config.seed, 1),
                 config.threads, config.conditioning)
    shared = associational_pass(params, rules, *arguments)
    associational = {}
    for threshold, rule in zip(config.thresholds, rules):
        try:
            estimate = estimate_associational(params, rule, *arguments, shared=shared)
        except EmptyConditioningError as exc:
            associational[threshold] = None
            print(f"threshold {threshold:g}: no retained trajectories "
                  f"({exc.replicates_total} simulated)")
            continue
        associational[threshold] = estimate
        print(
            f"threshold {threshold:g}: retained "
            f"{estimate.replicates_retained}/{estimate.replicates_total}, "
            f"bias {fmt(estimate.mean - causal.mean)}"
        )

    y0 = params.initial_outcome
    evolution_rows = []
    evolution_series = []
    for threshold, estimate in associational.items():
        if estimate is None:
            continue
        evolution_rows.append([fmt(threshold), "0", fmt(y0), fmt(y0), "0"])
        biases = [0.0]
        for t in range(1, params.horizon + 1):
            c = causal.per_time_means[t - 1]
            a = estimate.per_time_means[t - 1]
            evolution_rows.append([fmt(threshold), str(t), fmt(c), fmt(a), fmt(a - c)])
            biases.append(a - c)
        evolution_series.append(
            LineSeries(
                f"threshold {threshold:g}",
                tuple(float(t) for t in range(params.horizon + 1)),
                tuple(biases),
            )
        )

    summary_rows = []
    for threshold, estimate in associational.items():
        if estimate is None:
            summary_rows.append(
                [fmt(threshold), fmt(causal.mean), "", "", "0", str(config.replicates)]
            )
        else:
            summary_rows.append(
                [
                    fmt(threshold),
                    fmt(causal.mean),
                    fmt(estimate.mean),
                    fmt(estimate.mean - causal.mean),
                    str(estimate.replicates_retained),
                    str(estimate.replicates_total),
                ]
            )

    os.makedirs(config.out, exist_ok=True)
    evolution_csv = os.path.join(config.out, "bias_evolution.csv")
    summary_csv = os.path.join(config.out, "bias_summary.csv")
    _write_csv(
        evolution_csv,
        ["threshold", "t", "causal_mean", "associational_mean", "bias"],
        evolution_rows,
    )
    _write_csv(
        summary_csv,
        ["threshold", "causal_T", "associational_T", "bias_T", "retained", "total"],
        summary_rows,
    )
    print(f"wrote {evolution_csv}")
    print(f"wrote {summary_csv}")

    if evolution_series:
        evolution_svg = os.path.join(config.out, "bias_evolution.svg")
        _write_text(
            evolution_svg,
            render_line_chart(
                evolution_series,
                title="Bias of the associational estimate over time",
                x_label="day",
                y_label="associational minus causal mean",
            ),
        )
        print(f"wrote {evolution_svg}")

        kept = [(thr, est) for thr, est in associational.items() if est is not None]
        summary_svg = os.path.join(config.out, "bias_summary.svg")
        _write_text(
            summary_svg,
            render_line_chart(
                [
                    LineSeries(
                        "final bias",
                        tuple(thr for thr, _ in kept),
                        tuple(est.mean - causal.mean for _, est in kept),
                    )
                ],
                title="Final-time bias by intervention threshold",
                x_label="threshold",
                y_label="associational minus causal mean",
            ),
        )
        print(f"wrote {summary_svg}")

    if all(estimate is None for estimate in associational.values()):
        print("error: conditioning was empty at every threshold", file=sys.stderr)
        return 3
    return 0


def _load_instance(name: str) -> FiniteDgp:
    if name in BUILTIN_INSTANCES:
        return BUILTIN_INSTANCES[name]()
    try:
        with open(name, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(
            f"{name!r} is not a built-in instance "
            f"({', '.join(sorted(BUILTIN_INSTANCES))}) and cannot be read as a "
            f"file: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"instance file {name}: invalid JSON: {exc}") from exc
    return FiniteDgp.from_dict(data)


def _bool_cell(flag: bool) -> str:
    return "true" if flag else "false"


def run_oracle(args, config: ExperimentConfig) -> int:
    try:
        dgp = _load_instance(args.instance)
        report = verify_theorem1(dgp, (dgp.treatment_values[0],) * dgp.horizon)
    except (KernelValidationError, UndefinedConditionalError) as exc:
        # An unreachable target leaves the associational mean undefined.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = [
        ["g_formula", "", "", "", fmt(report.g_formula)],
        ["associational", "", "", "", fmt(report.associational)],
        ["bias", "", "", "", fmt(report.bias)],
    ]
    for tc in report.opportunistic.per_time:
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
         _bool_cell(report.opportunistic_everywhere)]
    )
    rows.append(["has_nonconstant", "", "", "", _bool_cell(report.has_nonconstant)])
    rows.append(["theorem_respected", "", "", "", _bool_cell(report.theorem_respected)])

    os.makedirs(config.out, exist_ok=True)
    report_csv = os.path.join(config.out, "oracle_report.csv")
    _write_csv(report_csv, ["kind", "t", "history", "outcome", "value"], rows)

    adaptive = [tc.t for tc in report.opportunistic.per_time if tc.nonconstant]
    print(f"instance: {args.instance} (horizon {dgp.horizon})")
    print(f"target treatment path: {report.target}")
    print(f"g-formula mean final outcome: {fmt(report.g_formula)}")
    print(f"associational mean final outcome: {fmt(report.associational)}")
    print(f"bias: {fmt(report.bias)}")
    print(f"times with nonconstant ratio: {adaptive}")
    print(f"opportunistic at every such time: {report.opportunistic_everywhere}")
    print(f"theorem respected: {report.theorem_respected}")
    print(f"wrote {report_csv}")
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
    shared.add_argument("--conditioning", choices=CONDITIONING_MODES,
                        help="conditioning set for intermediate times")
    shared.add_argument("--threads", metavar="N", help="worker threads")

    parser = argparse.ArgumentParser(
        prog="epibias",
        description="Measure how conditioning on an endogenous treatment path "
                    "biases epidemic outcome estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure2", parents=[shared],
                       help="simulate one no-intervention trajectory")
    p.set_defaults(handler=run_figure2)

    p = sub.add_parser("figures34", parents=[shared],
                       help="bias across intervention thresholds")
    p.set_defaults(handler=run_figures34)

    p = sub.add_parser("oracle", parents=[shared],
                       help="exact analysis of a small tabular instance")
    p.add_argument("instance",
                   help="built-in name (%s) or JSON file"
                        % ", ".join(sorted(BUILTIN_INSTANCES)))
    p.set_defaults(handler=run_oracle)

    p = sub.add_parser("fuzz-theorem", parents=[shared],
                       help="randomized negative-bias theorem check")
    p.add_argument("--count", type=int, default=100, metavar="N",
                   help="number of generated instances (default 100)")
    p.set_defaults(handler=run_fuzz_theorem)

    p = sub.add_parser("print-config", parents=[shared],
                       help="dump the effective configuration")
    p.set_defaults(handler=run_print_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        flags = {
            key: parse_setting("experiment", key, text)
            for key, text in vars(args).items()
            if key in SETTINGS["experiment"] and text is not None
        }
        config = apply_overrides(load_config(args.config), **flags)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        return args.handler(args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = getattr(exc, "filename", None)
        where = f" ({target})" if target else ""
        print(f"error: I/O failure{where}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
