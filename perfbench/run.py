"""epibias benchmark: one workload per run, end-to-end or traced metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures34 --seed 42 --seconds 36 --trace 0

The package is imported from the checkout's `src/`.  A run measures set-up
time in fresh interpreters, then repeats the workload's pass until another
pass would overrun `--seconds`, checking every pass's outputs.  With
`--trace 1` it alternates untraced and traced passes and reports per-layer
metrics plus the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_SAMPLES = 5
# Standard error that `time_to_se_s` scales the wall time to.
TARGET_SE = 1e-3
WORKLOAD_NAMES = ("figures34", "null-control", "fuzz-theorem")

# Import and config resolution in a fresh interpreter; prints seconds taken.
SETUP_CODE = """
import sys
from time import perf_counter
start = perf_counter()
sys.path.insert(0, {src!r})
from epibias import cli
config = cli.apply_overrides(cli.load_config(None), seed={seed}, threads={threads})
print(perf_counter() - start)
"""

UNITS = {
    "setup_s": "s", "wall_s": "s", "ns_per_rep_day": "ns", "time_to_se_s": "s",
    "peak_rss_mb": "MB",
    "noise.ns_per_rep_day": "ns", "noise.elements": "count",
    "noise.upper_cdf_needed_frac": "frac",
    "policies.ns_per_rep_day": "ns", "policies.calls": "count",
    "sir.self_ns_per_rep_day": "ns", "sir.zero_lane_frac": "frac", "sir.extinct_frac": "frac",
    "streams.ns_per_rep_day": "ns", "streams.draws_per_rep_day": "count",
    "montecarlo.self_ns_per_rep_day": "ns", "montecarlo.simulated_rep_days": "count",
    "montecarlo.retained_frac": "frac", "montecarlo.busy_threads": "threads",
    "cli.output_ms": "ms", "cli.output_bytes": "bytes",
    "finite.generate_ms_per_instance": "ms", "finite.tries_per_instance": "count",
    "finite.check_ms_per_instance": "ms", "finite.exact_ms_per_instance": "ms",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in an unsigned 64-bit value")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def measure_setup(seed: int, threads: int) -> list[float]:
    code = SETUP_CODE.format(src=SRC, seed=seed, threads=threads)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def cache_sizes() -> dict[str, str]:
    """L2 and L3 sizes of cpu0 as /sys reports them."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"l{level}"] = size
    return sizes


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def run_passes(workload, seconds: float, tracer=None):
    """Untraced passes until the next would overrun `seconds`.  With a
    tracer, alternate untraced and traced passes (at least one of each)."""
    plain, traced = [], []
    started = perf_counter()
    while True:
        pass_start = perf_counter()
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.run_id = len(traced) + 1
            tracer.install()
            try:
                traced.append(workload.run_pass())
            finally:
                tracer.uninstall()
        else:
            plain.append(workload.run_pass())
        last = perf_counter() - pass_start
        for problem in (traced if trace_this else plain)[-1].problems:
            print(f"{workload.name}: {problem}", file=sys.stderr)
        if tracer is not None and not traced:
            continue
        if perf_counter() - started + last > seconds:
            return plain, traced


def floor_wall(passes) -> float:
    """Sum over a pass's parts of each part's fastest time across passes.

    The host's speed drifts by up to 1.4x in spells of seconds to minutes
    (see README: Steadiness).  Short parts timed many times each are
    likely to meet a fast spell at least once, so this sum estimates what
    a pass costs at the host's fast level.
    """
    if len({len(p.parts_s) for p in passes}) != 1:
        return min(p.wall_s for p in passes)
    return sum(min(times) for times in zip(*(p.parts_s for p in passes)))


def end_to_end_metrics(setup: list[float], plain) -> dict[str, float]:
    wall = floor_wall(plain)
    variances = [p.se_bias ** 2 for p in plain if p.se_bias is not None]
    # The exact oracle has no sampling error: it reaches any accuracy in one pass.
    accuracy = statistics.fmean(variances) / TARGET_SE ** 2 if variances else 1.0
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ns_per_rep_day": 1e9 * wall / plain[0].rep_days,
        "time_to_se_s": wall * accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(workload, tracer, plain, traced) -> dict[str, float]:
    from tracer import layer_metrics

    tracer.counts["cli.stdout_bytes"] += sum(p.stdout_bytes for p in traced)
    values = layer_metrics(tracer, len(traced), workload.rep_days, workload.horizon)
    values["trace.overhead_s"] = floor_wall(traced) - floor_wall(plain)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "epibias", "__init__.py")):
        print(f"error: no epibias package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    from workloads import HELD_OUT_SEEDS, REFERENCE_SEEDS, WORKLOADS, load_expected

    workload_cls = WORKLOADS[args.workload]
    setup = measure_setup(args.seed, workload_cls.threads)

    import epibias
    import numpy
    import scipy
    from epibias import montecarlo

    if not os.path.abspath(epibias.__file__).startswith(SRC + os.sep):
        print(f"error: epibias imported from {epibias.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workload_cls(args.seed, OUT, load_expected())
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    plain, traced = run_passes(workload, args.seconds, tracer)
    everything = plain + traced
    # Operation latencies come from untraced passes only, free of tracer cost.
    op_ms = [1e3 * t for p in plain for t in p.parts_s[:-1]]
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)

    chunk = getattr(montecarlo, "CHUNK_SIZE", 0)
    env = {
        "workload": workload.name, "seed": args.seed,
        "reference_seed": REFERENCE_SEEDS[workload.name],
        "held_out_seed": HELD_OUT_SEEDS[workload.name],
        "gate": workload.gate,
        "nproc": os.cpu_count(), "threads": workload.threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "chunk_size": chunk,
        "chunk_working_set_bytes_computed": workload.working_set_bytes(chunk),
        "cache": cache_sizes(),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "failed_ops_frac": failed / attempted,
        "op_ms": {"p50": statistics.median(op_ms), "p99": percentile(op_ms, 99),
                  "samples": len(op_ms)},
    }
    print("env " + json.dumps(env, sort_keys=True))

    if tracer is None:
        values = end_to_end_metrics(setup, plain)
    else:
        values = traced_metrics(workload, tracer, plain, traced)
        tracer.dump(os.path.join(OUT, f"trace-{workload.name}-{args.seed}.json"))
        if tracer.missing:
            print("untraced boundaries (not found): " + ", ".join(sorted(set(tracer.missing))))

    for name, value in values.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
