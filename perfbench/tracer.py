"""In-memory span tracer for the traced benchmark run.

The tracer wraps layer-boundary functions of the `epibias` package from
outside: it rebinds each boundary in every `epibias` module namespace that
holds it (so `from .x import f` call sites are traced too) and restores the
originals on `uninstall`.  Nothing under `src/` is edited.

Each call records one span: (run id, span id, parent span id, layer, name,
start, end, end of counter bookkeeping, thread).  Counters that the
wrappers compute from a call's arguments or result are timed separately
(the third timestamp), so their cost is excluded from the parent's self
time instead of being charged to it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import sys
import threading
from time import perf_counter_ns

import numpy as np

# scipy's ndtr returns exactly 1.0 for z >= 8.2924, so the upper truncation
# CDF only matters for elements whose upper z-score lies below this value.
UPPER_Z_SATURATION = 8.2924

SPAN_FIELDS = ("run", "span", "parent", "layer", "name", "start_ns", "end_ns",
               "counted_ns", "thread")


class Tracer:
    """Records spans and per-layer counts while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.run_id = 0
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount) -> None:
        with self._lock:
            self.counts[key] += amount

    def thread_step(self) -> int:
        """Per-thread call counter for `sir_step_arrays` (see `_count_sir`)."""
        step = getattr(self._local, "sir_step", 0) + 1
        self._local.sir_step = step
        return step

    def wrap(self, layer: str, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                # A worker thread: the caller is whatever the main thread is in.
                parent = tracer._main_stack[-1]
            else:
                parent = 0
            span = next(tracer._ids)
            stack.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(tracer, args, result)
            tracer.spans.append((tracer.run_id, span, parent, layer, name, start, end,
                                 perf_counter_ns(), threading.get_ident()))
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every (layer, module, qualified name, counter) boundary.

        `Class.method` wraps one method; `*.method` wraps the method on every
        class of the module that defines it.  Names that do not exist are
        skipped and listed in `missing`.
        """
        package = [m for n, m in list(sys.modules.items())
                   if n == "epibias" or n.startswith("epibias.")]
        for layer, module_name, qualname, count in BOUNDARIES:
            module = sys.modules.get(module_name)
            if module is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            if "." not in qualname:
                original = module.__dict__.get(qualname)
                if not callable(original):
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                traced = self.wrap(layer, qualname, original, count)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, traced)
                continue
            owner, method = qualname.split(".", 1)
            classes = [c for c in vars(module).values()
                       if isinstance(c, type) and c.__module__ == module_name
                       and (owner == "*" or c.__name__ == owner)
                       and method in c.__dict__]
            if not classes:
                self.missing.append(f"{module_name}.{qualname}")
            for cls in classes:
                raw = cls.__dict__[method]
                label = f"{cls.__name__}.{method}"
                if isinstance(raw, classmethod):
                    traced = classmethod(self.wrap(layer, label, raw.__func__, count))
                else:
                    traced = self.wrap(layer, label, raw, count)
                self._patch(cls, method, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans,
                       "counts": dict(self.counts), "missing": self.missing}, fh)


# ---------------------------------------------------------------------------
# Counters, computed after the wrapped call returns
# ---------------------------------------------------------------------------

def _count_noise(tracer: Tracer, args, result) -> None:
    if len(args) < 4:
        return
    mean, variance, _, upper = args[:4]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (np.asarray(upper, dtype=np.float64) - mean) / np.sqrt(variance)
    tracer.add("noise.elements", int(np.size(result)))
    tracer.add("noise.upper_cdf_needed",
               int(np.count_nonzero(np.broadcast_to(z < UPPER_Z_SATURATION, np.shape(result)))))


def _count_sir(tracer: Tracer, args, result) -> None:
    i, params = args[1], args[3]
    lanes = int(np.size(i))
    tracer.add("sir.lane_steps", lanes)
    # A lane with I = 0 or S = 0 has a zero-variance noise term (0/0 in the transform).
    tracer.add("sir.zero_lanes", int(np.count_nonzero((i == 0) | (args[0] == 0))))
    # Every chunk runs its `horizon` steps in order on one thread, so each
    # horizon-th call on a thread is some chunk's final day.
    if tracer.thread_step() % params.horizon == 0:
        tracer.add("sir.final_lanes", lanes)
        tracer.add("sir.extinct_lanes", int(np.count_nonzero(result[1] == 0)))


def _count_draws(tracer: Tracer, args, result) -> None:
    tracer.add("streams.draws", int(np.size(result)))


def _count_retained(tracer: Tracer, args, result) -> None:
    tracer.add("montecarlo.retained", int(result.replicates_retained))


def _count_bytes(tracer: Tracer, args, result) -> None:
    tracer.add("cli.file_bytes", os.path.getsize(args[0]))


BOUNDARIES = (
    ("streams", "epibias.streams", "stream_keys", None),
    ("streams", "epibias.streams", "counter_uniform_array", _count_draws),
    ("streams", "epibias.streams", "derive_substream_seed", None),
    ("noise", "epibias.noise", "truncated_normal_transform", _count_noise),
    ("sir", "epibias.sir", "sir_step_arrays", _count_sir),
    ("policies", "epibias.policies", "*.decide_batch", None),
    ("montecarlo", "epibias.montecarlo", "compute_bias_report", None),
    ("montecarlo", "epibias.montecarlo", "estimate_causal", _count_retained),
    ("montecarlo", "epibias.montecarlo", "estimate_associational", _count_retained),
    ("montecarlo", "epibias.montecarlo", "_chunk_stats", None),
    ("cli", "epibias.cli", "main", None),
    ("cli", "epibias.cli", "run_figures34", None),
    ("cli", "epibias.cli", "_write_csv", _count_bytes),
    ("cli", "epibias.cli", "_write_text", _count_bytes),
    ("cli", "epibias.charts", "render_line_chart", None),
    ("finite", "epibias.finite", "random_opportunistic_dgp", None),
    ("finite", "epibias.finite", "FiniteDgp.from_functions", None),
    ("finite", "epibias.finite", "verify_theorem1", None),
    ("finite", "epibias.finite", "check_opportunistic", None),
    ("finite", "epibias.finite", "g_formula_exact", None),
    ("finite", "epibias.finite", "associational_exact", None),
)

CLI_OUTPUT = ("_write_csv", "_write_text", "render_line_chart")


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover.

    A child's coverage runs to the end of its counter bookkeeping.  Children
    on other threads may overlap each other, so coverage is the union of the
    child intervals clipped to the parent's.
    """
    children: dict[int, list[tuple[int, int]]] = collections.defaultdict(list)
    for s in spans:
        children[s[2]].append((s[5], s[7]))
    out = {}
    for s in spans:
        start, end = s[5], s[6]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(s[1], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[s[1]] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer, passes: int, rep_days_per_pass: int,
                  horizon: int) -> dict[str, float]:
    """Per-layer metrics, normalised per traced pass.

    `*_ns_per_rep_day` divide time by the logical replicate-days the workload
    asks for, so the layers' self times add up to the end-to-end figure;
    `streams.draws_per_rep_day` divides by the replicate-days actually
    simulated.  Layers that a workload does not exercise report 0.
    """
    spans = tracer.spans
    counts = tracer.counts
    own = self_times(spans)
    names = {s[1]: s[4] for s in spans}
    self_ns = collections.Counter()
    total_ns = collections.Counter()
    calls = collections.Counter()
    for s in spans:
        self_ns[s[3]] += own[s[1]]
        total_ns[s[4]] += s[6] - s[5]
        calls[s[4]] += 1

    def per_rep_day(ns: float) -> float:
        return ns / (rep_days_per_pass * passes) if rep_days_per_pass else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    simulated = counts["sir.lane_steps"]
    engine_ns = total_ns["estimate_causal"] + total_ns["estimate_associational"]
    instances = calls["verify_theorem1"]
    check_in_verify = sum(s[6] - s[5] for s in spans if s[4] == "check_opportunistic"
                          and names.get(s[2]) == "verify_theorem1")
    policy_calls = sum(n for name, n in calls.items() if name.endswith(".decide_batch"))
    return {
        "noise.ns_per_rep_day": per_rep_day(self_ns["noise"]),
        "noise.elements": counts["noise.elements"] / passes,
        "noise.upper_cdf_needed_frac": ratio(counts["noise.upper_cdf_needed"],
                                             counts["noise.elements"]),
        "policies.ns_per_rep_day": per_rep_day(self_ns["policies"]),
        "policies.calls": policy_calls / passes,
        "sir.self_ns_per_rep_day": per_rep_day(self_ns["sir"]),
        "sir.zero_lane_frac": ratio(counts["sir.zero_lanes"], simulated),
        "sir.extinct_frac": ratio(counts["sir.extinct_lanes"], counts["sir.final_lanes"]),
        "streams.ns_per_rep_day": per_rep_day(self_ns["streams"]),
        "streams.draws_per_rep_day": ratio(counts["streams.draws"], simulated),
        "montecarlo.self_ns_per_rep_day": per_rep_day(self_ns["montecarlo"]),
        "montecarlo.simulated_rep_days": simulated / passes,
        "montecarlo.retained_frac": ratio(counts["montecarlo.retained"] * horizon, simulated),
        "montecarlo.busy_threads": ratio(total_ns["_chunk_stats"], engine_ns),
        "cli.output_ms": sum(total_ns[n] for n in CLI_OUTPUT) / passes / 1e6,
        "cli.output_bytes": (counts["cli.file_bytes"] + counts["cli.stdout_bytes"]) / passes,
        "finite.generate_ms_per_instance":
            ratio(total_ns["random_opportunistic_dgp"], instances) / 1e6,
        "finite.tries_per_instance": ratio(calls["FiniteDgp.from_functions"], instances),
        "finite.check_ms_per_instance": ratio(check_in_verify, instances) / 1e6,
        "finite.exact_ms_per_instance": ratio(total_ns["g_formula_exact"]
                                              + total_ns["associational_exact"], instances) / 1e6,
    }
