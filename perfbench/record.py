"""Regenerate `expected.json`: the outputs the correctness gates compare to.

Run from the root of a checkout, at the commit whose outputs are the
contract (the byte contract of the figures34 CSVs, and the null-control
means):

    python3 perfbench/record.py

Records figures34 CSV hashes and null-control means for seeds 0-31 plus
each workload's reference and held-out seeds.  Takes about 10 minutes on
one core, almost all of it figures34.  Re-record only for a change whose
CHANGES.md entry says why the outputs changed.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench_out", "record")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import (EXPECTED_PATH, FIGURES34_CSVS, HELD_OUT_SEEDS, REFERENCE_SEEDS,
                           Figures34, NullControl, sha256)

    expected: dict = {"figures34": {}, "null-control": {}}
    for cls, table in ((NullControl, expected["null-control"]),
                       (Figures34, expected["figures34"])):
        seeds = list(range(32)) + [REFERENCE_SEEDS[cls.name], HELD_OUT_SEEDS[cls.name]]
        for seed in seeds:
            workload = cls(seed, OUT, {})
            result = workload.run_pass()
            if result.problems:
                print(f"{cls.name} seed {seed}: {result.problems}", file=sys.stderr)
                return 1
            if cls is Figures34:
                table[str(seed)] = {name: sha256(os.path.join(workload.out, name))
                                    for name in FIGURES34_CSVS}
            else:
                report = workload.report
                table[str(seed)] = {"causal_mean": report.causal.mean.hex(),
                                    "associational_mean": report.associational.mean.hex()}
            print(f"{cls.name} seed {seed}: recorded", flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
