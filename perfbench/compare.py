"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py --base OLD.json [OLD.json ...] --new NEW.json [NEW.json ...]

Each file is a record that run.py wrote to perfbench/out/.  All records
must be of one workload and one trace mode, and taken with one scalar
backend: the script refuses otherwise, because Fraction and gmpy2 timings
are not comparable.  For each metric it prints the median and quartiles
of both sets, the change of the medians, and, for end-to-end metrics,
whether the change is within the bound that BENCHMARK.json fixes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(paths):
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    every = base + new
    for key, what in (("workload", "workloads"), ("trace", "trace modes")):
        if len({r[key] for r in every}) != 1:
            print(f"refusing: the records mix {what}", file=sys.stderr)
            return 2
    backends = {r["environment"]["backend"] for r in every}
    if len(backends) != 1:
        print(f"refusing: the records mix scalar backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    print(f"workload {every[0]['workload']}, backend {backends.pop()}, "
          f"{len(base)} base and {len(new)} new records")
    print(f"{'metric':40s} {'base q1/med/q3':>30s} {'new q1/med/q3':>30s} change")
    for name in base[0]["metrics"]:
        b = _quartiles([r["metrics"][name] for r in base])
        n = _quartiles([r["metrics"][name] for r in new])
        change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
        verdict = ""
        if name in spec:
            worse = change if spec[name]["better"] == "lower" else -change
            verdict = "WORSE THAN BOUND" if worse > spec[name]["bound"] else "ok"
        print(f"{name:40s} {'/'.join(f'{v:.4g}' for v in b):>30s} "
              f"{'/'.join(f'{v:.4g}' for v in n):>30s} {change:+.1%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
