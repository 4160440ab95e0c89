"""One measured pass of a workload, or one set-up probe, in a fresh interpreter.

run.py starts this file once per sample, so every sample pays import,
system construction and the package's module-level caches cold, as every
command-line invocation does.  It prints one JSON object on stdout.

    python3 -I perfbench/worker.py --workload NAME --seed N --t0 T
        [--trace] [--setup-only] [--smoke] [--spans-out FILE]

`--t0` is the caller's `time.perf_counter()` just before the start of
this process (the clock is system-wide), so `setup_s` covers interpreter
start, import, system construction and case generation.  Every time is
reported twice: raw, and divided by the machine's speed factor at the
time it was taken (see calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")


def _import_package():
    sys.path[:0] = [SRC, HERE]
    import bmsheaves

    where = os.path.dirname(os.path.abspath(bmsheaves.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise SystemExit(f"bmsheaves imported from {where}, not from {SRC}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    _import_package()
    import calibrate
    import cases

    tracer = cases.Tracer() if args.trace else cases.NULL_TRACER
    case_list = cases.make_cases(args.workload, args.seed, args.smoke, tracer)
    setup_raw = time.perf_counter() - args.t0
    setup_s = setup_raw / (calibrate.unit_seconds(9) / calibrate.REF_UNIT_S)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    with calibrate.SpeedSampler() as sampler:
        results, counts, peak = cases.run_pass(
            case_list, tracer, probes=args.trace
        )

    # everything below is outside the timed body
    raw = [r.end - r.start - sampler.busy(r.start, r.end) for r in results]
    seconds = [
        t / sampler.factor(r.start, r.end) for t, r in zip(raw, results)
    ]
    factor = sampler.factor(results[0].start, results[-1].end)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    failures = []
    for r in results:
        if r.error is not None:
            failures.append({"case": r.case.key, "error": r.error})
            continue
        got = json.loads(json.dumps(cases.summarize(r)))
        if reference["cases"].get(r.case.key) != got:
            failures.append({"case": r.case.key, "error": "output mismatch"})
    want = reference["counts"].get(cases.counts_key(args.workload, args.smoke))
    out = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "wall_s": sum(seconds),
        "wall_raw_s": sum(raw),
        "speed_factor": factor,
        "calibration_samples": len(sampler.seconds),
        "peak_rss_mib": peak,
        "counts": counts,
        "reference_counts": want,
        "cases": [
            {"id": r.case.id, "key": r.case.key, "seconds": t,
             "raw_seconds": u, "vertices": r.vertices}
            for r, t, u in zip(results, seconds, raw)
        ],
        "failures": failures,
        "backend": "gmpy2" if "gmpy2" in sys.modules else "Fraction",
    }
    if args.trace:
        spans = [
            [n, a, b - sampler.busy(a, b), p, c] for n, a, b, p, c in tracer.spans
        ]
        out.update(cases.traced_figures(spans, sum(raw), factor))
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(
                    {
                        "fields": ["name", "start", "end", "parent", "case"],
                        "note": "calibration time is taken out of each end",
                        "cases": {r.case.id: r.case.key for r in results},
                        "spans": spans,
                    },
                    fh,
                )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
