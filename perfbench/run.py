"""bmsheaves benchmark: time one workload end to end, or per layer.

    python3 perfbench/run.py --workload sheaf-ladder --seed 0 --seconds 25 --trace 0

Every sample is a fresh interpreter (perfbench/worker.py), started one at
a time.  With `--trace 0` the run starts a few set-up probes, then
as many measured passes as fit in `--seconds` (at least one), and
reports the end-to-end metrics as medians over the passes.  With `--trace 1` it runs
one untraced and one traced pass and reports the per-layer metrics of the
traced one.  Each pass compares every case's outputs to
perfbench/reference.json.  The run prints a readable report, then, as its
last line, one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`.  The whole record, and the spans of a traced pass, go to
perfbench/out/.  `--smoke` swaps in tiny case lists for the benchmark's
own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("sheaf-ladder", "hecke-sweep", "local-checks")
SETUP_PROBES = 5
DEADLINE_S = 170  # the whole run ends within this

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "max_case_s": "s",
    "growth_exp": "1",
    "peak_rss_mib": "MiB",
    "ok_rate": "ratio",
}
SPAN_METRICS = (
    "coxeter.element_ball",
    "coxeter.bruhat_interval",
    "momentgraph.build_graph",
    "bmsheaf.bm_construct",
    "bmsheaf.character",
    "bmsheaf.check_conjecture_72",
    "bmsheaf.sections_replay",
    "bmsheaf.costalk_dims",
    "bmsheaf.check_flabby_additive",
    "bmsheaf.check_prop_71",
    "bmsheaf.theta_character",
    "bmsheaf.quotient_lift",
    "hecke.kl_oracle",
    "hecke.kl_basis",
    "hecke.bar",
    "hecke.expand_kl",
)
COUNTS = {
    "vertices": "momentgraph.vertices",
    "edges": "momentgraph.edges",
    "section_dim_total": "bmsheaf.section_dim_total",
    "stalk_gens_total": "bmsheaf.stalk_gens_total",
    "kl_products": "hecke.kl_products",
    "bruhat_leq_cache_entries": "coxeter.bruhat_leq_cache_entries",
}
LAYERS = ("coxeter", "momentgraph", "bmsheaf", "hecke", "bench")
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNTS.values()},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}


class BenchError(RuntimeError):
    pass


def environment():
    """Where and on what the numbers were taken.  Never gated."""
    lines, digest = 0, hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(name.encode() + b"\0" + data)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def _commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args, deadline, *flags):
    """Run one worker to completion; return its JSON result."""
    cmd = [sys.executable, "-I", WORKER, "--workload", args.workload,
           "--seed", str(args.seed), *flags]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before the next sample")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [*cmd, "--t0", repr(t0)], cwd=ROOT, capture_output=True,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def growth_exponent(points):
    """Least-squares slope of log(seconds) on log(vertices)."""
    pts = [(math.log(v), math.log(t)) for v, t in points if v > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def end_to_end(passes, setups):
    cases = {}
    for p in passes:
        for c in p["cases"]:
            cases.setdefault(c["id"], (c["vertices"], []))[1].append(c["seconds"])
    return {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "max_case_s": statistics.median(
            max(c["seconds"] for c in p["cases"]) for p in passes
        ),
        "growth_exp": growth_exponent(
            (v, statistics.median(ts)) for v, ts in cases.values()
        ),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def per_layer(plain, traced):
    out = {f"{n}_s": traced["span_totals"].get(n, 0.0) for n in SPAN_METRICS}
    out.update({COUNTS[k]: traced["counts"][k] for k in COUNTS})
    out.update(
        {f"{layer}.self_s": traced["layer_self"].get(layer, 0.0)
         for layer in LAYERS}
    )
    out["trace.coverage"] = traced["coverage"]
    out["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny case lists, for the benchmark's own tests")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    for need in (os.path.join(SRC, "bmsheaves", "__init__.py"),
                 os.path.join(HERE, "reference.json")):
        if not os.path.isfile(need):
            print(f"error: {need} is missing; run from a checkout of the "
                  "repository", file=sys.stderr)
            return 2
    env = environment()
    try:
        if args.trace:
            setups = []
            passes = [spawn(args, deadline)]
            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
            passes.append(spawn(args, deadline, "--trace", "--spans-out", spans))
        else:
            setups = [spawn(args, deadline, "--setup-only")["setup_s"]
                      for _ in range(SETUP_PROBES)]
            # one pass, then more while the next is expected to end
            # within --seconds of the first one's start
            passes = []
            start = time.perf_counter()
            while True:
                t = time.perf_counter()
                passes.append(spawn(args, deadline))
                now = time.perf_counter()
                last = now - t
                if now - start + last > args.seconds or now + 1.5 * last > deadline:
                    break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["cases"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    problems = [f"{f['case']}: {f['error']}" for p in passes for f in p["failures"]]
    counts = [p["counts"] for p in passes]
    if any(c != counts[0] for c in counts):
        problems.append(f"EXACT COUNTS DIFFER BETWEEN PASSES: {counts}")
    # A change to the package may move a count on purpose, so a count that
    # differs from the committed one is reported, not failed.
    want = passes[0]["reference_counts"] or {}
    warnings = [
        f"EXACT COUNT {COUNTS[k]} = {v}, the reference has {want.get(k)}"
        for k, v in counts[0].items()
        if want.get(k) != v
    ]
    backends = {p["backend"] for p in passes}
    if len(backends) != 1:
        problems.append(f"passes used different scalar backends: {backends}")
    env["backend"] = passes[0]["backend"]

    if args.trace:
        metrics = per_layer(passes[0], passes[1])
        metrics["error_rate"] = failed / attempted
        units = PER_LAYER
    else:
        metrics = end_to_end(passes, setups)
        metrics["ok_rate"] = (attempted - failed) / attempted
        units = END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "environment": env, "metrics": metrics,
        "setups": setups, "passes": passes, "problems": problems,
        "warnings": warnings,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} pass(es), {attempted} cases, {failed} failed")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("times are seconds at the reference speed (perfbench/calibrate.py)")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    raw_wall = statistics.median(p["wall_raw_s"] for p in passes)
    speed = statistics.median(p["speed_factor"] for p in passes)
    print(f"raw wall {raw_wall:.3f} s at speed factor {speed:.3f} "
          "(above 1: slower than the reference)")
    slow = sorted(passes[-1]["cases"], key=lambda c: -c["seconds"])[:3]
    print("slowest cases: " + ", ".join(f"{c['key']} {c['seconds']:.3f}s" for c in slow))
    for line in warnings:
        print(f"WARNING: {line}", file=sys.stderr)
    for line in problems:
        print(f"PROBLEM: {line}", file=sys.stderr)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
