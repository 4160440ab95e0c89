"""Write the performance record BENCH_<pr>.json from perfbench runs.

For each workload in BENCHMARK.json it runs perfbench/run.py as it
stands, for SECONDS each, with --trace 0 at the seeds SEEDS and with
--trace 1 at TRACE_SEED, and reads the records that run.py writes to
perfbench/out/.  It refuses to write a record unless every run it reads
was taken on the current src/, as the SHA-256 that run.py records of
src/ shows.

It also times, SUITE_RUNS times each and wall clock, the tier-1 test
run and `bmsheaves verify` (SUITES), on src/ through PYTHONPATH.  And it
runs each command of OUTPUTS once, on the same src/, in a fresh
temporary directory that holds a4.json as CI writes it (the `kl` header
prints the --cartan path): the CI `kl ... --oracle` tables, two `bm`
runs that write --json and --csv files, and `bmsheaves verify`.  Each
one's digest is the SHA-256 of its stdout with the timings of `verify`,
"(0.46s)" and "in 1.5s", cut, followed by the files it writes.

The record it writes at the repository root holds, per workload, the
median and quartiles of every end-to-end metric over the seeds, the
per-layer split of the traced run, the exact counts, and any warning or
problem a run reported; per suite, the median and every one of its wall
times, the first nonzero exit code of its runs (else 0) and the last
line its last run printed; per output, its digest; and, for the tree,
the line count and SHA-256 of src/, its count of code lines and the
Python version.  The SHA-256 names the tree; a commit id is left out,
since the record is committed with the tree it describes.

When an earlier BENCH_*.json lies next to it, a "compare" block gives the
ratio of each end-to-end median to the earlier one and whether it is
worse than the bound that BENCHMARK.json sets for the metric, and the
ratio of each suite's median wall time, which has no bound (a record
written before suites were timed more than once holds its one time),
and the line and code-line counts of src/ in both records, and whether
each output digest is identical to the earlier one, when both hold them.
Times are those of perfbench: seconds at its reference speed, with
pure-Python integer arithmetic.

    python tools/bench_record.py --pr 31
    python tools/bench_record.py --pr 31 --no-run   # records already there, no suite
                                                    # and no output digest
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORDS = ROOT / "perfbench" / "out"  # where perfbench/run.py writes
DEST = ROOT  # where the BENCH_<n>.json records lie
SEEDS = (1, 2, 3, 4, 5)
TRACE_SEED = 1
SECONDS = 6  # perfbench --seconds of every run
SUITE_RUNS = 3  # timed runs of each suite
SUITES = {  # the tier-1 run as ROADMAP.md gives it, and `bmsheaves verify`
    "tier1": [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
    "verify": [sys.executable, "-c",
               "import sys; from bmsheaves.cli import main; sys.exit(main(['verify']))"],
}
CLI = [sys.executable, "-m", "bmsheaves.cli"]  # `bmsheaves` on src/
OUTPUTS = {  # name: (arguments of `bmsheaves`, the files it writes)
    "kl-A3": (["kl", "--preset", "A3", "--x", "121321", "--oracle"], ()),
    "kl-G2": (["kl", "--preset", "G2", "--x", "121212", "--oracle"], ()),
    "kl-U3": (["kl", "--preset", "U3", "--x", "1231231231231", "--max-length", "13",
               "--oracle"], ()),
    "kl-U2": (["kl", "--preset", "U2", "--x", "12" * 30, "--max-length", "60",
               "--oracle"], ()),
    "kl-A4": (["kl", "--cartan", "a4.json", "--x", "1213214321", "--oracle"], ()),
    "bm-U3": (["bm", "--preset", "U3", "--x", "1231231", "--max-length", "7",
               "--json", "bm.json"], ("bm.json",)),
    "bm-A3": (["bm", "--preset", "A3", "--x", "121321", "--json", "bm.json",
               "--csv", "bm.csv"], ("bm.json", "bm.csv")),
    "verify": (["verify"], ()),
}
A4_JSON = ('{"rank": 4, "coxeter": [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], '
           '[2, 2, 3, 1]]}\n')
TIMING = re.compile(r"\(\d+(?:\.\d+)?s\)|in \d+(?:\.\d+)?s")


def benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def src_sha256():
    """The SHA-256 of src/ as perfbench/run.py records it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.environment()["src_sha256"]


def run_perfbench(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--seconds", str(SECONDS)]
    print("+", " ".join(cmd[1:]), flush=True)
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def src_env():
    """The environment with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def time_suite(cmd):
    """Median and every wall time of SUITE_RUNS runs of one suite, their
    first nonzero exit code (else 0) and the last line of the last run."""
    env = src_env()
    walls, codes = [], []
    for _ in range(SUITE_RUNS):
        print("+", " ".join(cmd[1:]), flush=True)
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        codes.append(done.returncode)
    lines = done.stdout.strip().splitlines()
    return {"wall_s": statistics.median(walls), "values": walls,
            "returncode": next((c for c in codes if c), 0),
            "summary": lines[-1] if lines else ""}


def output_digests():
    """{name: SHA-256} of each command of OUTPUTS: of its stdout with the
    timings cut, then of each file it writes.  A command that fails stops
    the record."""
    env = src_env()
    digests = {}
    for name, (args, files) in OUTPUTS.items():
        print("+ bmsheaves", " ".join(args), flush=True)
        with tempfile.TemporaryDirectory() as cwd:
            (Path(cwd) / "a4.json").write_text(A4_JSON)
            done = subprocess.run(CLI + args, cwd=cwd, env=env,
                                  capture_output=True, text=True)
            if done.returncode:
                raise SystemExit(f"output {name} failed:\n{done.stderr}")
            digest = hashlib.sha256(TIMING.sub("", done.stdout).encode())
            for file in files:
                digest.update((Path(cwd) / file).read_bytes())
        digests[name] = digest.hexdigest()
    return digests


def load_record(workload, seed, trace):
    path = RECORDS / f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(path) as fh:
        record = json.load(fh)
    if record.get("smoke"):
        raise SystemExit(f"{path} is a --smoke record")
    return record


def spread(values):
    """Median and quartiles (the inclusive method) of two or more numbers."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def summarize(plain, traced, names):
    """One workload's entry: `plain` its --trace 0 records, `traced` its
    --trace 1 record, `names` the end-to-end metrics."""
    counts = [p["counts"] for r in plain + [traced] for p in r["passes"]]
    return {
        "seeds": [r["seed"] for r in plain],
        "end_to_end": {
            n: spread([r["metrics"][n] for r in plain]) for n in names
        },
        "per_layer": traced["metrics"],
        "counts": counts[0],
        "counts_agree": all(c == counts[0] for c in counts),
        "warnings": [w for r in plain + [traced] for w in r["warnings"]],
        "problems": [p for r in plain + [traced] for p in r["problems"]],
    }


def code_lines(src):
    """Lines of src/*.py that hold code: no blank, comment-only or
    docstring-only line counts."""
    total = 0
    for path in sorted(Path(src).rglob("*.py")):
        lines = set()
        prev = tokenize.NEWLINE
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            skip = tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                                tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
            docstring = tok.type == tokenize.STRING and prev in (
                tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
            if not skip and not docstring:
                lines.update(range(tok.start[0], tok.end[0] + 1))
            if tok.type not in (tokenize.COMMENT, tokenize.NL):
                prev = tok.type
        total += len(lines)
    return total


def compare(new, old, name, bounds):
    """Per workload and end-to-end metric, the ratio of the medians
    new/old and whether it is worse than the metric's bound; per suite,
    the ratio of the median wall times; the line count and code-line
    count of src/ before and after; and per output, whether its digests
    are identical; each when both records hold it."""
    out = {"against": name, "workloads": {}}
    for workload, entry in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        rows = out["workloads"][workload] = {}
        for metric, (better, bound) in bounds.items():
            a = before["end_to_end"].get(metric, {}).get("median")
            b = entry["end_to_end"].get(metric, {}).get("median")
            if a is None or b is None:
                continue
            ratio = b / a if a else None
            if ratio is None:
                worse = b > a if better == "lower" else b < a
            elif better == "lower":
                worse = ratio > 1 + bound
            else:
                worse = ratio < 1 - bound
            rows[metric] = {"before": a, "after": b, "ratio": ratio,
                            "outside_bound": worse}
    suites = out["suites"] = {}
    for suite, entry in new.get("suites", {}).items():
        before = old.get("suites", {}).get(suite)
        if before is not None:
            a, b = before["wall_s"], entry["wall_s"]
            suites[suite] = {"before": a, "after": b, "ratio": b / a}
    for key in ("src_lines", "code_lines"):
        a = old.get("environment", {}).get(key)
        b = new.get("environment", {}).get(key)
        if a is not None and b is not None:
            out[key] = {"before": a, "after": b}
    a, b = old.get("outputs"), new.get("outputs")
    if a is not None and b is not None:
        out["outputs"] = {n: b[n] == a[n] for n in b if n in a}
    return out


def previous(pr):
    """(name, record) of the BENCH_<n>.json in DEST with the largest n < pr."""
    found = []
    for path in DEST.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m and int(m.group(1)) < pr:
            found.append((int(m.group(1)), path))
    if not found:
        return None
    path = max(found)[1]
    with open(path) as fh:
        return path.name, json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="number of the record")
    ap.add_argument("--no-run", action="store_true",
                    help="read the records already in perfbench/out/, time no suite "
                         "and run no output")
    args = ap.parse_args(argv)

    spec = benchmark()
    names = [m["name"] for m in spec["end_to_end"]]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.no_run:
        for workload in workloads:
            for seed in SEEDS:
                run_perfbench(workload, seed, 0)
            run_perfbench(workload, TRACE_SEED, 1)

    record = {"pr": args.pr, "workloads": {}}
    if not args.no_run:
        record["suites"] = {name: time_suite(cmd) for name, cmd in SUITES.items()}
        record["outputs"] = output_digests()
    envs = []
    for workload in workloads:
        plain = [load_record(workload, s, 0) for s in SEEDS]
        traced = load_record(workload, TRACE_SEED, 1)
        record["workloads"][workload] = summarize(plain, traced, names)
        envs += [r["environment"] for r in plain + [traced]]
    current = src_sha256()
    stale = {e["src_sha256"] for e in envs} - {current}
    if stale:
        raise SystemExit(f"records of another src/ ({', '.join(sorted(stale))}), "
                         f"not of the current one ({current}); run without --no-run")
    env = envs[0]
    record["environment"] = {
        "python": env["python"],
        "src_lines": env["src_lines"],
        "src_sha256": env["src_sha256"],
        "code_lines": code_lines(ROOT / "src"),
    }
    before = previous(args.pr)
    if before is not None:
        record["compare"] = compare(record, before[1], before[0], bounds)
        changed = [n for n, same in record["compare"].get("outputs", {}).items()
                   if not same]
        if changed:
            print(f"outputs changed since {before[0]}: {', '.join(changed)}")
    path = DEST / f"BENCH_{args.pr}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
