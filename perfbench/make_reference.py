"""Regenerate perfbench/reference.json from the current package.

    python3 perfbench/make_reference.py

Runs every case of every workload once (the full lists and the smoke
lists; seed 0 covers every case any seed can draw) and stores each case's
outputs: for sheaf cases the character, the stalk and costalk generator
degrees, the section dimensions and the check verdicts; for Hecke cases
the self-dual basis coefficients.  It also stores each workload's exact
counts, which no seed changes.  Each workload runs in a fresh process, as
in a benchmark pass, because one count is the size of a module-level
cache.  Regenerate only on purpose: the file is the output gate every
benchmark run is held to.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import cases  # noqa: E402


def one_workload(workload, smoke):
    results, counts, _ = cases.run_pass(cases.make_cases(workload, 0, smoke))
    out = {}
    for r in results:
        if r.error is not None:
            raise SystemExit(f"{r.case.key}: {r.error}")
        out[r.case.key] = cases.summarize(r)
    return {"cases": out, "counts": counts}


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--one":
        print(json.dumps(one_workload(sys.argv[2], sys.argv[3] == "smoke")))
        return
    out, counts = {}, {}
    for workload in cases.WORKLOADS:
        for smoke in (False, True):
            proc = subprocess.run(
                [sys.executable, "-I", __file__, "--one", workload,
                 "smoke" if smoke else "full"],
                capture_output=True, text=True, check=True,
            )
            part = json.loads(proc.stdout)
            out.update(part["cases"])
            counts[cases.counts_key(workload, smoke)] = part["counts"]
            print(f"{workload}{' (smoke)' if smoke else ''}: "
                  f"{len(part['cases'])} cases", flush=True)
    path = os.path.join(HERE, "reference.json")
    with open(path, "w") as fh:
        json.dump({"cases": out, "counts": counts}, fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}: {len(out)} cases")


if __name__ == "__main__":
    main()
