"""tools/bench_record.py: the summary and the "compare" block it writes
from canned perfbench records, with no benchmark run."""

import hashlib
import importlib.util
import json
import re
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

WORKLOADS = [w["name"] for w in bench_record.benchmark()["workloads"]]
COUNTS = {"vertices": 24, "edges": 72}


@pytest.fixture
def dirs(tmp_path, monkeypatch):
    """perfbench/out/ and the directory of the BENCH files, both under
    tmp_path."""
    out = tmp_path / "out"
    monkeypatch.setattr(bench_record, "RECORDS", out)
    monkeypatch.setattr(bench_record, "DEST", tmp_path)
    return out, tmp_path


def write_records(out, metrics_by_seed, traced):
    """One --trace 0 record per seed with the given end-to-end metrics,
    and one --trace 1 record, for every workload, all taken on the
    current src/."""
    env = {"python": "3.11.7", "src_lines": 10,
           "src_sha256": bench_record.src_sha256()}
    out.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        runs = [(seed, 0, m) for seed, m in metrics_by_seed.items()]
        runs.append((bench_record.TRACE_SEED, 1, traced))
        for seed, trace, metrics in runs:
            record = {
                "workload": workload, "seed": seed, "trace": trace,
                "smoke": False, "environment": env, "metrics": metrics,
                "passes": [{"counts": COUNTS}, {"counts": COUNTS}],
                "problems": [], "warnings": [],
            }
            path = out / f"result-{workload}-seed{seed}-trace{trace}.json"
            path.write_text(json.dumps(record))


def metrics(wall, rss, ok, growth):
    return {"setup_s": 0.08, "wall_s": wall, "max_case_s": 0.1,
            "growth_exp": growth, "peak_rss_mib": rss, "ok_rate": ok}


def test_two_canned_records_give_the_expected_compare_block(dirs):
    out, dest = dirs
    walls = (0.30, 0.28, 0.33, 0.31, 0.29)
    write_records(
        out,
        {s: metrics(w, 19.0, 1.0, 0.0) for s, w in zip(bench_record.SEEDS, walls)},
        {"bmsheaf.bm_construct_s": 0.07},
    )
    # an older record and a later one, which the comparison must skip
    (dest / "BENCH_3.json").write_text(json.dumps({"workloads": {}}))
    (dest / "BENCH_12.json").write_text(json.dumps({"workloads": {}}))
    assert bench_record.main(["--pr", "7", "--no-run"]) == 0
    before = json.loads((dest / "BENCH_7.json").read_text())
    entry = before["workloads"][WORKLOADS[0]]
    assert entry["end_to_end"]["wall_s"] == pytest.approx(
        {"median": 0.30, "q1": 0.29, "q3": 0.31, "values": list(walls)}
    )
    assert entry["per_layer"] == {"bmsheaf.bm_construct_s": 0.07}
    assert entry["counts"] == COUNTS and entry["counts_agree"]
    assert before["compare"] == {"against": "BENCH_3.json", "workloads": {}, "suites": {}}
    assert "suites" not in before  # --no-run times no suite
    assert before["environment"]["src_sha256"] == bench_record.src_sha256()
    assert "commit" not in before["environment"]

    # faster, 15% more memory, one case in a hundred failing, growth from 0,
    # on a tree that has shrunk since BENCH_7
    before["environment"].update(src_lines=12, code_lines=9)
    (dest / "BENCH_7.json").write_text(json.dumps(before))
    write_records(
        out,
        {s: metrics(0.25, 19.0 * 1.15, 0.99, 0.5) for s in bench_record.SEEDS},
        {},
    )
    assert bench_record.main(["--pr", "8", "--no-run"]) == 0
    after = json.loads((dest / "BENCH_8.json").read_text())
    block = after["compare"]
    assert block["against"] == "BENCH_7.json"
    assert sorted(block["workloads"]) == sorted(WORKLOADS)
    rows = block["workloads"][WORKLOADS[0]]
    assert rows["wall_s"]["ratio"] == pytest.approx(0.25 / 0.30)
    assert rows["setup_s"]["ratio"] == pytest.approx(1.0)
    assert rows["peak_rss_mib"]["ratio"] == pytest.approx(1.15)
    assert rows["growth_exp"]["ratio"] is None
    outside = {m for m, row in rows.items() if row["outside_bound"]}
    assert outside == {"peak_rss_mib", "ok_rate", "growth_exp"}
    assert block["src_lines"] == {"before": 12, "after": 10}
    code = bench_record.code_lines(ROOT / "src")
    assert block["code_lines"] == {"before": 9, "after": code}


def test_records_of_another_tree_are_refused(dirs):
    """One stale record among current ones: no BENCH file is written."""
    out, dest = dirs
    write_records(out, {s: metrics(0.3, 19.0, 1.0, 0.0) for s in bench_record.SEEDS}, {})
    path = out / f"result-{WORKLOADS[-1]}-seed{bench_record.SEEDS[-1]}-trace0.json"
    record = json.loads(path.read_text())
    record["environment"] = dict(record["environment"], src_sha256="0" * 64)
    path.write_text(json.dumps(record))
    with pytest.raises(SystemExit, match="another src/"):
        bench_record.main(["--pr", "7", "--no-run"])
    assert not (dest / "BENCH_7.json").exists()


def test_smoke_records_are_refused(dirs):
    out, _ = dirs
    out.mkdir()
    path = out / "result-local-checks-seed1-trace0.json"
    path.write_text(json.dumps({"smoke": True}))
    with pytest.raises(SystemExit):
        bench_record.load_record("local-checks", 1, 0)


def test_suites_are_timed_and_compared(dirs, monkeypatch):
    """Canned suites in place of the tier-1 run and `bmsheaves verify`:
    each one runs SUITE_RUNS times on this tree's src/; its median and
    every wall time, its first nonzero exit code and the last line of its
    last run go in the record, and the next record compares the medians.
    A record from before suites were timed more than once, with one wall
    time and no `values`, still compares."""
    out, dest = dirs
    write_records(out, {s: metrics(0.3, 19.0, 1.0, 0.0) for s in bench_record.SEEDS}, {})
    monkeypatch.setattr(bench_record, "run_perfbench", lambda *args: None)
    monkeypatch.setattr(bench_record, "OUTPUTS", {})
    # both suites count their runs in one file: tier-1 prints the count,
    # and verify fails only on its own second run
    runs = dest / "runs"
    count = (f"import pathlib; p = pathlib.Path({str(runs)!r}); "
             "n = len(p.read_text()) + 1 if p.exists() else 1; p.write_text('.' * n)")
    second_verify = bench_record.SUITE_RUNS + 2
    monkeypatch.setattr(bench_record, "SUITES", {
        "tier1": [sys.executable, "-c",
                  f"{count}; print('.....'); print(n, 'passed in 0.01s')"],
        "verify": [sys.executable, "-c",
                   "import sys, bmsheaves; print(bmsheaves.__file__); "
                   f"{count}; sys.exit(2 if n == {second_verify} else 0)"],
    })
    (dest / "BENCH_6.json").write_text(json.dumps({
        "workloads": {},
        "suites": {"tier1": {"wall_s": 2.0, "returncode": 0, "summary": ""}},
    }))
    assert bench_record.main(["--pr", "7"]) == 0
    record = json.loads((dest / "BENCH_7.json").read_text())
    first = record["suites"]
    assert sorted(first) == ["tier1", "verify"]
    assert first["tier1"]["returncode"] == 0
    assert first["tier1"]["summary"] == f"{bench_record.SUITE_RUNS} passed in 0.01s"
    assert first["verify"]["returncode"] == 2
    assert first["verify"]["summary"].startswith(str(ROOT / "src"))
    for entry in first.values():
        assert len(entry["values"]) == bench_record.SUITE_RUNS
        assert all(wall > 0 for wall in entry["values"])
        assert entry["wall_s"] == statistics.median(entry["values"])
    assert record["compare"]["suites"] == {"tier1": pytest.approx({
        "before": 2.0, "after": first["tier1"]["wall_s"],
        "ratio": first["tier1"]["wall_s"] / 2.0,
    })}

    assert bench_record.main(["--pr", "8"]) == 0
    second = json.loads((dest / "BENCH_8.json").read_text())
    block = second["compare"]["suites"]
    for name, entry in second["suites"].items():
        before = first[name]["wall_s"]
        assert block[name] == pytest.approx({
            "before": before, "after": entry["wall_s"],
            "ratio": entry["wall_s"] / before,
        })


def test_output_digests_are_recorded_and_compared(dirs, monkeypatch):
    """A canned `bmsheaves` in place of the real one, run where a4.json
    lies: each output's digest is the SHA-256 of its stdout with the
    timings cut, then of the files it writes, so a timing that changes
    between runs leaves it as it was; the next record finds it identical,
    and one whose written file changed is not.  --no-run runs no output."""
    out, dest = dirs
    write_records(out, {s: metrics(0.3, 19.0, 1.0, 0.0) for s in bench_record.SEEDS}, {})
    monkeypatch.setattr(bench_record, "run_perfbench", lambda *args: None)
    monkeypatch.setattr(bench_record, "SUITES", {})
    table = dest / "table"
    table.write_text("h v^2\n")
    # prints its arguments with a fresh timing; `echo F` then prints F,
    # and `file F` copies table to F
    monkeypatch.setattr(bench_record, "CLI", [sys.executable, "-c", (
        "import pathlib, shutil, sys, time; args = sys.argv[1:]; "
        "print(*args, f'({time.perf_counter():.2f}s)', "
        "f'passed in {time.perf_counter():.1f}s'); "
        "args[0] == 'echo' and print(pathlib.Path(args[1]).read_text(), end=''); "
        f"args[0] == 'file' and shutil.copy({str(table)!r}, args[1])"
    )])
    monkeypatch.setattr(bench_record, "OUTPUTS", {
        "echo": (["echo", "a4.json"], ()),
        "file": (["file", "out.txt"], ("out.txt",)),
    })
    assert bench_record.main(["--pr", "7"]) == 0
    first = json.loads((dest / "BENCH_7.json").read_text())["outputs"]
    echo = b"echo a4.json  passed \n" + bench_record.A4_JSON.encode()
    assert first == {
        "echo": hashlib.sha256(echo).hexdigest(),
        "file": hashlib.sha256(b"file out.txt  passed \nh v^2\n").hexdigest(),
    }

    assert bench_record.main(["--pr", "8"]) == 0
    second = json.loads((dest / "BENCH_8.json").read_text())
    assert second["outputs"] == first
    assert second["compare"]["outputs"] == {"echo": True, "file": True}

    table.write_text("h v^3\n")
    assert bench_record.main(["--pr", "9"]) == 0
    third = json.loads((dest / "BENCH_9.json").read_text())
    assert third["outputs"]["echo"] == first["echo"]
    assert third["compare"]["outputs"] == {"echo": True, "file": False}

    assert bench_record.main(["--pr", "10", "--no-run"]) == 0
    fourth = json.loads((dest / "BENCH_10.json").read_text())
    assert "outputs" not in fourth and "outputs" not in fourth["compare"]


def test_two_canned_records_compare_their_output_digests():
    """Equal digests are identical, a changed one is not, and a name that
    only one record holds is left out."""
    old = {"workloads": {}, "outputs": {"kl-A3": "a" * 64, "verify": "b" * 64}}
    same = {"workloads": {}, "outputs": dict(old["outputs"])}
    changed = {"workloads": {}, "outputs": {"kl-A3": "a" * 64, "verify": "c" * 64,
                                            "bm-A3": "d" * 64}}
    assert bench_record.compare(same, old, "BENCH_1.json", {})["outputs"] == {
        "kl-A3": True, "verify": True}
    assert bench_record.compare(changed, old, "BENCH_1.json", {})["outputs"] == {
        "kl-A3": True, "verify": False}
    assert "outputs" not in bench_record.compare(same, {"workloads": {}}, "x", {})


def test_the_output_list_holds_the_ci_hecke_cross_checks():
    """Every `bmsheaves kl ... --oracle` run of the CI workflow is an
    output, so the digests cover the tables CI prints."""
    ci = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    runs = re.findall(r"bmsheaves (kl .*--oracle)$", ci, re.M)
    listed = {" ".join(args) for args, _ in bench_record.OUTPUTS.values()}
    assert len(runs) == 5 and set(runs) <= listed
