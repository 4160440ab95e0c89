"""Tests of the benchmark itself, on the smoke case lists.

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import cases  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(cases.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert "WARNING" not in proc.stderr
    if trace == "1":
        assert result["metrics"]["trace.coverage"]["value"] > 0.5


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "hecke-sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_growth_exponent_recovers_a_power_law():
    points = [(v, 0.01 * v ** 3.5) for v in (4, 9, 16, 30)]
    assert math.isclose(run.growth_exponent(points), 3.5)


def test_self_times_subtract_children():
    spans = [
        ["bench.case", 0.0, 10.0, None, "0"],
        ["bmsheaf.bm_construct", 1.0, 8.0, 0, "0"],
        ["hecke.bar", 8.0, 9.5, 0, "0"],
    ]
    layers = cases.self_times(spans)
    assert layers == pytest.approx({"bench": 1.5, "bmsheaf": 7.0, "hecke": 1.5})


def test_hecke_seeds_shuffle_within_lengths():
    base = cases.make_cases("hecke-sweep", 0, smoke=True)
    other = cases.make_cases("hecke-sweep", 3, smoke=True)
    assert [c.key for c in base] != [c.key for c in other]
    assert sorted(c.key for c in base) == sorted(c.key for c in other)
    assert [len(c.word) for c in base] == [len(c.word) for c in other]


def test_speed_sampler_arithmetic():
    import calibrate

    s = calibrate.SpeedSampler()
    # bracket samples (outside the pass) at 0 and 10, ticks at 1, 2, 3
    s.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    s.seconds = [9.0, 0.1, 0.2, 0.3, 9.0]
    assert s.busy(0.5, 2.5) == pytest.approx(0.3)
    assert s.busy(-1.0, 11.0) == pytest.approx(0.6)  # brackets never count
    ref = calibrate.REF_UNIT_S
    assert s.factor(1.5, 2.5) == pytest.approx(0.2 / ref)  # window of 1 s
    assert s.factor(5.0, 6.0) == pytest.approx(3.72 / ref)  # none: all
