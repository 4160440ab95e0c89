"""Command-line behavior: tables, JSON/CSV/DOT output, exit codes
and the failure plumbing of the verification runner."""

import json

import pytest

from bmsheaves import cli, verify
from bmsheaves.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- kl ---------------------------------------------------------------------------


def test_kl_table_for_the_longest_a2_element(capsys):
    code, out, err = run(capsys, "kl", "--preset", "A2", "--x", "121")
    assert code == 0 and err == ""
    assert "h_{y,x}" in out and "P_{y,x}" in out
    lines = out.splitlines()
    row_e = next(line for line in lines if line.startswith("e "))
    assert "v^3" in row_e and row_e.rstrip().endswith("1")
    assert any(line.startswith("121") for line in lines)


def test_kl_oracle_crosscheck_passes(capsys):
    code, out, _ = run(capsys, "kl", "--preset", "B2", "--x", "212", "--oracle")
    assert code == 0
    assert "oracle cross-check: ok" in out


def test_kl_identity_spelling(capsys):
    code, out, _ = run(capsys, "kl", "--preset", "A2", "--x", "e")
    assert code == 0
    assert "length 0" in out


# -- usage errors -----------------------------------------------------------------


def test_infinite_presets_require_a_length_bound(capsys):
    code, _, err = run(capsys, "kl", "--preset", "U2", "--x", "1212")
    assert code == 2
    assert "--max-length" in err
    code, out, _ = run(
        capsys, "kl", "--preset", "U2", "--x", "1212", "--max-length", "6"
    )
    assert code == 0
    assert "v^4" in out


def test_length_bound_is_enforced(capsys):
    code, _, err = run(
        capsys, "kl", "--preset", "U2", "--x", "121212", "--max-length", "4"
    )
    assert code == 2
    assert "above --max-length" in err


def test_bad_words_and_missing_systems(capsys):
    code, _, err = run(capsys, "kl", "--preset", "A2", "--x", "13")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "kl", "--x", "1")
    assert code == 2 and "--preset or --cartan" in err
    with pytest.raises(SystemExit) as exc:
        main(["kl", "--preset", "Z9", "--x", "1"])
    assert exc.value.code == 2


def test_system_files_are_loaded(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"rank": 2, "coxeter": [[1, 3], [3, 1]]}))
    code, out, _ = run(capsys, "kl", "--cartan", str(path), "--x", "121")
    assert code == 0 and "v^3" in out
    # an infinite bond in the file also demands --max-length
    path.write_text(json.dumps({"rank": 2, "coxeter": [[1, 0], [0, 1]]}))
    code, _, err = run(capsys, "kl", "--cartan", str(path), "--x", "12")
    assert code == 2 and "--max-length" in err
    code, _, err = run(capsys, "kl", "--cartan", str(path.with_name("no.json")), "--x", "1")
    assert code == 2


MALFORMED_SYSTEMS = {
    "row-not-a-list": '{"rank": 2, "coxeter": [1, 2]}',
    "truncated": '{"rank": 2, "coxeter": [[1, 3], [3',
    "string-entry": '{"rank": 2, "coxeter": [[1, "x"], [3, 1]]}',
    "float-entry": '{"rank": 2, "coxeter": [[1, 3.7], [3.7, 1]]}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SYSTEMS))
def test_malformed_system_files_are_usage_errors(capsys, tmp_path, name):
    path = tmp_path / "system.json"
    path.write_text(MALFORMED_SYSTEMS[name])
    code, _, err = run(capsys, "kl", "--cartan", str(path), "--x", "1")
    assert code == 2 and err.startswith("error:"), err


def test_preset_and_file_are_mutually_exclusive(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"rank": 1, "coxeter": [[1]]}))
    code, _, err = run(
        capsys, "kl", "--preset", "A2", "--cartan", str(path), "--x", "1"
    )
    assert code == 2 and "not both" in err


# -- bm ---------------------------------------------------------------------------


def test_bm_reports_the_match_and_checks(capsys):
    code, out, _ = run(capsys, "bm", "--preset", "A2", "--x", "121")
    assert code == 0
    assert "match with the self-dual basis element: yes" in out
    assert "self_dual=ok" in out and "support=ok" in out and "positivity=ok" in out
    assert "costalk" in out and "stalk" in out


def test_bm_json_roundtrip(capsys, tmp_path):
    path = tmp_path / "result.json"
    code, _, _ = run(
        capsys, "bm", "--preset", "A3", "--x", "2132", "--json", str(path), "--strict"
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert set(data) == {
        "x", "stalks", "costalks", "character", "kl", "match", "checks",
    }
    assert data["x"] == "2132"
    assert data["match"] is True
    assert data["stalks"]["e"] == [0, 2]
    assert data["costalks"]["e"] == [6, 8]
    assert data["character"] == data["kl"]


def test_bm_csv_rows(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "bm", "--preset", "A2", "--x", "12", "--csv", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,f,h"
    assert len(lines) == 5  # header plus one row per vertex of [e, 12]
    assert all(line.startswith("12,") for line in lines[1:])


def test_bm_cap_override_too_small_is_a_usage_error(capsys):
    code, _, err = run(capsys, "bm", "--preset", "A2", "--x", "121", "--cap", "2")
    assert code == 2 and "--cap 2 is too small" in err
    code, _, err = run(capsys, "bm", "--preset", "A2", "--x", "121", "--cap", "-4")
    assert code == 2 and "--cap -4 is too small" in err
    code, _, _ = run(capsys, "bm", "--preset", "A2", "--x", "121", "--cap", "20")
    assert code == 0


# -- graph --------------------------------------------------------------------------


def test_graph_dot_output_is_stable(capsys, tmp_path):
    first = tmp_path / "a.dot"
    second = tmp_path / "b.dot"
    assert run(capsys, "graph", "--preset", "B2", "--x", "1212", "--dot", str(first))[0] == 0
    assert run(capsys, "graph", "--preset", "B2", "--x", "1212", "--dot", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    code, out, _ = run(capsys, "graph", "--preset", "A2", "--x", "12")
    assert code == 0
    assert out.startswith("digraph momentgraph {")
    assert out.count("->") == 4


# -- verify plumbing ----------------------------------------------------------------


def test_verify_reports_failures_and_exits_nonzero(capsys, monkeypatch):
    def fine(ctx):
        return True, "all good"

    def broken(ctx):
        raise ValueError("boom")

    monkeypatch.setattr(verify, "CRITERIA", [("fine", fine), ("broken", broken)])
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "[ok  ] fine" in out
    assert "[FAIL] broken" in out and "ValueError: boom" in out
    assert "1/2 checks passed" in out


def test_verify_exits_zero_when_everything_passes(capsys, monkeypatch):
    monkeypatch.setattr(verify, "CRITERIA", [("fine", lambda ctx: (True, "ok"))])
    code, out, _ = run(capsys, "verify", "--suite", "extended")
    assert code == 0
    assert "1/1 checks passed" in out and "extended suite" in out


def test_cli_module_exports_consistent_exit_codes():
    assert (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_USAGE) == (0, 1, 2)
