"""Command-line interface: modes, documents, exit codes, artifacts."""

import pytest

from effcut import SolveResult, load_instance, render_instance, solve
from effcut.cli import (
    EXIT_BUDGET,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    main,
    parse_result_document,
    render_check_result,
    render_oracle_result,
    render_solve_result,
    render_validate_result,
)
from effcut.search import render_trace

DEMO_X_EFF = [(0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1)]

EMPTY_REGION = (
    "n 1\nr 2\n"
    "Q\n0\nQ\n2\n"
    "c 1\nc -1\n"
    "fractional\np 1\nq 0\nalpha 0\nbeta 1\n"
    "fractional\np -1\nq 1\nalpha 1\nbeta 2\n"
    "A\n1\n-1\nb 1 -2\n"
)


# -- modes ------------------------------------------------------------------


def test_solve_mode(demo_path, capsys):
    assert main(["--instance", demo_path, "--mode", "solve"]) == EXIT_OK
    doc = parse_result_document(capsys.readouterr().out)
    assert doc["mode"] == "solve"
    assert doc["complete"] is True
    assert doc["nodes"] == 16
    assert doc["cuts"] == 21
    assert doc["t1_runs"] == 11
    assert doc["t2_runs"] == 7
    assert doc["sets"]["x_eff"] == DEMO_X_EFF


def test_solve_is_the_default_mode(demo_path, capsys):
    assert main(["--instance", demo_path]) == EXIT_OK
    assert parse_result_document(capsys.readouterr().out)["mode"] == "solve"


def test_oracle_mode(demo_path, capsys):
    assert main(["--instance", demo_path, "--mode", "oracle"]) == EXIT_OK
    doc = parse_result_document(capsys.readouterr().out)
    assert doc["mode"] == "oracle"
    assert doc["d_count"] == 17
    assert len(doc["sets"]["x_q"]) == 8
    assert len(doc["sets"]["x_f"]) == 8
    assert doc["sets"]["x_eff"] == DEMO_X_EFF


def test_check_mode(demo_path, capsys):
    assert main(["--instance", demo_path, "--mode", "check"]) == EXIT_OK
    doc = parse_result_document(capsys.readouterr().out)
    assert doc["agree"] is True
    assert doc["sets"]["solver"] == doc["sets"]["oracle"] == DEMO_X_EFF


def test_validate_mode(demo_path, capsys):
    assert main(["--instance", demo_path, "--mode", "validate"]) == EXIT_OK
    doc = parse_result_document(capsys.readouterr().out)
    assert doc == {"mode": "validate", "valid": True, "sets": {}}


# -- failure exits ------------------------------------------------------------


def test_validate_reports_violations(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text(EMPTY_REGION)
    assert main(["--instance", str(path), "--mode", "validate"]) == EXIT_INVALID
    doc = parse_result_document(capsys.readouterr().out)
    assert doc["valid"] is False
    assert doc["violations"] == ["empty feasible region"]


def test_invalid_instance_blocks_other_modes(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text(EMPTY_REGION)
    assert main(["--instance", str(path), "--mode", "solve"]) == EXIT_INVALID
    assert "empty feasible region" in capsys.readouterr().err


def test_malformed_instance(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("n 1\nr 1\n")
    assert main(["--instance", str(path)]) == EXIT_INVALID
    assert "error" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["--instance", "no/such/file.txt"]) == EXIT_INVALID
    assert "error" in capsys.readouterr().err


def test_budget_exhaustion_exit(demo_path, capsys):
    code = main(["--instance", demo_path, "--node-budget", "1"])
    assert code == EXIT_BUDGET
    doc = parse_result_document(capsys.readouterr().out)
    assert doc["complete"] is False


def test_enum_cap_exhaustion_exit(demo_path, capsys):
    assert main(["--instance", demo_path, "--enum-cap", "5"]) == EXIT_BUDGET
    assert "bounding box" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["oracle", "check"])
def test_enum_cap_exhaustion_exit_in_other_modes(demo_path, capsys, mode):
    args = ["--instance", demo_path, "--mode", mode, "--enum-cap", "5"]
    assert main(args) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert "bounding box" in captured.err
    assert captured.out == ""


def test_check_mismatch_exit(demo_path, capsys, monkeypatch):
    doctored = SolveResult(
        x_eff=((9, 9, 9),),
        node_count=1,
        cut_count=0,
        trace=(),
        counters={"t1_runs": 0, "t2_runs": 0},
        complete=True,
        nodes=(),
    )
    monkeypatch.setattr("effcut.search.solve", lambda inst, **kw: doctored)
    assert main(["--instance", demo_path, "--mode", "check"]) == EXIT_MISMATCH
    doc = parse_result_document(capsys.readouterr().out)
    assert doc["agree"] is False
    assert doc["sets"]["solver"] == [(9, 9, 9)]


def test_nonpositive_budget_rejected(demo_path, capsys):
    assert main(["--instance", demo_path, "--node-budget", "0"]) == EXIT_INVALID
    assert "node budget" in capsys.readouterr().err
    assert main(["--instance", demo_path, "--enum-cap", "0"]) == EXIT_INVALID
    assert "enumeration cap" in capsys.readouterr().err


# -- artifacts ----------------------------------------------------------------


def test_output_file(demo_path, tmp_path, capsys):
    out = tmp_path / "result.txt"
    assert main(["--instance", demo_path, "--output", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    doc = parse_result_document(out.read_text())
    assert doc["sets"]["x_eff"] == DEMO_X_EFF


def test_trace_file_matches_library_trace(demo_path, demo_instance, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    main(["--instance", demo_path, "--trace", str(trace_path), "--output", "/dev/null"])
    assert trace_path.read_text() == render_trace(solve(demo_instance).trace)


# -- document round-trips -------------------------------------------------


def test_solve_document_roundtrip(demo_instance):
    result = solve(demo_instance)
    doc = parse_result_document(render_solve_result(result))
    assert doc["mode"] == "solve"
    assert doc["complete"] is result.complete
    assert doc["nodes"] == result.node_count
    assert doc["cuts"] == result.cut_count
    assert doc["sets"]["x_eff"] == list(result.x_eff)


def test_oracle_document_roundtrip(demo_instance):
    from effcut import oracle_solve

    sets = oracle_solve(demo_instance)
    doc = parse_result_document(render_oracle_result(sets))
    assert doc["d_count"] == len(sets.D)
    assert doc["sets"]["x_q"] == list(sets.X_Q)
    assert doc["sets"]["x_f"] == list(sets.X_F)
    assert doc["sets"]["x_eff"] == list(sets.X_Eff)


def test_check_and_validate_document_roundtrips():
    doc = parse_result_document(render_check_result([(1, 2)], [(1, 2)], True))
    assert doc == {
        "mode": "check",
        "agree": True,
        "sets": {"solver": [(1, 2)], "oracle": [(1, 2)]},
    }
    doc = parse_result_document(render_validate_result(["empty feasible region"]))
    assert doc["valid"] is False
    assert doc["violations"] == ["empty feasible region"]


@pytest.mark.parametrize("text", ["point 1 2\n", "set x_eff\npoint 1 a\n", "nodes many\n"])
def test_malformed_document_raises_value_error(text):
    with pytest.raises(ValueError):
        parse_result_document(text)


def test_documents_survive_reserialization(demo_path, capsys):
    main(["--instance", demo_path, "--mode", "oracle"])
    text = capsys.readouterr().out
    doc = parse_result_document(text)
    rebuilt = ["result oracle", "d_count %d" % doc["d_count"]]
    for name, pts in doc["sets"].items():
        rebuilt.append("set %s" % name)
        rebuilt += ["point " + " ".join(str(v) for v in p) for p in pts]
    assert "\n".join(rebuilt) + "\n" == text


def test_render_instance_is_loadable(demo_instance, tmp_path):
    path = tmp_path / "copy.txt"
    path.write_text(render_instance(demo_instance))
    assert load_instance(str(path)) == demo_instance
