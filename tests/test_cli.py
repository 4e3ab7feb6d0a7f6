import io
import json

import pytest

from nilorbits.cli import main
from nilorbits.linalg import GroupKind, Matrix, SpaceSpec, matrix_to_json
from nilorbits.patterns import (LinkPattern, dotted, enumerate_patterns,
                                pattern_from_json, pattern_to_json,
                                unoriented_loop, upper_loop)
from nilorbits.quiver import multiset_to_json, pattern_to_summands


def test_count_borel_uses_the_recurrence(capsys):
    assert main(["count", "--group", "sp", "--rank", "5"]) == 0
    assert capsys.readouterr().out == "2043 (recurrence)\n"
    assert main(["count", "--group", "o", "--rank", "6"]) == 0
    assert capsys.readouterr().out == "1741 (recurrence)\n"


def test_count_blocks_falls_back_to_enumeration(capsys):
    assert main(["count", "--group", "sp", "--blocks", "2,1",
                 "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    want = len(enumerate_patterns("symplectic", 2, (2, 1)))
    assert obj == {"count": want, "method": "enumeration"}


def test_count_needs_a_level(capsys):
    assert main(["count", "--group", "sp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nilorbits count:")


def test_enumerate_json_lines_round_trip(capsys):
    assert main(["enumerate", "--group", "o", "--n", "4",
                 "--format", "json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [pattern_from_json(line) for line in lines] == \
        enumerate_patterns("orthogonal", 2, (1, 1))


def test_enumerate_csv_header_and_rows(capsys):
    assert main(["enumerate", "--group", "sp", "--rank", "2",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,arcs"
    assert lines[1] == "1,"
    assert len(lines) == 14
    assert any(line.endswith(",uloop(1);uloop(2)") for line in lines)


def test_repr_of_the_empty_pattern_is_zero(tmp_path, capsys):
    src = tmp_path / "pattern.json"
    src.write_text(pattern_to_json(LinkPattern.borel("orthogonal", 2)),
                   encoding="utf-8")
    assert main(["repr", "--group", "o", "--n", "4", "--in", str(src)]) == 0
    assert capsys.readouterr().out == "0 0 0 0\n" * 4


def test_repr_reads_stdin_by_default(capsys, monkeypatch):
    text = pattern_to_json(LinkPattern.borel("symplectic", 2, (upper_loop(1),)))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["repr", "--group", "sp", "--format", "json"]) == 0
    out = capsys.readouterr().out.strip()
    assert json.loads(out)["entries"][0][3] == 1


def test_repr_orthogonal_needs_n(tmp_path, capsys):
    src = tmp_path / "pattern.json"
    src.write_text(pattern_to_json(LinkPattern.borel("orthogonal", 2)),
                   encoding="utf-8")
    assert main(["repr", "--group", "o", "--in", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nilorbits repr:") and "--n" in err


def test_identify_reports_pattern_and_dimension(tmp_path, capsys):
    x = Matrix.unit(4, 1, 2) - Matrix.unit(4, 3, 4)
    src = tmp_path / "matrix.json"
    src.write_text(matrix_to_json(x), encoding="utf-8")
    assert main(["identify", "--group", "o", "--in", str(src)]) == 0
    assert capsys.readouterr().out == "{2->1}  orbit dimension 1\n"
    assert main(["identify", "--group", "o", "--in", str(src),
                 "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["orbit_dimension"] == 1
    assert obj["pattern"]["arcs"] == [{"from": 2, "to": 1, "dotted": False}]


def test_identify_parabolic_blocks(tmp_path, capsys):
    x = Matrix.unit(4, 1, 2) - Matrix.unit(4, 3, 4)
    src = tmp_path / "matrix.json"
    src.write_text(matrix_to_json(x), encoding="utf-8")
    assert main(["identify", "--group", "o", "--blocks", "2",
                 "--in", str(src)]) == 0
    assert capsys.readouterr().out == "{loop(1)}  orbit dimension 2\n"


def test_identify_rejects_with_diagnostics(tmp_path, capsys):
    src = tmp_path / "matrix.json"
    src.write_text(matrix_to_json(Matrix.identity(4)), encoding="utf-8")
    assert main(["identify", "--group", "o", "--in", str(src)]) == 2
    assert "matrix not in o_4" in capsys.readouterr().err
    assert main(["identify", "--group", "o", "--n", "6", "--in", str(src)]) == 2
    assert "does not match" in capsys.readouterr().err
    src.write_text("not json", encoding="utf-8")
    assert main(["identify", "--group", "o", "--in", str(src)]) == 2
    assert capsys.readouterr().err.startswith("nilorbits identify:")


def test_identify_refusals_name_the_failing_entry(tmp_path, capsys):
    src = tmp_path / "matrix.json"
    bad_form = Matrix.unit(4, 1, 2)
    not_square_zero = Matrix.unit(4, 1, 2) - Matrix.unit(4, 3, 4) + Matrix.unit(4, 2, 3)
    for x, want in ((bad_form, "matrix not in sp_4: (transpose(a)F + Fa)[2,4] != 0"),
                    (not_square_zero, "matrix is not 2-nilpotent: (x @ x)[1,3] != 0")):
        src.write_text(matrix_to_json(x), encoding="utf-8")
        assert main(["identify", "--group", "sp", "--in", str(src)]) == 2
        assert capsys.readouterr().err == f"nilorbits identify: {want}\n"


def test_repr_identify_round_trip(tmp_path, capsys):
    for group, n in (("sp", 4), ("o", 4), ("o", 5)):
        g = (GroupKind.symplectic(n) if group == "sp"
             else GroupKind.orthogonal(n))
        for p in enumerate_patterns(g.family, g.l, (1,) * g.l):
            src = tmp_path / "pattern.json"
            out = tmp_path / "matrix.json"
            src.write_text(pattern_to_json(p), encoding="utf-8")
            assert main(["repr", "--group", group, "--n", str(n),
                         "--in", str(src), "--out", str(out),
                         "--format", "json"]) == 0
            assert main(["identify", "--group", group, "--in", str(out),
                         "--format", "json"]) == 0
            obj = json.loads(capsys.readouterr().out)
            assert pattern_from_json(json.dumps(obj["pattern"])) == p


def test_summands_of_the_worked_example(tmp_path, capsys):
    p = LinkPattern("symplectic", 2, (4, 2),
                    (unoriented_loop(1), upper_loop(1), dotted(1, 2)))
    src = tmp_path / "pattern.json"
    src.write_text(pattern_to_json(p), encoding="utf-8")
    assert main(["summands", "--group", "sp", "--in", str(src),
                 "--format", "json"]) == 0
    got = capsys.readouterr().out.strip()
    g = GroupKind.symplectic(12)
    spec = SpaceSpec.from_blocks(g, (4, 2))
    assert got == multiset_to_json(pattern_to_summands(p, spec), 2)


def test_ar_json_and_missing_rank(capsys):
    assert main(["ar", "--rank", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["rank"] == 2
    assert len(obj["sequences"]) == 28
    assert len(obj["skipped"]) == 2
    assert obj["sequences"][0]["left"] == "M(1,3)"
    assert main(["ar"]) == 2
    assert "needs --rank" in capsys.readouterr().err


def test_verify_writes_a_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--rank", "1", "--out", str(report_path)]) == 0
    assert capsys.readouterr().out == "verify: 12/12 checks passed\n"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["summary"] == {"total": 12, "failed": 0}


def test_verify_respects_group_selection(capsys):
    assert main(["verify", "--group", "sp", "--rank", "1"]) == 0
    assert capsys.readouterr().out == "verify: 6/6 checks passed\n"


HOSTILE_JSON = [
    ("identify", '{"rows":2,"cols":2,"entries":5}'),
    ("identify", '{"rows":2,"cols":2,"entries":[5,6]}'),
    ("repr", '{"kind":"symplectic","k":2,"b":[1,1],"arcs":5}'),
    ("repr", '{"kind":"symplectic","k":2,"b":["a",1],"arcs":[]}'),
    ("repr", '{"kind":"symplectic","k":true,"b":[1],"arcs":[]}'),
]


@pytest.mark.parametrize("command, text", HOSTILE_JSON)
def test_malformed_json_fields_exit_2_with_one_line(tmp_path, capsys, command, text):
    src = tmp_path / "input.json"
    src.write_text(text, encoding="utf-8")
    assert main([command, "--in", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"nilorbits {command}: ")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
