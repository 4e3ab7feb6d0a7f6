import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import nilorbits
from nilorbits.cli import main
from nilorbits.correspondence import pattern_to_matrix
from nilorbits.harness import random_group_element_pair
from nilorbits.linalg import (GroupKind, Matrix, SpaceSpec, lie_algebra_basis,
                              matrix_to_json)
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


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_enumerate_writes_the_same_bytes_to_out_and_stdout(tmp_path, capsys, fmt):
    argv = ["enumerate", "--group", "sp", "--blocks", "2,1,2", "--format", fmt]
    assert main(argv) == 0
    streamed = capsys.readouterr().out
    out = tmp_path / "patterns.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == streamed.encode("utf-8")
    assert streamed.count("\n") == len(enumerate_patterns("symplectic", 3, (2, 1, 2))) + (
        fmt == "csv")


def test_enumerate_refuses_a_bad_level_before_opening_out(tmp_path, capsys):
    out = tmp_path / "kept.txt"
    out.write_text("keep me\n")
    assert main(["enumerate", "--rank", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("nilorbits enumerate: ")
    assert out.read_text() == "keep me\n"


LEVELS_OUTSIDE_N = [["--group", "sp", "--n", "7"],
                    ["--rank", "3", "--n", "4"],
                    ["--group", "o", "--blocks", "2,1", "--n", "5"]]


@pytest.mark.parametrize("command, fmt", [("count", "json"), ("count", "text"),
                                          ("enumerate", "json"), ("enumerate", "csv"),
                                          ("enumerate", "tex"), ("enumerate", "text")])
@pytest.mark.parametrize("level", LEVELS_OUTSIDE_N)
def test_a_level_that_does_not_fit_n_exits_2_in_every_format(capsys, level, command, fmt):
    assert main([command, *level, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"nilorbits {command}: ")


# Flags that stop below l have more P-orbits than patterns on their blocks:
# sp_6 has 20 orbits for the flag (2), not 7; o_6 has 8, not 4; sp_6 has 38
# for (1, 2), not 13.  E_{3,4} is in sp_6; plain `identify` decodes it.
BELOW_L = [["count", "--group", "sp", "--n", "6", "--blocks", "2"],
           ["count", "--group", "o", "--n", "6", "--blocks", "2"],
           ["count", "--group", "sp", "--n", "6", "--rank", "2"],
           ["enumerate", "--group", "sp", "--n", "6", "--blocks", "2"],
           ["identify", "--group", "sp", "--n", "6", "--blocks", "2"]]


@pytest.mark.parametrize("argv", BELOW_L)
def test_a_flag_below_l_is_not_read_as_p_orbits(argv):
    code, out, err = run_cli(argv, matrix_to_json(Matrix.unit(6, 3, 4)))
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"nilorbits {argv[0]}: ") and "below l=3 of " in err


def test_enumerate_below_l_creates_no_out_file(tmp_path, capsys):
    out = tmp_path / "patterns.json"
    assert main(["enumerate", "--group", "o", "--n", "7", "--blocks", "1,1",
                 "--format", "json", "--out", str(out)]) == 2
    assert capsys.readouterr().out == "" and not out.exists()


SP_BLOCK_2 = ('{"arcs":[{"dotted":false,"from":1,"loop":"unoriented","to":1}],'
              '"b":[2],"k":1,"kind":"symplectic"}')
O_BLOCK_2 = ('{"arcs":[{"dotted":true,"from":1,"loop":"lower","to":1}],'
             '"b":[2],"k":1,"kind":"orthogonal"}')


@pytest.mark.parametrize("argv, pattern, want", [
    (["repr", "--group", "sp", "--n", "6"], SP_BLOCK_2,
     "0 1 0 0 0  0\n" + "0 0 0 0 0  0\n" * 3 + "0 0 0 0 0 -1\n0 0 0 0 0  0\n"),
    (["summands", "--group", "sp", "--n", "6"], SP_BLOCK_2,
     "[M(2,2) (+) M(2,2)] + [D+(1,1) (+) C+(1,1)]\n"),
    (["repr", "--group", "o", "--n", "7", "--format", "json"], O_BLOCK_2,
     '{"cols":7,"entries":[' + "[0,0,0,0,0,0,0]," * 5
     + '[1,0,0,0,0,0,0],[0,-1,0,0,0,0,0]],"rows":7}\n'),
    (["summands", "--group", "o", "--n", "7", "--format", "json"], O_BLOCK_2,
     '{"pieces":[{"mult":1,"parts":[{"family":"M","i":2,"j":2}]},'
     '{"mult":1,"parts":[{"family":"M","i":2,"j":2},{"family":"M","i":2,"j":2}]},'
     '{"mult":1,"parts":[{"family":"Z-","i":1,"j":1},{"family":"Z-","i":1,"j":1}]}],'
     '"rank":1}\n'),
])
def test_repr_and_summands_still_answer_below_l(argv, pattern, want):
    # Each orbit these name exists, so they answer; only the list of the
    # orbits of such a flag is incomplete.
    assert run_cli(argv, pattern) == (0, want, "")


def test_enumerate_tex_refuses_levels_past_its_bound(tmp_path, capsys):
    out = tmp_path / "kept.tex"
    out.write_text("keep me\n")
    # sp l=6 has 13,029 patterns, over the 5000 a tex table may hold
    assert main(["enumerate", "--group", "sp", "--rank", "6", "--format", "tex",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("nilorbits enumerate: --format tex ")
    assert "at most 5000 patterns" in captured.err
    assert out.read_text() == "keep me\n"
    with pytest.raises(SystemExit):
        main(["enumerate", "--help"])
    assert "--format tex: at most 5000 patterns" in " ".join(capsys.readouterr().out.split())
    # a level within the bound still gets its whole table
    assert main(["enumerate", "--group", "sp", "--rank", "2", "--format", "tex"]) == 0
    assert capsys.readouterr().out.count("\\end{pmatrix}") == 13


class _Discard(io.TextIOBase):
    def writable(self):
        return True

    def write(self, text):
        return len(text)


def test_enumerate_streams_in_bounded_memory(monkeypatch):
    # sp l=6 is 13,029 lines: holding the patterns and one joined string
    # peaks at about 8 MB under tracemalloc, one streamed batch at 0.5 MB.
    monkeypatch.setattr(sys, "stdout", _Discard())
    argv = ["enumerate", "--group", "sp", "--rank", "6", "--format", "json"]
    main(argv[:4] + ["2"] + argv[5:])   # fill the per-level caches first
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_enumerate_into_a_closed_pipe_exits_quietly():
    # `nilorbits enumerate ... | head -n 1`: the reader leaves after one line
    # and the rest of the output meets a broken pipe.
    src = Path(nilorbits.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "nilorbits.cli", "enumerate", "--group", "sp",
         "--rank", "6", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert err == b""
    assert json.loads(first)["arcs"] == []


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


@pytest.mark.parametrize("blocks", [[], ["--blocks", "1,2"]])
def test_identify_clears_its_input_once(blocks, clearings, capsys, monkeypatch):
    # `identify` and `orbit_dimension` both gate the input, and the rank
    # signature and the commutant rows both read its integer rows.
    g = GroupKind.symplectic(6)
    p = enumerate_patterns(g.family, g.l, (1,) * g.l)[40]
    u, u_inv = random_group_element_pair(g, SpaceSpec.borel(g), 3)
    y = u @ pattern_to_matrix(p, g) @ u_inv
    monkeypatch.setattr("sys.stdin", io.StringIO(matrix_to_json(y)))
    clearings.clear()
    assert main(["identify", "--group", "sp", *blocks, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["pattern"]
    assert len(clearings) == 1


def _coprime_denominators(count: int) -> list[int]:
    # m k + 1 for k = 1..count with count! dividing m.  A prime dividing
    # m i + 1 and m j + 1 divides j (m i + 1) - i (m j + 1) = j - i <= count,
    # hence m, so it cannot divide m i + 1.  Each has about 4,000 digits.
    m = math.factorial(count) * 10 ** (3990 - len(str(math.factorial(count))))
    return [m * k + 1 for k in range(1, count + 1)]


def _spread_member(g: GroupKind, extra: tuple[int, int] | None = None) -> Matrix:
    """A member of g with one 4,000-digit denominator per algebra coordinate,
    all coprime, and optionally one more at the 1-based position `extra`."""
    basis = lie_algebra_basis(g)
    dens = _coprime_denominators(len(basis) + 1)
    rows = [[Fraction(0)] * g.n for _ in range(g.n)]
    for b, d in zip(basis, dens):
        for r, c in b.support():
            rows[r - 1][c - 1] = b.entry(r, c) / d
    if extra is not None:
        rows[extra[0] - 1][extra[1] - 1] += Fraction(1, dens[-1])
    return Matrix.from_rows(rows)


def _identify_in_a_subprocess(group: str, x: Matrix) -> subprocess.CompletedProcess:
    src = Path(nilorbits.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "nilorbits.cli", "identify",
                           "--group", group], input=matrix_to_json(x),
                          capture_output=True, text=True, env=env, timeout=60)


def test_identify_refuses_a_member_with_huge_coprime_denominators():
    # Clearing it would need a denominator of 55 x 13,000 bits: the product
    # x @ x and the rank signature on such rows would run for minutes.
    proc = _identify_in_a_subprocess("sp", _spread_member(GroupKind.symplectic(10)))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("nilorbits identify: matrix entries need a common "
                           "denominator of over 65536 bits; refusing\n")


def test_identify_refuses_a_non_member_with_huge_denominators_by_its_form():
    # The only failing entry is the last one the form check reads, and the
    # check compares entries without clearing them.
    proc = _identify_in_a_subprocess("o", _spread_member(GroupKind.orthogonal(20), (1, 20)))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("nilorbits identify: matrix not in o_20: "
                           "(transpose(a)F + Fa)[20,20] != 0\n")


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
    assert got == multiset_to_json(pattern_to_summands(p, spec))


def test_ar_json_and_missing_rank(capsys):
    assert main(["ar", "--rank", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["rank"] == 2
    assert len(obj["sequences"]) == 31
    assert set(obj) == {"rank", "sequences"}
    # the first non-projective is the simple at vertex 1
    assert obj["sequences"][0] == {"left": "M(2,2)", "middles": ["M(1,2)"],
                                   "right": "M(1,1)"}
    assert main(["ar"]) == 2
    assert "needs --rank" in capsys.readouterr().err
    assert main(["ar", "--rank", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("nilorbits ar: ")
    assert len(captured.err.splitlines()) == 1


def test_verify_writes_a_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--rank", "1", "--out", str(report_path)]) == 0
    assert capsys.readouterr().out == "verify: 12/12 checks passed\n"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["summary"] == {"total": 12, "failed": 0}


def test_verify_rank_3_report_is_pinned(tmp_path, capsys):
    # Every check of the report is deterministic in its config, so its bytes
    # are pinned: a change to what verify checks or how it words a result
    # shows here.
    report_path = tmp_path / "report.json"
    assert main(["verify", "--rank", "3", "--out", str(report_path)]) == 0
    assert capsys.readouterr().out == "verify: 32/32 checks passed\n"
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == (
        "d6d10e43417518c3b7523ae604ffc4554bd255560f3b68cf127cf2582e732b38")


def test_verify_respects_group_selection(capsys):
    assert main(["verify", "--group", "sp", "--rank", "1"]) == 0
    assert capsys.readouterr().out == "verify: 6/6 checks passed\n"


def test_verify_refuses_a_negative_rank(capsys):
    # it once reported "verify: 0/0 checks passed" and exited 0
    assert main(["verify", "--rank", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("nilorbits verify: suite needs max_rank >= 0 and "
                            "conjugations >= 1, got -1 and 5\n")


HOSTILE_JSON = [
    ("identify", '{"rows":2,"cols":2,"entries":5}'),
    ("identify", '{"rows":2,"cols":2,"entries":[5,6]}'),
    # 30 bytes that would otherwise build a million-digit integer
    ("identify", '{"rows":2,"cols":2,"entries":[[0,"1e999999"],[0,0]]}'),
    ("repr", '{"kind":"symplectic","k":2,"b":[1,1],"arcs":5}'),
    ("repr", '{"kind":"symplectic","k":2,"b":["a",1],"arcs":[]}'),
    ("repr", '{"kind":"symplectic","k":true,"b":[1],"arcs":[]}'),
    ("repr", '{"kind":"symplectic","k":2,"b":[1,1],'
             '"arcs":[{"from":1.0,"to":2,"dotted":false}]}'),
    ("summands", '{"kind":"symplectic","k":2,"b":[1,1],'
                 '"arcs":[{"from":1,"to":2,"dotted":1}]}'),
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


DIGITS, NESTED = "1" * 5000, "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("command, text", [
    pytest.param("identify", '{"rows":2,"cols":2,"entries":[[0,%s],[0,0]]}' % DIGITS,
                 id="identify-5000-digit-entry"),
    pytest.param("repr", '{"kind":"symplectic","k":%s,"b":[1],"arcs":[]}' % DIGITS,
                 id="repr-5000-digit-k"),
    pytest.param("identify", NESTED, id="identify-nested-100000-deep"),
    pytest.param("repr", NESTED, id="repr-nested-100000-deep"),
])
def test_json_that_the_parser_refuses_exits_2_with_one_line(tmp_path, capsys, command, text):
    # json.loads raises ValueError past 4300 digits and RecursionError on
    # deep nesting, not JSONDecodeError
    src = tmp_path / "input.json"
    src.write_text(text, encoding="utf-8")
    assert main([command, "--in", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"nilorbits {command}: bad JSON")
    assert len(captured.err.splitlines()) == 1


UNREAD_FLAGS = [
    ["count", "--rank", "2", "--in", "/nonexistent"],
    ["count", "--rank", "2", "--format", "tex"],
    ["ar", "--rank", "2", "--blocks", "9"],
    ["ar", "--rank", "2", "--n", "99"],
    ["verify", "--rank", "1", "--format", "csv"],
    ["enumerate", "--rank", "2", "--seed", "3"],
    ["summands", "--format", "tex"],
    ["repr", "--blocks", "2"],
    ["identify", "--rank", "2"],
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS)
def test_flags_a_command_does_not_read_exit_2(argv, capsys):
    # argparse exits before any handler runs, so nothing reads stdin
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: nilorbits" in captured.err


# -- the exit-code contract under fuzzing --------------------------------------

# Every integer is small, so k and b stay <= 4 and no input builds a large
# matrix; the hostile sizes have their own tests above.
LEAVES = (st.none() | st.booleans() | st.integers(-2, 4)
          | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
          | st.sampled_from(["1/2", "-3", "1/0", "symplectic", "orthogonal",
                             "upper", "lower", "unoriented"]))
JSON_VALUES = st.recursive(
    LEAVES, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(
        ["rows", "cols", "entries", "kind", "k", "b", "arcs", "from", "to",
         "dotted", "loop"]), kids, max_size=4),
    max_leaves=10)


def _containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for child in (value.values() if isinstance(value, dict) else value):
            yield from _containers(child)


@st.composite
def one_field_mutations(draw, valid):
    """A valid input with one field of one of its objects or lists replaced
    by an arbitrary JSON value, deleted, or added."""
    obj = copy.deepcopy(draw(st.sampled_from(valid)))
    target = draw(st.sampled_from(list(_containers(obj))))
    keys = sorted(target) + ["extra"] if isinstance(target, dict) else range(len(target) + 1)
    key = draw(st.sampled_from(keys))
    if isinstance(target, list) and key == len(target):
        target.append(draw(JSON_VALUES))
    elif draw(st.booleans()):
        target[key] = draw(JSON_VALUES)
    elif key in (target if isinstance(target, dict) else range(len(target))):
        del target[key]
    return obj


def _patterns():
    for kind, b in (("symplectic", (1, 1)), ("symplectic", (2, 1)),
                    ("orthogonal", (1, 1)), ("orthogonal", (1, 2))):
        yield from enumerate_patterns(kind, len(b), b)[::3]


VALID_PATTERNS = [json.loads(pattern_to_json(p)) for p in _patterns()]
VALID_MATRICES = [json.loads(matrix_to_json(pattern_to_matrix(p, g)))
                  for g in (GroupKind.symplectic(4), GroupKind.orthogonal(5))
                  for p in enumerate_patterns(g.family, g.l, (1,) * g.l)]
PATTERN_FLAGS = [["--group", "sp"], ["--group", "sp", "--n", "6"],
                 ["--group", "o", "--n", "4"], ["--group", "o", "--n", "5"]]
FUZZED = {
    "identify": (VALID_MATRICES, [["--group", "sp"], ["--group", "o"],
                                  ["--group", "sp", "--blocks", "1,1"],
                                  ["--group", "o", "--blocks", "2"]]),
    "repr": (VALID_PATTERNS, PATTERN_FLAGS),
    "summands": (VALID_PATTERNS, PATTERN_FLAGS),
}


def run_cli(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin_text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(FUZZED))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_fuzzed_inputs_keep_the_exit_code_contract(command, data):
    valid, flag_sets = FUZZED[command]
    value = data.draw(JSON_VALUES | one_field_mutations(valid))
    argv = [command, *data.draw(st.sampled_from(flag_sets))]
    code, out, err = run_cli(argv, json.dumps(value))
    assert code in (0, 2), (argv, value)
    if code == 2:
        assert out == "" and err.startswith(f"nilorbits {command}: ")
        assert len(err.splitlines()) == 1, err
    else:
        assert out and err == ""
    assert "Traceback" not in err
