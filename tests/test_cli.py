import contextlib
import copy
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import nilorbits
from nilorbits import cli, quiver
from nilorbits.cli import main
from nilorbits.correspondence import (_MAX_N, parabolic_representative,
                                      pattern_to_matrix, tex_matrix, tex_pattern)
from nilorbits.harness import (_MAX_SUITE_RANK, brute_force_count,
                               random_group_element_pair)
from nilorbits.linalg import (DomainError, GroupKind, Matrix, SpaceSpec, _coordinates,
                              matrix_to_json, orbit_dimension)
from nilorbits.patterns import (LinkPattern, dotted, enumerate_patterns, lower_loop,
                                pattern_from_json, pattern_from_obj, pattern_to_json,
                                undotted, unoriented_loop, upper_loop)
from nilorbits.quiver import _MAX_AR_RANK, multiset_to_json, pattern_to_summands

from conftest import SEARCH_LEVELS, reference_lie_violation, residual_count


def test_count_borel_uses_the_recurrence(capsys):
    assert main(["count", "--group", "sp", "--rank", "5"]) == 0
    assert capsys.readouterr().out == "2043 (recurrence)\n"
    assert main(["count", "--group", "o", "--rank", "6"]) == 0
    assert capsys.readouterr().out == "1741 (recurrence)\n"


KINDS = {"sp": "symplectic", "o": "orthogonal"}
BLOCK_LEVELS = [(group, b) for group in KINDS
                for b in ((2, 1), (1, 2, 3), (2, 2, 3), (3, 3))]
STREAMED_LEVELS = ([("sp", (1,) * l) for l in range(5)]
                   + [("o", (1,) * l) for l in range(6)] + BLOCK_LEVELS)


def _level_flags(b) -> list[str]:
    # a Borel level goes by its rank, which builds no block tuple
    if set(b) <= {1}:
        return ["--rank", str(len(b))]
    return ["--blocks", ",".join(map(str, b))]


@pytest.mark.parametrize("group, b", BLOCK_LEVELS, ids=[f"{g}-{b}" for g, b in BLOCK_LEVELS])
def test_count_blocks_falls_back_to_enumeration(capsys, group, b):
    kind = KINDS[group]
    assert main(["count", "--group", group, *_level_flags(b), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    want = len(enumerate_patterns(kind, len(b), b))
    assert obj == {"count": want, "method": "enumeration"}
    try:
        assert brute_force_count(kind, len(b), b) == want
    except DomainError:   # a raw space over 10^7: sp (1,2,3), sp and o (2,2,3)
        assert residual_count(kind, len(b), b) == want


@pytest.mark.parametrize("group, b", STREAMED_LEVELS,
                         ids=[f"{g}-{b}" for g, b in STREAMED_LEVELS])
def test_streamed_enumeration_prints_the_library_patterns(capsys, group, b):
    # the CLI writes the search's arc tuples without building patterns:
    # each line must be what the library's pattern of that tuple renders
    pats = enumerate_patterns(KINDS[group], len(b), b)
    want = {"json": [pattern_to_json(p) for p in pats],
            "csv": ["index,arcs"] + [f"{i}," + ";".join(a.text() for a in p.arcs)
                                     for i, p in enumerate(pats, start=1)],
            "text": [p.text() for p in pats]}
    for fmt, lines in want.items():
        assert main(["enumerate", "--group", group, *_level_flags(b), "--format", fmt]) == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines), fmt


def test_count_needs_a_level(capsys):
    assert main(["count", "--group", "sp"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nilorbits count:")


@pytest.mark.parametrize("command, fmt", [("count", "json"), ("count", "text"),
                                          ("enumerate", "json"), ("enumerate", "csv"),
                                          ("enumerate", "tex"), ("enumerate", "text")])
@pytest.mark.parametrize("group", ["sp", "o"])
def test_a_negative_rank_is_refused_by_its_option(capsys, command, fmt, group):
    # once refused by the pattern layer, in words that named no option
    assert main([command, "--group", group, "--rank", "-1", "--format", fmt]) == 2
    assert capsys.readouterr() == ("", f"nilorbits {command}: --rank must be "
                                       f"nonnegative, got -1\n")


# The last Borel levels whose counts print under Python's 4,300-digit limit:
# both counts have exactly 4,300 digits.
@pytest.mark.parametrize("group, last", [("sp", 2405), ("o", 2416)])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_count_refuses_a_count_past_the_digit_limit(capsys, group, last, fmt):
    assert main(["count", "--group", group, "--rank", str(last), "--format", fmt]) == 0
    digits = sum(ch.isdigit() for ch in capsys.readouterr().out)
    assert digits == 4300
    assert main(["count", "--group", group, "--rank", str(last + 1), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("nilorbits count: ") and "4300 digits" in captured.err


def _capped(limit_bytes):
    def cap():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    return cap


@pytest.mark.parametrize("level", [["--rank", "200000"], ["--rank", "1000000000"],
                                   ["--group", "o", "--n", "2000000000"]])
def test_count_refuses_huge_borel_levels_in_bounded_time_and_memory(level):
    # a Borel level builds no block tuple, and the recurrence stops at the
    # digit limit: a 1e9-long tuple alone would need about 8 GB
    src = Path(nilorbits.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "nilorbits.cli", "count", *level],
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=_capped(1 << 30))
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "4300 digits" in proc.stderr


@pytest.mark.parametrize("group, n", [("sp", 1002), ("o", 1001), ("sp", 2000),
                                      ("sp", 100000)])
def test_repr_refuses_groups_past_the_size_bound_in_bounded_time_and_memory(group, n):
    # a representative is an n x n matrix, refused past the bound before it
    # is built, under this 1 GB cap
    l = n // 2
    kind = "symplectic" if group == "sp" else "orthogonal"
    src = Path(nilorbits.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "nilorbits.cli", "repr", "--group", group,
                           "--n", str(n)], input=pattern_to_json(LinkPattern.borel(kind, l)),
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=_capped(1 << 30))
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"nilorbits repr: {group}_{n}: ")
    assert f"n <= {_MAX_N}" in proc.stderr


def test_identify_refuses_a_group_past_the_size_bound_before_its_gate(capsys, monkeypatch):
    # the bound comes before the form gate reads the input
    n = _MAX_N + 2
    monkeypatch.setattr("sys.stdin", io.StringIO(matrix_to_json(Matrix.zero(n))))
    with mock.patch("nilorbits.linalg._lie_violation",
                    side_effect=AssertionError("ran the form gate")):
        assert main(["identify", "--group", "sp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"nilorbits identify: sp_{n}: ")
    assert f"n <= {_MAX_N}" in captured.err


def _cli_at_the_bound(argv, stdin: str, limit_bytes: int) -> subprocess.CompletedProcess:
    src = Path(nilorbits.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "nilorbits.cli", *argv], input=stdin,
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=_capped(limit_bytes))


def test_repr_at_the_size_bound_runs_in_256_mb():
    # The representative of the empty sp_1000 pattern is built with no
    # per-group table: the n x n matrix and its JSON peak near 47 MB.
    g, p = GroupKind.symplectic(_MAX_N), LinkPattern.borel("symplectic", _MAX_N // 2)
    proc = _cli_at_the_bound(["repr", "--group", "sp", "--n", str(_MAX_N), "--format", "json"],
                             pattern_to_json(p), 256 << 20)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-2000:]
    assert proc.stdout == matrix_to_json(pattern_to_matrix(p, g)) + "\n"


def test_identify_at_the_size_bound_runs_in_512_mb():
    # The zero sp_1000 matrix: its rows, the gate and the orbit-dimension
    # solve on the representative's coordinates peak near 215 MB, with no
    # per-group table.
    proc = _cli_at_the_bound(["identify", "--group", "sp", "--format", "json"],
                             matrix_to_json(Matrix.zero(_MAX_N)), 512 << 20)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-2000:]
    empty = LinkPattern.borel("symplectic", _MAX_N // 2)
    assert json.loads(proc.stdout) == {"pattern": json.loads(pattern_to_json(empty)),
                                       "orbit_dimension": 0}


def seeded_borel_pattern(kind: str, l: int, seed: int) -> LinkPattern:
    """A Borel pattern on l vertices drawn from `seed`: a random partial
    matching of random arcs and, for sp, a dotted loop or none on each
    unmatched vertex."""
    rng = random.Random(seed)
    vertices = rng.sample(range(1, l + 1), l)
    m = rng.randint(0, l // 2)
    arcs = [rng.choice((undotted, dotted))(a, b)
            for a, b in zip(vertices[:m], vertices[m:2 * m])]
    loops = (upper_loop, lower_loop) if kind == "symplectic" else ()
    arcs += [loop(v) for v in vertices[2 * m:]
             for loop in [rng.choice((None, *loops))] if loop]
    return LinkPattern.borel(kind, l, arcs)


def test_identify_answers_an_sp200_representative_in_bounded_time():
    # Each elimination step touches only the rows that hold its column, so
    # a legal input of n = 200 is answered well inside the timeout.
    g = GroupKind.symplectic(200)
    p = seeded_borel_pattern(g.family, g.l, 200)
    assert len(p.arcs) > g.l // 2
    src = Path(nilorbits.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "nilorbits.cli", "identify", "--group", "sp",
                           "--format", "json"], input=matrix_to_json(pattern_to_matrix(p, g)),
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert pattern_from_obj(got["pattern"]) == p
    assert 0 < got["orbit_dimension"] <= len(_coordinates(SpaceSpec.borel(g)))


@pytest.mark.parametrize("level", [["--rank", "3000"], ["--rank", "1000000000"],
                                   ["--group", "o", "--n", "2000000000"],
                                   ["--blocks", ",".join(["1"] * 224)]])
def test_enumerate_refuses_huge_levels_in_bounded_time_and_memory(level):
    # the arc-type table is O(k^2): at k = 3000 it alone would need about
    # 3 GB, and a Borel block tuple of 1e9 entries about 8 GB
    src = Path(nilorbits.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "nilorbits.cli", "enumerate", *level],
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=_capped(1 << 30))
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "arc types" in proc.stderr


@pytest.mark.parametrize("blocks", ["1_0", "٢", " 2,+1", "2,1 ", "+2", "2,,1", "0", "1,0"])
def test_blocks_are_ascii_digit_lists(capsys, blocks):
    assert main(["count", "--group", "sp", "--blocks", blocks]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("nilorbits count: ")


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


# SHA-256 and line count of `enumerate` stdout in text and csv, frozen from
# the writers that called Arc.text() for every arc of every line.
ENUMERATE_DIGESTS = {
    ("--group", "sp", "--rank", "5"): (
        2043, "0d7b2caca79b74c57d3dabb269ad5cf25cb6d2632a639aae7c40b1a4c650d84a",
        "a545bf44400e03d3d98c0672d573321caa1a35cc4121d2e7ce65ca5bcd9c8360"),
    ("--group", "o", "--rank", "6"): (
        1741, "13623dac00c39ed184bd2fa410878fe5198923db7a2285138d6eb482b76044fb",
        "4e6688c8645e41719bf926456b6a6954f90093e9965d919ebe6c69cff7eefbf2"),
    ("--group", "sp", "--blocks", "1,2,2"): (
        549, "fa1bc5efc40578198af0f3d8605f74aafad9fd2806c7eef424a1b42052c09418",
        "a721abfb539c039c1f83abcea2f434ba767d37490052e30284d02710b6ac0975"),
}


@pytest.mark.parametrize("level", list(ENUMERATE_DIGESTS))
def test_enumerate_text_and_csv_bytes_are_pinned(capsys, level):
    lines, text_digest, csv_digest = ENUMERATE_DIGESTS[level]
    for fmt, digest in (("text", text_digest), ("csv", csv_digest)):
        assert main(["enumerate", *level, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == lines + (fmt == "csv"), fmt
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, fmt


@pytest.mark.parametrize("kind", ["symplectic", "orthogonal"])
def test_enumerate_lines_are_the_library_serializations(capsys, kind):
    # The CLI writes each pattern from the search's joined arc string; the
    # library serializes the patterns `enumerate_patterns` builds.  Same
    # bytes, on every level the search is checked on.
    short = "sp" if kind == "symplectic" else "o"
    for _, b in (level for level in SEARCH_LEVELS if level[0] == kind):
        where = (["--blocks", ",".join(map(str, b))] if b and set(b) != {1}
                 else ["--rank", str(len(b))])
        pats = enumerate_patterns(kind, len(b), b)
        want = {"json": [pattern_to_json(p) for p in pats],
                "text": [p.text() for p in pats],
                "csv": ["index,arcs"] + [f"{i}," + ";".join(a.text() for a in p.arcs)
                                         for i, p in enumerate(pats, start=1)]}
        for fmt, lines in want.items():
            assert main(["enumerate", "--group", short, *where, "--format", fmt]) == 0
            assert capsys.readouterr() == ("".join(f"{line}\n" for line in lines), ""), \
                (b, fmt)


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


@pytest.mark.parametrize("level", [["--group", "sp", "--rank", "0"],
                                   ["--group", "o", "--rank", "3", "--n", "7"],
                                   ["--group", "sp", "--blocks", "2,1,2"]])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_enumerate_bytes_do_not_depend_on_the_batch_size(tmp_path, capsys, monkeypatch,
                                                         level, fmt):
    # Each batch is written as one block: a separator or a newline lost at a
    # batch boundary would show as a difference from the default batch.
    argv = ["enumerate", *level, "--format", fmt]
    assert main(argv) == 0
    want = capsys.readouterr().out
    assert want.endswith("\n")
    for size in (1, 2, 3, cli._BATCH):
        monkeypatch.setattr(cli, "_BATCH", size)
        assert main(argv) == 0
        assert capsys.readouterr() == (want, ""), size
        out = tmp_path / f"patterns-{size}.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == want.encode("utf-8"), size


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


def test_repr_text_right_aligns_each_column_to_its_widest_entry():
    # sp_8's undotted arcs 1 -> 2 and 3 -> 4: 1 at each arc's earlier
    # position and -1 at its mate, so the mates' columns are two wide.
    pattern = ('{"arcs":[{"dotted":false,"from":1,"to":2},{"dotted":false,"from":3,"to":4}],'
               '"b":[1,1,1,1],"k":4,"kind":"symplectic"}')
    zero = "0 0 0 0  0 0  0 0\n"
    assert run_cli(["repr", "--group", "sp"], pattern) == (0, (
        zero + "1 0 0 0  0 0  0 0\n" + zero + "0 0 1 0  0 0  0 0\n"
        + zero + "0 0 0 0 -1 0  0 0\n" + zero + "0 0 0 0  0 0 -1 0\n"), "")


@pytest.mark.parametrize("p", [LinkPattern("symplectic", 1, (2,), (unoriented_loop(1),)),
                               LinkPattern.borel("symplectic", 2, (dotted(2, 1),))])
def test_repr_and_identify_write_tex(p, capsys, monkeypatch):
    spec = SpaceSpec.from_blocks(GroupKind.symplectic(2 * sum(p.b)), p.b)
    x = parabolic_representative(p, spec)
    monkeypatch.setattr("sys.stdin", io.StringIO(pattern_to_json(p)))
    assert main(["repr", "--group", "sp", "--format", "tex"]) == 0
    assert capsys.readouterr().out == tex_matrix(x) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(matrix_to_json(x)))
    blocks = ",".join(map(str, p.b))
    assert main(["identify", "--group", "sp", "--blocks", blocks, "--format", "tex"]) == 0
    assert capsys.readouterr().out == (f"${tex_pattern(p)}$ % orbit dimension "
                                       f"{orbit_dimension(x, spec)}\n")


def test_enumerate_tex_writes_unoriented_loops(capsys):
    assert main(["enumerate", "--group", "sp", "--blocks", "2", "--format", "tex"]) == 0
    assert "\\circlearrowleft_{1}" in capsys.readouterr().out


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
    # `identify` gates the input once, and the rank signature and its
    # x @ x test both read the input's integer rows; `orbit_dimension` reads
    # the decoded pattern's representative, whose rows are built as
    # integers, not the input's.
    g = GroupKind.symplectic(6)
    p = enumerate_patterns(g.family, g.l, (1,) * g.l)[40]
    u, u_inv = random_group_element_pair(g, SpaceSpec.borel(g), 3)
    y = u @ pattern_to_matrix(p, g) @ u_inv
    monkeypatch.setattr("sys.stdin", io.StringIO(matrix_to_json(y)))
    clearings.clear()
    assert main(["identify", "--group", "sp", *blocks, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["pattern"]
    assert len(clearings) == 1


def _group(short: str, n: int) -> GroupKind:
    return GroupKind.symplectic(n) if short == "sp" else GroupKind.orthogonal(n)


def _spread(items: list, count: int) -> list:
    """`count` items spread evenly over `items`."""
    return [items[(2 * i + 1) * len(items) // (2 * count)] for i in range(count)]


def _conjugates(g: GroupKind, count: int | None = None):
    """(pattern, conjugated representative): every Borel pattern of g, or
    `count` spread evenly, each conjugated by its own seeded Borel element."""
    pats = enumerate_patterns(g.family, g.l, (1,) * g.l)
    for seed, p in enumerate(pats if count is None else _spread(pats, count)):
        u, u_inv = random_group_element_pair(g, SpaceSpec.borel(g), seed)
        yield p, u @ pattern_to_matrix(p, g) @ u_inv


# (group, n, patterns: all or an even spread, one flag that reaches l)
ORACLE_GROUPS = [("sp", 6, None, (1, 2)), ("o", 6, None, (2, 1)), ("o", 7, None, (1, 2)),
                 ("sp", 10, 5, (2, 3)), ("o", 11, 5, (3, 2))]


@pytest.mark.parametrize("short, n, count, flag", ORACLE_GROUPS)
@pytest.mark.parametrize("full_flag", [False, True])
def test_identify_reports_the_orbit_dimension_of_its_input(short, n, count, flag, full_flag,
                                                          capsys, monkeypatch):
    # The CLI solves on the decoded pattern's representative; the oracle
    # solves on the conjugated input itself.
    g = _group(short, n)
    spec = SpaceSpec.from_blocks(g, flag) if full_flag else SpaceSpec.borel(g)
    blocks = ["--blocks", ",".join(map(str, flag))] if full_flag else []
    for p, y in _conjugates(g, count):
        monkeypatch.setattr("sys.stdin", io.StringIO(matrix_to_json(y)))
        assert main(["identify", "--group", short, *blocks, "--format", "json"]) == 0
        got = json.loads(capsys.readouterr().out)["orbit_dimension"]
        assert got == orbit_dimension(y, spec), (g.name, flag, full_flag, p.text())


def _first_square_entry(x: Matrix) -> tuple[int, int]:
    """First 1-based (row, col), row-major, where x @ x is nonzero, from
    Fraction sums."""
    n = x.rows
    return next((r + 1, c + 1) for r in range(n) for c in range(n)
                if sum(x.entries[r][k] * x.entries[k][c] for k in range(n)))


@pytest.mark.parametrize("short, n, flag", [("sp", 6, (1, 2)), ("o", 7, (1, 2)),
                                            ("sp", 10, (2, 3)), ("o", 11, (3, 2))])
@pytest.mark.parametrize("full_flag", [False, True])
def test_identify_refuses_a_conjugate_off_the_form_or_not_square_zero(short, n, flag,
                                                                    full_flag, capsys,
                                                                    monkeypatch):
    # The one gate is the library's: `identify`, which `identify_parabolic`
    # calls, refuses a form-breaking input and one with x @ x != 0, and the
    # CLI prints its message naming the first failing entry.
    g = _group(short, n)
    blocks = ["--blocks", ",".join(map(str, flag))] if full_flag else []
    (_, y), = _conjugates(g, 1)
    off_form = y + Matrix.unit(n, 1, 1)   # a_11 = -a_nn no longer holds
    not_square_zero = off_form - Matrix.unit(n, n, n)
    assert reference_lie_violation(not_square_zero, g) is None
    r, c = reference_lie_violation(off_form, g)
    s, t = _first_square_entry(not_square_zero)
    for x, want in ((off_form, f"matrix not in {g.name}: (transpose(a)F + Fa)[{r},{c}] != 0"),
                    (not_square_zero, f"matrix is not 2-nilpotent: (x @ x)[{s},{t}] != 0")):
        monkeypatch.setattr("sys.stdin", io.StringIO(matrix_to_json(x)))
        assert main(["identify", "--group", short, *blocks, "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"nilorbits identify: {want}\n")


def _coprime_denominators(count: int) -> list[int]:
    # m k + 1 for k = 1..count with count! dividing m.  A prime dividing
    # m i + 1 and m j + 1 divides j (m i + 1) - i (m j + 1) = j - i <= count,
    # hence m, so it cannot divide m i + 1.  Each has about 4,000 digits.
    m = math.factorial(count) * 10 ** (3990 - len(str(math.factorial(count))))
    return [m * k + 1 for k in range(1, count + 1)]


def _spread_member(g: GroupKind, extra: tuple[int, int] | None = None) -> Matrix:
    """A member of g with one 4,000-digit denominator per algebra coordinate,
    all coprime, and optionally one more at the 1-based position `extra`."""
    coords = _coordinates(SpaceSpec(g, ()))
    dens = _coprime_denominators(len(coords) + 1)
    rows = [[Fraction(0)] * g.n for _ in range(g.n)]
    for support, den in zip(coords, dens):
        for r, c, coef in support:
            rows[r][c] = Fraction(coef, den)
    if extra is not None:
        rows[extra[0] - 1][extra[1] - 1] += Fraction(1, dens[-1])
    return Matrix.from_rows(rows)


def _identify_in_a_subprocess(group: str, x: Matrix,
                              timeout: int = 60) -> subprocess.CompletedProcess:
    src = Path(nilorbits.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "nilorbits.cli", "identify",
                           "--group", group], input=matrix_to_json(x),
                          capture_output=True, text=True, env=env, timeout=timeout)


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


def test_identify_refuses_a_dense_non_square_zero_member_at_its_first_row():
    # `identify` squares x row by row and stops at the first nonzero row of
    # x @ x, where `_identify_rows`' order (delta positions first, then the
    # square on the pivot rows) would run the whole elimination first: about
    # 40 s in-process on this input.  So the two routes stay separate.
    g, rng = GroupKind.symplectic(400), random.Random(400)
    rows = [[0] * g.n for _ in range(g.n)]
    for support in _coordinates(SpaceSpec(g, ())):
        coef = rng.randint(-3, 3)
        for r, c, v in support:
            rows[r][c] = coef * v
    proc = _identify_in_a_subprocess("sp", Matrix._from_ints(rows, 1), timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "nilorbits identify: matrix is not 2-nilpotent: (x @ x)[1,1] != 0\n"


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


def test_ar_refuses_a_rank_over_its_bound_before_the_catalog(capsys, monkeypatch):
    # The catalog of A(l) grows as l^2 strings of length O(l): rank 200 took
    # 924 MB, and a larger rank died with MemoryError (exit 1).
    monkeypatch.setattr(quiver, "catalog", lambda l: pytest.fail("catalog built"))
    assert main(["ar", "--rank", "100000", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("nilorbits ar: AR sequences need rank "
                            f"1 <= l <= {_MAX_AR_RANK}, got 100000\n")
    assert f"--rank at most {_MAX_AR_RANK}" in cli._COMMANDS["ar"][1]


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


def test_verify_exits_1_and_names_each_failed_check(capsys, monkeypatch):
    # A brute-force count one too high fails the counts family at every rank.
    monkeypatch.setattr("nilorbits.harness.brute_force_count",
                        lambda kind, k, b: brute_force_count(kind, k, b) + 1)
    assert main(["verify", "--group", "sp", "--rank", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "verify: 4/6 checks passed\n"
    assert captured.err == (
        "  FAIL counts/sp/l=0 enumerate=1 recurrence=1 brute=2\n"
        "  FAIL counts/sp/l=1 enumerate=3 recurrence=3 brute=4\n")


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


@pytest.mark.parametrize("rank", [_MAX_SUITE_RANK + 1, 12, 10 ** 9])
def test_verify_refuses_a_rank_past_its_bound_in_bounded_time_and_memory(rank):
    # The suite holds every pattern and representative of a level: rank 7
    # took 532 s and 558 MB under this 1 GB cap.  The bound is checked
    # before any enumeration.
    src = Path(nilorbits.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "nilorbits.cli", "verify", "--group", "sp",
                           "--rank", str(rank)],
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=_capped(1 << 30))
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr == (f"nilorbits verify: suite max_rank must be at most "
                           f"{_MAX_SUITE_RANK}, got {rank}\n")
    assert f"--rank at most {_MAX_SUITE_RANK}" in cli._COMMANDS["verify"][1]


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
