"""Command-line front end: enumeration, counting, representatives,
identification, summand decomposition, AR sequences, and the verify suite.

Exit codes: 0 on success, 1 when verification finds failures, 2 on malformed
input (with a one-line diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from itertools import chain, islice
from typing import Iterator

from .correspondence import (identify, identify_parabolic, parabolic_representative,
                             tex_matrix, tex_pattern, tex_table)
from .harness import SuiteConfig, run_suite, suite_report_json
from .linalg import (DomainError, GroupKind, ORTHOGONAL, SYMPLECTIC, SpaceSpec,
                     _dumps, matrix_from_json, matrix_to_json, orbit_dimension)
from .patterns import (_search, count_borel, pattern_from_json, pattern_to_json,
                       pattern_to_obj)
from .quiver import (ar_sequences, multiset_text, multiset_to_json,
                     pattern_to_summands)

_KINDS = {"sp": SYMPLECTIC, "o": ORTHOGONAL}


def _parse_blocks(text: str) -> tuple[int, ...]:
    try:
        blocks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"bad block list {text!r}; expected integers like 2,1,1")
    if not blocks or any(b < 1 for b in blocks):
        raise DomainError("blocks must be positive integers")
    return blocks


def _p_orbit_flag(g: GroupKind, b: tuple[int, ...]) -> SpaceSpec:
    """The flag of blocks b in g, refused unless it reaches l: below l it has
    more P-orbits than patterns on b, and the pattern layer lacks the rest."""
    spec = SpaceSpec.from_blocks(g, b)
    if sum(b) < g.l:
        raise DomainError(f"flag steps end at {sum(b)}, below l={g.l} of {g.name}: block "
                          f"patterns index the P-orbits only of a flag that reaches l")
    return spec


def _level(args) -> tuple[str, int, tuple[int, ...]]:
    """(kind, k, b) for the combinatorial commands, refused when --n is
    given and the level's flag does not end at l of the group of that size."""
    if args.blocks:
        b = _parse_blocks(args.blocks)
        k = len(b)
    elif args.rank is not None or args.n is not None:
        k = args.rank if args.rank is not None else args.n // 2
        b = (1,) * k
    else:
        raise DomainError("need --rank, --n, or --blocks")
    if args.n is not None:
        _p_orbit_flag(_group(args, b), b)
    return _KINDS[args.group], k, b


def _group(args, b: tuple[int, ...]) -> GroupKind:
    """The matrix group for commands that produce or consume matrices."""
    if args.group == "sp":
        return GroupKind.symplectic(args.n if args.n is not None else 2 * sum(b))
    if args.n is None:
        raise DomainError("orthogonal groups need an explicit --n "
                          "(the rank does not determine n)")
    return GroupKind.orthogonal(args.n)


def _read_in(args) -> str:
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            return fh.read()
    return sys.stdin.read()


@contextlib.contextmanager
def _output(args):
    """The --out file, opened for writing, or stdout."""
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, text: str):
    with _output(args) as out:
        out.write(text if text.endswith("\n") else text + "\n")


# Lines per write when streaming: few writes, and memory bounded by one batch.
_BATCH = 512


def _stream(args, lines: Iterator[str]):
    """Write each line with a newline, in batches of `_BATCH` lines."""
    with _output(args) as out:
        while batch := list(islice(lines, _BATCH)):
            out.write("\n".join(batch) + "\n")


def _matrix_text(m) -> str:
    widths = [max(len(str(m.entry(r, c))) for r in range(1, m.rows + 1))
              for c in range(1, m.cols + 1)]
    return "\n".join(" ".join(str(m.entry(r, c)).rjust(w)
                              for c, w in zip(range(1, m.cols + 1), widths))
                     for r in range(1, m.rows + 1))


# Patterns `enumerate --format tex` accepts: its table is built whole in memory
# (a peak RSS near 25 MB at sp l=5, 2,043 patterns; near 90 MB at sp l=6, 13,029).
_TEX_MAX_PATTERNS = 5000


def _cmd_enumerate(args) -> int:
    kind, k, b = _level(args)
    pats = _search(kind, k, b)   # refuses a bad level before anything is written
    if args.format == "json":
        _stream(args, map(pattern_to_json, pats))
    elif args.format == "csv":
        rows = (f"{i},{';'.join(a.text() for a in p.arcs)}"
                for i, p in enumerate(pats, start=1))
        _stream(args, chain(["index,arcs"], rows))
    elif args.format == "tex":
        # the tex layout pairs every pattern with its representative matrix
        pats = list(islice(pats, _TEX_MAX_PATTERNS + 1))
        if len(pats) > _TEX_MAX_PATTERNS:
            raise DomainError(f"--format tex builds its whole table in memory and "
                              f"takes at most {_TEX_MAX_PATTERNS} patterns; this level "
                              f"has more (json, csv and text stream any level)")
        spec = SpaceSpec.from_blocks(_group(args, b), b)
        rows = [(p, parabolic_representative(p, spec)) for p in pats]
        _emit(args, tex_table(rows))
    else:
        _stream(args, (p.text() for p in pats))
    return 0


def _cmd_count(args) -> int:
    kind, k, b = _level(args)
    if all(v == 1 for v in b):
        value, method = count_borel(kind, k), "recurrence"
    else:
        value, method = sum(1 for _ in _search(kind, k, b)), "enumeration"
    if args.format == "json":
        _emit(args, _dumps({"count": value, "method": method}))
    else:
        _emit(args, f"{value} ({method})")
    return 0


def _cmd_repr(args) -> int:
    p = pattern_from_json(_read_in(args))
    g = _group(args, p.b)
    m = parabolic_representative(p, SpaceSpec.from_blocks(g, p.b))
    if args.format == "json":
        _emit(args, matrix_to_json(m))
    elif args.format == "tex":
        _emit(args, tex_matrix(m))
    else:
        _emit(args, _matrix_text(m))
    return 0


def _cmd_identify(args) -> int:
    x = matrix_from_json(_read_in(args))
    if args.n is not None and args.n != x.rows:
        raise DomainError(f"--n {args.n} does not match the {x.rows}x{x.cols} input")
    g = GroupKind(_KINDS[args.group], x.rows)
    blocks = _parse_blocks(args.blocks) if args.blocks else None
    if blocks:
        spec = _p_orbit_flag(g, blocks)
        p = identify_parabolic(x, spec)
    else:
        spec = SpaceSpec.borel(g)
        p = identify(x, g)
    dim = orbit_dimension(x, spec)
    if args.format == "json":
        _emit(args, _dumps({"pattern": pattern_to_obj(p), "orbit_dimension": dim}))
    elif args.format == "tex":
        _emit(args, f"${tex_pattern(p)}$ % orbit dimension {dim}")
    else:
        _emit(args, f"{p.text()}  orbit dimension {dim}")
    return 0


def _cmd_summands(args) -> int:
    p = pattern_from_json(_read_in(args))
    g = _group(args, p.b)
    spec = SpaceSpec.from_blocks(g, p.b)
    ms = pattern_to_summands(p, spec)
    if args.format == "json":
        _emit(args, multiset_to_json(ms))
    else:
        _emit(args, multiset_text(ms))
    return 0


def _cmd_ar(args) -> int:
    if args.rank is None:
        raise DomainError("ar needs --rank")
    sequences = ar_sequences(args.rank)
    if args.format == "json":
        obj = {"rank": args.rank,
               "sequences": [{"left": s.left.text(),
                              "middles": [m.text() for m in s.middles],
                              "right": s.right.text()} for s in sequences]}
        _emit(args, _dumps(obj))
    else:
        _emit(args, "\n".join(s.text() for s in sequences))
    return 0


def _cmd_verify(args) -> int:
    kinds = ((_KINDS[args.group],) if args.group else (SYMPLECTIC, ORTHOGONAL))
    config = SuiteConfig(kinds=kinds, max_rank=args.rank if args.rank is not None else 3,
                         seed=args.seed)
    report = run_suite(config)
    if args.outfile:
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(suite_report_json(report) + "\n")
    summary = report["summary"]
    print(f"verify: {summary['total'] - summary['failed']}/{summary['total']} "
          f"checks passed")
    if summary["failed"]:
        for item in report["items"]:
            if item["status"] == "fail":
                print(f"  FAIL {item['test_id']} {item['details']}", file=sys.stderr)
        return 1
    return 0


# Every option a subcommand may declare, keyed by the name used in _COMMANDS.
# "kinds" is verify's --group: without it, both families are verified.
_OPTIONS = {
    "group": (("--group",), dict(choices=("sp", "o"), default="sp",
                                 help="group family: sp (symplectic) or o (orthogonal)")),
    "kinds": (("--group",), dict(choices=("sp", "o"), default=None,
                                 help="group family to verify (default: both)")),
    "n": (("--n",), dict(type=int, default=None, help="matrix size n")),
    "rank": (("--rank",), dict(type=int, default=None,
                               help="rank l (Borel level: n = 2l or 2l+1)")),
    "blocks": (("--blocks",), dict(type=str, default=None,
                                   help="comma-separated flag block sizes, e.g. 2,1,1")),
    "seed": (("--seed",), dict(type=int, default=0, help="suite seed")),
    "in": (("--in",), dict(dest="infile", type=str, default=None,
                           help="input file (default: stdin)")),
    "out": (("--out",), dict(dest="outfile", type=str, default=None,
                             help="output file (default: stdout)")),
}

_REACH_L = "; with --n, the blocks must sum to l = n // 2"   # see _p_orbit_flag
# name: (handler, help, options read, --format choices emitted)
_COMMANDS = {
    "enumerate": (_cmd_enumerate, "list all valid patterns at the given level (--format "
                                  f"tex: at most {_TEX_MAX_PATTERNS} patterns){_REACH_L}",
                  ("group", "n", "rank", "blocks", "out"), ("json", "csv", "tex", "text")),
    "count": (_cmd_count, "count patterns (recurrence at Borel level, else enumeration)"
                          + _REACH_L,
              ("group", "n", "rank", "blocks", "out"), ("json", "text")),
    "repr": (_cmd_repr, "pattern (JSON on stdin or --in) to representative matrix",
             ("group", "n", "in", "out"), ("json", "tex", "text")),
    "identify": (_cmd_identify, "matrix (JSON on stdin or --in) to its orbit's pattern; "
                                "--blocks must sum to l = n // 2",
                 ("group", "n", "blocks", "in", "out"), ("json", "tex", "text")),
    "summands": (_cmd_summands, "pattern to its Krull-Remak-Schmidt summand multiset",
                 ("group", "n", "in", "out"), ("json", "text")),
    "ar": (_cmd_ar, "the Auslander-Reiten sequence ending at each non-projective "
                    "indecomposable of A(l), one per line",
           ("rank", "out"), ("json", "text")),
    "verify": (_cmd_verify, "run the randomized verification suite",
               ("kinds", "rank", "seed", "out"), ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilorbits",
        description="Borel/parabolic conjugation orbits of 2-nilpotent elements "
                    "in symplectic and orthogonal Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options, formats) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        for option in options:
            flags, kwargs = _OPTIONS[option]
            p.add_argument(*flags, **kwargs)
        if formats:
            p.add_argument("--format", choices=formats, default="text")
    return parser


# Built once: every in-process call of `main` parses with the same tree.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except DomainError as exc:
        print(f"nilorbits {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (`nilorbits enumerate | head`): stop
        # quietly.  Point stdout at devnull so that flushing what is still
        # buffered at shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
