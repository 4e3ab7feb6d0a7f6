"""The four benchmark workloads: inputs from a seed, fixed ops, output checks.

A workload is built with a size ("full" for the benchmark, "tiny" for the
benchmark's own tests), then ``setup(seed)`` generates every input and every
expected output.  ``ops`` is the fixed list the closed loop cycles through:
each op is an ``Op`` whose ``call`` does the user-visible work and whose
``check`` turns the call's result into (ok, units).  Units are what
``ops_per_s`` counts: one per request, except patterns emitted for
``enumerate``.  The traced pass runs the same ops.  ``warmup()`` runs one
op before timing starts; its output is not checked, since the measured loop
checks every op.

Only public entry points are driven: ``nilorbits.cli.main`` in-process with
stdin/stdout/stderr swapped, and the package's public functions.  Ops look
the function up on its module at call time, so a traced pass sees the call.
The ``nilorbits`` package is imported lazily, so the caller can time the
import.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, int]]
    span: str | None = None   # benchmark span opened around the call when traced


class HashSink(io.TextIOBase):
    """A stdout stand-in that hashes and counts what is written, keeping none of it."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.lines = 0
        self.bytes = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.digest.update(data)
        self.lines += text.count("\n")
        self.bytes += len(data)
        return len(text)


@dataclass
class CliResult:
    code: int
    out: Any      # the stdout object: io.StringIO or HashSink
    err: str


def run_cli(argv: list[str], stdin_text: str = "", sink: Any = None) -> CliResult:
    """Call ``nilorbits.cli.main(argv)`` with the standard streams swapped."""
    from nilorbits import cli
    out = sink if sink is not None else io.StringIO()
    err = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse refusals exit through SystemExit
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return CliResult(code, out, err.getvalue())


def one_line_refusal(result: CliResult, command: str) -> bool:
    """Exit 2, nothing on stdout, one diagnostic line and no traceback."""
    err = result.err
    return (result.code == 2 and result.out.getvalue() == ""
            and err.endswith("\n") and err.count("\n") == 1
            and err.startswith(f"nilorbits {command}: ") and "Traceback" not in err)


KINDS = {"sp": "symplectic", "o": "orthogonal"}   # the CLI's --group names
_SHORT = {kind: short for short, kind in KINDS.items()}


# -- classify -----------------------------------------------------------------


class Classify:
    """CLI ``identify --format json`` on conjugated pattern representatives.

    Per pass, for each group (short name, n): ``borel`` Borel-level requests
    and ``blocks`` requests with ``--blocks <flag>``.  One seeded group also
    gets two inputs that must be refused with exit 2: one fails the form
    condition, one has x^2 != 0.

    The patterns are spread evenly over each group's canonical pattern list
    and do not depend on the seed, because their costs differ widely; the
    seed draws one conjugating Borel element per input, the refusal group
    and the request order.  A pass takes about 2 s, so that a run holds
    several passes (see ``run_s``).
    """

    SIZES = {
        # (group, n): (borel, blocks, flag)
        "full": {("sp", 6): (6, 2, (1, 2)),
                 ("o", 7): (6, 2, (1, 2)),
                 ("sp", 10): (3, 1, (2, 3)),
                 ("o", 11): (3, 1, (2, 3))},
        "tiny": {("sp", 4): (2, 1, (1, 1)),
                 ("o", 5): (2, 1, (1, 1))},
    }
    name = "classify"

    def __init__(self, size: str = "full"):
        self.mix = self.SIZES[size]

    def setup(self, seed: int):
        from nilorbits import (GroupKind, Matrix, SpaceSpec, enumerate_patterns,
                               glue, is_two_nilpotent, lie_member, matrix_to_json,
                               orbit_dimension, pattern_to_json, pattern_to_matrix,
                               random_group_element_pair)
        rng = random.Random(seed)
        refusal_group = rng.choice(sorted(self.mix))
        requests = []   # (argv, stdin, expected output or None for a refusal)
        for (short, n), (borel, blocks, flag) in self.mix.items():
            g = GroupKind(KINDS[short], n)
            borel_spec = SpaceSpec.borel(g)
            flag_spec = SpaceSpec.from_blocks(g, flag)
            everything = enumerate_patterns(g.family, g.l, (1,) * g.l)
            count = borel + blocks
            pats = [everything[(2 * i + 1) * len(everything) // (2 * count)]
                    for i in range(count)]
            if (short, n) == refusal_group:
                pats.append(everything[-1])
            argv = ["identify", "--group", short, "--n", str(n), "--format", "json"]
            for idx, p in enumerate(pats):
                u, u_inv = random_group_element_pair(g, borel_spec, rng.randrange(2 ** 31))
                x = pattern_to_matrix(p, g)
                y = u @ x @ u_inv
                if idx < borel:
                    want = {"pattern": json.loads(pattern_to_json(p)),
                            "orbit_dimension": orbit_dimension(x, borel_spec)}
                    requests.append((argv, matrix_to_json(y), want))
                elif idx < borel + blocks:
                    want = {"pattern": json.loads(pattern_to_json(glue(p, flag_spec))),
                            "orbit_dimension": orbit_dimension(x, flag_spec)}
                    requests.append((argv + ["--blocks", ",".join(map(str, flag))],
                                     matrix_to_json(y), want))
                else:
                    # breaks the form condition: a_11 = -a_nn no longer holds
                    off_form = y + Matrix.unit(n, 1, 1)
                    # stays in the algebra, but the semisimple part breaks x^2 = 0
                    not_square_zero = off_form - Matrix.unit(n, n, n)
                    if lie_member(off_form, g) or not lie_member(not_square_zero, g) \
                            or is_two_nilpotent(not_square_zero):
                        raise RuntimeError("refusal inputs do not fail as intended")
                    requests.append((argv, matrix_to_json(off_form), None))
                    requests.append((argv, matrix_to_json(not_square_zero), None))
        self.ops = [self._op(*r) for r in requests]
        self.warmup_op = self.ops[0]   # the same kind of request for every seed
        rng.shuffle(self.ops)

    def _op(self, argv, stdin_text, want) -> Op:
        label = " ".join(argv[:5] + argv[7:]) + (" refused" if want is None else "")

        def check(result: CliResult) -> tuple[bool, int]:
            if want is None:
                return one_line_refusal(result, "identify"), 1
            if result.code != 0 or result.err:
                return False, 1
            return json.loads(result.out.getvalue()) == want, 1

        return Op(label, lambda: run_cli(argv, stdin_text), check)

    def warmup(self):
        self.warmup_op.call()


# -- enumerate ----------------------------------------------------------------


# (group, "--rank" or "--blocks" value) -> (lines, sha256 of the output),
# frozen from the output at the commit that introduced the benchmark.
FROZEN_ENUMERATIONS = {
    ("sp", "6"): (13029, "fb33e6780baeb85dac9603313ed3bd6c87fde635fb4714cffd0ac1190c59b561"),
    ("o", "7"): (8485, "88a37637575fc77d235e00a429459e35dcd65bfc2ad84d2a9c9533562de21bb3"),
    ("sp", "3"): (63, "c6babe7fad92e3e4e2cc8f0d84c10732a0e60cdfb01c33963b800d7d5f05a0c9"),
    ("o", "3"): (13, "9c69ecd881d5f014892a4cdf30d86482c8171cbebb8ec03ab935abcb3dab8329"),
    ("sp", "1,2,3"): (1263, "9a74862824b7f75f4e149142127f8cea0a0249b37e2af6e8d2532a660b2a5f0d"),
    ("sp", "1,3,2"): (1263, "f1acb3ad3b1f2477a8dc498fd1ef5c25f5b54a91a3d2fbc1eb62ab16512a3563"),
    ("sp", "2,1,3"): (1263, "019783af6955c3589968ceddd089c0f320810af2a4d2f6183433be83d7d80711"),
    ("sp", "2,3,1"): (1263, "99ab9b4df6a16ca236fd88858dd2167e97380fe3f58e09aac89934345017abfe"),
    ("sp", "3,1,2"): (1263, "9707aa56556c92ff7ffdc85d3f6ce84a7c107c3b134264c29c86563885378abf"),
    ("sp", "3,2,1"): (1263, "ae3c4811daec741e06c08087d2b4512820c7213a62517d628371a4b140a821a4"),
    ("o", "2,2,3"): (616, "3d51d5f4dfa703ad0dd49e59a77bd886e939606b7c1de6e57fee7ee7bc34223a"),
    ("o", "2,3,2"): (616, "2f680adf82e7ad23fa91c57170f3e8b31e88a3554d8055b7f23c5b61180537ea"),
    ("o", "3,2,2"): (616, "2427dbc6024e1b4eedbb6fb7d5a4be9a3daf2831d02c79f55cd1de436228388c"),
    ("sp", "1,2,2,2"): (12003, "c43b7caed3adc07545a6d4863ea4da94592ba0f75a77e6f7453b3e0424494f2b"),
    ("sp", "2,1,2,2"): (12003, "127f827ccd63d9a8722b54e2249538ee2bbf6d3c7bb5131e068ff3f7f2d28cd0"),
    ("sp", "2,2,1,2"): (12003, "e284a853c40c4974a08c96a08f744b16aa6b495f64a636d04ebebe909fd6a3bc"),
    ("sp", "2,2,2,1"): (12003, "bbd2abd6cfaf2ed9b547219588fad65782edf98d58cc1b1dffc2baac142be672"),
    ("sp", "1,2"): (33, "2fc1ac720eb71608b83ae1e63318e2a03ee1e94837225bab3163c8f3b41e8ae6"),
    ("sp", "2,1"): (33, "c79b2495f92455ab5d1d9a70cd754667785613fc69c3ca51f541e9f85696d6c5"),
}


class Enumerate:
    """CLI ``enumerate --format json`` and ``count --blocks`` into a hashing sink.

    Borel jobs are fixed; each parabolic job takes a seeded order of a fixed
    block multiset, so every seed does the same amount of work on different
    inputs.  The Borel levels stop at sp l=6 and o l=7 (under a second each):
    a pass must be short enough to repeat several times in a run, or a slow
    spell of the machine decides the result.
    """

    SIZES = {
        "full": {"borel": (("sp", 6), ("o", 7)),
                 "blocks": (("sp", (1, 2, 3)), ("o", (2, 2, 3)), ("sp", (2, 2, 2, 1))),
                 "count": (("sp", (2, 3)), ("o", (3, 4)))},
        "tiny": {"borel": (("sp", 3), ("o", 3)),
                 "blocks": (("sp", (1, 2)),),
                 "count": (("o", (1, 2)),)},
    }
    name = "enumerate"

    def __init__(self, size: str = "full"):
        self.jobs = self.SIZES[size]

    def setup(self, seed: int):
        from nilorbits import brute_force_count, count_borel
        rng = random.Random(seed)
        specs = []   # (argv, expected lines, expected digest or None, expected count)
        for short, l in self.jobs["borel"]:
            key = (short, str(l))
            lines = count_borel(KINDS[short], l)
            specs.append((["enumerate", "--group", short, "--rank", str(l),
                           "--format", "json"], lines, FROZEN_ENUMERATIONS[key][1], None))
        for short, multiset in self.jobs["blocks"]:
            blocks = list(multiset)
            rng.shuffle(blocks)
            key = (short, ",".join(map(str, blocks)))
            lines, digest = FROZEN_ENUMERATIONS[key]
            specs.append((["enumerate", "--group", short, "--blocks", key[1],
                           "--format", "json"], lines, digest, None))
        for short, multiset in self.jobs["count"]:
            blocks = list(multiset)
            rng.shuffle(blocks)
            value = brute_force_count(KINDS[short], len(blocks), tuple(blocks))
            specs.append((["count", "--group", short, "--blocks",
                           ",".join(map(str, blocks)), "--format", "json"],
                          1, None, value))
        rng.shuffle(specs)
        self.ops = [self._op(*s) for s in specs]

    def _op(self, argv, lines, digest, count) -> Op:
        label = " ".join(argv[:5])

        def call() -> CliResult:
            sink = HashSink() if count is None else io.StringIO()
            return run_cli(argv, "", sink)

        def check(result: CliResult) -> tuple[bool, int]:
            if result.code != 0 or result.err:
                return False, 0
            if count is not None:
                got = json.loads(result.out.getvalue())
                return got == {"count": count, "method": "enumeration"}, 0
            sink = result.out
            return (sink.lines == lines and sink.digest.hexdigest() == digest,
                    sink.lines)

        return Op(label, call, check)

    def warmup(self):
        next(op for op in self.ops if op.label.startswith("count")).call()


# -- verify -------------------------------------------------------------------


FAMILIES = ("counts", "separation", "conjugation", "dimensions", "nilradical")


class Verify:
    """``run_suite`` with the default checks and conjugations, split into ops.

    Each suite family runs as its own op per kind, inside a
    ``harness.check.<family>`` span when traced, so the families' times can
    be read apart.  The conjugation family, most of the suite's time, is run
    as ``CONJUGATION_PARTS`` ops of one conjugation per pattern, each with
    its own suite seed, so a pass does the default five conjugations per
    pattern in ops of about a second.
    """

    SIZES = {"full": 3, "tiny": 1}
    CONJUGATION_PARTS = 5   # SuiteConfig's default number of conjugations
    name = "verify"

    def __init__(self, size: str = "full"):
        self.max_rank = self.SIZES[size]

    def setup(self, seed: int):
        from nilorbits import ORTHOGONAL, SYMPLECTIC, SuiteConfig
        self.seed = seed
        configs = []
        for kind in (SYMPLECTIC, ORTHOGONAL):
            for family in FAMILIES:
                if family == "conjugation":
                    configs += [SuiteConfig(kinds=(kind,), max_rank=self.max_rank,
                                            seed=seed * self.CONJUGATION_PARTS + part,
                                            conjugations=1, checks=(family,))
                                for part in range(self.CONJUGATION_PARTS)]
                else:
                    configs.append(SuiteConfig(kinds=(kind,), max_rank=self.max_rank,
                                               seed=seed, checks=(family,)))
        self.ops = [self._op(config) for config in configs]

    def _op(self, config) -> Op:
        import nilorbits
        family = config.checks[0]
        # counts runs for l = 0..max_rank, the other families for l = 1..max_rank
        want = self.max_rank + (family == "counts")
        label = f"verify {_SHORT[config.kinds[0]]} {family} seed {config.seed}"

        def check(report) -> tuple[bool, int]:
            summary = report["summary"]
            return summary["failed"] == 0 and summary["total"] == want, 1

        return Op(label, lambda: nilorbits.run_suite(config), check,
                  f"harness.check.{family}")

    def warmup(self):
        from nilorbits import SYMPLECTIC, SuiteConfig, run_suite
        run_suite(SuiteConfig(kinds=(SYMPLECTIC,), max_rank=1, seed=self.seed))


# -- quiver -------------------------------------------------------------------


class Quiver:
    """Stabilizer dimensions, the summand dictionary and the AR catalog.

    ``symmetric_endo_dim`` runs on the Borel flag and one two-block flag of
    each group; ``pattern_to_summands`` runs over every Borel pattern of one
    group, in ops of ``CHUNK`` patterns; ``ar_sequences`` runs once per rank.
    The inputs are fixed; the seed sets the order of the ops.
    """

    CHUNK = 1000

    SIZES = {
        "full": {"flags": {("sp", 6): (1, 2), ("o", 7): (1, 2),
                           ("sp", 10): (2, 3), ("o", 11): (2, 3)},
                 "summands": ("sp", 12), "ar_max": 6},
        "tiny": {"flags": {("sp", 4): (1, 1)}, "summands": ("sp", 4), "ar_max": 2},
    }
    name = "quiver"

    def __init__(self, size: str = "full"):
        self.sizes = self.SIZES[size]

    def setup(self, seed: int):
        from nilorbits import GroupKind, SpaceSpec, enumerate_patterns, parabolic_dim
        rng = random.Random(seed)
        ops = []
        for (short, n), flag in self.sizes["flags"].items():
            g = GroupKind(KINDS[short], n)
            for spec in (SpaceSpec.borel(g), SpaceSpec.from_blocks(g, flag)):
                ops.append(self._endo_op(spec, parabolic_dim(spec)))
        short, n = self.sizes["summands"]
        g = GroupKind(KINDS[short], n)
        pats = enumerate_patterns(g.family, g.l, (1,) * g.l)
        ops += [self._summands_op(pats[i:i + self.CHUNK], SpaceSpec.borel(g))
                for i in range(0, len(pats), self.CHUNK)]
        ops += [self._ar_op(l) for l in range(1, self.sizes["ar_max"] + 1)]
        self.warmup_op = ops[0]
        rng.shuffle(ops)
        self.ops = ops

    @staticmethod
    def _endo_op(spec, want: int) -> Op:
        import nilorbits
        label = f"symmetric_endo_dim {spec.group.name} blocks {','.join(map(str, spec.blocks))}"
        return Op(label, lambda: nilorbits.symmetric_endo_dim(spec),
                  lambda got: (got == want, 1))

    @staticmethod
    def _summands_op(pats, spec) -> Op:
        import nilorbits
        from nilorbits import total_dimension_vector
        want = spec.dimension_vector()

        def check(multisets) -> tuple[bool, int]:
            return (len(multisets) == len(pats)
                    and all(total_dimension_vector(ms) == want for ms in multisets)), 1

        return Op(f"pattern_to_summands {spec.group.name} x{len(pats)}",
                  lambda: [nilorbits.pattern_to_summands(p, spec) for p in pats], check)

    @staticmethod
    def _ar_op(l: int) -> Op:
        import nilorbits
        from nilorbits import dimension_vector

        def exact(seq) -> bool:
            ends = [a + b for a, b in zip(dimension_vector(seq.left),
                                          dimension_vector(seq.right))]
            mids = [sum(col) for col in zip(*(dimension_vector(m) for m in seq.middles))]
            return ends == mids

        return Op(f"ar_sequences l={l}", lambda: nilorbits.ar_sequences(l),
                  lambda seqs: (bool(seqs) and all(exact(s) for s in seqs), 1))

    def warmup(self):
        self.warmup_op.call()


WORKLOADS = {cls.name: cls for cls in (Classify, Enumerate, Verify, Quiver)}
