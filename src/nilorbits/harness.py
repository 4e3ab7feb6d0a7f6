"""Randomized verification drivers and independent counting oracles.

Group elements come in two exact forms, both seeded:

- Root-group words (`_root_word`), which `run_suite` conjugates by: a
  diagonal torus part with small integer eigenvalues, drawn as integer
  multipliers (`_torus_scales`), and one factor exp(tN) = I + tN + t^2 N^2 / 2
  per root element N of a parabolic subalgebra, with a small integer t.
  `_word_act` applies a word to integer rows over one running denominator
  with one sparse row kernel: the factors act on the rows, their inverses
  on the rows of one transpose, and the torus scales each entry on the way
  back, so no group element is formed and no Fraction arithmetic is done.
  The conjugation check runs on integer rows from the pattern to the
  decode: each representative is its integer rows
  (`correspondence._pattern_rows`), the word acts on them, and the
  conjugate is gated and identified on the rows the action leaves
  (`correspondence._identify_rows`), so no Matrix is built.  With the Levi
  roots of a coarser flag, the words conjugate by its parabolic subgroup.
- Dense pairs (u, u^{-1}) (`random_group_element_pair`): the torus part
  times the exponential of a random strictly upper triangular algebra
  member s, a finite sum (`_exp_ints`) of the powers of its integer rows
  over one denominator; exp(-s) is summed from the same powers.  The torus
  multipliers scale the rows of exp(s) and the columns of exp(-s), so no
  Fraction arithmetic is done and only u and u^{-1} become matrices.  They
  are the dense reference the words are tested against.

Each factor satisfies the form condition exactly and inverses stay
rational, so every check downstream is zero-tolerance.

`brute_force_count` counts patterns by filtering raw arc multisets, apart
from the enumerator and the recurrence it is checked against.

Randomness comes from random.Random (the stdlib Mersenne Twister), seeded
explicitly everywhere: identical seeds give identical trajectories.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import factorial, lcm

from .correspondence import _identify_rows, _pattern_rows, identify, rank_signature
from .linalg import (DomainError, GroupKind, Matrix, ORTHOGONAL, SYMPLECTIC,
                     SpaceSpec, Support, _GROUP_CACHE_SIZE, _SHORT, _coordinates, _dumps,
                     _ints, _products)
from .patterns import LinkPattern, count_borel, enumerate_patterns, is_nilradical
from .quiver import pattern_to_summands, total_dimension_vector


# A matrix as (integer rows, denominator): rows / denominator.
IntRows = tuple[list[list[int]], int]


def _exp_ints(rows, den: int, n: int,
              signs: tuple[int, ...] = (1,)) -> tuple[list[list[list[int]]], int]:
    """exp(sign s) = sum_m (sign s)^m / m! for each sign in `signs`, for the
    nilpotent n x n matrix s = rows / den with integer rows, as the integer
    rows of each over one denominator.

    The powers P_m = rows^m are integer and s^m = P_m / den^m.  With P_M the
    last nonzero power, the sums are taken over D = den^M M!: the identity
    times D plus each P_m times sign^m D / (den^m m!), an integer.  The
    powers are multiplied out once for all the signs, since
    (sign s)^m = sign^m s^m.  Refused when s^n is not zero.  The results
    are not reduced."""
    powers = []
    power = rows
    while any(map(any, power)):
        if len(powers) == n - 1:
            raise DomainError("matrix is not nilpotent")
        powers.append(power)
        power = list(_products(power, rows, n))
    top = len(powers)
    total = den ** top * factorial(top)
    weights = [total // (den ** m * factorial(m)) for m in range(1, top + 1)]
    outs = []
    for sign in signs:
        out = [[total if p == q else 0 for q in range(n)] for p in range(n)]
        for m, (w, power) in enumerate(zip(weights, powers), start=1):
            w *= sign ** m
            out = [[a + w * v for a, v in zip(acc, row)] for acc, row in zip(out, power)]
        outs.append(out)
    return outs, total


def exp_nilpotent(s: Matrix) -> Matrix:
    """exp of a nilpotent matrix: the finite sum sum_m s^m / m!, summed on
    the integer rows of s (`_exp_ints`).  The exact dense exponential behind
    the reference pairs and the root-word tests; a non-square or
    non-nilpotent s is refused, and so is a result whose denominator passes
    the bound of `Matrix._from_ints`."""
    if not s.is_square:
        raise DomainError("exp needs a square matrix")
    (out,), total = _exp_ints(*s._ints, s.rows)
    return Matrix._from_ints(out, total)


def _torus_scales(g: GroupKind, rng: random.Random) -> tuple[list[int], list[int], int]:
    """A seeded torus member T = diag(t_1..t_l, [1], 1/t_l..1/t_1), t_i in
    {±1, ±2, ±3}, as integer multipliers (row_scale, col_scale, L) with
    L = lcm |t_i|: T m scales row p of m by row_scale[p] / L and m T^{-1}
    scales column q of m by col_scale[q] / L."""
    ts = [rng.choice((1, 2, 3)) * rng.choice((1, -1)) for _ in range(g.l)]
    big = lcm(*ts)
    middle = [big] if g.n % 2 else []
    up, down = [big * t for t in ts], [big // t for t in ts]
    return up + middle + down[::-1], down + middle + up[::-1], big


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def _root_elements(spec: SpaceSpec) -> tuple[tuple[Support, Support], ...]:
    """(N, N^2) as 0-based entries (p, q, value), row-major, for each
    coordinate N of the parabolic subalgebra of `spec` with no diagonal
    position: N is its `_coordinates` support, read as it is, in that order.

    N is a root element: its entries are +-1 and its support is strictly
    upper (the nilradical of the Borel) or strictly lower (the Levi roots a
    coarser flag allows).  Of its at most two entries only a pair through
    the middle index of o_{2l+1} chains, so N^2 has at most one entry and
    exp(tN) = I + tN + t^2 N^2 / 2."""
    roots = []
    for first in _coordinates(spec):
        if all(p != q for p, q, _ in first):
            second = tuple((p, q, a * b) for p, k, a in first for j, q, b in first if k == j)
            roots.append((first, second))
    return tuple(roots)


def _unipotent(g: GroupKind, rng: random.Random) -> tuple[list, int]:
    """The integer rows of exp(s) and exp(-s), in a list, over their one
    denominator (`_exp_ints`), for s the sum of the Borel root elements of
    g with seeded coefficients in [-2, 2]: the coefficients and the root
    entries are ints, so s is plain integer rows, and one power chain
    serves both signs."""
    n = g.n
    s = [[0] * n for _ in range(n)]
    for support, _ in _root_elements(SpaceSpec.borel(g)):
        coef = rng.randrange(5) - 2
        if coef:
            for p, q, v in support:
                s[p][q] += coef * v
    return _exp_ints(s, 1, n, (1, -1))


def random_group_element_pair(g: GroupKind, spec: SpaceSpec,
                              seed: int) -> tuple[Matrix, Matrix]:
    """(u, u^{-1}) for a member u = T exp(s) of the Borel subgroup of g, so
    `spec` must be the Borel flag of g: with Levi roots the exponentiated
    sum need not be nilpotent.  The inverse is exp(-s) T^{-1}, so no
    elimination is involved and exactness is structural.  Both are built
    on integer rows: T scales the rows of exp(s) and T^{-1} the columns of
    exp(-s) (`_torus_scales`)."""
    if spec != SpaceSpec.borel(g):
        raise DomainError(f"spec is not the Borel flag of {g.name}: a different "
                          f"group or a coarser flag is refused")
    rng = random.Random(seed)
    row_scale, col_scale, big = _torus_scales(g, rng)
    (e, e_inv), den = _unipotent(g, rng)
    return (Matrix._from_ints([[r * v for v in row] for r, row in zip(row_scale, e)],
                              big * den),
            Matrix._from_ints([[v * c for v, c in zip(row, col_scale)] for row in e_inv],
                              big * den))


# A root word: the torus as `_torus_scales` multipliers and the factors.
Word = tuple[tuple[list[int], list[int], int], list[tuple[int, Support, Support]]]


def _root_word(spec: SpaceSpec, seed: int) -> Word:
    """A seeded member u = T f_m ... f_1 of the parabolic group of `spec`, as
    a word: the integer multipliers of the torus part T (`_torus_scales`)
    and the factors f_i = exp(t_i N_i) over the `_root_elements` N_i, each
    with t_i = `randrange(5) - 2` (the draw of `randint(-2, 2)`), as
    (t_i, N_i, N_i^2).  Factors with t_i = 0 are dropped.

    Every factor and T lie in the group, so u does; these are the Chevalley
    generators of the group (Steinberg, Lectures on Chevalley groups, 1967).
    """
    rng = random.Random(seed)
    torus = _torus_scales(spec.group, rng)
    factors = []
    for first, second in _root_elements(spec):
        t = rng.randrange(5) - 2
        if t:
            factors.append((t, first, second))
    return torus, factors


def _row_ops(y: list[list[int]], factors, sign: int, transposed: bool) -> int:
    """Apply f = I + sN + s^2 N^2 / 2, s = sign t, for each word factor
    (t, N, N^2) in order to the integer rows of y, or f^T with `transposed`:
    a term (p, q, c) of f - I has row p (transposed: q) gain c times row q
    (p).  Returns the scale of the rows: where s^2 N^2 / 2 is not integral
    (s odd, N through the middle index of o_{2l+1}) the step applies 2f.

    Where N^2 = 0, f = I + sN and no term's source row is another term's
    target, so the terms apply one after another to the current rows.  Only
    a factor through the middle index of o_{2l+1} chains: its gains are
    taken from the rows as they were before the step."""
    scale = 1
    for t, first, second in factors:
        s = sign * t
        if not second:
            for p, q, v in first:
                target, source = (q, p) if transposed else (p, q)
                row = y[source]
                if any(row):
                    c = s * v
                    y[target] = [a + c * b for a, b in zip(y[target], row)]
            continue
        double = s % 2
        k, h = (2 * s, s * s) if double else (s, s * s // 2)
        gains = [(q, c * v, y[p]) if transposed else (p, c * v, y[q])
                 for entries, c in ((first, k), (second, h)) for p, q, v in entries]
        if double:
            scale *= 2
            y[:] = [[2 * v for v in row] for row in y]
        # Rows are replaced, never written in place, so each gain reads the
        # row as it was before the step; a zero row adds nothing.
        for p, c, row in gains:
            if any(row):
                y[p] = [a + c * b for a, b in zip(y[p], row)]
    return scale


def _word_act(word: Word, x: IntRows) -> IntRows:
    """u x u^{-1} for the member u of a `_root_word`, with x and the result
    as (integer rows, denominator), by sparse row operations (`_row_ops`):
    no matrix is formed, and u and u^{-1} are not formed even as rows.
    Left and right multiplication commute, so every factor
    f = I + tN + t^2 N^2 / 2 acts on the rows first; then, on the
    transpose, every f^{-1} = I - tN + t^2 N^2 / 2 acts as the row
    operations of f^{-T}.  Transposing back applies T as the integer
    multipliers of `_torus_scales`: entry (p, q) times
    row_scale[p] col_scale[q] over L^2.

    The row operations replace rows and never write into one, so the rows
    of x are left as they are.  The operations run over one running
    denominator, and the result is neither reduced nor made a Matrix: the
    conjugation check reads it as it is (`correspondence._identify_rows`).
    """
    (row_scale, col_scale, big), factors = word
    rows, den = x
    y = list(rows)
    den *= _row_ops(y, factors, 1, False)
    y = [list(col) for col in zip(*y)]
    den *= _row_ops(y, factors, -1, True)
    return ([[r * c * v for c, v in zip(col_scale, col)]
             for r, col in zip(row_scale, zip(*y))], den * big * big)


def _packed_sums(packed: list[int], caps: list[int], start: int) -> list[int]:
    """start + sum_i m_i packed[i] for every choice 0 <= m_i <= caps[i]."""
    sums = [start]
    for step, cap in zip(packed, caps):
        sums = [s + m * step for s in sums for m in range(cap + 1)]
    return sums


def brute_force_count(kind: str, k: int, b: tuple[int, ...]) -> int:
    """Count valid patterns by raw multiset filtering, independently of the
    tree enumerator: choose a multiplicity for every arc type up to the
    obvious capacity cap, then keep the choices whose per-vertex cost fits.

    Refuses when the raw product space exceeds 10^7 choices.

    Every raw choice is tested against every vertex, packed: a cost vector
    is one int with a bit field per vertex, and field v starts at
    guard - 1 - b_v, so it reaches its guard bit exactly when the use of v
    exceeds b_v.  The arc types are split in two halves of about sqrt(raw)
    choices each, and a pair of half sums (a, c) is a valid choice exactly
    when (a + c) has no guard bit set.  Equal half sums pass or fail
    together, so each half is counted by value, and a passing pair of
    values adds the product of their multiplicities.
    """
    b = LinkPattern(kind, k, tuple(b), ()).b   # kind and capacities, checked as `_search` does
    w = 1 if kind == SYMPLECTIC else 2
    costs: list[dict[int, int]] = []
    for i in range(1, k + 1):
        costs.append({i: w})   # upper dotted loop
        costs.append({i: w})   # lower dotted loop
        costs.append({i: 2})   # unoriented loop
        for j in range(i + 1, k + 1):
            for _ in range(4):  # i->j, j->i, dotted both ways
                costs.append({i: 1, j: 1})
    caps = [min(b[v - 1] // c for v, c in cost.items()) for cost in costs]
    raw = 1
    for cap in caps:
        raw *= cap + 1
        if raw > 10 ** 7:
            raise DomainError("raw search space exceeds 10^7; refusing")
    # Field v has h bits below its guard and starts at 2^h - 1 - b_v.  With
    # 2^h > b_v and 2^h > the most v can be used, it never carries into the
    # next field, and its guard is set exactly when the use exceeds b_v.
    most = [0] * (k + 1)
    for cost, cap in zip(costs, caps):
        for v, c in cost.items():
            most[v] += cap * c
    h = max((max(most[v], b[v - 1] + 1) for v in range(1, k + 1)),
            default=1).bit_length()
    shift = {v: (v - 1) * (h + 1) for v in range(1, k + 1)}
    guard = sum(1 << (shift[v] + h) for v in shift)
    start = sum(((1 << h) - 1 - b[v - 1]) << shift[v] for v in shift)
    packed = [sum(c << shift[v] for v, c in cost.items()) for cost in costs]
    split, size = 0, 1
    while split < len(caps) and size * size < raw:
        size *= caps[split] + 1
        split += 1
    low = Counter(_packed_sums(packed[:split], caps[:split], start))
    high = Counter(_packed_sums(packed[split:], caps[split:], 0))
    return sum(m * n for a, m in low.items() for c, n in high.items()
               if not (a + c) & guard)


# -- the verification suite ----------------------------------------------------


_CHECKS = ("counts", "separation", "conjugation", "dimensions", "nilradical")
# The suite holds every pattern and representative of a level at once:
# under a 1 GB address-space cap (2-core VM, Python 3.11), `verify --rank`
# takes 3.9 s and 23 MB at rank 5 and 36-48 s and 55 MB at rank 6; an
# earlier build took 532 s and 558 MB at rank 7, whose next level holds
# about 7 times the patterns.
_MAX_SUITE_RANK = 6
# The families that read each pattern's representative.
_READS_REPS = frozenset(("separation", "conjugation", "nilradical"))


@dataclass(frozen=True)
class SuiteConfig:
    """What `run_suite` checks.  A config that would check nothing or that
    the suite cannot run is refused on construction."""

    kinds: tuple[str, ...] = (SYMPLECTIC, ORTHOGONAL)
    max_rank: int = 3
    seed: int = 0
    conjugations: int = 5
    checks: tuple[str, ...] = _CHECKS

    def __post_init__(self):
        _ints((self.max_rank, self.seed, self.conjugations),
              "suite max_rank, seed and conjugations")
        for what, values, known in (("kinds", self.kinds, (SYMPLECTIC, ORTHOGONAL)),
                                    ("checks", self.checks, _CHECKS)):
            if not values or any(v not in known for v in values):
                raise DomainError(f"suite {what} must be among {', '.join(known)}, "
                                  f"got {values!r}")
            if len(set(values)) != len(values):
                raise DomainError(f"suite {what} must not repeat, got {values!r}")
        if self.max_rank < 0 or self.conjugations < 1:
            raise DomainError("suite needs max_rank >= 0 and conjugations >= 1, got "
                              f"{self.max_rank} and {self.conjugations}")
        if self.max_rank > _MAX_SUITE_RANK:
            raise DomainError(f"suite max_rank must be at most {_MAX_SUITE_RANK}, "
                              f"got {self.max_rank}")
        if self.max_rank == 0 and "counts" not in self.checks:
            raise DomainError("at max_rank 0 only the counts family checks anything")


def _group_for(kind: str, l: int) -> GroupKind:
    if kind == SYMPLECTIC:
        return GroupKind.symplectic(2 * l)
    return GroupKind.orthogonal(2 * l + 1)


def run_suite(config: SuiteConfig) -> dict:
    """Run the configured check families; the report is a plain dict whose
    JSON form is byte-identical across runs with equal config.

    For each kind and rank l <= max_rank: counts (enumeration against the
    recurrence and `brute_force_count`), separation (rank signatures are
    distinct and `identify` inverts each representative), conjugation
    (`identify` is unchanged by `conjugations` seeded Borel root-group words
    per pattern; a conjugate refused, outside the algebra, not square-zero
    or past the denominator bound, counts as a failure), dimensions (the
    summands total the flag's dimension vector) and nilradical (strict upper
    triangularity against `is_nilradical`).

    Each representative is held as its integer rows
    (`correspondence._pattern_rows`).  Conjugation acts on them with the
    word and identifies the conjugate on the rows it leaves
    (`_identify_rows`), and nilradical reads them: neither builds a Matrix.
    Only separation makes each representative a Matrix, since it checks the
    public `rank_signature` and `identify`.
    """
    items: list[dict] = []
    reads_reps = not _READS_REPS.isdisjoint(config.checks)

    def record(test_id: str, params: dict, ok: bool, details: str = ""):
        items.append({"test_id": test_id, "params": params,
                      "status": "pass" if ok else "fail", "details": details})

    for kind in config.kinds:
        for l in range(config.max_rank + 1):
            tag = f"{_SHORT[kind]}/l={l}"
            pats = enumerate_patterns(kind, l, (1,) * l)
            if "counts" in config.checks:
                rec = count_borel(kind, l)
                ok = len(pats) == rec
                detail = f"enumerate={len(pats)} recurrence={rec}"
                try:
                    brute = brute_force_count(kind, l, (1,) * l)
                    ok = ok and brute == rec
                    detail += f" brute={brute}"
                except DomainError:
                    detail += " brute=skipped"
                record(f"counts/{tag}", {"kind": kind, "l": l}, ok, detail)
            if l == 0:
                continue
            g = _group_for(kind, l)
            spec = SpaceSpec.borel(g)
            reps = [(p, _pattern_rows(p, g)) for p in pats] if reads_reps else []
            if "separation" in config.checks:
                sigs, ok = set(), True
                for p, x in reps:   # one Matrix at a time, beside the rows
                    m = Matrix._from_ints(x, 1)
                    sigs.add(rank_signature(m))
                    ok = ok and identify(m, g) == p
                ok = ok and len(sigs) == len(reps)
                record(f"separation/{tag}", {"kind": kind, "l": l}, ok,
                       f"{len(reps)} orbits")
            if "conjugation" in config.checks:
                bad = 0
                for idx, (p, x) in enumerate(reps):
                    for c in range(config.conjugations):
                        seed = config.seed * 1000003 + idx * 101 + c
                        rows, den = _word_act(_root_word(spec, seed), (x, 1))
                        try:
                            bad += _identify_rows(rows, den, g) != p
                        except DomainError:
                            bad += 1
                record(f"conjugation/{tag}", {"kind": kind, "l": l,
                                              "per_pattern": config.conjugations},
                       bad == 0, f"failures={bad}")
            if "dimensions" in config.checks:
                want = spec.dimension_vector()
                ok = all(total_dimension_vector(pattern_to_summands(p, spec)) == want
                         for p in pats)
                record(f"dimensions/{tag}", {"kind": kind, "l": l}, ok,
                       f"target={want}")
            if "nilradical" in config.checks:
                # strictly upper iff no row holds a nonzero on or left of
                # the diagonal
                ok = all((not any(any(row[:i + 1]) for i, row in enumerate(x)))
                         == is_nilradical(p) for p, x in reps)
                record(f"nilradical/{tag}", {"kind": kind, "l": l}, ok, "")
    items.sort(key=lambda item: item["test_id"])
    failed = sum(1 for item in items if item["status"] == "fail")
    return {"config": asdict(config), "items": items,
            "summary": {"total": len(items), "failed": failed}}


def suite_report_json(report: dict) -> str:
    return _dumps(report)
