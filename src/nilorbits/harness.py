"""Randomized verification drivers and independent counting oracles.

Group elements come in two exact forms, both seeded:

- Root-group words (`_root_word`), which `run_suite` conjugates by: a
  diagonal torus part with small integer eigenvalues and one factor
  exp(tN) = I + tN + t^2 N^2 / 2 per root element N of a parabolic
  subalgebra, with a small integer t.  `_word_act` applies a word to a
  matrix as sparse row and column operations on its integer rows, over
  one running denominator, so the element and its inverse are never
  formed and no Fraction arithmetic is done.  The root elements of a
  coarser flag include its Levi roots, so the words of a `SpaceSpec` give
  conjugates by its parabolic subgroup.
- Dense pairs (u, u^{-1}) (`random_group_element_pair`): the torus part
  times the exponential of a random strictly upper triangular algebra
  member, a finite sum.  They are the dense reference the words are tested
  against.

Each factor satisfies the form condition exactly and inverses stay
rational, so every check downstream is zero-tolerance.

`brute_force_count` counts patterns by filtering raw arc multisets, apart
from the enumerator and the recurrence it is checked against.

Randomness comes from random.Random (the stdlib Mersenne Twister), seeded
explicitly everywhere: identical seeds give identical trajectories.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .correspondence import identify, pattern_to_matrix, rank_signature
from .linalg import (DomainError, GroupKind, Matrix, ORTHOGONAL, SYMPLECTIC,
                     SpaceSpec, _cleared, _dumps, _flag_allows, _ints,
                     lie_algebra_basis)
from .patterns import count_borel, enumerate_patterns, is_nilradical
from .quiver import pattern_to_summands, total_dimension_vector


def exp_nilpotent(s: Matrix) -> Matrix:
    """exp of a nilpotent matrix: the finite sum sum_m s^m / m!."""
    if not s.is_square:
        raise DomainError("exp needs a square matrix")
    n = s.rows
    powers = []
    power = s
    for _ in range(n):
        if power.is_zero():
            break
        powers.append(power.entries)
        power = power @ s
    else:
        raise DomainError("matrix is not nilpotent")
    weights = [Fraction(1, factorial(m)) for m in range(1, len(powers) + 1)]
    rows = []
    for p in range(n):
        row = []
        for q in range(n):
            v = Fraction(1 if p == q else 0)
            for w, entries in zip(weights, powers):
                if entries[p][q]:
                    v += w * entries[p][q]
            row.append(v)
        rows.append(tuple(row))
    return Matrix(tuple(rows))


def _torus_diagonal(g: GroupKind, rng: random.Random) -> list[Fraction]:
    """The diagonal of a random torus member diag(t_1..t_l, [1], 1/t_l..1/t_1)
    with t_i in {±1, ±2, ±3}."""
    ts = [Fraction(rng.choice([1, 2, 3]) * rng.choice([1, -1])) for _ in range(g.l)]
    return ts + ([Fraction(1)] if g.n % 2 else []) + [1 / t for t in reversed(ts)]


def _torus(g: GroupKind, rng: random.Random) -> tuple[Matrix, Matrix]:
    """A random diagonal group member (`_torus_diagonal`) and its inverse."""
    n = g.n
    diag = _torus_diagonal(g, rng)
    mk = lambda vals: Matrix.from_rows([[vals[p] if p == q else 0 for q in range(n)]
                                        for p in range(n)])
    return mk(diag), mk([1 / v for v in diag])


Entries = tuple[tuple[int, int, int], ...]


def _entries(m: Matrix) -> Entries:
    """Nonzero 0-based entries (p, q, value) of an integer matrix m."""
    return tuple((p, q, v.numerator) for p, row in enumerate(m.entries)
                 for q, v in enumerate(row) if v)


@lru_cache(maxsize=None)
def _root_elements(spec: SpaceSpec) -> tuple[tuple[Entries, Entries], ...]:
    """(N, N^2) as `_entries` for each off-diagonal basis element N of the
    parabolic subalgebra of `spec`, in `lie_algebra_basis` order.

    N is a root element: its entries are +-1 and its support is strictly
    upper (the nilradical of the Borel) or strictly lower (the Levi roots a
    coarser flag allows).  N^3 = 0, and N^2 != 0 only for the o_{2l+1}
    roots through the middle index, so exp(tN) = I + tN + t^2 N^2 / 2.
    """
    roots = []
    for b in lie_algebra_basis(spec.group, _flag_allows(spec.flag)):
        first = _entries(b)
        if all(p != q for p, q, _ in first):
            roots.append((first, _entries(b @ b)))
    return tuple(roots)


def _unipotent(g: GroupKind, rng: random.Random) -> tuple[Matrix, Matrix]:
    n = g.n
    acc = [[Fraction(0)] * n for _ in range(n)]
    for support, _ in _root_elements(SpaceSpec.borel(g)):
        coef = rng.randint(-2, 2)
        if coef:
            for p, q, v in support:
                acc[p][q] += coef * v
    s = Matrix(tuple(tuple(row) for row in acc))
    return exp_nilpotent(s), exp_nilpotent(-s)


def random_group_element_pair(g: GroupKind, spec: SpaceSpec,
                              seed: int) -> tuple[Matrix, Matrix]:
    """(u, u^{-1}) for a member u of the Borel subgroup of g, so `spec` must be
    the Borel flag of g: with Levi roots the exponentiated sum need not be
    nilpotent.  Inverses come from exp(-s) and the reciprocal torus, so no
    elimination is involved and exactness is structural."""
    if spec != SpaceSpec.borel(g):
        raise DomainError(f"spec is not the Borel flag of {g.name}: a different "
                          f"group or a coarser flag is refused")
    rng = random.Random(seed)
    t, t_inv = _torus(g, rng)
    e, e_inv = _unipotent(g, rng)
    return t @ e, e_inv @ t_inv


Word = tuple[list[Fraction], list[tuple[int, Entries, Entries]]]


def _root_word(spec: SpaceSpec, seed: int) -> Word:
    """A seeded member u = T f_m ... f_1 of the parabolic group of `spec`, as
    a word: the torus diagonal of T (`_torus_diagonal`) and the factors
    f_i = exp(t_i N_i) over the `_root_elements` N_i, each with an integer
    t_i in [-2, 2], as (t_i, N_i, N_i^2).  Factors with t_i = 0 are dropped.

    Every factor and T lie in the group, so u does; these are the Chevalley
    generators of the group (Steinberg, Lectures on Chevalley groups, 1967).
    """
    rng = random.Random(seed)
    diag = _torus_diagonal(spec.group, rng)
    factors = []
    for first, second in _root_elements(spec):
        t = rng.randint(-2, 2)
        if t:
            factors.append((t, first, second))
    return diag, factors


def _row_ops(y: list[list[int]], terms: list[tuple[int, int, int]], scale: int):
    """y <- scale y + M y for M with integer entries `terms`: row p gains c
    times row q, every row read before any is written."""
    gains = [(p, c, y[q]) for p, q, c in terms]
    if scale != 1:
        y[:] = [[scale * v for v in row] for row in y]
    # Rows are replaced, never written in place, so each gain reads the
    # row as it was before the step.
    for p, c, row in gains:
        y[p] = [a + c * b for a, b in zip(y[p], row)]


def _col_ops(y: list[list[int]], terms: list[tuple[int, int, int]], scale: int):
    """y <- scale y + y M for M with integer entries `terms`: column q
    gains c times column p, every column read before any is written."""
    gains = [(q, c, [row[p] for row in y]) for p, q, c in terms]
    if scale != 1:
        y[:] = [[scale * v for v in row] for row in y]
    for q, c, col in gains:
        for row, v in zip(y, col):
            if v:
                row[q] += c * v


def _word_act(word: Word, x: Matrix, conjugate: bool = True) -> Matrix:
    """u x u^{-1} for the member u of a `_root_word`, or u x when `conjugate`
    is False, by sparse row and column operations: u and u^{-1} are never
    formed.  Each factor f = I + tN + t^2 N^2 / 2 acts on the rows, then
    f^{-1} = I - tN + t^2 N^2 / 2 on the columns, and T last, as the scale
    d_p / d_q of entry (p, q).

    The operations run on integer rows over one running denominator, and a
    Fraction is built only for each nonzero entry of the result, which
    keeps those rows as its `Matrix._ints`.  When
    t^2 N^2 / 2 is not integral (t odd, N through the middle index of
    o_{2l+1}), the side acts by 2f or 2f^{-1} and the denominator doubles.
    T acts by integer row multipliers L_b d_p and column multipliers
    L_a / d_q, with L_b and L_a the lcm of the denominators and of the
    numerators of its diagonal.
    """
    diag, factors = word
    sides = ((_row_ops, 1), (_col_ops, -1)) if conjugate else ((_row_ops, 1),)
    y, den = _cleared(x)
    for t, first, second in factors:
        for ops, sign in sides:
            s = sign * t
            scale = 2 if second and s % 2 else 1
            den *= scale
            ops(y, [(p, q, scale * s * v) for p, q, v in first]
                + [(p, q, scale * s * s * v // 2) for p, q, v in second], scale)
    lb = lcm(*(d.denominator for d in diag))
    row_scale = [lb // d.denominator * d.numerator for d in diag]
    col_scale = [1] * len(diag)
    den *= lb
    if conjugate:
        la = lcm(*(d.numerator for d in diag))
        col_scale = [la // d.numerator * d.denominator for d in diag]
        den *= la
    return Matrix._from_ints([[v * r * c for v, c in zip(row, col_scale)]
                              for r, row in zip(row_scale, y)], den)


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
    when (a + c) has no guard bit set.
    """
    if kind not in (SYMPLECTIC, ORTHOGONAL):
        raise DomainError(f"unknown pattern kind {kind!r}")
    b = _ints(b, "block capacities")
    if len(b) != k or any(v < 1 for v in b):
        raise DomainError("block vector must list a positive capacity per vertex")
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
    low = _packed_sums(packed[:split], caps[:split], start)
    high = _packed_sums(packed[split:], caps[split:], 0)
    return sum(1 for a in low for c in high if not (a + c) & guard)


# -- the verification suite ----------------------------------------------------


_CHECKS = ("counts", "separation", "conjugation", "dimensions", "nilradical")


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
        if self.max_rank < 0 or self.conjugations < 1:
            raise DomainError("suite needs max_rank >= 0 and conjugations >= 1, got "
                              f"{self.max_rank} and {self.conjugations}")
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
    per pattern; it refuses a conjugate outside the algebra, which counts as
    a failure), dimensions (the
    summands total the flag's dimension vector) and nilradical (strict upper
    triangularity against `is_nilradical`).
    """
    items: list[dict] = []

    def record(test_id: str, params: dict, ok: bool, details: str = ""):
        items.append({"test_id": test_id, "params": params,
                      "status": "pass" if ok else "fail", "details": details})

    short = {SYMPLECTIC: "sp", ORTHOGONAL: "o"}
    for kind in config.kinds:
        for l in range(config.max_rank + 1):
            tag = f"{short[kind]}/l={l}"
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
            reps = [(p, pattern_to_matrix(p, g)) for p in pats]
            if "separation" in config.checks:
                sigs = {rank_signature(x) for _, x in reps}
                ok = len(sigs) == len(reps)
                ok = ok and all(identify(x, g) == p for p, x in reps)
                record(f"separation/{tag}", {"kind": kind, "l": l}, ok,
                       f"{len(reps)} orbits")
            if "conjugation" in config.checks:
                bad = 0
                for idx, (p, x) in enumerate(reps):
                    for c in range(config.conjugations):
                        seed = config.seed * 1000003 + idx * 101 + c
                        y = _word_act(_root_word(spec, seed), x)
                        try:
                            bad += identify(y, g) != p
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
                ok = all(x.is_upper_triangular(strict=True) == is_nilradical(p)
                         for p, x in reps)
                record(f"nilradical/{tag}", {"kind": kind, "l": l}, ok, "")
    items.sort(key=lambda item: item["test_id"])
    failed = sum(1 for item in items if item["status"] == "fail")
    return {"config": asdict(config), "items": items,
            "summary": {"total": len(items), "failed": failed}}


def suite_report_json(report: dict) -> str:
    return _dumps(report)
