"""Exact rational matrices and the classical-group membership tests.

Everything downstream (pattern representatives, rank signatures, orbit
dimensions) reduces to exact linear algebra over Q, so this module has no
floating point anywhere: entries are fractions.Fraction.  Each matrix is
cleared at most once, to integer rows over one shared denominator, and the
result is cached on it (`Matrix._ints`); a matrix built from integer rows
(a product, a pattern representative, a root-group conjugate) starts with
that cache filled.  Products, rank, the 2-nilpotency test and the row
builder read the cache; the form check reads the entries.  There is one
elimination kernel, a fraction-free (one-step Bareiss) pass over sparse
integer rows that never swaps rows: a column's pivot is the first row, in
the order given, that holds it.  Rank, the membership and centralizer
dimensions and the quiver layer's stabilizer dimensions all sit on it, and
so do rank signatures: handed a matrix's rows bottom-up, it returns the
delta positions as its pivots.  Every defining form is anti-diagonal with
entries +-1, so a member of the Lie algebra is fixed by half of its
entries: each position determines its mate across the anti-diagonal up to
a sign.  The membership test reads these mate pairs
entry by entry, and the membership solvers, the algebra bases and the
quiver layer's stabilizers work in mate-pair coordinates, so no row states
the form condition.  One row builder states every A f - f B = 0 that is
eliminated: [a, x] = 0, and the arrows and loop of a flag representation.

Index conventions follow the classical setup: matrix positions are 1-based
at every interface, and the starred index is p* = n + 1 - p (reflection
across the anti-diagonal).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Sequence


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


def _is_int(v) -> bool:
    # JSON true/false decode to bools, which Python counts as ints.
    return isinstance(v, int) and not isinstance(v, bool)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    raise DomainError(f"entries must be exact rationals, got {type(value).__name__}")


def _ints(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple, refused unless every entry is a non-bool int."""
    out = tuple(values)
    if not all(_is_int(v) for v in out):
        raise DomainError(f"{what} must be integers, got {out!r}")
    return out


# A matrix whose entries need a common denominator longer than this is
# refused rather than cleared: every integer row of it would carry that many
# bits, and a product or an elimination would run for minutes.
_MAX_DENOMINATOR_BITS = 1 << 16


def _check_denominator(den: int):
    if den.bit_length() > _MAX_DENOMINATOR_BITS:
        raise DomainError(f"matrix entries need a common denominator of over "
                          f"{_MAX_DENOMINATOR_BITS} bits; refusing")


def _cleared(m: "Matrix") -> tuple[list[list[int]], int]:
    """Integer rows and the lcm d of all denominators, with m = rows / d, as
    fresh lists a caller may change (a copy of `Matrix._ints`)."""
    rows, den = m._ints
    return [list(row) for row in rows], den


def _products(left, right, cols: int):
    """The integer rows of left @ right, one at a time, for integer rows
    `left` and `right` (`cols` columns): zero entries of both are skipped."""
    right_support = [[(j, b) for j, b in enumerate(row) if b] for row in right]
    for row in left:
        acc = [0] * cols
        for a, support in zip(row, right_support):
            if a:
                for j, b in support:
                    acc[j] += a * b
        yield acc


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with Fraction entries (internal storage 0-based)."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise DomainError("ragged rows")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> "Matrix":
        return Matrix(tuple(tuple(_frac(v) for v in row) for row in rows))

    @staticmethod
    def _from_ints(rows, den: int) -> "Matrix":
        """The matrix rows / den for integer rows and den > 0, with `_ints`
        filled.  Rows and den are divided by their common gcd first, which
        leaves den the lcm of the entry denominators: the cache is what
        clearing the entries would give."""
        common = gcd(den, *(v for row in rows for v in row)) if den != 1 else 1
        if common > 1:
            rows = [[v // common for v in row] for row in rows]
            den //= common
        _check_denominator(den)
        zero = Fraction(0)
        m = Matrix(tuple(tuple(Fraction(v, den) if v else zero for v in row)
                         for row in rows))
        m.__dict__["_ints"] = tuple(map(tuple, rows)), den
        return m

    @staticmethod
    def zero(rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        z = Fraction(0)
        return Matrix(tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(tuple(Fraction(1 if p == q else 0) for q in range(n))
                            for p in range(n)))

    @staticmethod
    def unit(n: int, r: int, c: int, value=1) -> "Matrix":
        """Matrix unit: `value` at 1-based position (r, c), zero elsewhere."""
        if not (1 <= r <= n and 1 <= c <= n):
            raise DomainError(f"unit position ({r},{c}) outside 1..{n}")
        v = _frac(value)
        z = Fraction(0)
        return Matrix(tuple(tuple(v if (p, q) == (r - 1, c - 1) else z
                                  for q in range(n)) for p in range(n)))

    # -- shape and access --------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, r: int, c: int) -> Fraction:
        """Entry at 1-based position (r, c)."""
        if not (1 <= r <= self.rows and 1 <= c <= self.cols):
            raise DomainError(f"position ({r},{c}) outside {self.rows}x{self.cols}")
        return self.entries[r - 1][c - 1]

    @cached_property
    def _ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, den): the integer rows over the lcm den of the entry
        denominators, with self = rows / den.  The one place a matrix is
        cleared from its entries; computed once per matrix.  The lcm only
        grows, so it is refused as soon as it passes the bound."""
        den = 1
        for d in {v.denominator for row in self.entries for v in row}:
            if den % d:
                den = lcm(den, d)
                _check_denominator(den)
        return tuple(tuple(v.numerator * (den // v.denominator) for v in row)
                     for row in self.entries), den

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def is_upper_triangular(self, strict: bool = False) -> bool:
        bound = 0 if strict else -1
        return all(self.entries[p][q] == 0
                   for p in range(self.rows) for q in range(self.cols)
                   if q - p <= bound and (p != q or strict))

    def support(self) -> list[tuple[int, int]]:
        """1-based positions of nonzero entries, row-major."""
        return [(p + 1, q + 1)
                for p in range(self.rows) for q in range(self.cols)
                if self.entries[p][q] != 0]

    # -- arithmetic --------------------------------------------------------

    def _same_shape(self, other: "Matrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError("shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(tuple(tuple(a - b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-a for a in row) for row in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DomainError("inner dimension mismatch")
        # Accumulate numerators in plain ints over each operand's shared
        # denominator; one Fraction is built per nonzero output entry.
        left, da = self._ints
        right, db = other._ints
        return Matrix._from_ints(list(_products(left, right, other.cols)), da * db)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)) if self.entries else ())


# -- group kinds and flags --------------------------------------------------

SYMPLECTIC = "symplectic"
ORTHOGONAL = "orthogonal"


@dataclass(frozen=True)
class GroupKind:
    """A classical group family together with its matrix size n.

    family "symplectic" requires n even (type C); "orthogonal" covers both
    the even (type D) and odd (type B) cases.  l = n // 2 is the rank.
    """

    family: str
    n: int

    def __post_init__(self):
        if self.family not in (SYMPLECTIC, ORTHOGONAL):
            raise DomainError(f"unknown family {self.family!r}")
        if not _is_int(self.n):
            raise DomainError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise DomainError("n must be positive")
        if self.family == SYMPLECTIC and self.n % 2 != 0:
            raise DomainError("symplectic groups need even n")

    @staticmethod
    def symplectic(n: int) -> "GroupKind":
        return GroupKind(SYMPLECTIC, n)

    @staticmethod
    def orthogonal(n: int) -> "GroupKind":
        return GroupKind(ORTHOGONAL, n)

    @property
    def l(self) -> int:
        return self.n // 2

    @property
    def is_symplectic(self) -> bool:
        return self.family == SYMPLECTIC

    @property
    def name(self) -> str:
        return ("sp_" if self.is_symplectic else "o_") + str(self.n)


def star(p: int, n: int) -> int:
    """The mirrored index p* = n + 1 - p."""
    return n + 1 - p


@lru_cache(maxsize=None)
def _form_signs(g: GroupKind) -> tuple[int, ...]:
    """The defining form is anti-diagonal: F[p][n-1-p] = signs[p] (0-based).

    Symplectic: +1 on the first l rows, -1 on the last l.  Orthogonal: all +1.
    """
    if g.is_symplectic:
        return (1,) * g.l + (-1,) * g.l
    return (1,) * g.n


@lru_cache(maxsize=None)
def _mates(g: GroupKind) -> tuple[tuple[int, int, int, int, int], ...]:
    """(r, c, c*, r*, sign) for every 0-based position (r, c), row-major,
    with sign = -s[r] s[c] for the signs s of F.

    Entry (r*, c) of transpose(a) F + F a is s[c*] a[c*][r*] + s[r*] a[r][c],
    so a is in g exactly when a[c*][r*] = sign * a[r][c] everywhere: each
    entry fixes its mate (c*, r*), whose own mate is (r, c) with the same
    sign.  An anti-diagonal position is its own mate.
    """
    n, s = g.n, _form_signs(g)
    return tuple((r, c, n - 1 - c, n - 1 - r, -s[r] * s[c])
                 for r in range(n) for c in range(n))


def form_matrix(g: GroupKind) -> Matrix:
    """Gram matrix of the defining bilinear form.

    Symplectic: [[0, J_l], [-J_l, 0]] (skew).  Orthogonal: J_n (symmetric).
    """
    n, signs = g.n, _form_signs(g)
    zero = Fraction(0)
    return Matrix(tuple(tuple(Fraction(signs[p]) if p + q == n - 1 else zero
                              for q in range(n)) for p in range(n)))


def _require_shape(a: Matrix, g: GroupKind):
    if a.rows != g.n or a.cols != g.n:
        raise DomainError(f"expected a {g.n}x{g.n} matrix, got {a.rows}x{a.cols}")


def _lie_violation(a: Matrix, g: GroupKind) -> tuple[int, int] | None:
    """First 1-based (row, col), row-major, where transpose(a) F + F a is
    nonzero, or None when a is in the Lie algebra of g.

    Entry (p, q) vanishes iff the position (p*, q) and its mate agree up to
    their sign (see `_mates`), so each entry is decided without a product.
    The matrix is symmetric or skew, so its first nonzero entry lies on or
    above the diagonal, and only those entries are read.  They are compared
    as reduced fractions, numerator and denominator, and never cleared: a
    non-member is refused however large its denominators are.
    """
    _require_shape(a, g)
    n, mates, e = g.n, _mates(g), a.entries
    for p in range(n):
        r = n - 1 - p
        for _, q, mr, mc, sign in mates[r * n + p:(r + 1) * n]:
            x, y = e[mr][mc], e[r][q]
            if x.denominator != y.denominator or x.numerator != sign * y.numerator:
                return p + 1, q + 1
    return None


def lie_member(a: Matrix, g: GroupKind) -> bool:
    """True iff transpose(a) F + F a = 0 exactly."""
    return _lie_violation(a, g) is None


def group_member(u: Matrix, g: GroupKind) -> bool:
    """True iff transpose(u) F u = F exactly."""
    _require_shape(u, g)
    n, signs = g.n, _form_signs(g)
    # F u is u with its rows reversed and the row p negated where s[p] = -1.
    fu = Matrix(tuple(row if s > 0 else tuple(-v for v in row)
                      for s, row in zip(signs, reversed(u.entries))))
    return all(v == (signs[p] if p + q == n - 1 else 0)
               for p, row in enumerate((u.transpose() @ fu).entries)
               for q, v in enumerate(row))


def _square_violation(a: Matrix) -> tuple[int, int] | None:
    """First 1-based (row, col), row-major, where a @ a is nonzero, or None.
    The integer rows of the product are built one at a time, up to the
    first nonzero one."""
    rows = a._ints[0]
    for p, row in enumerate(_products(rows, rows, a.cols), start=1):
        for q, v in enumerate(row, start=1):
            if v:
                return p, q
    return None


def is_two_nilpotent(a: Matrix) -> bool:
    """True iff a @ a = 0 exactly."""
    if not a.is_square:
        raise DomainError("nilpotency test needs a square matrix")
    return _square_violation(a) is None


def require_two_nilpotent(x: Matrix, g: GroupKind, what: str = "matrix"):
    """Refuse x unless it is a 2-nilpotent member of the Lie algebra of g.

    The DomainError names `what` and the first failing entry, row-major:
    of transpose(x) F + F x, then of x @ x.
    """
    # `lie_member` gates here for the benchmark's tracer test: a non-member
    # is read twice.
    if not lie_member(x, g):
        r, c = _lie_violation(x, g)
        raise DomainError(f"{what} not in {g.name}: "
                          f"(transpose(a)F + Fa)[{r},{c}] != 0")
    if bad := _square_violation(x):   # x is square: the form check read its shape
        r, c = bad
        raise DomainError(f"{what} is not 2-nilpotent: (x @ x)[{r},{c}] != 0")


@dataclass(frozen=True)
class SpaceSpec:
    """A group together with a totally isotropic flag d_1 < ... < d_k <= l.

    The flag step d_s is the dimension of the s-th subspace; the stabilizer
    of the standard flag <e_1..e_{d_1}> c ... c <e_1..e_{d_k}> is the
    parabolic subgroup the spec describes.  blocks is the block vector
    (d_1, d_2 - d_1, ..., d_k - d_{k-1}), built once per spec: every
    pattern check reads it.
    """

    group: GroupKind
    flag: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "flag", _ints(self.flag, "flag steps"))
        d = self.flag
        if any(b <= 0 for b in d) or any(d[s] >= d[s + 1] for s in range(len(d) - 1)):
            raise DomainError(f"flag must be strictly increasing positive, got {d}")
        if d and d[-1] > self.group.l:
            raise DomainError(f"flag step {d[-1]} exceeds the isotropic bound l={self.group.l}")

    @staticmethod
    @lru_cache(maxsize=None)
    def borel(g: GroupKind) -> "SpaceSpec":
        # Frozen, so one spec per group is shared by every caller.
        return SpaceSpec(g, tuple(range(1, g.l + 1)))

    @staticmethod
    def from_blocks(g: GroupKind, blocks: Sequence[int]) -> "SpaceSpec":
        flag, total = [], 0
        for b in _ints(blocks, "flag blocks"):
            total += b
            flag.append(total)
        return SpaceSpec(g, tuple(flag))

    @property
    def k(self) -> int:
        return len(self.flag)

    @cached_property
    def blocks(self) -> tuple[int, ...]:
        return tuple(d - prev for d, prev in zip(self.flag, (0,) + self.flag[:-1]))

    def dimension_vector(self) -> tuple[int, ...]:
        """The palindrome (d_1, ..., d_k, n, d_k, ..., d_1)."""
        return self.flag + (self.group.n,) + self.flag[::-1]

    def block_of(self, v: int) -> int:
        """1-based flag block containing vertex v (d_{s-1} < v <= d_s)."""
        for s, d in enumerate(self.flag, start=1):
            if v <= d:
                return s
        raise DomainError(f"vertex {v} beyond the last flag step {self.flag[-1] if self.flag else 0}")


# -- the elimination kernel ----------------------------------------------------


def _eliminate(rows: list[dict[int, int]], cols: int) -> list[tuple[int, int]]:
    """Fraction-free (one-step Bareiss) forward elimination, in place.

    `rows` are sparse integer rows {column: nonzero entry} over columns
    0..cols-1.  The pivot of column c is the first remaining row, in the
    order given, that holds c: rows are never swapped, and a row only loses
    multiples of rows before it.  Returns (input row index, column) for each
    pivot and leaves the pivot rows in `rows`, in pivot order.  Every
    remaining row is updated at every step, so dividing by the previous
    pivot is exact (Sylvester's identity) and the entries stay integral.
    """
    pivots: list[tuple[int, int]] = []
    tops = []
    live = list(enumerate(rows))
    prev = 1
    for c in range(cols):
        at = next((s for s, (_, row) in enumerate(live) if c in row), None)
        if at is None:
            continue
        i, top = live.pop(at)
        lead = top[c]
        rest = []
        for k, row in live:
            head = row.pop(c, 0)
            if head:
                acc = {j: lead * v for j, v in row.items()}
                for j, v in top.items():
                    if j != c:
                        acc[j] = acc.get(j, 0) - head * v
                row = {j: v // prev for j, v in acc.items() if v}
            elif lead != prev:
                row = {j: lead * v // prev for j, v in row.items()}
            if row:
                rest.append((k, row))
        live = rest
        pivots.append((i, c))
        tops.append(top)
        prev = lead
    rows[:] = tops
    return pivots


def rank(m: Matrix) -> int:
    """Exact rank via fraction-free elimination."""
    rows = [{j: v for j, v in enumerate(row) if v} for row in m._ints[0]]
    return len(_eliminate(rows, m.cols))


# -- dimensions of membership subspaces --------------------------------------


def _flag_allows(flag: tuple[int, ...]) -> Callable[[int, int], bool]:
    # Entry (r, c) kills flag invariance iff some step d has c <= d < r.
    def allowed(r: int, c: int) -> bool:
        return not any(c <= d < r for d in flag)
    return allowed


def _coordinates(g: GroupKind, allowed: Callable[[int, int], bool]
                 ) -> tuple[int, dict]:
    """The number of mate-pair coordinates of the members of g supported on
    `allowed` positions, and a member as a block of them (`_intertwiner_rows`).

    A coordinate is a `_mates` entry whose position and mate are both
    allowed, numbered in `_mates` order and named by the row-major later one:
    a is 1 there and `sign` at the mate.  A pair with a forbidden position is
    zero, and so is a self-mated position of sign -1.
    """
    count, entry = 0, {}
    for r, c, mr, mc, sign in _mates(g):
        later = (r, c) > (mr, mc) or (r, c) == (mr, mc) and sign > 0
        if later and allowed(r + 1, c + 1) and allowed(mr + 1, mc + 1):
            entry[mr, mc] = (count, sign)
            entry[r, c] = (count, 1)
            count += 1
    return count, entry


def _intertwiner_rows(f: Matrix, head: dict, tail: dict) -> list[dict[int, int]]:
    """Sparse integer rows stating A_head f - f A_tail = 0.

    A block of unknowns maps each 0-based position of its matrix to
    (unknown, coefficient); a missing position is zero.  The condition is
    homogeneous in f, so it reads the integer rows of f.
    """
    fi = f._ints[0]
    in_row = [[(r, v) for r, v in enumerate(row) if v] for row in fi]
    in_col = [[(r, v) for r, v in enumerate(col) if v] for col in zip(*fi)]
    rows = []
    for p in range(f.rows):
        for q in range(f.cols):
            # entry (p, q): sum_r A_head[p][r] f[r][q] - f[p][r] A_tail[r][q]
            row: dict[int, int] = {}
            for block, pos, v in ([(head, (p, r), v) for r, v in in_col[q]]
                                  + [(tail, (r, q), -v) for r, v in in_row[p]]):
                if pos in block:
                    i, coef = block[pos]
                    row[i] = row.get(i, 0) + coef * v
            row = {i: v for i, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


def membership_dim(g: GroupKind, allowed: Callable[[int, int], bool],
                   x: Matrix | None = None) -> int:
    """Dimension of {a in g : a supported on allowed positions, [a, x] = 0}.

    `allowed` is a predicate on 1-based (row, col); forbidden positions are
    treated as hard zeros.  Pass x=None to drop the commutant condition.
    """
    count, entry = _coordinates(g, allowed)
    rows = _intertwiner_rows(x, entry, entry) if x is not None else []
    rows.sort(key=len)   # the kernel pivots on the first row: sparsest keeps fill-in low
    return count - len(_eliminate(rows, count))


def lie_algebra_dim(g: GroupKind) -> int:
    """Dimension of {a : lie_member(a, g)}: the parabolic of the empty flag."""
    return parabolic_dim(SpaceSpec(g, ()))


def borel_subalgebra_dim(g: GroupKind) -> int:
    """Dimension of the upper-triangular members of g: the Borel parabolic."""
    return parabolic_dim(SpaceSpec.borel(g))


def parabolic_dim(spec: SpaceSpec) -> int:
    """Dimension of the flag-stabilizing members of the algebra."""
    return membership_dim(spec.group, _flag_allows(spec.flag))


def centralizer_dim_in(x: Matrix, spec: SpaceSpec) -> int:
    """Dimension of {a in the parabolic of `spec` : a x = x a}."""
    require_two_nilpotent(x, spec.group)
    return membership_dim(spec.group, _flag_allows(spec.flag), x)


def orbit_dimension(x: Matrix, spec: SpaceSpec) -> int:
    """dim(parabolic orbit of x) = dim p - dim centralizer_p(x)."""
    return parabolic_dim(spec) - centralizer_dim_in(x, spec)


def lie_algebra_basis(g: GroupKind, allowed: Callable[[int, int], bool] | None = None
                      ) -> list[Matrix]:
    """Basis of the members of g supported on `allowed` positions: one per
    mate-pair coordinate, in `_coordinates` order, written from its block."""
    n = g.n
    count, entry = _coordinates(g, allowed or (lambda r, c: True))
    basis = [[[Fraction(0)] * n for _ in range(n)] for _ in range(count)]
    for (r, c), (i, coef) in entry.items():
        basis[i][r][c] = Fraction(coef)
    return [Matrix.from_rows(m) for m in basis]


# -- JSON ---------------------------------------------------------------------


def _scalar_to_obj(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _scalar_from_obj(v) -> Fraction:
    if isinstance(v, bool):
        raise DomainError("matrix entries must be rationals")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        # Only the documented "p/q" form: Fraction alone would also take
        # decimals and exponents, and "1e999999" builds a million-digit int.
        if not _RATIONAL_LITERAL.fullmatch(v):
            raise DomainError(f"bad rational literal {v!r}")
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad rational literal {v!r}") from exc
    raise DomainError(f"matrix entries must be integers or 'p/q' strings, got {type(v).__name__}")


def matrix_to_obj(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[_scalar_to_obj(v) for v in row] for row in m.entries]}


def matrix_from_obj(obj) -> Matrix:
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise DomainError("matrix object needs keys rows, cols, entries")
    entries = obj["entries"]
    if not _is_int(obj["rows"]) or not _is_int(obj["cols"]):
        raise DomainError("matrix rows and cols must be integers")
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise DomainError("matrix entries must be a list of rows")
    if len(entries) != obj["rows"] or any(len(row) != obj["cols"] for row in entries):
        raise DomainError("matrix entries do not match the declared shape")
    return Matrix(tuple(tuple(_scalar_from_obj(v) for v in row) for row in entries))


def matrix_to_json(m: Matrix) -> str:
    return _dumps(matrix_to_obj(m))


def _dumps(obj) -> str:
    """The canonical, byte-stable JSON text of `obj`: sorted keys, no spaces.
    Every JSON the package writes goes through here."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_json(text: str):
    """The decoded JSON value of `text`, refused as a DomainError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers over 4300 digits,
        # RecursionError deep nesting
        raise DomainError(f"bad JSON: {exc}") from exc


def matrix_from_json(text: str) -> Matrix:
    return matrix_from_obj(_load_json(text))
