"""Exact rational matrices and the classical-group membership tests.

Everything downstream (pattern representatives, rank signatures, orbit
dimensions) reduces to exact linear algebra over Q, so this module has no
floating point anywhere: entries are fractions.Fraction.  Each matrix is
cleared at most once, to integer rows over one shared denominator, and the
result is cached on it (`Matrix._ints`); a matrix built from integer rows
(a product, a pattern representative, a dense group element) starts with
that cache filled.  Products, rank, the 2-nilpotency test and the row
builder read the cache.  The form check reads rows as they are given (a
matrix's entries or integer rows) and the square check integer rows, so
both also gate a matrix that was never built, such as a root-word
conjugate: `correspondence._identify_rows` gates it on its integer rows,
squaring only the pivot rows of its elimination.  There is one
elimination kernel, a pass over sparse integer rows that never swaps
rows: a column's pivot is the first row, in the order given, that holds
it, and a step writes only the rows that hold its column, each divided
by the gcd of its entries.  Rank, orbit dimensions, the quiver
layer's stabilizer dimensions and rank signatures (the matrix's rows
handed bottom-up give the delta positions as pivots) all sit on it.  Every
defining form is anti-diagonal with entries +-1, so each position of a
member of the Lie algebra fixes its mate across the anti-diagonal up to a
sign.  The membership test reads these mate pairs entry by entry; the
parabolic subalgebras, the harness's root elements and the quiver layer's
stabilizers read one list of mate-pair coordinates, each as its support
(`_coordinates`), so no row states the form condition, and dim p is the
list's length.  The mate pairs are a closed form in the form's signs
(`_form_signs`), never a table.  The group test applies F as a signed row
reversal (`_form_times`), never as a Gram matrix.  One row builder states
every A f - f B = 0 that is eliminated: [a, x] = 0, whose rank is the
orbit dimension, and the basis and loop of a flag representation.

Index conventions follow the classical setup: matrix positions are 1-based
at every interface, and the starred index is p* = n + 1 - p (reflection
across the anti-diagonal).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


def _is_int(v) -> bool:
    # JSON true/false decode to bools, which Python counts as ints.
    return isinstance(v, int) and not isinstance(v, bool)


def _within(v, lo: int, hi: int) -> bool:
    """True iff v is a non-bool int with lo <= v <= hi: an index argument."""
    return _is_int(v) and lo <= v <= hi


def _require_sizes(*sizes):
    """Refuse any matrix size that is not a non-negative, non-bool int."""
    if not all(_is_int(v) and v >= 0 for v in sizes):
        raise DomainError(f"matrix sizes must be non-negative integers, got "
                          f"{', '.join(map(repr, sizes))}")


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    raise DomainError(f"entries must be exact rationals, got {type(value).__name__}")


def _items(values, ok, what: str) -> tuple:
    """`values` as a tuple, refused unless they are iterable and ok(v) holds
    for every entry; `what` says what the entries must be."""
    try:
        out = tuple(values)
    except TypeError:
        raise DomainError(f"{what}, got {values!r}") from None
    if not all(map(ok, out)):
        raise DomainError(f"{what}, got {out!r}")
    return out


def _require_instance(value, cls: type, what: str):
    """Refuse `value` unless it is a `cls`: a wrongly typed argument is a
    DomainError, not an AttributeError or a TypeError from deeper down."""
    if not isinstance(value, cls):
        raise DomainError(f"{what} must be a {cls.__name__}, got {type(value).__name__}")


def _ints(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple, refused unless every entry is a non-bool int."""
    return _items(values, _is_int, f"{what} must be integers")


# A matrix whose entries need a common denominator longer than this is
# refused rather than cleared: every integer row of it would carry that many
# bits, and a product or an elimination would run for minutes.
_MAX_DENOMINATOR_BITS = 1 << 16


def _check_denominator(den: int):
    if den.bit_length() > _MAX_DENOMINATOR_BITS:
        raise DomainError(f"matrix entries need a common denominator of over "
                          f"{_MAX_DENOMINATOR_BITS} bits; refusing")


def _reduced(rows, den: int) -> tuple[list, int]:
    """Integer rows and den > 0 divided by their common gcd, which leaves den
    the lcm of the denominators of rows / den; refused past the bound.  The
    rows are returned as given when the gcd is 1."""
    common = gcd(den, *(v for row in rows for v in row)) if den != 1 else 1
    if common > 1:
        rows = [[v // common for v in row] for row in rows]
        den //= common
    _check_denominator(den)
    return rows, den


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
    """Immutable dense matrix with Fraction entries (internal storage 0-based).

    `cols` is read off the rows when there are any, and refused if it
    disagrees with them; a matrix with no rows carries it (0 by default).
    """

    entries: tuple[tuple[Fraction, ...], ...]
    cols: int | None = None

    def __post_init__(self):
        width = (len(self.entries[0]) if self.entries
                 else 0 if self.cols is None else self.cols)
        if not _is_int(width) or width < 0:
            raise DomainError(f"column count must be a non-negative integer, got {width!r}")
        if any(len(row) != width for row in self.entries):
            raise DomainError("ragged rows")
        if self.cols is None:
            object.__setattr__(self, "cols", width)
        elif self.cols != width:
            raise DomainError(f"{self.cols} columns declared, rows have {width}")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> "Matrix":
        rows = _items(rows, lambda row: isinstance(row, Iterable),
                      "matrix rows must be iterables of entries")
        return Matrix(tuple(tuple(_frac(v) for v in row) for row in rows))

    @staticmethod
    def _from_ints(rows, den: int, cols: int | None = None) -> "Matrix":
        """The matrix rows / den for integer rows and den > 0, with `_ints`
        filled (`cols` as in the constructor): the `_reduced` rows, which
        are what clearing the entries would give."""
        rows, den = _reduced(rows, den)
        zero = Fraction(0)
        m = Matrix(tuple(tuple(Fraction(v, den) if v else zero for v in row)
                         for row in rows), cols)
        m.__dict__["_ints"] = tuple(map(tuple, rows)), den
        return m

    @staticmethod
    def zero(rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        _require_sizes(rows, cols)
        z = Fraction(0)
        return Matrix(tuple(tuple(z for _ in range(cols)) for _ in range(rows)), cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        _require_sizes(n)
        return Matrix(tuple(tuple(Fraction(1 if p == q else 0) for q in range(n))
                            for p in range(n)))

    @staticmethod
    def unit(n: int, r: int, c: int, value=1) -> "Matrix":
        """Matrix unit: `value` at 1-based position (r, c), zero elsewhere."""
        if not (_is_int(n) and _within(r, 1, n) and _within(c, 1, n)):
            raise DomainError(f"unit position ({r!r},{c!r}) outside 1..{n!r}")
        v = _frac(value)
        z = Fraction(0)
        return Matrix(tuple(tuple(v if (p, q) == (r - 1, c - 1) else z
                                  for q in range(n)) for p in range(n)))

    # -- shape and access --------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, r: int, c: int) -> Fraction:
        """Entry at 1-based position (r, c)."""
        if not (_within(r, 1, self.rows) and _within(c, 1, self.cols)):
            raise DomainError(f"position ({r!r},{c!r}) outside {self.rows}x{self.cols}")
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
                            for ra, rb in zip(self.entries, other.entries)), self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(tuple(tuple(a - b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.entries, other.entries)), self.cols)

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-a for a in row) for row in self.entries), self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DomainError("inner dimension mismatch")
        # Accumulate numerators in plain ints over each operand's shared
        # denominator; one Fraction is built per nonzero output entry.
        left, da = self._ints
        right, db = other._ints
        return Matrix._from_ints(list(_products(left, right, other.cols)), da * db,
                                 other.cols)

    def transpose(self) -> "Matrix":
        # zip reads no columns of a matrix without rows: its transpose has
        # `cols` empty rows
        return Matrix(tuple(zip(*self.entries)) if self.entries else ((),) * self.cols,
                      self.rows)


# -- group kinds and flags --------------------------------------------------

SYMPLECTIC = "symplectic"
ORTHOGONAL = "orthogonal"
# The short family names: the CLI's --group values and the prefix of group names.
_SHORT = {SYMPLECTIC: "sp", ORTHOGONAL: "o"}


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
        return f"{_SHORT[self.family]}_{self.n}"


# The per-group caches keep the groups used last: room for every group of
# sp_2 ... sp_12 and o_1 ... o_13 (19) at once.  They hold the form's n
# signs, the Borel spec and the harness's root elements; the mate pairs and
# the arc dictionary are closed forms in the signs, kept in no cache.
_GROUP_CACHE_SIZE = 32


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def _form_signs(g: GroupKind) -> tuple[int, ...]:
    """The defining form is anti-diagonal: F[p][n-1-p] = signs[p] (0-based).

    Symplectic: +1 on the first l rows, -1 on the last l.  Orthogonal: all +1.

    Entry (r*, c) of transpose(a) F + F a is s[c*] a[c*][r*] + s[r*] a[r][c]
    for the starred index p* = n-1-p, so a is in g exactly when
    a[c*][r*] = -s[r] s[c] a[r][c] everywhere: each position (r, c) fixes
    its mate (c*, r*), whose own mate is (r, c) with the same sign.  An
    anti-diagonal position is its own mate.
    """
    if g.is_symplectic:
        return (1,) * g.l + (-1,) * g.l
    return (1,) * g.n


def form_matrix(g: GroupKind) -> Matrix:
    """Gram matrix of the defining bilinear form.

    Symplectic: [[0, J_l], [-J_l, 0]] (skew).  Orthogonal: J_n (symmetric).
    """
    _require_instance(g, GroupKind, "group")
    n, signs = g.n, _form_signs(g)
    zero = Fraction(0)
    return Matrix(tuple(tuple(Fraction(signs[p]) if p + q == n - 1 else zero
                              for q in range(n)) for p in range(n)))


def _form_times(m: Matrix, g: GroupKind) -> Matrix:
    """F m for a matrix m with n rows: m with its rows reversed and the row
    p negated where s[p] = -1 (`_form_signs`), with no product."""
    return Matrix(tuple(row if s > 0 else tuple(-v for v in row)
                        for s, row in zip(_form_signs(g), reversed(m.entries))), m.cols)


def _require_shape(a: Matrix, g: GroupKind):
    _require_instance(a, Matrix, "matrix")
    _require_instance(g, GroupKind, "group")
    if a.rows != g.n or a.cols != g.n:
        raise DomainError(f"expected a {g.n}x{g.n} matrix, got {a.rows}x{a.cols}")


def _lie_violation(rows, g: GroupKind) -> tuple[int, int] | None:
    """First 1-based (row, col), row-major, where transpose(a) F + F a is
    nonzero, or None when a is in the Lie algebra of g, for the n x n matrix
    a with these rows: its Fraction entries, or integer rows over any one
    denominator, which scales every entry alike.

    Entry (p, q) vanishes iff the position (p*, q) and its mate (q*, p)
    agree up to the sign -s[p*] s[q] (`_form_signs`), so each entry is
    decided without a product.  The matrix is symmetric or skew, so its
    first nonzero entry lies on or above the diagonal, and only those
    entries are read.  They are compared as reduced fractions, numerator
    and denominator (an int's denominator is 1), and never cleared: a
    non-member is refused however large its denominators are.
    """
    n, s = g.n, _form_signs(g)
    for p in range(n):
        r = n - 1 - p
        row, sr = rows[r], -s[r]
        for q in range(p, n):
            x, y = rows[n - 1 - q][p], row[q]
            if x.denominator != y.denominator or x.numerator != sr * s[q] * y.numerator:
                return p + 1, q + 1
    return None


def lie_member(a: Matrix, g: GroupKind) -> bool:
    """True iff transpose(a) F + F a = 0 exactly."""
    _require_shape(a, g)
    return _lie_violation(a.entries, g) is None


def group_member(u: Matrix, g: GroupKind) -> bool:
    """True iff transpose(u) F u = F exactly."""
    _require_shape(u, g)
    n, signs = g.n, _form_signs(g)
    return all(v == (signs[p] if p + q == n - 1 else 0)
               for p, row in enumerate((u.transpose() @ _form_times(u, g)).entries)
               for q, v in enumerate(row))


def _square_violation(rows, tested: Sequence[int] | None = None) -> tuple[int, int] | None:
    """First 1-based (row, col), row-major, where a @ a is nonzero, or None,
    for the square matrix a with these integer rows (over any denominator).
    Only the rows of a @ a at the 0-based indices `tested`, ascending, are
    read (all of them by default), each built in turn up to the first
    nonzero one."""
    if tested is None:
        tested = range(len(rows))
    products = _products([rows[p] for p in tested], rows, len(rows))
    for p, row in zip(tested, products):
        for q, v in enumerate(row, start=1):
            if v:
                return p + 1, q
    return None


def is_two_nilpotent(a: Matrix) -> bool:
    """True iff a @ a = 0 exactly."""
    _require_instance(a, Matrix, "matrix")
    if not a.is_square:
        raise DomainError("nilpotency test needs a square matrix")
    return _square_violation(a._ints[0]) is None


def _require_form(rows, g: GroupKind, what: str):
    """Refuse the matrix with these rows (`_lie_violation`) unless it is in
    the Lie algebra of g, naming its first failing entry."""
    if bad := _lie_violation(rows, g):
        r, c = bad
        raise DomainError(f"{what} not in {g.name}: "
                          f"(transpose(a)F + Fa)[{r},{c}] != 0")


def _require_square_zero(rows, what: str):
    """Refuse the matrix with these integer rows unless it squares to zero,
    naming its first failing entry."""
    if bad := _square_violation(rows):
        r, c = bad
        raise DomainError(f"{what} is not 2-nilpotent: (x @ x)[{r},{c}] != 0")


def require_two_nilpotent(x: Matrix, g: GroupKind, what: str = "matrix"):
    """Refuse x unless it is a 2-nilpotent member of the Lie algebra of g.

    The DomainError names `what` and the first failing entry, row-major:
    of transpose(x) F + F x, then of x @ x.  The form is read off the
    entries, so a non-member is refused before x is cleared.
    """
    # `lie_member` gates here for the benchmark's tracer test: a non-member
    # is read twice.
    if not lie_member(x, g):
        _require_form(x.entries, g, what)
    _require_square_zero(x._ints[0], what)   # x is square: lie_member read its shape


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
        if not isinstance(self.group, GroupKind):
            raise DomainError(f"group must be a GroupKind, got {self.group!r}")
        object.__setattr__(self, "flag", _ints(self.flag, "flag steps"))
        d = self.flag
        if any(b <= 0 for b in d) or any(d[s] >= d[s + 1] for s in range(len(d) - 1)):
            raise DomainError(f"flag must be strictly increasing positive, got {d}")
        if d and d[-1] > self.group.l:
            raise DomainError(f"flag step {d[-1]} exceeds the isotropic bound l={self.group.l}")

    @staticmethod
    @lru_cache(maxsize=_GROUP_CACHE_SIZE)
    def borel(g: GroupKind) -> "SpaceSpec":
        # Frozen, so one spec per group is shared by every caller.
        _require_instance(g, GroupKind, "group")
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
        last = self.flag[-1] if self.flag else 0
        if not _within(v, 1, last):
            raise DomainError(f"vertex {v!r} outside 1..{last}: not an integer, "
                              f"below 1 or beyond the last flag step")
        return next(s for s, d in enumerate(self.flag, start=1) if v <= d)


# -- the elimination kernel ----------------------------------------------------


def _eliminate(rows: list[dict[int, int]], cols: int) -> list[tuple[int, int]]:
    """Forward elimination on primitive integer rows, in place.

    `rows` are sparse integer rows {column: nonzero entry} over columns
    0..cols-1.  The pivot of column c is the first remaining row, in the
    order given, that holds c: rows are never swapped, and a row only loses
    multiples of rows before it.  Returns (input row index, column) for each
    pivot and leaves the pivot rows in `rows`, in pivot order.

    Each remaining row is filed under its leading column.  When the
    elimination reaches c, no remaining row holds a column left of c, so
    the rows filed under c are exactly the rows that hold it.  A step
    writes only them: each becomes lead * row - head * top (lead and head
    first divided by their gcd), divided by the gcd of its entries.  Each
    row stays a nonzero multiple of its one-step Bareiss (Math. Comp. 1968)
    counterpart, so the pivots, ranks and delta positions are Bareiss's.
    The Bareiss row, an integral minor of the input, is an integer multiple
    of this one (a row never updated is the input row, which Bareiss scales
    by the last pivot), so no entry grows past that minor.
    """
    leading: list[list[int]] = [[] for _ in range(cols)]
    for i, row in enumerate(rows):
        if row:
            leading[min(row)].append(i)
    pivots: list[tuple[int, int]] = []
    tops = []
    for c in range(cols):
        found = sorted(leading[c])
        if not found:
            continue
        i = found[0]
        top = rows[i]
        lead = top[c]
        for k in found[1:]:
            row = rows[k]
            head = row.pop(c)
            g = gcd(lead, head)
            a, b = lead // g, head // g
            acc = row if a == 1 else {j: a * v for j, v in row.items()}
            for j, v in top.items():
                if j != c:
                    acc[j] = acc.get(j, 0) - b * v
            row = {j: v for j, v in acc.items() if v}
            if row:
                g = gcd(*row.values())
                rows[k] = {j: v // g for j, v in row.items()} if g > 1 else row
                leading[min(row)].append(k)
        pivots.append((i, c))
        tops.append(top)
    rows[:] = tops
    return pivots


def rank(m: Matrix) -> int:
    """Exact rank via fraction-free elimination."""
    _require_instance(m, Matrix, "matrix")
    rows = [{j: v for j, v in enumerate(row) if v} for row in m._ints[0]]
    return len(_eliminate(rows, m.cols))


# -- parabolic subalgebras and orbit dimensions ------------------------------


def _keeps(flag: Sequence[int], r: int, c: int) -> bool:
    """The flag rule: True iff the 0-based entry (r, c) keeps every step of
    `flag`, that is no step d has c < d <= r (1-based: c <= d < r).  The
    flag is sorted, so that is r <= c or as many steps are <= r as <= c."""
    return r <= c or bisect_right(flag, r) == bisect_right(flag, c)


Support = tuple[tuple[int, int, int], ...]


def _coordinates(spec: SpaceSpec) -> list[Support]:
    """The mate-pair coordinates of the parabolic subalgebra p of `spec`,
    each as its support: the 0-based entries (r, c, coefficient) of the
    member of p that is 1 there.  A coordinate is a mate pair
    (r, c) <-> (c*, r*) of sign -s[r] s[c] (`_form_signs`) whose two
    positions both keep the flag (`_keeps`), named by its later position
    (r, c), the one with c >= r*.  Its support is the mate, which lies in
    an earlier row, with the sign, then (r, c) with 1, so it is row-major.
    The later positions are scanned row-major, which numbers the
    coordinates.  A pair with a position that breaks the flag is zero, and
    so is a self-mated position of sign -1."""
    flag, n, s = spec.flag, spec.group.n, _form_signs(spec.group)
    supports = []
    for r in range(n):
        rs = n - 1 - r
        for c in range(rs, n):
            cs, sign = n - 1 - c, -s[r] * s[c]
            if c > rs and _keeps(flag, r, c) and _keeps(flag, cs, rs):
                supports.append(((cs, rs, sign), (r, c, 1)))
            elif c == rs and sign > 0 and _keeps(flag, r, c):   # its own mate
                supports.append(((r, c, 1),))
    return supports


def _intertwiner_rows(f: Matrix, head, tail) -> list[dict[int, int]]:
    """Sparse integer rows stating A_head f - f A_tail = 0: one row for each
    0-based position (p, q) of f whose equation is not 0 = 0, row-major.

    A block of unknowns is a sequence of (unknown, support) pairs, as
    `_coordinates` numbers them; a position in no support is zero.  The
    condition is homogeneous in f, so it reads the integer rows of f, and
    only their nonzero entries: f[r][q] = v adds A_head[p][r] v to every
    position (p, q) and -v A_tail[q][s] to every position (r, s).
    """
    by_col: dict[int, list] = {}   # head: column r -> (row p, unknown, coefficient)
    for i, support in head:
        for p, r, coef in support:
            by_col.setdefault(r, []).append((p, i, coef))
    by_row: dict[int, list] = {}   # tail: row q -> (column s, unknown, coefficient)
    for i, support in tail:
        for q, s, coef in support:
            by_row.setdefault(q, []).append((s, i, coef))
    entries: dict[tuple[int, int], dict[int, int]] = {}
    for r, row in enumerate(f._ints[0]):
        for q, v in enumerate(row):
            if v:
                for p, i, coef in by_col.get(r, ()):
                    acc = entries.setdefault((p, q), {})
                    acc[i] = acc.get(i, 0) + coef * v
                for s, i, coef in by_row.get(q, ()):
                    acc = entries.setdefault((r, s), {})
                    acc[i] = acc.get(i, 0) - coef * v
    rows = []
    for pos in sorted(entries):
        row = {i: v for i, v in entries[pos].items() if v}
        if row:
            rows.append(row)
    return rows


def lie_algebra_dim(g: GroupKind) -> int:
    """Dimension of {a : lie_member(a, g)}: the parabolic of the empty flag."""
    return parabolic_dim(SpaceSpec(g, ()))


def borel_subalgebra_dim(g: GroupKind) -> int:
    """Dimension of the upper-triangular members of g: the Borel parabolic."""
    return parabolic_dim(SpaceSpec.borel(g))


def parabolic_dim(spec: SpaceSpec) -> int:
    """Dimension of the flag-stabilizing members of the algebra."""
    _require_instance(spec, SpaceSpec, "spec")
    return len(_coordinates(spec))


def orbit_dimension(x: Matrix, spec: SpaceSpec) -> int:
    """dim(parabolic orbit of x) = dim p - dim centralizer_p(x): the rank of
    a |-> [a, x] on the coordinates of p."""
    _require_instance(spec, SpaceSpec, "spec")
    require_two_nilpotent(x, spec.group)
    return _orbit_dimension(x, spec)


def _orbit_dimension(x: Matrix, spec: SpaceSpec) -> int:
    """`orbit_dimension` of an x known to be a 2-nilpotent member of the
    algebra of spec's group, such as a pattern's representative: no gate."""
    coords = list(enumerate(_coordinates(spec)))
    rows = _intertwiner_rows(x, coords, coords)
    rows.sort(key=len)   # the kernel pivots on the first row: sparsest keeps fill-in low
    return len(_eliminate(rows, len(coords)))


# -- JSON ---------------------------------------------------------------------


def _scalar_to_obj(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


_RATIONAL_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_ZERO = Fraction(0)   # Fractions are immutable, so every zero entry read shares it


def _scalar_from_obj(v) -> Fraction:
    if isinstance(v, bool):
        raise DomainError("matrix entries must be rationals")
    if isinstance(v, int):
        return Fraction(v) if v else _ZERO
    if isinstance(v, str):
        # Only the documented "p/q" form: Fraction alone would also take
        # decimals and exponents, and "1e999999" builds a million-digit int.
        # The match's two sides are read with int(), which refuses past
        # Python's int digit limit, as Fraction(str) would.
        literal = _RATIONAL_LITERAL.fullmatch(v)
        if not literal:
            raise DomainError(f"bad rational literal {v!r}")
        p, q = literal.groups()
        try:
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
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
    if not entries and obj["cols"]:   # every command reads a square matrix
        raise DomainError(f"a matrix with no rows has no columns, got cols {obj['cols']}")
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
