"""Exact rational matrices and the classical-group membership tests.

Everything downstream (pattern representatives, rank signatures, orbit
dimensions) reduces to exact linear algebra over Q, so this module has no
floating point anywhere: entries are fractions.Fraction, and products run
on integer rows cleared to one shared denominator per operand.  There is one
elimination kernel, a fraction-free (one-step Bareiss) pass over sparse
integer rows; rank, nullspace, the membership and centralizer dimensions,
the algebra bases and the quiver layer's inverse and stabilizer dimensions
all sit on it.  Every defining form is anti-diagonal with entries +-1, so
the membership tests read its signed anti-diagonal entry by entry instead
of multiplying by the Gram matrix.

Index conventions follow the classical setup: matrix positions are 1-based
at every interface, and the starred index is p* = n + 1 - p (reflection
across the anti-diagonal).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Iterable, Sequence


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise DomainError(f"entries must be exact rationals, got {type(value).__name__}")


def _cleared(m: "Matrix") -> tuple[list[list[int]], int]:
    """Integer rows and the lcm d of all denominators, with m = rows / d."""
    den = lcm(*{v.denominator for row in m.entries for v in row})
    return [[v.numerator * (den // v.denominator) for v in row]
            for row in m.entries], den


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

    def scale(self, s) -> "Matrix":
        f = _frac(s)
        return Matrix(tuple(tuple(f * a for a in row) for row in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DomainError("inner dimension mismatch")
        # Accumulate numerators in plain ints over each operand's shared
        # denominator; one Fraction is built per nonzero output entry.
        left, da = _cleared(self)
        right, db = _cleared(other)
        right_support = [[(j, b) for j, b in enumerate(row) if b] for row in right]
        den = da * db
        zero = Fraction(0)
        out = []
        for row in left:
            acc = [0] * other.cols
            for a, support in zip(row, right_support):
                if a:
                    for j, b in support:
                        acc[j] += a * b
            out.append(tuple(Fraction(v, den) if v else zero for v in acc))
        return Matrix(tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)) if self.entries else ())

    def submatrix(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> "Matrix":
        """Rows row_lo..row_hi and columns col_lo..col_hi, 1-based inclusive."""
        return Matrix(tuple(row[col_lo - 1:col_hi]
                            for row in self.entries[row_lo - 1:row_hi]))


def jay(l: int) -> Matrix:
    """The l x l anti-diagonal matrix with ones on the anti-diagonal."""
    if l < 1:
        raise DomainError("jay needs l >= 1")
    return Matrix(tuple(tuple(Fraction(1 if p + q == l - 1 else 0)
                              for q in range(l)) for p in range(l)))


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
    def is_odd_orthogonal(self) -> bool:
        return self.family == ORTHOGONAL and self.n % 2 == 1

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

    Entry (p, q) is s[q*] a[q*][p] + s[p] a[p*][q] for the signs s of F, so
    each of the n^2 entries is decided exactly without a product.
    """
    _require_shape(a, g)
    n, signs, e = g.n, _form_signs(g), a.entries
    for p in range(n):
        ps = n - 1 - p
        for q in range(n):
            qs = n - 1 - q
            x, y = e[qs][p], e[ps][q]
            if (x != -y) if signs[qs] == signs[p] else (x != y):
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


def is_two_nilpotent(a: Matrix) -> bool:
    """True iff a @ a = 0 exactly."""
    if not a.is_square:
        raise DomainError("nilpotency test needs a square matrix")
    return (a @ a).is_zero()


def form_failure(a: Matrix, g: GroupKind) -> str:
    """Name the first entry where transpose(a) F + F a is nonzero; for the
    message after lie_member(a, g) has failed."""
    r, c = _lie_violation(a, g)
    return f"(transpose(a)F + Fa)[{r},{c}] != 0"


def square_failure(a: Matrix) -> str:
    """Name the first nonzero entry of a @ a; for the message after
    is_two_nilpotent(a) has failed."""
    r, c = (a @ a).support()[0]
    return f"(x @ x)[{r},{c}] != 0"


@dataclass(frozen=True)
class SpaceSpec:
    """A group together with a totally isotropic flag d_1 < ... < d_k <= l.

    The flag step d_s is the dimension of the s-th subspace; the stabilizer
    of the standard flag <e_1..e_{d_1}> c ... c <e_1..e_{d_k}> is the
    parabolic subgroup the spec describes.  blocks is the block vector
    (d_1, d_2 - d_1, ..., d_k - d_{k-1}).
    """

    group: GroupKind
    flag: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "flag", tuple(int(d) for d in self.flag))
        d = self.flag
        if any(b <= 0 for b in d) or any(d[s] >= d[s + 1] for s in range(len(d) - 1)):
            raise DomainError(f"flag must be strictly increasing positive, got {d}")
        if d and d[-1] > self.group.l:
            raise DomainError(f"flag step {d[-1]} exceeds the isotropic bound l={self.group.l}")

    @staticmethod
    def borel(g: GroupKind) -> "SpaceSpec":
        return SpaceSpec(g, tuple(range(1, g.l + 1)))

    @staticmethod
    def from_blocks(g: GroupKind, blocks: Sequence[int]) -> "SpaceSpec":
        flag, total = [], 0
        for b in blocks:
            total += int(b)
            flag.append(total)
        return SpaceSpec(g, tuple(flag))

    @property
    def k(self) -> int:
        return len(self.flag)

    @property
    def blocks(self) -> tuple[int, ...]:
        return tuple(d - prev for d, prev in zip(self.flag, (0,) + self.flag[:-1]))

    @property
    def is_borel(self) -> bool:
        return self.flag == tuple(range(1, self.group.l + 1))

    @property
    def is_complete(self) -> bool:
        """Whether the flag reaches the maximal isotropic dimension l."""
        return bool(self.flag) and self.flag[-1] == self.group.l

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


def _eliminate(rows: list[dict[int, int]], cols: int) -> list[int]:
    """Fraction-free (one-step Bareiss) forward elimination, in place.

    `rows` are sparse integer rows {column: nonzero entry} over columns
    0..cols-1.  Returns the pivot columns; on return rows[s] is the pivot
    row of the s-th of them, zero left of it, and any later row is empty.
    Every remaining row is updated at every step, so dividing by the
    previous pivot is exact (Sylvester's identity) and the entries stay
    integral and of modest size.
    """
    pivots: list[int] = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        # The sparsest row holding column c as pivot keeps fill-in low.
        piv = min((i for i in range(r, len(rows)) if c in rows[i]),
                  key=lambda i: len(rows[i]), default=None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        lead = top[c]
        rest = []
        for row in rows[r + 1:]:
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
                rest.append(row)
        rows[r + 1:] = rest
        pivots.append(c)
        prev = lead
    return pivots


def _null_basis(rows: list[dict[int, int]], cols: int) -> list[tuple[Fraction, ...]]:
    """The right nullspace of sparse integer rows: one vector per free
    column f, equal to e_f on the free columns (which makes it unique)."""
    pivots = _eliminate(rows, cols)
    pivot_rows = list(zip(pivots, rows))[::-1]
    zero = Fraction(0)
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        vec = [zero] * cols
        vec[f] = Fraction(1)
        # Pivot unknowns right of f are zero; solve the others bottom-up.
        for c, row in pivot_rows:
            if c < f:
                vec[c] = -sum((v * vec[j] for j, v in row.items() if j != c),
                              zero) / row[c]
        basis.append(tuple(vec))
    return basis


def _sparse_rows(m: Matrix) -> list[dict[int, int]]:
    return [{j: v for j, v in enumerate(row) if v} for row in _cleared(m)[0]]


def rank(m: Matrix) -> int:
    """Exact rank via fraction-free elimination."""
    return len(_eliminate(_sparse_rows(m), m.cols))


def nullspace(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace (one vector per free column of the RREF)."""
    return _null_basis(_sparse_rows(m), m.cols)


# -- dimensions of membership subspaces --------------------------------------


def _lie_constraint(p: int, q: int, signs: tuple[int, ...], n: int
                    ) -> list[tuple[int, int, int]]:
    # (transpose(a) F + F a)_{pq} has two terms because F is anti-diagonal:
    # F_{q*,q} a_{q*,p} + F_{p,p*} a_{p*,q}, with F_{p,p*} = signs[p - 1].
    ps, qs = star(p, n), star(q, n)
    return [(qs, p, signs[qs - 1]), (ps, q, signs[p - 1])]


def _flag_allows(flag: tuple[int, ...]) -> Callable[[int, int], bool]:
    # Entry (r, c) kills flag invariance iff some step d has c <= d < r.
    def allowed(r: int, c: int) -> bool:
        return not any(c <= d < r for d in flag)
    return allowed


def _constraint_rows(g: GroupKind, allowed: Callable[[int, int], bool],
                     x: Matrix | None = None
                     ) -> tuple[list[tuple[int, int]], list[dict[int, int]]]:
    """The unknowns (allowed 1-based positions, row-major) and sparse integer
    rows over them stating a in g, and [a, x] = 0 when x is given."""
    n = g.n
    signs = _form_signs(g)
    unknowns = [(p, q) for p in range(1, n + 1) for q in range(1, n + 1)
                if allowed(p, q)]
    index = {pq: i for i, pq in enumerate(unknowns)}
    rows: list[dict[int, int]] = []

    def emit(terms):
        row: dict[int, int] = {}
        for pq, coef in terms:
            i = index.get(pq)
            if i is not None:
                row[i] = row.get(i, 0) + coef
        row = {i: v for i, v in row.items() if v}
        if row:
            rows.append(row)

    for p in range(1, n + 1):
        for q in range(1, n + 1):
            emit(((r, c), coef) for r, c, coef in _lie_constraint(p, q, signs, n))
    if x is not None:
        # [a, x] = 0 is unchanged by scaling x, so x is cleared to integers once.
        xi = _cleared(x)[0]
        in_row = [[(r, v) for r, v in enumerate(row, start=1) if v] for row in xi]
        in_col = [[(r, v) for r, v in enumerate(col, start=1) if v] for col in zip(*xi)]
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                # ([a, x])_{pq} = sum_r a_{pr} x_{rq} - x_{pr} a_{rq}
                emit([((p, r), v) for r, v in in_col[q - 1]]
                     + [((r, q), -v) for r, v in in_row[p - 1]])
    return unknowns, rows


def membership_dim(g: GroupKind, allowed: Callable[[int, int], bool],
                   x: Matrix | None = None) -> int:
    """Dimension of {a in g : a supported on allowed positions, [a, x] = 0}.

    `allowed` is a predicate on 1-based (row, col); forbidden positions are
    treated as hard zeros.  Pass x=None to drop the commutant condition.
    """
    unknowns, rows = _constraint_rows(g, allowed, x)
    return len(unknowns) - len(_eliminate(rows, len(unknowns)))


def lie_algebra_dim(g: GroupKind) -> int:
    """Dimension of {a : lie_member(a, g)}, solved exactly."""
    return membership_dim(g, lambda r, c: True)


def borel_subalgebra_dim(g: GroupKind) -> int:
    """Dimension of the upper-triangular members of g, solved exactly."""
    return membership_dim(g, lambda r, c: r <= c)


def parabolic_dim(spec: SpaceSpec) -> int:
    """Dimension of the flag-stabilizing members of the algebra."""
    return membership_dim(spec.group, _flag_allows(spec.flag))


def centralizer_dim_in(x: Matrix, g: GroupKind, flag: SpaceSpec) -> int:
    """Dimension of {a in the parabolic of `flag` : a x = x a}."""
    if not lie_member(x, g):
        raise DomainError(f"matrix not in {g.name}: {form_failure(x, g)}")
    if not is_two_nilpotent(x):
        raise DomainError(f"matrix is not 2-nilpotent: {square_failure(x)}")
    return membership_dim(g, _flag_allows(flag.flag), x)


def orbit_dimension(x: Matrix, spec: SpaceSpec) -> int:
    """dim(parabolic orbit of x) = dim p - dim centralizer_p(x)."""
    return parabolic_dim(spec) - centralizer_dim_in(x, spec.group, spec)


def lie_algebra_basis(g: GroupKind, allowed: Callable[[int, int], bool] | None = None
                      ) -> list[Matrix]:
    """Basis of the members of g supported on `allowed` positions."""
    n = g.n
    unknowns, rows = _constraint_rows(g, allowed or (lambda r, c: True))
    basis = []
    for vec in _null_basis(rows, len(unknowns)):
        m = [[Fraction(0)] * n for _ in range(n)]
        for (p, q), v in zip(unknowns, vec):
            m[p - 1][q - 1] = v
        basis.append(Matrix.from_rows(m))
    return basis


# -- JSON ---------------------------------------------------------------------


def _scalar_to_obj(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _scalar_from_obj(v) -> Fraction:
    if isinstance(v, bool):
        raise DomainError("matrix entries must be rationals")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad rational literal {v!r}") from exc
    raise DomainError(f"matrix entries must be integers or 'p/q' strings, got {type(v).__name__}")


def matrix_to_obj(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[_scalar_to_obj(v) for v in row] for row in m.entries]}


def _is_int(v) -> bool:
    # JSON true/false decode to bools, which Python counts as ints.
    return isinstance(v, int) and not isinstance(v, bool)


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
    return json.dumps(matrix_to_obj(m), sort_keys=True, separators=(",", ":"))


def matrix_from_json(text: str) -> Matrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad JSON: {exc}") from exc
    return matrix_from_obj(obj)
