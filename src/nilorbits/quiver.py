"""The symmetric-quiver layer: indecomposables of A(l), dimension vectors,
duality, the pattern <-> summand dictionary, flag representations, and the
Auslander-Reiten sequence catalog.

A(l) is the path algebra of the line quiver 1 -> ... -> l -> omega -> l* ->
... -> 1* with a loop alpha at omega, modulo alpha^2 = a_l* a_l = 0, where
omega = l + 1.  Summands are symbolic (family plus indices), and each is
laid out as one or two strings of boxes; dimension vectors count the boxes,
and with the correspondence table they carry everything the rest of the
package needs.  Explicit matrix realizations appear only where endomorphism
dimensions are computed (flag representations).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .linalg import (DomainError, GroupKind, Matrix, SpaceSpec, _cleared,
                     _eliminate, _frac, _ints, form_matrix, rank,
                     require_two_nilpotent)
from .patterns import (LOOP_LOWER, LOOP_UNORIENTED, LOOP_UPPER, LinkPattern,
                       consumption)

FAMILIES = ("M", "M*", "D+", "D-", "C+", "C-", "Z+", "Z-")
_FAMILY_ORDER = {f: idx for idx, f in enumerate(FAMILIES)}


@dataclass(frozen=True)
class Summand:
    """An indecomposable of A(l), named by family and index pair.

    Degenerate names are normalized on construction: the starred full
    string M*_{w,w} is M_{w,w}, C+_{w,w} is D+_{w,w}, the minus families on
    the diagonal equal their plus partners (word reversal), and Z indices
    at omega = l+1 degenerate into the D/C families.
    """

    family: str
    i: int
    j: int
    l: int

    def __post_init__(self):
        fam, i, j, l = self.family, self.i, self.j, self.l
        if fam not in _FAMILY_ORDER:
            raise DomainError(f"unknown summand family {fam!r}")
        if l < 0:
            raise DomainError("quiver rank must be nonnegative")
        omega = l + 1
        while True:
            if fam in ("Z+", "Z-") and j == omega:
                fam = "D" + fam[1]
                continue
            if fam in ("Z+", "Z-") and i == omega:
                fam, i, j = "C" + fam[1], j, omega
                continue
            if fam in ("D-", "C-") and i == j:
                fam = fam[0] + "+"
                continue
            if fam == "C+" and (i, j) == (omega, omega):
                fam = "D+"
                continue
            if fam == "M*" and (i, j) == (omega, omega):
                fam = "M"
                continue
            break
        if fam in ("Z+", "Z-"):
            if not (1 <= i <= l and 1 <= j <= l):
                raise DomainError(f"{fam} indices ({i},{j}) outside 1..{l}")
        elif fam in ("D-", "C-"):
            if not (1 <= i < j <= omega):
                raise DomainError(f"{fam} needs 1 <= i < j <= {omega}, got ({i},{j})")
        else:
            if not (1 <= i <= j <= omega):
                raise DomainError(f"{fam} needs 1 <= i <= j <= {omega}, got ({i},{j})")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    def key(self) -> tuple[int, int, int, int]:
        return (_FAMILY_ORDER[self.family], self.i, self.j, self.l)

    def text(self) -> str:
        return f"{self.family}({self.i},{self.j})"


def M(i: int, j: int, l: int) -> Summand:
    return Summand("M", i, j, l)


def Mstar(i: int, j: int, l: int) -> Summand:
    return Summand("M*", i, j, l)


def Dplus(i: int, j: int, l: int) -> Summand:
    return Summand("D+", i, j, l)


def Dminus(i: int, j: int, l: int) -> Summand:
    return Summand("D-", i, j, l)


def Cplus(i: int, j: int, l: int) -> Summand:
    return Summand("C+", i, j, l)


def Cminus(i: int, j: int, l: int) -> Summand:
    return Summand("C-", i, j, l)


def Zplus(i: int, j: int, l: int) -> Summand:
    return Summand("Z+", i, j, l)


def Zminus(i: int, j: int, l: int) -> Summand:
    return Summand("Z-", i, j, l)


DimensionVector = tuple[int, ...]


def _string_rows(s: Summand) -> list[tuple[int, int]]:
    """The one or two strings of s as inclusive ranges of 0-based slots,
    laid out 1, ..., l, omega, l*, ..., 1*: the slot of vertex t is t-1, of
    omega is l, and of t* is 2l+1-t (so omega sits where (l+1)* would).

    Every slot of a range is one basis vector (a box) of s, and the arrows
    act along each string.  For the D/C/Z families the two strings meet at
    omega, where alpha sends one omega box to the other.
    """
    l, i, j = s.l, s.i, s.j
    if s.family == "M":
        return [(i - 1, j - 1)]
    if s.family == "M*":
        return [(2 * l + 1 - j, 2 * l + 1 - i)]
    if s.family in ("D+", "D-"):
        return [(i - 1, l), (j - 1, l)]
    if s.family in ("C+", "C-"):
        return [(l, 2 * l + 1 - i), (l, 2 * l + 1 - j)]
    return [(i - 1, l), (l, 2 * l + 1 - j)]


def dimension_vector(s: Summand) -> DimensionVector:
    """Dimensions over the 2l+1 vertices in the slot layout of
    `_string_rows`: the number of boxes of s at each slot."""
    v = [0] * (2 * s.l + 1)
    for lo, hi in _string_rows(s):
        for idx in range(lo, hi + 1):
            v[idx] += 1
    return tuple(v)


def dual(s: Summand) -> Summand:
    """The reflection through omega: M <-> M*, D <-> C, Z indices swap."""
    fam = s.family
    if fam == "M":
        return Summand("M*", s.i, s.j, s.l)
    if fam == "M*":
        return Summand("M", s.i, s.j, s.l)
    if fam[0] in ("D", "C"):
        return Summand(("C" if fam[0] == "D" else "D") + fam[1], s.i, s.j, s.l)
    return Summand(fam, s.j, s.i, s.l)


def catalog(l: int) -> list[Summand]:
    """All indecomposables of A(l) in canonical form, sorted."""
    omega = l + 1
    out = set()
    for fam in ("M", "M*", "D+", "C+"):
        for i in range(1, omega + 1):
            for j in range(i, omega + 1):
                out.add(Summand(fam, i, j, l))
    for fam in ("D-", "C-"):
        for i in range(1, omega + 1):
            for j in range(i + 1, omega + 1):
                out.add(Summand(fam, i, j, l))
    for fam in ("Z+", "Z-"):
        for i in range(1, l + 1):
            for j in range(1, l + 1):
                out.add(Summand(fam, i, j, l))
    return sorted(out, key=Summand.key)


@dataclass(frozen=True)
class SymmetricPiece:
    """An indecomposable SYMMETRIC representation: either a self-dual
    summand alone or a dual pair S (+) dual(S)."""

    parts: tuple[Summand, ...]

    def __post_init__(self):
        parts = tuple(sorted(self.parts, key=Summand.key))
        if len(parts) == 1:
            if dual(parts[0]) != parts[0]:
                raise DomainError(f"{parts[0].text()} is not self-dual; it only "
                                  "occurs paired with its dual")
        elif len(parts) == 2:
            if dual(parts[0]) != parts[1]:
                raise DomainError("a two-part piece must be a dual pair")
        else:
            raise DomainError("a symmetric piece has one or two parts")
        object.__setattr__(self, "parts", parts)

    @staticmethod
    def pair(s: Summand) -> "SymmetricPiece":
        return SymmetricPiece((s, dual(s)))

    @staticmethod
    def single(s: Summand) -> "SymmetricPiece":
        return SymmetricPiece((s,))

    def key(self) -> tuple:
        return tuple(p.key() for p in self.parts)

    def dimension_vector(self) -> DimensionVector:
        vecs = [dimension_vector(p) for p in self.parts]
        return tuple(sum(col) for col in zip(*vecs))

    def text(self) -> str:
        return " (+) ".join(p.text() for p in self.parts)


Multiset = list[tuple[SymmetricPiece, int]]


def _collect(pieces: list[SymmetricPiece]) -> Multiset:
    counts: dict[SymmetricPiece, int] = {}
    for piece in pieces:
        counts[piece] = counts.get(piece, 0) + 1
    return sorted(counts.items(), key=lambda item: item[0].key())


def total_dimension_vector(ms: Multiset) -> DimensionVector:
    if not ms:
        return ()
    vecs = [piece.dimension_vector() for piece, _ in ms]
    return tuple(sum(v[idx] * mult for v, (_, mult) in zip(vecs, ms))
                 for idx in range(len(vecs[0])))


def pattern_to_summands(p: LinkPattern, spec: SpaceSpec) -> Multiset:
    """Krull-Remak-Schmidt multiset of the orbit indexed by a block pattern.

    Arcs translate one-to-one to symmetric pieces; leftover capacity at
    block s gives free copies of M_{s,omega} (+) M*_{s,omega}; the middle
    space beyond the flag is padded with M_{omega,omega} pieces (paired, and
    one fixed single copy when n is odd).  The total dimension vector is
    always the palindrome of the spec.
    """
    if p.b != spec.blocks:
        raise DomainError("pattern capacities do not match the flag blocks")
    if (p.kind == "symplectic") != spec.group.is_symplectic:
        raise DomainError("pattern kind does not match the group family")
    # Capacity left at each block; the pattern is valid iff none is negative.
    free = [cap - used for cap, used in zip(p.b, consumption(p))]
    if any(f < 0 for f in free):
        raise DomainError("pattern is not valid for its capacities")
    k = spec.k
    symplectic = spec.group.is_symplectic
    pieces: list[SymmetricPiece] = []
    for arc in p.arcs:
        if arc.loop_variant == LOOP_UNORIENTED:
            pieces.append(SymmetricPiece.pair(Dplus(arc.source, arc.source, k)))
        elif arc.loop_variant == LOOP_UPPER:
            z = Zplus(arc.source, arc.source, k)
            pieces.append(SymmetricPiece.single(z) if symplectic
                          else SymmetricPiece((z, z)))
        elif arc.loop_variant == LOOP_LOWER:
            z = Zminus(arc.source, arc.source, k)
            pieces.append(SymmetricPiece.single(z) if symplectic
                          else SymmetricPiece((z, z)))
        else:
            i, j = min(arc.source, arc.target), max(arc.source, arc.target)
            rightward = arc.source < arc.target
            if not arc.dotted:
                base = Dminus(i, j, k) if rightward else Dplus(i, j, k)
            else:
                base = Zminus(i, j, k) if rightward else Zplus(i, j, k)
            pieces.append(SymmetricPiece.pair(base))
    for s, count in enumerate(free, start=1):
        for _ in range(count):
            pieces.append(SymmetricPiece.pair(M(s, k + 1, k)))
    reach = spec.flag[-1] if spec.flag else 0
    gap = spec.group.n - 2 * reach
    middle = M(k + 1, k + 1, k)
    for _ in range(gap // 2):
        pieces.append(SymmetricPiece.pair(middle))
    if gap % 2 == 1:
        pieces.append(SymmetricPiece.single(middle))
    return _collect(pieces)


# -- explicit flag realizations and endomorphism dimensions -------------------


@dataclass(frozen=True)
class SymmetricRep:
    """An explicit symmetric representation of A(k) built from a flag.

    Spaces are Q^{d_1}, ..., Q^{d_k} and the middle space Q^n; `arrows`
    holds the k inclusion matrices (the last one landing in the middle
    space) and `loop` the alpha action on the middle space.  The starred
    spaces are not stored, because each is the dual of an unstarred one, so
    a symmetric endomorphism is fixed by its blocks on V_1, ..., V_k and
    V_omega and its starred conditions are transposes of the unstarred ones.
    """

    group: GroupKind
    dims: tuple[int, ...]
    arrows: tuple[Matrix, ...]
    loop: Matrix

    def __post_init__(self):
        d = _ints(self.dims, "flag dimensions")
        object.__setattr__(self, "dims", d)
        if len(self.arrows) != len(d):
            raise DomainError("need one arrow per flag step")
        n = self.group.n
        for s, (a, rows) in enumerate(zip(self.arrows, d[1:] + (n,)), start=1):
            if (a.rows, a.cols) != (rows, d[s - 1]):
                raise DomainError(f"arrow {s} has shape {a.rows}x{a.cols}, "
                                  f"expected {rows}x{d[s - 1]}")
        if (self.loop.rows, self.loop.cols) != (n, n):
            raise DomainError("loop must act on the middle space")
        require_two_nilpotent(self.loop, self.group, "loop")


def _inclusions(dims: tuple[int, ...], n: int) -> list[Matrix]:
    """Coordinate inclusions [I; 0] of each Q^{d_s} into the next space,
    the last one into Q^n."""
    return [Matrix.from_rows([[1 if p == q else 0 for q in range(cols)]
                              for p in range(rows)])
            for cols, rows in zip(dims, dims[1:] + (n,))]


def realize_flag(spec: SpaceSpec, loop: Matrix | None = None) -> SymmetricRep:
    """Standard-basis realization of the standard isotropic flag: every
    arrow is a coordinate inclusion [I; 0]."""
    n = spec.group.n
    return SymmetricRep(spec.group, spec.flag, tuple(_inclusions(spec.flag, n)),
                        loop if loop is not None else Matrix.zero(n))


def realize_isotropic_flag(g: GroupKind, subspaces: list[list[list]],
                           loop: Matrix | None = None) -> SymmetricRep:
    """Realize a (possibly non-standard) totally isotropic flag.

    `subspaces` lists bases, each extending the previous one (prefix
    nesting), each vector a length-n sequence of exact rationals (ints or
    Fractions; floats are refused).
    """
    if not subspaces:
        raise DomainError("need at least one subspace")
    exact = [[tuple(_frac(v) for v in vec) for vec in base] for base in subspaces]
    vectors = exact[-1]
    for prev, cur in zip(exact, exact[1:]):
        if len(prev) >= len(cur) or prev != cur[:len(prev)]:
            raise DomainError("subspace bases must extend each other (prefix nesting)")
    n = g.n
    if any(len(vec) != n for vec in vectors):
        raise DomainError(f"basis vectors must have length {n}")
    big = Matrix.from_rows([[vec[p] for vec in vectors] for p in range(n)])
    if rank(big) != len(vectors):
        raise DomainError("basis vectors are linearly dependent")
    f = form_matrix(g)
    if not (big.transpose() @ f @ big).is_zero():
        raise DomainError("flag is not totally isotropic for the form")
    dims = tuple(len(b) for b in subspaces)
    if dims[-1] > g.l:
        raise DomainError(f"flag step {dims[-1]} exceeds the isotropic bound l={g.l}")
    # The inner arrows are coordinate inclusions by prefix nesting; the last
    # one embeds the largest basis in Q^n.
    arrows = _inclusions(dims[:-1], dims[-1]) + [big]
    return SymmetricRep(g, dims, tuple(arrows), loop if loop is not None
                        else Matrix.zero(n))


def symmetric_endo_dim(rep: SymmetricRep | SpaceSpec) -> int:
    """Dimension of the symmetric endomorphism algebra of a flag
    representation: blocks A_1, ..., A_k, A_omega intertwining every arrow
    and the loop, with A_omega in the Lie algebra of the form.

    Accepts a SymmetricRep or a SpaceSpec (standard flag realization).
    """
    if isinstance(rep, SpaceSpec):
        rep = realize_flag(rep)
    elif not isinstance(rep, SymmetricRep):
        raise DomainError("expected a SymmetricRep or a SpaceSpec")

    n = rep.group.n
    omega = len(rep.dims) + 1
    # unknown blocks A_1..A_k, then A_omega, each row-major
    side = rep.dims + (n,)
    offsets = [0]
    for d in side:
        offsets.append(offsets[-1] + d * d)
    total = offsets[-1]
    rows: list[dict[int, int]] = []

    def emit(terms):
        # terms: ((space, r, c), coef) with spaces numbered 1..omega
        row: dict[int, int] = {}
        for (space, r, c), coef in terms:
            idx = offsets[space - 1] + r * side[space - 1] + c
            row[idx] = row.get(idx, 0) + coef
        row = {idx: v for idx, v in row.items() if v}
        if row:
            rows.append(row)

    def intertwine(fmat: Matrix, tail: int, head: int):
        # A_head @ f - f @ A_tail = 0.  It is homogeneous in f, so f is
        # cleared to integers once and every row is integral.
        fe = _cleared(fmat)[0]
        for a in range(fmat.rows):
            for b in range(fmat.cols):
                emit([((head, a, c), fe[c][b]) for c in range(fmat.rows) if fe[c][b]]
                     + [((tail, c, b), -fe[a][c]) for c in range(fmat.cols) if fe[a][c]])

    # a_s: V_s -> V_{s+1}, with V_{k+1} the middle space
    for s, arrow in enumerate(rep.arrows, start=1):
        intertwine(arrow, s, s + 1)
    intertwine(rep.loop, omega, omega)
    # form condition on the middle space: transpose(A) F + F A = 0
    fe = _cleared(form_matrix(rep.group))[0]
    for a in range(n):
        for b in range(n):
            emit([((omega, c, a), fe[c][b]) for c in range(n) if fe[c][b]]
                 + [((omega, c, b), fe[a][c]) for c in range(n) if fe[a][c]])

    return total - len(_eliminate(rows, total))


# -- Auslander-Reiten sequences ------------------------------------------------


@dataclass(frozen=True)
class ARSequence:
    left: Summand
    middles: tuple[Summand, ...]
    right: Summand
    rule: str

    def text(self) -> str:
        mid = " (+) ".join(m.text() for m in self.middles)
        return f"0 -> {self.left.text()} -> {mid} -> {self.right.text()} -> 0"


@dataclass(frozen=True)
class SkipRecord:
    rule: str
    indices: tuple[int, ...]
    reason: str


def _ar_rules(l: int):
    """The source table's sequence families with their literal index guards.

    Each entry: (rule name, list of index tuples, builder).  Builders name
    summands that the constructor may normalize; an invalid member makes
    the instance a skip record instead of a sequence.
    """
    w = l + 1

    def one(builder):
        return [()], builder

    rules = [
        ("m_full", *one(lambda: (M(1, w, l), [Zplus(1, 1, l)], Mstar(1, w, l)))),
        ("m_to_omega", [(i,) for i in range(2, l + 1)],
         lambda i: (M(i, w, l), [M(i - 1, w, l), Zplus(i, 1, l)], Zplus(i - 1, 1, l))),
        ("m_interior", [(i, j) for i in range(2, l + 1) for j in range(i + 1, l + 1)],
         lambda i, j: (M(i, j, l), [M(i, j - 1, l), M(i - 1, j, l)], M(i - 1, j - 1, l))),
        ("m_diagonal", [(i,) for i in range(2, l + 1)],
         lambda i: (M(i, i, l), [M(i - 1, i, l)], M(i - 1, i - 1, l))),
        ("mstar_top_row", [(j,) for j in range(2, l)],
         lambda j: (Mstar(1, j, l), [Mstar(2, j, l), Mstar(1, j + 1, l)],
                    Mstar(2, j + 1, l))),
        ("mstar_to_projective",
         *one(lambda: (Mstar(1, l, l), [Mstar(2, l, l), Cminus(1, 1, l)],
                       Cminus(1, l, l)))),
        ("mstar_full_first",
         *one(lambda: (Mstar(1, w, l), [Mstar(2, w, l), Cplus(1, 1, l)],
                       Cminus(1, 2, l)))),
        ("mstar_diagonal", [(i,) for i in range(1, l)],
         lambda i: (Mstar(i, i, l), [Mstar(i, i + 1, l)], Mstar(i + 1, i + 1, l))),
        ("mstar_last_diagonal",
         *one(lambda: (Mstar(l, l, l), [Cminus(1, l, l)], Cminus(1, w, l)))),
        ("socle_omega",
         *one(lambda: (M(w, w, l), [M(l, w, l), Cplus(1, w, l)], Zplus(l, 1, l)))),
        ("mstar_full_shift", [(i,) for i in range(2, l)],
         lambda i: (Mstar(i, w, l), [Mstar(i + 1, w, l), Cplus(1, i, l)],
                    Cplus(1, i + 1, l))),
        ("mstar_full_last",
         *one(lambda: (Mstar(l, w, l), [M(w, w, l), Cplus(1, l, l)], Cplus(1, w, l)))),
        ("mstar_interior", [(i, j) for i in range(2, l + 1) for j in range(i + 1, l)],
         lambda i, j: (Mstar(i, j, l), [Mstar(i + 1, j, l), Mstar(i, j + 1, l)],
                       Mstar(i + 1, j + 1, l))),
        ("dplus_full_first",
         *one(lambda: (Dplus(1, w, l), [Dplus(1, l, l), M(w, w, l)], M(l, w, l)))),
        ("dplus_full_shift", [(i,) for i in range(2, l + 1)],
         lambda i: (Dplus(i, w, l), [Dplus(i - 1, w, l), Dplus(i, l, l)],
                    Dplus(i - 1, l, l))),
        ("dplus_first_row", [(j,) for j in range(2, l + 1)],
         lambda j: (Dplus(1, j, l), [Dplus(1, j - 1, l), M(j, w, l)], M(j - 1, w, l))),
        ("dplus_interior", [(i, j) for i in range(2, l + 1) for j in range(i + 1, l + 1)],
         lambda i, j: (Dplus(i, j, l), [Dplus(i - 1, j, l), Dplus(i, j - 1, l)],
                       Dplus(i - 1, j - 1, l))),
        ("dminus_full_first",
         *one(lambda: (Dminus(1, w, l), [Dminus(1, l, l)], M(l, l, l)))),
        ("dminus_full_shift", [(i,) for i in range(2, l + 1)],
         lambda i: (Dminus(i, w, l), [Dminus(i - 1, w, l), Dplus(i, l, l)],
                    Dminus(i - 1, l, l))),
        ("dplus_diagonal", [(i,) for i in range(2, w + 1)],
         lambda i: (Dplus(i, i, l), [Dminus(i - 1, i, l), Dplus(i - 1, i, l)],
                    Dplus(i - 1, i - 1, l))),
        ("dminus_first_row", [(j,) for j in range(2, l + 1)],
         lambda j: (Dminus(1, j, l), [Dminus(1, j - 1, l), M(j, l, l)], M(j - 1, l, l))),
        ("dminus_interior", [(i, j) for i in range(2, l + 1) for j in range(i + 1, l + 1)],
         lambda i, j: (Dminus(i, j, l), [Dminus(i - 1, j, l), Dminus(i, j - 1, l)],
                       Dminus(i - 1, j - 1, l))),
        ("cplus_full_shift", [(i,) for i in range(1, l)],
         lambda i: (Cplus(i, w, l), [Cplus(i + 1, w, l), Zplus(l, i, l)],
                    Zplus(l, i + 1, l))),
        ("cplus_full_last",
         *one(lambda: (Cplus(l, w, l), [Cplus(w, w, l), Zplus(l, l, l)],
                       Dplus(l, w, l)))),
        ("cplus_interior", [(i, j) for i in range(2, l + 1) for j in range(i, l + 1)],
         lambda i, j: (Cplus(i, j, l), [Cplus(i + 1, j, l), Cplus(i, j + 1, l)],
                       Cplus(i + 1, j + 1, l))),
        ("cminus_full_first",
         *one(lambda: (Cminus(1, w, l), [Zminus(l, 1, l), Cminus(2, w, l)],
                       Zminus(l, 2, l)))),
        ("cminus_full_shift", [(i,) for i in range(1, l + 1)],
         lambda i: (Cminus(i, w, l), [Zminus(l, i, l), Cminus(i + 1, w, l)],
                    Zminus(l, i + 1, l))),
        ("cminus_projective",
         *one(lambda: (Cminus(1, 1, l), [Cminus(1, 2, l), Cplus(1, 2, l)],
                       Cplus(2, 2, l)))),
        ("cminus_interior", [(i, j) for i in range(2, l + 1) for j in range(i, l + 1)],
         lambda i, j: (Cminus(i, j, l), [Cminus(i + 1, j, l), Cminus(i, j + 1, l)],
                       Cminus(i + 1, j + 1, l))),
        ("zplus_first_row", [(j,) for j in range(1, l + 1)],
         lambda j: (Zplus(1, j, l), [Zplus(1, j + 1, l), Mstar(j, w, l)],
                    Mstar(j + 1, w, l))),
        ("zplus_interior", [(i, j) for i in range(2, l + 1) for j in range(1, l + 1)],
         lambda i, j: (Zplus(i, j, l), [Zplus(i, j + 1, l), Zplus(i - 1, j, l)],
                       Zplus(i - 1, j + 1, l))),
        ("zminus_projective", [(i,) for i in range(2, l + 1)],
         lambda i: (Zminus(i, 1, l), [Zminus(i - 1, 1, l), Zminus(i, 2, l)],
                    Zminus(i - 1, 2, l))),
        ("zminus_interior", [(i, j) for i in range(2, l + 1) for j in range(1, l + 1)],
         lambda i, j: (Zminus(i, j, l), [Zminus(i - 1, j, l), Zminus(i, j + 1, l)],
                       Zminus(i - 1, j + 1, l))),
    ]
    return rules


def _ar_build(l: int) -> tuple[list[ARSequence], list[SkipRecord]]:
    if l < 1:
        raise DomainError("AR sequences need rank l >= 1")
    sequences: list[ARSequence] = []
    skips: list[SkipRecord] = []
    seen: set[tuple] = set()
    for name, instances, builder in _ar_rules(l):
        for idx in instances:
            if name == "mstar_to_projective" and l >= 3:
                # the printed middle is short of the dimension count for
                # every l >= 3; emitting it would break exactness, so it is
                # recorded instead of guessed at
                skips.append(SkipRecord(name, idx,
                                        "dimension additivity fails for l >= 3"))
                continue
            try:
                left, middles, right = builder(*idx)
            except DomainError as exc:
                skips.append(SkipRecord(name, idx, f"invalid member: {exc}"))
                continue
            middles = tuple(sorted(middles, key=Summand.key))
            key = (left, middles, right)
            if key in seen:
                continue
            seen.add(key)
            sequences.append(ARSequence(left, middles, right, name))
    return sequences, skips


def ar_sequences(l: int) -> list[ARSequence]:
    """All instantiated AR sequences of A(l), deduplicated, in table order."""
    return _ar_build(l)[0]


def ar_skipped(l: int) -> list[SkipRecord]:
    """Boundary instances that were recorded instead of instantiated."""
    return _ar_build(l)[1]


# -- emitters -----------------------------------------------------------------


def summand_to_obj(s: Summand) -> dict:
    return {"family": s.family, "i": s.i, "j": s.j}


def multiset_to_obj(ms: Multiset, rank_: int | None = None) -> dict:
    if rank_ is None:
        rank_ = ms[0][0].parts[0].l if ms else 0
    return {"rank": rank_,
            "pieces": [{"parts": [summand_to_obj(p) for p in piece.parts],
                        "mult": mult} for piece, mult in ms]}


def multiset_to_json(ms: Multiset, rank_: int | None = None) -> str:
    return json.dumps(multiset_to_obj(ms, rank_), sort_keys=True,
                      separators=(",", ":"))


def multiset_text(ms: Multiset) -> str:
    if not ms:
        return "(empty)"
    return " + ".join(f"{mult}*[{piece.text()}]" if mult != 1 else f"[{piece.text()}]"
                      for piece, mult in ms)
