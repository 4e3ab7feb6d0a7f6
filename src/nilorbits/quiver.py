"""The symmetric-quiver layer: indecomposables of A(l), dimension vectors,
duality, the pattern <-> summand dictionary, flag representations, and the
Auslander-Reiten sequences, derived from the strings of A(l).

A(l) is the path algebra of the line quiver 1 -> ... -> l -> omega -> l* ->
... -> 1* with a loop alpha at omega, modulo alpha^2 = a_l* a_l = 0, where
omega = l + 1.  Summands are symbolic (family plus indices), and each is
its string (`_walk`); its dimension vector counts the string's slots, and
with the correspondence table they carry everything the rest of the
package needs.  Explicit matrix realizations appear only where endomorphism
dimensions are computed (flag representations).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import (DomainError, GroupKind, Matrix, SpaceSpec, _coordinates,
                     _dumps, _eliminate, _form_signs, _frac, _intertwiner_rows,
                     _is_int, _keeps, rank, require_two_nilpotent)
from .patterns import LOOP_UNORIENTED, LOOP_UPPER, Arc, LinkPattern, _free_capacity

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
        if not (isinstance(fam, str) and _is_int(i) and _is_int(j) and _is_int(l)):
            raise DomainError("summand fields have the wrong types: the family is a "
                              "string, i, j and l are integers")
        if fam not in _FAMILY_ORDER:
            raise DomainError(f"unknown summand family {fam!r}")
        if l < 0:
            raise DomainError("quiver rank must be nonnegative")
        omega = l + 1
        # One pass in this order: what a rule makes is canonical or the input
        # of a later rule (Z-(w,w) -> D-(w,w) -> D+(w,w), C-(w,w) -> C+(w,w)
        # -> D+(w,w)), never of an earlier one.
        if fam in ("Z+", "Z-") and j == omega:
            fam = "D" + fam[1]
        elif fam in ("Z+", "Z-") and i == omega:
            fam, i, j = "C" + fam[1], j, i
        if fam in ("D-", "C-") and i == j:
            fam = fam[0] + "+"
        if (i, j) == (omega, omega):
            fam = {"C+": "D+", "M*": "M"}.get(fam, fam)
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


DimensionVector = tuple[int, ...]


# A(l) is a string algebra without bands (its relations are monomial and alpha
# is the only cycle), so every indecomposable is a string module.  A walk is
# the tuple (v_0, d_1, v_1, ..., d_n, v_n) of its slots v_k and letter signs
# d_k: the letter between v_{k-1} and v_k is direct (+1) when its arrow maps
# the box at v_{k-1} to the box at v_k, and inverse (-1) otherwise.  A step
# between two slots is a line arrow, direct when it goes up; a step from omega
# to omega is alpha.  The empty walk is the zero module.


def _path(slots: range) -> tuple[int, ...]:
    """The walk along consecutive slots of the line."""
    out = [slots[0]]
    for u in slots[1:]:
        out += [u - out[-1], u]
    return tuple(out)


def _walk(s: Summand) -> tuple[int, ...]:
    """The string of s over the slots 0..2l: the slot of vertex t is t-1, of
    omega is l, and of t* is 2l+1-t (so omega sits where (l+1)* would).

    M and M* are paths along the line.  D, C and Z have two branches that
    meet at omega, where alpha joins them: it goes the way
    `pattern_to_summands` realizes it, branch j to branch i for D+ and C-,
    i to j for D- and C+, right to left for Z+ and left to right for Z-.
    """
    fam, i, j, l = s.family, s.i, s.j, s.l
    if fam == "M":
        return _path(range(i - 1, j))
    if fam == "M*":
        return _path(range(2 * l + 1 - j, 2 * l + 2 - i))
    first = range(2 * l + 1 - i, l - 1, -1) if fam[0] == "C" else range(i - 1, l + 1)
    second = range(l, j - 2, -1) if fam[0] == "D" else range(l, 2 * l + 2 - j)
    alpha = 1 if fam in ("D-", "C+", "Z-") else -1
    return _path(first) + (alpha,) + _path(second)


def dimension_vector(s: Summand) -> DimensionVector:
    """Dimensions over the 2l+1 slots of `_walk`: the number of times the
    string of s visits each slot, so a two-branch string counts omega twice."""
    v = [0] * (2 * s.l + 1)
    for slot in _walk(s)[::2]:
        v[slot] += 1
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


def total_dimension_vector(ms: Multiset) -> DimensionVector:
    if not ms:
        return ()
    vecs = [piece.dimension_vector() for piece, _ in ms]
    return tuple(sum(v[idx] * mult for v, (_, mult) in zip(vecs, ms))
                 for idx in range(len(vecs[0])))


def _rank(piece: SymmetricPiece) -> int:
    """An integer that orders the pieces of one A(l) as `SymmetricPiece.key`
    does: the first part's (family, i, j) in base l + 2, then single before
    double, which is the only way two pieces with one first part differ."""
    s, base = piece.parts[0], piece.parts[0].l + 2
    return 2 * ((_FAMILY_ORDER[s.family] * base + s.i) * base + s.j) + len(piece.parts) - 1


def _arc_piece(arc: Arc, k: int, symplectic: bool) -> tuple[int, SymmetricPiece]:
    """The piece an arc translates to at level k, with its `_rank`: a pair
    D+(v,v) for an unoriented loop, Z+(v,v) or Z-(v,v) for a dotted loop
    (single for sp, doubled for o), and a pair D or Z (- rightward, +
    leftward) for an arc between two vertices."""
    v = arc.source
    if arc.loop_variant == LOOP_UNORIENTED:
        piece = SymmetricPiece.pair(Summand("D+", v, v, k))
    elif arc.is_loop:
        z = Summand("Z+" if arc.loop_variant == LOOP_UPPER else "Z-", v, v, k)
        piece = SymmetricPiece((z,) if symplectic else (z, z))
    else:
        i, j = sorted((v, arc.target))
        family = ("Z" if arc.dotted else "D") + ("-" if v < arc.target else "+")
        piece = SymmetricPiece.pair(Summand(family, i, j, k))
    return _rank(piece), piece


# A level holds its k + 2 head pieces and the arcs it has seen, never the
# O(k^2) arc types of the level; sweeps over flags take one level at a time.
_LEVEL_CACHE_SIZE = 64


@lru_cache(maxsize=_LEVEL_CACHE_SIZE)
def _level(k: int, family: str, n: int, reach: int) -> tuple[tuple, tuple, dict]:
    """The pieces of the level with k blocks whose flag ends at `reach` in
    the group (family, n), built once: the free copy M_{s,omega} (+)
    M*_{s,omega} of each block s, the middle padding as (piece,
    multiplicity) pairs, and a memo that maps each arc seen so far to its
    `_arc_piece`.  All of these come before every arc piece in key order
    (family M is first, and M_{omega,omega} single before paired)."""
    omega = k + 1
    free_pieces = tuple(SymmetricPiece.pair(Summand("M", s, omega, k))
                        for s in range(1, omega))
    middle, gap = Summand("M", omega, omega, k), n - 2 * reach
    padding = []
    if gap % 2 == 1:
        padding.append((SymmetricPiece.single(middle), 1))
    if gap >= 2:
        padding.append((SymmetricPiece.pair(middle), gap // 2))
    return free_pieces, tuple(padding), {}


def pattern_to_summands(p: LinkPattern, spec: SpaceSpec) -> Multiset:
    """Krull-Remak-Schmidt multiset of the orbit indexed by a block pattern.

    Arcs translate one-to-one to symmetric pieces (`_arc_piece`); leftover
    capacity at block s gives free copies of M_{s,omega} (+) M*_{s,omega};
    the middle space beyond the flag is padded with M_{omega,omega} pieces
    (paired, and one fixed single copy when n is odd).  The total dimension
    vector is always the palindrome of the spec.  Each arc is translated
    once per level (`_level`), the first time a pattern holds it, and its
    piece is shared by every multiset that holds it (pieces are immutable);
    the list is new on every call.  A call checks p once
    (`_free_capacity`) and looks each arc up once in the level's memo,
    which reads the hash the arc keeps.
    """
    free = _free_capacity(p, spec)
    g, flag = spec.group, spec.flag
    k = len(flag)
    free_pieces, padding, memo = _level(k, g.family, g.n, flag[-1] if flag else 0)
    out = [(piece, count) for piece, count in zip(free_pieces, free) if count]
    out += padding
    found = []
    for arc in p.arcs:
        hit = memo.get(arc)
        if hit is None:
            hit = memo[arc] = _arc_piece(arc, k, g.is_symplectic)
        found.append(hit)
    # distinct arcs translate to distinct pieces and equal arcs share one
    # memo entry, so equal ranks hold one piece object: the sort never
    # compares pieces, and equal pieces end up next to each other.  No arc
    # piece is a free or padding piece (those are all family M).
    found.sort()
    last = None
    for _, piece in found:
        if piece is last:
            out[-1] = (piece, out[-1][1] + 1)
        else:
            out.append((piece, 1))
            last = piece
    return out


# -- explicit flag realizations and endomorphism dimensions -------------------


@dataclass(frozen=True)
class SymmetricRep:
    """An explicit symmetric representation of A(k) built from a totally
    isotropic flag of `spec`'s shape.

    V_s is spanned by the first d_s columns of `basis` (n x d_k), so the
    inner arrows are the inclusions V_s -> V_{s+1} and the last one embeds
    V_k in the middle space Q^n; `loop` is the alpha action on Q^n.  The
    starred spaces are not stored, because each is the dual of an unstarred
    one.  Every instance is checked on construction: an independent basis,
    totally isotropic for the form's signs (`_form_signs`), and a
    2-nilpotent loop in the algebra.
    """

    spec: SpaceSpec
    basis: Matrix
    loop: Matrix

    def __post_init__(self):
        if not (isinstance(self.spec, SpaceSpec) and isinstance(self.basis, Matrix)
                and isinstance(self.loop, Matrix)):
            raise DomainError("a SymmetricRep holds a SpaceSpec, a basis Matrix and "
                              "a loop Matrix")
        g, basis = self.spec.group, self.basis
        n, d = g.n, self.spec.flag[-1] if self.spec.flag else 0
        if (basis.rows, basis.cols) != (n, d):
            raise DomainError(f"basis has shape {basis.rows}x{basis.cols}, "
                              f"expected {n}x{d}")
        if rank(basis) != d:
            raise DomainError("basis vectors are linearly dependent")
        # (transpose(B) F B)[i][j] is +- sum_p s[p] B[p*][i] B[p][j], and the
        # product is symmetric or skew: scan the cleared rows for i <= j.
        rows, s = basis._ints[0], _form_signs(g)
        if any(sum(s[p] * rows[n - 1 - p][i] * rows[p][j] for p in range(n))
               for j in range(d) for i in range(j + 1)):
            raise DomainError("flag is not totally isotropic for the form")
        if (self.loop.rows, self.loop.cols) != (n, n):
            raise DomainError("loop must act on the middle space")
        require_two_nilpotent(self.loop, g, "loop")


def realize_flag(spec: SpaceSpec, loop: Matrix | None = None) -> SymmetricRep:
    """Standard-basis realization of the standard isotropic flag: the
    basis is [I; 0], the first d_k unit vectors, and the loop, when none is
    given, is zero.  Both are built on integer rows (`Matrix._from_ints`),
    so the rank and 2-nilpotency checks of `SymmetricRep` read rows that
    are already cleared."""
    n, d = spec.group.n, spec.flag[-1] if spec.flag else 0
    basis = Matrix._from_ints([[int(p == q) for q in range(d)] for p in range(n)], 1, d)
    if loop is None:
        loop = Matrix._from_ints([[0] * n] * n, 1, n)
    return SymmetricRep(spec, basis, loop)


def realize_isotropic_flag(g: GroupKind, subspaces: list[list[list]],
                           loop: Matrix | None = None) -> SymmetricRep:
    """Realize a (possibly non-standard) totally isotropic flag.

    `subspaces` lists bases, each extending the previous one (prefix
    nesting), each vector a length-n sequence of exact rationals (ints or
    Fractions; floats are refused).
    """
    if not subspaces:
        raise DomainError("need at least one subspace")
    spec = SpaceSpec(g, tuple(len(base) for base in subspaces))
    exact = [[tuple(_frac(v) for v in vec) for vec in base] for base in subspaces]
    for prev, cur in zip(exact, exact[1:]):
        if prev != cur[:len(prev)]:
            raise DomainError("subspace bases must extend each other (prefix nesting)")
    vectors = exact[-1]
    if any(len(vec) != g.n for vec in vectors):
        raise DomainError(f"basis vectors must have length {g.n}")
    return SymmetricRep(spec, Matrix(tuple(zip(*vectors))),
                        loop if loop is not None else Matrix.zero(g.n))


def symmetric_endo_dim(rep: SymmetricRep | SpaceSpec) -> int:
    """Dimension of the symmetric endomorphism algebra of a flag
    representation: blocks A_1, ..., A_k, A_omega intertwining every arrow
    and the loop, with A_omega in the Lie algebra of the form.

    The inner arrows are inclusions, so A_s is the restriction of A_k to
    V_s, and A_k maps each V_s into itself: the unknowns are A_k on the
    positions that keep the flag (`_keeps`) and A_omega in mate-pair
    coordinates, where the form holds by construction.  Accepts a
    SymmetricRep or a SpaceSpec (standard flag realization).
    """
    if isinstance(rep, SpaceSpec):
        rep = realize_flag(rep)
    elif not isinstance(rep, SymmetricRep):
        raise DomainError("expected a SymmetricRep or a SpaceSpec")
    flag, d = rep.spec.flag, rep.basis.cols
    kept = [(r, c) for r in range(d) for c in range(d) if _keeps(flag, r, c)]
    top = {pos: (i, 1) for i, pos in enumerate(kept)}
    count, entry = _coordinates(SpaceSpec(rep.spec.group, ()))
    middle = {pos: (len(kept) + i, coef) for pos, (i, coef) in entry.items()}
    rows = (_intertwiner_rows(rep.basis, middle, top)
            + _intertwiner_rows(rep.loop, middle, middle))
    rows.sort(key=len)   # sparsest first, as in `orbit_dimension`
    total = len(kept) + count
    return total - len(_eliminate(rows, total))


# -- Auslander-Reiten sequences ------------------------------------------------


def _inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    out = list(w[::-1])
    out[1::2] = [-d for d in out[1::2]]
    return tuple(out)


def _canonical(w: tuple[int, ...]) -> tuple[int, ...]:
    return min(w, _inverse(w))


def _extensions(w: tuple[int, ...], l: int, sign: int) -> list[tuple[int, ...]]:
    """The strings that extend w on the right by one letter of the given
    sign, line arrow first.  A string never backtracks, never passes
    straight through omega (a_l* a_l = 0) and uses alpha at most once, so
    it visits omega twice only by way of alpha."""
    v = w[-1]
    targets = [u for u in (v + sign, l if v == l else -1) if 0 <= u <= 2 * l]
    if len(w) > 1:
        prev = w[-3]
        targets = [u for u in targets
                   if not (u == prev != v or (u == v and w[::2].count(l) > 1)
                           or (v == l and abs(u - prev) == 2))]
    return [w + (sign, u) for u in targets]


def _grow(w: tuple[int, ...], l: int, sign: int) -> tuple[int, ...]:
    """w followed by the maximal path of letters of one sign."""
    while ext := _extensions(w, l, sign):
        w = ext[0]
    return w


def _cohook(w: tuple[int, ...], l: int, skip: int = 0) -> tuple[int, ...]:
    """C_c: a cohook added on the right of w (one direct letter, then the
    maximal inverse path) or, if no direct letter fits, the last hook deleted
    (the last inverse letter and every letter after it).  `skip` passes over
    the direct letter that the other end of a one-vertex walk has taken."""
    ext = _extensions(w, l, 1)[skip:]
    if ext:
        return _grow(ext[0], l, -1)
    cut = [k for k in range(1, len(w), 2) if w[k] < 0]
    return w[:cut[-1]] if cut else ()


@dataclass(frozen=True)
class ARSequence:
    left: Summand
    middles: tuple[Summand, ...]
    right: Summand

    def text(self) -> str:
        mid = " (+) ".join(m.text() for m in self.middles)
        return f"0 -> {self.left.text()} -> {mid} -> {self.right.text()} -> 0"


# `catalog(l)` holds 5l^2 + 7l + 2 strings of up to 4l + 3 letters, so
# `ar_sequences` grows as l^3: rank 100 takes 8 s and 103 MB on a 2-core VM
# (Python 3.11), and rank 200 took 44 s and 924 MB.
_MAX_AR_RANK = 100


def ar_sequences(l: int) -> list[ARSequence]:
    """The AR sequence 0 -> M(_cC_c) -> M(_cC) (+) M(C_c) -> M(C) -> 0 of
    every non-projective string C, in catalog order (Butler-Ringel)."""
    if not 1 <= l <= _MAX_AR_RANK:
        raise DomainError(f"AR sequences need rank 1 <= l <= {_MAX_AR_RANK}, got {l}")
    names = {_canonical(_walk(s)): s for s in catalog(l)}
    # P(v) = p^-1 q for the maximal direct paths p and q leaving v
    projective = {_canonical(_grow(_inverse(_grow((v,), l, 1)), l, 1))
                  for v in range(2 * l + 1)}
    out = []
    for c, s in names.items():
        if c in projective:
            continue
        right = _cohook(c, l)
        left = _inverse(_cohook(_inverse(c), l, skip=len(c) == 1))
        # _c(C_c) = (_cC)_c; when C_c is zero only the second form is defined
        both = _inverse(_cohook(_inverse(right), l)) if right else _cohook(left, l)
        middles = sorted((names[_canonical(w)] for w in (left, right) if w),
                         key=Summand.key)
        out.append(ARSequence(names[_canonical(both)], tuple(middles), s))
    return out


# -- emitters -----------------------------------------------------------------


def summand_to_obj(s: Summand) -> dict:
    return {"family": s.family, "i": s.i, "j": s.j}


def multiset_to_obj(ms: Multiset) -> dict:
    """The multiset with the rank l of A(l), which its pieces carry: a
    `pattern_to_summands` multiset is never empty."""
    return {"rank": ms[0][0].parts[0].l,
            "pieces": [{"parts": [summand_to_obj(p) for p in piece.parts],
                        "mult": mult} for piece, mult in ms]}


def multiset_to_json(ms: Multiset) -> str:
    return _dumps(multiset_to_obj(ms))


def multiset_text(ms: Multiset) -> str:
    if not ms:
        return "(empty)"
    return " + ".join(f"{mult}*[{piece.text()}]" if mult != 1 else f"[{piece.text()}]"
                      for piece, mult in ms)
