"""The symmetric-quiver layer: indecomposables of A(l), dimension vectors,
duality, the pattern <-> summand dictionary, flag representations, and the
Auslander-Reiten sequences, derived from the strings of A(l).

A(l) is the path algebra of the line quiver 1 -> ... -> l -> omega -> l* ->
... -> 1* with a loop alpha at omega, modulo alpha^2 = a_l* a_l = 0, where
omega = l + 1.  Summands are symbolic (family plus indices), and each is
laid out as one or two strings of boxes; dimension vectors count the boxes,
and with the correspondence table they carry everything the rest of the
package needs.  Explicit matrix realizations appear only where endomorphism
dimensions are computed (flag representations).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import (DomainError, GroupKind, Matrix, SpaceSpec, _coordinates,
                     _dumps, _eliminate, _frac, _intertwiner_rows, _ints,
                     _is_int, form_matrix, rank, require_two_nilpotent)
from .patterns import (LOOP_LOWER, LOOP_UNORIENTED, LOOP_UPPER, LinkPattern,
                       _free_capacity)

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


def total_dimension_vector(ms: Multiset) -> DimensionVector:
    if not ms:
        return ()
    vecs = [piece.dimension_vector() for piece, _ in ms]
    return tuple(sum(v[idx] * mult for v, (_, mult) in zip(vecs, ms))
                 for idx in range(len(vecs[0])))


# A piece is one summand alone, the orthogonal (z, z) loop, or a dual pair.
_SINGLE, _DOUBLED, _PAIR = range(3)
# Room for many levels at once: the sp_12 Borel level has 78 pieces, and
# every flag of sp_12, o_12 and o_13 together has 261.
_PIECE_CACHE_SIZE = 1024


@lru_cache(maxsize=_PIECE_CACHE_SIZE)
def _piece(family: str, i: int, j: int, k: int,
           shape: int) -> tuple[tuple, SymmetricPiece]:
    """The piece of a summand in one shape, with its sort key, built once:
    pieces are frozen, so every multiset may share them."""
    s = Summand(family, i, j, k)
    piece = SymmetricPiece((s,) if shape == _SINGLE else
                           (s, s) if shape == _DOUBLED else (s, dual(s)))
    return piece.key(), piece


def pattern_to_summands(p: LinkPattern, spec: SpaceSpec) -> Multiset:
    """Krull-Remak-Schmidt multiset of the orbit indexed by a block pattern.

    Arcs translate one-to-one to symmetric pieces; leftover capacity at
    block s gives free copies of M_{s,omega} (+) M*_{s,omega}; the middle
    space beyond the flag is padded with M_{omega,omega} pieces (paired, and
    one fixed single copy when n is odd).  The total dimension vector is
    always the palindrome of the spec.  Each piece is built once per level
    and shared by every multiset that holds it (pieces are immutable); the
    list is new on every call.
    """
    free = _free_capacity(p, spec)
    k = spec.k
    loop = _SINGLE if spec.group.is_symplectic else _DOUBLED
    counts: dict[tuple, int] = {}
    pieces: dict[tuple, SymmetricPiece] = {}

    def add(family: str, i: int, j: int, shape: int, mult: int = 1) -> None:
        key, piece = _piece(family, i, j, k, shape)
        pieces[key] = piece
        counts[key] = counts.get(key, 0) + mult

    for arc in p.arcs:
        if arc.loop_variant == LOOP_UNORIENTED:
            add("D+", arc.source, arc.source, _PAIR)
        elif arc.loop_variant == LOOP_UPPER:
            add("Z+", arc.source, arc.source, loop)
        elif arc.loop_variant == LOOP_LOWER:
            add("Z-", arc.source, arc.source, loop)
        else:
            i, j = min(arc.source, arc.target), max(arc.source, arc.target)
            rightward = arc.source < arc.target
            add(("Z" if arc.dotted else "D") + ("-" if rightward else "+"), i, j, _PAIR)
    for s, count in enumerate(free, start=1):
        if count:
            add("M", s, k + 1, _PAIR, count)
    reach = spec.flag[-1] if spec.flag else 0
    gap = spec.group.n - 2 * reach
    if gap >= 2:
        add("M", k + 1, k + 1, _PAIR, gap // 2)
    if gap % 2 == 1:
        add("M", k + 1, k + 1, _SINGLE)
    return [(pieces[key], counts[key]) for key in sorted(counts)]


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
    dims = SpaceSpec(g, tuple(len(base) for base in subspaces)).flag
    exact = [[tuple(_frac(v) for v in vec) for vec in base] for base in subspaces]
    vectors = exact[-1]
    for prev, cur in zip(exact, exact[1:]):
        if prev != cur[:len(prev)]:
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
    # The inner arrows are coordinate inclusions by prefix nesting; the last
    # one embeds the largest basis in Q^n.
    arrows = _inclusions(dims[:-1], dims[-1]) + [big]
    return SymmetricRep(g, dims, tuple(arrows), loop if loop is not None
                        else Matrix.zero(n))


def symmetric_endo_dim(rep: SymmetricRep | SpaceSpec) -> int:
    """Dimension of the symmetric endomorphism algebra of a flag
    representation: blocks A_1, ..., A_k, A_omega intertwining every arrow
    and the loop, with A_omega in the Lie algebra of the form.

    A_1, ..., A_k are dense and A_omega is in mate-pair coordinates, so the
    form holds by construction.  Accepts a SymmetricRep or a SpaceSpec
    (standard flag realization).
    """
    if isinstance(rep, SpaceSpec):
        rep = realize_flag(rep)
    elif not isinstance(rep, SymmetricRep):
        raise DomainError("expected a SymmetricRep or a SpaceSpec")

    # unknown blocks A_1..A_k, each dense and row-major, then A_omega
    blocks, total = [], 0
    for d in rep.dims:
        blocks.append({(r, c): (total + r * d + c, 1)
                       for r in range(d) for c in range(d)})
        total += d * d
    count, entry = _coordinates(rep.group, lambda r, c: True)
    blocks.append({pos: (total + i, coef) for pos, (i, coef) in entry.items()})
    total += count
    # a_s: V_s -> V_{s+1}, with V_{k+1} the middle space, then the loop
    rows = []
    for s, arrow in enumerate(rep.arrows):
        rows += _intertwiner_rows(arrow, blocks[s + 1], blocks[s])
    rows += _intertwiner_rows(rep.loop, blocks[-1], blocks[-1])
    rows.sort(key=len)   # sparsest first, as in `membership_dim`
    return total - len(_eliminate(rows, total))


# -- Auslander-Reiten sequences ------------------------------------------------
#
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
    """The string of s: its `_string_rows` joined by alpha at omega.

    alpha goes the way `pattern_to_summands` realizes it: branch j to branch
    i for D+ and C-, i to j for D- and C+, right to left for Z+ and left to
    right for Z-.
    """
    l = s.l
    (lo, hi), *rest = _string_rows(s)
    if not rest:
        return _path(range(lo, hi + 1))
    first = range(lo, l + 1) if hi == l else range(hi, l - 1, -1)
    lo, hi = rest[0]
    second = range(l, hi + 1) if lo == l else range(l, lo - 1, -1)
    alpha = 1 if s.family in ("D-", "C+", "Z-") else -1
    return _path(first) + (alpha,) + _path(second)


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


def ar_sequences(l: int) -> list[ARSequence]:
    """The AR sequence 0 -> M(_cC_c) -> M(_cC) (+) M(C_c) -> M(C) -> 0 of
    every non-projective string C, in catalog order (Butler-Ringel)."""
    if l < 1:
        raise DomainError("AR sequences need rank l >= 1")
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
