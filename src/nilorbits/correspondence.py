"""The two-way bridge between link patterns and 2-nilpotent matrices.

Forward: an arc of a Borel-level pattern is a mate pair (r, c) <-> (c*, r*)
of the form's condition (`linalg._form_signs`) folded under the duality,
and the representative is 1 at each arc's earlier position and the pair's
sign at the mate.  Both directions of the fold are closed forms:
`_arc_at` reads an arc off a position, and `_arc_units` reads the position,
its mate and the sign off an arc.  Backward: the table of ranks of
lower-left submatrices is a complete invariant of the Borel orbit, and its
unit positions (the delta positions) are those of the representative, so
each is folded back by `_arc_at`.  The delta positions are the pivots of
linalg's one elimination kernel, run on the rows bottom-up.
Parabolic-level patterns are materialized through a canonical Borel
refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .linalg import (DomainError, GroupKind, Matrix, SpaceSpec, _eliminate, _form_signs,
                     _require_two_nilpotent_ints, _within, require_two_nilpotent)
# Not called here: perfbench/test_perfbench.py reads correspondence.lie_member
# to check that its tracer restores rebound names (ROADMAP item 1).
from .linalg import lie_member  # noqa: F401
from .patterns import (Arc, LinkPattern, LOOP_LOWER, LOOP_NONE, LOOP_UNORIENTED,
                       LOOP_UPPER, _free_capacity, glue, validate)


class MalformedInputError(DomainError):
    """Input data is structurally inconsistent (not just outside a domain);
    a DomainError, so one handler refuses every bad input."""


# The n x n builds (a representative, and for `identify` the rows of the
# input and the orbit-dimension solve on about n^2 / 2 coordinates) grow as
# n^2.  At n = 1000, CLI `repr` of the empty sp pattern peaks at 47 MB and
# CLI `identify` of the zero sp matrix at 215 MB (2-core VM, Python 3.11,
# interpreter included); a larger group is refused before either is built.
_MAX_N = 1000


def _require_size(g: GroupKind):
    if g.n > _MAX_N:
        raise DomainError(f"{g.name}: representatives are built for n <= {_MAX_N} only")


# Decoded patterns share their arc objects, so each arc's hash, `key` and
# capacity costs are worked out once.  The memo is keyed by the arc's
# fields, not by the group, and holds every Borel arc on up to 45 vertices
# (4 C(45, 2) + 2 * 45 = 4,050).
_ARC_MEMO_SIZE = 4096


@lru_cache(maxsize=_ARC_MEMO_SIZE)
def _arc(source: int, target: int, dotted: bool, loop_variant: str) -> Arc:
    return Arc(source, target, dotted, loop_variant)


def _arc_at(r: int, c: int, g: GroupKind) -> Arc | None:
    """The forward fold: the arc of a Borel-level pattern of g whose earlier
    unit is the 1-based position (r, c), or None if no arc starts there.

    The mate of (r, c) is (c*, r*) for p* = n + 1 - p, and (r, c) is the
    earlier of the two iff r + c <= n + 1.  The duality folds the pair onto
    one arc: its ends are min(r, r*) and min(c, c*); it is dotted iff
    exactly one of r, c is starred, and leftward (an upper loop) iff r < c.
    A self-mated position is a loop only where the pair's sign
    -s[r] s[c] is +1, as in `_coordinates`; the diagonal and the middle
    index of o_2l+1 hold no arc.
    """
    n = g.n
    rs, cs = n + 1 - r, n + 1 - c
    if c > rs or r == c or r == rs or c == cs:
        return None
    if c == rs:
        s = _form_signs(g)
        if s[r - 1] * s[c - 1] > 0:
            return None
    a, b = r if r < rs else rs, c if c < cs else cs
    lo, hi = (a, b) if a < b else (b, a)
    dotted = (r > rs) != (c > cs)
    if r < c:
        return _arc(hi, lo, dotted, LOOP_UPPER if lo == hi else LOOP_NONE)
    return _arc(lo, hi, dotted, LOOP_LOWER if lo == hi else LOOP_NONE)


def _arc_units(arc: Arc, g: GroupKind) -> tuple[tuple[int, int], tuple[int, int], int]:
    """The inverse fold: the 1-based earlier unit of an arc of a Borel-level
    pattern of g, its mate and the pair's sign -s[r] s[c].

    A leftward arc (source > target, or an upper loop) takes row lo, any
    other arc row lo*; the column is hi, starred iff dotted == leftward.
    The earlier of that unit and its mate is the arc's position.
    """
    n, s = g.n, _form_signs(g)
    a, b = arc.source, arc.target
    lo, hi = (a, b) if a <= b else (b, a)
    leftward = a > b or arc.loop_variant == LOOP_UPPER
    r = lo if leftward else n + 1 - lo
    c = n + 1 - hi if arc.dotted == leftward else hi
    unit, mate = (r, c), (n + 1 - c, n + 1 - r)
    return min(unit, mate), max(unit, mate), -s[r - 1] * s[c - 1]


def pattern_to_matrix(p: LinkPattern, g: GroupKind) -> Matrix:
    """Representative matrix of a Borel-level pattern's orbit (block
    patterns go through `parabolic_representative`)."""
    _free_capacity(p, SpaceSpec.borel(g))
    _require_size(g)
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for arc in p.arcs:
        (r, c), (mr, mc), sign = _arc_units(arc, g)
        rows[mr - 1][mc - 1] = sign
        rows[r - 1][c - 1] = 1
    return Matrix._from_ints(rows, 1)


def refine(p: LinkPattern, spec: SpaceSpec) -> LinkPattern:
    """Canonical Borel-level refinement of a block pattern.

    Every arc endpoint takes the smallest unused physical index of its
    block, arcs processed in canonical order, sources before targets.  The
    loop refinements keep the strictly-upper convention: an unoriented loop
    becomes an undotted leftward arc, an upper dotted loop a dotted leftward
    arc, a lower dotted loop a dotted rightward arc (the orthogonal case;
    symplectic dotted loops stay loops on a single fresh vertex).
    """
    _free_capacity(p, spec)
    next_free = [d + 1 for d in (0,) + spec.flag[:-1]]

    def take(block: int) -> int:
        v = next_free[block - 1]
        next_free[block - 1] = v + 1
        return v

    arcs: list[Arc] = []
    for arc in p.arcs:
        if arc.loop_variant == LOOP_UNORIENTED:
            v1, v2 = take(arc.source), take(arc.source)
            arcs.append(Arc(v2, v1, dotted=False))
        elif arc.is_loop and p.kind == "symplectic":
            v = take(arc.source)
            arcs.append(Arc(v, v, dotted=True, loop_variant=arc.loop_variant))
        elif arc.is_loop:
            v1, v2 = take(arc.source), take(arc.source)
            if arc.loop_variant == LOOP_UPPER:
                arcs.append(Arc(v2, v1, dotted=True))
            else:
                arcs.append(Arc(v1, v2, dotted=True))
        else:
            s = take(arc.source)
            t = take(arc.target)
            arcs.append(Arc(s, t, dotted=arc.dotted))
    return LinkPattern.borel(p.kind, spec.group.l, arcs)


def parabolic_representative(p: LinkPattern, spec: SpaceSpec) -> Matrix:
    """Representative of the parabolic orbit indexed by a block pattern."""
    return pattern_to_matrix(refine(p, spec), spec.group)


@dataclass(frozen=True)
class RankSignature:
    """Ranks of all lower-left submatrices: r(i, j) = rank of rows i..n,
    columns 1..j, held as its delta positions, the 1-based (i, j) in
    row-major order where the second difference of the table is 1.
    Equality of signatures is equality of Borel orbits for 2-nilpotent
    members of a fixed group.
    """

    n: int
    deltas: tuple[tuple[int, int], ...]

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """r(i, j) for i = 1..n+1 and j = 0..n, so the zero boundaries are
        explicit: the number of delta positions in rows >= i, columns <= j."""
        return tuple(tuple(sum(r >= i and c <= j for r, c in self.deltas)
                           for j in range(self.n + 1)) for i in range(1, self.n + 2))

    def rank(self, i: int, j: int) -> int:
        if not (_within(i, 1, self.n + 1) and _within(j, 0, self.n)):
            raise DomainError(f"rank table index ({i!r},{j!r}) out of range")
        return self.table[i - 1][j]


def _delta_positions(rows) -> tuple[tuple[int, int], ...]:
    """The delta positions, row-major, of the square matrix with these
    integer rows (over any denominator: scaling keeps every rank).
    `_eliminate` takes the rows bottom-up, so a row is only scaled and loses
    multiples of lower rows, which keeps every lower-left rank; the pivot
    rows lead in distinct columns and the rest vanish, so the pivots are
    the delta positions."""
    n = len(rows)
    sparse = [{j: v for j, v in enumerate(row) if v} for row in reversed(rows)]
    return tuple(sorted((n - s, c + 1) for s, c in _eliminate(sparse, n)))


def rank_signature(x: Matrix) -> RankSignature:
    """Exact lower-left rank table, invariant under upper-triangular
    conjugation (and independent left/right upper-triangular scaling)."""
    if not x.is_square:
        raise DomainError("rank signature needs a square matrix")
    return RankSignature(x.rows, _delta_positions(x._ints[0]))


def _decode(positions: Iterable[tuple[int, int]], g: GroupKind) -> LinkPattern:
    """Borel-level pattern whose representative has exactly these unit
    positions: walking them in row-major order, each remaining position
    must be the earlier position of an arc (`_arc_at`) whose mate is still
    present."""
    n, left, arcs = g.n, set(positions), []
    for pos in sorted(left):
        if pos not in left:
            continue
        r, c = pos
        arc, mate = _arc_at(r, c, g), (n + 1 - c, n + 1 - r)
        if arc is None or mate not in left:
            raise MalformedInputError(f"delta position ({r},{c}) starts no arc of {g.name}")
        arcs.append(arc)
        left -= {pos, mate}
    pattern = LinkPattern.borel(g.family, g.l, arcs)
    if not validate(pattern):
        raise MalformedInputError("decoded arcs violate the pattern capacity rule")
    return pattern


def identify(x: Matrix, g: GroupKind) -> LinkPattern:
    """Borel-level pattern of the orbit of x: its delta positions are the
    unit positions of the orbit's representative, decoded by `_decode`."""
    _require_size(g)   # first: past the bound, refused before the gate reads x
    require_two_nilpotent(x, g)
    return _decode(rank_signature(x).deltas, g)


def _identify_rows(rows, den: int, g: GroupKind) -> LinkPattern:
    """`identify` of the n x n matrix rows / den given as integer rows, such
    as a root-word conjugate: the same refusals and the same pattern, and
    no Matrix or Fraction is built."""
    _require_size(g)   # first, as in `identify`
    return _decode(_delta_positions(_require_two_nilpotent_ints(rows, den, g)), g)


def identify_parabolic(x: Matrix, spec: SpaceSpec) -> LinkPattern:
    """Block pattern of the parabolic orbit: glue the Borel-level pattern."""
    return glue(identify(x, spec.group), spec)


# -- TeX emitters -------------------------------------------------------------


def tex_matrix(m: Matrix) -> str:
    body = " \\\\\n".join(" & ".join(str(v) for v in row) for row in m.entries)
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"


def _tex_arc(arc: Arc) -> str:
    if arc.loop_variant == LOOP_UPPER:
        return f"\\circlearrowleft^{{+}}_{{{arc.source}}}"
    if arc.loop_variant == LOOP_LOWER:
        return f"\\circlearrowleft^{{-}}_{{{arc.source}}}"
    if arc.loop_variant == LOOP_UNORIENTED:
        return f"\\circlearrowleft_{{{arc.source}}}"
    bow = "\\dashrightarrow" if arc.dotted else "\\rightarrow"
    return f"{arc.source} {bow} {arc.target}"


def tex_pattern(p: LinkPattern) -> str:
    if not p.arcs:
        return "\\varnothing"
    return "\\{" + ",\\; ".join(_tex_arc(a) for a in p.arcs) + "\\}"


def tex_table(rows: list[tuple[LinkPattern, Matrix]]) -> str:
    """Two-column pattern/representative table in the layout of the rank-2
    tables: one line per orbit."""
    lines = ["\\begin{tabular}{c|c}", "pattern & representative \\\\ \\hline"]
    for p, m in rows:
        lines.append(f"${tex_pattern(p)}$ & ${tex_matrix(m)}$ \\\\")
    lines.append("\\end{tabular}")
    return "\n".join(lines)
