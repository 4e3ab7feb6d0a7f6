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

from .linalg import (DomainError, GroupKind, Matrix, SpaceSpec, _MAX_DENOMINATOR_BITS,
                     _eliminate, _form_signs, _reduced, _require_form, _require_instance,
                     _require_square_zero, _square_violation, _within,
                     require_two_nilpotent)
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
    _require_instance(g, GroupKind, "group")
    if g.n > _MAX_N:
        raise DomainError(f"{g.name}: representatives are built for n <= {_MAX_N} only")


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
        return Arc(hi, lo, dotted, LOOP_UPPER if lo == hi else LOOP_NONE)
    return Arc(lo, hi, dotted, LOOP_LOWER if lo == hi else LOOP_NONE)


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


def _pattern_rows(p: LinkPattern, g: GroupKind) -> list[list[int]]:
    """The integer rows of the representative of a Borel-level pattern's
    orbit, as fresh lists: 1 at each arc's earlier position and the pair's
    sign at its mate (`_arc_units`)."""
    _free_capacity(p, SpaceSpec.borel(g))
    _require_size(g)
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for arc in p.arcs:
        (r, c), (mr, mc), sign = _arc_units(arc, g)
        rows[mr - 1][mc - 1] = sign
        rows[r - 1][c - 1] = 1
    return rows


def pattern_to_matrix(p: LinkPattern, g: GroupKind) -> Matrix:
    """Representative matrix of a Borel-level pattern's orbit (block
    patterns go through `parabolic_representative`)."""
    return Matrix._from_ints(_pattern_rows(p, g), 1)


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
    _require_instance(x, Matrix, "matrix")
    if not x.is_square:
        raise DomainError("rank signature needs a square matrix")
    return RankSignature(x.rows, _delta_positions(x._ints[0]))


def _decode(positions: Iterable[tuple[int, int]], g: GroupKind) -> LinkPattern:
    """Borel-level pattern whose representative has exactly these unit
    positions: walking them in row-major order, each remaining position
    must be the earlier position of an arc (`_arc_at`) whose mate is still
    present.  Any iterable of positions is read; `identify` and
    `_identify_rows` reach it through the memo `_decoded`."""
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


# A verify pass at rank 3 decodes its 98 orbits about 590 times (five
# root-word conjugates and one separation check each), so the decoded
# patterns are kept: room for all 98.  An entry holds its key, the delta
# positions, and its pattern.  The largest has the most arcs and positions
# a group within `_MAX_N` allows: 500 loops of sp_1000 take about 395 KB
# with the key and the arcs, a perfect matching of sp_1000 about 230 KB
# (tracemalloc, Python 3.11), so a full memo holds at most about 50 MB.
_DECODE_MEMO_SIZE = 128


@lru_cache(maxsize=_DECODE_MEMO_SIZE)
def _decoded(deltas: tuple[tuple[int, int], ...], g: GroupKind) -> LinkPattern:
    """`_decode` of a rank signature's delta positions, kept for the
    positions decoded last.  A pattern is immutable, so every caller may
    share it.  A refusal is raised, and `lru_cache` keeps no entry for a
    call that raises, so refused positions are decoded, and refused, anew
    each time."""
    return _decode(deltas, g)


def identify(x: Matrix, g: GroupKind) -> LinkPattern:
    """Borel-level pattern of the orbit of x: its delta positions are the
    unit positions of the orbit's representative, decoded by `_decode`
    (through its memo `_decoded`).  The gate squares x before any
    elimination and stops at the first nonzero row of x @ x, so a dense x
    with x^2 != 0 is refused at once; `_identify_rows`' order, elimination
    first, would pay for it in full.

    The pattern names the orbit of the Borel subgroup over the complex
    numbers.  Over Q, two inputs with one pattern need not be conjugate
    under the rational Borel subgroup: in sp_2, [[0, 1], [0, 0]] and
    [[0, 2], [0, 0]] share a pattern, but conjugating by diag(t, 1/t)
    puts only t^2 in that entry, and 2 is no rational square."""
    _require_size(g)   # first: past the bound, refused before the gate reads x
    require_two_nilpotent(x, g)
    return _decoded(rank_signature(x).deltas, g)


def _identify_rows(rows, den: int, g: GroupKind) -> LinkPattern:
    """`identify` of the n x n matrix rows / den given as integer rows, such
    as a root-word conjugate: the same refusals and the same pattern, and
    no Matrix or Fraction is built.

    The checks run in this order: a den past the denominator bound is
    reduced (`_reduced`, refused if it is still past the bound), the form
    is checked, the delta positions are found, x^2 = 0 is checked on the
    pivot rows, and the positions are decoded (`_decoded`).  The
    elimination behind the delta positions never swaps rows and a row only
    loses multiples of the pivot rows before it, so the pivot rows are a
    basis of the row space, and x^2 = 0 iff each of them times x is zero.
    A refusal names the first failing entry of the whole square, as
    `identify` does.

    Rows within the bound are read unreduced: dividing the rows and den by
    a common factor k changes no answer.  The form check compares entries
    two at a time, both scaled by k; each lower-left minor is scaled by a
    power of k, so the delta positions stay; and x @ x is scaled by k^2,
    so its zero entries, the first failing one too, stay.  The reduced den
    divides den, so a den within the bound is within it reduced: the
    refusals, their messages and the pattern are those of the reduced
    rows."""
    _require_size(g)   # first, as in `identify`
    if den.bit_length() > _MAX_DENOMINATOR_BITS:
        rows, _ = _reduced(rows, den)
    _require_form(rows, g, "matrix")
    deltas = _delta_positions(rows)
    if _square_violation(rows, [r - 1 for r, _ in deltas]):
        _require_square_zero(rows, "matrix")   # the whole square names the entry
    return _decoded(deltas, g)


def identify_parabolic(x: Matrix, spec: SpaceSpec) -> LinkPattern:
    """Block pattern of the parabolic orbit: glue the Borel-level pattern."""
    _require_instance(spec, SpaceSpec, "spec")
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
