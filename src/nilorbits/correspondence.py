"""The two-way bridge between link patterns and 2-nilpotent matrices.

Forward: an arc of a Borel-level pattern is a mate pair of `linalg._mates`
folded under the duality (r, c) -> (c*, r*) (`_arc_table`), and the
representative is 1 at each arc's earlier position and its `_mates` sign at
the mate.  Backward: the table of ranks of lower-left submatrices is a
complete invariant of the Borel orbit, and its unit positions (the delta
positions) are those of the representative, so each is looked up in the
same table.  The delta positions are the pivots of linalg's one
elimination kernel, run on the rows bottom-up.  Parabolic-level patterns
are materialized through a canonical Borel refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .linalg import (DomainError, GroupKind, Matrix, SpaceSpec, _GROUP_CACHE_SIZE,
                     _eliminate, _mates, _require_two_nilpotent_ints, _within,
                     require_two_nilpotent)
# Not called here: perfbench/test_perfbench.py reads correspondence.lie_member
# to check that its tracer restores rebound names (ROADMAP item 1).
from .linalg import lie_member  # noqa: F401
from .patterns import (Arc, LinkPattern, LOOP_LOWER, LOOP_NONE, LOOP_UNORIENTED,
                       LOOP_UPPER, _free_capacity, glue, validate)


class MalformedInputError(DomainError):
    """Input data is structurally inconsistent (not just outside a domain);
    a DomainError, so one handler refuses every bad input."""


# `_arc_table` reads all n^2 entries of `_mates` and keys about n^2 / 2 arcs:
# CLI `repr` of the empty pattern at n = 1000 peaks near 500 MB and takes 6 s
# on a 2-core VM (Python 3.11), and n = 1400 near 1 GB.  A larger group is
# refused before either table is built.
_MAX_TABLE_N = 1000


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def _arc_table(g: GroupKind) -> dict:
    """Maps every arc that fits a Borel-level pattern of g, and the 1-based
    earlier position of its mate pair, to (arc, position, mate, sign).

    The duality (r, c) -> (c*, r*) folds the pair onto one arc: its ends are
    min(r, r*) and min(c, c*); it is dotted iff exactly one of r, c is
    starred, and leftward (an upper loop) iff r < c.  A self-mated position
    is a loop only where its sign is +1, as in `_coordinates`; the diagonal
    and the middle index of o_2l+1 hold no arc.
    """
    if g.n > _MAX_TABLE_N:
        raise DomainError(f"{g.name}: the arc <-> matrix table is built for "
                          f"n <= {_MAX_TABLE_N} only")
    table = {}
    for r, c, cs, rs, sign in _mates(g):   # 0-based (r, c) and its mate (c*, r*)
        earlier = (r, c) < (cs, rs) or (r, c) == (cs, rs) and sign > 0
        if not earlier or r == c or r == rs or c == cs:
            continue
        lo, hi = sorted((min(r, rs) + 1, min(c, cs) + 1))
        dotted = (r > rs) != (c > cs)
        if r < c:
            arc = Arc(hi, lo, dotted, LOOP_UPPER if lo == hi else LOOP_NONE)
        else:
            arc = Arc(lo, hi, dotted, LOOP_LOWER if lo == hi else LOOP_NONE)
        table[arc] = table[r + 1, c + 1] = (arc, (r + 1, c + 1), (cs + 1, rs + 1), sign)
    return table


def pattern_to_matrix(p: LinkPattern, g: GroupKind) -> Matrix:
    """Representative matrix of a Borel-level pattern's orbit (block
    patterns go through `parabolic_representative`)."""
    _free_capacity(p, SpaceSpec.borel(g))
    table, n = _arc_table(g), g.n
    rows = [[0] * n for _ in range(n)]
    for arc in p.arcs:
        _, (r, c), (mr, mc), sign = table[arc]
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
    must be the earlier position of an arc (`_arc_table`) whose mate is
    still present."""
    table = _arc_table(g)
    left = set(positions)
    arcs = []
    for pos in sorted(left):
        if pos not in left:
            continue
        entry = table.get(pos)
        if entry is None or entry[2] not in left:
            raise MalformedInputError(f"delta position ({pos[0]},{pos[1]}) "
                                      f"starts no arc of {g.name}")
        arcs.append(entry[0])
        left -= {pos, entry[2]}
    pattern = LinkPattern.borel(g.family, g.l, arcs)
    if not validate(pattern):
        raise MalformedInputError("decoded arcs violate the pattern capacity rule")
    return pattern


def identify(x: Matrix, g: GroupKind) -> LinkPattern:
    """Borel-level pattern of the orbit of x: its delta positions are the
    unit positions of the orbit's representative, decoded by `_decode`."""
    _arc_table(g)   # first: past its bound, refused before the gate builds `_mates`
    require_two_nilpotent(x, g)
    return _decode(rank_signature(x).deltas, g)


def _identify_rows(rows, den: int, g: GroupKind) -> LinkPattern:
    """`identify` of the n x n matrix rows / den given as integer rows, such
    as a root-word conjugate: the same refusals and the same pattern, and
    no Matrix or Fraction is built."""
    _arc_table(g)   # first, as in `identify`
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
