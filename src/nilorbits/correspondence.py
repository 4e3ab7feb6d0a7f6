"""The two-way bridge between link patterns and 2-nilpotent matrices.

Forward: each arc of a Borel-level pattern contributes a fixed pair of
matrix units (one unit for loops); the sum is the orbit representative.
Backward: the table of ranks of lower-left submatrices is a complete
invariant of the Borel orbit, and its unit positions (the delta positions)
are those of the representative, so they decode back to arcs by inverting
the forward table.  Parabolic-level patterns are materialized through a
canonical Borel refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from typing import Iterable

from .linalg import (DomainError, GroupKind, Matrix, SpaceSpec, _cleared,
                     require_two_nilpotent, star)
# Not called here: perfbench/test_perfbench.py reads correspondence.lie_member
# to check that its tracer restores rebound names (ROADMAP item 6).
from .linalg import lie_member  # noqa: F401
from .patterns import (Arc, LinkPattern, LOOP_LOWER, LOOP_UNORIENTED, LOOP_UPPER,
                       _arc_cost, _arc_types, _free_capacity, glue, validate)


class MalformedInputError(DomainError):
    """Input data is structurally inconsistent (not just outside a domain);
    a DomainError, so one handler refuses every bad input."""


def _arc_units(arc: Arc, n: int, eps: int) -> list[tuple[int, int, int]]:
    """Matrix units (row, col, coefficient) contributed by one arc.

    eps is +1 symplectic, -1 orthogonal (the sign difference in the dotted
    rows of the two representative tables).
    """
    if arc.loop_variant == LOOP_UPPER:
        return [(arc.source, star(arc.source, n), 1)]
    if arc.loop_variant == LOOP_LOWER:
        return [(star(arc.source, n), arc.source, 1)]
    if arc.loop_variant == LOOP_UNORIENTED:
        raise DomainError("unoriented loops have no Borel-level matrix form")
    i, j = min(arc.source, arc.target), max(arc.source, arc.target)
    rightward = arc.source < arc.target
    if not arc.dotted:
        if rightward:
            return [(j, i, 1), (star(i, n), star(j, n), -1)]
        return [(i, j, 1), (star(j, n), star(i, n), -1)]
    if rightward:
        return [(star(j, n), i, 1), (star(i, n), j, eps)]
    return [(i, star(j, n), 1), (j, star(i, n), eps)]


def pattern_to_matrix(p: LinkPattern, g: GroupKind) -> Matrix:
    """Representative matrix of a Borel-level pattern's orbit (block
    patterns go through `parabolic_representative`)."""
    _free_capacity(p, SpaceSpec.borel(g))
    n = g.n
    eps = 1 if g.is_symplectic else -1
    rows = [[0] * n for _ in range(n)]
    for arc in p.arcs:
        for (r, c, coef) in _arc_units(arc, n, eps):
            rows[r - 1][c - 1] += coef
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
        if not (1 <= i <= self.n + 1 and 0 <= j <= self.n):
            raise DomainError(f"rank table index ({i},{j}) out of range")
        return self.table[i - 1][j]


def _pivot_positions(x: Matrix) -> list[tuple[int, int]]:
    # Reduce with the operations that preserve every lower-left rank: adding
    # a lower row to an upper one, scaling a row and adding a left column to
    # a right one.  Columns are processed left to right, the pivot is the
    # bottom-most nonzero; afterwards each nonzero column holds a single
    # unit.  This is not linalg's elimination kernel: that one swaps rows
    # and eliminates downward, which would destroy the lower-left ranks read
    # off here.  It runs on the cleared integer rows of x: an upper row i
    # becomes lead a_i - a_i[c] a_r, a nonzero multiple of itself plus a
    # multiple of a lower row, and is divided by its content to keep the
    # entries small.
    n = x.rows
    a = _cleared(x)[0]
    pivots: list[tuple[int, int]] = []
    for c in range(n):
        r = next((i for i in range(n - 1, -1, -1) if a[i][c]), None)
        if r is None:
            continue
        below = a[r]
        lead = below[c]
        for i in range(r):
            f = a[i][c]
            if f:
                row = [lead * v - f * w for v, w in zip(a[i], below)]
                content = gcd(*row)
                a[i] = [v // content for v in row] if content > 1 else row
        # Column c is now a multiple of e_r, so clearing row r right of it
        # with column operations changes no other entry.
        below[c + 1:] = [0] * (n - c - 1)
        pivots.append((r + 1, c + 1))
    return pivots


def rank_signature(x: Matrix) -> RankSignature:
    """Exact lower-left rank table, invariant under upper-triangular
    conjugation (and independent left/right upper-triangular scaling).  The
    pivots of the reduction are its delta positions."""
    if not x.is_square:
        raise DomainError("rank signature needs a square matrix")
    return RankSignature(x.rows, tuple(sorted(_pivot_positions(x))))


@lru_cache(maxsize=None)
def _arcs_by_first_unit(g: GroupKind) -> dict[tuple[int, int], tuple[Arc, frozenset]]:
    """The representative table inverted: every arc that fits a Borel-level
    pattern of g (capacity 1 at each endpoint), keyed by the row-major first
    position of its `_arc_units`, with the set of all its unit positions."""
    eps = 1 if g.is_symplectic else -1
    table = {}
    for arc in _arc_types(g.l):
        if all(c == 1 for _, c in _arc_cost(arc, g.family)):
            units = sorted((r, c) for r, c, _ in _arc_units(arc, g.n, eps))
            table[units[0]] = (arc, frozenset(units))
    return table


def _decode(positions: Iterable[tuple[int, int]], g: GroupKind) -> LinkPattern:
    """Borel-level pattern whose representative has exactly these unit
    positions: walking them in row-major order, each remaining position
    must start an arc whose units are all still present."""
    table = _arcs_by_first_unit(g)
    left = set(positions)
    arcs = []
    for pos in sorted(left):
        if pos not in left:
            continue
        entry = table.get(pos)
        if entry is None or not entry[1] <= left:
            raise MalformedInputError(f"delta position ({pos[0]},{pos[1]}) "
                                      f"starts no arc of {g.name}")
        arcs.append(entry[0])
        left -= entry[1]
    pattern = LinkPattern.borel(g.family, g.l, arcs)
    if not validate(pattern):
        raise MalformedInputError("decoded arcs violate the pattern capacity rule")
    return pattern


def identify(x: Matrix, g: GroupKind) -> LinkPattern:
    """Borel-level pattern of the orbit of x: its delta positions are the
    unit positions of the orbit's representative, decoded by `_decode`."""
    require_two_nilpotent(x, g)
    return _decode(rank_signature(x).deltas, g)


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
