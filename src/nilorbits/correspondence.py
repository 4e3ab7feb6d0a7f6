"""The two-way bridge between link patterns and 2-nilpotent matrices.

Forward: each arc of a Borel-level pattern contributes a fixed pair of
matrix units (one unit for loops); the sum is the orbit representative.
Backward: the table of ranks of lower-left submatrices is a complete
invariant of the Borel orbit, and its unit positions (the delta positions)
decode back to arcs.  Parabolic-level patterns are materialized through a
canonical Borel refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import (DomainError, GroupKind, Matrix, SpaceSpec, form_failure,
                     is_two_nilpotent, lie_member, square_failure, star)
from .patterns import (Arc, LinkPattern, LOOP_LOWER, LOOP_NONE, LOOP_UNORIENTED,
                       LOOP_UPPER, consumption, glue, validate)


class MalformedInputError(ValueError):
    """Input data is structurally inconsistent (not just outside a domain)."""


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
    """Representative matrix of a Borel-level pattern's orbit."""
    if not p.is_borel_level:
        raise DomainError("pattern_to_matrix expects capacities (1,...,1); "
                          "use parabolic_representative for block patterns")
    if (p.kind == "symplectic") != g.is_symplectic:
        raise DomainError("pattern kind does not match the group family")
    if p.k != g.l:
        raise DomainError(f"pattern has {p.k} vertices but {g.name} has rank {g.l}")
    if not validate(p):
        raise DomainError("pattern is not valid for its capacities")
    n = g.n
    eps = 1 if g.is_symplectic else -1
    rows = [[Fraction(0)] * n for _ in range(n)]
    for arc in p.arcs:
        for (r, c, coef) in _arc_units(arc, n, eps):
            rows[r - 1][c - 1] += coef
    return Matrix.from_rows(rows)


def refine(p: LinkPattern, spec: SpaceSpec) -> LinkPattern:
    """Canonical Borel-level refinement of a block pattern.

    Every arc endpoint takes the smallest unused physical index of its
    block, arcs processed in canonical order, sources before targets.  The
    loop refinements keep the strictly-upper convention: an unoriented loop
    becomes an undotted leftward arc, an upper dotted loop a dotted leftward
    arc, a lower dotted loop a dotted rightward arc (the orthogonal case;
    symplectic dotted loops stay loops on a single fresh vertex).
    """
    if p.b != spec.blocks:
        raise DomainError("pattern capacities do not match the flag blocks")
    if (p.kind == "symplectic") != spec.group.is_symplectic:
        raise DomainError("pattern kind does not match the group family")
    if not validate(p):
        raise DomainError("pattern is not valid for its capacities")
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
    columns 1..j.  The table is stored for i = 1..n+1 and j = 0..n, so the
    zero boundaries are explicit.  Equality of signatures is equality of
    Borel orbits for 2-nilpotent members of a fixed group.
    """

    n: int
    table: tuple[tuple[int, ...], ...]

    def rank(self, i: int, j: int) -> int:
        if not (1 <= i <= self.n + 1 and 0 <= j <= self.n):
            raise DomainError(f"rank table index ({i},{j}) out of range")
        return self.table[i - 1][j]

    def delta_positions(self) -> tuple[tuple[int, int], ...]:
        """Positions where the second difference of the table is 1."""
        out = []
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                d = (self.rank(i, j) - self.rank(i + 1, j)
                     - self.rank(i, j - 1) + self.rank(i + 1, j - 1))
                if d:
                    out.append((i, j))
        return tuple(out)


def _pivot_positions(x: Matrix) -> list[tuple[int, int]]:
    # Reduce with the operations that preserve every lower-left rank: adding
    # a lower row to an upper one and adding a left column to a right one.
    # Columns are processed left to right, the pivot is the bottom-most
    # nonzero; afterwards each nonzero column holds a single unit.  This is
    # not linalg's elimination kernel: that one swaps rows and eliminates
    # downward, which would destroy the lower-left ranks read off here.
    n = x.rows
    a = [list(row) for row in x.entries]
    pivots: list[tuple[int, int]] = []
    for c in range(n):
        r = next((i for i in range(n - 1, -1, -1) if a[i][c] != 0), None)
        if r is None:
            continue
        lead = a[r][c]
        for i in range(r):
            if a[i][c] != 0:
                f = a[i][c] / lead
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        # Column c is now lead * e_r, so clearing row r right of it with
        # column operations changes no other entry.
        a[r][c + 1:] = [0] * (n - c - 1)
        pivots.append((r + 1, c + 1))
    return pivots


def rank_signature(x: Matrix) -> RankSignature:
    """Exact lower-left rank table, invariant under upper-triangular
    conjugation (and independent left/right upper-triangular scaling)."""
    if not x.is_square:
        raise DomainError("rank signature needs a square matrix")
    n = x.rows
    pivots = _pivot_positions(x)
    table = [[0] * (n + 1) for _ in range(n + 2)]
    # r(i, j) counts pivots with row >= i and col <= j.
    for i in range(n, 0, -1):
        in_rows = [c for (r, c) in pivots if r >= i]
        for j in range(1, n + 1):
            table[i][j] = sum(1 for c in in_rows if c <= j)
    return RankSignature(n, tuple(tuple(table[i][j] for j in range(n + 1))
                                  for i in range(1, n + 2)))


def _decode_orbit(first: tuple[int, int], n: int, l: int) -> Arc:
    r, c = first
    middle = l + 1 if n % 2 == 1 else None
    if r == middle or c == middle:
        raise MalformedInputError(f"delta position ({r},{c}) touches the middle index")
    if r == c:
        raise MalformedInputError(f"delta position on the diagonal at ({r},{c})")
    if c == star(r, n):
        # mirror-fixed: (i, i*) is an upper dotted loop, (i*, i) a lower one
        if r <= l:
            return Arc(r, r, dotted=True, loop_variant=LOOP_UPPER)
        return Arc(c, c, dotted=True, loop_variant=LOOP_LOWER)
    if r <= l and c <= l:
        return Arc(c, r, dotted=False)
    if r <= l < c:
        return Arc(star(c, n), r, dotted=True)
    if c <= l < r:
        return Arc(c, star(r, n), dotted=True)
    raise MalformedInputError(f"delta position ({r},{c}) has no low partner")


def identify(x: Matrix, g: GroupKind) -> LinkPattern:
    """Borel-level pattern of the orbit of x, decoded from delta positions.

    The delta set of a group member is closed under the mirror pairing
    (r, c) -> (c*, r*); each mirror orbit decodes to one arc, read off its
    row-major first position.
    """
    if x.rows != g.n or x.cols != g.n:
        raise DomainError(f"expected a {g.n}x{g.n} matrix, got {x.rows}x{x.cols}")
    if not lie_member(x, g):
        raise DomainError(f"matrix not in {g.name}: {form_failure(x, g)}")
    if not is_two_nilpotent(x):
        raise DomainError(f"matrix is not 2-nilpotent: {square_failure(x)}")
    n, l = g.n, g.l
    positions = set(rank_signature(x).delta_positions())
    if any((star(c, n), star(r, n)) not in positions for (r, c) in positions):
        raise MalformedInputError("delta positions are not mirror-symmetric")
    arcs = []
    seen = set()
    for pos in sorted(positions):
        if pos in seen:
            continue
        r, c = pos
        mirror = (star(c, n), star(r, n))
        seen.add(pos)
        seen.add(mirror)
        if r > l and c > l:
            raise MalformedInputError(f"delta position ({r},{c}) has no low partner")
        arcs.append(_decode_orbit(pos, n, l))
    pattern = LinkPattern.borel(g.family, l, arcs)
    if not validate(pattern):
        raise MalformedInputError("decoded arcs violate the pattern capacity rule")
    return pattern


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
