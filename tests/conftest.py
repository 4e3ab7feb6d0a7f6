"""Shared frozen tables and independent oracles for the test suite."""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from nilorbits.linalg import Matrix, _eliminate, _mates, _require_shape, form_matrix
from nilorbits.patterns import LOOP_UNORIENTED, LOOP_UPPER, LOOP_LOWER, consumption
from nilorbits.quiver import Summand, SymmetricPiece


def unit(n, r, c, v=1):
    return Matrix.unit(n, r, c, v)


@pytest.fixture(scope="session")
def sp4_table():
    """Pattern text -> representative for all 13 rank-2 symplectic orbits,
    frozen from the worked 4x4 tables."""
    u = lambda r, c, v=1: unit(4, r, c, v)
    return {
        "{}": Matrix.zero(4),
        "{1->2}": u(2, 1) - u(4, 3),
        "{2->1}": u(1, 2) - u(3, 4),
        "{1..>2}": u(3, 1) + u(4, 2),
        "{2..>1}": u(1, 3) + u(2, 4),
        "{uloop(1)}": u(1, 4),
        "{lloop(1)}": u(4, 1),
        "{uloop(2)}": u(2, 3),
        "{lloop(2)}": u(3, 2),
        "{uloop(1), uloop(2)}": u(1, 4) + u(2, 3),
        "{uloop(1), lloop(2)}": u(1, 4) + u(3, 2),
        "{lloop(1), uloop(2)}": u(4, 1) + u(2, 3),
        "{lloop(1), lloop(2)}": u(4, 1) + u(3, 2),
    }


@pytest.fixture(scope="session")
def o4_table():
    """Pattern text -> representative for the 5 rank-2 orthogonal orbits."""
    u = lambda r, c, v=1: unit(4, r, c, v)
    return {
        "{}": Matrix.zero(4),
        "{1->2}": u(2, 1) - u(4, 3),
        "{2->1}": u(1, 2) - u(3, 4),
        "{1..>2}": u(3, 1) - u(4, 2),
        "{2..>1}": u(1, 3) - u(2, 4),
    }


@pytest.fixture
def clearings(monkeypatch):
    """The matrices cleared from their entries while the test runs: each
    fresh computation of `Matrix._ints` appends its matrix."""
    prop = Matrix.__dict__["_ints"]
    clear, seen = prop.func, []

    def counted(m):
        seen.append(m)
        return clear(m)

    monkeypatch.setattr(prop, "func", counted)
    return seen


def reference_lie_violation(a: Matrix, g) -> tuple[int, int] | None:
    """First 1-based (row, col), row-major, where transpose(a) F + F a is
    nonzero, found by Fraction comparisons of each entry read with its mate:
    the oracle for `linalg._lie_violation`, which compares numerators and
    denominators instead."""
    _require_shape(a, g)
    n, mates, e = g.n, _mates(g), a.entries
    for p in range(n):
        r = n - 1 - p
        for _, q, mr, mc, sign in mates[r * n + p:(r + 1) * n]:
            x, y = e[mr][mc], e[r][q]
            if (x != y) if sign > 0 else (x != -y):
                return p + 1, q + 1
    return None


def naive_rank(m: Matrix) -> int:
    """Plain fraction Gaussian elimination, independent of the Bareiss path."""
    rows = [list(r) for r in m.entries]
    cols = m.cols
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / lead
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_first_row_pivots(rows, cols: int) -> list[tuple[int, int]]:
    """(input row index, column) pivots of Fraction elimination that never
    swaps rows: column c's pivot is the first remaining row, in input
    order, holding c, and every other remaining row loses a multiple of it.
    The oracle for `linalg._eliminate`."""
    live = [(i, [Fraction(v) for v in row]) for i, row in enumerate(rows)]
    pivots = []
    for c in range(cols):
        at = next((s for s, (_, row) in enumerate(live) if row[c] != 0), None)
        if at is None:
            continue
        i, top = live.pop(at)
        live = [(k, [v - row[c] / top[c] * w for v, w in zip(row, top)])
                for k, row in live]
        pivots.append((i, c))
    return pivots


def reference_pivot_positions(x: Matrix) -> list[tuple[int, int]]:
    """Lower-left-rank-preserving pivots of a square matrix over Fractions:
    columns left to right, the bottom-most nonzero is the pivot, upper rows
    lose a multiple of it and its row is cleared right of it.  The oracle
    for the delta positions of `correspondence.rank_signature`."""
    n = x.rows
    a = [list(row) for row in x.entries]
    pivots = []
    for c in range(n):
        r = next((i for i in range(n - 1, -1, -1) if a[i][c] != 0), None)
        if r is None:
            continue
        lead = a[r][c]
        for i in range(r):
            if a[i][c] != 0:
                f = a[i][c] / lead
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        a[r][c + 1:] = [0] * (n - c - 1)
        pivots.append((r + 1, c + 1))
    return pivots


def reference_word_act(word, x: Matrix, conjugate: bool = True) -> Matrix:
    """u x u^-1 (or u x) for a `harness._root_word`, by row and column
    operations over Fractions: each factor I + tN + t^2 N^2 / 2 on the rows,
    its inverse I - tN + t^2 N^2 / 2 on the columns, then the torus scale
    d_p / d_q.  The oracle for the integer `harness._word_act`."""
    diag, factors = word
    y = [list(row) for row in x.entries]

    def act(terms, on_rows):
        # every row (column) is read before any is written
        if on_rows:
            updates = [(p, j, c * v) for p, q, c in terms
                       for j, v in enumerate(y[q]) if v]
        else:
            updates = [(i, q, c * row[p]) for p, q, c in terms
                       for i, row in enumerate(y) if row[p]]
        for i, j, v in updates:
            y[i][j] += v

    for t, first, second in factors:
        half = Fraction(t * t, 2)
        squared = [(p, q, half * v) for p, q, v in second]
        act([(p, q, t * v) for p, q, v in first] + squared, True)
        if conjugate:
            act([(p, q, -t * v) for p, q, v in first] + squared, False)
    return Matrix(tuple(tuple(v * d / diag[q] if conjugate else v * d
                              for q, v in enumerate(row))
                        for d, row in zip(diag, y)))


def flag_positions(n: int, flag) -> list[tuple[int, int]]:
    """1-based (r, c) where a matrix may be nonzero and still keep every
    span(e_1, ..., e_d) of the standard isotropic flag and of its perps
    (d and n - d for each step d)."""
    cuts = set(flag) | {n - d for d in flag}
    return [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)
            if not any(c <= d < r for d in cuts)]


def dense_commutant_dim(g, positions, x: Matrix) -> int:
    """Dimension of the matrices a of g's Lie algebra supported on
    `positions` (1-based) with [a, x] = 0, from dense rows: each unit matrix
    e of a position maps to the entries of (transpose(e) F + F e, e x - x e),
    built with `form_matrix` and Matrix products, and the dimension is the
    number of positions less `naive_rank` of those images."""
    n, f = g.n, form_matrix(g)
    images = []
    for r, c in sorted(positions):
        e = Matrix.unit(n, r, c)
        images.append([v for m in (e.transpose() @ f + f @ e, e @ x - x @ e)
                       for row in m.entries for v in row])
    return len(images) - naive_rank(Matrix.from_rows(images)) if images else 0


def rank_table_direct(x: Matrix) -> dict:
    """Rank of every lower-left submatrix (rows i..n, cols 1..j) computed
    one submatrix at a time; the oracle for rank signatures."""
    n = x.rows
    table = {}
    for i in range(1, n + 2):
        for j in range(0, n + 1):
            if i > n or j == 0:
                table[(i, j)] = 0
            else:
                table[(i, j)] = naive_rank(
                    Matrix(tuple(row[:j] for row in x.entries[i - 1:])))
    return table


def random_rational_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    den = rng.choice([1, 1, 2, 3])
    return Matrix.from_rows([[Fraction(rng.randint(-3, 3), den)
                              for _ in range(cols)] for _ in range(rows)])


def borel_valid_direct(kind: str, k: int, arcs) -> bool:
    """Borel-level validity, stated directly: every vertex meets at most one
    arc, unoriented loops never fit, and dotted loops fit only in the
    symplectic case."""
    seen = set()
    for arc in arcs:
        if arc.loop_variant == LOOP_UNORIENTED:
            return False
        if arc.loop_variant in (LOOP_UPPER, LOOP_LOWER) and kind == "orthogonal":
            return False
        ends = {arc.source} if arc.is_loop else {arc.source, arc.target}
        if ends & seen:
            return False
        seen |= ends
    return True


def raw_arc_costs(kind: str, k: int, b) -> tuple[list[dict], list[int]]:
    """Per-vertex cost of every arc type of a level and its capacity cap:
    dotted loops weigh 1 (symplectic) or 2 (orthogonal), unoriented loops
    2, and an arc between two vertices 1 at each end."""
    w = 1 if kind == "symplectic" else 2
    costs = []
    for i in range(1, k + 1):
        costs += [{i: w}, {i: w}, {i: 2}]
        for j in range(i + 1, k + 1):
            costs += [{i: 1, j: 1}] * 4   # i->j, j->i, dotted both ways
    caps = [min(b[v - 1] // c for v, c in cost.items()) for cost in costs]
    return costs, caps


def raw_filter_count(kind: str, k: int, b) -> int:
    """Valid patterns counted one raw multiset at a time: every choice of a
    multiplicity up to its cap for each arc type, kept when the use of each
    vertex fits its capacity."""
    costs, caps = raw_arc_costs(kind, k, b)
    columns = [(b[v - 1], [cost.get(v, 0) for cost in costs]) for v in range(1, k + 1)]
    count = 0
    for mults in itertools.product(*(range(cap + 1) for cap in caps)):
        for capacity, column in columns:
            if sum(map(operator.mul, mults, column)) > capacity:
                break
        else:
            count += 1
    return count


def reference_summands(p, spec):
    """The summand multiset of a valid block pattern, one fresh piece per arc
    and per copy: a pair D+(v,v) per unoriented loop, Z+(v,v) or Z-(v,v)
    per dotted loop (single for sp, doubled for o), D or Z (- rightward,
    + leftward) per arc between two vertices, one M(s,omega) pair per unit
    of capacity left at block s, and M(omega,omega) pairs with one single
    for odd n over the middle space.  Equal pieces are counted by hashing
    and the result is sorted by piece key."""
    k = spec.k
    symplectic = spec.group.is_symplectic
    pieces = []
    for arc in p.arcs:
        if arc.loop_variant == LOOP_UNORIENTED:
            pieces.append(SymmetricPiece.pair(Summand("D+", arc.source, arc.source, k)))
        elif arc.is_loop:
            z = Summand("Z+" if arc.loop_variant == LOOP_UPPER else "Z-",
                        arc.source, arc.source, k)
            pieces.append(SymmetricPiece.single(z) if symplectic
                          else SymmetricPiece((z, z)))
        else:
            i, j = sorted((arc.source, arc.target))
            family = ("Z" if arc.dotted else "D") + ("-" if arc.source < arc.target else "+")
            pieces.append(SymmetricPiece.pair(Summand(family, i, j, k)))
    for s, (cap, used) in enumerate(zip(spec.blocks, consumption(p)), start=1):
        pieces += [SymmetricPiece.pair(Summand("M", s, k + 1, k)) for _ in range(cap - used)]
    gap = spec.group.n - 2 * (spec.flag[-1] if spec.flag else 0)
    middle = Summand("M", k + 1, k + 1, k)
    pieces += [SymmetricPiece.pair(middle) for _ in range(gap // 2)]
    if gap % 2:
        pieces.append(SymmetricPiece.single(middle))
    counts = {}
    for piece in pieces:
        counts[piece] = counts.get(piece, 0) + 1
    return sorted(counts.items(), key=lambda item: item[0].key())


# -- A(l) as a string algebra: strings and an exact Hom oracle ----------------
#
# Slots 0..2l hold 1, ..., l, omega, l*, ..., 1*; line arrow s maps slot s to
# slot s+1 and the loop "alpha" acts at omega = slot l.  The zero relations
# are alpha alpha and (arrow l) (arrow l-1), which passes through omega.  A
# walk (v_0, d_1, v_1, ..., d_n, v_n) lists its slots and letter signs, d_k = 1
# when the arrow of the k-th letter maps the box at v_{k-1} to the box at v_k.


def _letters(l):
    """Every letter of A(l) as (arrow, sign, from slot, to slot)."""
    arrows = [(s, s, s + 1) for s in range(2 * l)] + [("alpha", l, l)]
    return ([(a, 1, src, dst) for a, src, dst in arrows]
            + [(a, -1, dst, src) for a, src, dst in arrows])


def _is_zero_path(first, then, l):
    """Whether the arrow `then` after the arrow `first` is a relation."""
    return (first, then) in {("alpha", "alpha"), (l - 1, l)}


def enumerate_strings(l):
    """All strings of A(l) up to inversion, by depth-first search over letters.

    A string never backtracks (a letter followed by its inverse) and contains
    no relation, read forwards along direct letters or backwards along
    inverse ones.  A(l) has no bands, so the search stops; a string longer
    than 4l+2 letters would be a band and fails the search.
    """
    letters = _letters(l)
    found = set()

    def grow(walk, last):
        inverse = tuple(-x if k % 2 else x for k, x in enumerate(reversed(walk)))
        found.add(min(walk, inverse))
        assert len(walk) <= 2 * (4 * l + 2) + 1, walk
        for letter in letters:
            arrow, sign, src, dst = letter
            if src != walk[-1]:
                continue
            if last is not None:
                if (arrow, sign) == (last[0], -last[1]):
                    continue
                if sign == last[1] == 1 and _is_zero_path(last[0], arrow, l):
                    continue
                if sign == last[1] == -1 and _is_zero_path(arrow, last[0], l):
                    continue
            grow(walk + (sign, dst), letter)

    for v in range(2 * l + 1):
        grow((v,), None)
    return found


def string_module(walk, l):
    """The string module of a walk as (dims, maps): one basis vector per box,
    and maps[arrow] the matrix from its source slot to its target slot."""
    slots = walk[::2]
    dims = [0] * (2 * l + 1)
    index = []
    for v in slots:
        index.append(dims[v])
        dims[v] += 1
    maps = {a: [[0] * dims[src] for _ in range(dims[dst])]
            for a, sign, src, dst in _letters(l) if sign == 1}
    for k, sign in enumerate(walk[1::2]):
        a, b = (k, k + 1) if sign == 1 else (k + 1, k)
        arrow = "alpha" if slots[a] == slots[b] else min(slots[a], slots[b])
        maps[arrow][index[b]][index[a]] = 1
    return tuple(dims), maps


def hom_dim(x, y):
    """dim Hom(x, y) of two representations (dims, maps) of A(l) with integer
    matrices: the solutions f_v of f_dst x_a = y_a f_src over every arrow a,
    by exact elimination."""
    (xd, xm), (yd, ym) = x, y
    offsets = [0]
    for a, b in zip(xd, yd):
        offsets.append(offsets[-1] + a * b)

    def var(v, r, c):  # entry (r, c) of f_v: X_v -> Y_v
        return offsets[v] + r * xd[v] + c

    rows = []
    for a, xa in xm.items():
        src, dst = (len(xd) // 2,) * 2 if a == "alpha" else (a, a + 1)
        ya = ym[a]
        for p in range(yd[dst]):
            for q in range(xd[src]):
                row = {}
                for r in range(xd[dst]):
                    if xa[r][q]:
                        row[var(dst, p, r)] = row.get(var(dst, p, r), 0) + xa[r][q]
                for r in range(yd[src]):
                    if ya[p][r]:
                        row[var(src, r, q)] = row.get(var(src, r, q), 0) - ya[p][r]
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    return offsets[-1] - len(_eliminate(rows, offsets[-1]))
