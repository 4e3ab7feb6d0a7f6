"""Shared frozen tables and independent oracles for the test suite."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from nilorbits.harness import _root_elements
from nilorbits.linalg import (DomainError, GroupKind, Matrix, SpaceSpec, _eliminate,
                              _keeps, _require_shape, form_matrix)
from nilorbits.patterns import (LOOP_NONE, LOOP_UNORIENTED, LOOP_UPPER, LOOP_LOWER, Arc,
                                _arc_cost, _arc_types, consumption)
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
    nonzero, from dense Fraction sums over the entries of a and of
    `form_matrix(g)`: the oracle for `linalg._lie_violation`, which reads
    each entry off a position and its mate, with the sign worked out from
    `_form_signs`, and compares numerators and denominators instead."""
    _require_shape(a, g)
    n, e, f = g.n, a.entries, form_matrix(g).entries
    for p in range(n):
        for q in range(n):
            if sum(e[k][p] * f[k][q] + f[p][k] * e[k][q] for k in range(n)):
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


def divides_rows(ours: list[dict[int, int]], theirs: list[dict[int, int]]) -> bool:
    """True iff the two lists of sparse integer rows are equally long and
    each row of `theirs` is an integer multiple of the row of `ours` at the
    same place: the same support, and one integer ratio on all of it."""
    if len(ours) != len(theirs):
        return False
    for row, big in zip(ours, theirs):
        if row.keys() != big.keys():
            return False
        if row:
            j = next(iter(row))
            q, r = divmod(big[j], row[j])
            if r or any(big[k] != q * v for k, v in row.items()):
                return False
    return True


def reference_eliminate(rows: list[dict[int, int]], cols: int) -> list[tuple[int, int]]:
    """One-step Bareiss with the kernel's contract, written plainly: each
    column's pivot is found by scanning the remaining rows in order, and
    every remaining row is updated (or rescaled by lead / prev) at every
    step.  The oracle for `linalg._eliminate`, which indexes the columns,
    touches only the rows that hold a step's column and divides each by its
    content: equal pivots, and each pivot row here an integer multiple of
    the kernel's (`divides_rows`)."""
    pivots: list[tuple[int, int]] = []
    tops = []
    live = list(enumerate(rows))
    prev = 1
    for c in range(cols):
        at = next((s for s, (_, row) in enumerate(live) if c in row), None)
        if at is None:
            continue
        i, top = live.pop(at)
        lead = top[c]
        rest = []
        for k, row in live:
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
                rest.append((k, row))
        live = rest
        pivots.append((i, c))
        tops.append(top)
        prev = lead
    rows[:] = tops
    return pivots


def reference_exp_nilpotent(s: Matrix) -> Matrix:
    """exp of a nilpotent matrix summed one Fraction at a time: the powers
    of s as dense products, each entry of sum_m s^m / m! a Fraction sum.
    The oracle for `harness.exp_nilpotent`, which sums integer rows."""
    if not s.is_square:
        raise DomainError("exp needs a square matrix")
    n = s.rows
    powers = []
    power = s
    for _ in range(n):
        if power.is_zero():
            break
        powers.append(power.entries)
        power = power @ s
    else:
        raise DomainError("matrix is not nilpotent")
    weights = [Fraction(1, math.factorial(m)) for m in range(1, len(powers) + 1)]
    rows = []
    for p in range(n):
        row = []
        for q in range(n):
            v = Fraction(1 if p == q else 0)
            for w, entries in zip(weights, powers):
                if entries[p][q]:
                    v += w * entries[p][q]
            row.append(v)
        rows.append(tuple(row))
    return Matrix(tuple(rows))


def reference_torus_diagonal(g: GroupKind, rng: random.Random) -> list[Fraction]:
    """The diagonal of a random torus member diag(t_1..t_l, [1], 1/t_l..1/t_1)
    with t_i in {±1, ±2, ±3}, as Fractions, from the draws
    `harness._torus_scales` makes."""
    ts = [Fraction(rng.choice([1, 2, 3]) * rng.choice([1, -1])) for _ in range(g.l)]
    return ts + ([Fraction(1)] if g.n % 2 else []) + [1 / t for t in reversed(ts)]


def reference_torus_scales(diag: list[Fraction]) -> tuple[list[int], int, list[int], int]:
    """T = diag(d) as integer multipliers (row_scale, lb, col_scale, la):
    T m scales row p of m by d_p = row_scale[p] / lb, and m T^{-1} scales
    column q by 1 / d_q = col_scale[q] / la, with lb and la the lcm of the
    denominators and of the numerators of the d_p.  The oracle for
    `harness._torus_scales`."""
    lb = math.lcm(*(d.denominator for d in diag))
    la = math.lcm(*(d.numerator for d in diag))
    return ([lb // d.denominator * d.numerator for d in diag], lb,
            [la // d.numerator * d.denominator for d in diag], la)


def reference_group_element_pair(g: GroupKind, seed: int) -> tuple[Matrix, Matrix]:
    """(u, u^-1) for `harness.random_group_element_pair` on the Borel flag
    of g, from the same seeded draws, as dense Fraction products: the torus
    T and T^-1 as diagonal matrices, s summed on a Fraction grid, and
    T @ exp(s), exp(-s) @ T^-1 with `reference_exp_nilpotent`.  The oracle
    for the integer-row pair."""
    n = g.n
    rng = random.Random(seed)
    diag = reference_torus_diagonal(g, rng)
    torus = lambda vals: Matrix.from_rows([[vals[p] if p == q else 0 for q in range(n)]
                                           for p in range(n)])
    t, t_inv = torus(diag), torus([1 / v for v in diag])
    acc = [[Fraction(0)] * n for _ in range(n)]
    for support, _ in _root_elements(SpaceSpec.borel(g)):
        coef = rng.randint(-2, 2)
        if coef:
            for p, q, v in support:
                acc[p][q] += coef * v
    s = Matrix(tuple(tuple(row) for row in acc))
    e, e_inv = reference_exp_nilpotent(s), reference_exp_nilpotent(-s)
    return t @ e, e_inv @ t_inv


def position_table(block) -> dict[tuple[int, int], tuple[int, int]]:
    """A block of (unknown, support) pairs, as `linalg._intertwiner_rows`
    takes it, as the table the references read: each 0-based position of a
    support maps to (unknown, coefficient)."""
    return {(r, c): (i, coef) for i, support in block for r, c, coef in support}


def reference_intertwiner_rows(f: Matrix, head: dict, tail: dict) -> list[dict[int, int]]:
    """The rows of A_head f - f A_tail = 0 built position by position: at
    each (p, q), a column scan of f for the head terms and a row scan for
    the tail terms.  The oracle for `linalg._intertwiner_rows`, which walks
    f's nonzero entries instead."""
    fi = f._ints[0]
    in_row = [[(r, v) for r, v in enumerate(row) if v] for row in fi]
    in_col = [[(r, v) for r, v in enumerate(col) if v] for col in zip(*fi)]
    rows = []
    for p in range(f.rows):
        for q in range(f.cols):
            row: dict[int, int] = {}
            for block, pos, v in ([(head, (p, r), v) for r, v in in_col[q]]
                                  + [(tail, (r, q), -v) for r, v in in_row[p]]):
                if pos in block:
                    i, coef = block[pos]
                    row[i] = row.get(i, 0) + coef * v
            row = {i: v for i, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


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


def reference_word_diagonal(spec: SpaceSpec, seed: int) -> list[Fraction]:
    """The torus diagonal of `harness._root_word(spec, seed)`: its first
    draws from the seeded generator."""
    return reference_torus_diagonal(spec.group, random.Random(seed))


def reference_word_act(word, diag: list[Fraction], x: Matrix) -> Matrix:
    """u x u^-1 for a `harness._root_word` with torus diagonal `diag`
    (`reference_word_diagonal`), by row and column operations over
    Fractions: each factor I + tN + t^2 N^2 / 2 on the rows, its inverse
    I - tN + t^2 N^2 / 2 on the columns, then the torus scale d_p / d_q.
    The oracle for the integer `harness._word_act`."""
    _, factors = word
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
        act([(p, q, -t * v) for p, q, v in first] + squared, False)
    return Matrix(tuple(tuple(v * d / diag[q] for q, v in enumerate(row))
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


@functools.lru_cache(maxsize=None)
def reference_mates(g) -> tuple[tuple[int, int, int, int, int], ...]:
    """(r, c, c*, r*, sign) for every 0-based position (r, c), row-major,
    with sign = -s[r] s[c] for the signs s read off the dense
    `form_matrix(g)`: the oracle for the package's closed forms in
    `_form_signs`.

    Entry (r*, c) of transpose(a) F + F a is s[c*] a[c*][r*] + s[r*] a[r][c],
    so a is in g exactly when a[c*][r*] = sign * a[r][c] everywhere."""
    n, f = g.n, form_matrix(g).entries
    s = [int(f[p][n - 1 - p]) for p in range(n)]
    return tuple((r, c, n - 1 - c, n - 1 - r, -s[r] * s[c])
                 for r in range(n) for c in range(n))


@functools.lru_cache(maxsize=None)
def reference_arc_table(g) -> dict:
    """Every arc that fits a Borel-level pattern of g, and the 1-based
    earlier position of its mate pair, mapped to (arc, position, mate,
    sign), read off `reference_mates`: the oracle for the closed forms
    `_arc_at` and `_arc_units`.

    The duality (r, c) -> (c*, r*) folds the pair onto one arc: its ends are
    min(r, r*) and min(c, c*); it is dotted iff exactly one of r, c is
    starred, and leftward (an upper loop) iff r < c.  A self-mated position
    is a loop only where its sign is +1; the diagonal and the middle index
    of o_2l+1 hold no arc."""
    table = {}
    for r, c, cs, rs, sign in reference_mates(g):
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


def reference_coordinates(spec: SpaceSpec) -> tuple[int, dict]:
    """`linalg._coordinates` read off `reference_mates`: each pair whose
    two positions keep the flag, numbered in table order and named by its
    row-major later position (1 there, the sign at the mate)."""
    count, entry = 0, {}
    for r, c, mr, mc, sign in reference_mates(spec.group):
        later = (r, c) > (mr, mc) or (r, c) == (mr, mc) and sign > 0
        if later and _keeps(spec.flag, r, c) and _keeps(spec.flag, mr, mc):
            entry[mr, mc] = (count, sign)
            entry[r, c] = (count, 1)
            count += 1
    return count, entry


def small_flag_specs() -> list[SpaceSpec]:
    """Every flag of every group sp_2 ... sp_12 and o_1 ... o_13: 379 specs."""
    groups = ([GroupKind.symplectic(n) for n in range(2, 13, 2)]
              + [GroupKind.orthogonal(n) for n in range(1, 14)])
    return [SpaceSpec(g, flag) for g in groups for k in range(g.l + 1)
            for flag in itertools.combinations(range(1, g.l + 1), k)]


def reference_arc_units(arc, g) -> dict[tuple[int, int], int]:
    """The paper's representative table: the 1-based matrix units
    {(row, col): coefficient} one arc of a Borel-level pattern contributes
    to its orbit's representative in g, stated case by case.  eps is +1
    symplectic, -1 orthogonal: the sign difference in the dotted rows of
    the two tables.  Unoriented loops have no Borel-level form."""
    n, eps = g.n, 1 if g.is_symplectic else -1
    star = lambda p: n + 1 - p
    if arc.loop_variant == LOOP_UPPER:
        return {(arc.source, star(arc.source)): 1}
    if arc.loop_variant == LOOP_LOWER:
        return {(star(arc.source), arc.source): 1}
    assert arc.loop_variant != LOOP_UNORIENTED
    i, j = min(arc.source, arc.target), max(arc.source, arc.target)
    rightward = arc.source < arc.target
    if not arc.dotted:
        if rightward:
            return {(j, i): 1, (star(i), star(j)): -1}
        return {(i, j): 1, (star(j), star(i)): -1}
    if rightward:
        return {(star(j), i): 1, (star(i), j): eps}
    return {(i, star(j)): 1, (j, star(i)): eps}


def self_dual_link_patterns(n: int, loops: bool):
    """Every oriented link pattern of gl_n fixed by the duality
    (r, c) -> (c*, r*), as a frozenset of 1-based positions (r, c) with
    r != c in which each index occurs at most once; an anti-diagonal
    position (its own dual) only when `loops`.  Found from the matrix side
    alone: the smallest free index is either unused, and then so is its
    mirror, or in one position whose dual orbit is taken whole."""
    star = lambda p: n + 1 - p

    def grow(free, chosen):
        if not free:
            yield chosen
            return
        i = min(free)
        yield from grow(free - {i, star(i)}, chosen)
        for j in sorted(free - {i}):
            for r, c in ((i, j), (j, i)):
                orbit = {(r, c), (star(c), star(r))}
                used = {r, c, star(r), star(c)}
                if len(used) == 2 * len(orbit) and (loops or len(orbit) == 2):
                    yield from grow(free - used, chosen | orbit)

    yield from grow(frozenset(range(1, n + 1)), frozenset())


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


def reference_walk(kind: str, k: int, b):
    """The arc tuples of the valid patterns of a level, by a depth-first
    walk that tests every arc type in `Arc.key` order, one at a time, with
    a non-decreasing index, taking a type while every vertex it touches has
    the capacity.  The oracle for `patterns._search`, which skips the runs
    of types that cannot fit and joins each pattern from its parent's: the
    same tuples in the same order."""
    types = _arc_types(k)
    costs = []   # (u, cu, v, cv), 0-based; a loop has cv = 0
    for t in types:
        (u, cu), *rest = _arc_cost(t, kind)
        v, cv = rest[0] if rest else (u, 0)
        costs.append((u - 1, cu, v - 1, cv))
    residual = list(b)
    chosen, stack = [], []
    yield ()
    t, end = 0, len(types)
    while True:
        while t < end:
            u, cu, v, cv = costs[t]
            if residual[u] >= cu and residual[v] >= cv:
                break
            t += 1
        else:
            if not stack:
                return
            t = stack.pop()
            chosen.pop()
            u, cu, v, cv = costs[t]
            residual[u] += cu
            residual[v] += cv
            t += 1
            continue
        residual[u] -= cu
        residual[v] -= cv
        stack.append(t)
        chosen.append(types[t])
        yield tuple(chosen)


TRUSTED_LEVELS = ([(kind, (1,) * l) for kind in ("symplectic", "orthogonal")
                   for l in range(6)]
                  + [(kind, b) for kind in ("symplectic", "orthogonal")
                     for b in ((2, 1), (1, 2, 3), (2, 2, 3), (3, 3))])


def _block_vectors(total: int, most: int):
    """Every block vector of positive capacities at most `most` summing to
    `total`, the empty one for 0."""
    if total == 0:
        yield ()
    for first in range(1, min(total, most) + 1):
        for rest in _block_vectors(total - first, most):
            yield (first,) + rest


# The levels `_search` is checked on against `reference_walk`: every Borel
# level up to sp l=6 and o l=7, every block vector of sum at most 6 with
# capacities at most 4 in both kinds, and the trusted levels.
SEARCH_LEVELS = sorted(
    {("symplectic", (1,) * l) for l in range(7)}
    | {("orthogonal", (1,) * l) for l in range(8)}
    | {(kind, b) for kind in ("symplectic", "orthogonal")
       for total in range(7) for b in _block_vectors(total, 4)}
    | set(TRUSTED_LEVELS))


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


def residual_count(kind: str, k: int, b) -> int:
    """Valid patterns counted by multiplicity per arc type over the capacity
    each vertex has left, memoized on (type, residual capacities): it
    answers the levels whose raw space `raw_filter_count` and
    `brute_force_count` cannot take."""
    costs, caps = raw_arc_costs(kind, k, b)

    @functools.lru_cache(maxsize=None)
    def count(t: int, residual: tuple) -> int:
        if t == len(costs):
            return 1
        total = 0
        for m in range(caps[t] + 1):
            left = tuple(r - m * costs[t].get(v, 0) for v, r in enumerate(residual, start=1))
            if min(left) < 0:
                break
            total += count(t + 1, left)
        return total

    return count(0, tuple(b))


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
