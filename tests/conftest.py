"""Shared frozen tables and independent oracles for the test suite."""

import random
from fractions import Fraction

import pytest

from nilorbits.linalg import Matrix
from nilorbits.patterns import LOOP_UNORIENTED, LOOP_UPPER, LOOP_LOWER


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
