import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from nilorbits.correspondence import pattern_to_matrix
from nilorbits.harness import random_group_element_pair
from nilorbits.linalg import (DomainError, GroupKind, Matrix, SpaceSpec,
                              borel_subalgebra_dim, centralizer_dim_in,
                              form_matrix, group_member, is_two_nilpotent,
                              jay, lie_algebra_basis, lie_algebra_dim,
                              lie_member, matrix_from_json, matrix_from_obj,
                              matrix_to_json, nullspace, orbit_dimension,
                              parabolic_dim, rank, star)
from nilorbits.linalg import _eliminate
from nilorbits.patterns import enumerate_patterns

from conftest import naive_rank, random_rational_matrix


def test_matrix_rejects_floats_and_ragged():
    with pytest.raises(DomainError):
        Matrix.from_rows([[0.5]])
    with pytest.raises(DomainError):
        Matrix.from_rows([[True]])
    with pytest.raises(DomainError):
        Matrix(((Fraction(1),), (Fraction(1), Fraction(2))))


def test_unit_and_entry_are_one_based():
    m = Matrix.unit(3, 1, 3, 7)
    assert m.entry(1, 3) == 7
    assert m.entry(3, 1) == 0
    assert m.support() == [(1, 3)]
    with pytest.raises(DomainError):
        Matrix.unit(3, 0, 1)
    with pytest.raises(DomainError):
        m.entry(4, 1)


def test_arithmetic_and_submatrix():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == Matrix.from_rows([[2, 1], [4, 3]])
    assert (a + b - b) == a
    assert a.scale(Fraction(1, 2)) == Matrix.from_rows(
        [[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
    assert a.transpose() == Matrix.from_rows([[1, 3], [2, 4]])
    big = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert big.submatrix(2, 3, 1, 2) == Matrix.from_rows([[4, 5], [7, 8]])


def test_forms_symmetry():
    sp = form_matrix(GroupKind.symplectic(6))
    assert sp.transpose() == -sp
    o = form_matrix(GroupKind.orthogonal(5))
    assert o.transpose() == o
    assert o == jay(5)


def test_star_is_an_involution():
    for n in (3, 4, 7):
        for p in range(1, n + 1):
            assert star(star(p, n), n) == p
    assert star(1, 4) == 4 and star(2, 4) == 3


def test_group_kind_validation():
    with pytest.raises(DomainError):
        GroupKind.symplectic(5)
    with pytest.raises(DomainError):
        GroupKind("unitary", 4)
    assert GroupKind.symplectic(4).name == "sp_4"
    assert GroupKind.orthogonal(5).name == "o_5"
    assert GroupKind.orthogonal(5).l == 2
    assert GroupKind.orthogonal(5).is_odd_orthogonal


def test_lie_member_examples():
    sp4, o4 = GroupKind.symplectic(4), GroupKind.orthogonal(4)
    assert not lie_member(Matrix.identity(4), sp4)
    assert lie_member(Matrix.zero(4), sp4)
    assert lie_member(Matrix.unit(4, 1, 4), sp4)
    assert not lie_member(Matrix.unit(4, 1, 4), o4)
    assert lie_member(Matrix.unit(4, 1, 2) - Matrix.unit(4, 3, 4), o4)
    with pytest.raises(DomainError):
        lie_member(Matrix.zero(3), sp4)


def test_group_member_examples():
    sp4 = GroupKind.symplectic(4)
    assert group_member(Matrix.identity(4), sp4)
    good = Matrix.from_rows([[2, 0, 0, 0], [0, 3, 0, 0],
                             [0, 0, Fraction(1, 3), 0], [0, 0, 0, Fraction(1, 2)]])
    assert group_member(good, sp4)
    bad = Matrix.from_rows([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 2]])
    assert not group_member(bad, sp4)


def test_is_two_nilpotent():
    assert is_two_nilpotent(Matrix.zero(3))
    assert is_two_nilpotent(Matrix.unit(3, 1, 3))
    assert not is_two_nilpotent(Matrix.unit(3, 1, 2) + Matrix.unit(3, 2, 3))
    with pytest.raises(DomainError):
        is_two_nilpotent(Matrix.zero(2, 3))


def test_rank_matches_naive_elimination():
    rng = random.Random(20240814)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_rational_matrix(rng, rows, cols)
        assert rank(m) == naive_rank(m)


def test_rank_edge_cases():
    assert rank(Matrix.zero(4)) == 0
    assert rank(Matrix.identity(5)) == 5
    assert rank(Matrix.from_rows([[1, 2, 3]])) == 1
    assert rank(Matrix.from_rows([[1, 2], [2, 4], [3, 6]])) == 1
    assert rank(Matrix.from_rows([[Fraction(1, 2), 1], [1, 2]])) == 1


def test_nullspace_property():
    rng = random.Random(7)
    for _ in range(30):
        m = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        basis = nullspace(m)
        assert len(basis) == m.cols - rank(m)
        for vec in basis:
            image = m @ Matrix.from_rows([[v] for v in vec])
            assert image.is_zero()
        if basis:
            stacked = Matrix.from_rows(list(basis))
            assert rank(stacked) == len(basis)


def test_space_spec_construction_and_blocks():
    g = GroupKind.symplectic(8)
    spec = SpaceSpec.from_blocks(g, (2, 1))
    assert spec.flag == (2, 3)
    assert spec.blocks == (2, 1)
    assert spec.k == 2
    assert not spec.is_complete
    assert SpaceSpec.borel(g).flag == (1, 2, 3, 4)
    assert SpaceSpec.borel(g).is_borel
    assert SpaceSpec(g, (2, 4)).is_complete
    assert spec.dimension_vector() == (2, 3, 8, 3, 2)
    assert spec.block_of(2) == 1 and spec.block_of(3) == 2
    with pytest.raises(DomainError):
        spec.block_of(4)
    with pytest.raises(DomainError):
        SpaceSpec(g, (3, 2))
    with pytest.raises(DomainError):
        SpaceSpec(g, (5,))


def test_lie_algebra_dim_formulas_small():
    for l in (1, 2, 3, 4):
        assert lie_algebra_dim(GroupKind.symplectic(2 * l)) == l * (2 * l + 1)
        assert lie_algebra_dim(GroupKind.orthogonal(2 * l)) == l * (2 * l - 1)
        assert lie_algebra_dim(GroupKind.orthogonal(2 * l + 1)) == l * (2 * l + 1)


def test_borel_and_parabolic_dims():
    for l in (1, 2, 3):
        assert borel_subalgebra_dim(GroupKind.symplectic(2 * l)) == l * l + l
        assert borel_subalgebra_dim(GroupKind.orthogonal(2 * l)) == l * l
        assert borel_subalgebra_dim(GroupKind.orthogonal(2 * l + 1)) == l * l + l
    g4 = GroupKind.symplectic(4)
    assert parabolic_dim(SpaceSpec.borel(g4)) == borel_subalgebra_dim(g4)
    assert parabolic_dim(SpaceSpec(g4, (1,))) == 7
    assert parabolic_dim(SpaceSpec(g4, (2,))) == 7
    g5 = GroupKind.orthogonal(5)
    assert parabolic_dim(SpaceSpec(g5, (1,))) == 7
    assert parabolic_dim(SpaceSpec(g5, (2,))) == 7


def test_centralizer_and_orbit_dimension_frozen():
    g = GroupKind.symplectic(4)
    spec = SpaceSpec.borel(g)
    x = Matrix.unit(4, 1, 4)
    assert centralizer_dim_in(x, g, spec) == 5
    assert orbit_dimension(x, spec) == 1
    assert centralizer_dim_in(Matrix.zero(4), g, spec) == borel_subalgebra_dim(g)
    with pytest.raises(DomainError, match="not in sp_4"):
        centralizer_dim_in(Matrix.unit(4, 1, 2), g, spec)
    semisimple = Matrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0],
                                   [0, 0, -2, 0], [0, 0, 0, -1]])
    with pytest.raises(DomainError, match="2-nilpotent"):
        centralizer_dim_in(semisimple, g, spec)


def test_lie_algebra_basis_spans_and_respects_support():
    for g in (GroupKind.symplectic(4), GroupKind.orthogonal(4),
              GroupKind.orthogonal(5)):
        basis = lie_algebra_basis(g)
        assert len(basis) == lie_algebra_dim(g)
        assert all(lie_member(b, g) for b in basis)
        upper = lie_algebra_basis(g, lambda r, c: r < c)
        assert all(b.is_upper_triangular(strict=True) for b in upper)
        assert all(lie_member(b, g) for b in upper)
        assert len(upper) == borel_subalgebra_dim(g) - g.l


def test_matrix_json_round_trip():
    m = Matrix.from_rows([[Fraction(1, 2), -3], [0, Fraction(7, 5)]])
    again = matrix_from_json(matrix_to_json(m))
    assert again == m
    assert '"1/2"' in matrix_to_json(m)
    assert matrix_to_json(m) == matrix_to_json(again)


def test_matrix_json_rejects_malformed():
    with pytest.raises(DomainError):
        matrix_from_json("not json at all {")
    with pytest.raises(DomainError):
        matrix_from_obj({"rows": 1, "cols": 2, "entries": [[1]]})
    with pytest.raises(DomainError):
        matrix_from_obj({"rows": 1, "cols": 1, "entries": [[0.5]]})
    with pytest.raises(DomainError):
        matrix_from_obj({"rows": 1, "cols": 1, "entries": [[True]]})
    with pytest.raises(DomainError):
        matrix_from_obj({"rows": 1, "cols": 1, "entries": [["1/0"]]})
    with pytest.raises(DomainError):
        matrix_from_obj([[1]])


# -- the integer product kernel and the structural form checks ----------------

FORM_GROUPS = (GroupKind.symplectic(4), GroupKind.symplectic(6),
               GroupKind.orthogonal(4), GroupKind.orthogonal(6),
               GroupKind.orthogonal(5), GroupKind.orthogonal(7))

deterministic = settings(derandomize=True, database=None, deadline=None,
                         max_examples=150)

# Zeros, signs and mixed denominators, from a strategy cheap enough to draw
# a whole 7x7 matrix per example.
rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3, 4, 6)))


def naive_product(a: Matrix, b: Matrix) -> Matrix:
    """Row-by-column sums of Fraction products, with no integer clearing."""
    return Matrix(tuple(tuple(sum((a.entries[i][k] * b.entries[k][j]
                                   for k in range(a.cols)), Fraction(0))
                              for j in range(b.cols))
                        for i in range(a.rows)))


def dense_lie_member(a: Matrix, g: GroupKind) -> bool:
    f = form_matrix(g)
    return (naive_product(a.transpose(), f) + naive_product(f, a)).is_zero()


def dense_group_member(u: Matrix, g: GroupKind) -> bool:
    f = form_matrix(g)
    return naive_product(naive_product(u.transpose(), f), u) == f


@st.composite
def product_operands(draw):
    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))
    a = Matrix(tuple(tuple(draw(rationals) for _ in range(inner)) for _ in range(rows)))
    b = Matrix(tuple(tuple(draw(rationals) for _ in range(cols)) for _ in range(inner)))
    return a, b


@st.composite
def algebra_members(draw):
    """x - F^T x^T F, which lies in the algebra of g for every square x
    because F^T = +-F and F^T F = I; every member arises, from x = a / 2."""
    g = draw(st.sampled_from(FORM_GROUPS))
    x = Matrix(tuple(tuple(draw(rationals) for _ in range(g.n)) for _ in range(g.n)))
    f = form_matrix(g)
    return g, x - f.transpose() @ x.transpose() @ f


def perturb(m: Matrix, r: int, c: int, delta: Fraction) -> Matrix:
    """m with delta added at the 1-based position (r, c)."""
    return m + Matrix.unit(m.rows, r, c, delta)


nonzero_rationals = rationals.filter(lambda v: v != 0)


@deterministic
@given(product_operands())
def test_matmul_equals_the_naive_fraction_sum(operands):
    a, b = operands
    got = a @ b
    assert got == naive_product(a, b)
    assert all(type(v) is Fraction for row in got.entries for v in row)


@deterministic
@given(algebra_members(), st.data())
def test_lie_member_equals_the_dense_definition(member, data):
    g, a = member
    assert lie_member(a, g) and dense_lie_member(a, g)
    r, c = (data.draw(st.integers(1, g.n)) for _ in range(2))
    bad = perturb(a, r, c, data.draw(nonzero_rationals))
    assert lie_member(bad, g) == dense_lie_member(bad, g)
    # A perturbed member stays a member exactly when the unit it added is one.
    assert lie_member(bad, g) == dense_lie_member(Matrix.unit(g.n, r, c), g)


@deterministic
@given(st.sampled_from(FORM_GROUPS), st.integers(0, 10 ** 6), st.data())
def test_group_member_equals_the_dense_definition(g, seed, data):
    u = random_group_element_pair(g, SpaceSpec.borel(g), seed)[0]
    # Multiplying by F itself leaves the Borel subgroup but not the group.
    u = data.draw(st.sampled_from((u, u @ form_matrix(g), form_matrix(g) @ u)))
    assert group_member(u, g) and dense_group_member(u, g)
    r, c = (data.draw(st.integers(1, g.n)) for _ in range(2))
    bad = perturb(u, r, c, data.draw(nonzero_rationals))
    assert group_member(bad, g) == dense_group_member(bad, g)


def test_perturbed_group_members_are_rejected():
    # Moving a diagonal entry off the middle index always breaks u^T F u = F;
    # some off-diagonal moves are transvections and stay in the group.
    for g in FORM_GROUPS:
        u = Matrix.identity(g.n)
        middle = g.l + 1 if g.is_odd_orthogonal else None
        for p in range(1, g.n + 1):
            if p != middle:
                bad = perturb(u, p, p, Fraction(1, 2))
                assert not group_member(bad, g) and not dense_group_member(bad, g)
    sp4 = GroupKind.symplectic(4)
    transvection = perturb(Matrix.identity(4), 1, 4, Fraction(3))
    assert group_member(transvection, sp4) and dense_group_member(transvection, sp4)


def test_refusals_name_the_first_failing_entry():
    g = GroupKind.symplectic(4)
    spec = SpaceSpec.borel(g)
    with pytest.raises(DomainError,
                       match=r"^matrix not in sp_4: \(transpose\(a\)F \+ Fa\)\[1,4\] != 0$"):
        centralizer_dim_in(Matrix.identity(4), g, spec)
    semisimple = Matrix.from_rows([[0, 0, 0, 0], [0, 2, 0, 0],
                                   [0, 0, -2, 0], [0, 0, 0, 0]])
    with pytest.raises(DomainError,
                       match=r"^matrix is not 2-nilpotent: \(x @ x\)\[2,2\] != 0$"):
        centralizer_dim_in(semisimple, g, spec)


# -- the elimination kernel ------------------------------------------------------


@st.composite
def rational_matrices(draw):
    """Wide, tall and square shapes, with whole zero rows mixed in."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    return Matrix(tuple(tuple(Fraction(0) if i in zero_rows else draw(rationals)
                              for _ in range(cols)) for i in range(rows)))


@deterministic
@given(rational_matrices())
def test_rank_equals_naive_elimination(m):
    assert rank(m) == naive_rank(m)


@deterministic
@given(rational_matrices())
def test_nullspace_vectors_are_unit_on_free_columns(m):
    basis = nullspace(m)
    assert len(basis) == m.cols - naive_rank(m)
    # The free columns are those outside the column span of their left part.
    free = [c for c in range(m.cols)
            if naive_rank(m.submatrix(1, m.rows, 1, c + 1)) ==
            (naive_rank(m.submatrix(1, m.rows, 1, c)) if c else 0)]
    assert len(free) == len(basis)
    for f, vec in zip(free, basis):
        assert all(isinstance(v, Fraction) for v in vec)
        assert [vec[c] for c in free] == [Fraction(c == f) for c in free]
        assert all(sum((a * v for a, v in zip(row, vec)), Fraction(0)) == 0
                   for row in m.entries)


@deterministic
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_kernel_pivots_are_leading_minors(rows):
    # One-step Bareiss keeps every entry a minor of the input: on a
    # nonsingular integer matrix the last pivot is the determinant up to sign.
    n = len(rows)
    work = [{j: v for j, v in enumerate(row) if v} for row in rows]
    pivots = _eliminate(work, n)
    assert len(pivots) == naive_rank(Matrix.from_rows(rows))
    det = sum((-1) ** sum(a > b for i, a in enumerate(s) for b in s[i + 1:])
              * prod(row[j] for row, j in zip(rows, s)) for s in permutations(range(n)))
    assert (len(pivots) == n) == (det != 0)
    if det:
        assert abs(work[-1][pivots[-1]]) == abs(det)


def test_orbit_dimension_is_invariant_under_borel_conjugation():
    # The conjugates carry denominators from the torus part of u, so the
    # commutant rows are built from a cleared copy of x.
    spec = SpaceSpec.borel(GroupKind.symplectic(6))
    g = spec.group
    fractional = 0
    for idx, p in enumerate(enumerate_patterns(g.family, g.l, (1,) * g.l)):
        x = pattern_to_matrix(p, g)
        u, u_inv = random_group_element_pair(g, spec, 7000 + idx)
        conjugate = u @ x @ u_inv
        fractional += any(v.denominator > 1 for row in conjugate.entries for v in row)
        assert orbit_dimension(conjugate, spec) == orbit_dimension(x, spec), p.text()
    assert fractional > 0
