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
                              lie_algebra_basis, lie_algebra_dim,
                              lie_member, matrix_from_json, matrix_from_obj,
                              matrix_to_json, membership_dim, orbit_dimension,
                              parabolic_dim, rank, star)
from nilorbits.linalg import (_MAX_DENOMINATOR_BITS, _cleared, _eliminate,
                              _lie_violation, _square_violation)
from nilorbits.patterns import enumerate_patterns

from conftest import (dense_commutant_dim, naive_rank, random_rational_matrix,
                      reference_first_row_pivots, reference_lie_violation)


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
    half = Matrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert a @ half == Matrix.from_rows(
        [[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
    assert a.transpose() == Matrix.from_rows([[1, 3], [2, 4]])
    big = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    rows_2_3 = Matrix.from_rows([[0, 1, 0], [0, 0, 1]])
    cols_1_2 = Matrix.from_rows([[1, 0], [0, 1], [0, 0]])
    assert rows_2_3 @ big @ cols_1_2 == Matrix.from_rows([[4, 5], [7, 8]])


def test_forms_symmetry():
    sp = form_matrix(GroupKind.symplectic(6))
    assert sp.transpose() == -sp
    o = form_matrix(GroupKind.orthogonal(5))
    assert o.transpose() == o
    assert o == Matrix.from_rows([[1 if p + q == 4 else 0 for q in range(5)]
                                  for p in range(5)])


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
    for n in (4.0, True, "4"):
        with pytest.raises(DomainError, match="integer"):
            GroupKind("symplectic", n)
    with pytest.raises(DomainError, match="integer"):
        GroupKind("orthogonal", True)
    assert GroupKind.symplectic(4).name == "sp_4"
    assert GroupKind.orthogonal(5).name == "o_5"
    assert GroupKind.orthogonal(5).l == 2


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


def test_space_spec_construction_and_blocks():
    g = GroupKind.symplectic(8)
    spec = SpaceSpec.from_blocks(g, (2, 1))
    assert spec.flag == (2, 3)
    assert spec.blocks == (2, 1)
    assert spec.k == 2
    assert SpaceSpec.borel(g).flag == (1, 2, 3, 4)
    assert SpaceSpec.borel(g).blocks == (1, 1, 1, 1)
    assert spec.dimension_vector() == (2, 3, 8, 3, 2)
    assert spec.block_of(2) == 1 and spec.block_of(3) == 2
    with pytest.raises(DomainError):
        spec.block_of(4)
    with pytest.raises(DomainError):
        SpaceSpec(g, (3, 2))
    with pytest.raises(DomainError):
        SpaceSpec(g, (5,))


def test_borel_spec_is_built_once_per_group():
    # pattern_to_matrix and glue ask for it on every call
    assert SpaceSpec.borel(GroupKind.symplectic(8)) is SpaceSpec.borel(GroupKind.symplectic(8))
    assert SpaceSpec.borel(GroupKind.orthogonal(8)) != SpaceSpec.borel(GroupKind.symplectic(8))


@pytest.mark.parametrize("build", [
    lambda g: SpaceSpec(g, (1.7,)),
    lambda g: SpaceSpec(g, (True, 2)),
    lambda g: SpaceSpec.from_blocks(g, [1.5]),
    lambda g: SpaceSpec.from_blocks(g, (1, False)),
])
def test_space_spec_refuses_inexact_steps(build):
    with pytest.raises(DomainError, match="must be integers"):
        build(GroupKind.orthogonal(4))


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
    assert centralizer_dim_in(x, spec) == 5
    assert orbit_dimension(x, spec) == 1
    assert centralizer_dim_in(Matrix.zero(4), spec) == borel_subalgebra_dim(g)
    with pytest.raises(DomainError, match="not in sp_4"):
        centralizer_dim_in(Matrix.unit(4, 1, 2), spec)
    semisimple = Matrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0],
                                   [0, 0, -2, 0], [0, 0, 0, -1]])
    with pytest.raises(DomainError, match="2-nilpotent"):
        centralizer_dim_in(semisimple, spec)


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
    m = Matrix.from_rows([[Fraction(1, 2), -3], [Fraction(-3, 4), Fraction(7, 5)]])
    again = matrix_from_json(matrix_to_json(m))
    assert again == m
    assert '"1/2"' in matrix_to_json(m) and '"-3/4"' in matrix_to_json(m)
    assert matrix_to_json(m) == matrix_to_json(again)
    parsed = matrix_from_obj({"rows": 1, "cols": 3, "entries": [["-3/4", "6/4", "+5"]]})
    assert parsed == Matrix.from_rows([[Fraction(-3, 4), Fraction(3, 2), 5]])


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
    # only the "p/q" form: no decimals, exponents or surrounding spaces
    for literal in ("1.5", " 1/2", "2e3", "1e999999", "1/2 ", "-", "1/-2"):
        with pytest.raises(DomainError, match="bad rational literal"):
            matrix_from_obj({"rows": 1, "cols": 1, "entries": [[literal]]})
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


def test_lie_violation_is_the_first_dense_nonzero_entry():
    # Every unit matrix, and for the smaller groups every sum of two, so
    # that each entry of transpose(a) F + F a, the diagonal included, is
    # the first nonzero one for some input.
    def check(a, g):
        f = form_matrix(g)
        dense = (a.transpose() @ f + f @ a).support()
        assert _lie_violation(a, g) == (dense[0] if dense else None), (g.name, a)

    for g in FORM_GROUPS:
        units = [Matrix.unit(g.n, r, c)
                 for r in range(1, g.n + 1) for c in range(1, g.n + 1)]
        for a in units:
            check(a, g)
        if g.n <= 5:
            for i, a in enumerate(units):
                for b in units[i + 1:]:
                    check(a + b + b, g)


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
        middle = g.l + 1 if g.n % 2 == 1 else None
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
        centralizer_dim_in(Matrix.identity(4), spec)
    semisimple = Matrix.from_rows([[0, 0, 0, 0], [0, 2, 0, 0],
                                   [0, 0, -2, 0], [0, 0, 0, 0]])
    with pytest.raises(DomainError,
                       match=r"^matrix is not 2-nilpotent: \(x @ x\)\[2,2\] != 0$"):
        centralizer_dim_in(semisimple, spec)


# -- the cleared integer rows ---------------------------------------------------


def test_cleared_rows_are_a_copy_of_the_cache():
    m = Matrix.from_rows([[Fraction(1, 2), 0], [3, Fraction(-2, 3)]])
    for made in (m, m @ Matrix.identity(2)):
        rows, den = _cleared(made)
        assert (rows, den) == ([[3, 0], [18, -4]], 6)
        rows[0][0] = 99
        rows[1].append(5)
        rows.append([1])
        assert made._ints == (((3, 0), (18, -4)), 6)
        assert made.entries == m.entries
        assert _cleared(made) == ([[3, 0], [18, -4]], 6)


def test_products_reduce_their_seeded_denominator():
    # (1/2)(2) over the operands' denominators 2 * 1 is 2/2, cached as 1/1.
    half = Matrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    two = Matrix.from_rows([[2, 0], [0, 2]])
    product = half @ two
    assert product == Matrix.identity(2)
    assert product._ints == Matrix.identity(2)._ints == (((1, 0), (0, 1)), 1)
    assert (Matrix.zero(2) @ half)._ints == (((0, 0), (0, 0)), 1)


def test_denominators_past_the_bound_are_refused():
    bits = _MAX_DENOMINATOR_BITS
    assert Matrix.from_rows([[Fraction(1, 2 ** (bits - 1))]])._ints[1] == 2 ** (bits - 1)
    with pytest.raises(DomainError, match="denominator"):
        Matrix.from_rows([[Fraction(1, 2 ** bits)]])._ints
    # Each entry is under the bound; their common denominator is not.
    row = [Fraction(1, 2 ** (bits // 2)), Fraction(1, 3 ** (bits // 2))]
    assert all(v.denominator.bit_length() < bits for v in row)
    with pytest.raises(DomainError, match="denominator"):
        is_two_nilpotent(Matrix.from_rows([row, [0, 0]]))
    # A product whose reduced denominator passes the bound is refused too.
    with pytest.raises(DomainError, match="denominator"):
        Matrix.from_rows([[Fraction(1, 2 ** (bits // 2 + 1))]]) @ \
            Matrix.from_rows([[Fraction(1, 3 ** (bits // 2))]])


# Mixed signs, zeros and denominators of up to 30 digits.
wide_rationals = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30) | st.integers(-3, 3),
                           st.integers(1, 10 ** 30) | st.sampled_from((1, 2, 3)))

SMALL_GROUPS = FORM_GROUPS + (GroupKind.symplectic(2), GroupKind.orthogonal(2),
                              GroupKind.orthogonal(3))


@st.composite
def wide_algebra_members(draw):
    """x - F^T x^T F (see `algebra_members`) for x with `wide_rationals`."""
    g = draw(st.sampled_from(SMALL_GROUPS))
    x = Matrix(tuple(tuple(draw(wide_rationals) for _ in range(g.n)) for _ in range(g.n)))
    f = form_matrix(g)
    return g, x - f.transpose() @ x.transpose() @ f


def replace(m: Matrix, r: int, c: int, value: Fraction) -> Matrix:
    """m with the 0-based entry (r, c) set to value."""
    return Matrix(tuple(tuple(value if (p, q) == (r, c) else v
                              for q, v in enumerate(row))
                        for p, row in enumerate(m.entries)))


@deterministic
@given(wide_algebra_members(), st.data())
def test_lie_violation_equals_the_fraction_oracle(member, data):
    # Members, then up to three entries replaced by a sign flip, a value
    # with the same numerator or the same denominator, or any value.
    g, a = member
    assert _lie_violation(a, g) is None and reference_lie_violation(a, g) is None
    for _ in range(data.draw(st.integers(1, 3))):
        r, c = (data.draw(st.integers(0, g.n - 1)) for _ in range(2))
        v = a.entries[r][c]
        a = replace(a, r, c, data.draw(st.sampled_from(
            (-v, Fraction(v.numerator, v.denominator + 1), v + 1)) | wide_rationals))
        assert _lie_violation(a, g) == reference_lie_violation(a, g)


@st.composite
def square_zero_conjugates(draw):
    """[[0, B], [0, 0]] conjugated by up to four transvections I + c e_ij
    (inverse I - c e_ij), with `wide_rationals`: x @ x = 0.  Half of them
    get one entry changed, after which x @ x is mostly nonzero."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    x = Matrix(tuple(tuple(draw(wide_rationals) if p < k <= q else Fraction(0)
                           for q in range(n)) for p in range(n)))
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        e = Matrix.unit(n, i, j, draw(wide_rationals))
        one = Matrix.identity(n)
        x = naive_product(naive_product(one + e, x), one - e)
    if draw(st.booleans()):
        r, c = (draw(st.integers(0, n - 1)) for _ in range(2))
        x = replace(x, r, c, draw(wide_rationals))
    return x


@deterministic
@given(square_zero_conjugates())
def test_is_two_nilpotent_equals_the_dense_square(x):
    support = naive_product(x, x).support()
    assert is_two_nilpotent(x) == (not support)
    assert _square_violation(x) == (support[0] if support else None)


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
@given(st.sampled_from(FORM_GROUPS), st.data())
def test_membership_dim_equals_the_rank_of_the_dense_map(g, data):
    # Random supports are not closed under taking mates, so an allowed
    # position whose mate is forbidden must vanish, as the dense rows say.
    n = g.n
    allowed = {(r, c) for r in range(1, n + 1) for c in range(1, n + 1)
               if data.draw(st.booleans())}
    p = data.draw(st.sampled_from([None] + enumerate_patterns(g.family, g.l, (1,) * g.l)))
    x = Matrix.zero(n) if p is None else pattern_to_matrix(p, g)
    assert (membership_dim(g, lambda r, c: (r, c) in allowed, x)
            == dense_commutant_dim(g, allowed, x))


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
        assert abs(work[-1][pivots[-1][1]]) == abs(det)


@st.composite
def integer_row_lists(draw):
    # Non-square, with zero rows and repeated (scaled) rows mixed in.
    cols = draw(st.integers(1, 6))
    rows = []
    for kind in draw(st.lists(st.sampled_from(("random", "zero", "repeat")), max_size=7)):
        if kind == "repeat" and rows:
            scale = draw(st.sampled_from((1, -1, 2, -3)))
            rows.append([scale * v for v in draw(st.sampled_from(rows))])
        elif kind == "zero":
            rows.append([0] * cols)
        else:
            rows.append(draw(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols)))
    return rows, cols


@deterministic
@given(integer_row_lists(), st.randoms(use_true_random=False))
def test_kernel_pivots_equal_the_first_row_fraction_oracle(case, rnd):
    rows, cols = case
    work = [{j: v for j, v in enumerate(row) if v} for row in rows]
    pivots = _eliminate(work, cols)
    assert pivots == reference_first_row_pivots(rows, cols)
    # the pivot rows stay, in pivot order, each zero left of its column
    assert len(work) == len(pivots)
    assert all(min(row) == c and row[c] for row, (_, c) in zip(work, pivots))
    # the rank does not depend on the order the rows come in
    shuffled = rows[:]
    rnd.shuffle(shuffled)
    again = [{j: v for j, v in enumerate(row) if v} for row in shuffled]
    assert len(_eliminate(again, cols)) == len(pivots) == naive_rank(Matrix.from_rows(rows))


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
