import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from nilorbits.correspondence import RankSignature, pattern_to_matrix
from nilorbits.harness import _root_word, _word_act, random_group_element_pair
from nilorbits.linalg import (DomainError, GroupKind, Matrix, SpaceSpec,
                              borel_subalgebra_dim, form_matrix, group_member,
                              is_two_nilpotent, lie_algebra_dim, lie_member,
                              matrix_from_json, matrix_from_obj, matrix_to_json,
                              orbit_dimension, parabolic_dim, rank)
from nilorbits.linalg import (_MAX_DENOMINATOR_BITS, _coordinates, _eliminate,
                              _intertwiner_rows, _keeps, _lie_violation, _square_violation,
                              _unit_orbit_dimension)
from nilorbits.patterns import enumerate_patterns

from conftest import (dense_commutant_dim, divides_rows, flag_positions, naive_rank,
                      position_table, random_rational_matrix, reference_coordinates,
                      reference_eliminate, reference_first_row_pivots,
                      reference_intertwiner_rows, reference_lie_violation, reference_mates,
                      small_flag_specs)


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


def test_matrices_without_rows_or_columns_keep_their_shapes():
    # A matrix with no rows carries its column count, so transposes,
    # products, sums and negation of empty shapes come out the right size.
    for rows, inner, cols in product(range(3), repeat=3):
        a, b = Matrix.zero(rows, inner), Matrix.zero(inner, cols)
        assert (a.rows, a.cols) == (rows, inner)
        t = a.transpose()
        assert (t.rows, t.cols) == (inner, rows) and t.transpose() == a
        ab = a @ b
        assert (ab.rows, ab.cols) == (rows, cols) and ab == Matrix.zero(rows, cols)
        for same in (a + a, a - a, -a):
            assert (same.rows, same.cols) == (rows, inner)
    assert Matrix.zero(4, 0) @ Matrix.zero(4, 0).transpose() == Matrix.zero(4)
    assert Matrix.zero(0, 3) != Matrix.zero(0) == Matrix(())
    assert Matrix((), 3) == Matrix.zero(0, 3)
    with pytest.raises(DomainError, match="shape mismatch"):
        Matrix.zero(0, 3) + Matrix.zero(0, 2)
    with pytest.raises(DomainError, match="inner dimension mismatch"):
        Matrix.zero(4, 0) @ Matrix.zero(4, 0)
    # the column count agrees with the rows, and is a non-negative integer
    with pytest.raises(DomainError, match="3 columns declared, rows have 2"):
        Matrix(((Fraction(1), Fraction(2)),), 3)
    for bad in (-1, True, False, "2"):
        with pytest.raises(DomainError, match="non-negative integer"):
            Matrix((), bad)


@pytest.mark.parametrize("sizes", [(2, True), (True,), (False, 2), (1.5,), (2, 1.5),
                                   (-1,), (2, -1), ("3",), (None,), (2, Fraction(2))])
def test_zero_and_identity_refuse_bad_sizes(sizes):
    # A bool, a float or a negative size is refused, never read as a count.
    with pytest.raises(DomainError, match="sizes must be non-negative integers"):
        Matrix.zero(*sizes)
    if len(sizes) == 1:
        with pytest.raises(DomainError, match="sizes must be non-negative integers"):
            Matrix.identity(*sizes)


def test_forms_symmetry():
    sp = form_matrix(GroupKind.symplectic(6))
    assert sp.transpose() == -sp
    o = form_matrix(GroupKind.orthogonal(5))
    assert o.transpose() == o
    assert o == Matrix.from_rows([[1 if p + q == 4 else 0 for q in range(5)]
                                  for p in range(5)])


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
    with pytest.raises(DomainError, match="n must be positive"):
        GroupKind("symplectic", 0)
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
    assert parabolic_dim(spec) - orbit_dimension(x, spec) == 5
    assert orbit_dimension(x, spec) == 1
    assert orbit_dimension(Matrix.zero(4), spec) == 0
    with pytest.raises(DomainError, match="not in sp_4"):
        orbit_dimension(Matrix.unit(4, 1, 2), spec)
    semisimple = Matrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0],
                                   [0, 0, -2, 0], [0, 0, 0, -1]])
    with pytest.raises(DomainError, match="2-nilpotent"):
        orbit_dimension(semisimple, spec)


_SP4_SPEC = SpaceSpec(GroupKind.symplectic(4), (1, 2))


@pytest.mark.parametrize("call, args", [
    (Matrix.unit, (3, 1.5, 2)), (Matrix.unit, (3, True, 1)),
    (Matrix.unit, (3, 1, 4)), (Matrix.unit, (1.5, 1, 1)),
    (Matrix.identity, (-2,)), (Matrix.identity, (Fraction(3),)),
    (Matrix.identity, (True,)),
    (Matrix.zero(2).entry, (1.5, 1)), (Matrix.zero(2).entry, (1, True)),
    (Matrix.zero(2).entry, (0, 1)),
    (RankSignature(2, ()).rank, (1.5, 1)),
    (RankSignature(2, ()).rank, (True, 1)), (RankSignature(2, ()).rank, (1, -1)),
    (_SP4_SPEC.block_of, (0,)), (_SP4_SPEC.block_of, (True,)),
    (_SP4_SPEC.block_of, (1.5,)), (_SP4_SPEC.block_of, (3,)),
], ids=lambda v: v.__qualname__ if callable(v) else repr(v))
def test_index_arguments_are_refused_unless_integers_in_range(call, args):
    # A bool, a non-integer or an index out of range is a DomainError,
    # never a silent zero, a silent first block or a TypeError.
    with pytest.raises(DomainError):
        call(*args)


def test_matrix_json_round_trip():
    m = Matrix.from_rows([[Fraction(1, 2), -3], [Fraction(-3, 4), Fraction(7, 5)]])
    again = matrix_from_json(matrix_to_json(m))
    assert again == m
    assert '"1/2"' in matrix_to_json(m) and '"-3/4"' in matrix_to_json(m)
    assert matrix_to_json(m) == matrix_to_json(again)
    parsed = matrix_from_obj({"rows": 1, "cols": 3, "entries": [["-3/4", "6/4", "+5"]]})
    assert parsed == Matrix.from_rows([[Fraction(-3, 4), Fraction(3, 2), 5]])


def test_matrix_entries_read_as_fraction_reads_them():
    # Each "p/q" side is read with int(); the value is what Fraction makes
    # of the whole string, and every int zero is one shared Fraction.
    literals = ["0", "-0", "+0/7", "007/014", "-6/4", "+3/9", "12/1", "-1/3",
                "9" * 4300, "-1/" + "7" * 4300]
    parsed = matrix_from_obj({"rows": 1, "cols": len(literals), "entries": [literals]})
    assert list(parsed.entries[0]) == [Fraction(v) for v in literals]
    zeros = matrix_from_obj({"rows": 2, "cols": 2, "entries": [[0, 0], [5, 0]]}).entries
    assert {id(v) for v in (zeros[0][0], zeros[0][1], zeros[1][1])} == {id(zeros[0][0])}
    assert zeros[0][0] == 0 and zeros[1][0] == 5
    # a zero denominator and a side past the int digit limit are refused
    # with the message any other bad literal gets
    for literal in ("1/0", "-0/0", "1" * 4301, "1/" + "1" * 4301):
        with pytest.raises(DomainError) as refused:
            matrix_from_obj({"rows": 1, "cols": 1, "entries": [[literal]]})
        assert str(refused.value) == f"bad rational literal {literal!r}"


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
    # Every command reads a square matrix: no rows, no columns.
    for cols in (5, -3):
        with pytest.raises(DomainError, match="no rows has no columns"):
            matrix_from_obj({"rows": 0, "cols": cols, "entries": []})
    assert matrix_from_obj({"rows": 0, "cols": 0, "entries": []}) == Matrix(())


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
        want = dense[0] if dense else None
        assert _lie_violation(a.entries, g) == want, (g.name, a)
        assert _lie_violation(a._ints[0], g) == want, (g.name, a)

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
        orbit_dimension(Matrix.identity(4), spec)
    semisimple = Matrix.from_rows([[0, 0, 0, 0], [0, 2, 0, 0],
                                   [0, 0, -2, 0], [0, 0, 0, 0]])
    with pytest.raises(DomainError,
                       match=r"^matrix is not 2-nilpotent: \(x @ x\)\[2,2\] != 0$"):
        orbit_dimension(semisimple, spec)


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
    # with the same numerator or the same denominator, or any value.  The
    # scan reads the entries and the cleared integer rows alike.
    g, a = member
    assert _lie_violation(a.entries, g) is None and reference_lie_violation(a, g) is None
    assert _lie_violation(a._ints[0], g) is None
    for _ in range(data.draw(st.integers(1, 3))):
        r, c = (data.draw(st.integers(0, g.n - 1)) for _ in range(2))
        v = a.entries[r][c]
        a = replace(a, r, c, data.draw(st.sampled_from(
            (-v, Fraction(v.numerator, v.denominator + 1), v + 1)) | wide_rationals))
        want = reference_lie_violation(a, g)
        assert _lie_violation(a.entries, g) == want == _lie_violation(a._ints[0], g)


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
    assert _square_violation(x._ints[0]) == (support[0] if support else None)
    # Given the rows to test, the scan reads only those.
    for tested in ([], range(0, x.rows, 2), range(1, x.rows, 2)):
        want = next(((r, c) for r, c in support if r - 1 in tested), None)
        assert _square_violation(x._ints[0], tested) == want


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
def test_parabolic_and_centralizer_dims_equal_the_rank_of_the_dense_map(g, data):
    # The coordinates test the flag on a position and on its mate: in sp_4
    # with flag (1), (4,2) keeps the flag and its mate (3,1) does not.  The
    # dense oracle also cuts at the perps n - d and states the form itself.
    n = g.n
    flag = tuple(sorted(data.draw(st.sets(st.integers(1, g.l)))))
    spec, positions = SpaceSpec(g, flag), flag_positions(n, flag)
    p = data.draw(st.sampled_from([None] + enumerate_patterns(g.family, g.l, (1,) * g.l)))
    x = Matrix.zero(n) if p is None else pattern_to_matrix(p, g)
    assert parabolic_dim(spec) == dense_commutant_dim(g, positions, Matrix.zero(n))
    assert (parabolic_dim(spec) - orbit_dimension(x, spec)
            == dense_commutant_dim(g, positions, x))


@deterministic
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_kernel_pivots_are_leading_minors(rows):
    # One-step Bareiss (the reference) keeps every entry a minor of the
    # input: on a nonsingular integer matrix its last pivot is the
    # determinant up to sign.  The kernel's pivot rows divide the
    # reference's, so its last pivot divides the determinant.
    n = len(rows)
    work = [{j: v for j, v in enumerate(row) if v} for row in rows]
    bareiss = [dict(row) for row in work]
    pivots = _eliminate(work, n)
    assert pivots == reference_eliminate(bareiss, n)
    assert len(pivots) == naive_rank(Matrix.from_rows(rows))
    det = sum((-1) ** sum(a > b for i, a in enumerate(s) for b in s[i + 1:])
              * prod(row[j] for row, j in zip(rows, s)) for s in permutations(range(n)))
    assert (len(pivots) == n) == (det != 0)
    if det:
        c = pivots[-1][1]
        assert abs(bareiss[-1][c]) == abs(det)
        assert det % work[-1][c] == 0


def test_kernel_leaves_a_row_without_the_column_untouched():
    # The step at column 0 writes only the rows that hold column 0.
    rows = [{0: 2, 1: 4}, {1: 6}]
    assert _eliminate(rows, 2) == [(0, 0), (1, 1)]
    assert rows == [{0: 2, 1: 4}, {1: 6}]


def test_kernel_divides_an_updated_row_by_its_content():
    # 1 * (3, 12) - 3 * (1, 2) = (0, 6), divided by 6.
    rows = [{0: 1, 1: 2}, {0: 3, 1: 12}]
    assert _eliminate(rows, 2) == [(0, 0), (1, 1)]
    assert rows == [{0: 1, 1: 2}, {1: 1}]


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


# -- the indexed kernel against the scanning reference --------------------------


def assert_kernels_agree(rows: list[dict[int, int]], cols: int):
    """`_eliminate` and `conftest.reference_eliminate` give the same pivots,
    each on its own copy of `rows`, and each reference pivot row is an
    integer multiple of the kernel's."""
    ours, theirs = [dict(row) for row in rows], [dict(row) for row in rows]
    assert _eliminate(ours, cols) == reference_eliminate(theirs, cols)
    assert divides_rows(ours, theirs)


@st.composite
def integer_systems(draw):
    # Sparse or dense rows; some are zero, some scaled copies, and some
    # sums of two earlier rows, so that rows vanish or cancel mid-elimination.
    cols = draw(st.integers(1, 12))
    entries = (st.integers(-9, 9) if draw(st.booleans())
               else st.sampled_from((0, 0, 0, 0, 0, 0, 1, -1, 2, -3, 7)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(("random", "random", "zero", "sum")),
                              max_size=14)):
        if kind == "sum" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.sampled_from((1, -1, 2))), draw(st.sampled_from((1, -2, 3)))
            rows.append({j: v for j in range(cols) if (v := s * a.get(j, 0) + t * b.get(j, 0))})
        elif kind == "zero":
            rows.append({})
        else:
            rows.append({j: v for j in range(cols) if (v := draw(entries))})
    return rows, cols


@deterministic
@given(integer_systems())
def test_kernel_equals_the_scanning_reference(case):
    assert_kernels_agree(*case)


BOREL_SYSTEM_GROUPS = ([GroupKind.symplectic(n) for n in range(2, 9, 2)]
                       + [GroupKind.orthogonal(n) for n in range(3, 10)])


def test_orbit_systems_equal_the_position_by_position_reference():
    # Every Borel orbit system of sp_2 ... sp_8 and o_3 ... o_9, as
    # `orbit_dimension` builds and orders it.
    systems = 0
    for g in BOREL_SYSTEM_GROUPS:
        spec = SpaceSpec.borel(g)
        coords = list(enumerate(_coordinates(spec)))
        entry = position_table(coords)
        for p in enumerate_patterns(g.family, g.l, (1,) * g.l):
            x = pattern_to_matrix(p, g)
            rows = _intertwiner_rows(x, coords, coords)
            assert rows == reference_intertwiner_rows(x, entry, entry), (g.name, p.text())
            rows.sort(key=len)
            assert_kernels_agree(rows, len(coords))
            systems += 1
    assert systems == 607


@pytest.mark.parametrize("g", [GroupKind.symplectic(6), GroupKind.orthogonal(7),
                               GroupKind.orthogonal(8)], ids=lambda g: g.name)
def test_rank_signature_rows_of_root_word_conjugates_equal_the_reference(g):
    # `rank_signature` hands the kernel a conjugate's rows bottom-up; the
    # conjugates are dense with large entries, where content division does
    # the most.
    spec = SpaceSpec.borel(g)
    for seed, p in enumerate(enumerate_patterns(g.family, g.l, (1,) * g.l)):
        y = Matrix._from_ints(*_word_act(_root_word(spec, 500 + seed),
                                         pattern_to_matrix(p, g)._ints))
        rows = [{j: v for j, v in enumerate(row) if v} for row in reversed(y._ints[0])]
        assert_kernels_agree(rows, g.n)


def test_the_flag_rule_equals_its_any_form():
    # `_keeps` reads the rule off the sorted flag; every flag of every
    # group with n <= 13, at every position.
    for n in range(1, 14):
        for k in range(n // 2 + 1):
            for flag in combinations(range(1, n // 2 + 1), k):
                got = [_keeps(flag, r, c) for r in range(n) for c in range(n)]
                assert got == [not any(c < d <= r for d in flag)
                               for r in range(n) for c in range(n)], (n, flag)


def test_coordinates_equal_the_mate_table_reference():
    # `_coordinates` scans the later half of each row in row-major order;
    # the reference walks the whole mate table.  Same count, same entries,
    # same numbering, on every flag of sp_2 ... sp_12 and o_1 ... o_13: the
    # supports, read as the reference's position table, are that table.
    specs = small_flag_specs()
    assert len(specs) == 379
    for spec in specs:
        coords = _coordinates(spec)
        want_count, want = reference_coordinates(spec)
        entry = position_table(enumerate(coords))
        assert len(coords) == want_count and list(entry.items()) == list(want.items()), \
            (spec.group.name, spec.flag)


def test_coordinate_supports_are_disjoint_members_that_keep_the_flag():
    # Each support is the member of p that is 1 at its coordinate: a member
    # of the algebra, on positions that keep the flag and its perps, and no
    # two supports share a position, so the coordinates are independent.
    for spec in small_flag_specs():
        g, n = spec.group, spec.group.n
        allowed = {(r - 1, c - 1) for r, c in flag_positions(n, spec.flag)}
        seen = set()
        for support in _coordinates(spec):
            rows = [[0] * n for _ in range(n)]
            for r, c, coef in support:
                rows[r][c] = coef
            positions = {(r, c) for r, c, _ in support}
            assert len(positions) == len(support) and positions <= allowed, (g.name, support)
            assert not positions & seen, (g.name, spec.flag, support)
            assert _lie_violation(rows, g) is None, (g.name, spec.flag, support)
            seen |= positions


def test_the_orbit_dimension_count_refuses_a_second_entry_in_a_row_or_a_column():
    # The count is exact only on a signed partial permutation: two entries
    # in one row or one column would give a row of the system more than
    # two terms, so it raises rather than return a wrong rank.
    spec = SpaceSpec.borel(GroupKind.symplectic(4))
    with pytest.raises(RuntimeError, match="second entry in row 1:"):
        _unit_orbit_dimension([(0, 1, 1), (0, 2, -1)], spec)
    with pytest.raises(RuntimeError, match="second entry in column 4:"):
        _unit_orbit_dimension([(0, 3, 1), (1, 3, 1)], spec)
    # one entry per row and column: the orbit of E_12 - E_34 in sp_4
    assert _unit_orbit_dimension([(0, 1, 1), (2, 3, -1)], spec) == \
        orbit_dimension(Matrix.from_rows([[0, 1, 0, 0], [0, 0, 0, 0],
                                          [0, 0, 0, -1], [0, 0, 0, 0]]), spec)


def random_signed_partial_permutation(g, rng) -> list[tuple[int, int, int]]:
    """The entries (r, c, +-1), 0-based, of a random member of g with at
    most one entry in each row and each column, squaring to zero or not:
    mate pairs (`reference_mates`) are taken in a random order while their
    rows and columns are free, each with a random sign."""
    rows, cols, units = set(), set(), []
    for r, c, mr, mc, sign in rng.sample(reference_mates(g), g.n * g.n):
        if rng.random() < 0.5 or (r, c) == (mr, mc) and sign < 0:
            continue
        used_rows, used_cols = {r, mr}, {c, mc}
        if (r, c) != (mr, mc) and (len(used_rows) < 2 or len(used_cols) < 2) \
                or used_rows & rows or used_cols & cols:
            continue
        v = rng.choice((1, -1))
        units += [(r, c, v)] if (r, c) == (mr, mc) else [(r, c, v), (mr, mc, sign * v)]
        rows |= used_rows
        cols |= used_cols
    return units


def test_the_orbit_dimension_count_equals_the_reference_rank_on_any_signed_partial_permutation():
    # The count does not rely on a pattern's shape: on random signed
    # partial permutations of the algebra, nilpotent or not, on every flag
    # of every group up to n = 9, it equals the rank of the reference rows
    # of a |-> [a, x].  Pieces here grow past two unknowns, with odd cycles
    # and one-term rows.
    rng = random.Random(15)
    for spec in small_flag_specs():
        g = spec.group
        if g.n > 9:
            continue
        count, entry = reference_coordinates(spec)
        for _ in range(4):
            units = random_signed_partial_permutation(g, rng)
            rows = [[0] * g.n for _ in range(g.n)]
            for r, c, v in units:
                rows[r][c] = v
            x = Matrix.from_rows(rows)
            assert lie_member(x, g), units
            want = len(reference_eliminate(reference_intertwiner_rows(x, entry, entry), count))
            assert _unit_orbit_dimension(units, spec) == want, (g.name, spec.flag, units)
