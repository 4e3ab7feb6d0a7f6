import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilorbits.cli import main
from nilorbits.correspondence import pattern_to_matrix
from nilorbits.harness import random_group_element_pair
from nilorbits.linalg import (DomainError, GroupKind, Matrix, SpaceSpec,
                              centralizer_dim_in)
from nilorbits.patterns import (LinkPattern, dotted, enumerate_patterns,
                                unoriented_loop, upper_loop)
from nilorbits.quiver import (Cminus, Cplus, Dminus, Dplus, M, Mstar, Summand,
                              SymmetricPiece, Zminus, Zplus, ar_sequences,
                              ar_skipped, catalog, coefficient_quiver_dot,
                              dimension_vector, dual, flag_to_representation,
                              multiset_text, multiset_to_json,
                              pattern_to_summands, realize_flag,
                              realize_isotropic_flag, slot_name,
                              symmetric_endo_dim, total_dimension_vector)
from nilorbits.quiver import _inverse

from conftest import naive_rank


def test_degenerate_names_normalize():
    assert Zplus(1, 3, 2) == Dplus(1, 3, 2)
    assert Zminus(3, 2, 2) == Cminus(2, 3, 2)
    assert Zplus(3, 3, 2) == Dplus(3, 3, 2)
    assert Dminus(2, 2, 3) == Dplus(2, 2, 3)
    assert Cminus(1, 1, 2) == Cplus(1, 1, 2)
    assert Cplus(3, 3, 2) == Dplus(3, 3, 2)
    assert Mstar(3, 3, 2) == M(3, 3, 2)
    assert Zplus(1, 3, 2).family == "D+"
    assert Zminus(3, 2, 2).text() == "C-(2,3)"


def test_summand_range_errors():
    with pytest.raises(DomainError):
        M(2, 1, 2)
    with pytest.raises(DomainError):
        M(1, 5, 3)
    with pytest.raises(DomainError):
        Zplus(0, 1, 2)
    with pytest.raises(DomainError):
        Dminus(2, 5, 3)
    with pytest.raises(DomainError):
        Summand("X", 1, 1, 1)
    with pytest.raises(DomainError):
        Summand("M", 1, 1, -1)


def test_dual_is_an_involution_with_known_fixed_points():
    for s in catalog(3):
        assert dual(dual(s)) == s
    assert dual(M(1, 2, 3)) == Mstar(1, 2, 3)
    assert dual(Dplus(1, 2, 3)) == Cplus(1, 2, 3)
    assert dual(Dminus(1, 2, 3)) == Cminus(1, 2, 3)
    assert dual(Zplus(1, 2, 3)) == Zplus(2, 1, 3)
    assert dual(M(4, 4, 3)) == M(4, 4, 3)
    assert dual(Zminus(2, 2, 3)) == Zminus(2, 2, 3)
    fixed = [s for s in catalog(2) if dual(s) == s]
    assert fixed == sorted([M(3, 3, 2), Dplus(3, 3, 2), Zplus(1, 1, 2),
                            Zplus(2, 2, 2), Zminus(1, 1, 2), Zminus(2, 2, 2)],
                           key=Summand.key)


def test_dimension_vectors_frozen():
    assert dimension_vector(M(2, 3, 2)) == (0, 1, 1, 0, 0)
    assert dimension_vector(Mstar(2, 3, 2)) == (0, 0, 1, 1, 0)
    assert dimension_vector(Zplus(1, 1, 2)) == (1, 1, 2, 1, 1)
    assert dimension_vector(Dplus(1, 1, 2)) == (2, 2, 2, 0, 0)
    assert dimension_vector(Cplus(1, 1, 2)) == (0, 0, 2, 2, 2)
    assert dimension_vector(Dminus(1, 3, 2)) == (1, 1, 2, 0, 0)
    assert SymmetricPiece.pair(Dplus(1, 1, 2)).dimension_vector() == (2, 2, 4, 2, 2)
    assert SymmetricPiece.pair(M(2, 3, 2)).dimension_vector() == (0, 1, 2, 1, 0)


def test_dual_reverses_dimension_vectors():
    for s in catalog(3):
        assert dimension_vector(dual(s)) == dimension_vector(s)[::-1], s.text()


def test_catalog_sizes_and_order():
    assert [len(catalog(l)) for l in (1, 2, 3, 4)] == [14, 36, 68, 110]
    for l in (1, 2, 3):
        keys = [s.key() for s in catalog(l)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_symmetric_piece_validation():
    with pytest.raises(DomainError, match="self-dual"):
        SymmetricPiece.single(M(1, 2, 2))
    with pytest.raises(DomainError, match="dual pair"):
        SymmetricPiece((M(1, 2, 2), M(1, 3, 2)))
    with pytest.raises(DomainError, match="one or two"):
        SymmetricPiece((M(3, 3, 2), M(3, 3, 2), M(3, 3, 2)))
    z = Zplus(1, 1, 1)
    assert SymmetricPiece((z, z)).dimension_vector() == (2, 4, 2)
    assert SymmetricPiece.pair(M(1, 2, 2)).text() == "M(1,2) (+) M*(1,2)"


def test_summands_of_borel_loop_pattern():
    g = GroupKind.symplectic(4)
    spec = SpaceSpec.borel(g)
    p = LinkPattern.borel("symplectic", 2, (upper_loop(1),))
    ms = pattern_to_summands(p, spec)
    assert ms == [(SymmetricPiece.pair(M(2, 3, 2)), 1),
                  (SymmetricPiece.single(Zplus(1, 1, 2)), 1)]


def test_summands_worked_example():
    g = GroupKind.symplectic(12)
    spec = SpaceSpec.from_blocks(g, (4, 2))
    p = LinkPattern("symplectic", 2, (4, 2),
                    (unoriented_loop(1), upper_loop(1), dotted(1, 2)))
    ms = pattern_to_summands(p, spec)
    assert ms == [(SymmetricPiece.pair(M(2, 3, 2)), 1),
                  (SymmetricPiece.pair(Dplus(1, 1, 2)), 1),
                  (SymmetricPiece.single(Zplus(1, 1, 2)), 1),
                  (SymmetricPiece.pair(Zminus(1, 2, 2)), 1)]
    assert total_dimension_vector(ms) == (4, 6, 12, 6, 4)
    assert total_dimension_vector(ms) == spec.dimension_vector()


def test_summands_orthogonal_loops_come_doubled():
    g = GroupKind.orthogonal(4)
    spec = SpaceSpec.from_blocks(g, (2,))
    p = LinkPattern("orthogonal", 1, (2,), (upper_loop(1),))
    z = Zplus(1, 1, 1)
    assert pattern_to_summands(p, spec) == [(SymmetricPiece((z, z)), 1)]


def test_summands_odd_middle_is_single():
    g = GroupKind.orthogonal(5)
    spec = SpaceSpec.borel(g)
    ms = flag_to_representation(spec)
    assert ms == [(SymmetricPiece.pair(M(1, 3, 2)), 1),
                  (SymmetricPiece.pair(M(2, 3, 2)), 1),
                  (SymmetricPiece.single(M(3, 3, 2)), 1)]


def test_summands_rejects_mismatches():
    g = GroupKind.symplectic(4)
    spec = SpaceSpec.borel(g)
    with pytest.raises(DomainError, match="blocks"):
        pattern_to_summands(LinkPattern("symplectic", 1, (2,), ()), spec)
    with pytest.raises(DomainError, match="family"):
        pattern_to_summands(LinkPattern.borel("orthogonal", 2), spec)


def test_totals_are_palindromic_for_every_borel_pattern():
    for l in (1, 2, 3):
        for g in (GroupKind.symplectic(2 * l), GroupKind.orthogonal(2 * l),
                  GroupKind.orthogonal(2 * l + 1)):
            spec = SpaceSpec.borel(g)
            want = spec.dimension_vector()
            assert want == want[::-1]
            for p in enumerate_patterns(g.family, l, (1,) * l):
                assert total_dimension_vector(pattern_to_summands(p, spec)) == want


def test_realize_flag_validates_the_loop():
    spec = SpaceSpec.borel(GroupKind.symplectic(4))
    with pytest.raises(DomainError, match="not in sp_4"):
        realize_flag(spec, loop=Matrix.identity(4))
    bad = Matrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0],
                            [0, 0, -2, 0], [0, 0, 0, -1]])
    with pytest.raises(DomainError, match="not 2-nilpotent"):
        realize_flag(spec, loop=bad)


def test_realize_isotropic_flag_validates_bases():
    g = GroupKind.orthogonal(4)
    with pytest.raises(DomainError, match="at least one"):
        realize_isotropic_flag(g, [])
    with pytest.raises(DomainError, match="prefix nesting"):
        realize_isotropic_flag(g, [[[1, 0, 0, 0]],
                                   [[0, 1, 0, 0], [1, 0, 0, 0]]])
    with pytest.raises(DomainError, match="dependent"):
        realize_isotropic_flag(g, [[[1, 0, 0, 0], [2, 0, 0, 0]]])
    # B(e1, e4) = 1 for the anti-diagonal form
    with pytest.raises(DomainError, match="isotropic"):
        realize_isotropic_flag(g, [[[1, 0, 0, 0], [0, 0, 0, 1]]])
    with pytest.raises(DomainError, match="length 4"):
        realize_isotropic_flag(g, [[[1, 0, 0]]])


def test_symmetric_endo_dims_frozen():
    sp4 = SpaceSpec.borel(GroupKind.symplectic(4))
    o4 = SpaceSpec.borel(GroupKind.orthogonal(4))
    o5 = SpaceSpec.borel(GroupKind.orthogonal(5))
    assert symmetric_endo_dim(sp4) == 6
    assert symmetric_endo_dim(o4) == 4
    assert symmetric_endo_dim(o5) == 6
    g = GroupKind.orthogonal(4)
    spread = realize_isotropic_flag(g, [[[1, 0, 0, 0], [0, 0, 1, 0]]])
    assert symmetric_endo_dim(spread) == 5
    standard = realize_isotropic_flag(g, [[[1, 0, 0, 0], [0, 1, 0, 0]]])
    assert symmetric_endo_dim(standard) == 5
    assert symmetric_endo_dim(SpaceSpec(g, (2,))) == 5


def test_symmetric_endo_dim_routes_agree():
    spec = SpaceSpec.borel(GroupKind.orthogonal(5))
    via_spec = symmetric_endo_dim(spec)
    via_rep = symmetric_endo_dim(realize_flag(spec))
    assert via_spec == via_rep == 6
    with pytest.raises(DomainError, match="expected a"):
        symmetric_endo_dim(42)


def test_endo_dim_with_loop_matches_centralizer():
    for g in (GroupKind.symplectic(4), GroupKind.orthogonal(5),
              GroupKind.orthogonal(7)):
        spec = SpaceSpec.borel(g)
        for p in enumerate_patterns(g.family, g.l, (1,) * g.l):
            x = pattern_to_matrix(p, g)
            rep = realize_flag(spec, loop=x)
            assert symmetric_endo_dim(rep) == centralizer_dim_in(x, g, spec), p.text()


def test_endo_dim_is_unchanged_by_rational_bases_and_conjugate_loops():
    # Fractional arrows and loops reach the stabilizer solver cleared to
    # integers one matrix at a time; the dimension must not notice.
    g = GroupKind.orthogonal(4)
    v, w = [1, Fraction(1, 2), 0, 0], [0, 0, Fraction(2, 3), Fraction(-1, 3)]
    fractional = realize_isotropic_flag(g, [[v], [v, w]])
    integral = realize_isotropic_flag(g, [[[2, 1, 0, 0]], [[2, 1, 0, 0], [0, 0, 2, -1]]])
    assert symmetric_endo_dim(fractional) == symmetric_endo_dim(integral)
    g = GroupKind.symplectic(4)
    spec = SpaceSpec.borel(g)
    for idx, p in enumerate(enumerate_patterns(g.family, g.l, (1,) * g.l)):
        x = pattern_to_matrix(p, g)
        u, u_inv = random_group_element_pair(g, spec, 300 + idx)
        rep = realize_flag(spec, loop=u @ x @ u_inv)
        assert symmetric_endo_dim(rep) == centralizer_dim_in(x, g, spec), p.text()


def test_ar_counts_and_skips_frozen():
    assert [len(ar_sequences(l)) for l in (1, 2, 3, 4)] == [12, 28, 53, 89]
    assert [len(ar_skipped(l)) for l in (1, 2, 3, 4)] == [1, 2, 5, 7]
    with pytest.raises(DomainError):
        ar_sequences(0)


def test_ar_sequences_are_dimension_exact():
    for l in (1, 2, 3, 4):
        for seq in ar_sequences(l):
            ends = [sum(x) for x in zip(dimension_vector(seq.left),
                                        dimension_vector(seq.right))]
            mids = [0] * (2 * l + 1)
            for m in seq.middles:
                mids = [a + b for a, b in zip(mids, dimension_vector(m))]
            assert ends == mids, seq.text()


def test_ar_sequences_have_no_duplicates():
    for l in (1, 2, 3):
        triples = [(seq.left, seq.middles, seq.right) for seq in ar_sequences(l)]
        assert len(set(triples)) == len(triples)


def test_projective_cover_rule_is_version_dependent():
    # the rule instantiates cleanly only at l = 2: at l = 1 a middle term is
    # out of range, and from l = 3 on the dimension count fails
    assert any(seq.rule == "mstar_to_projective" for seq in ar_sequences(2))
    skips1 = {s.rule: s.reason for s in ar_skipped(1)}
    assert "invalid member" in skips1["mstar_to_projective"]
    for l in (3, 4):
        skips = {s.rule: s.reason for s in ar_skipped(l)}
        assert skips["mstar_to_projective"] == "dimension additivity fails for l >= 3"


def test_ar_report_lists_sequences_and_skips(capsys):
    assert main(["ar", "--rank", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 53 + 5
    assert lines[0].startswith("0 -> ")
    assert any("skipped mstar_to_projective" in line for line in lines)


def test_coefficient_quiver_node_counts():
    for s in (M(1, 2, 2), Dplus(1, 1, 2), Zplus(1, 2, 2), Cminus(1, 2, 2)):
        dot = coefficient_quiver_dot(s)
        nodes = [line for line in dot.splitlines() if "[label=" in line
                 and "alpha" not in line]
        assert len(nodes) == sum(dimension_vector(s)), s.text()
    assert "alpha" in coefficient_quiver_dot(Zplus(1, 1, 2))
    assert "alpha" not in coefficient_quiver_dot(M(1, 3, 2))


def test_slot_names():
    assert [slot_name(idx, 2) for idx in range(5)] == ["1", "2", "w", "2*", "1*"]


def test_multiset_emitters():
    assert multiset_text([]) == "(empty)"
    g = GroupKind.orthogonal(5)
    ms = flag_to_representation(SpaceSpec.borel(g))
    assert multiset_text(ms) == ("[M(1,3) (+) M*(1,3)] + [M(2,3) (+) M*(2,3)]"
                                 " + [M(3,3)]")
    obj = json.loads(multiset_to_json(ms))
    assert obj["rank"] == 2
    assert obj["pieces"][0] == {"parts": [{"family": "M", "i": 1, "j": 3},
                                          {"family": "M*", "i": 1, "j": 3}],
                                "mult": 1}


rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3, 6)))


@st.composite
def square_matrices(draw):
    """Square matrices, half of them made singular by a dependent last row."""
    n = draw(st.integers(1, 5))
    rows = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        coefs = [draw(rationals) for _ in range(n - 1)]
        rows[-1] = [sum((c * row[j] for c, row in zip(coefs, rows)), Fraction(0))
                    for j in range(n)]
    return Matrix.from_rows(rows)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(square_matrices())
def test_inverse_is_exact_and_refuses_singular_input(g):
    n = g.rows
    if naive_rank(g) < n:
        with pytest.raises(DomainError, match="singular"):
            _inverse(g)
    else:
        inv = _inverse(g)
        assert g @ inv == Matrix.identity(n) == inv @ g
