import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from nilorbits.correspondence import (MalformedInputError, _arcs_by_first_unit,
                                      _decode, identify,
                                      identify_parabolic,
                                      parabolic_representative,
                                      pattern_to_matrix, rank_signature, refine,
                                      tex_matrix, tex_pattern, tex_table)
from nilorbits.harness import _root_word, _word_act, random_group_element_pair
from nilorbits.linalg import (DomainError, GroupKind, Matrix, SpaceSpec,
                              is_two_nilpotent, lie_member)
from nilorbits.patterns import (LinkPattern, dotted, enumerate_patterns,
                                undotted, unoriented_loop, upper_loop)

from conftest import random_rational_matrix, rank_table_direct, reference_pivot_positions


def all_groups(max_l):
    for l in range(1, max_l + 1):
        yield GroupKind.symplectic(2 * l)
        yield GroupKind.orthogonal(2 * l)
        yield GroupKind.orthogonal(2 * l + 1)


def borel_patterns(g):
    return enumerate_patterns(g.family, g.l, (1,) * g.l)


def compositions(total):
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in compositions(total - head):
            yield (head,) + rest


def test_rank_two_symplectic_table(sp4_table):
    g = GroupKind.symplectic(4)
    pats = borel_patterns(g)
    assert {p.text() for p in pats} == set(sp4_table)
    for p in pats:
        assert pattern_to_matrix(p, g) == sp4_table[p.text()], p.text()


def test_rank_two_orthogonal_table(o4_table):
    g = GroupKind.orthogonal(4)
    pats = borel_patterns(g)
    assert {p.text() for p in pats} == set(o4_table)
    for p in pats:
        assert pattern_to_matrix(p, g) == o4_table[p.text()], p.text()


def test_representatives_live_in_the_algebra():
    for g in all_groups(3):
        for p in borel_patterns(g):
            x = pattern_to_matrix(p, g)
            assert lie_member(x, g), (g.name, p.text())
            assert is_two_nilpotent(x), (g.name, p.text())


def test_pattern_to_matrix_rejects():
    g = GroupKind.symplectic(4)
    with pytest.raises(DomainError, match="capacities"):
        pattern_to_matrix(LinkPattern("symplectic", 1, (2,), ()), g)
    with pytest.raises(DomainError, match="family"):
        pattern_to_matrix(LinkPattern.borel("orthogonal", 2), g)
    with pytest.raises(DomainError, match="rank"):
        pattern_to_matrix(LinkPattern.borel("symplectic", 3), g)
    crowded = LinkPattern.borel("symplectic", 1, (upper_loop(1), upper_loop(1)))
    with pytest.raises(DomainError, match="not valid"):
        pattern_to_matrix(crowded, g.symplectic(2))


def test_rank_signature_matches_submatrix_ranks(sp4_table, o4_table):
    mats = list(sp4_table.values()) + list(o4_table.values())
    rng = random.Random(7)
    mats += [random_rational_matrix(rng, n, n) for n in (4, 5) for _ in range(5)]
    for x in mats:
        sig = rank_signature(x)
        direct = rank_table_direct(x)
        n = x.rows
        for i in range(1, n + 2):
            for j in range(0, n + 1):
                assert sig.rank(i, j) == direct[(i, j)], (i, j)


# Zeros, small rationals and rationals with up to 30-digit numerators and
# denominators, mixed in one matrix.
entries = st.one_of(st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3))),
                    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                              st.integers(1, 10 ** 30)))


@st.composite
def square_rationals(draw):
    """Square matrices up to 7x7 whose rows are fresh, zero, or a rational
    multiple of an earlier row, so that lower-left ranks drop."""
    n = draw(st.integers(1, 7))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat")))
        if kind == "repeat" and rows:
            c = draw(st.one_of(st.just(Fraction(1)), entries.filter(bool)))
            rows.append([c * v for v in draw(st.sampled_from(rows))])
        elif kind == "zero":
            rows.append([Fraction(0)] * n)
        else:
            rows.append([draw(entries) for _ in range(n)])
    return Matrix(tuple(map(tuple, rows)))


integer_route = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@integer_route
@given(square_rationals())
def test_integer_pivots_equal_the_fraction_oracle(x):
    assert rank_signature(x).deltas == tuple(sorted(reference_pivot_positions(x)))


@integer_route
@given(square_rationals())
def test_rank_signature_equals_direct_submatrix_ranks(x):
    n = x.rows
    direct = rank_table_direct(x)
    sig = rank_signature(x)
    assert sig.table == tuple(tuple(direct[i, j] for j in range(n + 1))
                              for i in range(1, n + 2))
    assert sig.deltas == tuple(
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1)
        if direct[i, j] - direct[i + 1, j] - direct[i, j - 1] + direct[i + 1, j - 1])


def test_rank_signature_indexing_bounds():
    sig = rank_signature(Matrix.zero(3))
    with pytest.raises(DomainError):
        sig.rank(0, 1)
    with pytest.raises(DomainError):
        sig.rank(1, 4)


def test_delta_positions_frozen(sp4_table):
    assert rank_signature(Matrix.zero(4)).deltas == ()
    assert rank_signature(sp4_table["{1->2}"]).deltas == ((2, 1), (4, 3))
    assert rank_signature(sp4_table["{uloop(1)}"]).deltas == ((1, 4),)
    assert rank_signature(sp4_table["{1..>2}"]).deltas == ((3, 1), (4, 2))


def test_rank_signature_constant_on_orbits():
    for g in (GroupKind.symplectic(4), GroupKind.orthogonal(5)):
        spec = SpaceSpec.borel(g)
        for idx, p in enumerate(borel_patterns(g)):
            x = pattern_to_matrix(p, g)
            base = rank_signature(x)
            for c in range(3):
                u, u_inv = random_group_element_pair(g, spec, 31 * idx + c)
                assert rank_signature(u @ x @ u_inv) == base, (g.name, p.text())


def test_identify_ignores_a_large_denominator_scalar():
    # Scaling keeps every lower-left rank, so the cleared rows of c y and y
    # must give the same pattern however large the content they carry.
    c = Fraction(-(10 ** 29 + 7), 3 * 10 ** 29 + 1)
    for g in (GroupKind.symplectic(6), GroupKind.orthogonal(7)):
        spec = SpaceSpec.borel(g)
        for idx, p in enumerate(borel_patterns(g)):
            y = _word_act(_root_word(spec, idx), pattern_to_matrix(p, g))
            scaled = Matrix(tuple(tuple(c * v for v in row) for row in y.entries))
            assert identify(scaled, g) == identify(y, g) == p, (g.name, p.text())


def test_identify_round_trip():
    for g in all_groups(3):
        for p in borel_patterns(g):
            assert identify(pattern_to_matrix(p, g), g) == p, (g.name, p.text())


def test_identify_rejects_non_members():
    g = GroupKind.symplectic(4)
    with pytest.raises(DomainError, match="expected a 4x4"):
        identify(Matrix.zero(3), g)
    with pytest.raises(DomainError, match="matrix not in sp_4"):
        identify(Matrix.identity(4), g)
    diag = Matrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0],
                             [0, 0, -2, 0], [0, 0, 0, -1]])
    with pytest.raises(DomainError, match="not 2-nilpotent"):
        identify(diag, g)


def test_decode_rejects_malformed_positions():
    sp4, o5 = GroupKind.symplectic(4), GroupKind.orthogonal(5)
    # the middle index, the diagonal, the second unit of 1->2, and the first
    # unit of 1->2 without its mirror (4,3)
    for positions, g, first in (({(3, 1)}, o5, "(3,1)"), ({(2, 2)}, sp4, "(2,2)"),
                                ({(4, 3)}, sp4, "(4,3)"), ({(2, 1)}, sp4, "(2,1)")):
        with pytest.raises(MalformedInputError, match=re.escape(
                f"delta position {first} starts no arc of {g.name}")):
            _decode(positions, g)
    # 1->2 and 2->1 decode, but vertices 1 and 2 each take two arcs
    with pytest.raises(MalformedInputError, match="capacity rule"):
        _decode({(2, 1), (4, 3), (1, 2), (3, 4)}, sp4)


def test_decode_table_holds_every_borel_arc():
    groups = ([GroupKind.symplectic(n) for n in range(2, 13, 2)]
              + [GroupKind.orthogonal(n) for n in range(1, 13)])
    for g in groups:
        loops = 2 * g.l if g.is_symplectic else 0
        assert len(_arcs_by_first_unit(g)) == 4 * comb(g.l, 2) + loops, g.name


def test_delta_positions_are_the_representative_support():
    groups = [GroupKind.orthogonal(1)] + list(all_groups(4))
    for g in groups:
        spec = SpaceSpec.borel(g)
        for idx, p in enumerate(borel_patterns(g)):
            x = pattern_to_matrix(p, g)
            u, u_inv = random_group_element_pair(g, spec, idx)
            for y in (x, u @ x @ u_inv):
                assert set(rank_signature(y).deltas) == set(x.support()), \
                    (g.name, p.text())


def test_refine_worked_example():
    g = GroupKind.symplectic(12)
    spec = SpaceSpec.from_blocks(g, (4, 2))
    p = LinkPattern("symplectic", 2, (4, 2),
                    (unoriented_loop(1), upper_loop(1), dotted(1, 2)))
    fine = refine(p, spec)
    assert fine.text() == "{2->1, uloop(3), 4..>5}"
    x = parabolic_representative(p, spec)
    assert x == pattern_to_matrix(fine, g)
    assert x.support() == [(1, 2), (3, 10), (8, 4), (9, 5), (11, 12)]
    assert identify_parabolic(x, spec) == p


def test_refine_rejects_mismatches():
    g = GroupKind.symplectic(8)
    spec = SpaceSpec.from_blocks(g, (2, 2))
    with pytest.raises(DomainError, match="blocks"):
        refine(LinkPattern("symplectic", 1, (4,), ()), spec)
    with pytest.raises(DomainError, match="family"):
        refine(LinkPattern("orthogonal", 2, (2, 2), ()), spec)


def test_identify_parabolic_round_trips_every_flag():
    totals = {"sp_4": 20, "sp_6": 142, "o_4": 9, "o_5": 9, "o_6": 33}
    groups = [GroupKind.symplectic(4), GroupKind.symplectic(6),
              GroupKind.orthogonal(4), GroupKind.orthogonal(5),
              GroupKind.orthogonal(6)]
    for g in groups:
        seen = 0
        for blocks in compositions(g.l):
            spec = SpaceSpec.from_blocks(g, blocks)
            for p in enumerate_patterns(g.family, len(blocks), blocks):
                x = parabolic_representative(p, spec)
                assert lie_member(x, g) and is_two_nilpotent(x)
                assert identify_parabolic(x, spec) == p, (g.name, blocks, p.text())
                seen += 1
        assert seen == totals[g.name]


def test_tex_emitters():
    assert tex_matrix(Matrix.zero(2)) == (
        "\\begin{pmatrix}\n0 & 0 \\\\\n0 & 0\n\\end{pmatrix}")
    assert tex_pattern(LinkPattern.borel("symplectic", 2)) == "\\varnothing"
    fancy = tex_pattern(LinkPattern.borel(
        "symplectic", 3, (undotted(2, 1), dotted(1, 3), upper_loop(2))))
    assert "\\rightarrow" in fancy and "\\dashrightarrow" in fancy
    assert "\\circlearrowleft" in fancy
    g = GroupKind.orthogonal(4)
    p = borel_patterns(g)[0]
    table = tex_table([(p, pattern_to_matrix(p, g))])
    assert table.splitlines()[0] == "\\begin{tabular}{c|c}"
    assert "pattern & representative" in table.splitlines()[1]
    assert table.splitlines()[-1] == "\\end{tabular}"
