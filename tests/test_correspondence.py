import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from nilorbits.correspondence import (MalformedInputError, _arc_at, _arc_units,
                                      _decode, _decoded, identify,
                                      identify_parabolic,
                                      parabolic_representative,
                                      pattern_to_matrix, rank_signature, refine,
                                      tex_matrix, tex_pattern, tex_table)
from nilorbits.harness import _root_word, _word_act, random_group_element_pair
from nilorbits.linalg import (DomainError, GroupKind, Matrix, SpaceSpec,
                              is_two_nilpotent, lie_member, orbit_dimension)
from nilorbits.patterns import (Arc, LinkPattern, count_borel, dotted,
                                enumerate_patterns, glue, undotted,
                                unoriented_loop, upper_loop, validate)

from conftest import (random_rational_matrix, rank_table_direct, reference_arc_table,
                      reference_arc_units, reference_pivot_positions,
                      self_dual_link_patterns)


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
    with pytest.raises(DomainError, match="square"):
        rank_signature(Matrix.zero(2, 3))


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
            y = Matrix._from_ints(*_word_act(_root_word(spec, idx),
                                             pattern_to_matrix(p, g)._ints))
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


def test_decode_refuses_a_loop_and_an_arc_on_one_vertex():
    # (1,4) starts uloop(1) and (2,1) with its mate (4,3) starts 1->2: both
    # arcs decode, but vertex 1 of a Borel sp_4 pattern holds only one.
    sp4 = GroupKind.symplectic(4)
    assert _arc_at(1, 4, sp4) == upper_loop(1)
    assert _arc_at(2, 1, sp4) == undotted(1, 2)
    with pytest.raises(MalformedInputError) as refused:
        _decode({(1, 4), (2, 1), (4, 3)}, sp4)
    assert type(refused.value) is MalformedInputError
    assert str(refused.value) == "decoded arcs violate the pattern capacity rule"


def test_a_decode_memo_hit_equals_a_fresh_decode():
    # `identify` and `_identify_rows` decode through the memo `_decoded`:
    # on every Borel pattern of sp_2 ... sp_8 and o_3 ... o_9, the second
    # call hits and returns the pattern a fresh `_decode` builds.
    groups = ([GroupKind.symplectic(n) for n in range(2, 9, 2)]
              + [GroupKind.orthogonal(n) for n in range(3, 10)])
    checked = 0
    for g in groups:
        for p in enumerate_patterns(g.family, g.l, (1,) * g.l):
            deltas = rank_signature(pattern_to_matrix(p, g)).deltas
            first = _decoded(deltas, g)
            hits = _decoded.cache_info().hits
            hit = _decoded(deltas, g)
            assert _decoded.cache_info().hits == hits + 1
            assert hit is first and hit == _decode(deltas, g) == p, (g.name, p.text())
            checked += 1
    assert checked == sum(count_borel(g.family, g.l) for g in groups)


def test_a_refused_decode_is_never_memoized():
    # A refusal is raised from the memo, not kept in it: the same
    # positions are refused again with the same message, and the memo
    # does not grow.
    sp4, o5 = GroupKind.symplectic(4), GroupKind.orthogonal(5)
    _decoded.cache_clear()
    for positions, g in ((((3, 1),), o5), (((2, 2),), sp4), (((4, 3),), sp4),
                         (((2, 1),), sp4), (((1, 2), (2, 1), (3, 4), (4, 3)), sp4),
                         (((1, 4), (2, 1), (4, 3)), sp4)):
        with pytest.raises(MalformedInputError) as fresh:
            _decode(positions, g)
        for _ in range(2):
            with pytest.raises(MalformedInputError) as refused:
                _decoded(positions, g)
            assert str(refused.value) == str(fresh.value)
            assert _decoded.cache_info().currsize == 0


def test_a_pattern_names_the_complex_orbit_not_the_rational_one():
    # In sp_2, E_12 and 2 E_12 share a pattern, but the rational Borel
    # subgroup puts only t^2 at that entry, and 2 is no rational square.
    sp2 = GroupKind.symplectic(2)
    one, two = Matrix.from_rows([[0, 1], [0, 0]]), Matrix.from_rows([[0, 2], [0, 0]])
    assert identify(one, sp2) == identify(two, sp2) == LinkPattern.borel(
        "symplectic", 1, [upper_loop(1)])


def test_arc_table_is_the_reference_representative_table():
    # `_arc_at` and `_arc_units` read every arc and every sign off the
    # form's signs; the reference table states them case by case.  The fold
    # starts each arc that fits a Borel pattern at exactly one position,
    # its earlier one.
    groups = ([GroupKind.symplectic(n) for n in range(2, 13, 2)]
              + [GroupKind.orthogonal(n) for n in range(1, 14)])
    for g in groups:
        starts = {(r, c): arc for r in range(1, g.n + 1) for c in range(1, g.n + 1)
                  if (arc := _arc_at(r, c, g)) is not None}
        arcs = set(starts.values())
        loops = 2 * g.l if g.is_symplectic else 0
        assert len(arcs) == 4 * comb(g.l, 2) + loops, g.name
        assert len(starts) == len(arcs)
        for arc in arcs:
            assert validate(LinkPattern.borel(g.family, g.l, [arc]))
            pos, mate, sign = _arc_units(arc, g)
            assert starts[pos] is arc and _arc_at(*pos, g) == arc and pos <= mate
            assert {mate: sign, pos: 1} == reference_arc_units(arc, g), (g.name, arc)


def test_the_fold_and_its_inverse_equal_the_reference_table():
    # Both closed forms against the reference table read off the dense
    # form: `_arc_at` at every position, `_arc_units` at every arc.
    groups = ([GroupKind.symplectic(n) for n in range(2, 41, 2)]
              + [GroupKind.orthogonal(n) for n in range(1, 42)])
    for g in groups:
        table = reference_arc_table(g)
        for r in range(1, g.n + 1):
            for c in range(1, g.n + 1):
                entry = table.get((r, c))
                assert _arc_at(r, c, g) == (entry and entry[0]), (g.name, r, c)
        for key, (arc, pos, mate, sign) in table.items():
            if isinstance(key, Arc):
                assert _arc_units(arc, g) == (pos, mate, sign), (g.name, arc)


def test_borel_patterns_are_the_self_dual_type_a_link_patterns():
    # The fold as a bijection: every self-dual oriented link pattern of gl_n
    # (no anti-diagonal position in o, where a loop cannot fit) decodes, and
    # its decoded pattern's representative has exactly its positions.  There
    # are as many as Borel patterns, so every orbit is reached once.
    groups = ([GroupKind.symplectic(n) for n in range(2, 13, 2)]
              + [GroupKind.orthogonal(n) for n in range(3, 14)])
    for g in groups:
        found = 0
        for positions in self_dual_link_patterns(g.n, g.is_symplectic):
            p = _decode(positions, g)
            assert set(pattern_to_matrix(p, g).support()) == positions, (g.name, p.text())
            found += 1
        assert found == count_borel(g.family, g.l), g.name


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


# sp_4..sp_8 and o_4..o_9: every flag of each that reaches l
REPRESENTATIVE_GROUPS = [GroupKind.symplectic(n) for n in (4, 6, 8)] + [
    GroupKind.orthogonal(n) for n in range(4, 10)]


@pytest.mark.parametrize("g", REPRESENTATIVE_GROUPS, ids=lambda g: g.name)
def test_the_glued_representative_has_the_borel_representative_orbit_dimension(g):
    # The Borel representative lies in the P-orbit that its glued pattern
    # indexes, and the orbit dimension is constant on a P-orbit, so solving
    # on either representative gives the same dimension: CLI `identify`
    # reports the one of the decoded pattern's representative.
    for blocks in compositions(g.l):
        spec = SpaceSpec.from_blocks(g, blocks)
        for p in borel_patterns(g):
            want = orbit_dimension(pattern_to_matrix(p, g), spec)
            got = orbit_dimension(parabolic_representative(glue(p, spec), spec), spec)
            assert got == want, (g.name, blocks, p.text())


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
