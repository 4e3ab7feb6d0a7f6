import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest

from nilorbits import patterns, quiver
from nilorbits.cli import main
from nilorbits.correspondence import (parabolic_representative,
                                      pattern_to_matrix, refine)
from nilorbits.harness import random_group_element_pair
from nilorbits.linalg import (DomainError, GroupKind, Matrix, SpaceSpec, _form_signs,
                              form_matrix, group_member, orbit_dimension, parabolic_dim,
                              rank)
from nilorbits.patterns import (LinkPattern, _free_capacity, consumption, dotted,
                                enumerate_patterns, pattern_from_json, pattern_to_json,
                                unoriented_loop, upper_loop, validate)
from nilorbits.quiver import (FAMILIES, Summand, SymmetricPiece, SymmetricRep,
                              _canonical, _walk,
                              ar_sequences, catalog, dimension_vector, dual,
                              multiset_text, multiset_to_json,
                              pattern_to_summands, realize_flag,
                              realize_isotropic_flag, symmetric_endo_dim,
                              total_dimension_vector)

from conftest import (dense_commutant_dim, divides_rows, enumerate_strings, flag_positions,
                      hom_dim, position_table, reference_eliminate, reference_intertwiner_rows,
                      reference_summands, small_flag_specs, string_module)


def test_degenerate_names_normalize():
    assert Summand("Z+", 1, 3, 2) == Summand("D+", 1, 3, 2)
    assert Summand("Z-", 3, 2, 2) == Summand("C-", 2, 3, 2)
    assert Summand("Z+", 3, 3, 2) == Summand("D+", 3, 3, 2)
    assert Summand("D-", 2, 2, 3) == Summand("D+", 2, 2, 3)
    assert Summand("C-", 1, 1, 2) == Summand("C+", 1, 1, 2)
    assert Summand("C+", 3, 3, 2) == Summand("D+", 3, 3, 2)
    assert Summand("M*", 3, 3, 2) == Summand("M", 3, 3, 2)
    assert Summand("Z+", 1, 3, 2).family == "D+"
    assert Summand("Z-", 3, 2, 2).text() == "C-(2,3)"


def test_every_accepted_name_is_canonical_and_in_the_catalog():
    # the whole index box around 1..omega, every family, l <= 4: a name that
    # normalizes at all lands on a fixed point of the rules, in the catalog
    accepted = 0
    for l in range(5):
        names = set(catalog(l))
        for family in FAMILIES:
            for i in range(-1, l + 4):
                for j in range(-1, l + 4):
                    try:
                        s = Summand(family, i, j, l)
                    except DomainError:
                        continue
                    accepted += 1
                    assert Summand(s.family, s.i, s.j, s.l) == s, (family, i, j, l)
                    assert s in names, (family, i, j, l)
    assert accepted == 320


def test_summand_range_errors():
    with pytest.raises(DomainError):
        Summand("M", 2, 1, 2)
    with pytest.raises(DomainError):
        Summand("M", 1, 5, 3)
    with pytest.raises(DomainError):
        Summand("Z+", 0, 1, 2)
    with pytest.raises(DomainError):
        Summand("D-", 2, 5, 3)
    with pytest.raises(DomainError):
        Summand("X", 1, 1, 1)
    with pytest.raises(DomainError):
        Summand("M", 1, 1, -1)


@pytest.mark.parametrize("fields", [
    ("M", True, 2, 2), ("M", 1.0, 2, 2), ("M", "1", 2, 2), ("M", 1, 2.0, 2),
    ("M", 1, 2, False), ("M", 1, 2, 2.0), (None, 1, 2, 2), (["M"], 1, 2, 2),
], ids=repr)
def test_summand_refuses_fields_of_the_wrong_type(fields):
    with pytest.raises(DomainError, match="wrong types"):
        Summand(*fields)


def test_dual_is_an_involution_with_known_fixed_points():
    for s in catalog(3):
        assert dual(dual(s)) == s
    assert dual(Summand("M", 1, 2, 3)) == Summand("M*", 1, 2, 3)
    assert dual(Summand("D+", 1, 2, 3)) == Summand("C+", 1, 2, 3)
    assert dual(Summand("D-", 1, 2, 3)) == Summand("C-", 1, 2, 3)
    assert dual(Summand("Z+", 1, 2, 3)) == Summand("Z+", 2, 1, 3)
    assert dual(Summand("M", 4, 4, 3)) == Summand("M", 4, 4, 3)
    assert dual(Summand("Z-", 2, 2, 3)) == Summand("Z-", 2, 2, 3)
    fixed = [s for s in catalog(2) if dual(s) == s]
    want = [Summand(f, i, i, 2) for f, i in
            (("M", 3), ("D+", 3), ("Z+", 1), ("Z+", 2), ("Z-", 1), ("Z-", 2))]
    assert fixed == sorted(want, key=Summand.key)


def test_dimension_vectors_frozen():
    assert dimension_vector(Summand("M", 2, 3, 2)) == (0, 1, 1, 0, 0)
    assert dimension_vector(Summand("M*", 2, 3, 2)) == (0, 0, 1, 1, 0)
    assert dimension_vector(Summand("Z+", 1, 1, 2)) == (1, 1, 2, 1, 1)
    assert dimension_vector(Summand("D+", 1, 1, 2)) == (2, 2, 2, 0, 0)
    assert dimension_vector(Summand("C+", 1, 1, 2)) == (0, 0, 2, 2, 2)
    assert dimension_vector(Summand("D-", 1, 3, 2)) == (1, 1, 2, 0, 0)
    assert SymmetricPiece.pair(Summand("D+", 1, 1, 2)).dimension_vector() == (2, 2, 4, 2, 2)
    assert SymmetricPiece.pair(Summand("M", 2, 3, 2)).dimension_vector() == (0, 1, 2, 1, 0)


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
        SymmetricPiece.single(Summand("M", 1, 2, 2))
    with pytest.raises(DomainError, match="dual pair"):
        SymmetricPiece((Summand("M", 1, 2, 2), Summand("M", 1, 3, 2)))
    with pytest.raises(DomainError, match="one or two"):
        SymmetricPiece((Summand("M", 3, 3, 2),) * 3)
    z = Summand("Z+", 1, 1, 1)
    assert SymmetricPiece((z, z)).dimension_vector() == (2, 4, 2)
    assert SymmetricPiece.pair(Summand("M", 1, 2, 2)).text() == "M(1,2) (+) M*(1,2)"


def test_summands_of_borel_loop_pattern():
    g = GroupKind.symplectic(4)
    spec = SpaceSpec.borel(g)
    p = LinkPattern.borel("symplectic", 2, (upper_loop(1),))
    ms = pattern_to_summands(p, spec)
    assert ms == [(SymmetricPiece.pair(Summand("M", 2, 3, 2)), 1),
                  (SymmetricPiece.single(Summand("Z+", 1, 1, 2)), 1)]


def test_summands_worked_example():
    g = GroupKind.symplectic(12)
    spec = SpaceSpec.from_blocks(g, (4, 2))
    p = LinkPattern("symplectic", 2, (4, 2),
                    (unoriented_loop(1), upper_loop(1), dotted(1, 2)))
    ms = pattern_to_summands(p, spec)
    assert ms == [(SymmetricPiece.pair(Summand("M", 2, 3, 2)), 1),
                  (SymmetricPiece.pair(Summand("D+", 1, 1, 2)), 1),
                  (SymmetricPiece.single(Summand("Z+", 1, 1, 2)), 1),
                  (SymmetricPiece.pair(Summand("Z-", 1, 2, 2)), 1)]
    assert total_dimension_vector(ms) == (4, 6, 12, 6, 4)
    assert total_dimension_vector(ms) == spec.dimension_vector()
    assert total_dimension_vector([]) == ()


def test_summands_orthogonal_loops_come_doubled():
    g = GroupKind.orthogonal(4)
    spec = SpaceSpec.from_blocks(g, (2,))
    p = LinkPattern("orthogonal", 1, (2,), (upper_loop(1),))
    z = Summand("Z+", 1, 1, 1)
    assert pattern_to_summands(p, spec) == [(SymmetricPiece((z, z)), 1)]
    # Two dotted orthogonal loops take 4 from a capacity of 2.
    over = LinkPattern("orthogonal", 1, (2,), (upper_loop(1), upper_loop(1)))
    with pytest.raises(DomainError, match="not valid for its capacities"):
        pattern_to_summands(over, spec)


def test_summands_odd_middle_is_single():
    g = GroupKind.orthogonal(5)
    spec = SpaceSpec.borel(g)
    ms = pattern_to_summands(LinkPattern(g.family, spec.k, spec.blocks, ()), spec)
    assert ms == [(SymmetricPiece.pair(Summand("M", 1, 3, 2)), 1),
                  (SymmetricPiece.pair(Summand("M", 2, 3, 2)), 1),
                  (SymmetricPiece.single(Summand("M", 3, 3, 2)), 1)]


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


# SHA-256 of multiset_to_json, one line per pattern, over every flag of
# sp_2..sp_8 and o_1..o_9 (empty flags included), frozen from the
# construction with one fresh piece per arc and per copy.
SUMMANDS_DIGEST = "6edfd83910af9262beea6bda40abea32993c40261a3e2dd3a3e790d4c540890a"


def test_summands_match_the_fresh_reference_on_every_flag():
    digest, seen = hashlib.sha256(), 0
    for g in ([GroupKind.symplectic(n) for n in range(2, 9, 2)]
              + [GroupKind.orthogonal(n) for n in range(1, 10)]):
        for k in range(g.l + 1):
            for flag in combinations(range(1, g.l + 1), k):
                spec = SpaceSpec(g, flag)
                for p in enumerate_patterns(g.family, spec.k, spec.blocks):
                    ms = pattern_to_summands(p, spec)
                    assert ms == reference_summands(p, spec), (g.name, flag, p.text())
                    digest.update(multiset_to_json(ms).encode() + b"\n")
                    seen += 1
    assert seen == 2266
    assert digest.hexdigest() == SUMMANDS_DIGEST


def test_summands_share_pieces_but_return_a_fresh_list():
    # every branch at once: an arc, an unoriented loop, a free copy at
    # block 1 and the single middle piece of odd n
    g = GroupKind.orthogonal(11)
    spec = SpaceSpec.from_blocks(g, (2, 3))
    p = LinkPattern(g.family, 2, (2, 3), (dotted(2, 1), unoriented_loop(2)))
    first = pattern_to_summands(p, spec)
    want = list(first)
    first[0] = (first[0][0], 99)
    first.append(first[0])
    second = pattern_to_summands(p, spec)
    assert second == want == reference_summands(p, spec)
    assert all(a is b for (a, _), (b, _) in zip(second, want))


@pytest.mark.parametrize("first", ["symplectic", "orthogonal"])
def test_one_arc_object_costs_and_translates_by_the_kind_of_each_pattern(first):
    # One upper loop object in an sp and in an o pattern, read in both
    # orders: it takes 1 of its vertex's capacity in sp and 2 in o, and
    # translates to a single Z+ in sp and a doubled one in o, so nothing
    # kept on the arc or per level may ignore the kind.
    loop = upper_loop(1)
    groups = {"symplectic": GroupKind.symplectic(6), "orthogonal": GroupKind.orthogonal(7)}
    for kind in sorted(groups, key=lambda kind: kind != first):
        g, weight = groups[kind], 1 if kind == "symplectic" else 2
        spec = SpaceSpec.from_blocks(g, (2, 1))
        p = LinkPattern(kind, 2, (2, 1), (loop,))
        assert p.arcs[0] is loop
        assert consumption(p) == (weight, 0)
        assert validate(p)
        assert list(_free_capacity(p, spec)) == [2 - weight, 1]
        assert pattern_to_summands(p, spec) == reference_summands(p, spec)
        borel, borel_spec = LinkPattern.borel(kind, 3, (loop,)), SpaceSpec.borel(g)
        assert consumption(borel) == (weight, 0, 0)
        assert validate(borel) == (weight == 1)
        if weight == 1:
            assert pattern_to_summands(borel, borel_spec) == reference_summands(borel,
                                                                               borel_spec)
        else:
            for gate in (_free_capacity, pattern_to_summands):
                with pytest.raises(DomainError, match="not valid for its capacities"):
                    gate(borel, borel_spec)


def test_fresh_arc_objects_translate_like_the_enumerated_ones(monkeypatch):
    # Arcs built anew (decoded from JSON, or refined to the Borel level)
    # are equal to the enumerated ones but not the same objects; they fill
    # an empty level memo and read it back alike.
    g = GroupKind.orthogonal(11)
    spec, borel_spec = SpaceSpec.from_blocks(g, (1, 2, 2)), SpaceSpec.borel(g)
    quiver._level.cache_clear()
    found = enumerate_patterns(g.family, spec.k, spec.blocks)
    for p in found:
        fresh = pattern_from_json(pattern_to_json(p))
        assert fresh == p and all(a is not b for a, b in zip(fresh.arcs, p.arcs))
        refined = refine(p, spec)
        for q, at in ((fresh, spec), (p, spec), (refined, borel_spec)):
            assert pattern_to_summands(q, at) == reference_summands(q, at), q.text()
    # A level is never tabulated: one arc of sp_8000 translates with the
    # arc-type table refused, and the level's memo holds that arc alone.
    def refuse(k):
        raise AssertionError(f"_arc_types({k}) was built")

    monkeypatch.setattr(patterns, "_arc_types", refuse)
    big = GroupKind.symplectic(8000)
    arc = dotted(4000, 1)
    p = LinkPattern.borel(big.family, 4000, (arc,))
    assert pattern_to_summands(p, SpaceSpec.borel(big)) == reference_summands(
        p, SpaceSpec.borel(big))
    assert list(quiver._level(4000, big.family, 8000, 4000)[2]) == [arc]


def test_realize_flag_validates_the_loop():
    spec = SpaceSpec.borel(GroupKind.symplectic(4))
    with pytest.raises(DomainError, match="not in sp_4"):
        realize_flag(spec, loop=Matrix.identity(4))
    bad = Matrix.from_rows([[1, 0, 0, 0], [0, 2, 0, 0],
                            [0, 0, -2, 0], [0, 0, 0, -1]])
    with pytest.raises(DomainError, match="not 2-nilpotent"):
        realize_flag(spec, loop=bad)


def test_realize_flag_builds_the_standard_flag_on_integer_rows():
    # [I; 0] and the zero loop are written as integer rows: equal to the
    # Fraction construction, entry by entry, with Fraction entries and the
    # cleared rows a fresh clearing of those entries gives.  The isotropy
    # scan accepts each basis, whose dense form product vanishes.
    specs = small_flag_specs()
    assert len(specs) == 379
    for spec in specs:
        g, d = spec.group, spec.flag[-1] if spec.flag else 0
        rep = realize_flag(spec)
        assert rep.basis == Matrix.from_rows([[int(p == q) for q in range(d)]
                                              for p in range(g.n)])
        assert (rep.basis.transpose() @ form_matrix(g) @ rep.basis).is_zero()
        assert rep.loop == Matrix.zero(g.n)
        for m in (rep.basis, rep.loop):
            assert all(type(v) is Fraction for row in m.entries for v in row)
            assert m._ints == Matrix(m.entries, m.cols)._ints


def test_realize_isotropic_flag_validates_bases():
    g = GroupKind.orthogonal(4)
    with pytest.raises(DomainError, match="at least one"):
        realize_isotropic_flag(g, [])
    for empty_step in ([[]], [[], [[1, 0, 0, 0]]]):
        with pytest.raises(DomainError, match="strictly increasing positive"):
            realize_isotropic_flag(g, empty_step)
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
    # a float would enter as its binary approximation, so it is refused
    with pytest.raises(DomainError, match="exact rationals"):
        realize_isotropic_flag(g, [[[0.1, 0, 0, 0]]])


def test_symmetric_rep_is_always_an_isotropic_flag():
    # The checks live on the representation itself, so one built directly
    # is refused exactly as `realize_isotropic_flag` refuses its bases.
    g = GroupKind.orthogonal(4)
    spec, zero = SpaceSpec(g, (1, 2)), Matrix.zero(4)
    rep = SymmetricRep(spec, Matrix.from_rows([[1, 0], [0, 1], [0, 0], [0, 0]]), zero)
    assert rep == realize_flag(spec)
    refused = [("dependent", Matrix.from_rows([[1, 2], [0, 0], [0, 0], [0, 0]]), zero),
               # B(e1, e4) = 1 for the anti-diagonal form
               ("isotropic", Matrix.from_rows([[1, 0], [0, 0], [0, 0], [0, 1]]), zero),
               ("shape 4x1, expected 4x2", Matrix.from_rows([[1], [0], [0], [0]]), zero),
               ("shape 2x4, expected 4x2", Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]]),
                zero),
               ("not 2-nilpotent", rep.basis,
                Matrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]])),
               ("middle space", rep.basis, Matrix.zero(3)),
               ("basis Matrix", [[1, 0], [0, 1], [0, 0], [0, 0]], zero),
               ("loop Matrix", rep.basis, None)]
    for message, basis, loop in refused:
        with pytest.raises(DomainError, match=message):
            SymmetricRep(spec, basis, loop)
    # the empty flag has an n x 0 basis, which passes the same checks
    empty = SymmetricRep(SpaceSpec(g, ()), Matrix.zero(4, 0), zero)
    assert (empty.basis.rows, empty.basis.cols) == (4, 0)
    assert symmetric_endo_dim(empty) == parabolic_dim(SpaceSpec(g, ())) == 6


def test_the_empty_flag_goes_through_the_rank_and_isotropy_checks(monkeypatch):
    # An n x 0 basis keeps its shape through the transpose and the products,
    # so the empty flag is checked like every other flag, not skipped.
    checked = []
    monkeypatch.setattr(quiver, "rank", lambda m: checked.append(("rank", m)) or rank(m))
    monkeypatch.setattr(quiver, "_form_signs",
                        lambda g: checked.append(("form", g)) or _form_signs(g))
    for g in (GroupKind.symplectic(4), GroupKind.orthogonal(4), GroupKind.orthogonal(5)):
        spec = SpaceSpec(g, ())
        checked.clear()
        rep = realize_flag(spec)
        assert checked == [("rank", Matrix.zero(g.n, 0)), ("form", g)]
        assert (rep.basis.rows, rep.basis.cols) == (g.n, 0)
        assert rep == SymmetricRep(spec, Matrix.zero(g.n, 0), Matrix.zero(g.n))
        assert symmetric_endo_dim(rep) == parabolic_dim(spec)
        with pytest.raises(DomainError, match=f"shape {g.n - 1}x0, expected {g.n}x0"):
            SymmetricRep(spec, Matrix.zero(g.n - 1, 0), Matrix.zero(g.n))
        with pytest.raises(DomainError, match="loop is not 2-nilpotent"):
            realize_flag(spec, Matrix.unit(g.n, 1, 1) - Matrix.unit(g.n, g.n, g.n))


def test_the_isotropy_scan_equals_the_dense_form_product():
    # `SymmetricRep` scans its basis's integer rows for transpose(B) F B = 0;
    # the dense product with `form_matrix` is the oracle.  Borel images of
    # the standard basis (isotropic) and their one-entry changes are
    # accepted exactly when the product vanishes.
    accepted = refused = 0
    for g in (GroupKind.symplectic(4), GroupKind.symplectic(6), GroupKind.orthogonal(4),
              GroupKind.orthogonal(5), GroupKind.orthogonal(7)):
        f, zero = form_matrix(g), Matrix.zero(g.n)
        for d in range(1, g.l + 1):
            spec = SpaceSpec(g, (d,))
            standard = realize_flag(spec).basis
            for seed in range(6):
                u, _ = random_group_element_pair(g, SpaceSpec.borel(g), seed)
                image = [list(row) for row in (u @ standard).entries]
                changed = [row[:] for row in image]
                changed[(seed * 5) % g.n][seed % d] += 1
                for rows in (image, changed):
                    basis = Matrix.from_rows(rows)
                    if rank(basis) < d:
                        continue
                    if (basis.transpose() @ f @ basis).is_zero():
                        assert SymmetricRep(spec, basis, zero).basis == basis
                        accepted += 1
                    else:
                        with pytest.raises(DomainError, match="not totally isotropic"):
                            SymmetricRep(spec, basis, zero)
                        refused += 1
    assert accepted and refused


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


def test_symmetric_endo_dim_equals_parabolic_dim_on_every_flag():
    # every flag of every group with n <= 8, the empty flag (k = 0) included
    groups = ([GroupKind.symplectic(n) for n in range(2, 9, 2)]
              + [GroupKind.orthogonal(n) for n in range(1, 9)])
    count = 0
    for g in groups:
        for k in range(g.l + 1):
            for flag in combinations(range(1, g.l + 1), k):
                spec = SpaceSpec(g, flag)
                assert symmetric_endo_dim(spec) == parabolic_dim(spec), (g.name, flag)
                count += 1
    assert count == 75
    o1 = SpaceSpec.borel(GroupKind.orthogonal(1))
    assert o1.flag == () and symmetric_endo_dim(o1) == parabolic_dim(o1) == 0


def test_endo_dim_with_loop_matches_centralizer():
    for g in (GroupKind.symplectic(4), GroupKind.orthogonal(5),
              GroupKind.orthogonal(7)):
        for spec in dict.fromkeys((SpaceSpec.borel(g), SpaceSpec(g, (g.l,)),
                                   SpaceSpec(g, (1, g.l)))):
            for p in enumerate_patterns(g.family, g.l, (1,) * g.l):
                x = pattern_to_matrix(p, g)
                rep = realize_flag(spec, loop=x)
                assert (symmetric_endo_dim(rep) == parabolic_dim(spec) - orbit_dimension(x, spec)
                        ), (spec.flag, p.text())


@pytest.mark.parametrize("g", [GroupKind.symplectic(6), GroupKind.orthogonal(6),
                               GroupKind.orthogonal(7)], ids=lambda g: g.name)
def test_endo_dim_with_loop_matches_the_dense_stabilizer(g):
    # orbit_dimension shares the solver's sparse row builder, so a sign
    # slip there (A f + f B for A f - f B) would move both sides alike.  The
    # dense oracle writes transpose(a) F + F a = 0 and [a, x] = 0 itself.
    for flag in dict.fromkeys((SpaceSpec.borel(g).flag, (1, g.l))):
        spec, positions = SpaceSpec(g, flag), flag_positions(g.n, flag)
        for p in enumerate_patterns(g.family, g.l, (1,) * g.l):
            x = pattern_to_matrix(p, g)
            assert (symmetric_endo_dim(realize_flag(spec, loop=x))
                    == dense_commutant_dim(g, positions, x)), (flag, p.text())


def test_stabilizer_systems_equal_the_reference_kernel_and_rows(monkeypatch):
    # Every system `symmetric_endo_dim` builds on every flag of sp_2 ...
    # sp_8 and o_1 ... o_9: the bare flag, and with the loop of each orbit
    # representative where the flag reaches l.  Its rows equal the
    # position-by-position reference, and the kernel on them agrees with
    # the scanning reference: the same pivots, and each reference pivot row
    # an integer multiple of the kernel's.
    build, eliminate = quiver._intertwiner_rows, quiver._eliminate
    systems = []

    def checked_rows(f, head, tail):
        rows = build(f, head, tail)
        assert rows == reference_intertwiner_rows(f, position_table(head), position_table(tail))
        return rows

    def checked_kernel(rows, cols):
        theirs = [dict(row) for row in rows]
        pivots = eliminate(rows, cols)
        assert pivots == reference_eliminate(theirs, cols) and divides_rows(rows, theirs)
        systems.append(cols)
        return pivots

    monkeypatch.setattr(quiver, "_intertwiner_rows", checked_rows)
    monkeypatch.setattr(quiver, "_eliminate", checked_kernel)
    groups = ([GroupKind.symplectic(n) for n in range(2, 9, 2)]
              + [GroupKind.orthogonal(n) for n in range(1, 10)])
    for g in groups:
        for k in range(g.l + 1):
            for flag in combinations(range(1, g.l + 1), k):
                spec = SpaceSpec(g, flag)
                symmetric_endo_dim(spec)
                if flag and flag[-1] == g.l:
                    for p in enumerate_patterns(g.family, k, spec.blocks):
                        x = parabolic_representative(p, spec)
                        symmetric_endo_dim(realize_flag(spec, loop=x))
    assert len(systems) == 2045


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
        assert symmetric_endo_dim(rep) == parabolic_dim(spec) - orbit_dimension(x, spec), p.text()


def levi(g: GroupKind, a, b) -> Matrix:
    """diag(a, [1], J b^T J), the middle 1 only for odd n.  With b = a^-1
    this is a Levi element h of the Borel flag, and levi(g, b, a) is h^-1."""
    l, n = g.l, g.n
    rows = [[1 if p == q == l else 0 for q in range(n)] for p in range(n)]
    for i in range(l):
        for j in range(l):
            rows[i][j] = a[i][j]
            rows[n - l + i][n - l + j] = b[l - 1 - j][l - 1 - i]
    return Matrix.from_rows(rows)


# unimodular integer A, each with its inverse
LEVI_FACTORS = [
    ([[2, 1, 0], [1, 1, 0], [0, 1, 1]], [[1, -1, 0], [-1, 2, 0], [1, -2, 1]]),
    ([[1, 0, 0], [-1, 1, 0], [2, 3, 1]], [[1, 0, 0], [1, 1, 0], [-5, -3, 1]]),
]


@pytest.mark.parametrize("g", [GroupKind.symplectic(6), GroupKind.orthogonal(6),
                               GroupKind.orthogonal(7)], ids=lambda g: g.name)
def test_endo_dim_on_levi_conjugated_flags_matches_centralizer(g):
    # The flag h e_1 c ... with loop h x h^-1 is the standard one moved by h,
    # so its stabilizer has the standard dimension.  Its last arrow is not a
    # coordinate inclusion, so the arrow rows mix the mate-pair coordinates
    # of A_omega.
    for a, a_inv in LEVI_FACTORS:
        h, h_inv = levi(g, a, a_inv), levi(g, a_inv, a)
        assert h @ h_inv == Matrix.identity(g.n) and group_member(h, g)
        columns = [list(col) for col in h.transpose().entries]
        for flag in ((1, g.l), (g.l,)):
            spec = SpaceSpec(g, flag)
            for p in enumerate_patterns(g.family, g.l, (1,) * g.l):
                x = pattern_to_matrix(p, g)
                rep = realize_isotropic_flag(g, [columns[:d] for d in flag],
                                             loop=h @ x @ h_inv)
                assert rep.basis != realize_flag(spec).basis
                assert (symmetric_endo_dim(rep) == parabolic_dim(spec) - orbit_dimension(x, spec)
                        ), (flag, p.text())


def test_ar_sequences_cover_every_non_projective_once():
    # A(l) has 2l+1 indecomposable projectives, and every other
    # indecomposable is the right end of exactly one AR sequence.  tau is a
    # bijection onto the non-injectives, and the injectives are the duals of
    # the projectives (dual reflects the quiver and dualizes the spaces).
    for l in range(1, 7):
        sequences = ar_sequences(l)
        assert len(sequences) == len(catalog(l)) - (2 * l + 1)
        rights = [seq.right for seq in sequences]
        assert len(set(rights)) == len(rights)
        lefts = [seq.left for seq in sequences]
        injectives = {dual(s) for s in set(catalog(l)) - set(rights)}
        assert set(lefts) == set(catalog(l)) - injectives
        assert len(set(lefts)) == len(lefts)
    assert [len(ar_sequences(l)) for l in (1, 2, 3, 4)] == [11, 31, 61, 101]
    with pytest.raises(DomainError):
        ar_sequences(0)


def test_strings_of_a_l_are_the_catalog():
    # Every indecomposable of A(l) is a string module, so the strings found by
    # an independent search, up to inversion, are exactly the catalog's walks.
    for l in range(1, 7):
        walks = {_canonical(_walk(s)): s for s in catalog(l)}
        assert len(walks) == len(catalog(l)) == (5 * l + 2) * (l + 1)
        assert enumerate_strings(l) == set(walks)
        for walk, s in walks.items():
            dims = [0] * (2 * l + 1)
            for v in walk[::2]:
                dims[v] += 1
            assert tuple(dims) == dimension_vector(s), s.text()


def test_ar_sequences_satisfy_the_defect_formula():
    # 0 -> L -> E -> R -> 0 is almost split iff, for every indecomposable X,
    # dim Hom(X, L) - dim Hom(X, E) + dim Hom(X, R) = [X = R].
    for l in (1, 2, 3):
        modules = {s: string_module(_walk(s), l) for s in catalog(l)}
        homs = {}

        def hom(x, y):
            if (x, y) not in homs:
                homs[x, y] = hom_dim(modules[x], modules[y])
            return homs[x, y]

        for seq in ar_sequences(l):
            for x in modules:
                defect = (hom(x, seq.left) - sum(hom(x, m) for m in seq.middles)
                          + hom(x, seq.right))
                assert defect == (x == seq.right), (seq.text(), x.text())


def flag_module(spec, x):
    """The A(k) representation of the standard flag with loop x.

    V_s = <e_1..e_{d_s}>, V_omega = Q^n and V_{s*} = V / V_s^perp, whose basis
    is the images of e_{n+1-d_s}..e_n.  Every space is thus a window of the
    coordinates of Q^n, and every line arrow (inclusion or projection) keeps
    the coordinates its two windows share; alpha is x.
    """
    n, k = spec.group.n, spec.k
    dims = spec.flag + (n,) + spec.flag[::-1]
    lows = [0] * (k + 1) + [n - d for d in spec.flag[::-1]]
    maps = {s: [[int(lows[s] + c == lows[s + 1] + r) for c in range(dims[s])]
                for r in range(dims[s + 1])] for s in range(2 * k)}
    assert all(v.denominator == 1 for row in x.entries for v in row)
    maps["alpha"] = [[int(v) for v in row] for row in x.entries]
    return dims, maps


@pytest.mark.parametrize("g, blocks", [
    (GroupKind.symplectic(4), None), (GroupKind.symplectic(6), None),
    (GroupKind.orthogonal(5), None), (GroupKind.orthogonal(6), None),
    (GroupKind.orthogonal(7), None), (GroupKind.symplectic(8), (2, 2)),
    (GroupKind.orthogonal(9), (2, 1, 1)),
], ids=["sp_4", "sp_6", "o_5", "o_6", "o_7", "sp_8-2,2", "o_9-2,1,1"])
def test_summands_match_the_flag_representation_by_hom_vectors(g, blocks):
    # Hom(X, -) over all indecomposables X determines a module (Auslander), so
    # this pins pattern_to_summands, and the alpha directions of _walk, to the
    # representation the orbit's representative actually gives.
    spec = SpaceSpec.borel(g) if blocks is None else SpaceSpec.from_blocks(g, blocks)
    k = spec.k
    modules = {s: string_module(_walk(s), k) for s in catalog(k)}
    homs = {}
    for p in enumerate_patterns(g.family, k, spec.blocks):
        rep = flag_module(spec, parabolic_representative(p, spec))
        parts = [part for piece, mult in pattern_to_summands(p, spec)
                 for part in piece.parts * mult]
        for x, mx in modules.items():
            want = sum(homs.setdefault((x, y), hom_dim(mx, modules[y])) for y in parts)
            assert hom_dim(mx, rep) == want, (p.text(), x.text())


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


def test_ar_report_lists_sequences_and_skips(capsys):
    assert main(["ar", "--rank", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 61
    assert all(line.startswith("0 -> ") and line.endswith(" -> 0") for line in lines)
    assert not any("skipped" in line for line in lines)


def test_multiset_emitters():
    assert multiset_text([]) == "(empty)"
    g = GroupKind.orthogonal(5)
    spec = SpaceSpec.borel(g)
    ms = pattern_to_summands(LinkPattern(g.family, spec.k, spec.blocks, ()), spec)
    assert multiset_text(ms) == ("[M(1,3) (+) M*(1,3)] + [M(2,3) (+) M*(2,3)]"
                                 " + [M(3,3)]")
    obj = json.loads(multiset_to_json(ms))
    assert obj["rank"] == 2
    assert obj["pieces"][0] == {"parts": [{"family": "M", "i": 1, "j": 3},
                                          {"family": "M*", "i": 1, "j": 3}],
                                "mult": 1}
