import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import raw_arc_costs, raw_filter_count, reference_word_act
from hypothesis import given, settings, strategies as st

from nilorbits.correspondence import (identify, identify_parabolic,
                                      parabolic_representative, pattern_to_matrix,
                                      rank_signature)
from nilorbits.harness import (SuiteConfig, _root_word, _word_act,
                               brute_force_count, exp_nilpotent,
                               random_group_element_pair, run_suite,
                               suite_report_json)
from nilorbits.linalg import (DomainError, GroupKind, Matrix, SpaceSpec,
                              group_member, lie_algebra_basis, lie_member,
                              matrix_from_obj)
from nilorbits.patterns import enumerate_patterns


def test_exp_nilpotent():
    e12 = Matrix.unit(3, 1, 2)
    assert exp_nilpotent(e12) == Matrix.identity(3) + e12
    assert exp_nilpotent(Matrix.zero(2)) == Matrix.identity(2)
    with pytest.raises(DomainError, match="not nilpotent"):
        exp_nilpotent(Matrix.identity(2))
    with pytest.raises(DomainError, match="square"):
        exp_nilpotent(Matrix.from_rows([[0, 1]]))


def test_random_elements_are_deterministic_in_the_seed():
    g = GroupKind.symplectic(6)
    spec = SpaceSpec.borel(g)
    assert (random_group_element_pair(g, spec, 5)[0]
            == random_group_element_pair(g, spec, 5)[0])
    assert (random_group_element_pair(g, spec, 5)[0]
            != random_group_element_pair(g, spec, 6)[0])


def test_random_pairs_are_exact_group_members():
    for g in (GroupKind.symplectic(4), GroupKind.orthogonal(5)):
        spec = SpaceSpec.borel(g)
        for seed in range(8):
            u, u_inv = random_group_element_pair(g, spec, seed)
            assert u @ u_inv == Matrix.identity(g.n)
            assert group_member(u, g)
            assert u.is_upper_triangular()


def test_random_pair_checks_the_spec():
    g = GroupKind.symplectic(4)
    other = SpaceSpec.borel(GroupKind.symplectic(6))
    with pytest.raises(DomainError, match="different group"):
        random_group_element_pair(g, other, 0)
    # the unipotent part is always Borel, so a coarser flag is refused
    for coarser in (SpaceSpec(g, ()), SpaceSpec.from_blocks(g, (2,))):
        with pytest.raises(DomainError, match="not the Borel flag"):
            random_group_element_pair(g, coarser, 0)


def test_signature_survives_fifty_conjugations():
    g = GroupKind.symplectic(4)
    spec = SpaceSpec.borel(g)
    x = Matrix.unit(4, 2, 1) - Matrix.unit(4, 4, 3)
    base = rank_signature(x)
    for seed in range(50):
        u, u_inv = random_group_element_pair(g, spec, seed)
        assert rank_signature(u @ x @ u_inv) == base


def test_brute_force_count_agrees_with_the_enumerator():
    assert brute_force_count("symplectic", 2, (1, 1)) == 13
    assert brute_force_count("orthogonal", 2, (1, 1)) == 5
    for kind in ("symplectic", "orthogonal"):
        assert (brute_force_count(kind, 2, (2, 1))
                == len(enumerate_patterns(kind, 2, (2, 1))))


RAW_FILTER_LEVELS = ([b for k in range(3) for b in itertools.product((1, 2), repeat=k)]
                     + [(1, 1, 1), (2, 3), (3, 4)])


@pytest.mark.parametrize("kind", ["symplectic", "orthogonal"])
def test_packed_count_equals_the_raw_filter(kind):
    for b in RAW_FILTER_LEVELS:
        assert brute_force_count(kind, len(b), b) == raw_filter_count(kind, len(b), b), b


def test_brute_force_count_refuses_exactly_the_raw_spaces_over_ten_million():
    refused = []
    for kind in ("symplectic", "orthogonal"):
        for k in range(1, 5):
            for b in itertools.combinations_with_replacement(range(1, 5), k):
                raw = math.prod(cap + 1 for cap in raw_arc_costs(kind, k, b)[1])
                if raw > 10 ** 7:
                    refused.append((kind, b))
                    with pytest.raises(DomainError, match="exceeds 10\\^7; refusing"):
                        brute_force_count(kind, k, b)
    assert ("orthogonal", (1, 3, 4)) in refused
    # the largest raw space under the bound, 4,915,200 choices, still counts
    assert brute_force_count("symplectic", 3, (1, 1, 4)) == 710


def test_brute_force_count_refuses_large_spaces():
    with pytest.raises(DomainError, match="refusing"):
        brute_force_count("symplectic", 10, (3,) * 10)
    with pytest.raises(DomainError, match="kind"):
        brute_force_count("unitary", 1, (1,))
    with pytest.raises(DomainError, match="capacity"):
        brute_force_count("symplectic", 2, (1,))
    for b in ((1.9, 1), (1, True)):
        with pytest.raises(DomainError, match="must be integers"):
            brute_force_count("symplectic", 2, b)


def test_suite_passes_and_reports_deterministically():
    config = SuiteConfig(max_rank=2, conjugations=2)
    report = run_suite(config)
    assert report["summary"] == {"total": 22, "failed": 0}
    ids = [item["test_id"] for item in report["items"]]
    assert ids == sorted(ids)
    assert all(item["status"] == "pass" for item in report["items"])
    assert suite_report_json(run_suite(config)) == suite_report_json(report)


def test_suite_respects_the_configured_subsets():
    config = SuiteConfig(kinds=("orthogonal",), max_rank=1,
                         checks=("counts", "nilradical"))
    report = run_suite(config)
    ids = [item["test_id"] for item in report["items"]]
    assert ids == ["counts/o/l=0", "counts/o/l=1", "nilradical/o/l=1"]
    assert report["summary"]["failed"] == 0
    assert report["config"]["max_rank"] == 1


@pytest.mark.parametrize("fields, match", [
    ({"checks": ("count",)}, "suite checks must be among"),
    ({"checks": ()}, "suite checks must be among"),
    ({"kinds": ()}, "suite kinds must be"),
    ({"kinds": ("sp",)}, "suite kinds must be"),
    ({"kinds": ("symplectic", "unitary")}, "suite kinds must be"),
    ({"max_rank": -1}, r"max_rank >= 0 .* got -1 and 5"),
    ({"max_rank": 0, "checks": ("separation",)}, "only the counts family"),
    ({"conjugations": 0}, r"conjugations >= 1, got 3 and 0"),
    ({"conjugations": -3}, r"conjugations >= 1, got 3 and -3"),
    ({"max_rank": 2.0}, "must be integers"),
])
def test_suite_refuses_configs_that_check_nothing_or_crash(fields, match):
    # Each of these once ran to a 0/0 "passed" report or a run with no
    # conjugation, or raised a bare KeyError or TypeError.
    with pytest.raises(DomainError, match=match):
        run_suite(SuiteConfig(**fields))


def test_smallest_suite_configs_still_run():
    report = run_suite(SuiteConfig(max_rank=0, checks=("counts",), conjugations=1))
    assert report["summary"] == {"total": 2, "failed": 0}


def scaled(m: Matrix, f: Fraction) -> Matrix:
    return Matrix.from_rows([[f * v for v in row] for row in m.entries])


def power_series_exp(s: Matrix) -> Matrix:
    """The reference formula: a dense scale and sum for every power of s."""
    out = power = Matrix.identity(s.rows)
    fact = 1
    for m in range(1, s.rows + 1):
        power = power @ s
        fact *= m
        out = out + scaled(power, Fraction(1, fact))
    return out


UPPER_BASES = {g: lie_algebra_basis(g, lambda r, c: r < c)
               for g in (GroupKind.symplectic(6), GroupKind.orthogonal(6),
                         GroupKind.orthogonal(7))}


@st.composite
def strictly_upper_members(draw):
    g = draw(st.sampled_from(list(UPPER_BASES)))
    s = Matrix.zero(g.n)
    for b in UPPER_BASES[g]:
        s = s + scaled(b, draw(st.builds(Fraction, st.integers(-3, 3),
                                         st.sampled_from((1, 2, 3)))))
    return s


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(strictly_upper_members())
def test_exp_nilpotent_inverts_and_matches_the_power_series(s):
    e = exp_nilpotent(s)
    assert e == power_series_exp(s)
    assert e @ exp_nilpotent(-s) == Matrix.identity(s.rows)


def test_random_pairs_are_frozen():
    # Seeded trajectories feed the byte-stable verify report, so a change to
    # how (u, u^-1) is computed must reproduce these exactly.
    frozen = {
        GroupKind.symplectic(4): (
            [[-3, -3, 0, -7], [0, -3, 6, -6], [0, 0, "-1/3", "1/3"],
             [0, 0, 0, "-1/3"]],
            [["-1/3", "1/3", 6, 7], [0, "-1/3", -6, 0], [0, 0, -3, -3],
             [0, 0, 0, -3]]),
        GroupKind.orthogonal(5): (
            [[-3, -3, 0, 5, -5], [0, -3, -6, 6, -11], [0, 0, 1, -2, 2],
             [0, 0, 0, "-1/3", "1/3"], [0, 0, 0, 0, "-1/3"]],
            [["-1/3", "1/3", 2, -11, -5], [0, "-1/3", -2, 6, 5], [0, 0, 1, -6, 0],
             [0, 0, 0, -3, -3], [0, 0, 0, 0, -3]]),
    }
    as_matrix = lambda rows: matrix_from_obj(
        {"rows": len(rows), "cols": len(rows), "entries": rows})
    for g, (u, u_inv) in frozen.items():
        got = random_group_element_pair(g, SpaceSpec.borel(g), 5)
        assert got == (as_matrix(u), as_matrix(u_inv))


# -- root-group words -----------------------------------------------------------


def dense_word(word, n: int) -> tuple[Matrix, Matrix]:
    """(u, u^-1) for a `_root_word`, as dense products of `exp_nilpotent`
    factors and the torus."""
    diag, factors = word
    u = u_inv = Matrix.identity(n)
    for t, first, _ in factors:
        rows = [[0] * n for _ in range(n)]
        for p, q, v in first:
            rows[p][q] = t * v
        s = Matrix.from_rows(rows)
        u, u_inv = exp_nilpotent(s) @ u, u_inv @ exp_nilpotent(-s)
    torus = lambda vals: Matrix.from_rows([[vals[p] if p == q else 0 for q in range(n)]
                                           for p in range(n)])
    return torus(diag) @ u, u_inv @ torus([1 / d for d in diag])


def every_flag(g: GroupKind):
    return [SpaceSpec(g, flag) for r in range(g.l + 1)
            for flag in itertools.combinations(range(1, g.l + 1), r)]


WORD_GROUPS = [GroupKind.symplectic(4), GroupKind.symplectic(6), GroupKind.orthogonal(5),
               GroupKind.orthogonal(6), GroupKind.orthogonal(7)]


@pytest.mark.parametrize("g", WORD_GROUPS, ids=lambda g: g.name)
def test_root_words_match_their_dense_products(g):
    pats = enumerate_patterns(g.family, g.l, (1,) * g.l)
    # the Borel, a maximal parabolic and the whole group, whose words hold
    # every lower root
    for spec in (SpaceSpec.borel(g), SpaceSpec(g, (g.l,)), SpaceSpec(g, ())):
        for seed in range(3):
            word = _root_word(spec, seed)
            u, u_inv = dense_word(word, g.n)
            assert _word_act(word, Matrix.identity(g.n), conjugate=False) == u
            assert group_member(u, g) and u @ u_inv == Matrix.identity(g.n)
            if spec.flag == tuple(range(1, g.l + 1)):
                assert u.is_upper_triangular()
            x = pattern_to_matrix(pats[7 * seed % len(pats)], g)
            assert _word_act(word, x) == u @ x @ u_inv


@pytest.mark.parametrize("g", WORD_GROUPS, ids=lambda g: g.name)
def test_word_act_equals_the_fraction_oracle(g):
    # Rational inputs outside the algebra, with zeros and denominators up to
    # 30 digits; on o_{2l+1} some words hold an odd t on a middle root, where
    # the integer rows are doubled.
    rng = random.Random(g.n)
    odd_middle = 0
    for spec in (SpaceSpec.borel(g), SpaceSpec(g, (g.l,)), SpaceSpec(g, ())):
        for seed in range(6):
            word = _root_word(spec, seed)
            odd_middle += sum(1 for t, _, second in word[1] if second and t % 2)
            dens = (1, 2, 6, rng.randint(1, 10 ** 30))
            x = Matrix.from_rows([[Fraction(rng.randint(-9, 9), rng.choice(dens))
                                   for _ in range(g.n)] for _ in range(g.n)])
            assert not lie_member(x, g)
            for conjugate in (True, False):
                got = _word_act(word, x, conjugate)
                assert repr(got) == repr(reference_word_act(word, x, conjugate))
    assert (odd_middle > 0) == (g.n % 2 == 1)


CACHE_GROUPS = ([GroupKind.symplectic(2 * l) for l in range(1, 5)]
                + [GroupKind.orthogonal(2 * l + 1) for l in range(1, 5)])


@pytest.mark.parametrize("g", CACHE_GROUPS, ids=lambda g: g.name)
def test_seeded_integer_rows_equal_a_fresh_clearing(g):
    # Every matrix built from integer rows carries its `_ints` from the
    # start; it must be what clearing its entries gives, bit for bit.
    spec = SpaceSpec.borel(g)
    u, u_inv = random_group_element_pair(g, spec, g.n)
    made = [u, u_inv]
    for seed, p in enumerate(enumerate_patterns(g.family, g.l, (1,) * g.l)):
        x = pattern_to_matrix(p, g)
        word = _root_word(spec, seed)
        y = _word_act(word, x)
        made += [x, y, _word_act(word, x, conjugate=False), x @ y, y @ x, y @ y,
                 u @ x @ u_inv]
    for m in made:
        assert "_ints" in m.__dict__
        assert m._ints == Matrix(m.entries)._ints


def test_identify_reuses_the_integer_rows_of_a_conjugate(clearings):
    g = GroupKind.orthogonal(7)
    spec = SpaceSpec.borel(g)
    pats = enumerate_patterns(g.family, g.l, (1,) * g.l)
    conjugates = [_word_act(_root_word(spec, seed), pattern_to_matrix(p, g))
                  for seed, p in enumerate(pats)]
    clearings.clear()
    assert [identify(y, g) for y in conjugates] == pats
    assert clearings == []


def test_a_conjugate_outside_the_algebra_is_a_recorded_failure(monkeypatch):
    monkeypatch.setattr("nilorbits.harness._word_act",
                        lambda word, x: x + Matrix.identity(x.rows))
    report = run_suite(SuiteConfig(max_rank=2, conjugations=2, checks=("conjugation",)))
    assert report["summary"] == {"total": 4, "failed": 4}
    details = sorted(item["details"] for item in report["items"])
    assert details == ["failures=10", "failures=2", "failures=26", "failures=6"]


def test_root_words_are_seeded():
    spec = SpaceSpec.borel(GroupKind.orthogonal(7))
    assert _root_word(spec, 4) == _root_word(spec, 4)
    assert _root_word(spec, 4) != _root_word(spec, 5)


@pytest.mark.parametrize("g", WORD_GROUPS, ids=lambda g: g.name)
def test_parabolic_orbits_are_constant_under_levi_and_unipotent_words(g):
    moved = 0
    for spec in every_flag(g):
        for seed, p in enumerate(enumerate_patterns(g.family, spec.k, spec.blocks)):
            x = parabolic_representative(p, spec)
            y = _word_act(_root_word(spec, seed), x)
            assert lie_member(y, g)
            assert identify_parabolic(y, spec) == p, (spec.flag, p.text())
            moved += identify(y, g) != identify(x, g)
    # the Levi roots leave the Borel orbit of some representative
    assert moved > 0
