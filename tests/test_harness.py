import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import (flag_positions, naive_rank, raw_arc_costs, raw_filter_count,
                      reference_exp_nilpotent, reference_group_element_pair,
                      reference_lie_violation, reference_pivot_positions,
                      reference_torus_diagonal, reference_torus_scales, reference_word_act,
                      reference_word_diagonal)
from hypothesis import given, settings, strategies as st

from nilorbits import harness
from nilorbits.correspondence import (_identify_rows, identify, identify_parabolic,
                                      parabolic_representative, pattern_to_matrix,
                                      rank_signature)
from nilorbits.harness import (SuiteConfig, _root_elements, _root_word, _torus_scales,
                               _word_act, brute_force_count, exp_nilpotent,
                               random_group_element_pair, run_suite,
                               suite_report_json)
from nilorbits.linalg import (_MAX_DENOMINATOR_BITS, DomainError, GroupKind, Matrix,
                              SpaceSpec, group_member, lie_member, matrix_from_obj,
                              parabolic_dim)
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


def test_suite_builds_representatives_only_for_the_families_that_read_them(monkeypatch):
    # counts and dimensions never read a representative, so a suite of only
    # those builds none; each family that reads them builds their integer
    # rows.  Conjugation and nilradical read the rows as they are and make
    # no Matrix; only separation, which checks the Matrix route, makes them
    # matrices.
    built, made = [], []
    real_rows, real_from_ints = harness._pattern_rows, Matrix._from_ints
    monkeypatch.setattr(harness, "_pattern_rows",
                        lambda p, g: built.append(p) or real_rows(p, g))
    monkeypatch.setattr(Matrix, "_from_ints",
                        staticmethod(lambda *args: made.append(args) or real_from_ints(*args)))
    report = run_suite(SuiteConfig(max_rank=2, checks=("counts", "dimensions")))
    assert report["summary"] == {"total": 10, "failed": 0} and built == []
    for family in ("separation", "conjugation", "nilradical"):
        report = run_suite(SuiteConfig(kinds=("orthogonal",), max_rank=2, conjugations=1,
                                       checks=(family,)))
        assert report["summary"] == {"total": 2, "failed": 0}, family
        assert len(built) == 1 + 5, family   # o l=1 and l=2
        assert bool(made) == (family == "separation"), family
        built.clear()
        made.clear()


def test_suite_respects_the_configured_subsets():
    config = SuiteConfig(kinds=("orthogonal",), max_rank=1,
                         checks=("counts", "nilradical"))
    report = run_suite(config)
    ids = [item["test_id"] for item in report["items"]]
    assert ids == ["counts/o/l=0", "counts/o/l=1", "nilradical/o/l=1"]
    assert report["summary"]["failed"] == 0
    assert report["config"]["max_rank"] == 1
    # sp l = 4 has a raw arc space over the brute-force count's 10^7 bound
    report = run_suite(SuiteConfig(kinds=("symplectic",), max_rank=4, checks=("counts",)))
    assert report["items"][-1]["details"] == "enumerate=345 recurrence=345 brute=skipped"
    assert report["summary"] == {"total": 5, "failed": 0}


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
    ({"kinds": ("symplectic", "symplectic"), "max_rank": 1}, "suite kinds must not repeat"),
    ({"checks": ("counts", "dimensions", "counts")}, "suite checks must not repeat"),
])
def test_suite_refuses_configs_that_check_nothing_or_crash(fields, match):
    # Each of these once ran to a 0/0 "passed" report or a run with no
    # conjugation, or raised a bare KeyError or TypeError, or ran a family
    # twice and listed each of its test ids twice.
    with pytest.raises(DomainError, match=match):
        run_suite(SuiteConfig(**fields))


def test_suite_refuses_a_rank_past_its_bound_on_construction(monkeypatch):
    monkeypatch.setattr("nilorbits.harness.enumerate_patterns",
                        lambda *args: pytest.fail("enumerated"))
    assert SuiteConfig(max_rank=harness._MAX_SUITE_RANK).max_rank == 6
    for rank in (7, 12, 10 ** 9):
        with pytest.raises(DomainError, match=f"max_rank must be at most 6, got {rank}$"):
            SuiteConfig(max_rank=rank)


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


def dense(n: int, entries) -> Matrix:
    """The n x n matrix with the 0-based entries (p, q, value), else zero."""
    rows = [[0] * n for _ in range(n)]
    for p, q, v in entries:
        rows[p][q] = v
    return Matrix.from_rows(rows)


UPPER_BASES = {g: [dense(g.n, first) for first, _ in _root_elements(SpaceSpec.borel(g))]
               for g in (GroupKind.symplectic(6), GroupKind.orthogonal(6),
                         GroupKind.orthogonal(7))}


@pytest.mark.parametrize("g", [GroupKind.symplectic(n) for n in range(2, 13, 2)]
                         + [GroupKind.orthogonal(n) for n in range(1, 14)],
                         ids=lambda g: g.name)
def test_root_elements_match_a_dense_reference(g):
    # On every flag of g, the empty one included, each root element N is a
    # member of the algebra (by dense Fraction sums) that keeps the flag,
    # and N^2 is the dense product with N^3 = 0.  The N are independent, one
    # per coordinate off the diagonal, and strictly upper on the Borel flag.
    # A root recurs on many flags, so its flag-free checks run once.
    n, flat = g.n, {}
    for k in range(g.l + 1):
        for flag in itertools.combinations(range(1, g.l + 1), k):
            spec = SpaceSpec(g, flag)
            roots = _root_elements(spec)
            assert len(roots) == parabolic_dim(spec) - g.l
            allowed = set(flag_positions(n, flag))
            for first, second in roots:
                if first not in flat:
                    root = dense(n, first)
                    square = root @ root
                    assert reference_lie_violation(root, g) is None
                    assert square == dense(n, second) and (square @ root).is_zero()
                    flat[first] = root, sum(root.entries, ())
                root = flat[first][0]
                assert set(root.support()) <= allowed
                if spec == SpaceSpec.borel(g):
                    assert root.is_upper_triangular(strict=True)
            if roots:
                rows = Matrix(tuple(flat[first][1] for first, _ in roots))
                assert naive_rank(rows) == len(roots)


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


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(strictly_upper_members())
def test_exp_nilpotent_equals_the_fraction_reference(s):
    e, want = exp_nilpotent(s), reference_exp_nilpotent(s)
    assert e == want and e._ints == want._ints


def test_exp_nilpotent_of_the_empty_matrix_is_the_empty_identity():
    assert exp_nilpotent(Matrix.zero(0)) == Matrix.identity(0)
    # a matrix with no rows or no columns but not both is still not square
    for s in (Matrix.zero(0, 2), Matrix.zero(2, 0)):
        with pytest.raises(DomainError, match="exp needs a square matrix"):
            exp_nilpotent(s)


@pytest.mark.parametrize("rows", [[[5]], [[0, 1], [-1, 0]], [[0, 1, 0], [0, 0, 0], [0, 0, 1]],
                                  [[0, 1, 0], [0, 0, 1], [1, 0, 0]]])
def test_exp_nilpotent_refuses_what_the_reference_refuses(rows):
    s = Matrix.from_rows(rows)
    for exp in (exp_nilpotent, reference_exp_nilpotent):
        with pytest.raises(DomainError, match="matrix is not nilpotent"):
            exp(s)


def test_exp_nilpotent_refuses_a_result_past_the_denominator_bound():
    # s needs a denominator of about 0.6 of the bound, so it is accepted,
    # but the corner of s^2 / 2 needs about 1.2 of it.
    d = 3 ** (_MAX_DENOMINATOR_BITS * 3 // 8)
    s = Matrix.from_rows([[0, Fraction(1, d), 0], [0, 0, Fraction(1, d)], [0, 0, 0]])
    assert s._ints[1] == d
    message = (f"matrix entries need a common denominator of over "
               f"{_MAX_DENOMINATOR_BITS} bits; refusing")
    for exp in (exp_nilpotent, reference_exp_nilpotent):
        with pytest.raises(DomainError, match=message):
            exp(s)


PAIR_GROUPS = ([GroupKind.symplectic(n) for n in range(2, 13, 2)]
               + [GroupKind.orthogonal(n) for n in range(1, 14)])


@pytest.mark.parametrize("g", PAIR_GROUPS, ids=lambda g: g.name)
def test_random_pairs_equal_the_fraction_reference(g):
    # The pairs are built on integer rows; the reference forms T, T^-1,
    # exp(s) and exp(-s) as dense Fraction matrices from the same draws.
    spec = SpaceSpec.borel(g)
    for seed in range(30):
        got = random_group_element_pair(g, spec, seed)
        want = reference_group_element_pair(g, seed)
        assert got == want
        assert [m._ints for m in got] == [Matrix(m.entries)._ints for m in want]


def test_random_pairs_are_frozen():
    # The seeded pairs are the dense reference: acceptance criterion 05 and
    # the benchmark's classify inputs conjugate by them, so a change to how
    # (u, u^-1) is computed must reproduce these exactly.
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


def dense_word(word, diag, n: int) -> tuple[Matrix, Matrix]:
    """(u, u^-1) for a `_root_word` with torus diagonal `diag`
    (`reference_word_diagonal`), as dense products of `exp_nilpotent`
    factors and the torus."""
    _, factors = word
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
            u, u_inv = dense_word(word, reference_word_diagonal(spec, seed), g.n)
            assert group_member(u, g) and u @ u_inv == Matrix.identity(g.n)
            if spec.flag == tuple(range(1, g.l + 1)):
                assert u.is_upper_triangular()
            x = pattern_to_matrix(pats[7 * seed % len(pats)], g)
            assert Matrix._from_ints(*_word_act(word, x._ints)) == u @ x @ u_inv


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
            want = reference_word_act(word, reference_word_diagonal(spec, seed), x)
            assert repr(Matrix._from_ints(*_word_act(word, x._ints))) == repr(want)
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
        y = Matrix._from_ints(*_word_act(word, x._ints))
        made += [x, y, x @ y, y @ x, y @ y, u @ x @ u_inv]
    for m in made:
        assert "_ints" in m.__dict__
        assert m._ints == Matrix(m.entries)._ints


def test_identify_reuses_the_integer_rows_of_a_conjugate(clearings):
    g = GroupKind.orthogonal(7)
    spec = SpaceSpec.borel(g)
    pats = enumerate_patterns(g.family, g.l, (1,) * g.l)
    conjugates = [Matrix._from_ints(*_word_act(_root_word(spec, seed),
                                               pattern_to_matrix(p, g)._ints))
                  for seed, p in enumerate(pats)]
    clearings.clear()
    assert [identify(y, g) for y in conjugates] == pats
    assert clearings == []


def test_a_conjugate_outside_the_algebra_is_a_recorded_failure(monkeypatch):
    # x + I: the word action's integer rows and denominator
    monkeypatch.setattr("nilorbits.harness._word_act",
                        lambda word, x: ([[v + (p == q) for q, v in enumerate(row)]
                                          for p, row in enumerate(x[0])], 1))
    report = run_suite(SuiteConfig(max_rank=2, conjugations=2, checks=("conjugation",)))
    assert report["summary"] == {"total": 4, "failed": 4}
    details = sorted(item["details"] for item in report["items"])
    assert details == ["failures=10", "failures=2", "failures=26", "failures=6"]


def test_root_words_are_seeded():
    spec = SpaceSpec.borel(GroupKind.orthogonal(7))
    assert _root_word(spec, 4) == _root_word(spec, 4)
    assert _root_word(spec, 4) != _root_word(spec, 5)


TORUS_GROUPS = ([GroupKind.symplectic(n) for n in range(2, 21, 2)]
                + [GroupKind.orthogonal(n) for n in range(1, 22)])


def test_torus_multipliers_equal_the_fraction_reference():
    # The integer torus draw makes the draws of the Fraction diagonal, and
    # its multipliers are what the lcms of that diagonal give: lb = la = L.
    for g in TORUS_GROUPS:
        for seed in range(50):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            row_scale, col_scale, big = _torus_scales(g, rng)
            want_rows, lb, want_cols, la = reference_torus_scales(
                reference_torus_diagonal(g, ref_rng))
            assert (row_scale, col_scale, big, big) == (want_rows, want_cols, lb, la)
            assert rng.getstate() == ref_rng.getstate()
            assert _root_word(SpaceSpec.borel(g), seed)[0] == (row_scale, col_scale, big)


def test_root_words_draw_the_randint_stream():
    # Each t is `randrange(5) - 2`, the draw of `randint(-2, 2)`, after the
    # torus: the words are those of the randint reference.
    specs = (SpaceSpec.borel(GroupKind.symplectic(6)), SpaceSpec(GroupKind.orthogonal(7), ()),
             SpaceSpec(GroupKind.orthogonal(6), (3,)))
    for spec in specs:
        roots = _root_elements(spec)
        for seed in range(1000):
            rng = random.Random(seed)
            reference_torus_diagonal(spec.group, rng)
            ts = [rng.randint(-2, 2) for _ in roots]
            want = [(t, first, second) for t, (first, second) in zip(ts, roots) if t]
            assert _root_word(spec, seed)[1] == want


# SHA-256 over the `_ints` of u x u^-1 for every Borel representative x of
# sp_2..sp_8 and o_3..o_9, under the words of the Borel flag, the flag (l,)
# and the empty flag, seeds 0-2, as the row-and-column word action gave them.
WORD_CONJUGATES_DIGEST = "427110bfa66f61721ae350d6ef707f5b6a27d4b6f226dd57cd59931ffed6ed37"


def frozen_word_conjugates():
    """(g, rows, den) for every conjugate `WORD_CONJUGATES_DIGEST` covers,
    as `_word_act` leaves it."""
    groups = ([GroupKind.symplectic(n) for n in range(2, 9, 2)]
              + [GroupKind.orthogonal(n) for n in range(3, 10)])
    for g in groups:
        xs = [pattern_to_matrix(p, g)._ints
              for p in enumerate_patterns(g.family, g.l, (1,) * g.l)]
        for spec in (SpaceSpec.borel(g), SpaceSpec(g, (g.l,)), SpaceSpec(g, ())):
            for x in xs:
                for seed in range(3):
                    yield (g, *_word_act(_root_word(spec, seed), x))


def test_root_word_conjugates_are_frozen():
    digest, count = hashlib.sha256(), 0
    for _, rows, den in frozen_word_conjugates():
        y = Matrix._from_ints(rows, den)
        digest.update(repr(y._ints).encode())
        count += 1
    assert count == 5463
    assert digest.hexdigest() == WORD_CONJUGATES_DIGEST


def identify_both_ways(rows, den: int, g: GroupKind) -> list:
    """The pattern, or the refusal's message, of `_identify_rows` and of
    `identify` on the Matrix of the same rows."""
    outcomes = []
    for route in (lambda: _identify_rows(rows, den, g),
                  lambda: identify(Matrix._from_ints(rows, den), g)):
        try:
            outcomes.append(route())
        except DomainError as exc:
            outcomes.append(f"refused: {exc}")
    return outcomes


def test_identify_on_integer_rows_equals_the_matrix_route():
    # Every frozen conjugate, the same rows x3 over den x3 (the gate divides
    # the common gcd out), and the two refusals CLI identify is benchmarked
    # on: +E_11, off the form, and +E_11 - E_nn, in the algebra but not
    # square-zero.  Both routes give the same pattern or the same message.
    refusals = {"form": 0, "square": 0}
    for g, rows, den in frozen_word_conjugates():
        n = g.n
        pattern, same = identify_both_ways(rows, den, g)
        assert pattern == same and not isinstance(pattern, str)
        tripled = [[3 * v for v in row] for row in rows]
        assert identify_both_ways(tripled, 3 * den, g) == [pattern, pattern]
        off_form = [list(row) for row in rows]
        off_form[0][0] += den
        not_square_zero = [list(row) for row in off_form]
        not_square_zero[n - 1][n - 1] -= den
        for kind, bad, want in (("form", off_form, f"matrix not in {g.name}: "),
                                ("square", not_square_zero, "matrix is not 2-nilpotent: ")):
            got, same = identify_both_ways(bad, den, g)
            assert got == same, (g.name, kind)
            assert got.startswith(f"refused: {want}"), (g.name, kind, got)
            refusals[kind] += 1
    assert refusals == {"form": 5463, "square": 5463}
    # Past the denominator bound with a gcd of 1: both refuse, whatever x is.
    g = GroupKind.symplectic(4)
    rows = [list(row) for row in pattern_to_matrix(enumerate_patterns(g.family, 2, (1, 1))[3],
                                                   g)._ints[0]]
    outcomes = identify_both_ways(rows, 2 ** (_MAX_DENOMINATOR_BITS + 1) + 1, g)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0].startswith("refused: matrix entries need a common denominator")


def test_identify_on_integer_rows_reduces_only_past_the_bound(monkeypatch):
    # Rows and den scaled by 2^(B+1) pass the denominator bound B before
    # they are reduced and not after: `_identify_rows` reduces them (and
    # only them) and returns the pattern of the unscaled conjugate, as the
    # matrix route does.  Rows within the bound are read as they are.
    from nilorbits import correspondence
    reduced = []
    real = correspondence._reduced
    monkeypatch.setattr(correspondence, "_reduced",
                        lambda rows, den: reduced.append(den) or real(rows, den))
    scale = 2 ** (_MAX_DENOMINATOR_BITS + 1)
    cases = 0
    for g, rows, den in itertools.islice(frozen_word_conjugates(), 0, 5463, 400):
        pattern = _identify_rows(rows, den, g)
        assert reduced == [] and den.bit_length() <= _MAX_DENOMINATOR_BITS
        big = [[scale * v for v in row] for row in rows]
        assert identify_both_ways(big, scale * den, g) == [pattern, pattern], g.name
        assert reduced == [scale * den]
        reduced.clear()
        cases += 1
    assert cases == 14


def square_row(rows, p: int) -> list[int]:
    """Row p (0-based) of the square of the matrix with these integer rows,
    by row-by-column sums."""
    n = len(rows)
    return [sum(rows[p][k] * rows[k][q] for k in range(n)) for q in range(n)]


def first_square_entry(rows) -> tuple[int, int] | None:
    """The first 1-based (row, col), row-major, where the square of the
    matrix with these integer rows is nonzero."""
    return next(((p + 1, q + 1) for p in range(len(rows))
                 for q, v in enumerate(square_row(rows, p)) if v), None)


def sparse_members(g: GroupKind, count: int):
    """Seeded integer rows of members of the Lie algebra of g: a diagonal
    (Cartan) part plus two root elements, many of them not square-zero."""
    n, roots = g.n, _root_elements(SpaceSpec(g, ()))
    rng = random.Random(g.n)
    for _ in range(count):
        x = [[0] * n for _ in range(n)]
        for i in range(g.l):
            h = rng.choice((0, 0, 1, -1, 2))
            x[i][i] += h
            x[n - 1 - i][n - 1 - i] -= h
        for first, _ in rng.sample(roots, 2):
            c = rng.choice((1, -1, 2))
            for p, q, v in first:
                x[p][q] += c * v
        yield x


def test_the_pivot_row_square_test_refuses_what_the_full_scan_refuses():
    # `_identify_rows` squares only the pivot rows of its elimination, a
    # basis of the row space, and scans the whole square to name a refusal.
    # On members of the algebra that are not square-zero, both routes must
    # refuse with the first failing entry of the whole square.  In sp_4,
    # diag(1, 0, 0, -1) + E_31 + E_42 has row 1 equal to row 3, a lower
    # pivot row, so row 1 is no pivot row, yet (x @ x)[1,1] fails first;
    # diag(1, 2, -2, -1) has rank 4 > n / 2.  No member of sp or o of rank
    # 1 squares to nonzero (in sp, u u^T J squares to (u^T J u) u u^T J = 0;
    # o has no member of rank 1), so E_14, with one pivot row, and its
    # conjugates are identified alike.  Seeded sparse members of every word
    # group and their Borel root-word conjugates cover the rest.
    sp4 = GroupKind.symplectic(4)
    cases = [(sp4, [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, -1]], 1),
             (sp4, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -1]], 1),
             (sp4, [[0, 0, 0, 1], [0] * 4, [0] * 4, [0] * 4], 1)]
    cases += [(sp4, *_word_act(_root_word(SpaceSpec.borel(sp4), seed), cases[2][1:]))
              for seed in range(3)]
    for g in WORD_GROUPS:
        spec = SpaceSpec.borel(g)
        for seed, rows in enumerate(sparse_members(g, 60)):
            cases.append((g, rows, 1))
            cases.append((g, *_word_act(_root_word(spec, seed), (rows, 1))))
    seen = {"refused": 0, "non-pivot row": 0, "rank > n/2": 0,
            "first pivot row passes": 0, "one pivot row": 0}
    for g, rows, den in cases:
        bad = first_square_entry(rows)
        pivots = sorted({r - 1 for r, _ in
                         reference_pivot_positions(Matrix._from_ints(rows, den))})
        outcomes = identify_both_ways(rows, den, g)
        seen["one pivot row"] += len(pivots) == 1
        if bad is None:
            assert outcomes[0] == outcomes[1] and not isinstance(outcomes[0], str)
            continue
        r, c = bad
        want = f"refused: matrix is not 2-nilpotent: (x @ x)[{r},{c}] != 0"
        assert outcomes == [want, want], (g.name, rows, den)
        seen["refused"] += 1
        seen["non-pivot row"] += r - 1 not in pivots
        seen["rank > n/2"] += 2 * len(pivots) > g.n
        seen["first pivot row passes"] += not any(square_row(rows, pivots[0]))
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("g", WORD_GROUPS, ids=lambda g: g.name)
def test_parabolic_orbits_are_constant_under_levi_and_unipotent_words(g):
    moved = 0
    for spec in every_flag(g):
        for seed, p in enumerate(enumerate_patterns(g.family, spec.k, spec.blocks)):
            x = parabolic_representative(p, spec)
            y = Matrix._from_ints(*_word_act(_root_word(spec, seed), x._ints))
            assert lie_member(y, g)
            assert identify_parabolic(y, spec) == p, (spec.flag, p.text())
            moved += identify(y, g) != identify(x, g)
    # the Levi roots leave the Borel orbit of some representative
    assert moved > 0
