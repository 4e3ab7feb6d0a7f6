from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilorbits.correspondence import rank_signature
from nilorbits.harness import (SuiteConfig, brute_force_count, exp_nilpotent,
                               random_group_element_pair, run_suite,
                               suite_report_json)
from nilorbits.linalg import (DomainError, GroupKind, Matrix, SpaceSpec,
                              group_member, lie_algebra_basis, matrix_from_obj)
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


def test_brute_force_count_refuses_large_spaces():
    with pytest.raises(DomainError, match="refusing"):
        brute_force_count("symplectic", 10, (3,) * 10)
    with pytest.raises(DomainError, match="kind"):
        brute_force_count("unitary", 1, (1,))
    with pytest.raises(DomainError, match="capacity"):
        brute_force_count("symplectic", 2, (1,))


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


def power_series_exp(s: Matrix) -> Matrix:
    """The reference formula: a dense scale and sum for every power of s."""
    out = power = Matrix.identity(s.rows)
    fact = 1
    for m in range(1, s.rows + 1):
        power = power @ s
        fact *= m
        out = out + power.scale(Fraction(1, fact))
    return out


UPPER_BASES = {g: lie_algebra_basis(g, lambda r, c: r < c)
               for g in (GroupKind.symplectic(6), GroupKind.orthogonal(6),
                         GroupKind.orthogonal(7))}


@st.composite
def strictly_upper_members(draw):
    g = draw(st.sampled_from(list(UPPER_BASES)))
    s = Matrix.zero(g.n)
    for b in UPPER_BASES[g]:
        s = s + b.scale(draw(st.builds(Fraction, st.integers(-3, 3),
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
