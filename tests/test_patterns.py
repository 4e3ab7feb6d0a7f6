import itertools
import json
import math
import sys

import pytest

from nilorbits.correspondence import refine
from nilorbits.linalg import DomainError, GroupKind, SpaceSpec
from nilorbits.patterns import (Arc, LinkPattern, consumption, count_borel,
                                dotted, enumerate_patterns, glue, is_nilradical,
                                lower_loop, pattern_from_json, pattern_from_obj,
                                pattern_to_json, strip_orientation, undotted,
                                pattern_to_obj, unoriented_loop, upper_loop,
                                validate, _arc_types, _search)

from conftest import SEARCH_LEVELS, TRUSTED_LEVELS, borel_valid_direct, reference_walk


def test_arc_validation():
    with pytest.raises(DomainError):
        Arc(1, 1)  # loop without a variant
    with pytest.raises(DomainError):
        Arc(1, 2, loop_variant="upper")  # variant on a non-loop
    with pytest.raises(DomainError):
        Arc(1, 1, dotted=False, loop_variant="upper")  # upper loops are dotted
    with pytest.raises(DomainError):
        Arc(1, 1, dotted=True, loop_variant="unoriented")
    with pytest.raises(DomainError):
        Arc(1, 1, dotted=True, loop_variant="sideways")


@pytest.mark.parametrize("fields", [
    (1.0, 2), (1, 2.0), (True, 2), (1, 2, 1), (1, 2, None), (1, 1, True, ["upper"]),
])
def test_arc_refuses_fields_of_the_wrong_type(fields):
    # Arc(1.0, 2) was once built; pattern_to_json wrote "from":1.0, and
    # validate raised a bare TypeError.
    with pytest.raises(DomainError, match="arc fields have the wrong types"):
        Arc(*fields)


@pytest.mark.parametrize("arc", ['{"from":1.0,"to":2,"dotted":false}',
                                 '{"from":1,"to":true,"dotted":false}',
                                 '{"from":1,"to":2,"dotted":0}',
                                 '{"from":1,"to":1,"dotted":true,"loop":1}'])
def test_pattern_json_refuses_arc_fields_of_the_wrong_type(arc):
    text = '{"kind":"symplectic","k":2,"b":[1,1],"arcs":[' + arc + ']}'
    with pytest.raises(DomainError, match="arc fields have the wrong types"):
        pattern_from_json(text)


def test_arc_text_and_keys():
    assert undotted(1, 2).text() == "1->2"
    assert dotted(2, 1).text() == "2..>1"
    assert upper_loop(3).text() == "uloop(3)"
    assert lower_loop(3).text() == "lloop(3)"
    assert unoriented_loop(2).text() == "loop(2)"
    # canonical keys order loops before arcs at the same vertex pair
    assert unoriented_loop(1).key() < upper_loop(2).key()
    assert undotted(1, 2).key() < dotted(1, 2).key() < undotted(2, 1).key()


def test_pattern_sorts_arcs_and_compares_equal():
    a = LinkPattern("symplectic", 2, (1, 1), (upper_loop(2), upper_loop(1)))
    b = LinkPattern("symplectic", 2, (1, 1), (upper_loop(1), upper_loop(2)))
    assert a == b
    assert a.arcs[0].source == 1
    assert a.text() == "{uloop(1), uloop(2)}"


def test_pattern_validation_errors():
    with pytest.raises(DomainError):
        LinkPattern("hermitian", 1, (1,), ())
    with pytest.raises(DomainError):
        LinkPattern("symplectic", 2, (1,), ())
    with pytest.raises(DomainError):
        LinkPattern("symplectic", 2, (1, 0), ())
    with pytest.raises(DomainError):
        LinkPattern("symplectic", 2, (1, 1), (undotted(1, 3),))
    for b in ((1.9,), (True,)):
        with pytest.raises(DomainError, match="must be integers"):
            LinkPattern("symplectic", 1, b, ())
    for k in (True, 1.0):
        with pytest.raises(DomainError, match="must be an integer"):
            LinkPattern("symplectic", k, (1,), ())


def test_consumption_weights_by_kind():
    sp = LinkPattern("symplectic", 2, (2, 2), (upper_loop(1), unoriented_loop(2)))
    assert consumption(sp) == (1, 2)
    orth = LinkPattern("orthogonal", 2, (2, 2), (upper_loop(1), unoriented_loop(2)))
    assert consumption(orth) == (2, 2)
    arcs = LinkPattern("symplectic", 3, (2, 1, 1), (undotted(1, 2), dotted(3, 1)))
    assert consumption(arcs) == (2, 1, 1)


def test_validate_matches_direct_borel_description():
    for kind in ("symplectic", "orthogonal"):
        for k in (1, 2, 3):
            types = _arc_types(k)
            for size in (0, 1, 2, 3):
                for combo in itertools.combinations_with_replacement(types, size):
                    p = LinkPattern(kind, k, (1,) * k, combo)
                    assert validate(p) == borel_valid_direct(kind, k, combo), p.text()


def test_enumerate_counts_match_recurrence():
    for kind in ("symplectic", "orthogonal"):
        for l in range(0, 5):
            pats = enumerate_patterns(kind, l, (1,) * l)
            assert len(pats) == count_borel(kind, l)
            keys = [p.key() for p in pats]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            assert all(validate(p) for p in pats)


@pytest.mark.parametrize("kind, b", TRUSTED_LEVELS,
                         ids=[f"{kind}-{b}" for kind, b in TRUSTED_LEVELS])
def test_search_emits_what_the_validating_constructor_builds(kind, b):
    # The search's patterns skip __post_init__, so each must be built exactly
    # as the constructor would: valid, arcs sorted, one per multiset, and
    # with the instance dict the constructor gives (a dict filled after
    # construction loses the shared key table and doubles in size).
    pats = enumerate_patterns(kind, len(b), b)
    for p in pats:
        assert p == LinkPattern(kind, len(b), b, p.arcs), p.text()
        assert validate(p), p.text()
    keys = [p.key() for p in pats]
    assert all(x < y for x, y in zip(keys, keys[1:]))
    if set(b) <= {1}:
        assert len(pats) == count_borel(kind, len(b))
    reference = LinkPattern(kind, len(b), b, pats[-1].arcs)
    assert sys.getsizeof(pats[-1].__dict__) == sys.getsizeof(reference.__dict__)


@pytest.mark.parametrize("kind", ["symplectic", "orthogonal"])
def test_search_yields_what_the_linear_scan_yields(kind):
    # The search jumps past the runs of arc types that cannot fit and joins
    # each pattern from its parent's; the oracle tests every type in turn
    # and builds each tuple whole.  Same tuples, same order, every level.
    levels = [b for level_kind, b in SEARCH_LEVELS if level_kind == kind]
    assert len(levels) > 60
    for b in levels:
        found = _search(kind, len(b), b)
        assert found[0] == b
        assert list(found[1]) == list(reference_walk(kind, len(b), b)), b


def test_search_refuses_a_bad_level_before_the_first_pattern():
    for kind, k, b in (("hermitian", 1, (1,)), ("symplectic", 2, (1,)),
                       ("symplectic", -1, ()), ("symplectic", 1, (0,))):
        with pytest.raises(DomainError):
            _search(kind, k, b)


def test_count_borel_spec_sequences():
    assert [count_borel("symplectic", l) for l in range(6)] == [1, 3, 13, 63, 345, 2043]
    assert [count_borel("orthogonal", l) for l in range(7)] == [1, 1, 5, 13, 73, 281, 1741]
    with pytest.raises(DomainError):
        count_borel("symplectic", -1)
    with pytest.raises(DomainError):
        count_borel("special", 2)
    for l in (2.5, 2.0, True):
        with pytest.raises(DomainError, match="integer"):
            count_borel("symplectic", l)


def test_count_borel_refuses_counts_past_the_digit_limit():
    for kind, last in (("symplectic", 2405), ("orthogonal", 2416)):
        assert len(str(count_borel(kind, last))) == 4300
        for l in (last + 1, 10 ** 9):
            with pytest.raises(DomainError, match="more than 4300 digits"):
                count_borel(kind, l)


def test_enumerate_single_block_capacities():
    # one vertex of capacity 2: loop multisets only
    assert len(enumerate_patterns("symplectic", 1, (2,))) == 7
    assert len(enumerate_patterns("orthogonal", 1, (2,))) == 4


def test_glue_cross_block_keeps_arc_type():
    g = GroupKind.symplectic(8)
    spec = SpaceSpec.from_blocks(g, (2, 2))
    p = LinkPattern.borel("symplectic", 4, (dotted(1, 3), undotted(4, 2)))
    glued = glue(p, spec)
    assert glued.b == (2, 2)
    assert glued.arcs == (Arc(1, 2, dotted=True), Arc(2, 1))


def test_glue_intra_block_rules():
    g = GroupKind.symplectic(8)
    spec = SpaceSpec.from_blocks(g, (2, 2))
    # undotted arc inside block 1 becomes an unoriented loop
    got = glue(LinkPattern.borel("symplectic", 4, (undotted(2, 1),)), spec)
    assert got.arcs == (unoriented_loop(1),)
    # dotted arcs inside a block: two loops for symplectic, oriented by side
    got = glue(LinkPattern.borel("symplectic", 4, (dotted(2, 1),)), spec)
    assert got.arcs == (upper_loop(1), upper_loop(1))
    got = glue(LinkPattern.borel("symplectic", 4, (dotted(3, 4),)), spec)
    assert got.arcs == (lower_loop(2), lower_loop(2))
    # one loop for orthogonal
    g_o = GroupKind.orthogonal(8)
    spec_o = SpaceSpec.from_blocks(g_o, (2, 2))
    got = glue(LinkPattern.borel("orthogonal", 4, (dotted(2, 1),)), spec_o)
    assert got.arcs == (upper_loop(1),)


def test_glue_rejects_bad_inputs():
    g = GroupKind.symplectic(8)
    spec = SpaceSpec.from_blocks(g, (2, 1))
    beyond = LinkPattern.borel("symplectic", 4, (upper_loop(4),))
    with pytest.raises(DomainError):
        glue(beyond, spec)
    not_borel = LinkPattern("symplectic", 2, (2, 1), ())
    with pytest.raises(DomainError):
        glue(not_borel, spec)
    wrong_kind = LinkPattern.borel("orthogonal", 4, ())
    with pytest.raises(DomainError):
        glue(wrong_kind, spec)
    wrong_rank = LinkPattern.borel("symplectic", 2, [undotted(1, 2)])
    with pytest.raises(DomainError, match="rank 4"):
        glue(wrong_rank, SpaceSpec.from_blocks(g, (2, 2)))


def test_glue_sums_consumption_over_blocks_and_inverts_refine():
    # glue checks only its input: each block takes the capacity its vertices
    # used, so a pattern that reaches no vertex beyond the flag glues to a
    # valid one.  Refining a block pattern and gluing it back is the
    # identity, which ties refine's loop convention to glue's.
    block_patterns = 0
    for g in (GroupKind.symplectic(8), GroupKind.orthogonal(8), GroupKind.orthogonal(9)):
        borel = enumerate_patterns(g.family, g.l, (1,) * g.l)
        for k in range(g.l + 1):
            for flag in itertools.combinations(range(1, g.l + 1), k):
                spec = SpaceSpec(g, flag)
                reach = flag[-1] if flag else 0
                for p in borel:
                    used = consumption(p)
                    if any(used[reach:]):
                        with pytest.raises(DomainError, match="beyond"):
                            glue(p, spec)
                        continue
                    assert consumption(glue(p, spec)) == tuple(
                        sum(used[lo:hi]) for lo, hi in zip((0,) + flag, flag))
                for q in enumerate_patterns(g.family, spec.k, spec.blocks):
                    assert glue(refine(q, spec), spec) == q, (g.name, flag, q.text())
                    block_patterns += 1
    assert block_patterns == 1957


def test_nilradical_counts_rank_two():
    sympl = enumerate_patterns("symplectic", 2, (1, 1))
    orth = enumerate_patterns("orthogonal", 2, (1, 1))
    assert sum(1 for p in sympl if is_nilradical(p)) == 6
    assert sum(1 for p in orth if is_nilradical(p)) == 3
    assert len({strip_orientation(p) for p in sympl}) == 6
    assert len({strip_orientation(p) for p in orth}) == 3


def test_borel_counts_have_closed_forms():
    # A Borel pattern pairs 2m of its l points by m arcs, each dotted or not
    # and oriented either way, and leaves every other point free or, in sp
    # only, on an upper or a lower loop: a = 3 states in sp and 1 in o, so
    # the EGF is exp(a x + 2 x^2).
    def double_factorial(k):
        return 1 if k <= 0 else k * double_factorial(k - 2)

    for kind, a in (("symplectic", 3), ("orthogonal", 1)):
        for l in range(41):
            closed = sum(math.comb(l, 2 * m) * double_factorial(2 * m - 1) * 4 ** m
                         * a ** (l - 2 * m) for m in range(l // 2 + 1))
            assert count_borel(kind, l) == closed, (kind, l)
    # Borel nilradical counts: a_l = c a_(l-1) + 2 (l-1) a_(l-2), a_0 = 1.
    for kind, c, want in (("symplectic", 2, [2, 6, 20, 76, 312, 1384]),
                          ("orthogonal", 1, [1, 3, 7, 25, 81, 331])):
        counts = [1, c]
        for l in range(2, 7):
            counts.append(c * counts[-1] + 2 * (l - 1) * counts[-2])
        assert counts[1:] == want
        assert [sum(map(is_nilradical, enumerate_patterns(kind, l, (1,) * l)))
                for l in range(1, 7)] == want, kind


def test_is_nilradical_refuses_block_patterns():
    # The Borel rule over-counts at the parabolic level (27 of the 95 sp_8
    # (2, 2) orbits instead of 20), so it answers only for capacities 1.
    block = enumerate_patterns("symplectic", 2, (2, 2))
    assert len(block) == 95
    for p in block:
        with pytest.raises(DomainError, match="Borel patterns only"):
            is_nilradical(p)
    with pytest.raises(DomainError, match="Borel patterns only"):
        is_nilradical(LinkPattern("orthogonal", 2, (1, 3), ()))
    assert is_nilradical(LinkPattern.borel("symplectic", 2, (undotted(2, 1),)))


def test_strip_orientation_is_idempotent_projection():
    for kind in ("symplectic", "orthogonal"):
        for p in enumerate_patterns(kind, 3, (1, 1, 1)):
            s = strip_orientation(p)
            assert is_nilradical(s)
            assert strip_orientation(s) == s
            if is_nilradical(p):
                assert s == p


def test_pattern_json_round_trip_and_canonical_bytes():
    p = LinkPattern.borel("symplectic", 3, (dotted(1, 2), upper_loop(3)))
    text = pattern_to_json(p)
    assert pattern_from_json(text) == p
    # canonical bytes: sorted keys, no spaces, arcs in canonical order
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":"))
    obj = json.loads(text)
    assert obj["kind"] == "symplectic"
    assert obj["arcs"][1]["loop"] == "upper"


@pytest.mark.parametrize("kind", ["symplectic", "orthogonal"])
def test_pattern_json_is_the_sorted_compact_dump(kind):
    # pattern_to_json joins cached fragments; it must stay byte for byte the
    # plain dump, for every arc type alone and in every small pattern.
    def plain(p):
        return json.dumps(pattern_to_obj(p), sort_keys=True, separators=(",", ":"))
    for k in range(5):
        b = (2,) * k
        for arc in _arc_types(k):
            for p in (LinkPattern(kind, k, b, (arc,)),
                      LinkPattern(kind, k, b, (Arc(arc.source, arc.target,
                                                   arc.dotted, arc.loop_variant),) * 2)):
                assert pattern_to_json(p) == plain(p)
        for p in enumerate_patterns(kind, k, (1,) * k):
            assert pattern_to_json(p) == plain(p)
    p = LinkPattern(kind, 2, (3, 1), (undotted(1, 2), unoriented_loop(1)))
    assert pattern_to_json(p) == plain(p)


def test_pattern_json_rejects_malformed():
    with pytest.raises(DomainError):
        pattern_from_json("{]")
    with pytest.raises(DomainError):
        pattern_from_obj({"kind": "symplectic", "k": 1, "b": [1]})
    with pytest.raises(DomainError):
        pattern_from_obj({"kind": "symplectic", "k": 1, "b": [1],
                          "arcs": [{"from": 1, "to": 1}]})
    with pytest.raises(DomainError):
        pattern_from_obj({"kind": "symplectic", "k": 1, "b": [1],
                          "arcs": [{"from": 1, "to": 1, "dotted": 1,
                                    "loop": "upper"}]})
    with pytest.raises(DomainError):
        pattern_from_obj({"kind": "symplectic", "k": 2, "b": [1, 1],
                          "arcs": [{"from": 1, "to": 2, "dotted": False,
                                    "loop": "upper"}]})


def test_search_refuses_a_level_past_the_arc_type_bound():
    # 2k^2 + k types: k = 223 has 99,681, k = 224 has 100,576
    assert next(_search("symplectic", 223, (1,) * 223)[1]) == ()
    with pytest.raises(DomainError, match="100,576 arc types"):
        _search("orthogonal", 224, (1,) * 224)

