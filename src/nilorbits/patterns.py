"""Link patterns: the combinatorial index sets for the conjugation orbits.

A pattern lives on k vertices carrying capacities b = (b_1, ..., b_k) and
holds a multiset of arcs: oriented, possibly dotted, with three loop
variants (dotted upper, dotted lower, undotted unoriented).  Validity is a
per-vertex capacity check; with b = (1, ..., 1) it specializes to the Borel
orbit index sets for sp_{2l} and o_n, and with general b to the parabolic
ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from operator import attrgetter, sub
from typing import Iterable, Iterator, Sequence

from .linalg import (DomainError, ORTHOGONAL, SYMPLECTIC, SpaceSpec, _dumps,
                     _is_int, _ints, _load_json)

LOOP_NONE = "none"
LOOP_UPPER = "upper"
LOOP_LOWER = "lower"
LOOP_UNORIENTED = "unoriented"

_LOOP_CODE = {LOOP_NONE: 0, LOOP_UPPER: 1, LOOP_LOWER: 2, LOOP_UNORIENTED: 3}


@dataclass(frozen=True, order=True)
class Arc:
    """One arc: source -> target, optionally dotted, with a loop variant.

    A loop (source == target) must declare its variant: dotted loops are
    "upper" or "lower", undotted loops are "unoriented".  Non-loop arcs have
    loop_variant "none".

    The hash is the dataclass rule, hash((source, target, dotted,
    loop_variant)), worked out once after the checks and kept outside the
    fields: every memo and set lookup of the quiver and pattern layers
    hashes arcs, and an arc is never changed.  A `str` hashes differently
    in another process, so a pickled arc must not carry the hash:
    `__reduce__` rebuilds each arc through the constructor (for `pickle`,
    `copy` and `deepcopy` alike), which hashes it anew.
    """

    source: int
    target: int
    dotted: bool = False
    loop_variant: str = LOOP_NONE

    def __post_init__(self):
        if not (_is_int(self.source) and _is_int(self.target)
                and isinstance(self.dotted, bool) and isinstance(self.loop_variant, str)):
            raise DomainError("arc fields have the wrong types: endpoints are integers, "
                              "dotted a bool, the loop variant a string")
        if self.loop_variant not in _LOOP_CODE:
            raise DomainError(f"unknown loop variant {self.loop_variant!r}")
        if (self.source == self.target) != (self.loop_variant != LOOP_NONE):
            raise DomainError("loop_variant must be set exactly for loops")
        if self.loop_variant in (LOOP_UPPER, LOOP_LOWER) and not self.dotted:
            raise DomainError("upper/lower loops are dotted by definition")
        if self.loop_variant == LOOP_UNORIENTED and self.dotted:
            raise DomainError("unoriented loops are undotted by definition")
        self.__dict__["_hash"] = hash((self.source, self.target, self.dotted,
                                       self.loop_variant))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Arc, (self.source, self.target, self.dotted, self.loop_variant)

    @property
    def is_loop(self) -> bool:
        return self.source == self.target

    def key(self) -> tuple[int, int, int, int, int]:
        """Canonical encoding: (min, max, direction, dotted, loop code)."""
        lo, hi = min(self.source, self.target), max(self.source, self.target)
        direction = 0 if self.source <= self.target else 1
        return (lo, hi, direction, int(self.dotted), _LOOP_CODE[self.loop_variant])

    def text(self) -> str:
        if self.loop_variant == LOOP_UNORIENTED:
            return f"loop({self.source})"
        if self.loop_variant == LOOP_UPPER:
            return f"uloop({self.source})"
        if self.loop_variant == LOOP_LOWER:
            return f"lloop({self.source})"
        return f"{self.source}{'..>' if self.dotted else '->'}{self.target}"

    # Fragments kept on the instance: the search emits the same few arc
    # objects in every pattern, so each is worked out once per arc.

    @cached_property
    def _text(self) -> str:
        """The arc's `text()`, for the text and csv writers."""
        return self.text()

    @cached_property
    def _json(self) -> str:
        """The arc's `pattern_to_json` fragment."""
        return _dumps(_arc_to_obj(self))

    @cached_property
    def _cost(self) -> dict[str, tuple[tuple[int, int], ...]]:
        """The arc's `_arc_cost` in each kind, for the capacity gate."""
        return {kind: _arc_cost(self, kind) for kind in (SYMPLECTIC, ORTHOGONAL)}


def undotted(source: int, target: int) -> Arc:
    return Arc(source, target, dotted=False)


def dotted(source: int, target: int) -> Arc:
    return Arc(source, target, dotted=True)


def upper_loop(v: int) -> Arc:
    return Arc(v, v, dotted=True, loop_variant=LOOP_UPPER)


def lower_loop(v: int) -> Arc:
    return Arc(v, v, dotted=True, loop_variant=LOOP_LOWER)


def unoriented_loop(v: int) -> Arc:
    return Arc(v, v, dotted=False, loop_variant=LOOP_UNORIENTED)


@dataclass(frozen=True)
class LinkPattern:
    """A multiset of arcs on k capacity-carrying vertices.

    kind is "symplectic" or "orthogonal"; it fixes the dotted-loop weight in
    the validity rule and the matrix translation downstream.  Arcs are kept
    sorted by their canonical key, so equal patterns compare equal.
    """

    kind: str
    k: int
    b: tuple[int, ...]
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        if self.kind not in (SYMPLECTIC, ORTHOGONAL):
            raise DomainError(f"unknown pattern kind {self.kind!r}")
        if not _is_int(self.k):
            raise DomainError(f"vertex count k must be an integer, got {self.k!r}")
        object.__setattr__(self, "b", _ints(self.b, "block capacities"))
        if self.k < 0 or len(self.b) != self.k or any(v < 1 for v in self.b):
            raise DomainError("block vector must list a positive capacity per vertex")
        for arc in self.arcs:
            if not (1 <= arc.source <= self.k and 1 <= arc.target <= self.k):
                raise DomainError(f"arc {arc.text()} leaves the vertex range 1..{self.k}")
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs, key=Arc.key)))

    @staticmethod
    def borel(kind: str, l: int, arcs: Iterable[Arc] = ()) -> "LinkPattern":
        return LinkPattern(kind, l, (1,) * l, tuple(arcs))

    def key(self) -> tuple:
        return tuple(arc.key() for arc in self.arcs)

    def text(self) -> str:
        return _arcs_text(_joined(self.arcs, _TEXT_ARCS))


def _one_arc(arc: Arc) -> tuple[Arc]:
    """The arc as a one-arc tuple: `_search` joins these into arc tuples."""
    return (arc,)


# How each writer joins a pattern's arcs: an item per arc and the separator
# between items.  `_search` joins every pattern it finds with one of them,
# and `_joined` joins a pattern's own arcs with the same pair, so the line
# helpers below take the joined string and each writer's layout is stated
# once.  The arc tuple is the search's default.
_ARC_TUPLE = (_one_arc, ())
_JSON_ARCS = (attrgetter("_json"), ",")
_TEXT_ARCS = (attrgetter("_text"), ", ")
_CSV_ARCS = (attrgetter("_text"), ";")


def _joined(arcs: tuple[Arc, ...], join: tuple) -> str:
    """These arcs joined as `_search` would join them with `join`."""
    item, sep = join
    return sep.join(map(item, arcs))


def _arcs_text(arcs: str) -> str:
    """`LinkPattern.text` of the pattern whose arcs join to `arcs` under
    `_TEXT_ARCS`."""
    return "{" + arcs + "}"


def _csv_row(index: int, arcs: str) -> str:
    """The CLI's csv row of the pattern whose arcs join to `arcs` under
    `_CSV_ARCS`."""
    return f"{index},{arcs}"


def _arc_cost(arc: Arc, kind: str) -> tuple[tuple[int, int], ...]:
    """(vertex, capacity) pairs an arc takes: 1 per non-loop endpoint, 2 for
    an unoriented loop, and w for a dotted loop, with w = 1 symplectic and
    w = 2 orthogonal."""
    if arc.loop_variant == LOOP_UNORIENTED:
        return ((arc.source, 2),)
    if arc.is_loop:
        return ((arc.source, 1 if kind == SYMPLECTIC else 2),)
    return ((arc.source, 1), (arc.target, 1))


def _left(p: LinkPattern) -> list[int]:
    """Capacity each vertex of p has left, negative where p overflows it:
    its b less the `_arc_cost` of the arcs, read from each arc's cache."""
    left = list(p.b)
    kind = p.kind
    for arc in p.arcs:
        for v, c in arc._cost[kind]:
            left[v - 1] -= c
    return left


def consumption(p: LinkPattern) -> tuple[int, ...]:
    """Per-vertex capacity use: the `_arc_cost` of the arcs, summed."""
    return tuple(map(sub, p.b, _left(p)))


def validate(p: LinkPattern) -> bool:
    """True iff every vertex stays within its capacity."""
    return all(v >= 0 for v in _left(p))


def _free_capacity(p: LinkPattern, spec: SpaceSpec) -> list[int]:
    """Capacity p leaves at each block of `spec`, refusing p unless it
    indexes an orbit of spec: same family, the flag's blocks, and no block
    over its capacity.  Each arc's cost is read from its cache
    (`Arc._cost`), so a call is one pass over the arcs."""
    g = spec.group
    if (p.kind == SYMPLECTIC) != g.is_symplectic:
        raise DomainError("pattern kind does not match the group family")
    if p.b != spec.blocks:
        raise DomainError(f"pattern capacities {p.b} do not match the flag blocks "
                          f"{spec.blocks} of {g.name} (rank {g.l})")
    free = _left(p)
    if free and min(free) < 0:
        raise DomainError("pattern is not valid for its capacities")
    return free


# Searches come back to the same small levels (a verify pass walks each
# level of ranks up to 3 once per check family), so the levels k = 0, ...,
# 16 keep their arc types, 528 of them at k = 16, and with them the
# fragments each arc caches.  A larger level is built anew for each search
# and freed with it, so a large `enumerate` keeps no table.
_KEPT_LEVELS = 17


def _arc_types(k: int) -> tuple[Arc, ...]:
    """All arc types on k vertices, in canonical order: one shared tuple for
    each of the first `_KEPT_LEVELS` levels, a new one above them."""
    return _kept_arc_types(k) if k < _KEPT_LEVELS else _new_arc_types(k)


@lru_cache(maxsize=_KEPT_LEVELS)
def _kept_arc_types(k: int) -> tuple[Arc, ...]:
    return _new_arc_types(k)


def _new_arc_types(k: int) -> tuple[Arc, ...]:
    types: list[Arc] = []
    for i in range(1, k + 1):
        types.extend((upper_loop(i), lower_loop(i), unoriented_loop(i)))
        for j in range(i + 1, k + 1):
            types.extend((undotted(i, j), undotted(j, i), dotted(i, j), dotted(j, i)))
    types.sort(key=Arc.key)
    return tuple(types)


def _trusted(kind: str, k: int, b: tuple[int, ...], arcs: tuple[Arc, ...]) -> LinkPattern:
    """A LinkPattern built without `__post_init__`, for arcs the caller
    already holds valid and in canonical order.  The fields are set in
    declaration order, as `__init__` sets them, so instances keep sharing
    one dict key table."""
    p = object.__new__(LinkPattern)
    object.__setattr__(p, "kind", kind)
    object.__setattr__(p, "k", k)
    object.__setattr__(p, "b", b)
    object.__setattr__(p, "arcs", arcs)
    return p


# `_search` tabulates the 2k^2 + k arc types of its level before the first
# pattern: at this bound, reached at k = 223, about 0.6 s and 20 MB of peak
# RSS over the imported package (2-core VM, Python 3.11).  A level with more
# types is refused before its table or its block tuple is built.
_MAX_ARC_TYPES = 100_000


def _search(kind: str, k: int, b: Iterable[int],
            join: tuple = _ARC_TUPLE) -> tuple[tuple[int, ...], Iterator]:
    """The checked capacities of the level and each of its valid patterns,
    streamed in canonical order, as its arcs joined under `join`.

    The level is checked here, before the first pattern is asked for: its
    arc-type count first, so that `b` may be a lazy iterable.  By default a
    pattern is its bare arc tuple (`_ARC_TUPLE`): `enumerate_patterns`
    makes the tuples patterns, and the CLI counts them.  With one of the
    writers' joins (`_JSON_ARCS`, `_TEXT_ARCS`, `_CSV_ARCS`) a pattern is
    the string its line helper takes.

    The level's table holds, per arc type, its costs at its lower and its
    upper vertex (the upper is the lower, at cost 0, for a loop), the index
    past the run of types that share its lower vertex and the index past
    the run that share both its vertices.  `Arc.key` begins (lo, hi), so in
    canonical order both runs are contiguous, and every type of a run takes
    at least 1 at the run's vertex: the walk skips a run whose vertex has
    nothing left.  Neighbours with equal entries share one tuple (the four
    arcs of a vertex pair, say), so the jumps cost the table little memory.
    """
    if _is_int(k) and k * (2 * k + 1) > _MAX_ARC_TYPES:
        raise DomainError(f"level k={k} has {k * (2 * k + 1):,} arc types, over the "
                          f"{_MAX_ARC_TYPES:,} the enumerator tabulates (k <= 223)")
    b = LinkPattern(kind, k, tuple(b), ()).b
    types = _arc_types(k)
    # (lo, clo, hi, chi, past_lo, past_pair), 0-based, built from the last type
    costs: list[tuple[int, ...]] = []
    after = (-1, 0, -1, 0, 0, 0)   # the entry of the type after t
    for t in reversed(range(len(types))):
        (u, cu), *rest = _arc_cost(types[t], kind)
        v, cv = rest[0] if rest else (u, 0)
        lo, hi = min(u, v) - 1, max(u, v) - 1   # cu = cv = 1 for a non-loop
        past_lo = after[4] if lo == after[0] else t + 1
        past_pair = after[5] if (lo, hi) == (after[0], after[2]) else t + 1
        cost = (lo, cu, hi, cv, past_lo, past_pair)
        after = after if cost == after else cost
        costs.append(after)
    costs.reverse()
    return b, _walk(b, costs, types, join)


def _walk(b, costs, types, join) -> Iterator:
    """Pre-order depth-first walk over the arc types in `Arc.key` order with
    a non-decreasing index, taking a type only while every vertex it touches
    has the capacity: each pattern it yields is valid and sorted, and it
    yields each multiset once, lexicographically on the canonical arc
    encoding.

    The walk skips what cannot fit.  At a type that does not fit, it jumps
    past the type's lower-vertex run when that vertex has nothing left, or
    past its vertex-pair run when the upper vertex of a non-loop has
    nothing left, and steps to the next type otherwise.  This is exact:
    nothing is taken or given back while the walk scans, so a scan of
    every type would test each skipped type against the same capacities,
    and each of them takes at least 1 at the vertex that has none left.
    The walk yields what that scan yields, in the same order.

    A pattern's value is its parent's value, the separator of `join`, and
    the item of its last type (the item alone below the empty root), so
    each is built from the value the walk already holds.  A type's item is
    made once, when the walk first takes the type: a level's first
    pattern costs no item per type.
    """
    make, sep = join
    items = [None] * len(types)   # a type's item, made when it is first taken
    residual = list(b)
    empty = sep[:0]
    taken: list[tuple[int, object]] = []   # (type index, value) of each chosen arc
    yield empty
    t, end = 0, len(costs)
    while True:
        while t < end:
            lo, clo, hi, chi, past_lo, past_pair = costs[t]
            if residual[lo] >= clo and residual[hi] >= chi:
                break
            if not residual[lo]:
                t = past_lo
            elif not residual[hi]:
                t = past_pair
            else:
                t += 1
        else:
            if not taken:
                return
            t, _ = taken.pop()
            lo, clo, hi, chi, _, _ = costs[t]
            residual[lo] += clo
            residual[hi] += chi
            t += 1
            continue
        residual[lo] -= clo
        residual[hi] -= chi
        item = items[t]
        if item is None:
            item = items[t] = make(types[t])
        value = taken[-1][1] + sep + item if taken else item
        taken.append((t, value))
        yield value


def _patterns(kind: str, k: int, b: tuple[int, ...],
              found: Iterable[tuple[Arc, ...]]) -> list[LinkPattern]:
    """The patterns of arc tuples `_search` found at the level (kind, k, b)."""
    return [_trusted(kind, k, b, arcs) for arcs in found]


def enumerate_patterns(kind: str, k: int, b: Sequence[int]) -> list[LinkPattern]:
    """All valid patterns, without duplicates, in canonical order.

    Depth-first over arc types in canonical order with residual vertex
    capacities, so invalid candidates are never generated; the emission
    order is lexicographic on the canonical arc encoding.
    """
    b, found = _search(kind, k, b)
    return _patterns(kind, k, b, found)


# Python's default limit on int-to-decimal conversion: a longer count could
# be neither printed nor written as JSON (sp passes it at l = 2406, o at 2417).
_MAX_COUNT_DIGITS = 4300
_COUNT_BOUND = 10 ** _MAX_COUNT_DIGITS


def count_borel(kind: str, l: int) -> int:
    """Borel-level pattern count a_l, in exact ints, by the recurrence
    a_m = c a_{m-1} + 4 (m - 1) a_{m-2} from (a_{-1}, a_0) = (0, 1), with
    c = 3 for sp and 1 for o.  A count past `_MAX_COUNT_DIGITS` digits is
    refused as soon as the recurrence reaches one: every l is answered or
    refused after at most a few thousand steps."""
    if not _is_int(l):
        raise DomainError(f"l must be an integer, got {l!r}")
    if l < 0:
        raise DomainError("l must be nonnegative")
    if kind not in (SYMPLECTIC, ORTHOGONAL):
        raise DomainError(f"unknown pattern kind {kind!r}")
    c = 3 if kind == SYMPLECTIC else 1
    prev, cur = 0, 1   # a_{-1}, a_0
    for m in range(1, l + 1):
        prev, cur = cur, c * cur + 4 * (m - 1) * prev
        if cur >= _COUNT_BOUND:
            raise DomainError(f"the {kind} pattern count at l={l} has more than "
                              f"{_MAX_COUNT_DIGITS} digits; refusing")
    return cur


def glue(p: LinkPattern, spec: SpaceSpec) -> LinkPattern:
    """Project a Borel-level pattern onto the flag blocks of `spec`.

    Endpoints map to their flag block.  An undotted arc inside one block
    becomes an unoriented loop; a dotted arc inside one block becomes dotted
    loops (two for symplectic, weight 1 each; one for orthogonal, weight 2),
    upper for leftward arcs and lower for rightward ones.  Arcs touching a
    vertex beyond the last flag step are rejected.  Each block takes the
    capacity its vertices used, so a valid input glues to a valid pattern.
    """
    _free_capacity(p, SpaceSpec.borel(spec.group))
    arcs: list[Arc] = []
    for arc in p.arcs:
        s, t = spec.block_of(arc.source), spec.block_of(arc.target)
        if arc.is_loop:
            arcs.append(replace(arc, source=s, target=s))
        elif s != t:
            arcs.append(Arc(s, t, dotted=arc.dotted))
        elif not arc.dotted:
            arcs.append(unoriented_loop(s))
        else:
            leftward = arc.source > arc.target
            loop = upper_loop(s) if leftward else lower_loop(s)
            arcs.append(loop)
            if p.kind == SYMPLECTIC:
                arcs.append(loop)
    return LinkPattern(p.kind, spec.k, spec.blocks, tuple(arcs))


def _leftward(arc: Arc) -> Arc:
    """The nilradical orientation of an arc: a non-loop arc drawn from its
    larger endpoint, a dotted loop upper, an unoriented loop as it is."""
    if arc.loop_variant == LOOP_LOWER:
        return upper_loop(arc.source)
    if arc.source < arc.target:
        return Arc(arc.target, arc.source, dotted=arc.dotted)
    return arc


def is_nilradical(p: LinkPattern) -> bool:
    """True iff every arc already has its `_leftward` orientation.  The rule
    holds at the Borel level only, so a pattern with a capacity other than 1
    is refused."""
    if any(cap != 1 for cap in p.b):
        raise DomainError(f"is_nilradical decides Borel patterns only (capacities 1), "
                          f"got capacities {p.b}")
    return all(_leftward(arc) == arc for arc in p.arcs)


def strip_orientation(p: LinkPattern) -> LinkPattern:
    """Forget orientations: every arc takes its `_leftward` orientation.

    The result is the nilradical-form pattern of p's class, and two patterns
    merge iff they differ only by orientation.
    """
    return LinkPattern(p.kind, p.k, p.b, tuple(map(_leftward, p.arcs)))


# -- JSON ---------------------------------------------------------------------


def _arc_to_obj(arc: Arc) -> dict:
    obj: dict = {"from": arc.source, "to": arc.target, "dotted": arc.dotted}
    if arc.is_loop:
        obj["loop"] = arc.loop_variant
    return obj


def _arc_from_obj(obj) -> Arc:
    if not isinstance(obj, dict) or not {"from", "to", "dotted"} <= set(obj):
        raise DomainError("arc object needs keys from, to, dotted")
    return Arc(obj["from"], obj["to"], dotted=obj["dotted"],
               loop_variant=obj.get("loop", LOOP_NONE))


def pattern_to_obj(p: LinkPattern) -> dict:
    return {"kind": p.kind, "k": p.k, "b": list(p.b),
            "arcs": [_arc_to_obj(a) for a in p.arcs]}


def pattern_from_obj(obj) -> LinkPattern:
    if not isinstance(obj, dict) or not {"kind", "k", "b", "arcs"} <= set(obj):
        raise DomainError("pattern object needs keys kind, k, b, arcs")
    if (not isinstance(obj["kind"], str) or not _is_int(obj["k"])
            or not isinstance(obj["b"], list) or not all(_is_int(v) for v in obj["b"])
            or not isinstance(obj["arcs"], list)):
        raise DomainError("pattern fields have the wrong types: kind is a string, "
                          "k an integer, b a list of integers, arcs a list")
    arcs = tuple(_arc_from_obj(a) for a in obj["arcs"])
    return LinkPattern(obj["kind"], obj["k"], tuple(obj["b"]), arcs)


@lru_cache(maxsize=256)
def _level_json(kind: str, k: int, b: tuple[int, ...]) -> str:
    # the object without its opening brace: under sort_keys "arcs" comes first
    return _dumps({"b": list(b), "k": k, "kind": kind})[1:]


def _json_line(arcs: str, level_json: str) -> str:
    """`pattern_to_json` of the pattern whose arcs join to `arcs` under
    `_JSON_ARCS`, at the level whose `_level_json` is given."""
    return f'{{"arcs":[{arcs}],{level_json}'


def pattern_to_json(p: LinkPattern) -> str:
    """Canonical byte-stable serialization (arcs in canonical order): the
    `_dumps(pattern_to_obj(p))` bytes, joined from cached per-arc and
    per-level fragments."""
    return _json_line(_joined(p.arcs, _JSON_ARCS), _level_json(p.kind, p.k, p.b))


def pattern_from_json(text: str) -> LinkPattern:
    return pattern_from_obj(_load_json(text))
