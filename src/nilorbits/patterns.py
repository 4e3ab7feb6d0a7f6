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

    @cached_property
    def _json(self) -> str:
        """The arc's `pattern_to_json` fragment, kept on the instance: the
        search emits the same few arc objects in every pattern."""
        return _dumps(_arc_to_obj(self))


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
        return "{" + ", ".join(arc.text() for arc in self.arcs) + "}" if self.arcs else "{}"


def _arc_cost(arc: Arc, kind: str) -> tuple[tuple[int, int], ...]:
    """(vertex, capacity) pairs an arc takes: 1 per non-loop endpoint, 2 for
    an unoriented loop, and w for a dotted loop, with w = 1 symplectic and
    w = 2 orthogonal."""
    if arc.loop_variant == LOOP_UNORIENTED:
        return ((arc.source, 2),)
    if arc.is_loop:
        return ((arc.source, 1 if kind == SYMPLECTIC else 2),)
    return ((arc.source, 1), (arc.target, 1))


def consumption(p: LinkPattern) -> tuple[int, ...]:
    """Per-vertex capacity use: the `_arc_cost` of the arcs, summed."""
    used = [0] * (p.k + 1)
    for arc in p.arcs:
        for v, c in _arc_cost(arc, p.kind):
            used[v] += c
    return tuple(used[1:])


def validate(p: LinkPattern) -> bool:
    """True iff every vertex stays within its capacity."""
    return all(c <= cap for c, cap in zip(consumption(p), p.b))


def _free_capacity(p: LinkPattern, spec: SpaceSpec) -> tuple[int, ...]:
    """Capacity p leaves at each block of `spec`, refusing p unless it
    indexes an orbit of spec: same family, the flag's blocks, and no block
    over its capacity."""
    g = spec.group
    if (p.kind == SYMPLECTIC) != g.is_symplectic:
        raise DomainError("pattern kind does not match the group family")
    if p.b != spec.blocks:
        raise DomainError(f"pattern capacities {p.b} do not match the flag blocks "
                          f"{spec.blocks} of {g.name} (rank {g.l})")
    free = tuple(cap - used for cap, used in zip(p.b, consumption(p)))
    if any(f < 0 for f in free):
        raise DomainError("pattern is not valid for its capacities")
    return free


def _arc_types(k: int) -> list[Arc]:
    """All arc types on k vertices, in canonical order."""
    types: list[Arc] = []
    for i in range(1, k + 1):
        types.extend((upper_loop(i), lower_loop(i), unoriented_loop(i)))
        for j in range(i + 1, k + 1):
            types.extend((undotted(i, j), undotted(j, i), dotted(i, j), dotted(j, i)))
    types.sort(key=Arc.key)
    return types


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


def _search(kind: str, k: int, b: Sequence[int]) -> Iterator[LinkPattern]:
    """All valid patterns of the level, streamed in canonical order.

    The level is checked here, before the first pattern is asked for.  The
    walk takes arc types in `Arc.key` order with a non-decreasing index and
    takes a type only while every vertex it touches has the capacity, so each
    arc tuple it emits is valid and sorted, and it emits each multiset once,
    lexicographically on the canonical arc encoding.
    """
    b = LinkPattern(kind, k, tuple(b), ()).b
    types = _arc_types(k)
    # (u, cu, v, cv): take cu at u and cv at v (0-based); a loop has cv = 0
    costs = []
    for t in types:
        (u, cu), *rest = _arc_cost(t, kind)
        v, cv = rest[0] if rest else (u, 0)
        costs.append((u - 1, cu, v - 1, cv))
    return _walk(kind, k, b, types, costs)


def _walk(kind, k, b, types, costs) -> Iterator[LinkPattern]:
    # pre-order depth-first walk, the stack holding the chosen type indices
    residual = list(b)
    chosen: list[Arc] = []
    stack: list[int] = []
    yield _trusted(kind, k, b, ())
    t, end = 0, len(types)
    while True:
        while t < end:
            u, cu, v, cv = costs[t]
            if residual[u] >= cu and residual[v] >= cv:
                break
            t += 1
        else:
            if not stack:
                return
            t = stack.pop()
            chosen.pop()
            u, cu, v, cv = costs[t]
            residual[u] += cu
            residual[v] += cv
            t += 1
            continue
        residual[u] -= cu
        residual[v] -= cv
        stack.append(t)
        chosen.append(types[t])
        yield _trusted(kind, k, b, tuple(chosen))


def enumerate_patterns(kind: str, k: int, b: Sequence[int]) -> list[LinkPattern]:
    """All valid patterns, without duplicates, in canonical order.

    Depth-first over arc types in canonical order with residual vertex
    capacities, so invalid candidates are never generated; the emission
    order is lexicographic on the canonical arc encoding.
    """
    return list(_search(kind, k, b))


def count_borel(kind: str, l: int) -> int:
    """Borel-level pattern count by the two-term recurrences (exact ints)."""
    if not _is_int(l):
        raise DomainError(f"l must be an integer, got {l!r}")
    if l < 0:
        raise DomainError("l must be nonnegative")
    if kind == SYMPLECTIC:
        prev, cur = 1, 3
    elif kind == ORTHOGONAL:
        prev, cur = 1, 1
    else:
        raise DomainError(f"unknown pattern kind {kind!r}")
    if l == 0:
        return prev
    for m in range(2, l + 1):
        prev, cur = cur, (3 if kind == SYMPLECTIC else 1) * cur + 4 * (m - 1) * prev
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


def pattern_to_json(p: LinkPattern) -> str:
    """Canonical byte-stable serialization (arcs in canonical order): the
    `_dumps(pattern_to_obj(p))` bytes, joined from cached per-arc and
    per-level fragments."""
    return ('{"arcs":[' + ",".join([a._json for a in p.arcs]) + "],"
            + _level_json(p.kind, p.k, p.b))


def pattern_from_json(text: str) -> LinkPattern:
    return pattern_from_obj(_load_json(text))
