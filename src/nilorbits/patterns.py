"""Link patterns: the combinatorial index sets for the conjugation orbits.

A pattern lives on k vertices carrying capacities b = (b_1, ..., b_k) and
holds a multiset of arcs: oriented, possibly dotted, with three loop
variants (dotted upper, dotted lower, undotted unoriented).  Validity is a
per-vertex capacity check; with b = (1, ..., 1) it specializes to the Borel
orbit index sets for sp_{2l} and o_n, and with general b to the parabolic
ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .linalg import (DomainError, GroupKind, ORTHOGONAL, SYMPLECTIC, SpaceSpec,
                     _is_int)

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
        object.__setattr__(self, "b", tuple(int(v) for v in self.b))
        if self.k < 0 or len(self.b) != self.k or any(v < 1 for v in self.b):
            raise DomainError("block vector must list a positive capacity per vertex")
        for arc in self.arcs:
            if not (1 <= arc.source <= self.k and 1 <= arc.target <= self.k):
                raise DomainError(f"arc {arc.text()} leaves the vertex range 1..{self.k}")
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs, key=Arc.key)))

    @staticmethod
    def borel(kind: str, l: int, arcs: Iterable[Arc] = ()) -> "LinkPattern":
        return LinkPattern(kind, l, (1,) * l, tuple(arcs))

    @property
    def is_borel_level(self) -> bool:
        return all(v == 1 for v in self.b)

    def key(self) -> tuple:
        return tuple(arc.key() for arc in self.arcs)

    def text(self) -> str:
        return "{" + ", ".join(arc.text() for arc in self.arcs) + "}" if self.arcs else "{}"


def consumption(p: LinkPattern) -> tuple[int, ...]:
    """Per-vertex capacity use: non-loop endpoints + 2*(unoriented loops)
    + w*(dotted loops), with w = 1 symplectic and w = 2 orthogonal."""
    w = 1 if p.kind == SYMPLECTIC else 2
    used = [0] * (p.k + 1)
    for arc in p.arcs:
        if arc.loop_variant == LOOP_UNORIENTED:
            used[arc.source] += 2
        elif arc.is_loop:
            used[arc.source] += w
        else:
            used[arc.source] += 1
            used[arc.target] += 1
    return tuple(used[1:])


def validate(p: LinkPattern) -> bool:
    """True iff every vertex stays within its capacity."""
    return all(c <= cap for c, cap in zip(consumption(p), p.b))


def _arc_types(k: int) -> list[Arc]:
    """All arc types on k vertices, in canonical order."""
    types: list[Arc] = []
    for i in range(1, k + 1):
        types.extend((upper_loop(i), lower_loop(i), unoriented_loop(i)))
        for j in range(i + 1, k + 1):
            types.extend((undotted(i, j), undotted(j, i), dotted(i, j), dotted(j, i)))
    types.sort(key=Arc.key)
    return types


def _arc_cost(arc: Arc, kind: str) -> dict[int, int]:
    w = 1 if kind == SYMPLECTIC else 2
    if arc.loop_variant == LOOP_UNORIENTED:
        return {arc.source: 2}
    if arc.is_loop:
        return {arc.source: w}
    return {arc.source: 1, arc.target: 1}


def enumerate_patterns(kind: str, k: int, b: Sequence[int]) -> list[LinkPattern]:
    """All valid patterns, without duplicates, in canonical order.

    Depth-first over arc types in canonical order with residual vertex
    capacities, so invalid candidates are never generated; the emission
    order is lexicographic on the canonical arc encoding.
    """
    base = LinkPattern(kind, k, tuple(b), ())
    types = _arc_types(k)
    costs = [_arc_cost(t, kind) for t in types]
    residual = list(base.b)
    chosen: list[Arc] = []
    out: list[LinkPattern] = []

    def extend(start: int):
        out.append(LinkPattern(kind, k, base.b, tuple(chosen)))
        for t in range(start, len(types)):
            cost = costs[t]
            if all(residual[v - 1] >= c for v, c in cost.items()):
                for v, c in cost.items():
                    residual[v - 1] -= c
                chosen.append(types[t])
                extend(t)
                chosen.pop()
                for v, c in cost.items():
                    residual[v - 1] += c

    extend(0)
    return out


def count_borel(kind: str, l: int) -> int:
    """Borel-level pattern count by the two-term recurrences (exact ints)."""
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
    vertex beyond the last flag step are rejected.
    """
    if not p.is_borel_level:
        raise DomainError("glue expects a Borel-level pattern (all capacities 1)")
    if not validate(p):
        raise DomainError("glue expects a valid pattern")
    if (p.kind == SYMPLECTIC) != spec.group.is_symplectic:
        raise DomainError("pattern kind does not match the group family")
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
    glued = LinkPattern(p.kind, spec.k, spec.blocks, tuple(arcs))
    if not validate(glued):
        raise DomainError("glued pattern exceeds a block capacity")
    return glued


def is_nilradical(p: LinkPattern) -> bool:
    """True iff every non-loop arc points leftward and every dotted loop is upper."""
    for arc in p.arcs:
        if arc.loop_variant == LOOP_LOWER:
            return False
        if not arc.is_loop and arc.source < arc.target:
            return False
    return True


def strip_orientation(p: LinkPattern) -> LinkPattern:
    """Forget orientations: the canonical representative points leftward.

    Non-loop arcs are redrawn with the larger endpoint as source, dotted
    loops become upper; the result is the nilradical-form pattern of p's
    class, and two patterns merge iff they differ only by orientation.
    """
    arcs = []
    for arc in p.arcs:
        if arc.loop_variant == LOOP_LOWER:
            arcs.append(upper_loop(arc.source))
        elif not arc.is_loop:
            lo, hi = min(arc.source, arc.target), max(arc.source, arc.target)
            arcs.append(Arc(hi, lo, dotted=arc.dotted))
        else:
            arcs.append(arc)
    return LinkPattern(p.kind, p.k, p.b, tuple(arcs))


# -- JSON ---------------------------------------------------------------------


def _arc_to_obj(arc: Arc) -> dict:
    obj: dict = {"from": arc.source, "to": arc.target, "dotted": arc.dotted}
    if arc.is_loop:
        obj["loop"] = arc.loop_variant
    return obj


def _arc_from_obj(obj) -> Arc:
    if not isinstance(obj, dict) or not {"from", "to", "dotted"} <= set(obj):
        raise DomainError("arc object needs keys from, to, dotted")
    source, target, dot = obj["from"], obj["to"], obj["dotted"]
    variant = obj.get("loop", LOOP_NONE)
    if (not _is_int(source) or not _is_int(target) or not isinstance(dot, bool)
            or not isinstance(variant, str)):
        raise DomainError("arc fields have the wrong types")
    return Arc(source, target, dotted=dot, loop_variant=variant)


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


def pattern_to_json(p: LinkPattern) -> str:
    """Canonical byte-stable serialization (arcs in canonical order)."""
    return json.dumps(pattern_to_obj(p), sort_keys=True, separators=(",", ":"))


def pattern_from_json(text: str) -> LinkPattern:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"bad JSON: {exc}") from exc
    return pattern_from_obj(obj)
