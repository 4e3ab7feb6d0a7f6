"""Randomized verification drivers and independent counting oracles.

Random group elements are built constructively: a diagonal torus part with
small integer eigenvalues times the exponential of a random strictly upper
triangular algebra member.  Both factors satisfy the form condition exactly,
the exponential is a finite sum, and inverses stay rational, so every check
downstream is zero-tolerance.

Randomness comes from random.Random (the stdlib Mersenne Twister), seeded
explicitly everywhere: identical seeds give identical trajectories.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .correspondence import identify, pattern_to_matrix, rank_signature
from .linalg import (DomainError, GroupKind, Matrix, ORTHOGONAL, SYMPLECTIC,
                     SpaceSpec, group_member, lie_algebra_basis)
from .patterns import count_borel, enumerate_patterns, is_nilradical
from .quiver import pattern_to_summands, total_dimension_vector


def exp_nilpotent(s: Matrix) -> Matrix:
    """exp of a nilpotent matrix: the finite sum sum_m s^m / m!."""
    if not s.is_square:
        raise DomainError("exp needs a square matrix")
    n = s.rows
    powers = []
    power = s
    for _ in range(n):
        if power.is_zero():
            break
        powers.append(power.entries)
        power = power @ s
    else:
        raise DomainError("matrix is not nilpotent")
    weights = [Fraction(1, factorial(m)) for m in range(1, len(powers) + 1)]
    rows = []
    for p in range(n):
        row = []
        for q in range(n):
            v = Fraction(1 if p == q else 0)
            for w, entries in zip(weights, powers):
                if entries[p][q]:
                    v += w * entries[p][q]
            row.append(v)
        rows.append(tuple(row))
    return Matrix(tuple(rows))


def _torus(g: GroupKind, rng: random.Random) -> tuple[Matrix, Matrix]:
    """A random diagonal group member diag(t_1..t_l, [1], 1/t_l..1/t_1)
    with t_i in {±1, ±2, ±3}, together with its inverse."""
    l, n = g.l, g.n
    ts = [Fraction(rng.choice([1, 2, 3]) * rng.choice([1, -1])) for _ in range(l)]
    diag = ts + ([Fraction(1)] if n % 2 else []) + [1 / t for t in reversed(ts)]
    mk = lambda vals: Matrix.from_rows([[vals[p] if p == q else 0 for q in range(n)]
                                        for p in range(n)])
    return mk(diag), mk([1 / v for v in diag])


@lru_cache(maxsize=None)
def _upper_basis(g: GroupKind) -> tuple[tuple[tuple[int, int, Fraction], ...], ...]:
    """Nonzero 0-based entries (p, q, value) of each strictly upper basis
    element of the algebra of g."""
    return tuple(tuple((p, q, v) for p, row in enumerate(b.entries)
                       for q, v in enumerate(row) if v)
                 for b in lie_algebra_basis(g, lambda r, c: r < c))


def _unipotent(g: GroupKind, rng: random.Random) -> tuple[Matrix, Matrix]:
    n = g.n
    acc = [[Fraction(0)] * n for _ in range(n)]
    for support in _upper_basis(g):
        coef = rng.randint(-2, 2)
        if coef:
            for p, q, v in support:
                acc[p][q] += coef * v
    s = Matrix(tuple(tuple(row) for row in acc))
    return exp_nilpotent(s), exp_nilpotent(-s)


def random_group_element_pair(g: GroupKind, spec: SpaceSpec,
                              seed: int) -> tuple[Matrix, Matrix]:
    """(u, u^{-1}): inverses come from exp(-s) and the reciprocal torus, so
    no elimination is involved and exactness is structural."""
    if spec.group != g:
        raise DomainError("spec belongs to a different group")
    rng = random.Random(seed)
    t, t_inv = _torus(g, rng)
    e, e_inv = _unipotent(g, rng)
    return t @ e, e_inv @ t_inv


def brute_force_count(kind: str, k: int, b: tuple[int, ...]) -> int:
    """Count valid patterns by raw multiset filtering, independently of the
    tree enumerator: choose a multiplicity for every arc type up to the
    obvious capacity cap, then keep the choices whose per-vertex cost fits.

    Refuses when the raw product space exceeds 10^7 choices.
    """
    if kind not in (SYMPLECTIC, ORTHOGONAL):
        raise DomainError(f"unknown pattern kind {kind!r}")
    b = tuple(int(v) for v in b)
    if len(b) != k or any(v < 1 for v in b):
        raise DomainError("block vector must list a positive capacity per vertex")
    w = 1 if kind == SYMPLECTIC else 2
    costs: list[dict[int, int]] = []
    for i in range(1, k + 1):
        costs.append({i: w})   # upper dotted loop
        costs.append({i: w})   # lower dotted loop
        costs.append({i: 2})   # unoriented loop
        for j in range(i + 1, k + 1):
            for _ in range(4):  # i->j, j->i, dotted both ways
                costs.append({i: 1, j: 1})
    caps = [min(b[v - 1] // c for v, c in cost.items()) for cost in costs]
    raw = 1
    for cap in caps:
        raw *= cap + 1
        if raw > 10 ** 7:
            raise DomainError("raw search space exceeds 10^7; refusing")
    count = 0
    for mults in itertools.product(*(range(cap + 1) for cap in caps)):
        used = [0] * (k + 1)
        for mult, cost in zip(mults, costs):
            if mult:
                for v, c in cost.items():
                    used[v] += mult * c
        if all(used[v] <= b[v - 1] for v in range(1, k + 1)):
            count += 1
    return count


# -- the verification suite ----------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    kinds: tuple[str, ...] = (SYMPLECTIC, ORTHOGONAL)
    max_rank: int = 3
    seed: int = 0
    conjugations: int = 5
    checks: tuple[str, ...] = ("counts", "separation", "conjugation",
                               "dimensions", "nilradical")


def _group_for(kind: str, l: int) -> GroupKind:
    if kind == SYMPLECTIC:
        return GroupKind.symplectic(2 * l)
    return GroupKind.orthogonal(2 * l + 1)


def run_suite(config: SuiteConfig) -> dict:
    """Run the configured check families; the report is a plain dict whose
    JSON form is byte-identical across runs with equal config."""
    items: list[dict] = []

    def record(test_id: str, params: dict, ok: bool, details: str = ""):
        items.append({"test_id": test_id, "params": params,
                      "status": "pass" if ok else "fail", "details": details})

    short = {SYMPLECTIC: "sp", ORTHOGONAL: "o"}
    for kind in config.kinds:
        for l in range(config.max_rank + 1):
            tag = f"{short[kind]}/l={l}"
            pats = enumerate_patterns(kind, l, (1,) * l)
            if "counts" in config.checks:
                rec = count_borel(kind, l)
                ok = len(pats) == rec
                detail = f"enumerate={len(pats)} recurrence={rec}"
                try:
                    brute = brute_force_count(kind, l, (1,) * l)
                    ok = ok and brute == rec
                    detail += f" brute={brute}"
                except DomainError:
                    detail += " brute=skipped"
                record(f"counts/{tag}", {"kind": kind, "l": l}, ok, detail)
            if l == 0:
                continue
            g = _group_for(kind, l)
            reps = [(p, pattern_to_matrix(p, g)) for p in pats]
            if "separation" in config.checks:
                sigs = {rank_signature(x).table for _, x in reps}
                ok = len(sigs) == len(reps)
                ok = ok and all(identify(x, g) == p for p, x in reps)
                record(f"separation/{tag}", {"kind": kind, "l": l}, ok,
                       f"{len(reps)} orbits")
            if "conjugation" in config.checks:
                spec = SpaceSpec.borel(g)
                bad = 0
                for idx, (p, x) in enumerate(reps):
                    for c in range(config.conjugations):
                        seed = config.seed * 1000003 + idx * 101 + c
                        u, u_inv = random_group_element_pair(g, spec, seed)
                        if not group_member(u, g) or identify(u @ x @ u_inv, g) != p:
                            bad += 1
                record(f"conjugation/{tag}", {"kind": kind, "l": l,
                                              "per_pattern": config.conjugations},
                       bad == 0, f"failures={bad}")
            if "dimensions" in config.checks:
                spec = SpaceSpec.borel(g)
                want = spec.dimension_vector()
                ok = all(total_dimension_vector(pattern_to_summands(p, spec)) == want
                         for p in pats)
                record(f"dimensions/{tag}", {"kind": kind, "l": l}, ok,
                       f"target={want}")
            if "nilradical" in config.checks:
                ok = all(x.is_upper_triangular(strict=True) == is_nilradical(p)
                         for p, x in reps)
                record(f"nilradical/{tag}", {"kind": kind, "l": l}, ok, "")
    items.sort(key=lambda item: item["test_id"])
    failed = sum(1 for item in items if item["status"] == "fail")
    return {"config": asdict(config), "items": items,
            "summary": {"total": len(items), "failed": failed}}


def suite_report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
