"""Exact h^0 of a divisor class on a blowup of the plane, by interpolation.

A point configuration is described by a small construction script (free
points and lines, joins, marked points on lines, meets).  The script is
realized with exact rational coordinates drawn from a seeded generator;
draws that violate the declared incidence pattern (coincident points,
undeclared collinearities) are rejected and retried.  h^0 of d*L - sum(m_i
E_i) is then the corank of the interpolation matrix imposing multiplicity
m_i at each realized point.  Its rank over Q is certified: the rank mod a
61-bit prime is a lower bound, exact when it is full; otherwise exact
fraction-free elimination decides.  Results are accepted only on consensus
across several seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, gcd

from .exactla import rank

COORD_BOX = 10_000
MAX_ATTEMPTS = 64


class ScriptError(Exception):
    """Malformed construction script."""


class RealizationError(Exception):
    """The retry budget was exhausted while drawing coordinates."""


class SeedDisagreement(Exception):
    """Different seeds produced different section counts."""


@dataclass(frozen=True)
class FreePoint:
    name: str


@dataclass(frozen=True)
class FreeLine:
    name: str


@dataclass(frozen=True)
class LineThrough:
    name: str
    a: str
    b: str


@dataclass(frozen=True)
class PointOnLine:
    name: str
    line: str


@dataclass(frozen=True)
class IntersectionPoint:
    name: str
    a: str
    b: str


Step = FreePoint | FreeLine | LineThrough | PointOnLine | IntersectionPoint
Triple = tuple[int, int, int]


def check_script(script) -> tuple[list[str], list[str], dict[str, set[str]]]:
    """Validate a script; return (point names, line names, line -> incident points)."""
    points: list[str] = []
    lines: list[str] = []
    incidence: dict[str, set[str]] = {}
    for step in script:
        name = step.name
        if name in points or name in lines:
            raise ScriptError(f"duplicate id {name!r}")
        if isinstance(step, FreePoint):
            points.append(name)
        elif isinstance(step, FreeLine):
            lines.append(name)
            incidence[name] = set()
        elif isinstance(step, LineThrough):
            for p in (step.a, step.b):
                if p not in points:
                    raise ScriptError(f"line {name!r} references undefined point {p!r}")
            if step.a == step.b:
                raise ScriptError(f"line {name!r} joins a point with itself")
            lines.append(name)
            incidence[name] = {step.a, step.b}
        elif isinstance(step, PointOnLine):
            if step.line not in lines:
                raise ScriptError(f"point {name!r} references undefined line {step.line!r}")
            points.append(name)
            incidence[step.line].add(name)
        elif isinstance(step, IntersectionPoint):
            for ln in (step.a, step.b):
                if ln not in lines:
                    raise ScriptError(f"point {name!r} references undefined line {ln!r}")
            if step.a == step.b:
                raise ScriptError(f"point {name!r} intersects a line with itself")
            points.append(name)
            incidence[step.a].add(name)
            incidence[step.b].add(name)
        else:
            raise ScriptError(f"unknown step {step!r}")
    return points, lines, incidence


def _cross(u: Triple, v: Triple) -> Triple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _normalize(v: Triple) -> Triple:
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    if g == 0:
        return (0, 0, 0)
    v = (v[0] // g, v[1] // g, v[2] // g)
    for x in v:
        if x != 0:
            return v if x > 0 else (-v[0], -v[1], -v[2])
    return v


def _det3(p: Triple, q: Triple, r: Triple) -> int:
    return (
        p[0] * (q[1] * r[2] - q[2] * r[1])
        - p[1] * (q[0] * r[2] - q[2] * r[0])
        + p[2] * (q[0] * r[1] - q[1] * r[0])
    )


@dataclass(frozen=True)
class Realization:
    seed: int
    points: dict[str, Triple]
    lines: dict[str, Triple]


class _Degenerate(Exception):
    pass


def _draw(script, rng: random.Random):
    points: dict[str, Triple] = {}
    lines: dict[str, Triple] = {}

    def rint() -> int:
        return rng.randint(-COORD_BOX, COORD_BOX)

    for step in script:
        if isinstance(step, FreePoint):
            points[step.name] = _normalize((rint(), rint(), 1))
        elif isinstance(step, FreeLine):
            v = (rint(), rint(), rint())
            if v == (0, 0, 0):
                raise _Degenerate
            lines[step.name] = _normalize(v)
        elif isinstance(step, LineThrough):
            v = _cross(points[step.a], points[step.b])
            if v == (0, 0, 0):
                raise _Degenerate
            lines[step.name] = _normalize(v)
        elif isinstance(step, PointOnLine):
            a, b, c = lines[step.line]
            u = (b, -a, 0) if (a, b) != (0, 0) else (1, 0, 0)
            w = (c, 0, -a) if a != 0 else (0, c, -b)
            s, t = rint(), rint()
            p = tuple(s * x + t * y for x, y in zip(u, w))
            if p == (0, 0, 0):
                raise _Degenerate
            points[step.name] = _normalize(p)  # type: ignore[arg-type]
        elif isinstance(step, IntersectionPoint):
            p = _cross(lines[step.a], lines[step.b])
            if p == (0, 0, 0):
                raise _Degenerate
            points[step.name] = _normalize(p)
    return points, lines


def realize_configuration(script, seed: int, marked_points=None) -> Realization:
    """Exact rational realization of the script.

    `marked_points` are the points that will be blown up (defaults to all
    script points): they must be pairwise distinct and carry no undeclared
    collinearity.  Degenerate draws are rejected and retried with a
    derived seed; the budget is MAX_ATTEMPTS.
    """
    point_names, _line_names, incidence = check_script(script)
    marked = set(marked_points) if marked_points is not None else set(point_names)
    unknown = marked - set(point_names)
    if unknown:
        raise ScriptError(f"marked points not in script: {sorted(unknown)}")
    declared: set[frozenset[str]] = set()
    for pts in incidence.values():
        mk = sorted(pts & marked)
        for triple in itertools.combinations(mk, 3):
            declared.add(frozenset(triple))

    for attempt in range(MAX_ATTEMPTS):
        rng = random.Random(f"scw:{seed}:{attempt}")
        try:
            points, lines = _draw(script, rng)
        except _Degenerate:
            continue
        ok = True
        # declared incidences must hold exactly (construction guarantees it;
        # keep the assertion as a guard against script edits)
        for ln, pts in incidence.items():
            line = lines[ln]
            if any(sum(a * b for a, b in zip(points[p], line)) != 0 for p in pts):
                ok = False
                break
        if not ok:
            continue
        mk = sorted(marked)
        for p, q in itertools.combinations(mk, 2):
            if points[p] == points[q]:
                ok = False
                break
        if not ok:
            continue
        for triple in itertools.combinations(mk, 3):
            collinear = _det3(*(points[t] for t in triple)) == 0
            if collinear != (frozenset(triple) in declared):
                ok = False
                break
        if ok:
            return Realization(seed=seed, points=dict(points), lines=dict(lines))
    raise RealizationError(
        f"could not realize the configuration after {MAX_ATTEMPTS} attempts (seed {seed})"
    )


def collinear_sets(script, marked_points) -> list[frozenset[str]]:
    """Sets of three or more marked points sharing a constructed line."""
    _points, _lines, incidence = check_script(script)
    marked = set(marked_points)
    out = []
    for _line, pts in sorted(incidence.items()):
        mk = frozenset(pts & marked)
        if len(mk) >= 3:
            out.append(mk)
    return out


def _falling(base: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= base - i
    return out


def _multiplicity_rows(point: Triple, mult: int, degree: int, monomials) -> list[list[int]]:
    """Vanishing of all partials of order mult-1 at the point (exact)."""
    rows = []
    for u, v, w in _monomial_exponents(mult - 1):
        row = []
        for a, b, c in monomials:
            if a < u or b < v or c < w:
                row.append(0)
                continue
            coeff = _falling(a, u) * _falling(b, v) * _falling(c, w)
            row.append(
                coeff
                * point[0] ** (a - u)
                * point[1] ** (b - v)
                * point[2] ** (c - w)
            )
        rows.append(row)
    return rows


def _monomial_exponents(degree: int):
    for a in range(degree, -1, -1):
        for b in range(degree - a, -1, -1):
            yield (a, b, degree - a - b)


def h0_from_realization(realization: Realization, degree: int, multiplicities: dict[str, int]) -> int:
    """dim of degree-d plane curves with multiplicity >= m_i at each point.

    Non-positive multiplicities impose no condition.
    """
    if degree < 0:
        return 0
    monomials = list(_monomial_exponents(degree))
    rows: list[list[int]] = []
    for name, mult in sorted(multiplicities.items()):
        if mult <= 0:
            continue
        if mult > degree:
            # a nonzero degree-d form has multiplicity at most d anywhere;
            # (the order-(m-1) partials would be identically zero for
            # m > d+1, so this case must short-circuit)
            return 0
        rows.extend(_multiplicity_rows(realization.points[name], mult, degree, monomials))
    n_cols = comb(degree + 2, 2)
    if not rows:
        return n_cols
    return n_cols - rank(rows)


def realization_to_json(realization: Realization) -> dict:
    """Audit export: exact coordinates in the workbench JSON style."""
    return {
        "seed": realization.seed,
        "points": {name: list(coords) for name, coords in sorted(realization.points.items())},
        "lines": {name: list(coeffs) for name, coeffs in sorted(realization.lines.items())},
    }


@dataclass(frozen=True)
class SeedPolicy:
    """Deterministic consensus policy: h^0 is evaluated at `count` seeds
    derived from `base` and all values must agree."""

    base: int = 0
    count: int = 3

    def seeds(self) -> tuple[int, ...]:
        return tuple(self.base + i for i in range(self.count))


def h0_consensus(values: dict[int, int]) -> int:
    distinct = set(values.values())
    if len(distinct) != 1:
        raise SeedDisagreement(f"h^0 differs across seeds: {values}")
    return distinct.pop()
