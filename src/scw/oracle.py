"""Exact h^0 of a divisor class on a blowup of the plane, by interpolation.

A point configuration is described by a small construction script (free
points and lines, joins, marked points on lines, meets).  The script is
realized with exact rational coordinates drawn from a seeded generator;
draws that violate the declared incidence pattern (coincident points,
undeclared collinearities) are rejected and retried.  h^0 of d*L - sum(m_i
E_i) is then the corank of the interpolation matrix imposing multiplicity
m_i at each realized point.  Its rank over Q is certified: the rank mod the
prime exactla.PRIME, just below 2^30, is a lower bound, exact when it is
full.  Each row is built in one pass as one packed int (the format of
`exactla`), its residues shifted in from tables of powers and partials mod
PRIME, with no list of residues between; the exact integer rows are built
only when that rank is not full, and fraction-free elimination over Z then
decides.  The rows of one condition depend only on (point, multiplicity,
degree), and the slot width only on the degree, so each `Realization`
keeps every block it has built, keyed so, and later queries join the
cached blocks without building them again.  Results are accepted only on
consensus across several seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import comb, gcd, perm

from .exactla import PRIME, Packed, rank, slot_width

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
    # (point name, multiplicity, degree) -> that condition's residue rows,
    # packed at the slot width of the degree's column count
    blocks: dict[tuple[str, int, int], tuple[int, ...]] = field(
        default_factory=dict, compare=False, repr=False)


class _Degenerate(Exception):
    """A step of the script has no well-defined result in this draw."""


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
                raise _Degenerate(step.name)
            lines[step.name] = _normalize(v)
        elif isinstance(step, LineThrough):
            v = _cross(points[step.a], points[step.b])
            if v == (0, 0, 0):
                raise _Degenerate(step.name)
            lines[step.name] = _normalize(v)
        elif isinstance(step, PointOnLine):
            a, b, c = lines[step.line]
            u = (b, -a, 0) if (a, b) != (0, 0) else (1, 0, 0)
            w = (c, 0, -a) if a != 0 else (0, c, -b)
            s, t = rint(), rint()
            p = tuple(s * x + t * y for x, y in zip(u, w))
            if p == (0, 0, 0):
                raise _Degenerate(step.name)
            points[step.name] = _normalize(p)  # type: ignore[arg-type]
        elif isinstance(step, IntersectionPoint):
            p = _cross(lines[step.a], lines[step.b])
            if p == (0, 0, 0):
                raise _Degenerate(step.name)
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
    # combinations of sorted names are sorted tuples, as _rejection draws them
    declared: set[tuple[str, str, str]] = set()
    for pts in incidence.values():
        declared.update(itertools.combinations(sorted(pts & marked), 3))

    mk = sorted(marked)
    reasons = []
    for attempt in range(MAX_ATTEMPTS):
        rng = random.Random(f"scw:{seed}:{attempt}")
        try:
            points, lines = _draw(script, rng)
        except _Degenerate as exc:
            reasons.append(f"step {exc.args[0]!r} is degenerate")
            continue
        reason = _rejection(points, lines, incidence, mk, declared)
        if reason is None:
            return Realization(seed=seed, points=dict(points), lines=dict(lines))
        reasons.append(reason)
    message = f"could not realize the configuration after {MAX_ATTEMPTS} attempts (seed {seed})"
    if len(set(reasons)) == 1:
        message += f": in every draw, {reasons[0]}"
    raise RealizationError(message)


def _rejection(points, lines, incidence, mk, declared) -> str | None:
    """Why a draw is rejected, naming the offending points; None if it is not."""
    # declared incidences must hold exactly (construction guarantees it;
    # keep the assertion as a guard against script edits)
    for ln, pts in incidence.items():
        line = lines[ln]
        off = [p for p in pts if sum(a * b for a, b in zip(points[p], line)) != 0]
        if off:
            return f"point {min(off)!r} is off line {ln!r}"
    for p, q in itertools.combinations(mk, 2):
        if points[p] == points[q]:
            return f"marked points {p!r} and {q!r} coincide"
    for triple in itertools.combinations(mk, 3):
        collinear = _det3(*(points[t] for t in triple)) == 0
        if collinear != (triple in declared):
            names = ", ".join(map(repr, triple))
            return (f"marked points {names} are collinear but no line of the script holds them"
                    if collinear else f"marked points {names} are declared collinear but are not")
    return None


def _multiplicity_rows(point: Triple, mult: int, degree: int, monomials) -> list[list[int]]:
    """Vanishing of all partials of order mult-1 at the point (exact)."""
    rows = []
    for u, v, w in _monomial_exponents(mult - 1):
        row = []
        for a, b, c in monomials:
            if a < u or b < v or c < w:
                row.append(0)
                continue
            coeff = perm(a, u) * perm(b, v) * perm(c, w)
            row.append(
                coeff
                * point[0] ** (a - u)
                * point[1] ** (b - v)
                * point[2] ** (c - w)
            )
        rows.append(row)
    return rows


def _residue_rows(point: Triple, mult: int, degree: int, monomials) -> tuple[int, ...]:
    """`_multiplicity_rows` mod PRIME, packed at the slot width of the
    monomial count, without the exact products.

    The order-(u, v, w) partial of x^a y^b z^c at the point is the product
    of perm(a, u) x^(a-u), perm(b, v) y^(b-v) and perm(c, w) z^(c-w); each
    factor is tabulated mod PRIME once per coordinate and order (the
    order-0 table is the powers themselves).  A row is shifted in from its
    last column to its first, each slot a residue below PRIME.
    """
    tables = []
    for t in point:
        powers = [pow(t, e, PRIME) for e in range(degree + 1)]
        tables.append([powers] + [[perm(a, u) * powers[a - u] % PRIME if a >= u else 0
                                   for a in range(degree + 1)] for u in range(1, mult)])
    xs, ys, zs = tables
    width, columns = slot_width(len(monomials)), monomials[::-1]
    rows = []
    for u, v, w in _monomial_exponents(mult - 1):
        x, y, z, row = xs[u], ys[v], zs[w], 0
        for a, b, c in columns:
            row = row << width | x[a] * y[b] % PRIME * z[c] % PRIME
        rows.append(row)
    return tuple(rows)


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
    conditions = []
    for name, mult in sorted(multiplicities.items()):
        if mult <= 0:
            continue
        if mult > degree:
            # a nonzero degree-d form has multiplicity at most d anywhere;
            # (the order-(m-1) partials would be identically zero for
            # m > d+1, so this case must short-circuit)
            return 0
        conditions.append((name, realization.points[name], mult))
    n_cols = comb(degree + 2, 2)
    if not conditions:
        return n_cols
    blocks, monomials = realization.blocks, None
    residues = []
    for name, point, mult in conditions:
        block = blocks.get((name, mult, degree))
        if block is None:
            monomials = monomials or list(_monomial_exponents(degree))
            block = blocks[name, mult, degree] = _residue_rows(point, mult, degree, monomials)
        residues.extend(block)
    return n_cols - rank(Packed(residues, n_cols), exact=lambda: [
        row for monomials in [list(_monomial_exponents(degree))]
        for _name, point, mult in conditions
        for row in _multiplicity_rows(point, mult, degree, monomials)])


def realization_to_json(realization: Realization) -> dict:
    """Audit export: exact coordinates in the workbench JSON style."""
    return {
        "seed": realization.seed,
        "points": {name: list(coords) for name, coords in sorted(realization.points.items())},
        "lines": {name: list(coeffs) for name, coeffs in sorted(realization.lines.items())},
    }


CONSENSUS_SEEDS = 3


@dataclass(frozen=True)
class SeedPolicy:
    """Deterministic consensus policy: h^0 is evaluated at CONSENSUS_SEEDS
    seeds derived from `base` and all values must agree."""

    base: int = 0

    def seeds(self) -> tuple[int, ...]:
        return tuple(self.base + i for i in range(CONSENSUS_SEEDS))


def h0_consensus(values: dict[int, int]) -> int:
    distinct = set(values.values())
    if len(distinct) != 1:
        raise SeedDisagreement(f"h^0 differs across seeds: {values}")
    return distinct.pop()
