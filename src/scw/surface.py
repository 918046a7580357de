"""Blowup surfaces built from point-configuration scripts.

A surface carries its Picard lattice, canonical class, the collinearity
pattern extracted from the script, and a derived catalog of negative
curves.  Effectivity and section counts are delegated to the interpolation
oracle; irreducibility of a candidate class uses the standard criterion
that an effective class meeting a known irreducible negative curve
negatively must contain it.  The pencil search and the singular-member
decomposition read the catalog once as integer vectors and intersect
them with one integer form (`_form`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import oracle
from .lattice import (BlowupLattice, DivisorClass, LatticeMismatch, blowup_lattice,
                      format_class)
from .oracle import Realization, SeedPolicy, check_script

KIND_MINUS_ONE = "minus-one"
KIND_MINUS_TWO = "minus-two"
KIND_OTHER = "other"

DEFAULT_DEGREE_BOUND = 3

# (C^2, K.C, genus) of a curve of each kind; KIND_OTHER is unconstrained
_KIND_INVARIANTS = {KIND_MINUS_ONE: (-1, -1, 0), KIND_MINUS_TWO: (-2, 0, 0)}


class SurfaceError(Exception):
    pass


@dataclass(frozen=True)
class CurveRecord:
    name: str
    cls: DivisorClass
    self_int: int
    k_degree: int
    genus: Fraction
    kind: str
    provenance: str

    def __post_init__(self):
        expected = _KIND_INVARIANTS.get(self.kind)
        got = (self.self_int, self.k_degree, self.genus)
        if expected is not None and got != expected:
            raise SurfaceError(f"curve {self.name}: a {self.kind} curve has "
                               f"(C^2, K.C, genus) = {expected}, not {got}")


@dataclass
class Pencil:
    cls: DivisorClass
    singular_members: list[tuple[tuple[CurveRecord, int], ...]] | None = None


@dataclass(frozen=True)
class ContractionRecord:
    target_kind: str  # "nodal-surface" | "smooth-blowdown" | "identity"
    contracted: tuple[CurveRecord, ...]
    nodes: int
    k2_delta: int
    k2_before: Fraction
    k2_after: Fraction


class BlowupSurface:
    """Blowup of the plane at the marked points of a construction script."""

    def __init__(self, script, blowups, name: str = "S", line_symbol: str = "L",
                 seed_policy: SeedPolicy | None = None):
        point_names, _lines, incidence = check_script(script)
        seen_points: set[str] = set()
        seen_symbols: set[str] = set()
        for point, symbol in blowups:
            if point not in point_names:
                raise SurfaceError(f"blown-up point {point!r} is not defined by the script")
            if point in seen_points:
                raise SurfaceError(f"point {point!r} blown up twice")
            if symbol in seen_symbols or symbol == line_symbol:
                raise SurfaceError(f"duplicate basis symbol {symbol!r}")
            seen_points.add(point)
            seen_symbols.add(symbol)
        self.name = name
        self.script = list(script)
        self.blowups = [(p, s) for p, s in blowups]
        self.point_of_symbol = {s: p for p, s in blowups}
        self.symbol_of_point = {p: s for p, s in blowups}
        self.lattice: BlowupLattice = blowup_lattice(line_symbol, (s for _, s in blowups))
        self.canonical = self.lattice.canonical_class()
        # sets of three or more blown-up points on one constructed line
        self.collinear_sets = tuple(
            frozenset(self.symbol_of_point[p] for p in pts & seen_points)
            for _line, pts in sorted(incidence.items()) if len(pts & seen_points) >= 3
        )
        self.seed_policy = seed_policy or SeedPolicy()
        self._realizations: dict[int, Realization] = {}
        self._h0_cache: dict[tuple, int] = {}
        self._catalog_cache: dict[int, list[CurveRecord]] = {}
        self._catalog_vectors: dict[int, list[tuple[int, ...]]] = {}

    # -- oracle plumbing ---------------------------------------------------

    def realization(self, seed: int) -> Realization:
        if seed not in self._realizations:
            self._realizations[seed] = oracle.realize_configuration(
                self.script, seed, marked_points=self.point_of_symbol.values()
            )
        return self._realizations[seed]

    def h0(self, d: DivisorClass) -> int:
        """h^0 of an integral class (negative multiplicities are relaxed to
        no condition): 0 when the first seed of the policy gives 0, else the
        consensus of all its seeds.

        A 0 at one realization is a proof, by two facts.  The rank mod
        PRIME of the interpolation matrix is at most its rank over Q, and
        the oracle returns it only when it is full (exact elimination
        decides otherwise), so the oracle's 0 is exact at that realization.
        And h^0 is upper semicontinuous on the script's family of
        realizations (Hartshorne III.12.8), which the drawn coordinates
        parametrize by an open set of an affine space, so the family is
        irreducible and its generic h^0 is at most the 0 of any member.  A
        positive value may still be that of a special draw, and needs the
        other seeds to agree.
        """
        if d.lattice != self.lattice:
            raise SurfaceError("class does not live on this surface")
        if not d.is_integral:
            raise SurfaceError("h^0 requires an integral class")
        vec = tuple(c.numerator for c in d.coeffs)
        if vec not in self._h0_cache:
            degree = vec[0]
            mults = {point: -m for (point, _symbol), m in zip(self.blowups, vec[1:])}
            first, *others = self.seed_policy.seeds()
            values = {first: oracle.h0_from_realization(self.realization(first), degree, mults)}
            if values[first]:
                values.update(
                    (seed, oracle.h0_from_realization(self.realization(seed), degree, mults))
                    for seed in others)
            self._h0_cache[vec] = oracle.h0_consensus(values)
        return self._h0_cache[vec]

    # -- catalog -----------------------------------------------------------

    def k_squared(self) -> Fraction:
        return self.canonical.dot(self.canonical)

    def catalog(self, degree_bound: int = DEFAULT_DEGREE_BOUND) -> list[CurveRecord]:
        if degree_bound not in self._catalog_cache:
            self._catalog_cache[degree_bound] = catalog_negative_curves(self, degree_bound)
        return self._catalog_cache[degree_bound]

    def catalog_vectors(self, degree_bound: int = DEFAULT_DEGREE_BOUND) -> list[tuple[int, ...]]:
        """The catalogued classes as int vectors, in catalog order; every
        record is integral."""
        if degree_bound not in self._catalog_vectors:
            self._catalog_vectors[degree_bound] = [
                tuple(c.numerator for c in rec.cls.coeffs) for rec in self.catalog(degree_bound)]
        return self._catalog_vectors[degree_bound]

    def catalog_by_class(self, degree_bound: int = DEFAULT_DEGREE_BOUND) -> dict[tuple, CurveRecord]:
        return {rec.cls.coeffs: rec for rec in self.catalog(degree_bound)}

    def __repr__(self):
        return f"BlowupSurface({self.name!r}, basis={self.lattice.names})"


def build_surface(script, blowups, name: str = "S", line_symbol: str = "L",
                  seed_policy: SeedPolicy | None = None) -> BlowupSurface:
    return BlowupSurface(script, blowups, name=name, line_symbol=line_symbol,
                         seed_policy=seed_policy)


def _candidate_multiplicity_vectors(n_symbols: int, total: int, square_sum: int):
    """Nonnegative integer vectors with given sum and sum of squares."""
    # multiplicities are tiny here (<= 2 for degree <= 3), so a direct
    # search over multisets is plenty
    max_m = 1
    while (max_m + 1) ** 2 <= square_sum:
        max_m += 1
    def rec(prefix, rem_total, rem_sq, start):
        if rem_total == 0 and rem_sq == 0:
            yield prefix + [0] * (n_symbols - len(prefix))
            return
        if len(prefix) == n_symbols:
            return
        for m in range(min(start, rem_total, max_m), 0, -1):
            if m * m > rem_sq:
                continue
            yield from rec(prefix + [m], rem_total - m, rem_sq - m * m, m)
    yield from rec([], total, square_sum, max_m)


def _distinct_permutations(shape):
    """The distinct permutations of a sequence, in ascending order: each is
    the next permutation of the one before, so none is built twice."""
    perm = sorted(shape)
    while True:
        yield tuple(perm)
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])


def _candidate_vectors(surface: BlowupSurface, degree: int, self_int: int):
    """Int vectors (d, -m_1, ..., -m_n) of the classes d*L - sum(m_i E_i) of
    a smooth rational curve of the given degree and self-intersection (a
    pencil when self_int = 0), in deterministic order: multiplicity shape
    descending, then permutation."""
    n = len(surface.lattice.exceptional_names)
    total = 3 * degree - 2 - self_int  # sum(m) = 3d + K.C, K.C = -2 - C^2
    square_sum = degree * degree - self_int
    # the shapes come distinct and in descending order
    for shape in _candidate_multiplicity_vectors(n, total, square_sum):
        for perm in _distinct_permutations(shape):
            yield (degree,) + tuple(-m for m in perm)


def _class_of(surface: BlowupSurface, vec) -> DivisorClass:
    return DivisorClass(surface.lattice, tuple(Fraction(c) for c in vec))


def _candidates(surface: BlowupSurface, degree: int, self_int: int):
    """`_candidate_vectors` as classes."""
    for vec in _candidate_vectors(surface, degree, self_int):
        yield _class_of(surface, vec)


def _form(vec) -> tuple[int, ...]:
    """The intersection form of the blowup lattice at an int class vector:
    x.y = sum(_form(x)[i] * y[i]), since L^2 = 1 and E_i^2 = -1."""
    return (vec[0],) + tuple(-c for c in vec[1:])


def catalog_negative_curves(surface: BlowupSurface, degree_bound: int = DEFAULT_DEGREE_BOUND):
    """All irreducible (-1)- and (-2)-curves of L-degree <= degree_bound,
    plus the exceptional curves themselves.

    A candidate is kept when it has exactly one section and does not meet a
    previously catalogued irreducible curve negatively (which would force a
    shared component).  The section count is tested first, and the
    negativity scan only for the candidates with h^0 = 1: on general points
    the scan rejects nothing, so every candidate reaches h^0 in either
    order, and every (-2)-candidate fails it.  The order cannot change a
    returned catalog: a candidate is kept exactly when it passes both
    tests, and h^0 has no effect but to fill the surface's caches.

    The scan skips the exceptional curves E_j, which head the catalog.  A
    candidate is (d, -m_1, ..., -m_n) with d >= 1 and every m_j >= 0, so it
    meets E_j in m_j >= 0 and no E_j can reject it; only records of
    positive degree can.  Skipping them keeps every answer and drops every
    dot product with a degree-0 record.  The skip does not favour a scan
    first: a (-2)-candidate on general points still meets every curve of
    positive degree before h^0 rejects it, so the h^0-first order stays
    the one that makes no dot product for it.
    """
    if degree_bound < 1:
        raise SurfaceError("degree bound must be >= 1")
    k = surface.canonical
    n = len(surface.lattice.exceptional_names)
    records: list[CurveRecord] = []
    for sym in surface.lattice.exceptional_names:
        cls = surface.lattice.exceptional(sym)
        records.append(CurveRecord(
            name=sym,
            cls=cls,
            self_int=-1,
            k_degree=-1,
            genus=Fraction(0),
            kind=KIND_MINUS_ONE,
            provenance=f"exceptional curve over {surface.point_of_symbol[sym]}",
        ))
    # by degree, (-2)-candidates first: a reducible (-1)-candidate of the
    # same degree is recognized by meeting one of them negatively
    candidates = (cand for degree in range(1, degree_bound + 1) for self_int in (-2, -1)
                  for cand in _candidates(surface, degree, self_int))
    for cand in candidates:
        if surface.h0(cand) != 1:
            continue
        if any(cand.dot(rec.cls) < 0 for rec in itertools.islice(records, n, None)):
            continue
        self_int = int(cand.dot(cand))
        kind = KIND_MINUS_ONE if self_int == -1 else KIND_MINUS_TWO
        points = [surface.point_of_symbol[s] for s in surface.lattice.exceptional_names
                  if cand.coeff(s) != 0]
        records.append(CurveRecord(
            name=format_class(cand).replace(" ", ""),
            cls=cand,
            self_int=self_int,
            k_degree=int(k.dot(cand)),
            genus=Fraction(0),
            kind=kind,
            provenance=f"degree-{int(cand.coeffs[0])} curve through {', '.join(points)}",
        ))
    return records


def minus_two_curves(surface: BlowupSurface, degree_bound: int = DEFAULT_DEGREE_BOUND):
    return [r for r in surface.catalog(degree_bound) if r.kind == KIND_MINUS_TWO]


def minus_one_curves(surface: BlowupSurface, degree_bound: int = DEFAULT_DEGREE_BOUND):
    return [r for r in surface.catalog(degree_bound) if r.kind == KIND_MINUS_ONE]


def isolated_minus_one_curves(surface: BlowupSurface, degree_bound: int = DEFAULT_DEGREE_BOUND):
    """The (-1)-curves disjoint from every catalogued (-2)-curve."""
    twos = minus_two_curves(surface, degree_bound)
    return [
        r for r in minus_one_curves(surface, degree_bound)
        if all(r.cls.dot(z.cls) == 0 for z in twos)
    ]


def find_pencils(surface: BlowupSurface, degree_bound: int = DEFAULT_DEGREE_BOUND) -> list[Pencil]:
    """Classes F with F^2 = 0, K.F = -2, two sections, and F.C >= 0 for
    every catalogued curve (base-point-freeness proxy).

    The filter is integer: each candidate is an int vector, its form
    (`_form`) meets every catalogued int vector, and a class is built only
    for a candidate that passes."""
    rows = surface.catalog_vectors(degree_bound)
    out = []
    candidates = (vec for degree in range(1, degree_bound + 1)
                  for vec in _candidate_vectors(surface, degree, 0))
    for vec in candidates:
        form = _form(vec)
        if any(sum(map(mul, form, row)) < 0 for row in rows):
            continue
        cand = _class_of(surface, vec)
        if surface.h0(cand) != 2:
            continue
        out.append(Pencil(cls=cand))
    return out


def singular_members(surface: BlowupSurface, pencil: Pencil,
                     degree_bound: int = DEFAULT_DEGREE_BOUND):
    """All multisets of catalogued curves orthogonal to the pencil class
    that sum to it; each is a complete decomposition of a singular member.

    The positive-degree multiplicities are enumerated (bounded by the
    pencil degree); the exceptional multiplicities are then forced by
    coefficient balance.  The catalog is read as integer vectors
    (`BlowupSurface.catalog_vectors`), and orthogonality is one integer
    form (`_form`).
    """
    f = pencil.cls
    if f.lattice != surface.lattice:
        raise LatticeMismatch("pencil class does not live on this surface")
    decomps = []
    pencil.singular_members = decomps
    if not f.is_integral:  # a sum of curve classes is integral
        return decomps
    fv = tuple(c.numerator for c in f.coeffs)
    form = _form(fv)
    orth = [(rec, vec) for rec, vec in zip(surface.catalog(degree_bound),
                                           surface.catalog_vectors(degree_bound))
            if sum(map(mul, form, vec)) == 0]
    positive = [(rec, vec) for rec, vec in orth if vec[0] > 0]
    by_vector = {vec: rec for rec, vec in orth if vec[0] == 0}
    dim = len(fv)
    exceptional = [by_vector.get(tuple(int(i == j) for j in range(dim))) for i in range(dim)]

    def close_with_exceptionals(chosen: list[tuple[CurveRecord, tuple[int, ...], int]]):
        rest = list(fv)
        for _rec, vec, mult in chosen:
            rest = [a - mult * b for a, b in zip(rest, vec)]
        parts = {rec.name: (rec, mult) for rec, _vec, mult in chosen}
        for i in range(1, dim):  # rest[0] is 0: the chosen degrees sum to f0
            c = rest[i]
            if c == 0:
                continue
            rec = exceptional[i]
            if c < 0 or rec is None:
                return
            parts[rec.name] = (rec, c)
        decomps.append(tuple(parts[name] for name in sorted(parts)))

    def rec_choose(idx: int, remaining_degree: int, chosen):
        if remaining_degree == 0:
            close_with_exceptionals(chosen)
            return
        if idx == len(positive):
            return
        curve, vec = positive[idx]
        max_mult = remaining_degree // vec[0]
        for mult in range(max_mult, -1, -1):
            rec_choose(idx + 1, remaining_degree - mult * vec[0],
                       chosen + ([(curve, vec, mult)] if mult else []))

    rec_choose(0, fv[0], [])
    decomps.sort(key=lambda parts: tuple((r.name, m) for r, m in parts))
    return decomps


def contract(surface: BlowupSurface, curves) -> ContractionRecord:
    """Bookkeeping for contracting pairwise disjoint curves of a uniform kind.

    Contracting (-2)-curves produces a nodal surface (one node each, K^2
    unchanged); contracting (-1)-curves is a smooth blowdown (K^2 rises by
    one each).  The lattice is never rewritten.
    """
    recs = list(curves)
    k2 = surface.k_squared()
    if not recs:
        return ContractionRecord("identity", (), 0, 0, k2, k2)
    kinds = {r.kind for r in recs}
    if len(kinds) != 1 or kinds & {KIND_OTHER}:
        raise SurfaceError("contraction needs a uniform kind of (-1)- or (-2)-curves")
    for a, b in itertools.combinations(recs, 2):
        if a.cls.dot(b.cls) != 0:
            raise SurfaceError(f"curves {a.name} and {b.name} are not disjoint")
    kind = kinds.pop()
    if kind == KIND_MINUS_TWO:
        return ContractionRecord("nodal-surface", tuple(recs), len(recs), 0, k2, k2)
    return ContractionRecord("smooth-blowdown", tuple(recs), 0, len(recs), k2, k2 + len(recs))
