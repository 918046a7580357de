"""Building data for finite abelian covers of blowup surfaces.

A cover specification lists branch components, each tagged with a cyclic
inertia subgroup and a faithful character on it, together with the
character sheaf classes for a generating set of characters.  The defining
relations, all remaining character sheaves, branch-point singularities,
pullbacks, numerical invariants, quotient double covers and minimal-model
bookkeeping are all derived by exact class arithmetic.

Asserted preimage component counts are validated (degree identity, the
Hurwitz count of the induced map on each component, self-intersection and
adjunction on the cover), never derived from monodromy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .groups import Character, CyclicPair, FiniteAbelianGroup, restriction_level
from .lattice import DivisorClass, Relation, adjunction_genus, format_class
from .report import Check
from .surface import BlowupSurface

VERDICT_SMOOTH = "smooth"
VERDICT_NODE_A1 = "node-A1"
VERDICT_UNSUPPORTED = "unsupported"


class CoverDataError(Exception):
    pass


class UnsupportedCharacter(Exception):
    pass


class InconsistentDerivation(Exception):
    """Two derivation paths for the same character sheaf disagree."""


class AccountingError(Exception):
    """Two independent routes to K^2, or to chi, disagree."""


@dataclass(frozen=True)
class BranchComponent:
    name: str
    curve: DivisorClass
    pair: CyclicPair
    components: int  # asserted number of preimage components

    def __post_init__(self):
        if self.curve.is_zero:
            if self.components != 0:
                raise CoverDataError(f"{self.name}: zero divisor must assert 0 components")
        elif self.components < 1:
            raise CoverDataError(f"{self.name}: asserted component count must be positive")


@dataclass(frozen=True)
class CoverSpec:
    """Building data of one cover.  Frozen, so the derived data cached on
    first use (pair_divisors, levels, all_l, branch_points, ramification,
    invariants, validation) can never go stale; a derivation that raises
    caches nothing."""

    name: str
    group: FiniteAbelianGroup
    base: BlowupSurface
    branch: tuple[BranchComponent, ...]
    reduced_l: tuple[tuple[Character, DivisorClass], ...]

    @cached_property
    def pair_divisors(self) -> tuple[tuple[CyclicPair, DivisorClass], ...]:
        """(pair, D_pair) for each inertia pair in order of first appearance,
        D_pair the sum of the branch curves carrying that pair."""
        sums: dict[CyclicPair, DivisorClass] = {}
        for b in self.branch:
            sums[b.pair] = sums[b.pair] + b.curve if b.pair in sums else b.curve
        return tuple(sums.items())

    @cached_property
    def levels(self) -> tuple[MappingProxyType, ...]:
        """For each pair of pair_divisors, in the same order, the map from
        every character of the group to its restriction level on the pair."""
        characters = self.group.characters()
        return tuple(MappingProxyType({chi: restriction_level(pair, chi) for chi in characters})
                     for pair, _d in self.pair_divisors)

    @cached_property
    def all_l(self) -> MappingProxyType:
        """Every character sheaf class, as derived by derive_all_L."""
        return MappingProxyType(derive_all_L(self))

    @cached_property
    def branch_points(self) -> tuple[BranchPointAnalysis, ...]:
        return tuple(classify_branch_points(self))

    @cached_property
    def ramification(self) -> tuple[DivisorClass, Fraction]:
        """canonical_cover at the group exponent: the class P and K^2."""
        return canonical_cover(self)

    @cached_property
    def invariants(self) -> CoverInvariants:
        return invariants(self)

    @cached_property
    def validation(self) -> tuple[Check, ...]:
        return tuple(validate_cover_data(self))

    @property
    def valid(self) -> bool:
        return all(c.status == "pass" for c in self.validation)

    def branch_by_name(self) -> dict[str, BranchComponent]:
        return {b.name: b for b in self.branch}

    def total_branch_divisor(self) -> DivisorClass:
        return sum((d for _pair, d in self.pair_divisors), self.base.lattice.zero())


def relation_rhs(spec: CoverSpec, chi: Character) -> DivisorClass:
    """sum over pairs of (m*f/m_C)*D_pair, which m*L_chi must equal
    (m the order of chi, f its restriction level on the pair)."""
    m = spec.group.element_order(chi)
    rhs = spec.base.lattice.zero()
    for (pair, d), level in zip(spec.pair_divisors, spec.levels):
        weight = Fraction(m * level[chi], pair.order)
        if weight.denominator != 1:
            raise CoverDataError("restriction level incompatible with character order")
        rhs = rhs + int(weight) * d
    return rhs


def pair_rule_term(spec: CoverSpec, a: Character, b: Character) -> DivisorClass:
    """sum(eps*D_pair), by which L_a + L_b exceeds L_ab: eps is 1 when the
    restriction levels of a and b on the pair wrap past its order."""
    total = spec.base.lattice.zero()
    for (pair, d), level in zip(spec.pair_divisors, spec.levels):
        if level[a] + level[b] >= pair.order:
            total = total + d
    return total


def validate_cover_data(spec: CoverSpec) -> list[Check]:
    """Check the defining relations of the building data by exact class
    arithmetic, plus effectivity and reducedness of the branch divisor.

    For each given generator character chi of order m the fundamental
    relation  m*L_chi == sum over pairs of (m*f/m_C)*D_pair  is checked;
    for each pair of given characters whose product is also given, the
    pair rule  L_a + L_b == L_ab + sum(eps*D)  is checked as well.
    """
    checks: list[Check] = []
    group = spec.group
    given = dict(spec.reduced_l)

    for chi, l_chi in sorted(given.items()):
        lhs = group.element_order(chi) * l_chi
        rhs = relation_rhs(spec, chi)
        ok = lhs == rhs
        detail = "" if ok else f"; difference at {format_class(lhs - rhs)}"
        checks.append(Check(
            name=f"{spec.name}/relation-{_chi_name(chi)}",
            status="pass" if ok else "fail",
            computed=format_class(rhs) + detail,
            expected=format_class(lhs),
            tag="cover-relations",
        ))

    for (a, la), (b, lb) in itertools.combinations(sorted(given.items()), 2):
        ab = group.add(a, b)
        if ab not in given or ab == group.identity():
            continue
        lhs = la + lb
        rhs = given[ab] + pair_rule_term(spec, a, b)
        ok = lhs == rhs
        checks.append(Check(
            name=f"{spec.name}/pair-rule-{_chi_name(a)}-{_chi_name(b)}",
            status="pass" if ok else "fail",
            computed=format_class(rhs),
            expected=format_class(lhs),
            tag="cover-relations",
        ))

    # effectivity of each branch curve (oracle section count)
    for comp in spec.branch:
        if comp.curve.is_zero:
            continue
        h0 = spec.base.h0(comp.curve)
        checks.append(Check(
            name=f"{spec.name}/effective-{comp.name}",
            status="pass" if h0 >= 1 else "fail",
            computed=f"h0={h0}",
            expected="h0>=1",
            tag="cover-data",
        ))

    # reducedness proxy: a repeated class is only allowed when the class
    # moves in a pencil (h0 >= 2), so distinct members exist
    by_class: dict[tuple, list[BranchComponent]] = {}
    for comp in spec.branch:
        if not comp.curve.is_zero:
            by_class.setdefault(comp.curve.coeffs, []).append(comp)
    reduced_ok = True
    notes = []
    for coeffs, comps in by_class.items():
        if len(comps) > 1 and spec.base.h0(comps[0].curve) < 2:
            reduced_ok = False
            notes.append(f"rigid class repeated: {', '.join(c.name for c in comps)}")
    checks.append(Check(
        name=f"{spec.name}/reduced",
        status="pass" if reduced_ok else "fail",
        computed="; ".join(notes) if notes else "distinct components",
        expected="reduced branch divisor",
        tag="cover-data",
    ))
    checks.append(Check(
        name=f"{spec.name}/assumptions",
        status="pass",
        computed="branch crossings assumed transverse nodes; chosen pencil members "
                 "assumed smooth and pairwise distinct (not re-proved)",
        expected="declared assumptions",
        tag="cover-data",
    ))
    return checks


def _chi_name(chi: Character) -> str:
    return "c" + "".join(str(x) for x in chi)


def derive_all_L(spec: CoverSpec) -> dict[Character, DivisorClass]:
    """Character sheaf classes for every character, from the generators.

    Uses the pair rule L_{ab} = L_a + L_b - sum(eps*D) and checks every
    derivation path; a disagreement raises InconsistentDerivation.  Each
    unordered pair, a = b and the identity included, is taken once: addition
    commutes and pair_rule_term is symmetric, so (b, a) repeats (a, b).
    """
    group = spec.group
    known: dict[Character, DivisorClass] = {group.identity(): spec.base.lattice.zero()}
    for chi, l_chi in spec.reduced_l:
        known[group.reduce(chi)] = l_chi

    def pair_value(a: Character, b: Character) -> DivisorClass:
        return known[a] + known[b] - pair_rule_term(spec, a, b)

    total = len(group.characters())
    while len(known) < total:
        progressed = False
        for a, b in itertools.combinations_with_replacement(list(known), 2):
            ab = group.add(a, b)
            if ab not in known:
                known[ab] = pair_value(a, b)
                progressed = True
        if not progressed:
            raise CoverDataError("the given characters do not generate the character group")
    # verify path independence across every derivation pair
    for a, b in itertools.combinations_with_replacement(list(known), 2):
        ab = group.add(a, b)
        val = pair_value(a, b)
        if known[ab] != val:
            raise InconsistentDerivation(
                f"L_{_chi_name(ab)} derived as {format_class(val)} via "
                f"{_chi_name(a)}*{_chi_name(b)} but already {format_class(known[ab])}"
            )
    return dict(sorted(known.items()))


def character_unknown_name(chi: Character) -> str:
    return "L_" + _chi_name(chi)


def building_data_relations(spec: CoverSpec):
    """The full linear-equivalence constraint system on the character
    sheaves, with the branch divisors as the known side.

    One relation of shape m*X_chi == sum((m*f/m_C) * D_pair) per nontrivial
    character, and one pair rule X_a + X_b - X_ab == sum(eps * D) per
    unordered pair (the X_ab term is dropped when ab is trivial).  Suitable
    for lattice.solve_linear; the solution is unique on a torsion-free
    lattice and must agree with derive_all_L.
    """
    group = spec.group
    nontrivial = [chi for chi in group.characters() if chi != group.identity()]
    relations = []
    for chi in nontrivial:
        relations.append(Relation.make({character_unknown_name(chi): group.element_order(chi)},
                                       relation_rhs(spec, chi)))
    for a, b in itertools.combinations(nontrivial, 2):
        ab = group.add(a, b)
        rhs = pair_rule_term(spec, a, b)
        unknowns = {character_unknown_name(a): 1, character_unknown_name(b): 1}
        if ab != group.identity():
            unknowns[character_unknown_name(ab)] = -1
        relations.append(Relation.make(unknowns, rhs))
    return relations


@dataclass(frozen=True)
class BranchPointAnalysis:
    """One crossing of two branch components.  J is the subgroup of G
    generated by the two inertia subgroups: the stabilizer of each point
    above a crossing point."""

    location: tuple[str, str]   # names of the two crossing components
    crossing_points: int        # intersection number on the base
    inertia_order: int          # |J|
    preimage_count: int         # preimage points per crossing point, |G|/|J|
    verdict: str


def classify_branch_points(spec: CoverSpec) -> list[BranchPointAnalysis]:
    """Singularity analysis over each crossing of two branch components.

    Trivial intersection of the two inertia subgroups gives smooth points;
    a subgroup of index 2 inside a cyclic group of order 4 gives A1 nodes.
    Anything else is reported as unsupported, never a crash.
    """
    out = []
    for b1, b2 in itertools.combinations(spec.branch, 2):
        if b1.curve.is_zero or b2.curve.is_zero:
            continue
        crossings = b1.curve.dot(b2.curve)
        if crossings <= 0:
            continue
        s1, s2 = b1.pair.subgroup, b2.pair.subgroup
        j = len(s1) * len(s2) // len(s1 & s2)  # |S1 + S2|, G abelian
        if s1 & s2 == {spec.group.identity()}:
            verdict = VERDICT_SMOOTH
        elif (s1 < s2 or s2 < s1) and sorted((len(s1), len(s2))) == [2, 4]:
            verdict = VERDICT_NODE_A1
        else:
            verdict = VERDICT_UNSUPPORTED
        out.append(BranchPointAnalysis((b1.name, b2.name), int(crossings), j,
                                       spec.group.order // j, verdict))
    return out


def _a1_nodes(spec: CoverSpec, on: str | None = None) -> int:
    """A1 nodes of the cover, or only those above crossings of branch
    component `on`."""
    return sum(
        a.crossing_points * a.preimage_count
        for a in spec.branch_points
        if a.verdict == VERDICT_NODE_A1 and (on is None or on in a.location)
    )


def node_count(spec: CoverSpec) -> int:
    return _a1_nodes(spec)


@dataclass(frozen=True)
class PullbackRecord:
    component: str
    ramification_multiplicity: int  # e = |inertia|
    components: int                 # n, asserted
    map_degree: int                 # d = |G| / (n*e)
    self_intersection: Fraction     # per component, d*B^2/e


def pullback(spec: CoverSpec, comp: BranchComponent) -> PullbackRecord:
    """Formal pullback of a branch component: multiplicities, per-component
    map degree and per-component self-intersection (components assumed
    pairwise disjoint, as asserted by the data)."""
    if comp.curve.is_zero:
        raise CoverDataError(f"{comp.name}: empty divisor has no pullback")
    e = comp.pair.order
    n = comp.components
    order = spec.group.order
    if n * e == 0 or order % (n * e) != 0:
        raise CoverDataError(
            f"{comp.name}: component count {n} incompatible with |G|={order}, e={e}"
        )
    d = order // (n * e)
    s = Fraction(d) * comp.curve.dot(comp.curve) / e
    return PullbackRecord(comp.name, e, n, d, s)


@dataclass(frozen=True)
class ConsistencyReport:
    component: str
    map_degree: int
    ramification: Fraction
    hurwitz_genus: Fraction
    adjunction_genus: Fraction
    ok: bool
    reason: str


def preimage_consistency(spec: CoverSpec, comp: BranchComponent) -> ConsistencyReport:
    """Cross-check the asserted component count with Hurwitz and adjunction.

    The induced map on a preimage component has degree d; its ramification
    is read off the crossings with the other branch components (the local
    group J generated by the two inertias gives |G|/|J| points above a
    crossing, each with index |J|/e).  The resulting genus must be a
    non-negative integer and must agree with adjunction on the cover,
    where each A1 node on the component contributes -1/2.
    """
    pb = pullback(spec, comp)
    e = pb.ramification_multiplicity
    g_base = adjunction_genus(comp.curve, spec.base.canonical)
    total_r = sum(
        a.crossing_points * (Fraction(a.inertia_order, e) - 1) * a.preimage_count
        for a in spec.branch_points
        if comp.name in a.location
    )
    r = Fraction(total_r, pb.components)
    two_g = pb.map_degree * (2 * g_base - 2) + r + 2
    hurwitz = two_g / 2
    nodes = Fraction(_a1_nodes(spec, comp.name), pb.components)
    adj = (pb.self_intersection + _k_cover_degree(spec, comp, pb) - nodes / 2 + 2) / 2

    ok = True
    reason = "consistent"
    if r.denominator != 1:
        ok, reason = False, f"ramification {r} not integral across {pb.components} components"
    elif hurwitz.denominator != 1 or hurwitz < 0:
        ok, reason = False, f"Hurwitz genus {hurwitz} is not a non-negative integer"
    elif adj != hurwitz:
        ok, reason = False, f"adjunction genus {adj} != Hurwitz genus {hurwitz}"
    return ConsistencyReport(comp.name, pb.map_degree, r, hurwitz, adj, ok, reason)


def _k_cover_degree(spec: CoverSpec, comp: BranchComponent, pb: PullbackRecord) -> Fraction:
    """K_cover . (preimage component) via the projection formula."""
    p, _k2 = spec.ramification
    return Fraction(pb.map_degree) * p.dot(comp.curve) / spec.group.exponent


def canonical_cover(spec: CoverSpec, n_clear: int | None = None):
    """The class P with N*K_cover = pullback(P), and K^2 of the cover.

    P = N*K_base + sum over pairs of N*(1 - 1/m)*D_pair; N must clear all
    denominators (N = 2 for exponent-2 groups, 4 for exponent-4 groups).
    K^2_cover = |G| * P^2 / N^2.
    """
    n = spec.group.exponent if n_clear is None else n_clear
    p = n * spec.base.canonical
    for pair, d in spec.pair_divisors:
        w = Fraction(n * (pair.order - 1), pair.order)
        if w.denominator != 1:
            raise CoverDataError(f"N={n} does not clear the ramification weight for order {pair.order}")
        p = p + int(w) * d
    return p, _k_squared(spec, p, n)


def _k_squared(spec: CoverSpec, p: DivisorClass, n: int) -> Fraction:
    """K^2 = |G| * P^2 / N^2 of a surface with N*K = pullback(P)."""
    return Fraction(spec.group.order) * p.dot(p) / (n * n)


@dataclass(frozen=True)
class CoverInvariants:
    k2_cover: Fraction
    chi: int
    p_g: int
    q: int
    simple_contractions: int = 0
    node_threading_contractions: int = 0
    k2_minimal: Fraction | None = None
    ample_proxy: bool | None = None
    pushdown: DivisorClass | None = None  # P_S with N*K_min = pullback(P_S)


def invariants(spec: CoverSpec) -> CoverInvariants:
    """chi, p_g and q of the (resolved) cover.

    chi(O) accumulates chi(O_base) + L(L+K)/2 over all character sheaves;
    p_g sums the oracle section counts h^0(K_base + L_chi) over nontrivial
    characters.  The base is a rational surface, so chi(O_base) = 1 and
    h^0(K_base) = 0.

    chi is cross-checked by Noether's formula 12*chi = K^2 + e, with K^2
    from the ramification class and the Euler number e from the branch
    data alone (`_euler_number`); a mismatch raises AccountingError.  An
    A1 resolution is crepant, so K^2 is that of the cover.
    """
    k = spec.base.canonical
    chi = Fraction(0)
    p_g = 0
    for char, l_chi in spec.all_l.items():
        chi += 1 + l_chi.dot(l_chi + k) / 2
        if char != spec.group.identity():
            p_g += spec.base.h0(_integral(k + l_chi))
    if chi.denominator != 1:
        raise CoverDataError(f"non-integral chi {chi}")
    chi_int = int(chi)
    _p, k2 = spec.ramification
    e = _euler_number(spec)
    if e is not None and 12 * chi_int != k2 + e:
        raise AccountingError(f"Noether's formula fails: 12*chi = {12 * chi_int}, "
                              f"but K^2 + e = {k2} + {e}")
    q = p_g - chi_int + 1
    if q < 0:
        raise CoverDataError(f"negative irregularity q={q}")
    return CoverInvariants(k2_cover=k2, chi=chi_int, p_g=p_g, q=q)


def _euler_number(spec: CoverSpec) -> int | None:
    """Topological Euler number of the resolved cover from the branch data,
    or None when a crossing is unsupported, where the route does not apply.

    The base (e = 3 + n) is cut into the complement of the branch divisor,
    the branch curves D_i less their crossings, and the crossing points.
    Above them lie |G|, |G|/|H_i| (H_i the inertia of D_i) and |G|/|J|
    points (`BranchPointAnalysis.inertia_order`); each A1 node adds 1 when
    it is resolved.  Assumes, as `classify_branch_points` does, that each
    D_i is smooth, so e(D_i) = -D_i.(D_i + K) even when D_i is
    disconnected, and that the D_i cross transversally with no triple
    points.
    """
    if any(a.verdict == VERDICT_UNSUPPORTED for a in spec.branch_points):
        return None
    order = spec.group.order
    k = spec.base.canonical
    e = order * (3 + len(spec.base.lattice.exceptional_names))
    for b in spec.branch:
        if b.curve.is_zero:
            continue
        crossings = sum(a.crossing_points for a in spec.branch_points if b.name in a.location)
        e += (order // b.pair.order - order) * (-b.curve.dot(b.curve + k) - crossings)
    for a in spec.branch_points:
        e += (order // a.inertia_order - order) * a.crossing_points
    return int(e) + node_count(spec)


def _integral(d: DivisorClass) -> DivisorClass:
    if not d.is_integral:
        raise CoverDataError(f"expected an integral class, got {format_class(d)}")
    return d


def h0_vanishing_checks(spec: CoverSpec) -> list[Check]:
    """One check per nontrivial character: h^0(K_base + L_chi) = 0."""
    k = spec.base.canonical
    checks = []
    for char, l_chi in spec.all_l.items():
        if char == spec.group.identity():
            continue
        cls = k + l_chi
        h0 = spec.base.h0(_integral(cls))
        checks.append(Check(
            name=f"{spec.name}/h0-K+L_{_chi_name(char)}",
            status="pass" if h0 == 0 else "fail",
            computed=f"h0({format_class(cls)}) = {h0}",
            expected="0",
        ))
    return checks


def quotient_cover(spec: CoverSpec, chi: Character) -> CoverSpec:
    """The intermediate double cover attached to an order-2 character that
    is trivial on the unique elementary-abelian subgroup of order 4.

    Its branch consists of the components whose inertia surjects onto the
    order-2 quotient; its character sheaf is the derived L_chi.  The
    double-cover relation 2*L == branch sum is re-validated on the result.
    """
    group = spec.group
    if sorted(group.orders) != [2, 4]:
        raise UnsupportedCharacter("quotient construction expects an exponent-4 group Z2 x Z4")
    if group.element_order(chi) != 2:
        raise UnsupportedCharacter(f"character {chi} is not of order 2")
    g_sub = [a for a in group.elements() if group.element_order(a) <= 2]
    if not group.char_is_trivial_on(chi, g_sub):
        raise UnsupportedCharacter(f"character {chi} is not trivial on the Z2 x Z2 subgroup")
    quotient_group = FiniteAbelianGroup((2,))
    new_branch = []
    for comp in spec.branch:
        if comp.curve.is_zero:
            continue
        # inertia surjects onto the quotient iff it is not inside the kernel
        if all(group.char_exponent(chi, a) == 0 for a in comp.pair.subgroup):
            continue
        new_branch.append(BranchComponent(
            name=comp.name,
            curve=comp.curve,
            pair=CyclicPair(quotient_group, (1,), 1),
            components=1,  # the double cover ramifies along the curve itself
        ))
    l_chi = spec.all_l[group.reduce(chi)]
    new_spec = CoverSpec(
        name=f"{spec.name}/quotient",
        group=quotient_group,
        base=spec.base,
        branch=tuple(new_branch),
        reduced_l=(((1,), l_chi),),
    )
    branch_sum = new_spec.total_branch_divisor()
    if 2 * l_chi != branch_sum:
        raise CoverDataError(
            f"double-cover relation fails: 2L = {format_class(2 * l_chi)} but "
            f"branch sum = {format_class(branch_sum)}"
        )
    return new_spec


@dataclass(frozen=True)
class ContractionPlan:
    simple: int
    node_threading: int
    contracted_base: tuple[str, ...]  # names of branch components ((-2)-curves)


def minimal_model(spec: CoverSpec, plan: ContractionPlan) -> CoverInvariants:
    """Minimal-model bookkeeping with two independent K^2 routes.

    Route 1: K^2 of the cover plus one per simple (-1)-contraction and two
    per node-threading contraction (a curve through an A1 node resolves to
    a (-1)-curve plus a (-2)-curve, hence two blowdowns).

    Route 2: project the ramification class P orthogonally to the
    contracted base (-2)-curves and push down: K^2 = |G| * P_S^2 / N^2.

    The two routes must agree exactly; the contraction counts must match
    the pullback component counts of the contracted curves.  The ampleness
    proxy asks P_S . C = 0 exactly for contracted curves and P_S . C > 0
    for every other catalogued curve on the base.
    """
    inv = spec.invariants
    p, k2_cover = spec.ramification
    by_name = spec.branch_by_name()
    contracted: list[BranchComponent] = []
    for name in plan.contracted_base:
        if name not in by_name:
            raise CoverDataError(f"contracted curve {name!r} is not a branch component")
        contracted.append(by_name[name])

    derived_simple = 0
    derived_threading = 0
    for comp in contracted:
        if comp.curve.dot(comp.curve) != -2 or spec.base.canonical.dot(comp.curve) != 0:
            raise CoverDataError(f"{comp.name} is not a (-2)-curve")
        pb = pullback(spec, comp)
        if pb.self_intersection == -1:
            derived_simple += pb.components
        elif pb.self_intersection == Fraction(-1, 2):
            derived_threading += pb.components
        else:
            raise CoverDataError(
                f"{comp.name}: preimage self-intersection {pb.self_intersection} "
                "is neither a (-1)-curve nor a node-threading curve"
            )
    for a, b in itertools.combinations(contracted, 2):
        if a.curve.dot(b.curve) != 0:
            raise CoverDataError(f"contracted curves {a.name}, {b.name} are not disjoint")
    if (derived_simple, derived_threading) != (plan.simple, plan.node_threading):
        raise AccountingError(
            f"plan counts ({plan.simple} simple, {plan.node_threading} node-threading) "
            f"do not match the pullback counts ({derived_simple}, {derived_threading})"
        )

    k2_route1 = k2_cover + plan.simple + 2 * plan.node_threading

    p_s = p
    for comp in contracted:
        c = comp.curve
        coeff = p_s.dot(c) / c.dot(c)
        if coeff.denominator != 1:
            raise CoverDataError(f"non-integral projection coefficient for {comp.name}")
        p_s = p_s - int(coeff) * c
    for comp in contracted:
        if p_s.dot(comp.curve) != 0:
            raise AccountingError(f"projection failed to clear {comp.name}")
    k2_route2 = _k_squared(spec, p_s, spec.group.exponent)

    if k2_route1 != k2_route2:
        raise AccountingError(
            f"K^2 routes disagree: contraction accounting gives {k2_route1}, "
            f"pushdown class gives {k2_route2}"
        )

    contracted_classes = {comp.curve.coeffs for comp in contracted}
    ample = True
    for rec in spec.base.catalog():
        v = p_s.dot(rec.cls)
        if rec.cls.coeffs in contracted_classes:
            ample = ample and v == 0
        else:
            ample = ample and v > 0
    return replace(
        inv,
        simple_contractions=plan.simple,
        node_threading_contractions=plan.node_threading,
        k2_minimal=k2_route1,
        ample_proxy=ample,
        pushdown=p_s,
    )
