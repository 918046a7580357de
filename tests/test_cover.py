import itertools
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from scw.cover import (AccountingError, BranchComponent, BranchPointAnalysis, ContractionPlan,
                       ConsistencyReport, CoverDataError, CoverSpec, UnsupportedCharacter,
                       VERDICT_NODE_A1, VERDICT_SMOOTH, VERDICT_UNSUPPORTED,
                       building_data_relations, canonical_cover, character_unknown_name,
                       classify_branch_points, derive_all_L, h0_vanishing_checks, invariants,
                       minimal_model, node_count, pair_rule_term, preimage_consistency,
                       pullback, quotient_cover, validate_cover_data)
from scw.groups import CyclicPair, FiniteAbelianGroup, restriction_level
from scw.lattice import adjunction_genus, solve_linear


def all_pass(checks):
    return all(c.status == "pass" for c in checks)


def test_validate_both_specs(cover_g, cover_h):
    assert all_pass(validate_cover_data(cover_g))
    assert all_pass(validate_cover_data(cover_h))


def test_perturbed_class_fails_with_symbol(cover_h):
    chi = (1, 0)
    perturbed = []
    for char, cls in cover_h.reduced_l:
        if char == chi:
            cls = cls + cover_h.base.lattice.divisor({"Q3p": 1})
        perturbed.append((char, cls))
    broken = replace(cover_h, reduced_l=tuple(perturbed))
    checks = validate_cover_data(broken)
    failing = [c for c in checks if c.status == "fail"]
    assert failing
    assert any("Q3p" in c.computed for c in failing)
    assert any(c.name.endswith("relation-c10") for c in failing)


def test_repeated_rigid_class_fails_reducedness(cover_g):
    by_name = {b.name: b for b in cover_g.branch}
    dup = replace(by_name["Z1"], name="Z1-again")
    broken = replace(cover_g, branch=cover_g.branch + (dup,))
    checks = validate_cover_data(broken)
    reduced = [c for c in checks if c.name.endswith("/reduced")]
    assert reduced and reduced[0].status == "fail"


def test_derive_all_L(cover_h):
    derived = derive_all_L(cover_h)
    group = cover_h.group
    assert derived[group.identity()].is_zero
    lat = cover_h.base.lattice
    rho2 = derived[(0, 2)]
    assert rho2 == lat.divisor({"L": 2, "Q": -1, "Q1": -1, "Q2": -1, "Q3": -1,
                                "Q1p": -1, "Q2p": -1})
    by_name = cover_h.branch_by_name()
    l_rho = dict(cover_h.reduced_l)[(0, 1)]
    combo = 2 * l_rho
    for name in ("Lambda2", "Q1p", "Phi", "N3", "M2", "M1"):
        combo = combo - by_name[name].curve
    assert rho2 == combo


def test_derived_matches_reduced(cover_g):
    derived = derive_all_L(cover_g)
    for chi, cls in cover_g.reduced_l:
        assert derived[chi] == cls


def test_solver_route_matches_derivation(cover_g, cover_h):
    for spec in (cover_g, cover_h):
        solution = solve_linear(building_data_relations(spec))
        assert solution.degrees_of_freedom == 0
        derived = derive_all_L(spec)
        for chi, cls in derived.items():
            if chi == spec.group.identity():
                continue
            assert solution.classes[character_unknown_name(chi)] == cls


def _epsilon(pair, chi1, chi2):
    """1 when the restriction levels of the two characters wrap past the
    subgroup order, 0 otherwise, computed afresh."""
    return 1 if restriction_level(pair, chi1) + restriction_level(pair, chi2) >= pair.order else 0


def reference_pair_rule_term(spec, a, b):
    """sum(eps*D_pair), with each restriction level recomputed per call."""
    total = spec.base.lattice.zero()
    for pair, d in spec.pair_divisors:
        if _epsilon(pair, a, b):
            total = total + d
    return total


def test_levels_are_the_restriction_levels(cover_g, cover_h):
    for spec in (cover_g, cover_h):
        assert len(spec.levels) == len(spec.pair_divisors)
        for (pair, _d), level in zip(spec.pair_divisors, spec.levels):
            assert dict(level) == {chi: restriction_level(pair, chi)
                                   for chi in spec.group.characters()}


def test_pair_rule_term_matches_per_call_reference(cover_g, cover_h):
    for spec in (cover_g, cover_h):
        for a, b in itertools.product(spec.group.characters(), repeat=2):
            assert pair_rule_term(spec, a, b) == reference_pair_rule_term(spec, a, b)


def test_classify_branch_points_g(cover_g):
    analyses = classify_branch_points(cover_g)
    assert analyses  # the branch components do cross
    assert all(a.verdict == VERDICT_SMOOTH for a in analyses)
    assert node_count(cover_g) == 0


def test_classify_branch_points_h(cover_h):
    analyses = classify_branch_points(cover_h)
    nodes = [a for a in analyses if a.verdict == VERDICT_NODE_A1]
    assert sorted(tuple(sorted(a.location)) for a in nodes) == [
        ("Lambda2", "M2"), ("Lambda2", "N2"),
    ]
    for a in nodes:
        assert a.preimage_count == 2
        assert a.inertia_order == 4
    assert node_count(cover_h) == 4
    assert all(a.verdict == VERDICT_SMOOTH for a in analyses if a not in nodes)


def test_unsupported_inertia_shape(cover_g):
    # two crossing components with the same order-2 inertia: outside the
    # two supported shapes
    lat = cover_g.base.lattice
    pair = CyclicPair(cover_g.group, (1, 0), 1)
    comps = (
        BranchComponent("A", lat.divisor({"L": 1, "E1": -1, "E1p": -1}), pair, 1),
        BranchComponent("B", lat.divisor({"L": 1, "E2": -1, "E2p": -1}), pair, 1),
    )
    spec = replace(cover_g, branch=comps, reduced_l=())
    analyses = classify_branch_points(spec)
    assert [a.verdict for a in analyses] == [VERDICT_UNSUPPORTED]
    # J is the shared order-2 subgroup, so two points lie above the crossing
    assert (analyses[0].inertia_order, analyses[0].preimage_count) == (2, 2)


def reference_classify_branch_points(spec):
    """`classify_branch_points` as it was written with one record per
    verdict, which gives an unsupported crossing 0/0 for |J| and |G|/|J|."""
    out = []
    order = spec.group.order
    for b1, b2 in itertools.combinations(spec.branch, 2):
        if b1.curve.is_zero or b2.curve.is_zero:
            continue
        crossings = b1.curve.dot(b2.curve)
        if crossings <= 0:
            continue
        s1 = b1.pair.subgroup()
        s2 = b2.pair.subgroup()
        names = (b1.name, b2.name)
        if s1 & s2 == {spec.group.identity()}:
            product = spec.group.subgroup_closure(list(s1 | s2))
            out.append(BranchPointAnalysis(names, int(crossings), len(product),
                                           order // len(product), VERDICT_SMOOTH))
        elif (s1 < s2 and len(s2) == 4 and len(s1) == 2) or (s2 < s1 and len(s1) == 4 and len(s2) == 2):
            big = s2 if len(s2) == 4 else s1
            out.append(BranchPointAnalysis(names, int(crossings), len(big),
                                           order // len(big), VERDICT_NODE_A1))
        else:
            out.append(BranchPointAnalysis(names, int(crossings), 0, 0, VERDICT_UNSUPPORTED))
    return out


def reference_preimage_consistency(spec, comp, analyses):
    """`preimage_consistency` as it was written with its own loop over the
    branch for the ramification; A1 nodes come from `analyses`."""
    pb = pullback(spec, comp)
    e = pb.ramification_multiplicity
    order = spec.group.order
    g_base = adjunction_genus(comp.curve, spec.base.canonical)
    total_r = Fraction(0)
    for other in spec.branch:
        if other.name == comp.name or other.curve.is_zero:
            continue
        crossings = comp.curve.dot(other.curve)
        if crossings <= 0:
            continue
        j = spec.group.subgroup_closure(list(comp.pair.subgroup() | other.pair.subgroup()))
        total_r += crossings * (Fraction(len(j), e) - 1) * Fraction(order, len(j))
    r = total_r / pb.components
    hurwitz = (pb.map_degree * (2 * g_base - 2) + r + 2) / 2
    nodes = Fraction(sum(a.crossing_points * a.preimage_count for a in analyses
                         if a.verdict == VERDICT_NODE_A1 and comp.name in a.location),
                     comp.components)
    p, _k2 = spec.ramification
    k_deg = Fraction(pb.map_degree) * p.dot(comp.curve) / spec.group.exponent
    adj = (pb.self_intersection + k_deg - nodes / 2 + 2) / 2
    ok, reason = True, "consistent"
    if r.denominator != 1:
        ok, reason = False, f"ramification {r} not integral across {pb.components} components"
    elif hurwitz.denominator != 1 or hurwitz < 0:
        ok, reason = False, f"Hurwitz genus {hurwitz} is not a non-negative integer"
    elif adj != hurwitz:
        ok, reason = False, f"adjunction genus {adj} != Hurwitz genus {hurwitz}"
    return ConsistencyReport(comp.name, pb.map_degree, r, hurwitz, adj, ok, reason)


def assert_crossings_match_reference(spec):
    analyses = classify_branch_points(spec)
    ref = reference_classify_branch_points(spec)
    assert [(a.location, a.crossing_points, a.verdict) for a in analyses] == \
        [(a.location, a.crossing_points, a.verdict) for a in ref]
    for a, b in zip(analyses, ref):
        # |J| and |G|/|J| for every crossing; unsupported ones read 0/0 before
        assert a.inertia_order * a.preimage_count == spec.group.order
        if a.verdict != VERDICT_UNSUPPORTED:
            assert a == b
    assert node_count(spec) == sum(a.crossing_points * a.preimage_count for a in ref
                                   if a.verdict == VERDICT_NODE_A1)
    for comp in spec.branch:
        if not comp.curve.is_zero:
            assert preimage_consistency(spec, comp) == reference_preimage_consistency(spec, comp, ref)
    return analyses


def test_crossings_match_reference_on_fixtures(cover_g, cover_h):
    for spec in (cover_g, cover_h):
        assert_crossings_match_reference(spec)


@st.composite
def random_inertia(draw, spec):
    """The spec with a random valid inertia pair and a compatible asserted
    component count on every branch component."""
    group = spec.group
    branch = []
    for comp in spec.branch:
        gen = draw(st.sampled_from([a for a in group.elements() if a != group.identity()]))
        m = group.element_order(gen)
        exponent = draw(st.sampled_from([k for k in range(1, m) if gcd(k, m) == 1]))
        n = 0 if comp.curve.is_zero else draw(st.sampled_from(
            [d for d in range(1, group.order // m + 1) if (group.order // m) % d == 0]))
        branch.append(replace(comp, pair=CyclicPair(group, gen, exponent), components=n))
    return replace(spec, branch=tuple(branch))


@settings(max_examples=150, deadline=None)
@given(which=st.sampled_from(["g", "h"]), data=st.data())
def test_crossings_match_reference_on_random_inertia(cover_g, cover_h, which, data):
    spec = data.draw(random_inertia(cover_g if which == "g" else cover_h))
    assert_crossings_match_reference(spec)


def test_pullbacks(cover_h):
    by_name = cover_h.branch_by_name()
    m2 = pullback(cover_h, by_name["M2"])
    assert (m2.ramification_multiplicity, m2.components, m2.map_degree) == (4, 2, 1)
    assert m2.self_intersection == Fraction(-1, 2)
    m3 = pullback(cover_h, by_name["M3"])
    assert (m3.components, m3.map_degree, m3.self_intersection) == (4, 1, -1)
    m1 = pullback(cover_h, by_name["M1"])
    assert (m1.components, m1.map_degree, m1.self_intersection) == (1, 2, -1)


def test_pullback_degree_identity(cover_g, cover_h):
    for spec in (cover_g, cover_h):
        for comp in spec.branch:
            if comp.curve.is_zero:
                continue
            pb = pullback(spec, comp)
            assert pb.components * pb.ramification_multiplicity * pb.map_degree == spec.group.order
            assert pb.self_intersection.denominator in (1, 2, 4)
            assert pb.ramification_multiplicity % pb.self_intersection.denominator == 0


def test_preimage_consistency_all(cover_g, cover_h):
    for spec in (cover_g, cover_h):
        for comp in spec.branch:
            if comp.curve.is_zero:
                continue
            rep = preimage_consistency(spec, comp)
            assert rep.ok, (comp.name, rep.reason)


def test_preimage_consistency_rejects_wrong_count(cover_h):
    by_name = cover_h.branch_by_name()
    wrong = replace(by_name["M1"], components=2)
    branch = tuple(wrong if b.name == "M1" else b for b in cover_h.branch)
    broken = replace(cover_h, branch=branch)
    rep = preimage_consistency(broken, wrong)
    assert not rep.ok


def test_canonical_cover(cover_g, cover_h):
    p, k2 = canonical_cover(cover_g, 2)
    assert p == cover_g.base.lattice.divisor(
        {"L": 9, "E1": -3, "E2": -4, "E3": -4, "E1p": -3, "E2p": -4, "E3p": -4})
    assert k2 == -1
    p, k2 = canonical_cover(cover_h, 4)
    assert p == cover_h.base.lattice.divisor(
        {"L": 16, "Q": -8, "Q1": -8, "Q1p": -2, "Q2": -6, "Q2p": -6, "Q3": -6, "Q3p": -6})
    assert p.dot(p) == -20
    assert k2 == -10


def test_unbranched_double_cover_doubles_k2(surface_w):
    group = FiniteAbelianGroup((2,))
    spec = CoverSpec("etale", group, surface_w, (), (((1,), surface_w.lattice.zero()),))
    _p, k2 = canonical_cover(spec, 2)
    assert k2 == 2 * surface_w.k_squared()


def test_trivial_cover_invariants(surface_w):
    group = FiniteAbelianGroup((1,))
    spec = CoverSpec("trivial", group, surface_w, (), ())
    inv = invariants(spec)
    assert (inv.chi, inv.p_g, inv.q) == (1, 0, 0)


def test_invariants(cover_g, cover_h):
    inv_g = invariants(cover_g)
    assert (inv_g.k2_cover, inv_g.chi, inv_g.p_g, inv_g.q) == (-1, 1, 0, 0)
    inv_h = invariants(cover_h)
    assert (inv_h.k2_cover, inv_h.chi, inv_h.p_g, inv_h.q) == (-10, 1, 0, 0)


def test_h0_vanishing(cover_g, cover_h):
    checks_g = h0_vanishing_checks(cover_g)
    assert len(checks_g) == 3 and all_pass(checks_g)
    checks_h = h0_vanishing_checks(cover_h)
    assert len(checks_h) == 7 and all_pass(checks_h)


def test_quotient_cover(cover_h):
    quotient = quotient_cover(cover_h, (0, 2))
    assert sorted(c.name for c in quotient.branch) == ["M1", "M2", "N1", "N2"]
    l_cls = dict(quotient.reduced_l)[(1,)]
    assert 2 * l_cls == quotient.total_branch_divisor()
    _p, k2 = canonical_cover(quotient, 2)
    assert k2 == 0
    with pytest.raises(UnsupportedCharacter):
        quotient_cover(cover_h, (1, 0))  # not trivial on the Z2xZ2 subgroup
    with pytest.raises(UnsupportedCharacter):
        quotient_cover(cover_h, (0, 1))  # order 4


def test_minimal_model(cover_g, cover_h):
    inv = minimal_model(cover_g, ContractionPlan(8, 0, ("Z1", "Z3", "Z2", "Z")))
    assert inv.k2_minimal == 7
    assert inv.ample_proxy is True
    assert inv.pushdown == cover_g.base.lattice.divisor(
        {"L": 5, "E1": -1, "E2": -2, "E3": -2, "E1p": -1, "E2p": -2, "E3p": -2})
    inv = minimal_model(cover_h, ContractionPlan(9, 4, ("M1", "M2", "N2", "M3", "N3")))
    assert inv.k2_minimal == 7
    assert inv.ample_proxy is True
    # the projected pushdown class is the anticanonical plus the two
    # pencils, and its square halves to the same K^2
    lat = cover_h.base.lattice
    p_s = -1 * cover_h.base.canonical \
        + lat.divisor({"L": 2, "Q": -1, "Q1": -1, "Q2": -1, "Q3": -1}) \
        + lat.divisor({"L": 2, "Q": -1, "Q1": -1, "Q2p": -1, "Q3p": -1})
    assert inv.pushdown == p_s
    assert p_s.dot(p_s) / 2 == 7


def test_minimal_model_empty_plan(cover_h):
    inv = minimal_model(cover_h, ContractionPlan(0, 0, ()))
    assert inv.k2_minimal == inv.k2_cover == -10


def test_minimal_model_accounting_mismatch(cover_h):
    with pytest.raises(AccountingError):
        minimal_model(cover_h, ContractionPlan(13, 0, ("M1", "M2", "N2", "M3", "N3")))


def test_minimal_model_rejects_non_minus_two(cover_h):
    with pytest.raises(CoverDataError):
        minimal_model(cover_h, ContractionPlan(1, 0, ("Lambda2",)))


def test_branch_component_validation(cover_h):
    lat = cover_h.base.lattice
    pair = CyclicPair(cover_h.group, (0, 1), 1)
    with pytest.raises(CoverDataError):
        BranchComponent("bad", lat.divisor({"L": 1}), pair, 0)
    with pytest.raises(CoverDataError):
        BranchComponent("bad", lat.zero(), pair, 2)


def test_cover_spec_is_frozen(cover_g):
    # derived data is cached on the spec, so its fields must never change
    with pytest.raises(FrozenInstanceError):
        cover_g.branch = ()
    with pytest.raises(FrozenInstanceError):
        cover_g.reduced_l = ()
    assert cover_g.all_l == derive_all_L(cover_g)
    assert cover_g.branch_points == tuple(classify_branch_points(cover_g))
    assert cover_g.ramification == canonical_cover(cover_g, cover_g.group.exponent)
