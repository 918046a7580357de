"""Acceptance criteria.

Every check is a bit-exact equality; one line per criterion is printed
past the capture machinery so the run log shows the verdicts.  The same
checks back the `scw paper-suite` command.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from scw.cover import (ContractionPlan, building_data_relations, canonical_cover,
                       character_unknown_name, classify_branch_points, derive_all_L,
                       h0_vanishing_checks, minimal_model, node_count,
                       preimage_consistency, pullback, quotient_cover, validate_cover_data)
from scw.groups import FiniteAbelianGroup, pairwise_common_involution, subgroups_of_order
from scw.lattice import abstract_lattice, blowup_lattice, gram_det, solve_divide, solve_linear
from scw.lefschetz import (diophantine_enumerate, involution_range_filter, order3_counts,
                           theorem11_consistency)
from scw.oracle import FreePoint, h0_from_realization, realize_configuration
from scw.surface import Pencil, isolated_minus_one_curves, minus_two_curves, singular_members


@pytest.fixture
def announce(capfd):
    def _announce(num: int, label: str):
        with capfd.disabled():
            print(f"criterion {num:02d} ({label}): PASS", flush=True)
    return _announce


def test_c01_involution_range(announce):
    assert involution_range_filter(7) == [1, 3, 5, 7]
    assert involution_range_filter(7, r2=1) == [3, 5, 7]
    announce(1, "involution range filter")


def test_c02_determinant_identity_and_elimination(announce):
    for a in range(-7, 8):
        for b in range(-4, 5):
            assert gram_det([[7, a, 0], [a, 1, b], [0, b, -2]]) == -14 + 2 * a * a - 7 * b * b
    admissible = {1, 3, 5, 7}
    zeros = [
        (a, b)
        for a in range(-7, 8)
        for b in range(-4, 5)
        if -14 + 2 * a * a - 7 * b * b == 0 and a in admissible
    ]
    assert zeros == []
    # the only near-miss: a = 7 forces b^2 = 12, impossible over Z
    assert 2 * 7 * 7 - 14 == 7 * 12
    assert [b for b in range(-4, 5) if b * b == 12] == []
    announce(2, "intersection-matrix determinant")


def test_c03_cubic_enumeration(announce):
    assert diophantine_enumerate("commuting-cubic") == [(0, 1)]
    announce(3, "odd-order cubic constraint")


def test_c04_quotient_k2(announce):
    lat = abstract_lattice(
        ["K", "F", "B", "aB"],
        [[7, 3, 1, 1], [3, 1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]],
    )
    cls = lat.divisor({"K": 1, "F": -3, "B": -2, "aB": -2})
    assert cls.dot(cls) / 6 == -3
    announce(4, "degree-6 quotient K^2 = -3")


def test_c05_order3_counts(announce):
    assert order3_counts(2, -2, 3) == (0, 5)
    announce(5, "five isolated order-3 fixed points")


def test_c06_first_surface_catalog(surface_w, announce):
    twos = minus_two_curves(surface_w)
    assert len(twos) == 4
    expected_twos = {
        surface_w.lattice.divisor(m).coeffs
        for m in (
            {"L": 1, "E1": -1, "E2p": -1, "E3p": -1},
            {"L": 1, "E2": -1, "E1p": -1, "E3p": -1},
            {"L": 1, "E3": -1, "E1p": -1, "E2p": -1},
            {"L": 1, "E1": -1, "E2": -1, "E3": -1},
        )
    }
    assert {r.cls.coeffs for r in twos} == expected_twos
    gammas = {r.cls.coeffs for r in isolated_minus_one_curves(surface_w)}
    assert gammas == {
        surface_w.lattice.divisor({"L": 1, f"E{i}": -1, f"E{i}p": -1}).coeffs
        for i in (1, 2, 3)
    }
    f2 = Pencil(surface_w.lattice.divisor({"L": 2, "E1": -1, "E3": -1, "E1p": -1, "E3p": -1}))
    decomps = {
        tuple(sorted((rec.name, mult) for rec, mult in parts))
        for parts in singular_members(surface_w, f2)
    }
    assert decomps == {
        (("L-E1-E1p", 1), ("L-E3-E3p", 1)),
        (("E2p", 2), ("L-E1-E2p-E3p", 1), ("L-E3-E1p-E2p", 1)),
        (("E2", 2), ("L-E1-E2-E3", 1), ("L-E2-E1p-E3p", 1)),
    }
    announce(6, "quadrilateral surface catalog")


def test_c07_bidouble_cover(cover_g, announce):
    solution = solve_linear(building_data_relations(cover_g))
    assert solution.degrees_of_freedom == 0
    derived = derive_all_L(cover_g)
    for chi, cls in cover_g.reduced_l:
        assert solution.classes[character_unknown_name(chi)] == cls == derived[chi]
    assert all(c.status == "pass" for c in validate_cover_data(cover_g))
    _p, k2 = canonical_cover(cover_g, 2)
    assert k2 == -1
    inv = minimal_model(cover_g, ContractionPlan(8, 0, ("Z1", "Z3", "Z2", "Z")))
    assert inv.k2_minimal == 7
    assert (inv.p_g, inv.chi) == (0, 1)
    announce(7, "bidouble cover: K^2 = -1 -> 7, p_g = 0, chi = 1")


def test_c08_exponent4_relations(cover_h, announce):
    assert all(c.status == "pass" for c in validate_cover_data(cover_h))
    lat = cover_h.base.lattice
    given = dict(cover_h.reduced_l)
    by_name = cover_h.branch_by_name()
    d1 = by_name["Lambda1"].curve + by_name["Phi1"].curve + by_name["M3"].curve
    d3 = by_name["Q1p"].curve + by_name["Phi"].curve + by_name["N3"].curve
    sum_chi = d1 + d3 + by_name["Dg1g_i"].curve + by_name["M1"].curve
    assert sum_chi == lat.divisor(
        {"L": 8, "Q": -4, "Q1": -4, "Q2": -2, "Q2p": -2, "Q3": -2, "Q3p": -4})
    assert sum_chi == 2 * given[(1, 0)]
    sum_rho = (2 * by_name["Lambda2"].curve + 2 * d3
               + (by_name["N1"].curve + by_name["N2"].curve) + 3 * by_name["M2"].curve
               + by_name["Dg1g_i"].curve + 3 * by_name["M1"].curve)
    assert sum_rho == 4 * given[(0, 1)]
    announce(8, "exponent-4 cover data relations")


def test_c09_character_sheaves_and_quotient(cover_h, announce):
    derived = derive_all_L(cover_h)
    by_name = cover_h.branch_by_name()
    l_rho = dict(cover_h.reduced_l)[(0, 1)]
    expected = 2 * l_rho
    for name in ("Lambda2", "Q1p", "Phi", "N3", "M2", "M1"):
        expected = expected - by_name[name].curve
    assert derived[(0, 2)] == expected
    quotient = quotient_cover(cover_h, (0, 2))
    assert sorted(c.name for c in quotient.branch) == ["M1", "M2", "N1", "N2"]
    _p, k2 = canonical_cover(quotient, 2)
    assert k2 == 0
    announce(9, "derived character sheaves and double-cover quotient")


def test_c10_singularities_and_pullbacks(cover_h, announce):
    analyses = classify_branch_points(cover_h)
    nodes = [a for a in analyses if a.verdict == "node-A1"]
    assert sorted(tuple(sorted(a.location)) for a in nodes) == [
        ("Lambda2", "M2"), ("Lambda2", "N2")]
    assert all(a.preimage_count == 2 and a.inertia_order == 4 for a in nodes)
    assert node_count(cover_h) == 4
    assert all(a.verdict == "smooth" for a in analyses if a not in nodes)
    by_name = cover_h.branch_by_name()
    expected = {"M2": (2, Fraction(-1, 2)), "N2": (2, Fraction(-1, 2)),
                "M3": (4, Fraction(-1)), "N3": (4, Fraction(-1)), "M1": (1, Fraction(-1))}
    for name, (n, s) in expected.items():
        pb = pullback(cover_h, by_name[name])
        assert (pb.components, pb.self_intersection) == (n, s), name
        assert preimage_consistency(cover_h, by_name[name]).ok
    announce(10, "branch-point nodes and pullback table")


def test_c11_final_invariants(cover_h, announce):
    _p, k2 = canonical_cover(cover_h, 4)
    assert k2 == -10
    inv = minimal_model(cover_h, ContractionPlan(9, 4, ("M1", "M2", "N2", "M3", "N3")))
    assert inv.k2_minimal == 7
    lat = cover_h.base.lattice
    independent = (-1 * cover_h.base.canonical
                   + lat.divisor({"L": 2, "Q": -1, "Q1": -1, "Q2": -1, "Q3": -1})
                   + lat.divisor({"L": 2, "Q": -1, "Q1": -1, "Q2p": -1, "Q3p": -1}))
    assert independent.dot(independent) == 14
    assert Fraction(14, 2) == inv.k2_minimal
    vanishing = h0_vanishing_checks(cover_h)
    assert len(vanishing) == 7 and all(c.status == "pass" for c in vanishing)
    assert (inv.p_g, inv.chi, inv.q) == (0, 1, 0)
    announce(11, "K^2 = -10 -> 7 and p_g = 0, chi = 1, q = 0")


def test_c12_subgroup_combinatorics(announce):
    z222 = FiniteAbelianGroup((2, 2, 2))
    subs = subgroups_of_order(z222, 4)
    assert len(subs) == 7
    assert pairwise_common_involution(z222, subs) is True
    z2z4 = FiniteAbelianGroup((2, 4))
    assert len(subgroups_of_order(z2z4, 4, elementary_only=True)) == 1
    announce(12, "subgroup combinatorics")


def test_c13_case_table_consistency(case_table, announce):
    assert sorted(case_table) == ["a", "b", "c"]
    for case, (kr, rr) in case_table.items():
        assert all(c.status == "pass" for c in theorem11_consistency(case, kr, rr))
    for case, (kr, rr) in case_table.items():
        for which in ("kr", "rr"):
            base = kr if which == "kr" else rr
            for i, delta in itertools.product(range(3), (-2, -1, 1, 2)):
                mutated = list(base)
                mutated[i] += delta
                nkr = tuple(mutated) if which == "kr" else kr
                nrr = tuple(mutated) if which == "rr" else rr
                checks = theorem11_consistency(case, kr=nkr, rr=nrr)
                assert any(c.status == "fail" for c in checks), (case, which, i, delta)
    announce(13, "case-table consistency and mutation kill")


def test_c14_oracle_and_property_suites(cover_g, cover_h, announce):
    # 50 randomized generic-agreement instances (the two classical special
    # profiles are excluded by the generator)
    rng = random.Random(23)
    cases = []
    while len(cases) < 50:
        d = rng.randint(1, 4)
        mults = [rng.randint(1, 2) for _ in range(rng.randint(1, 6))]
        doubles = sum(1 for m in mults if m == 2)
        if (d == 2 and doubles == 2 and doubles == len(mults)) or \
           (d == 4 and doubles == 5 and doubles == len(mults)):
            continue
        cases.append((d, mults))
    for i, (d, mults) in enumerate(cases):
        script = [FreePoint(f"p{j}") for j in range(len(mults))]
        real = realize_configuration(script, seed=5000 + i)
        expected = max(0, (d + 1) * (d + 2) // 2 - sum(m * (m + 1) // 2 for m in mults))
        assert h0_from_realization(real, d, {f"p{j}": m for j, m in enumerate(mults)}) == expected

    # deterministic 1000-case sweeps of the invariant families (the same
    # properties also run under hypothesis in test_properties.py)
    lat = blowup_lattice("L", ["E1", "E2", "E3", "E4"])
    k = lat.canonical_class()
    rng = random.Random(5)

    def rand_class():
        return lat.divisor([rng.randint(-9, 9) for _ in range(lat.dim)])

    for _ in range(1000):
        u, v, w = rand_class(), rand_class(), rand_class()
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        assert (a * u + b * v).dot(w) == a * u.dot(w) + b * v.dot(w)
        assert (u.dot(u) + k.dot(u)) % 2 == 0
        n = rng.randint(1, 6)
        assert solve_divide(n * u, n) == u

    specs = [cover_g, cover_h]
    truth = [derive_all_L(spec) for spec in specs]
    for i in range(1000):
        spec, expected_map = specs[i % 2], truth[i % 2]
        chars = [c for c in spec.group.characters() if c != spec.group.identity()]
        gens = rng.sample(chars, 2)
        generated = {spec.group.identity()}
        frontier = [spec.group.identity()]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = spec.group.add(x, g)
                if y not in generated:
                    generated.add(y)
                    frontier.append(y)
        if len(generated) < len(spec.group.characters()):
            continue
        rebuilt = replace(spec, reduced_l=tuple((chi, expected_map[chi]) for chi in gens))
        assert derive_all_L(rebuilt) == expected_map
    announce(14, "oracle agreement and 1000-case property sweeps")
