import itertools
import random

import pytest

from scw.oracle import (FreeLine, FreePoint, IntersectionPoint, LineThrough,
                        PointOnLine, RealizationError, ScriptError, SeedPolicy,
                        check_script, collinear_sets, h0_from_realization,
                        realize_configuration)
from scw.surface import BlowupSurface


def test_figure_scripts_echo_incidences(surface_w, surface_y):
    assert sorted(sorted(s) for s in surface_w.collinear_sets) == [
        ["E1", "E2", "E3"], ["E1", "E2p", "E3p"], ["E1p", "E2", "E3p"], ["E1p", "E2p", "E3"],
    ]
    assert len(surface_y.collinear_sets) == 6


def test_realization_is_exact_and_deterministic(surface_w):
    r1 = surface_w.realization(5)
    r2 = realize_configuration(surface_w.script, 5,
                               marked_points=surface_w.point_of_symbol.values())
    assert r1.points == r2.points and r1.lines == r2.lines
    # declared incidences hold exactly
    _, _, incidence = check_script(surface_w.script)
    for line, pts in incidence.items():
        a, b, c = r1.lines[line]
        for p in pts:
            x, y, z = r1.points[p]
            assert a * x + b * y + c * z == 0
    marked = list(surface_w.point_of_symbol.values())
    for p, q in itertools.combinations(marked, 2):
        assert r1.points[p] != r1.points[q]


def test_undeclared_collinearity_rejected(surface_y):
    r = surface_y.realization(3)
    marked = list(surface_y.point_of_symbol.values())
    declared = {frozenset(surface_y.point_of_symbol[s] for s in grp)
                for grp in surface_y.collinear_sets}

    def det3(p, q, s):
        return (p[0] * (q[1] * s[2] - q[2] * s[1])
                - p[1] * (q[0] * s[2] - q[2] * s[0])
                + p[2] * (q[0] * s[1] - q[1] * s[0]))

    for triple in itertools.combinations(marked, 3):
        pts = [r.points[t] for t in triple]
        assert (det3(*pts) == 0) == (frozenset(triple) in declared)


def test_contradictory_script_exhausts_retries():
    script = [
        FreePoint("a"), FreePoint("b"),
        LineThrough("l1", "a", "b"),
        LineThrough("l2", "a", "b"),
        LineThrough("l3", "a", "b"),
        IntersectionPoint("x", "l1", "l2"),
    ]
    with pytest.raises(RealizationError, match="in every draw, step 'x' is degenerate"):
        realize_configuration(script, 0)


def test_forced_collinearity_is_named():
    # Pappus: the diagonal points x, y, z of a hexagon inscribed in two lines
    # are always collinear, and the script declares no line through them
    script = [FreeLine("l"), FreeLine("m")]
    script += [PointOnLine(p, "l") for p in "ABC"] + [PointOnLine(p, "m") for p in "abc"]
    script += [LineThrough(p + q, p, q) for p, q in ("Ab", "aB", "Ac", "aC", "Bc", "bC")]
    script += [IntersectionPoint("x", "Ab", "aB"), IntersectionPoint("y", "Ac", "aC"),
               IntersectionPoint("z", "Bc", "bC")]
    with pytest.raises(RealizationError, match="in every draw, marked points 'x', 'y', 'z' "
                                               "are collinear but no line of the script"):
        realize_configuration(script, 0)
    realize_configuration(script, 0, marked_points="ABCabc")


def test_forced_coincidence_is_named():
    # the line through a and b meets the line through a and c in a itself
    script = [FreePoint("a"), FreePoint("b"), FreePoint("c"),
              LineThrough("ab", "a", "b"), LineThrough("ac", "a", "c"),
              IntersectionPoint("x", "ab", "ac")]
    with pytest.raises(RealizationError,
                       match="in every draw, marked points 'a' and 'x' coincide"):
        realize_configuration(script, 0)


def test_script_validation_errors():
    with pytest.raises(ScriptError):
        check_script([FreePoint("a"), FreePoint("a")])
    with pytest.raises(ScriptError):
        check_script([LineThrough("l", "a", "b")])
    with pytest.raises(ScriptError):
        check_script([FreePoint("a"), LineThrough("l", "a", "a")])
    with pytest.raises(ScriptError):
        check_script([FreeLine("l"), IntersectionPoint("x", "l", "l")])
    with pytest.raises(ScriptError):
        check_script([PointOnLine("x", "l")])


def test_point_on_line_step():
    script = [FreeLine("l"), PointOnLine("x", "l"), PointOnLine("y", "l"), FreePoint("z")]
    r = realize_configuration(script, 2)
    a, b, c = r.lines["l"]
    for name in ("x", "y"):
        px, py, pz = r.points[name]
        assert a * px + b * py + c * pz == 0


def line_pair_oracle(surface, conic_class):
    """Combinatorial count for conics double at one point: pairs of marked
    lines through it must cover the simple points.  Returns True when no
    pair of lines through the double point covers all simple points."""
    double = [s for s in surface.lattice.exceptional_names if conic_class.coeff(s) == -2]
    simple = {s for s in surface.lattice.exceptional_names if conic_class.coeff(s) == -1}
    assert len(double) == 1
    p = double[0]
    lines_through_p = [set(grp) - {p} for grp in surface.collinear_sets if p in grp]
    for l1, l2 in itertools.combinations_with_replacement(lines_through_p, 2):
        if simple <= (l1 | l2):
            return False
    return True


def test_h0_examples(surface_w, surface_y):
    lat = surface_w.lattice
    k_plus_l1 = lat.divisor({"L": 2, "E2": -2, "E3": -1, "E2p": -1, "E3p": -1})
    assert line_pair_oracle(surface_w, k_plus_l1)  # no line pair through p2 works
    assert surface_w.h0(k_plus_l1) == 0
    phi = surface_y.lattice.divisor({"L": 2, "Q": -1, "Q1": -1, "Q2": -1, "Q3": -1})
    assert surface_y.h0(phi) == 2
    assert surface_w.h0(lat.zero()) == 1
    assert surface_w.h0(lat.divisor({"L": -1})) == 0


def test_h0_exceptional_and_minus_two(surface_w, surface_y):
    for surface in (surface_w, surface_y):
        for sym in surface.lattice.exceptional_names:
            assert surface.h0(surface.lattice.exceptional(sym)) == 1
        for rec in surface.catalog():
            assert surface.h0(rec.cls) == 1


def test_h0_seed_independence(surface_y):
    phi = {"L": 2, "Q": -1, "Q1": -1, "Q2": -1, "Q3": -1}
    for base in (0, 17, 400):
        surface = BlowupSurface(surface_y.script, surface_y.blowups,
                                seed_policy=SeedPolicy(base=base))
        assert surface.h0(surface.lattice.divisor(phi)) == 2


def test_h0_monotone_in_conditions(surface_w):
    lat = surface_w.lattice
    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(1, 4)
        mults = {s: -rng.randint(0, 2) for s in lat.exceptional_names}
        cls = lat.divisor({"L": d, **mults})
        h = surface_w.h0(cls)
        sym = rng.choice(lat.exceptional_names)
        tightened = lat.divisor({"L": d, **{**mults, sym: mults[sym] - 1}})
        assert surface_w.h0(tightened) <= h


EXCLUDED_PROFILES = ("two double points on a conic", "five double points on a quartic")


def generic_agreement_cases(count=50, seed=11):
    """Random (degree, multiplicities) with the two classical special
    profiles excluded: (d=2, exactly two double points) and (d=4, exactly
    five double points and nothing else)."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        d = rng.randint(1, 4)
        n_points = rng.randint(1, 6)
        mults = [rng.randint(1, 2) for _ in range(n_points)]
        doubles = sum(1 for m in mults if m == 2)
        simples = sum(1 for m in mults if m == 1)
        if d == 2 and doubles == 2 and simples == 0:
            continue
        if d == 4 and doubles == 5 and simples == 0:
            continue
        cases.append((d, tuple(mults)))
    return cases


def test_h0_generic_agreement():
    for i, (d, mults) in enumerate(generic_agreement_cases()):
        script = [FreePoint(f"p{j}") for j in range(len(mults))]
        real = realize_configuration(script, seed=1000 + i)
        expected = max(0, (d + 1) * (d + 2) // 2 - sum(m * (m + 1) // 2 for m in mults))
        got = h0_from_realization(real, d, {f"p{j}": m for j, m in enumerate(mults)})
        assert got == expected, (d, mults)
