"""Property suites for the module-level invariants.

The four headline families (bilinearity, adjunction parity, derivation
path-independence, round-trips) run at 1000 cases each.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from scw.cover import derive_all_L
from scw.exactla import smith_normal_form
from scw.lattice import blowup_lattice, gram_det, solve_divide
from scw.lefschetz import involution_counts, involution_from_counts, order3_counts

LAT = blowup_lattice("L", [f"E{i}" for i in range(1, 5)])
K = LAT.canonical_class()

coeff = st.integers(min_value=-9, max_value=9)
vec = st.tuples(*([coeff] * LAT.dim))
scalar = st.integers(min_value=-6, max_value=6)

THOUSAND = settings(max_examples=1000, deadline=None)


@THOUSAND
@given(vec, vec, vec, scalar, scalar)
def test_bilinearity(u, v, w, a, b):
    du, dv, dw = LAT.divisor(u), LAT.divisor(v), LAT.divisor(w)
    left = (a * du + b * dv).dot(dw)
    assert left == a * du.dot(dw) + b * dv.dot(dw)
    assert du.dot(dv) == dv.dot(du)


@THOUSAND
@given(vec)
def test_adjunction_parity(u):
    d = LAT.divisor(u)
    assert (d.dot(d) + K.dot(d)) % 2 == 0


@THOUSAND
@given(vec, st.integers(min_value=1, max_value=6))
def test_solve_divide_round_trip(u, n):
    x = LAT.divisor(u)
    assert solve_divide(n * x, n) == x


def _spec_characters(spec):
    return [chi for chi in spec.group.characters() if chi != spec.group.identity()]


@pytest.fixture(scope="module")
def derivation_truth(cover_g, cover_h):
    return {
        "g": (cover_g, derive_all_L(cover_g)),
        "h": (cover_h, derive_all_L(cover_h)),
    }


@THOUSAND
@given(which=st.sampled_from(["g", "h"]), data=st.data())
def test_derivation_path_independence(derivation_truth, which, data):
    """Rebuilding the spec from any generating set of character sheaves
    re-derives the identical map (and derive_all_L internally re-checks
    every factorization of every character)."""
    spec, truth = derivation_truth[which]
    chars = _spec_characters(spec)
    gens = data.draw(st.lists(st.sampled_from(chars), min_size=2, max_size=3, unique=True))
    generated = {spec.group.identity()}
    frontier = list(generated)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = spec.group.add(x, g)
            if y not in generated:
                generated.add(y)
                frontier.append(y)
    assume(len(generated) == len(spec.group.characters()))
    rebuilt = replace(spec, reduced_l=tuple((chi, truth[chi]) for chi in gens))
    assert derive_all_L(rebuilt) == truth


@THOUSAND
@given(st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20))
def test_involution_round_trip(kr, r2):
    k, tr = involution_counts(kr, r2)
    assert involution_from_counts(k, tr) == (kr, r2)


@THOUSAND
@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8),
       st.integers(min_value=-8, max_value=8))
def test_order3_counts_solve_the_system(kr, r2, tr):
    counts = order3_counts(kr, r2, tr)
    if counts is None:
        total = Fraction(tr + 2 + kr + r2)
        weighted = 6 + Fraction(3 * kr, 2) - Fraction(r2, 2)
        r2c = weighted - total
        r1c = 2 * total - weighted
        assert r1c.denominator != 1 or r2c.denominator != 1 or r1c < 0 or r2c < 0
    else:
        r1, r2c = counts
        assert r1 >= 0 and r2c >= 0
        assert r1 + r2c == tr + 2 + kr + r2
        assert 2 * (r1 + 2 * r2c) == 12 + 3 * kr - r2


def det_cofactor(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * det_cofactor(minor)
    return total


def verify_snf(a_rows, u, s, v) -> bool:
    """U*A*V == S, multiplied out exactly."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    ua = [[sum(u[i][k] * a_rows[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    uav = [[sum(ua[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    return uav == [list(map(int, row)) for row in s]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_gram_det_matches_cofactor_oracle(n, data):
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    m = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    assert gram_det(m) == det_cofactor(m)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=8))
def test_blowup_gram_det_sign(n):
    lat = blowup_lattice("L", [f"E{i}" for i in range(1, n + 1)])
    classes = [lat.divisor({name: 1}) for name in lat.names]
    assert gram_det(classes) == (-1) ** n


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_smith_normal_form_properties(m, n, data):
    a = [[data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(n)]
         for _ in range(m)]
    u, s, v = smith_normal_form(a)
    assert verify_snf(a, u, s, v)
    assert abs(det_cofactor(u)) == 1
    assert abs(det_cofactor(v)) == 1
    diag = [s[i][i] for i in range(min(m, n))]
    for i in range(len(diag) - 1):
        if diag[i] != 0:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    for i in range(m):
        for j in range(n):
            if i != j:
                assert s[i][j] == 0


def test_singular_member_structure(surface_w, surface_y):
    from scw.surface import find_pencils, singular_members

    for surface in (surface_w, surface_y):
        for pencil in find_pencils(surface):
            for parts in singular_members(surface, pencil):
                total = surface.lattice.zero()
                for rec, mult in parts:
                    assert mult >= 1
                    assert pencil.cls.dot(rec.cls) == 0
                    total = total + mult * rec.cls
                assert total == pencil.cls
                for (r1, _), (r2, _) in itertools.combinations(parts, 2):
                    assert r1.cls.dot(r2.cls) >= 0
