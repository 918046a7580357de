from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scw.exactla import smith_normal_form
from scw.lattice import (DivisorClass, LatticeMismatch, LinearSolution, NotDivisible,
                         Relation, Unsolvable, abstract_lattice, adjunction_genus,
                         blowup_lattice, format_class, gram_det, hodge_index_bound,
                         solve_divide, solve_linear)


def test_blowup_intersections(surface_w):
    lat = surface_w.lattice
    gamma2 = lat.divisor({"L": 1, "E2": -1, "E2p": -1})
    assert gamma2.dot(gamma2) == -1
    line = lat.divisor({"L": 1})
    assert line.dot(line) == 1


def test_intersection_on_y(surface_y):
    lat = surface_y.lattice
    lam1 = lat.divisor({"L": 1, "Q2p": -1, "Q3p": -1})
    phi = lat.divisor({"L": 2, "Q": -1, "Q1": -1, "Q2": -1, "Q3": -1})
    assert lam1.dot(phi) == 2


def test_mismatched_lattices_raise(surface_w, surface_y):
    with pytest.raises(LatticeMismatch):
        surface_w.lattice.divisor({"L": 1}).dot(surface_y.lattice.divisor({"L": 1}))


def test_gram_det_matrix_examples():
    a, b = 7, 3
    assert gram_det([[7, a, 0], [a, 1, b], [0, b, -2]]) == -14 + 2 * a * a - 7 * b * b == 21
    assert gram_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    x, y = 0, 1
    assert gram_det([[-1, x, x], [x, -1, y], [x, y, -1]]) == 0


def test_gram_det_from_classes(surface_w):
    lat = surface_w.lattice
    classes = [lat.divisor({name: 1}) for name in lat.names]
    assert gram_det(classes) == (-1) ** 6


def test_adjunction_genus_examples(surface_w):
    s_lat = abstract_lattice(["K", "F"], [[7, 3], [3, 1]])
    assert adjunction_genus(s_lat.divisor({"F": 1}), s_lat.divisor({"K": 1})) == 3
    z1 = surface_w.lattice.divisor({"L": 1, "E1": -1, "E2p": -1, "E3p": -1})
    assert adjunction_genus(z1, surface_w.canonical) == 0
    b_lat = abstract_lattice(["K", "B"], [[7, 1], [1, -1]])
    assert adjunction_genus(b_lat.divisor({"B": 1}), b_lat.divisor({"K": 1})) == 1


def test_solve_divide(surface_w):
    lat = surface_w.lattice
    total = lat.divisor({"L": 10, "E1": -2, "E2": -6, "E3": -4,
                         "E1p": -2, "E2p": -4, "E3p": -4})
    half = solve_divide(total, 2)
    assert 2 * half == total
    assert half == lat.divisor({"L": 5, "E1": -1, "E2": -3, "E3": -2,
                                "E1p": -1, "E2p": -2, "E3p": -2})
    assert solve_divide(lat.zero(), 5) == lat.zero()
    with pytest.raises(NotDivisible) as err:
        solve_divide(lat.divisor({"L": 1, "E1": -1}), 2)
    assert err.value.symbol in ("L", "E1")


def test_solve_linear_bidouble_system(cover_g):
    # the six constraints of the exponent-2 building data determine the
    # three character sheaves
    from scw.cover import building_data_relations, character_unknown_name, derive_all_L

    relations = building_data_relations(cover_g)
    assert len(relations) == 6  # three doubling relations, three pair rules
    solution = solve_linear(relations)
    assert solution.degrees_of_freedom == 0
    derived = derive_all_L(cover_g)
    for chi, cls in derived.items():
        if chi == cover_g.group.identity():
            continue
        assert solution.classes[character_unknown_name(chi)] == cls


def test_solve_linear_small_cases(surface_w):
    lat = surface_w.lattice
    line = lat.divisor({"L": 1})
    sol = solve_linear([Relation.make({"X": 2}, 2 * line)])
    assert sol.classes["X"] == line
    assert sol.degrees_of_freedom == 0
    with pytest.raises(Unsolvable) as err:
        solve_linear([Relation.make({"X": 2}, line)])
    assert str(err.value) == ("no integral solution: combination [1] of the relations "
                              "needs 2 | 1 at symbol 'L'")
    assert err.value.certificate == ([1], "L")
    with pytest.raises(Unsolvable) as err:
        solve_linear([Relation.make({"X": 1}, line), Relation.make({"X": 1}, 2 * line)])
    assert str(err.value) == ("inconsistent system: combination [-1, 1] of the relations "
                              "forces 0 == 1 at symbol 'L'")
    assert err.value.certificate == ([-1, 1], "L")


def test_solve_linear_underdetermined(surface_w):
    lat = surface_w.lattice
    sol = solve_linear([Relation.make({"X": 1, "Y": 1}, lat.divisor({"L": 2}))])
    assert sol.degrees_of_freedom == 1
    assert sol.classes["X"] + sol.classes["Y"] == lat.divisor({"L": 2})


def test_solve_linear_z2z4_system(cover_h):
    from scw.cover import building_data_relations

    relations = building_data_relations(cover_h)
    assert len(relations) == 28
    solution = solve_linear(relations)
    assert solution.degrees_of_freedom == 0
    assert {name: str(cls) for name, cls in solution.classes.items()} == {
        "L_c01": "4L - 2Q - 2Q1 - 2Q2 - Q3 - Q1p - Q2p - Q3p",
        "L_c02": "2L - Q - Q1 - Q2 - Q3 - Q1p - Q2p",
        "L_c03": "4L - Q - 2Q1 - 2Q2 - 2Q3 - Q1p - Q2p - Q3p",
        "L_c10": "4L - 2Q - 2Q1 - Q2 - Q3 - Q2p - 2Q3p",
        "L_c11": "4L - 2Q - Q1 - Q2 - Q3 - Q1p - 2Q2p - 2Q3p",
        "L_c12": "5L - 2Q - 2Q1 - 2Q2 - 2Q3 - 2Q2p - 2Q3p",
        "L_c13": "5L - 2Q - 2Q1 - Q2 - 2Q3 - 2Q1p - 2Q2p - 2Q3p",
    }
    assert all(type(c) is Fraction for cls in solution.classes.values() for c in cls.coeffs)
    assert solution == reference_solve_linear(relations)


def reference_solve_linear(relations):
    """`solve_linear` as it was written on Fraction arithmetic."""
    if not relations:
        raise ValueError("no relations given")
    lat = relations[0].rhs.lattice
    for rel in relations:
        if rel.rhs.lattice != lat:
            raise LatticeMismatch("relation right-hand sides live on different lattices")
        if not rel.rhs.is_integral:
            raise ValueError("known classes must be integral")
    names = []
    for rel in relations:
        for name, _ in rel.unknowns:
            if name not in names:
                names.append(name)
    a = [[0] * len(names) for _ in relations]
    for r, rel in enumerate(relations):
        for name, coeff in rel.unknowns:
            a[r][names.index(name)] = coeff
    b = [[rel.rhs.coeffs[j] for j in range(lat.dim)] for rel in relations]

    u, s, v = smith_normal_form(a)
    m, nu = len(a), len(names)
    ub = [
        [sum(Fraction(u[i][k]) * b[k][j] for k in range(m)) for j in range(lat.dim)]
        for i in range(m)
    ]
    diag = [s[i][i] for i in range(min(m, nu))]
    rank = sum(1 for d in diag if d != 0)

    y = [[Fraction(0)] * lat.dim for _ in range(nu)]
    for i in range(m):
        si = diag[i] if i < len(diag) else 0
        for j in range(lat.dim):
            if si == 0:
                if ub[i][j] != 0:
                    raise Unsolvable(
                        f"inconsistent system: combination {u[i]} of the relations "
                        f"forces 0 == {ub[i][j]} at symbol {lat.names[j]!r}",
                        certificate=(u[i], lat.names[j]),
                    )
            else:
                q = ub[i][j] / si
                if q.denominator != 1:
                    raise Unsolvable(
                        f"no integral solution: combination {u[i]} of the relations "
                        f"needs {si} | {ub[i][j]} at symbol {lat.names[j]!r}",
                        certificate=(u[i], lat.names[j]),
                    )
                y[i][j] = q
    x = [
        [sum(Fraction(v[i][k]) * y[k][j] for k in range(nu)) for j in range(lat.dim)]
        for i in range(nu)
    ]
    classes = {name: DivisorClass(lat, tuple(x[i])) for i, name in enumerate(names)}
    return LinearSolution(classes=classes, degrees_of_freedom=nu - rank)


SMALL = st.integers(-4, 4)


@st.composite
def linear_systems(draw):
    """(kind, relations): an integral system A X = B built to be `unique`,
    `underdetermined`, `inconsistent` (a zero row of the Smith form with a
    nonzero right-hand side) or `non-integral` (solvable over Q only), then
    mixed by random row operations on (A | B), which keep its solutions."""
    if draw(st.booleans()):
        lat = blowup_lattice("L", [f"E{i}" for i in range(1, draw(st.integers(0, 3)) + 1)])
    else:
        dim = draw(st.integers(1, 3))
        lat = abstract_lattice([f"e{i}" for i in range(dim)],
                               [[(i + j) % 3 - 1 for j in range(dim)] for i in range(dim)])
    kind = draw(st.sampled_from(["unique", "underdetermined", "inconsistent", "non-integral"]))
    nu = draw(st.integers(1, 4))
    x = [draw(st.lists(SMALL, min_size=lat.dim, max_size=lat.dim)) for _ in range(nu)]
    # an identity block gives full column rank with every diagonal entry 1
    a = [[int(i == k) for k in range(nu)] for i in range(nu)]
    a += draw(st.lists(st.lists(SMALL, min_size=nu, max_size=nu), max_size=3))
    if kind == "underdetermined":
        # one more unknown, whose column is a multiple of the first
        f = draw(st.sampled_from([-2, -1, 1, 2, 3]))
        a = [row + [f * row[0]] for row in a]
        x.append([0] * lat.dim)
    if kind == "non-integral":
        a = a[:nu]
        a[nu - 1][nu - 1] = draw(st.integers(2, 5))
    b = [[sum(row[k] * x[k][j] for k in range(len(row))) for j in range(lat.dim)] for row in a]
    if kind == "inconsistent":
        a.append(list(a[0]))
        b.append(list(b[0]))
    if kind in ("inconsistent", "non-integral"):
        j = draw(st.integers(0, lat.dim - 1))
        b[-1][j] += 1
    for _ in range(draw(st.integers(0, 6))):
        i, k = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a) - 1))
        if i != k:
            f = draw(st.integers(-3, 3))
            a[i] = [p + f * q for p, q in zip(a[i], a[k])]
            b[i] = [p + f * q for p, q in zip(b[i], b[k])]
    unknowns = [f"X{k}" for k in range(len(a[0]))]
    order = draw(st.permutations(range(len(a))))
    # a zero row of A stays, as a relation without unknowns
    return kind, [Relation.make({name: c for name, c in zip(unknowns, a[r]) if c},
                                lat.divisor(b[r])) for r in order]


def _outcome(solve, relations):
    try:
        return solve(relations)
    except Unsolvable as exc:
        return ("Unsolvable", str(exc), exc.certificate)


@settings(max_examples=400, deadline=None)
@given(linear_systems())
def test_solve_linear_matches_fraction_reference(case):
    kind, relations = case
    got = _outcome(solve_linear, relations)
    assert got == _outcome(reference_solve_linear, relations)
    if kind in ("unique", "underdetermined"):
        assert isinstance(got, LinearSolution)
        assert all(type(c) is Fraction for cls in got.classes.values() for c in cls.coeffs)
        for rel in relations:
            total = rel.rhs.lattice.zero()
            for name, coeff in rel.unknowns:
                total = total + coeff * got.classes[name]
            assert total == rel.rhs
    if kind == "unique":
        assert got.degrees_of_freedom == 0
    if kind == "underdetermined":
        assert got.degrees_of_freedom > 0
    if kind == "inconsistent":
        assert got[0] == "Unsolvable" and " forces 0 == " in got[1]
    if kind == "non-integral":
        assert got[0] == "Unsolvable" and " needs " in got[1]


def test_hodge_index_bound():
    assert hodge_index_bound(7, 3, 1) is True
    assert hodge_index_bound(7, 3, 2) is False
    bound = hodge_index_bound(7, 6)
    assert bound == Fraction(36, 7)
    assert bound.numerator // bound.denominator == 5
    # constraint only binds for positive D^2
    assert hodge_index_bound(7, 0, -2) is True
    with pytest.raises(ValueError):
        hodge_index_bound(0, 1)


def test_hodge_index_bound_on_classes():
    def bound(lat, d):
        k, d = lat.divisor({"K": 1}), lat.divisor({d: 1})
        return hodge_index_bound(k.dot(k), k.dot(d), d.dot(d))

    assert bound(abstract_lattice(["K", "F"], [[7, 3], [3, 1]]), "F") is True
    assert bound(abstract_lattice(["K", "D"], [[7, 3], [3, 2]]), "D") is False


def test_format_class(surface_w):
    lat = surface_w.lattice
    assert format_class(lat.divisor({"L": 2, "E1": -1, "E2p": -2})) == "2L - E1 - 2E2p"
    assert format_class(lat.zero()) == "0"
    assert format_class(lat.divisor({"L": Fraction(1, 2)})) == "(1/2)L"


def test_blowup_lattice_shape():
    lat = blowup_lattice("L", ["E1", "E2"])
    k = lat.canonical_class()
    assert k == lat.divisor({"L": -3, "E1": 1, "E2": 1})
    assert k.dot(k) == 9 - 2
