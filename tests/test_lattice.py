from fractions import Fraction

import pytest

from scw.lattice import (LatticeMismatch, NotDivisible, Relation, Unsolvable,
                         abstract_lattice, adjunction_genus, blowup_lattice,
                         format_class, gram_det, hodge_index_bound,
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
    assert err.value.certificate is not None


def test_solve_linear_underdetermined(surface_w):
    lat = surface_w.lattice
    sol = solve_linear([Relation.make({"X": 1, "Y": 1}, lat.divisor({"L": 2}))])
    assert sol.degrees_of_freedom == 1
    assert sol.classes["X"] + sol.classes["Y"] == lat.divisor({"L": 2})


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
