import itertools

import pytest

from scw.lattice import gram_det
from scw.lefschetz import (NAMED_CONSTRAINTS, case_gram, diophantine_enumerate,
                           involution_counts, involution_from_counts, involution_profile,
                           involution_range_filter, order3_counts, order3_profile,
                           theorem11_consistency)


@pytest.mark.parametrize("kr, r2, expected", [
    (3, 1, (7, 1)),
    (-1, -1, (3, 3)),
    (5, -1, (9, 3)),
])
def test_involution_counts(kr, r2, expected):
    assert involution_counts(kr, r2) == expected


def test_involution_round_trip():
    for kr in range(-3, 8):
        for r2 in range(-4, 3):
            k, tr = involution_counts(kr, r2)
            assert involution_from_counts(k, tr) == (kr, r2)


def test_fixed_point_profiles():
    prof = involution_profile(3, 1)
    assert (prof.order, prof.isolated, prof.tr) == (2, (7,), 1)
    prof3 = order3_profile(2, -2, 3)
    assert prof3 is not None
    assert (prof3.order, prof3.isolated) == (3, (0, 5))
    assert order3_profile(1, 0, 0) is None


@pytest.mark.parametrize("kr, r2, tr, expected", [
    (2, -2, 3, (0, 5)),
    (0, 0, 4, (6, 0)),
    (1, 0, 0, None),       # half-integral system
    (10, 2, -20, None),    # negative counts
])
def test_order3_counts(kr, r2, tr, expected):
    assert order3_counts(kr, r2, tr) == expected


def test_range_filter():
    assert involution_range_filter(7) == [1, 3, 5, 7]
    assert involution_range_filter(7, r2=1) == [3, 5, 7]
    assert involution_range_filter(7, r2=1, exclude=(5, 7)) == [3]
    assert involution_range_filter(7, r2=-1) == [1, 3, 5, 7]
    for kr in involution_range_filter(7):
        k, _tr = involution_counts(kr, 1)
        assert k % 2 == 1 and k <= 11
    with pytest.raises(ValueError):
        involution_range_filter(0)


def test_diophantine_named_constraints():
    assert diophantine_enumerate("commuting-cubic") == [(0, 1)]
    solutions = diophantine_enumerate("ample-obstruction-det")
    admissible = set(involution_range_filter(7))
    assert [s for s in solutions if s[0] in admissible] == []
    assert diophantine_enumerate("pencil-part-det") == [(-1,)]
    # the near-miss: at K.R = 7 the remaining equation needs b^2 = 12
    assert [b for b in range(-4, 5) if 7 * b * b == 84] == []


def test_diophantine_matches_double_loop_oracle():
    for name, (_vars, fn, box, target) in NAMED_CONSTRAINTS.items():
        got = set(diophantine_enumerate(name))
        keys = sorted(box)
        brute = {
            combo
            for combo in itertools.product(*(tuple(box[k]) for k in keys))
            if fn(*combo) in set(target)
        }
        assert got == brute, name


def test_diophantine_box_and_target_override_the_registry():
    # -2a - 1 is odd, so no a meets the target 0; the registry's default
    # target (-1, 1) must not stand in for it
    assert diophantine_enumerate("pencil-part-det", target=(0,)) == []
    assert diophantine_enumerate("pencil-part-det", target=(1, 5)) == [(-1,), (-3,)]
    assert diophantine_enumerate("pencil-part-det", box={"a": range(-1, 2)}) == [(-1,), (0,)]


def test_det_closed_form_over_box():
    for a in range(-7, 8):
        for b in range(-4, 5):
            assert gram_det([[7, a, 0], [a, 1, b], [0, b, -2]]) == -14 + 2 * a * a - 7 * b * b


def test_theorem11_cases_pass(case_table):
    assert sorted(case_table) == ["a", "b", "c"]
    for case, (kr, rr) in case_table.items():
        checks = theorem11_consistency(case, kr, rr)
        assert all(c.status == "pass" for c in checks), case
        assert gram_det(case_gram(7, kr, rr)) == 0


def test_theorem11_known_mutation_fails(case_table):
    checks = theorem11_consistency("a", kr=(7, 5, 4), rr=case_table["a"][1])
    assert any(c.status == "fail" for c in checks)


def test_theorem11_every_single_entry_mutation_fails(case_table):
    for case, (kr, rr) in case_table.items():
        for which in ("kr", "rr"):
            base = kr if which == "kr" else rr
            for i in range(3):
                for delta in (-2, -1, 1, 2):
                    mutated = list(base)
                    mutated[i] += delta
                    nkr = tuple(mutated) if which == "kr" else kr
                    nrr = tuple(mutated) if which == "rr" else rr
                    checks = theorem11_consistency(case, kr=nkr, rr=nrr)
                    assert any(c.status == "fail" for c in checks), (case, which, i, delta)
