import itertools
from fractions import Fraction

import pytest

from scw.groups import (CyclicPair, FiniteAbelianGroup, all_subgroups,
                        is_elementary_abelian_2, pairwise_common_involution,
                        restriction_level, subgroups_of_order)

Z2Z2 = FiniteAbelianGroup((2, 2))
Z2Z4 = FiniteAbelianGroup((2, 4))
Z222 = FiniteAbelianGroup((2, 2, 2))


def brute_force_subgroups(group):
    """Subset-closure oracle: every subset containing the identity whose
    size divides |G| and which is closed under the operation."""
    elems = group.elements()
    ident = group.identity()
    others = [e for e in elems if e != ident]
    found = set()
    for size in [d for d in range(1, len(elems) + 1) if len(elems) % d == 0]:
        for combo in itertools.combinations(others, size - 1):
            subset = frozenset(combo) | {ident}
            if all(group.add(a, b) in subset for a in subset for b in subset):
                found.add(subset)
    return found


@pytest.mark.parametrize("orders", [(2, 2), (2, 4), (2, 2, 2), (8,), (4, 4), (16,), (3, 3),
                                    (), (6,), (2, 2, 4)])
def test_subgroup_enumeration_matches_brute_force(orders):
    # the coset sweep must reach every subgroup, and the list order (by
    # order, then by sorted elements) must not depend on the search order
    group = FiniteAbelianGroup(orders)
    expected = sorted(brute_force_subgroups(group), key=lambda s: (len(s), sorted(s)))
    assert all_subgroups(group) == expected


@pytest.mark.parametrize("orders, total", [
    ((2, 2, 2), 16),  # 1 + 7 + 7 + 1: as many order-4 as order-2 subgroups, by duality
    ((2, 4), 8),      # 1 + 3 + 3 (two cyclic, one Z2^2) + 1
    ((4, 4), 15),     # 1 + 3 + 7 + 3 + 1
    ((3, 3), 6),      # p + 3 for Z_p^2: the trivial group, p + 1 lines, the whole group
])
def test_subgroup_totals_in_closed_form(orders, total):
    assert len(all_subgroups(FiniteAbelianGroup(orders))) == total


def test_subgroup_counts():
    assert len(subgroups_of_order(Z222, 4)) == 7
    assert len(subgroups_of_order(Z2Z2, 2)) == 3
    assert len(subgroups_of_order(Z2Z4, 4, elementary_only=True)) == 1


def test_unique_elementary_subgroup_of_z2z4():
    (sub,) = subgroups_of_order(Z2Z4, 4, elementary_only=True)
    assert set(sub) == {(0, 0), (1, 0), (0, 2), (1, 2)}
    assert is_elementary_abelian_2(Z2Z4, sub)


def test_pairwise_common_involution():
    subs = subgroups_of_order(Z222, 4)
    assert pairwise_common_involution(Z222, subs) is True
    disjoint = [((0, 0), (1, 0)), ((0, 0), (0, 1))]
    assert pairwise_common_involution(Z2Z2, disjoint) is False
    assert pairwise_common_involution(Z2Z2, [disjoint[0]]) is True  # vacuous


def brute_force_level(pair, chi):
    group = pair.group
    m = pair.order
    target = group.char_exponent(chi, pair.generator)
    for f in range(m):
        if (Fraction(pair.exponent * f, m) % 1) == target:
            return f
    raise AssertionError("no restriction level found")


def test_restriction_levels():
    # the order-4 generator with character value exp(2*pi*i*3/4)
    pair_neg_i = CyclicPair(Z2Z4, (0, 1), 3)
    rho = (0, 1)
    assert restriction_level(pair_neg_i, rho) == 3
    pair_g2 = CyclicPair(Z2Z4, (0, 2), 1)
    assert restriction_level(pair_g2, rho) == 1
    trivial = (0, 0)
    assert restriction_level(pair_neg_i, trivial) == 0
    assert restriction_level(pair_g2, trivial) == 0


def test_restriction_level_brute_force_agreement():
    pairs = [CyclicPair(Z2Z4, gen, e)
             for gen in [(1, 0), (0, 1), (0, 2), (1, 2), (1, 1)]
             for e in ([1, 3] if Z2Z4.element_order(gen) == 4 else [1])]
    for pair in pairs:
        for chi in Z2Z4.characters():
            assert restriction_level(pair, chi) == brute_force_level(pair, chi)


def test_restriction_level_additive():
    pairs = [CyclicPair(Z2Z4, (0, 1), 1), CyclicPair(Z2Z4, (0, 1), 3),
             CyclicPair(Z2Z4, (1, 1), 1), CyclicPair(Z2Z4, (1, 0), 1),
             CyclicPair(Z2Z4, (1, 2), 1), CyclicPair(Z2Z4, (0, 2), 1)]
    for pair in pairs:
        m = pair.order
        for a in Z2Z4.characters():
            for b in Z2Z4.characters():
                fa = restriction_level(pair, a)
                fb = restriction_level(pair, b)
                fab = restriction_level(pair, Z2Z4.add(a, b))
                assert fab == (fa + fb) % m


@pytest.mark.parametrize("orders", [(2,), (2, 2), (4,), (2, 4), (8,), (2, 2, 2)])
def test_character_orthogonality(orders):
    """sum over the group of chi(h) vanishes for nontrivial chi: the value
    exponents hit every residue k/m equally often (exact root-of-unity
    balance, no floats)."""
    group = FiniteAbelianGroup(orders)
    for chi in group.characters():
        if chi == group.identity():
            continue
        m = group.element_order(chi)
        tally: dict[Fraction, int] = {}
        for h in group.elements():
            q = group.char_exponent(chi, h)
            tally[q] = tally.get(q, 0) + 1
        assert set(tally) == {Fraction(k, m) for k in range(m)}
        assert len(set(tally.values())) == 1


def test_cyclic_pair_validation():
    with pytest.raises(ValueError):
        CyclicPair(Z2Z4, (0, 1), 2)  # not faithful on Z4
    with pytest.raises(ValueError):
        CyclicPair(Z2Z4, (0, 0), 1)  # trivial subgroup


def test_element_orders():
    assert Z2Z4.element_order((0, 1)) == 4
    assert Z2Z4.element_order((1, 2)) == 2
    assert Z2Z4.exponent == 4
    assert Z222.order == 8
