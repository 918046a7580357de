"""Finite abelian groups as products of cyclic factors.

Elements and characters are residue tuples.  A character pairs with an
element through the exponent sum(a_j * b_j / n_j) mod 1, kept as an exact
Fraction, so root-of-unity values never touch floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

Element = tuple[int, ...]
Character = tuple[int, ...]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    orders: tuple[int, ...]

    def __post_init__(self):
        if any(n < 1 for n in self.orders):
            raise ValueError("cyclic factor orders must be positive")

    @property
    def order(self) -> int:
        return prod(self.orders) if self.orders else 1

    @property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1

    def identity(self) -> Element:
        return (0,) * len(self.orders)

    def reduce(self, a) -> Element:
        return tuple(x % n for x, n in zip(a, self.orders))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def element_order(self, a: Element) -> int:
        return lcm(*(n // gcd(x, n) for x, n in zip(a, self.orders))) if self.orders else 1

    def elements(self) -> list[Element]:
        return [tuple(e) for e in itertools.product(*(range(n) for n in self.orders))]

    def characters(self) -> list[Character]:
        # the dual group has the same invariant factors
        return self.elements()

    def char_exponent(self, chi: Character, a: Element) -> Fraction:
        """chi(a) = exp(2*pi*i*q); returns q as a Fraction in [0, 1)."""
        q = sum(Fraction(c * x, n) for c, x, n in zip(chi, a, self.orders))
        return q - (q.numerator // q.denominator)

    def char_is_trivial_on(self, chi: Character, subset) -> bool:
        return all(self.char_exponent(chi, a) == 0 for a in subset)

    def subgroup_closure(self, gens) -> frozenset[Element]:
        out = {self.identity()}
        frontier = [self.identity()]
        gens = [self.reduce(g) for g in gens]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.add(x, g)
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return frozenset(out)


def all_subgroups(group: FiniteAbelianGroup) -> list[frozenset[Element]]:
    """Every subgroup, by growing closures one generator at a time."""
    found = {frozenset({group.identity()})}
    frontier = list(found)
    elems = group.elements()
    while frontier:
        sub = frontier.pop()
        for x in elems:
            if x in sub:
                continue
            bigger = group.subgroup_closure(list(sub) + [x])
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def is_elementary_abelian_2(group: FiniteAbelianGroup, subgroup) -> bool:
    return all(group.element_order(a) <= 2 for a in subgroup)


def subgroups_of_order(group: FiniteAbelianGroup, n: int, elementary_only: bool = False):
    """Complete duplicate-free list of order-n subgroups, each a sorted tuple."""
    if group.order % n != 0:
        raise ValueError(f"{n} does not divide the group order {group.order}")
    subs = [s for s in all_subgroups(group) if len(s) == n]
    if elementary_only:
        subs = [s for s in subs if is_elementary_abelian_2(group, s)]
    return [tuple(sorted(s)) for s in subs]


def pairwise_common_involution(group: FiniteAbelianGroup, subgroups) -> bool:
    """True iff every pair of the given subgroups shares an order-2 element."""
    subs = [frozenset(s) for s in subgroups]
    for s1, s2 in itertools.combinations(subs, 2):
        common = s1 & s2
        if not any(group.element_order(a) == 2 for a in common):
            return False
    return True


@dataclass(frozen=True)
class CyclicPair:
    """A cyclic subgroup C = <generator> with a faithful character phi on it.

    phi(generator) = exp(2*pi*i*exponent/order(generator)); faithfulness is
    gcd(exponent, order) = 1.
    """

    group: FiniteAbelianGroup
    generator: Element
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "generator", self.group.reduce(self.generator))
        m = self.order
        if m == 1:
            raise ValueError("the cyclic subgroup must be nontrivial")
        if gcd(self.exponent % m, m) != 1:
            raise ValueError("character must be faithful on the subgroup")

    @property
    def order(self) -> int:
        return self.group.element_order(self.generator)

    def subgroup(self) -> frozenset[Element]:
        return self.group.subgroup_closure([self.generator])


def restriction_level(pair: CyclicPair, chi: Character) -> int:
    """The unique f in [0, order) with chi|_C = phi^f.

    Determined on the generator: chi(gen) = phi(gen)^f, solved exactly in
    the exponent ring Z/order.
    """
    m = pair.order
    q = pair.group.char_exponent(chi, pair.generator)
    # q = t/m with t integral because gen has order m
    t = q * m
    if t.denominator != 1:
        raise ValueError("character exponent incompatible with the subgroup order")
    return (int(t) * pow(pair.exponent, -1, m)) % m
