"""Fixed-point bookkeeping for involutions and order-3 automorphisms.

The module never models automorphisms themselves, only the numerical
profiles (K.R, R^2, trace on H^2) and the finite enumerations the case
analysis reduces to: admissible ranges for K.R, intersection-matrix
determinants, and small Diophantine constraints solved exhaustively over
boxes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .lattice import gram_det, hodge_index_bound
from .report import Check, equality_check

K_ISOLATED_MAX = 11  # the isolated fixed-point count of an involution here is odd and <= 11


@dataclass(frozen=True)
class FixedPointProfile:
    order: int
    kr: int
    r2: int
    tr: int
    isolated: tuple[int, ...]  # (k,) for involutions, (r1, r2) for order 3


def involution_counts(kr: int, r2: int) -> tuple[int, int]:
    """(isolated fixed points, trace on H^2) of an involution: (K.R + 4, 2 - R^2)."""
    return kr + 4, 2 - r2


def involution_profile(kr: int, r2: int) -> FixedPointProfile:
    k, tr = involution_counts(kr, r2)
    return FixedPointProfile(order=2, kr=kr, r2=r2, tr=tr, isolated=(k,))


def involution_from_counts(k: int, tr: int) -> tuple[int, int]:
    """Invert involution_counts: (K.R, R^2) = (k - 4, 2 - tr)."""
    return k - 4, 2 - tr


def order3_counts(kr: int, r2: int, tr: int) -> tuple[int, int] | None:
    """Numbers (r1, r2) of isolated fixed points of each type for an
    order-3 automorphism, or None when the 2x2 system is infeasible
    (non-integral or negative), which is itself a usable contradiction.

    System: r1 + r2 = tr + 2 + K.R + R^2 and r1 + 2*r2 = 6 + 3*K.R/2 - R^2/2.
    """
    total = Fraction(tr + 2 + kr + r2)
    weighted = 6 + Fraction(3 * kr, 2) - Fraction(r2, 2)
    r2_count = weighted - total
    r1_count = 2 * total - weighted
    if r1_count.denominator != 1 or r2_count.denominator != 1:
        return None
    if r1_count < 0 or r2_count < 0:
        return None
    return int(r1_count), int(r2_count)


def order3_profile(kr: int, r2: int, tr: int) -> FixedPointProfile | None:
    counts = order3_counts(kr, r2, tr)
    if counts is None:
        return None
    return FixedPointProfile(order=3, kr=kr, r2=r2, tr=tr, isolated=counts)


def involution_range_filter(k2: int, r2: int | None = None, exclude=()) -> list[int]:
    """Admissible K.R values for an involution on a surface with the given
    K^2: K.R >= 1 with K.R + 4 odd and <= the isolated-point bound; the
    optional R^2 applies the index-theorem filter of `hodge_index_bound`."""
    if k2 <= 0:
        raise ValueError("requires K^2 > 0")
    out = []
    for kr in range(1, K_ISOLATED_MAX - 4 + 1):
        if (kr + 4) % 2 == 0:
            continue
        if r2 is not None and not hodge_index_bound(k2, kr, r2):
            continue
        if kr in exclude:
            continue
        out.append(kr)
    return out


NAMED_CONSTRAINTS = {
    # det of the intersection matrix of three pairwise-conjugate (-1)-profiles
    "commuting-cubic": (
        ("x", "y"),
        lambda x, y: 2 * x * x * y + 2 * x * x + y * y - 1,
        {"x": range(0, 21), "y": range(0, 21)},
        (0,),
    ),
    # det of the matrix of K, R, C for K^2=7, R^2=1, C^2=-2, K.C=0
    "ample-obstruction-det": (
        ("a", "b"),
        lambda a, b: -14 + 2 * a * a - 7 * b * b,
        {"a": range(0, 8), "b": range(0, 5)},
        (0,),
    ),
    # det of K, F, A2 for K^2=7, F^2=1, K.F=3, F.A2=0, K.A2=1: unimodularity
    "pencil-part-det": (
        ("a",),
        lambda a: -2 * a - 1,
        {"a": (-1, -3)},
        (-1, 1),
    ),
}


def diophantine_enumerate(constraint: str, box=None, target=None) -> list[tuple[int, ...]]:
    """Exhaustive exact enumeration of integer solutions in a finite box.

    `constraint` names an entry of NAMED_CONSTRAINTS; `box` (variable name
    -> iterable of values) and `target` (the accepted values) default to
    the registry's.
    """
    names, fn, default_box, default_target = NAMED_CONSTRAINTS[constraint]
    box = default_box if box is None else box
    target_set = set(default_target if target is None else target)
    values = [tuple(box[n]) for n in names]
    out = []
    for combo in itertools.product(*values):
        if fn(*combo) in target_set:
            out.append(combo)
    return out


def case_gram(k2: int, kr: tuple[int, int, int], rr: tuple[int, int, int]):
    """Gram matrix of (K, R_1, R_2, R_3) with R_i^2 = -1."""
    r12, r13, r23 = rr
    return [
        [k2, kr[0], kr[1], kr[2]],
        [kr[0], -1, r12, r13],
        [kr[1], r12, -1, r23],
        [kr[2], r13, r23, -1],
    ]


def theorem11_consistency(case: str, kr, rr, k2: int = 7) -> list[Check]:
    """Consistency checks for one commuting-involution case, labelled `case`,
    with intersection numbers kr = (K.R_1, K.R_2, K.R_3) and
    rr = (R_1R_2, R_1R_3, R_2R_3).

    Each K.R must lie in the admissible involution range, each profile has
    R^2 = -1 (so trace 3) with an odd isolated count <= 11, all pairwise
    sums satisfy adjunction parity, and the four classes K, R_1, R_2, R_3
    must be linearly dependent in the rank-3 lattice, i.e. their Gram
    matrix is singular.
    """
    checks = []
    admissible = set(involution_range_filter(k2))
    for i, kri in enumerate(kr, start=1):
        k, tr = involution_counts(kri, -1)
        checks.append(equality_check(
            f"case-{case}/KR{i}-admissible", kri in admissible, True, tag="involution-range"))
        checks.append(equality_check(
            f"case-{case}/k{i}-odd-bounded", k % 2 == 1 and k <= K_ISOLATED_MAX, True,
            tag="fixed-point-count"))
        checks.append(equality_check(f"case-{case}/trace{i}", tr, 3, tag="trace"))
    pairs = [(0, 1, rr[0]), (0, 2, rr[1]), (1, 2, rr[2])]
    for i, j, rij in pairs:
        # (R_i + R_j)^2 + K.(R_i + R_j) must be even
        parity = (-2 + 2 * rij + kr[i] + kr[j]) % 2
        checks.append(equality_check(
            f"case-{case}/parity-R{i+1}+R{j+1}", parity, 0, tag="adjunction-parity"))
        # distinct fixed-part divisors share no component, so R_i.R_j >= 0
        checks.append(equality_check(
            f"case-{case}/nonneg-R{i+1}R{j+1}", rij >= 0, True, tag="effective-pairing"))
    det = gram_det(case_gram(k2, tuple(kr), tuple(rr)))
    checks.append(equality_check(
        f"case-{case}/gram-rank-deficient", det, Fraction(0), tag="picard-rank"))
    return checks
