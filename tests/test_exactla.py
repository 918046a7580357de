"""Rank and determinant against a plain Fraction Gauss-Jordan reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import scw.exactla as exactla
from scw.exactla import PRIME, Packed, det_bareiss, slot_width
from scw.oracle import (FreePoint, Realization, _monomial_exponents, _multiplicity_rows,
                        _residue_rows, h0_from_realization, realization_to_json,
                        realize_configuration)

PROPS = settings(max_examples=100, deadline=None)
RATIONALS = st.integers(-2, 2) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def reference_rank(rows) -> int:
    """Rank over Q by Fraction Gauss-Jordan elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def pack(residues, width: int) -> int:
    """The residues as one int, column j in bits [j*width, (j+1)*width)."""
    x = 0
    for v in reversed(residues):
        x = x << width | v
    return x


def packed(rows) -> Packed:
    """An integer matrix mod PRIME, packed as h^0 packs it."""
    ncols = len(rows[0]) if rows else 0
    width = slot_width(ncols)
    return Packed([pack([x % PRIME for x in row], width) for row in rows], ncols)


def rank(rows) -> int:
    """exactla.rank of an integer matrix, called as h^0 calls it."""
    return exactla.rank(packed(rows), lambda: [list(row) for row in rows])


def rank_mod_p(rows) -> int:
    residues = packed(rows)
    return exactla._rank_mod_p(residues.rows, residues.ncols)


def reference_rank_mod_p(rows) -> int:
    """Rank over Z/PRIME by Gauss elimination on whole rows."""
    m = [[x % PRIME for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, PRIME)
        for i in range(r + 1, len(m)):
            f = m[i][c] * inv % PRIME
            m[i] = [(x - f * y) % PRIME for x, y in zip(m[i], m[r])]
        r += 1
    return r


def reference_det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


@st.composite
def low_rank(draw, entries=st.integers(-6, 6)):
    """A*B with A n x k and B k x c, so the rank is at most k."""
    n, c = draw(st.integers(0, 10)), draw(st.integers(0, 12))
    k = draw(st.integers(0, 6))
    a = [[draw(entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(entries) for _ in range(c)] for _ in range(k)]
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(c)] for i in range(n)]


@st.composite
def zeroed_columns(draw):
    """A low-rank matrix with some columns set to zero."""
    rows = draw(low_rank())
    zero = draw(st.sets(st.integers(0, 11)))
    return [[0 if j in zero else x for j, x in enumerate(row)] for row in rows]


@st.composite
def scaled_rows(draw, factor):
    """A low-rank matrix with some rows scaled by factor and some zeroed."""
    rows = draw(low_rank())
    out = []
    for row in rows:
        how = draw(st.sampled_from(("keep", "scale", "zero")))
        out.append([factor(x, draw) for x in row] if how == "scale"
                   else [0] * len(row) if how == "zero" else row)
    return out


@PROPS
@given(low_rank())
def test_rank_of_low_rank_products(rows):
    assert rank(rows) == reference_rank(rows)


@PROPS
@given(low_rank(st.integers(2**61, 2**70) | st.integers(-(2**70), -(2**61))))
def test_rank_with_entries_beyond_the_prime(rows):
    assert rank(rows) == reference_rank(rows)


@PROPS
@given(scaled_rows(lambda x, draw: x * PRIME ** draw(st.integers(1, 2))))
def test_rank_with_rows_times_the_prime(rows):
    assert rank(rows) == reference_rank(rows)


@settings(max_examples=300, deadline=None)
@given(zeroed_columns() | scaled_rows(lambda x, draw: x * PRIME ** draw(st.integers(1, 2)))
       | low_rank(st.integers(0, PRIME - 1)))
def test_rank_mod_p_matches_whole_row_elimination(rows):
    assert rank_mod_p(rows) == reference_rank_mod_p(rows)


def test_slot_width_holds_every_slot():
    # a slot stays below PRIME + ncols*(PRIME-1)^2 (exactla docstring)
    for ncols in range(1, 4097):
        assert PRIME + ncols * (PRIME - 1) ** 2 < 2 ** slot_width(ncols)


# per-slot edge values of the fold reduction; 2^width - 1 is added per width
EDGES = (0, PRIME - 1, PRIME, 2 * PRIME, 2 * PRIME + 5, 2**31 - 1, PRIME**2)
FOLD_NCOLS = [*range(1, 129), 4096]


def test_fold_reduces_every_slot_exactly():
    for ncols in FOLD_NCOLS:
        width, masks = slot_width(ncols), exactla._fold_masks(ncols)
        edges = EDGES + ((1 << width) - 1,)
        for shift in range(len(edges)):
            slots = [edges[(j + shift) % len(edges)] for j in range(ncols)]
            assert exactla._reduce_slots(pack(slots, width), masks) == pack(
                [v % PRIME for v in slots], width)


def test_one_fold_fewer_leaves_the_widest_slot_unreduced(monkeypatch):
    folds = exactla._folds
    monkeypatch.setattr(exactla, "_folds", lambda width: folds(width) - 1)
    for ncols in FOLD_NCOLS:
        widest = (1 << slot_width(ncols)) - 1
        assert exactla._reduce_slots(widest, exactla._fold_masks(ncols)) != widest % PRIME


@pytest.mark.parametrize("ncols", [31, 32, 63, 64])
def test_rank_mod_p_at_slot_width_steps(ncols):
    # every entry PRIME - 1 = -1 (rank 1), and I - J, its zero-diagonal
    # variant, whose determinant 1 - ncols is a unit, so every column pivots
    full = [[PRIME - 1] * ncols for _ in range(ncols)]
    hollow = [[0 if i == j else PRIME - 1 for j in range(ncols)] for i in range(ncols)]
    for rows in (full, hollow, hollow[1:], [row[1:] for row in hollow]):
        assert rank_mod_p(rows) == reference_rank_mod_p(rows)
    assert rank_mod_p(hollow) == ncols


def test_packed_rows_read_back_as_residue_rows():
    rows = [[0, PRIME - 1, 5], [PRIME - 1] * 3]
    assert list(packed(rows)) == rows
    assert len(packed(rows)) == 2 and len(packed([])) == 0


def test_rank_mod_p_of_the_largest_interpolation_matrix():
    # degree 12, multiplicity 4 at 9 of 10 general points: 90 x 91, rank 90
    realization = realize_configuration([FreePoint(f"p{i}") for i in range(10)], 0)
    monomials = list(_monomial_exponents(12))
    residues = Packed([row for i in range(9)
                       for row in _residue_rows(realization.points[f"p{i}"], 4, 12, monomials)],
                      len(monomials))
    rows = list(residues)
    assert (len(rows), len(monomials)) == (90, 91)
    assert exactla._rank_mod_p(residues.rows, residues.ncols) == reference_rank_mod_p(rows) == 90
    assert rows == [[x % PRIME for x in row] for i in range(9)
                    for row in _multiplicity_rows(realization.points[f"p{i}"], 4, 12, monomials)]
    assert h0_from_realization(realization, 12, {f"p{i}": 4 for i in range(9)}) == 1


@PROPS
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_bareiss_matches_reference(rows):
    assert det_bareiss(rows) == reference_det(rows)


def test_small_cases():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[3, 2], [6, 4]]) == 1
    assert det_bareiss([]) == 1
    assert det_bareiss([[Fraction(1, 2), Fraction(1, 3)], [1, 1]]) == Fraction(1, 6)
    with pytest.raises(ValueError):
        det_bareiss([[1, 2]])


@pytest.fixture
def fallbacks(monkeypatch):
    calls = []
    original = exactla._bareiss

    def counted(a):
        calls.append((len(a), len(a[0]) if a else 0))
        return original(a)

    monkeypatch.setattr(exactla, "_bareiss", counted)
    return calls


@pytest.mark.parametrize("rows, expected", [([[PRIME, 0], [0, 1]], 2), ([[PRIME]], 1)])
def test_prime_dividing_a_maximal_minor_falls_back(fallbacks, rows, expected):
    assert rank(rows) == expected
    assert fallbacks == [(len(rows), len(rows[0]))]


def test_full_rank_interpolation_matrix_needs_no_fallback(fallbacks):
    # degree 9 with multiplicities (3,2,2,2,2,2,1,1,1): a 24 x 55 matrix
    names = [f"p{i}" for i in range(9)]
    realization = realize_configuration([FreePoint(n) for n in names], 0)
    mults = dict(zip(names, (3, 2, 2, 2, 2, 2, 1, 1, 1)))
    assert h0_from_realization(realization, 9, mults) == 55 - 24
    assert fallbacks == []


def test_h0_full_rank_over_q_but_not_mod_the_prime_falls_back(fallbacks):
    # the rows (PRIME, 0, 1) and (0, 0, 1) are independent over Q, not mod PRIME
    realization = Realization(seed=0, points={"a": (PRIME, 0, 1), "b": (0, 0, 1)}, lines={})
    assert h0_from_realization(realization, 1, {"a": 1, "b": 1}) == 1
    assert fallbacks == [(2, 3)]
    # the second query joins cached residue blocks, and still falls back
    assert set(realization.blocks) == {("a", 1, 1), ("b", 1, 1)}
    assert h0_from_realization(realization, 1, {"a": 1, "b": 1}) == 1
    assert fallbacks == [(2, 3), (2, 3)]


POINT_NAMES = [f"p{i}" for i in range(7)]


@st.composite
def h0_queries(draw):
    """A number of general points, a seed, and (degree, multiplicities)
    queries on them: a few multiplicity maps, each at a few degrees, so that
    the same condition recurs at one degree and at others."""
    n = draw(st.integers(1, len(POINT_NAMES)))
    maps = draw(st.lists(st.fixed_dictionaries(
        {name: st.integers(-1, 4) for name in POINT_NAMES[:n]}), min_size=1, max_size=3))
    degrees = draw(st.lists(st.integers(-1, 7), min_size=1, max_size=4))
    queries = [(degree, mults) for mults in maps for degree in degrees]
    return n, draw(st.integers(0, 3)), draw(st.permutations(queries))


@settings(max_examples=60, deadline=None)
@given(h0_queries())
def test_h0_on_a_used_realization_equals_h0_on_a_fresh_one(case):
    n, seed, queries = case
    script = [FreePoint(name) for name in POINT_NAMES[:n]]
    used = realize_configuration(script, seed)
    for degree, mults in queries:
        h0_from_realization(used, degree, mults)
    for degree, mults in reversed(queries):
        fresh = realize_configuration(script, seed)
        assert h0_from_realization(used, degree, mults) == h0_from_realization(
            fresh, degree, mults)


def test_cached_blocks_are_the_residue_rows_after_rank():
    realization = realize_configuration([FreePoint(name) for name in POINT_NAMES], 0)
    for degree in range(1, 8):
        for k in range(len(POINT_NAMES)):
            h0_from_realization(realization, degree, {
                name: (i + k) % (degree + 1) for i, name in enumerate(POINT_NAMES)})
    assert len(realization.blocks) > 50
    for (name, mult, degree), block in realization.blocks.items():
        monomials = list(_monomial_exponents(degree))
        exact = _multiplicity_rows(realization.points[name], mult, degree, monomials)
        assert list(Packed(block, len(monomials))) == [[x % PRIME for x in row] for row in exact]


def test_realization_equality_and_export_ignore_the_row_blocks():
    script = [FreePoint(name) for name in POINT_NAMES[:4]]
    used, fresh = realize_configuration(script, 5), realize_configuration(script, 5)
    h0_from_realization(used, 3, dict.fromkeys(POINT_NAMES[:4], 2))
    assert used.blocks and not fresh.blocks
    assert used == fresh
    assert repr(used) == repr(fresh)
    assert realization_to_json(used) == realization_to_json(fresh)


COORDS = (st.integers(-(2**70), 2**70) | st.integers(2**30, 2**40)
          | st.integers(-3, 3).map(lambda k: k * PRIME) | st.integers(-9, 9))


@PROPS
@given(st.tuples(COORDS, COORDS, COORDS), st.integers(1, 12))
def test_residue_rows_are_the_exact_rows_mod_the_prime(point, degree):
    monomials = list(_monomial_exponents(degree))
    bound = 1 << slot_width(len(monomials)) * len(monomials)
    for mult in range(1, degree + 1):
        exact = _multiplicity_rows(point, mult, degree, monomials)
        block = _residue_rows(point, mult, degree, monomials)
        assert all(row < bound for row in block)
        assert list(Packed(block, len(monomials))) == [[x % PRIME for x in row] for row in exact]
