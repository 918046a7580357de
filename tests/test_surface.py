import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scw import oracle
from scw.lattice import DivisorClass, LatticeMismatch, format_class
from scw.oracle import FreePoint, LineThrough, PointOnLine, SeedDisagreement, SeedPolicy
from scw.surface import (KIND_MINUS_ONE, KIND_MINUS_TWO, KIND_OTHER, CurveRecord,
                         Pencil, SurfaceError, _candidate_multiplicity_vectors,
                         _candidate_vectors, _candidates, _class_of, build_surface, catalog_negative_curves, contract,
                         find_pencils, isolated_minus_one_curves, minus_one_curves,
                         minus_two_curves, singular_members)


def classes(surface, records):
    return {r.cls.coeffs for r in records}


def cls_of(surface, mapping):
    return surface.lattice.divisor(mapping)


def test_empty_script():
    s = build_surface([], [])
    assert s.lattice.names == ("L",)
    assert s.canonical == s.lattice.divisor({"L": -3})
    assert s.k_squared() == 9


def test_single_point_blowup():
    s = build_surface([FreePoint("p")], [("p", "E1")])
    assert minus_two_curves(s) == []
    ones = minus_one_curves(s)
    assert classes(s, ones) == {cls_of(s, {"E1": 1}).coeffs}
    pencils = find_pencils(s)
    assert {p.cls.coeffs for p in pencils} == {cls_of(s, {"L": 1, "E1": -1}).coeffs}


def test_build_surface_errors(surface_w):
    with pytest.raises(SurfaceError):
        build_surface([FreePoint("p")], [("q", "E1")])
    with pytest.raises(SurfaceError):
        build_surface([FreePoint("p")], [("p", "E1"), ("p", "E2")])
    with pytest.raises(SurfaceError):
        build_surface([FreePoint("p"), FreePoint("q")], [("p", "E1"), ("q", "E1")])
    with pytest.raises(SurfaceError):
        build_surface([FreePoint("p")], [("p", "L")])


def test_w_catalog(surface_w):
    assert surface_w.lattice.names == ("L", "E1", "E2", "E3", "E1p", "E2p", "E3p")
    twos = minus_two_curves(surface_w)
    expected = {
        cls_of(surface_w, {"L": 1, "E1": -1, "E2p": -1, "E3p": -1}).coeffs,
        cls_of(surface_w, {"L": 1, "E2": -1, "E1p": -1, "E3p": -1}).coeffs,
        cls_of(surface_w, {"L": 1, "E3": -1, "E1p": -1, "E2p": -1}).coeffs,
        cls_of(surface_w, {"L": 1, "E1": -1, "E2": -1, "E3": -1}).coeffs,
    }
    assert classes(surface_w, twos) == expected
    gammas = {
        cls_of(surface_w, {"L": 1, "E1": -1, "E1p": -1}).coeffs,
        cls_of(surface_w, {"L": 1, "E2": -1, "E2p": -1}).coeffs,
        cls_of(surface_w, {"L": 1, "E3": -1, "E3p": -1}).coeffs,
    }
    assert classes(surface_w, isolated_minus_one_curves(surface_w)) == gammas
    assert len(minus_one_curves(surface_w)) == 9


def test_y_catalog(surface_y):
    twos = minus_two_curves(surface_y)
    assert len(twos) == 6
    names = {r.name for r in twos}
    assert names == {
        "L-Q-Q1-Q1p", "L-Q-Q2-Q2p", "L-Q-Q3-Q3p",
        "L-Q2-Q3-Q1p", "L-Q1-Q3-Q2p", "L-Q1-Q2-Q3p",
    }
    # the three transforms of the joining lines survive as (-1)-curves
    ones = {r.name for r in minus_one_curves(surface_y)}
    assert {"L-Q2p-Q3p", "L-Q1p-Q3p", "L-Q1p-Q2p"} <= ones
    assert len(ones) == 10


def test_catalog_invariants(surface_w, surface_y):
    for surface in (surface_w, surface_y):
        k = surface.canonical
        for rec in surface.catalog():
            c2 = rec.cls.dot(rec.cls)
            kc = k.dot(rec.cls)
            assert c2 + kc == -2  # rational curves
            assert (c2 + kc) % 2 == 0
            assert rec.genus == 0
            assert rec.kind in (KIND_MINUS_ONE, KIND_MINUS_TWO)


def test_curve_record_kind_invariants_are_enforced(surface_w):
    e1 = surface_w.lattice.exceptional("E1")
    fields = dict(name="E1", cls=e1, genus=Fraction(0), provenance="test")
    CurveRecord(self_int=-1, k_degree=-1, kind=KIND_MINUS_ONE, **fields)
    CurveRecord(self_int=-3, k_degree=1, kind=KIND_OTHER, **fields)
    # a check kept in an assert would vanish under python -O
    with pytest.raises(SurfaceError, match="minus-two curve has"):
        CurveRecord(self_int=-1, k_degree=-1, kind=KIND_MINUS_TWO, **fields)
    with pytest.raises(SurfaceError, match="minus-one curve has"):
        CurveRecord(self_int=-2, k_degree=0, kind=KIND_MINUS_ONE, **fields)
    with pytest.raises(SurfaceError):
        CurveRecord(self_int=-1, k_degree=-1, kind=KIND_MINUS_ONE,
                    **{**fields, "genus": Fraction(1)})


def test_catalog_stable_across_seeds(z2z4_wb):
    from scw.workbench import Workbench, load_bundled

    fresh = Workbench(load_bundled("inoue_z2z4.json"), seed=333)
    y0 = z2z4_wb.surface("Y")
    y1 = fresh.surface("Y")
    assert classes(y0, y0.catalog()) == classes(y1, y1.catalog())
    assert {p.cls.coeffs for p in find_pencils(y0)} == {p.cls.coeffs for p in find_pencils(y1)}


def test_pencils(surface_w, surface_y):
    w_pencils = {p.cls.coeffs for p in find_pencils(surface_w)}
    f_classes = [
        {"L": 2, "E2": -1, "E3": -1, "E2p": -1, "E3p": -1},
        {"L": 2, "E1": -1, "E3": -1, "E1p": -1, "E3p": -1},
        {"L": 2, "E1": -1, "E2": -1, "E1p": -1, "E2p": -1},
    ]
    for m in f_classes:
        assert cls_of(surface_w, m).coeffs in w_pencils
    y_pencils = {p.cls.coeffs for p in find_pencils(surface_y)}
    for m in [
        {"L": 2, "Q": -1, "Q1": -1, "Q2": -1, "Q3": -1},
        {"L": 2, "Q": -1, "Q1": -1, "Q2p": -1, "Q3p": -1},
        {"L": 2, "Q": -1, "Q2": -1, "Q3p": -1, "Q1p": -1},
        {"L": 2, "Q": -1, "Q3": -1, "Q1p": -1, "Q2p": -1},
    ]:
        assert cls_of(surface_y, m).coeffs in y_pencils


def test_distinct_pencils_meet_positively(surface_w, surface_y):
    for surface in (surface_w, surface_y):
        pencils = find_pencils(surface)
        for p1, p2 in itertools.combinations(pencils, 2):
            assert p1.cls.dot(p2.cls) > 0


def _member_sets(surface, pencil_map):
    pencil = Pencil(surface.lattice.divisor(pencil_map))
    decomps = singular_members(surface, pencil)
    return {tuple(sorted((rec.name, mult) for rec, mult in parts)) for parts in decomps}, decomps


def test_singular_members_w(surface_w):
    got, decomps = _member_sets(
        surface_w, {"L": 2, "E1": -1, "E3": -1, "E1p": -1, "E3p": -1})
    assert got == {
        (("L-E1-E1p", 1), ("L-E3-E3p", 1)),
        (("E2p", 2), ("L-E1-E2p-E3p", 1), ("L-E3-E1p-E2p", 1)),
        (("E2", 2), ("L-E1-E2-E3", 1), ("L-E2-E1p-E3p", 1)),
    }
    f = surface_w.lattice.divisor({"L": 2, "E1": -1, "E3": -1, "E1p": -1, "E3p": -1})
    for parts in decomps:
        total = surface_w.lattice.zero()
        for rec, mult in parts:
            assert f.dot(rec.cls) == 0
            total = total + mult * rec.cls
        assert total == f
        for (r1, _), (r2, _) in itertools.combinations(parts, 2):
            assert r1.cls.dot(r2.cls) >= 0


def test_singular_members_y(surface_y):
    got_phi, _ = _member_sets(surface_y, {"L": 2, "Q": -1, "Q1": -1, "Q2": -1, "Q3": -1})
    assert got_phi == {
        (("L-Q-Q1-Q1p", 1), ("L-Q2-Q3-Q1p", 1), ("Q1p", 2)),
        (("L-Q-Q2-Q2p", 1), ("L-Q1-Q3-Q2p", 1), ("Q2p", 2)),
        (("L-Q-Q3-Q3p", 1), ("L-Q1-Q2-Q3p", 1), ("Q3p", 2)),
    }
    got_phi1, _ = _member_sets(surface_y, {"L": 2, "Q": -1, "Q1": -1, "Q2p": -1, "Q3p": -1})
    assert got_phi1 == {
        (("L-Q-Q1-Q1p", 1), ("L-Q2p-Q3p", 1), ("Q1p", 1)),
        (("L-Q-Q2-Q2p", 1), ("L-Q1-Q2-Q3p", 1), ("Q2", 2)),
        (("L-Q-Q3-Q3p", 1), ("L-Q1-Q3-Q2p", 1), ("Q3", 2)),
    }


def reference_singular_members(surface, pencil, degree_bound=3):
    """`singular_members` as it was written on DivisorClass arithmetic."""
    f = pencil.cls
    catalog = surface.catalog(degree_bound)
    orth = [r for r in catalog if f.dot(r.cls) == 0]
    positive = [r for r in orth if r.cls.coeffs[0] > 0]
    exceptional = {r.cls.coeffs: r for r in orth if r.cls.coeffs[0] == 0}
    degree = int(f.coeffs[0])

    decomps = []
    seen = set()

    def close_with_exceptionals(chosen):
        rest = f
        for rec, mult in chosen:
            rest = rest - mult * rec.cls
        parts = dict(chosen)
        for sym in surface.lattice.exceptional_names:
            c = rest.coeff(sym)
            if c == 0:
                continue
            if c < 0 or c.denominator != 1:
                return
            e_cls = surface.lattice.exceptional(sym)
            rec = exceptional.get(e_cls.coeffs)
            if rec is None:
                return
            parts[rec] = int(c)
            rest = rest - int(c) * e_cls
        if not rest.is_zero:
            return
        key = tuple(sorted((r.name, m) for r, m in parts.items()))
        if key not in seen:
            seen.add(key)
            decomps.append(tuple(sorted(parts.items(), key=lambda kv: kv[0].name)))

    def rec_choose(idx, remaining_degree, chosen):
        if remaining_degree == 0:
            close_with_exceptionals(chosen)
            return
        if idx == len(positive):
            return
        curve = positive[idx]
        d_c = int(curve.cls.coeffs[0])
        for mult in range(remaining_degree // d_c, -1, -1):
            rec_choose(idx + 1, remaining_degree - mult * d_c,
                       chosen + ([(curve, mult)] if mult else []))

    rec_choose(0, degree, [])
    decomps.sort(key=lambda parts: tuple((r.name, m) for r, m in parts))
    return decomps


def reference_find_pencils(surface, degree_bound=3):
    """`find_pencils` as it was written on DivisorClass arithmetic, with the
    number of candidates its negativity filter rejected."""
    catalog = surface.catalog(degree_bound)
    out = []
    rejected = 0
    candidates = (cand for degree in range(1, degree_bound + 1)
                  for cand in _candidates(surface, degree, 0))
    for cand in candidates:
        if any(cand.dot(rec.cls) < 0 for rec in catalog):
            rejected += 1
            continue
        if surface.h0(cand) != 2:
            continue
        out.append(Pencil(cls=cand))
    return out, rejected


def reference_catalog(surface, degree_bound=3):
    """`catalog_negative_curves` as it was written with the negativity scan
    before the section count."""
    records = [CurveRecord(sym, surface.lattice.exceptional(sym), -1, -1, Fraction(0),
                           KIND_MINUS_ONE, f"exceptional curve over {surface.point_of_symbol[sym]}")
               for sym in surface.lattice.exceptional_names]
    candidates = (cand for degree in range(1, degree_bound + 1) for self_int in (-2, -1)
                  for cand in _candidates(surface, degree, self_int))
    for cand in candidates:
        if any(cand.dot(rec.cls) < 0 for rec in records):
            continue
        if surface.h0(cand) != 1:
            continue
        self_int = int(cand.dot(cand))
        points = [surface.point_of_symbol[s] for s in surface.lattice.exceptional_names
                  if cand.coeff(s) != 0]
        records.append(CurveRecord(
            format_class(cand).replace(" ", ""), cand, self_int, int(surface.canonical.dot(cand)),
            Fraction(0), KIND_MINUS_ONE if self_int == -1 else KIND_MINUS_TWO,
            f"degree-{int(cand.coeffs[0])} curve through {', '.join(points)}"))
    return records


def _assert_pencils_match_reference(surface, degree_bound):
    got = find_pencils(surface, degree_bound)
    want, rejected = reference_find_pencils(surface, degree_bound)
    assert got == want
    assert all(type(c) is Fraction for p in got for c in p.cls.coeffs)
    return rejected


@functools.lru_cache(maxsize=None)
def _general_surface(n):
    return build_surface([FreePoint(f"p{i}") for i in range(1, n + 1)],
                         [(f"p{i}", f"E{i}") for i in range(1, n + 1)])


def test_pencils_match_reference_on_w_and_y(surface_w, surface_y):
    assert _assert_pencils_match_reference(surface_w, 3) == 18
    assert _assert_pencils_match_reference(surface_y, 3) == 66


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("degree_bound", [2, 3])
def test_pencils_match_reference_on_general_points(n, degree_bound):
    _assert_pencils_match_reference(_general_surface(n), degree_bound)


def test_pencils_match_reference_on_four_collinear_points():
    assert _assert_pencils_match_reference(_collinear_surface(), 3) == 6


def test_catalog_matches_reference_on_w_and_y(surface_w, surface_y):
    for surface in (surface_w, surface_y):
        assert surface.catalog(3) == reference_catalog(surface, 3)


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("degree_bound", [2, 3])
def test_catalog_matches_reference_on_general_points(n, degree_bound):
    surface = _general_surface(n)
    assert surface.catalog(degree_bound) == reference_catalog(surface, degree_bound)


def test_catalog_matches_reference_on_four_collinear_points():
    surface = _collinear_surface()
    assert surface.catalog(3) == reference_catalog(surface, 3)


def test_catalog_scans_only_candidates_with_one_section(monkeypatch):
    surface = build_surface([FreePoint(f"p{i}") for i in range(1, 9)],
                            [(f"p{i}", f"E{i}") for i in range(1, 9)])
    events = []
    h0_calls = []
    h0_from_realization, h0, dot = oracle.h0_from_realization, surface.h0, DivisorClass.dot

    def counted_h0_from_realization(*args):
        h0_calls.append(args)
        return h0_from_realization(*args)

    def recorded_h0(cand):
        events.append(("h0", cand.coeffs, h0(cand)))
        return events[-1][2]

    def recorded_dot(self, other):
        events.append(("dot", self.coeffs))
        return dot(self, other)

    monkeypatch.setattr(oracle, "h0_from_realization", counted_h0_from_realization)
    monkeypatch.setattr(surface, "h0", recorded_h0)
    monkeypatch.setattr(DivisorClass, "dot", recorded_dot)
    catalog_negative_curves(surface, 2)
    # the 28 lines through two points and 56 conics through five have one
    # section, each at the 3 seeds of the consensus; the 56 lines through
    # three and 28 conics through six have none, proven at the first seed
    assert len(h0_calls) == 3 * (28 + 56) + (56 + 28) == 336
    last_h0 = None
    for event in events:
        if event[0] == "h0":
            last_h0 = event
        elif event[1] != surface.canonical.coeffs:  # K.C of a catalogued curve
            assert last_h0 == ("h0", event[1], 1)
    assert sum(event[0] == "dot" for event in events) > 0


def test_catalog_scan_skips_the_exceptional_curves(monkeypatch):
    surface = build_surface([FreePoint(f"p{i}") for i in range(1, 9)],
                            [(f"p{i}", f"E{i}") for i in range(1, 9)])
    others = []
    dot = DivisorClass.dot

    def recorded_dot(self, other):
        others.append(other.coeffs[0])
        return dot(self, other)

    monkeypatch.setattr(DivisorClass, "dot", recorded_dot)
    catalog_negative_curves(surface, 2)
    # a scan that met the 8 E_j made 672 dot products with them here
    assert others.count(0) == 0
    assert others


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.integers(1, 4), st.sampled_from((-2, -1, 0)))
def test_no_candidate_meets_an_exceptional_curve_negatively(n, degree, self_int):
    surface = _general_surface(n)
    exceptionals = [surface.lattice.exceptional(sym) for sym in surface.lattice.exceptional_names]
    for vec in _candidate_vectors(surface, degree, self_int):
        cand = _class_of(surface, vec)
        assert [cand.dot(e) for e in exceptionals] == [-m for m in vec[1:]]
        assert all(m <= 0 for m in vec[1:])


def _assert_members_match_reference(surface, degree_bound):
    pencils = find_pencils(surface, degree_bound)
    assert pencils
    for pencil in pencils:
        got = singular_members(surface, pencil, degree_bound)
        want = reference_singular_members(surface, Pencil(pencil.cls), degree_bound)
        assert pencil.singular_members is got
        assert got == want
        assert [[(id(r), m) for r, m in parts] for parts in got] == \
            [[(id(r), m) for r, m in parts] for parts in want]


def test_singular_members_match_reference_on_w_and_y(surface_w, surface_y):
    for surface in (surface_w, surface_y):
        _assert_members_match_reference(surface, 3)


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("degree_bound", [2, 3])
def test_singular_members_match_reference_on_general_points(n, degree_bound):
    _assert_members_match_reference(_general_surface(n), degree_bound)


def test_singular_members_of_rational_or_foreign_classes(surface_w):
    half = surface_w.lattice.divisor({"L": 2, "E1": "-1/2", "E2": "-3/2", "E3": -1,
                                      "E1p": -1, "E3p": -1})
    pencil = Pencil(half)
    assert singular_members(surface_w, pencil) == []
    assert pencil.singular_members == []
    other = build_surface([FreePoint("p")], [("p", "E1")])
    with pytest.raises(LatticeMismatch):
        singular_members(surface_w, Pencil(other.lattice.divisor({"L": 1, "E1": -1})))


def reference_candidates(surface, degree, self_int):
    """`_candidates` as it was written: every permutation of each shape,
    deduplicated and sorted."""
    n = len(surface.lattice.exceptional_names)
    total = 3 * degree - 2 - self_int
    square_sum = degree * degree - self_int
    shapes = {tuple(vec) for vec in _candidate_multiplicity_vectors(n, total, square_sum)}
    for shape in sorted(shapes, reverse=True):
        for perm in sorted(set(itertools.permutations(shape))):
            yield (degree,) + tuple(-m for m in perm)


@pytest.mark.parametrize("n", range(9))
def test_candidates_match_reference(n):
    surface = build_surface([FreePoint(f"p{i}") for i in range(1, n + 1)],
                            [(f"p{i}", f"E{i}") for i in range(1, n + 1)])
    for degree in range(1, 5):
        for self_int in (-2, -1, 0):
            got = [c.coeffs for c in _candidates(surface, degree, self_int)]
            assert got == list(reference_candidates(surface, degree, self_int))


# Four collinear points a, b, c, d (E1..E4) and two free points e, f (E5, E6).
COLLINEAR_SCRIPT = [FreePoint("a"), FreePoint("b"), LineThrough("l", "a", "b"),
                    PointOnLine("c", "l"), PointOnLine("d", "l"), FreePoint("e"), FreePoint("f")]


def _collinear_surface(order="abcdef"):
    return build_surface(COLLINEAR_SCRIPT, [(p, f"E{i}") for i, p in enumerate(order, 1)])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the catalog knows only (-1)- and (-2)-curves and misses the "
                          "(-3)-line L-E1-E2-E3-E4, so its reducible sums are catalogued")
def test_catalog_on_four_collinear_points_has_no_reducible_classes():
    names = {r.name for r in _collinear_surface().catalog(3)}
    reducible = {"L-E2-E3-E4", "L-E1-E2", "L-E1-E3", "L-E1-E4", "2L-E1-E2-E3-E5-E6",
                 "2L-E1-E2-E4-E5-E6", "2L-E1-E3-E4-E5-E6"}
    assert names & reducible == set()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the catalog on four collinear points depends on which of them "
                          "is blown up as E1")
def test_catalog_permutes_with_the_collinear_points():
    base = {r.cls.coeffs for r in _collinear_surface().catalog(3)}
    for perm in itertools.permutations("abcd"):
        order = "".join(perm) + "ef"
        # E<i> lies over order[i-1], which is E<j> of the base labelling
        where = [0] + ["abcdef".index(p) + 1 for p in order]
        got = set()
        for rec in _collinear_surface(order).catalog(3):
            vec = [0] * 7
            for i, c in enumerate(rec.cls.coeffs):
                vec[where[i]] = c
            got.add(tuple(vec))
        assert got == base, order


def test_contract_w(surface_w):
    twos = minus_two_curves(surface_w)
    record = contract(surface_w, twos)
    assert record.target_kind == "nodal-surface"
    assert record.nodes == 4
    assert record.k2_after == record.k2_before == 3


def test_contract_y(surface_y):
    by_name = {r.name: r for r in surface_y.catalog()}
    picked = [by_name[n] for n in
              ("L-Q-Q1-Q1p", "L-Q-Q2-Q2p", "L-Q1-Q3-Q2p", "L-Q-Q3-Q3p", "L-Q1-Q2-Q3p")]
    record = contract(surface_y, picked)
    assert record.nodes == 5
    assert record.k2_after == 2
    remaining = by_name["L-Q2-Q3-Q1p"]
    assert all(remaining.cls.dot(r.cls) == 0 for r in picked)


def test_contract_minus_one_and_errors(surface_w):
    by_name = {r.name: r for r in surface_w.catalog()}
    record = contract(surface_w, [by_name["E1"], by_name["E2"]])
    assert record.target_kind == "smooth-blowdown"
    assert record.k2_after == record.k2_before + 2
    assert contract(surface_w, []).target_kind == "identity"
    with pytest.raises(SurfaceError):
        contract(surface_w, [by_name["L-E1-E1p"], by_name["L-E2-E2p"]])  # they meet
    with pytest.raises(SurfaceError):
        contract(surface_w, [by_name["E1"], by_name["L-E2-E1p-E3p"]])  # mixed kinds


def test_isolated_minus_one_on_fresh_seed_policy(surface_w):
    # the flag computation is intersection-theoretic, not oracle-dependent
    gammas = isolated_minus_one_curves(surface_w)
    assert all(r.kind == KIND_MINUS_ONE for r in gammas)


# -- the zero certificate of h^0 ---------------------------------------------


def _h0_with_oracle_values(monkeypatch, values):
    """h^0 of L - E on a one-point surface whose oracle gives values[i] at
    the i-th seed of the policy; also the seeds the oracle was called at."""
    surface = build_surface([FreePoint("a")], [("a", "E")], seed_policy=SeedPolicy(base=5))
    seeds = []

    def oracle_value(realization, degree, mults):
        seeds.append(realization.seed)
        return values[realization.seed - 5]

    monkeypatch.setattr(oracle, "h0_from_realization", oracle_value)
    return surface.h0(cls_of(surface, {"L": 1, "E": -1})), seeds


def test_h0_zero_at_the_first_seed_draws_no_other(monkeypatch):
    assert _h0_with_oracle_values(monkeypatch, (0, 1, 1)) == (0, [5])


def test_h0_positive_at_the_first_seed_takes_the_consensus(monkeypatch):
    assert _h0_with_oracle_values(monkeypatch, (1, 1, 1)) == (1, [5, 6, 7])


def test_h0_positive_values_that_disagree_are_refused(monkeypatch):
    with pytest.raises(SeedDisagreement):
        _h0_with_oracle_values(monkeypatch, (1, 2, 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(-1, 5), st.data())
def test_h0_is_the_consensus_of_its_seeds(surface_w, surface_y, which, degree, data):
    base = (_general_surface(8), surface_w, surface_y, _collinear_surface())[which]
    surface = build_surface(base.script, base.blowups)  # no h^0 cached yet
    names = surface.lattice.exceptional_names
    coeffs = data.draw(st.lists(st.integers(-3, 1), min_size=len(names), max_size=len(names)))
    vec = (degree, *coeffs)
    mults = {point: -m for (point, _symbol), m in zip(surface.blowups, coeffs)}
    consensus = oracle.h0_consensus({
        seed: oracle.h0_from_realization(surface.realization(seed), degree, mults)
        for seed in surface.seed_policy.seeds()})
    assert surface.h0(_class_of(surface, vec)) == consensus
