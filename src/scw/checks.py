"""Check handlers: the small declarative language used by workbench files.

Each check is a JSON object with a unique `name`, a `suite`, a citation
`tag`, a `kind` selecting the handler, and handler-specific parameters.
Handlers compute exact values and compare them with the expected data
frozen in the file; they return Check records and never raise (an
exception becomes a failing check, and checks that depend on valid cover
data report `unsupported` when validation failed).
"""

from __future__ import annotations

from fractions import Fraction

from . import cover as cover_mod
from . import groups as groups_mod
from . import lefschetz as lef
from . import surface as surface_mod
from .lattice import (DivisorClass, abstract_lattice, adjunction_genus, format_class,
                      gram_det, hodge_index_bound, solve_divide, solve_linear)
from .report import FAIL, PASS, UNSUPPORTED, Check, equality_check


def _rat(x) -> Fraction:
    return Fraction(str(x))


def resolve_class(lattice, class_map) -> DivisorClass:
    return lattice.divisor({k: _rat(v) for k, v in class_map.items()})


def _class_set(records):
    return sorted(format_class(r.cls) for r in records)


def _expected_class_set(surface, maps):
    return sorted(format_class(resolve_class(surface.lattice, m)) for m in maps)


# ---------------------------------------------------------------------------
# handlers: lattice suite


def check_intersect(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    lhs = resolve_class(s.lattice, p["lhs"])
    rhs = resolve_class(s.lattice, p["rhs"])
    return [equality_check(p["name"], lhs.dot(rhs), _rat(p["expected"]), tag=p.get("tag", ""))]


def check_abstract_self_intersection(wb, p) -> list[Check]:
    lat = abstract_lattice(p["basis"], [[_rat(x) for x in row] for row in p["gram"]])
    cls = resolve_class(lat, p["class"])
    value = cls.dot(cls) / _rat(p.get("divide", 1))
    return [equality_check(p["name"], value, _rat(p["expected"]), tag=p.get("tag", ""))]


def check_abstract_adjunction_genus(wb, p) -> list[Check]:
    lat = abstract_lattice(p["basis"], [[_rat(x) for x in row] for row in p["gram"]])
    cls = resolve_class(lat, p["class"])
    k = resolve_class(lat, p["k_class"])
    return [equality_check(p["name"], adjunction_genus(cls, k), _rat(p["expected"]),
                           tag=p.get("tag", ""))]


def check_gram_det(wb, p) -> list[Check]:
    det = gram_det([[_rat(x) for x in row] for row in p["matrix"]])
    return [equality_check(p["name"], det, _rat(p["expected"]), tag=p.get("tag", ""))]


def check_blowup_basis_det(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    classes = [s.lattice.divisor({name: 1}) for name in s.lattice.names]
    expected = Fraction((-1) ** len(s.lattice.exceptional_names))
    return [equality_check(p["name"], gram_det(classes), expected, tag=p.get("tag", ""))]


def check_adjunction_genus(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    cls = resolve_class(s.lattice, p["class"])
    return [equality_check(p["name"], adjunction_genus(cls, s.canonical),
                           _rat(p["expected"]), tag=p.get("tag", ""))]


def check_solve_divide(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    cls = resolve_class(s.lattice, p["class"])
    got = solve_divide(cls, int(p["n"]))
    expected = resolve_class(s.lattice, p["expected_class"])
    return [equality_check(p["name"], format_class(got), format_class(expected), tag=p.get("tag", ""))]


def check_hodge_bound(wb, p) -> list[Check]:
    if "d2" in p:
        verdict = hodge_index_bound(_rat(p["k2"]), _rat(p["kd"]), _rat(p["d2"]))
        return [equality_check(p["name"], verdict, bool(p["expected"]), tag=p.get("tag", ""))]
    bound = hodge_index_bound(_rat(p["k2"]), _rat(p["kd"]))
    floor = bound.numerator // bound.denominator
    return [equality_check(p["name"], floor, int(p["expected"]), tag=p.get("tag", ""))]


# ---------------------------------------------------------------------------
# handlers: surface suite


def check_collinear_sets(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    got = sorted(sorted(group) for group in s.collinear_sets)
    expected = sorted(sorted(group) for group in p["expected"])
    return [equality_check(p["name"], got, expected, tag=p.get("tag", ""))]


def check_minus_two_catalog(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    got = _class_set(surface_mod.minus_two_curves(s))
    return [equality_check(p["name"], got, _expected_class_set(s, p["expected_classes"]),
                           tag=p.get("tag", ""))]


def check_isolated_minus_one(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    got = _class_set(surface_mod.isolated_minus_one_curves(s))
    return [equality_check(p["name"], got, _expected_class_set(s, p["expected_classes"]),
                           tag=p.get("tag", ""))]


def check_catalog_counts(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    got = (len(surface_mod.minus_one_curves(s)), len(surface_mod.minus_two_curves(s)))
    expected = (int(p["expected_minus_one"]), int(p["expected_minus_two"]))
    return [equality_check(p["name"], got, expected, tag=p.get("tag", ""))]


def check_pencils_include(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    found = {pen.cls.coeffs for pen in surface_mod.find_pencils(s)}
    missing = [
        m for m in p["classes"]
        if resolve_class(s.lattice, m).coeffs not in found
    ]
    status = PASS if not missing else FAIL
    return [Check(p["name"], status,
                  computed="all present" if not missing else f"missing {missing}",
                  expected="pencil classes present", tag=p.get("tag", ""))]


def _decomposition_key(parts):
    return tuple(sorted((format_class(rec.cls), mult) for rec, mult in parts))


def check_singular_members(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    pencil = surface_mod.Pencil(resolve_class(s.lattice, p["pencil"]))
    got = sorted(_decomposition_key(d) for d in surface_mod.singular_members(s, pencil))
    expected = sorted(
        tuple(sorted((format_class(resolve_class(s.lattice, part["class"])), int(part["multiplicity"]))
                     for part in decomp))
        for decomp in p["expected"]
    )
    return [equality_check(p["name"], got, expected, tag=p.get("tag", ""))]


def check_contract(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    by_class = s.catalog_by_class()
    recs = []
    for m in p["classes"]:
        cls = resolve_class(s.lattice, m)
        rec = by_class.get(cls.coeffs)
        if rec is None:
            return [Check(p["name"], FAIL, f"{format_class(cls)} not in catalog",
                          "catalogued curve", tag=p.get("tag", ""))]
        recs.append(rec)
    record = surface_mod.contract(s, recs)
    got = (record.nodes, str(record.k2_after))
    expected = (int(p["expected_nodes"]), str(_rat(p["expected_k2_after"])))
    checks = [equality_check(p["name"], got, expected, tag=p.get("tag", ""))]
    if "expected_disjoint_remainder" in p:
        contracted = {r.cls.coeffs for r in recs}
        rest = [r for r in surface_mod.minus_two_curves(s) if r.cls.coeffs not in contracted]
        ok = all(r.cls.dot(c.cls) == 0 for r in rest for c in recs)
        names = sorted(format_class(r.cls) for r in rest)
        checks.append(equality_check(
            f"{p['name']}/remainder", (names, ok),
            (_expected_class_set(s, p["expected_disjoint_remainder"]), True),
            tag=p.get("tag", "")))
    return checks


# ---------------------------------------------------------------------------
# handlers: cover suite


def _unsupported(p, reason) -> list[Check]:
    return [Check(p["name"], UNSUPPORTED, reason, "valid cover data", tag=p.get("tag", ""))]


def check_cover_relations(wb, p) -> list[Check]:
    return [Check(c.name, c.status, c.computed, c.expected,
                  tag=p.get("tag", c.tag)) for c in wb.validation(p["cover"])]


def check_relation_sum(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    chi = tuple(p["character"])
    m = spec.group.element_order(chi)
    rhs = cover_mod.relation_rhs(spec, chi)
    expected = resolve_class(spec.base.lattice, p["expected_class"])
    out = [equality_check(f"{p['name']}/sum", format_class(rhs), format_class(expected),
                          tag=p.get("tag", ""))]
    given = dict(spec.reduced_l)
    if chi in given:
        out.append(equality_check(f"{p['name']}/equals-{m}L", format_class(m * given[chi]),
                                  format_class(expected), tag=p.get("tag", "")))
    return out


def check_derived_class(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    if not wb.cover_valid(p["cover"]):
        return _unsupported(p, "cover data failed validation")
    derived = spec.all_l
    chi = spec.group.reduce(tuple(p["character"]))
    got = derived[chi]
    checks = []
    if "expected_class" in p:
        expected = resolve_class(spec.base.lattice, p["expected_class"])
        checks.append(equality_check(p["name"], format_class(got), format_class(expected),
                                     tag=p.get("tag", "")))
    if "minuend" in p:
        base_chi = spec.group.reduce(tuple(p["minuend"]["character"]))
        mult = int(p["minuend"]["multiple"])
        combo = mult * derived[base_chi]
        by_name = spec.branch_by_name()
        for name in p["subtract_components"]:
            combo = combo - by_name[name].curve
        checks.append(equality_check(f"{p['name']}/combination", format_class(got),
                                     format_class(combo), tag=p.get("tag", "")))
    return checks


def check_solve_matches_derived(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    if not wb.cover_valid(p["cover"]):
        return _unsupported(p, "cover data failed validation")
    solution = solve_linear(cover_mod.building_data_relations(spec))
    derived = spec.all_l
    ok = solution.degrees_of_freedom == 0
    mismatches = []
    for chi, cls in derived.items():
        if chi == spec.group.identity():
            continue
        name = cover_mod.character_unknown_name(chi)
        if solution.classes[name] != cls:
            mismatches.append(name)
    ok = ok and not mismatches
    return [Check(p["name"], PASS if ok else FAIL,
                  computed=("unique solution matching the derived sheaves" if ok
                            else f"dof={solution.degrees_of_freedom}, mismatches={mismatches}"),
                  expected="solver agrees with the pair-rule derivation",
                  tag=p.get("tag", ""))]


def check_branch_points(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    if not wb.cover_valid(p["cover"]):
        return _unsupported(p, "cover data failed validation")
    analyses = spec.branch_points
    nodes = sorted(
        (tuple(sorted(a.location)), a.crossing_points, a.preimage_count, a.inertia_order)
        for a in analyses if a.verdict == cover_mod.VERDICT_NODE_A1
    )
    expected_nodes = sorted(
        (tuple(sorted(n["pair"])), int(n["points"]), int(n["preimages"]), int(n["inertia_order"]))
        for n in p["expected_nodes"]
    )
    others_smooth = all(
        a.verdict == cover_mod.VERDICT_SMOOTH
        for a in analyses if a.verdict != cover_mod.VERDICT_NODE_A1
    )
    checks = [
        equality_check(f"{p['name']}/nodes", nodes, expected_nodes, tag=p.get("tag", "")),
        equality_check(f"{p['name']}/others-smooth", others_smooth, True, tag=p.get("tag", "")),
        equality_check(f"{p['name']}/total-nodes", cover_mod.node_count(spec),
                       int(p["expected_total_nodes"]), tag=p.get("tag", "")),
    ]
    return checks


def check_pullback(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    comp = spec.branch_by_name()[p["component"]]
    pb = cover_mod.pullback(spec, comp)
    got = (pb.ramification_multiplicity, pb.components, pb.map_degree, str(pb.self_intersection))
    e = p["expected"]
    expected = (int(e["e"]), int(e["n"]), int(e["d"]), str(_rat(e["s"])))
    return [equality_check(p["name"], got, expected, tag=p.get("tag", ""))]


def check_preimage_consistency(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    if not wb.cover_valid(p["cover"]):
        return _unsupported(p, "cover data failed validation")
    names = p.get("components")
    comps = spec.branch if names in (None, "all") else [spec.branch_by_name()[n] for n in names]
    out = []
    for comp in comps:
        if comp.curve.is_zero:
            continue
        rep = cover_mod.preimage_consistency(spec, comp)
        out.append(Check(
            f"{p['name']}/{comp.name}",
            PASS if rep.ok else FAIL,
            computed=f"d={rep.map_degree}, r={rep.ramification}, genus={rep.hurwitz_genus} ({rep.reason})",
            expected="asserted component count is arithmetically consistent",
            tag=p.get("tag", ""),
        ))
    return out


def check_canonical_cover(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    if not wb.cover_valid(p["cover"]):
        return _unsupported(p, "cover data failed validation")
    cls, k2 = cover_mod.canonical_cover(spec, int(p["n"]))
    checks = [equality_check(f"{p['name']}/k2", k2, _rat(p["expected_k2"]), tag=p.get("tag", ""))]
    if "expected_class" in p:
        expected = resolve_class(spec.base.lattice, p["expected_class"])
        checks.append(equality_check(f"{p['name']}/class", format_class(cls),
                                     format_class(expected), tag=p.get("tag", "")))
    return checks


def check_invariants(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    if not wb.cover_valid(p["cover"]):
        return _unsupported(p, "cover data failed validation")
    inv = cover_mod.invariants(spec)
    e = p["expected"]
    got = {"chi": inv.chi, "p_g": inv.p_g, "q": inv.q}
    expected = {"chi": int(e["chi"]), "p_g": int(e["p_g"]), "q": int(e["q"])}
    if "k2_cover" in e:
        got["k2_cover"] = str(inv.k2_cover)
        expected["k2_cover"] = str(_rat(e["k2_cover"]))
    return [equality_check(p["name"], got, expected, tag=p.get("tag", ""))]


def check_h0_vanishing(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    if not wb.cover_valid(p["cover"]):
        return _unsupported(p, "cover data failed validation")
    checks = cover_mod.h0_vanishing_checks(spec)
    return [Check(c.name, c.status, c.computed, c.expected, tag=p.get("tag", ""))
            for c in checks]


def check_quotient_cover(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    if not wb.cover_valid(p["cover"]):
        return _unsupported(p, "cover data failed validation")
    quotient = cover_mod.quotient_cover(spec, tuple(p["character"]))
    got_branch = sorted(c.name for c in quotient.branch)
    checks = [equality_check(f"{p['name']}/branch", got_branch, sorted(p["expected_branch"]),
                             tag=p.get("tag", ""))]
    _cls, k2 = cover_mod.canonical_cover(quotient, 2)
    checks.append(equality_check(f"{p['name']}/k2", k2, _rat(p["expected_k2"]),
                                 tag=p.get("tag", "")))
    return checks


def check_minimal_model(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    if not wb.cover_valid(p["cover"]):
        return _unsupported(p, "cover data failed validation")
    plan = cover_mod.ContractionPlan(
        simple=int(p["simple"]),
        node_threading=int(p["node_threading"]),
        contracted_base=tuple(p["contract"]),
    )
    inv = cover_mod.minimal_model(spec, plan)
    checks = [equality_check(f"{p['name']}/k2", inv.k2_minimal, _rat(p["expected_k2"]),
                             tag=p.get("tag", ""))]
    if p.get("expect_ample", False):
        checks.append(equality_check(f"{p['name']}/ample-proxy", inv.ample_proxy, True,
                                     tag=p.get("tag", "")))
    return checks


# ---------------------------------------------------------------------------
# handlers: lefschetz suite


def check_involution_counts(wb, p) -> list[Check]:
    got = lef.involution_counts(int(p["kr"]), int(p["r2"]))
    expected = tuple(int(x) for x in p["expected"])
    return [equality_check(p["name"], got, expected, tag=p.get("tag", ""))]


def check_order3_counts(wb, p) -> list[Check]:
    got = lef.order3_counts(int(p["kr"]), int(p["r2"]), int(p["tr"]))
    expected = p["expected"]
    expected = None if expected is None else tuple(int(x) for x in expected)
    return [equality_check(p["name"], got, expected, tag=p.get("tag", ""))]


def check_range_filter(wb, p) -> list[Check]:
    got = lef.involution_range_filter(
        int(p["k2"]),
        r2=int(p["r2"]) if "r2" in p else None,
        exclude=tuple(p.get("exclude", ())),
    )
    return [equality_check(p["name"], got, [int(x) for x in p["expected"]], tag=p.get("tag", ""))]


def check_diophantine(wb, p) -> list[Check]:
    box = None
    if "box" in p:
        box = {k: range(v[0], v[1] + 1) if isinstance(v, list) else tuple(v)
               for k, v in p["box"].items()}
    target = tuple(p["target"]) if "target" in p else (0,)
    got = lef.diophantine_enumerate(p["constraint"], box=box, target=target)
    expected = sorted(tuple(int(x) for x in sol) for sol in p["expected"])
    return [equality_check(p["name"], sorted(got), expected, tag=p.get("tag", ""))]


def check_det_identity(wb, p) -> list[Check]:
    """Pointwise agreement of the 3x3 intersection determinant with its
    closed form -14 + 2a^2 - 7b^2, and emptiness of the admissible locus."""
    mismatches = []
    for a in range(int(p["a_min"]), int(p["a_max"]) + 1):
        for b in range(int(p["b_min"]), int(p["b_max"]) + 1):
            det = gram_det([[7, a, 0], [a, 1, b], [0, b, -2]])
            if det != -14 + 2 * a * a - 7 * b * b:
                mismatches.append((a, b))
    checks = [equality_check(f"{p['name']}/closed-form", mismatches, [], tag=p.get("tag", ""))]
    admissible = lef.involution_range_filter(7, r2=1)
    solutions = [
        (a, b)
        for (a, b) in lef.diophantine_enumerate("ample-obstruction-det")
        if a in admissible
    ]
    checks.append(equality_check(f"{p['name']}/no-admissible-zero", solutions, [],
                                 tag=p.get("tag", "")))
    return checks


def check_theorem11(wb, p) -> list[Check]:
    checks = lef.theorem11_consistency(p["case"])
    return [Check(f"{p['name']}/{c.name}", c.status, c.computed, c.expected,
                  tag=p.get("tag", c.tag)) for c in checks]


def check_subgroups(wb, p) -> list[Check]:
    group = groups_mod.FiniteAbelianGroup(tuple(p["orders"]))
    subs = groups_mod.subgroups_of_order(group, int(p["n"]),
                                         elementary_only=bool(p.get("elementary_only", False)))
    return [equality_check(p["name"], len(subs), int(p["expected_count"]), tag=p.get("tag", ""))]


def check_common_involution(wb, p) -> list[Check]:
    group = groups_mod.FiniteAbelianGroup(tuple(p["orders"]))
    subs = groups_mod.subgroups_of_order(group, int(p["n"]))
    got = groups_mod.pairwise_common_involution(group, subs)
    return [equality_check(p["name"], got, bool(p["expected"]), tag=p.get("tag", ""))]


def check_restriction_level(wb, p) -> list[Check]:
    group = groups_mod.FiniteAbelianGroup(tuple(p["orders"]))
    pair = groups_mod.CyclicPair(group, tuple(p["generator"]), int(p["exponent"]))
    got = groups_mod.restriction_level(pair, tuple(p["character"]))
    return [equality_check(p["name"], got, int(p["expected"]), tag=p.get("tag", ""))]


HANDLERS = {
    "intersect": check_intersect,
    "abstract_self_intersection": check_abstract_self_intersection,
    "abstract_adjunction_genus": check_abstract_adjunction_genus,
    "gram_det": check_gram_det,
    "blowup_basis_det": check_blowup_basis_det,
    "adjunction_genus": check_adjunction_genus,
    "solve_divide": check_solve_divide,
    "hodge_bound": check_hodge_bound,
    "collinear_sets": check_collinear_sets,
    "minus_two_catalog": check_minus_two_catalog,
    "isolated_minus_one": check_isolated_minus_one,
    "catalog_counts": check_catalog_counts,
    "pencils_include": check_pencils_include,
    "singular_members": check_singular_members,
    "contract": check_contract,
    "cover_relations": check_cover_relations,
    "relation_sum": check_relation_sum,
    "derived_class": check_derived_class,
    "solve_matches_derived": check_solve_matches_derived,
    "branch_points": check_branch_points,
    "pullback": check_pullback,
    "preimage_consistency": check_preimage_consistency,
    "canonical_cover": check_canonical_cover,
    "invariants": check_invariants,
    "h0_vanishing": check_h0_vanishing,
    "quotient_cover": check_quotient_cover,
    "minimal_model": check_minimal_model,
    "involution_counts": check_involution_counts,
    "order3_counts": check_order3_counts,
    "range_filter": check_range_filter,
    "diophantine": check_diophantine,
    "det_identity": check_det_identity,
    "theorem11": check_theorem11,
    "subgroups": check_subgroups,
    "common_involution": check_common_involution,
    "restriction_level": check_restriction_level,
}


def run_check(wb, params: dict) -> list[Check]:
    kind = params.get("kind")
    handler = HANDLERS.get(kind)
    if handler is None:
        return [Check(params.get("name", "?"), FAIL, f"unknown check kind {kind!r}",
                      "known check kind", tag=params.get("tag", ""))]
    try:
        return handler(wb, params)
    except Exception as exc:  # a check must never crash the harness
        return [Check(params["name"], FAIL, f"{type(exc).__name__}: {exc}",
                      "check evaluates cleanly", tag=params.get("tag", ""))]


# ---------------------------------------------------------------------------
# named numeric checks (addressable from the CLI by citation tag)

NAMED_CHECKS: dict[str, list[dict]] = {
    "lemma-2.2": [
        {"name": "lemma-2.2/range", "kind": "range_filter", "suite": "lefschetz",
         "tag": "lemma-2.2", "k2": 7, "expected": [1, 3, 5, 7]},
        {"name": "lemma-2.2/range-hodge", "kind": "range_filter", "suite": "lefschetz",
         "tag": "lemma-2.2", "k2": 7, "r2": 1, "expected": [3, 5, 7]},
        {"name": "lemma-2.2/range-eliminated", "kind": "range_filter", "suite": "lefschetz",
         "tag": "lemma-2.2", "k2": 7, "r2": 1, "exclude": [5, 7], "expected": [3]},
        {"name": "lemma-2.2/det", "kind": "det_identity", "suite": "lefschetz",
         "tag": "lemma-2.2", "a_min": -7, "a_max": 7, "b_min": -4, "b_max": 4},
    ],
    "lemma-3.1": [
        {"name": "lemma-3.1/cubic", "kind": "diophantine", "suite": "lefschetz",
         "tag": "lemma-3.1", "constraint": "commuting-cubic", "expected": [[0, 1]]},
    ],
    "lemma-3.2": [
        {"name": "lemma-3.2/pencil-sum-bound", "kind": "hodge_bound", "suite": "lefschetz",
         "tag": "lemma-3.2", "k2": 7, "kd": 6, "expected": 5},
        {"name": "lemma-3.2/hodge-pass", "kind": "hodge_bound", "suite": "lefschetz",
         "tag": "lemma-3.2", "k2": 7, "kd": 3, "d2": 1, "expected": True},
    ],
    "lemma-3.4": [
        {"name": "lemma-3.4/unimodular-part", "kind": "diophantine", "suite": "lefschetz",
         "tag": "lemma-3.4", "constraint": "pencil-part-det", "expected": [[-1]]},
        {"name": "lemma-3.4/genus-A", "kind": "abstract_adjunction_genus", "suite": "lattice",
         "tag": "lemma-3.4", "basis": ["K", "A"], "gram": [[7, 2], [2, 0]],
         "class": {"A": 1}, "k_class": {"K": 1}, "expected": 2},
        {"name": "lemma-3.4/genus-B", "kind": "abstract_adjunction_genus", "suite": "lattice",
         "tag": "lemma-3.4", "basis": ["K", "B"], "gram": [[7, 1], [1, -1]],
         "class": {"B": 1}, "k_class": {"K": 1}, "expected": 1},
    ],
    "prop-3.5": [
        {"name": "prop-3.5/genus-F", "kind": "abstract_adjunction_genus", "suite": "lattice",
         "tag": "prop-3.5", "basis": ["K", "F"], "gram": [[7, 3], [3, 1]],
         "class": {"F": 1}, "k_class": {"K": 1}, "expected": 3},
        {"name": "prop-3.5/K+F-squared", "kind": "abstract_self_intersection",
         "suite": "lattice", "tag": "prop-3.5", "basis": ["K", "F"],
         "gram": [[7, 3], [3, 1]], "class": {"K": 1, "F": 1}, "expected": 14},
    ],
    "prop-2.2": [
        {"name": "prop-2.2/involution", "kind": "involution_counts", "suite": "lefschetz",
         "tag": "prop-2.2", "kr": 3, "r2": 1, "expected": [7, 1]},
        {"name": "prop-2.2/order3-balanced", "kind": "order3_counts", "suite": "lefschetz",
         "tag": "prop-2.2", "kr": 0, "r2": 0, "tr": 4, "expected": [6, 0]},
        {"name": "prop-2.2/order3-parity", "kind": "order3_counts", "suite": "lefschetz",
         "tag": "prop-2.2", "kr": 1, "r2": 0, "tr": 0, "expected": None},
    ],
    "prop-3.7": [
        {"name": "prop-3.7/five-points", "kind": "order3_counts", "suite": "lefschetz",
         "tag": "prop-3.7", "kr": 2, "r2": -2, "tr": 3, "expected": [0, 5]},
    ],
    "section-3-quotient": [
        {"name": "section-3-quotient/k2", "kind": "abstract_self_intersection",
         "suite": "lattice", "tag": "section-3",
         "basis": ["K", "F", "B", "aB"],
         "gram": [[7, 3, 1, 1], [3, 1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]],
         "class": {"K": 1, "F": -3, "B": -2, "aB": -2},
         "divide": 6, "expected": -3},
    ],
    "lemma-4.1": [
        {"name": "lemma-4.1/involution", "kind": "involution_counts", "suite": "lefschetz",
         "tag": "lemma-4.1", "kr": -1, "r2": -1, "expected": [3, 3]},
    ],
    "theorem-1.1:a": [
        {"name": "theorem-1.1:a", "kind": "theorem11", "suite": "lefschetz",
         "tag": "theorem-1.1", "case": "a"},
    ],
    "theorem-1.1:b": [
        {"name": "theorem-1.1:b", "kind": "theorem11", "suite": "lefschetz",
         "tag": "theorem-1.1", "case": "b"},
    ],
    "theorem-1.1:c": [
        {"name": "theorem-1.1:c", "kind": "theorem11", "suite": "lefschetz",
         "tag": "theorem-1.1", "case": "c"},
    ],
    "corollary-1.3": [
        {"name": "corollary-1.3/seven-subgroups", "kind": "subgroups", "suite": "lefschetz",
         "tag": "corollary-1.3", "orders": [2, 2, 2], "n": 4, "expected_count": 7},
        {"name": "corollary-1.3/common-involution", "kind": "common_involution",
         "suite": "lefschetz", "tag": "corollary-1.3", "orders": [2, 2, 2], "n": 4,
         "expected": True},
        {"name": "corollary-1.3/unique-z2z2", "kind": "subgroups", "suite": "lefschetz",
         "tag": "corollary-1.3", "orders": [2, 4], "n": 4, "elementary_only": True,
         "expected_count": 1},
    ],
}
