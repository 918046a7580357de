"""Check handlers: the small declarative language used by workbench files.

Each check is a JSON object with a unique `name`, a `suite`, a citation
`tag`, a `kind` selecting the handler, and handler-specific parameters.
Handlers compute exact values and compare them with the expected data
frozen in the file.  Every number a handler reads from the file goes
through `_int`, `_rat` or `_bool`, which raise `SpecError` naming the field.
`run_check` makes the harness decisions once for every handler; see there.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from . import cover as cover_mod
from . import groups as groups_mod
from . import lefschetz as lef
from . import surface as surface_mod
from .lattice import (DivisorClass, abstract_lattice, adjunction_genus, format_class,
                      gram_det, hodge_index_bound, solve_divide, solve_linear)
from .report import FAIL, PASS, UNSUPPORTED, Check, equality_check


class SpecError(Exception):
    """Schema or semantic error in a workbench file (exit code 2)."""


# ---------------------------------------------------------------------------
# readers for the values of a workbench file


def _rat(value, where: str) -> Fraction:
    # bool is an int subclass, but a JSON true is no coefficient
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise SpecError(f"{where}: expected an integer or 'p/q' string, got {value!r}")


def _int(value, where: str) -> int:
    # int() would truncate 2.5 to 2 and read a JSON true as 1
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SpecError(f"{where}: expected an integer, got {value!r}")


def _ints(values, where: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise SpecError(f"{where}: expected a list of integers, got {values!r}")
    return tuple(_int(x, where) for x in values)


def _bool(value, where: str) -> bool:
    # bool() would read the string "false" as True
    if isinstance(value, bool):
        return value
    raise SpecError(f"{where}: expected true or false, got {value!r}")


def _class_items(mapping, symbols, where: str):
    if not isinstance(mapping, dict):
        raise SpecError(f"{where}: expected a symbol->coefficient map")
    items = []
    for sym in sorted(mapping):
        if sym not in symbols:
            raise SpecError(f"{where}: unknown basis symbol {sym!r}")
        items.append((sym, _rat(mapping[sym], f"{where}.{sym}")))
    return tuple(items)


def resolve_class(lattice, class_map, where: str) -> DivisorClass:
    return lattice.divisor(dict(_class_items(class_map, lattice.names, where)))


def _class_set(records):
    return sorted(format_class(r.cls) for r in records)


def _expected_class_set(surface, maps, where: str):
    return sorted(format_class(resolve_class(surface.lattice, m, where)) for m in maps)


def _abstract_lattice(p):
    return abstract_lattice(p["basis"], [[_rat(x, "gram") for x in row] for row in p["gram"]])


# ---------------------------------------------------------------------------
# handlers: lattice suite


def check_intersect(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    lhs = resolve_class(s.lattice, p["lhs"], "lhs")
    rhs = resolve_class(s.lattice, p["rhs"], "rhs")
    return [equality_check(p["name"], lhs.dot(rhs), _rat(p["expected"], "expected"))]


def check_abstract_self_intersection(wb, p) -> list[Check]:
    lat = _abstract_lattice(p)
    cls = resolve_class(lat, p["class"], "class")
    value = cls.dot(cls) / _rat(p.get("divide", 1), "divide")
    return [equality_check(p["name"], value, _rat(p["expected"], "expected"))]


def check_abstract_adjunction_genus(wb, p) -> list[Check]:
    lat = _abstract_lattice(p)
    cls = resolve_class(lat, p["class"], "class")
    k = resolve_class(lat, p["k_class"], "k_class")
    return [equality_check(p["name"], adjunction_genus(cls, k), _rat(p["expected"], "expected"))]


def check_gram_det(wb, p) -> list[Check]:
    det = gram_det([[_rat(x, "matrix") for x in row] for row in p["matrix"]])
    return [equality_check(p["name"], det, _rat(p["expected"], "expected"))]


def check_blowup_basis_det(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    classes = [s.lattice.divisor({name: 1}) for name in s.lattice.names]
    expected = Fraction((-1) ** len(s.lattice.exceptional_names))
    return [equality_check(p["name"], gram_det(classes), expected)]


def check_adjunction_genus(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    cls = resolve_class(s.lattice, p["class"], "class")
    return [equality_check(p["name"], adjunction_genus(cls, s.canonical),
                           _rat(p["expected"], "expected"))]


def check_solve_divide(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    cls = resolve_class(s.lattice, p["class"], "class")
    got = solve_divide(cls, _int(p["n"], "n"))
    expected = resolve_class(s.lattice, p["expected_class"], "expected_class")
    return [equality_check(p["name"], format_class(got), format_class(expected))]


def check_hodge_bound(wb, p) -> list[Check]:
    k2, kd = _rat(p["k2"], "k2"), _rat(p["kd"], "kd")
    if "d2" in p:
        verdict = hodge_index_bound(k2, kd, _rat(p["d2"], "d2"))
        return [equality_check(p["name"], verdict, _bool(p["expected"], "expected"))]
    bound = hodge_index_bound(k2, kd)
    floor = bound.numerator // bound.denominator
    return [equality_check(p["name"], floor, _int(p["expected"], "expected"))]


# ---------------------------------------------------------------------------
# handlers: surface suite


def check_collinear_sets(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    got = sorted(sorted(group) for group in s.collinear_sets)
    expected = sorted(sorted(group) for group in p["expected"])
    return [equality_check(p["name"], got, expected)]


def check_minus_two_catalog(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    expected = _expected_class_set(s, p["expected_classes"], "expected_classes")
    return [equality_check(p["name"], _class_set(surface_mod.minus_two_curves(s)), expected)]


def check_isolated_minus_one(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    expected = _expected_class_set(s, p["expected_classes"], "expected_classes")
    return [equality_check(p["name"], _class_set(surface_mod.isolated_minus_one_curves(s)),
                           expected)]


def check_catalog_counts(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    expected = (_int(p["expected_minus_one"], "expected_minus_one"),
                _int(p["expected_minus_two"], "expected_minus_two"))
    got = (len(surface_mod.minus_one_curves(s)), len(surface_mod.minus_two_curves(s)))
    return [equality_check(p["name"], got, expected)]


def check_pencils_include(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    classes = [resolve_class(s.lattice, m, "classes") for m in p["classes"]]
    found = {pen.cls.coeffs for pen in surface_mod.find_pencils(s)}
    missing = [m for m, cls in zip(p["classes"], classes) if cls.coeffs not in found]
    status = PASS if not missing else FAIL
    return [Check(p["name"], status,
                  computed="all present" if not missing else f"missing {missing}",
                  expected="pencil classes present")]


def _decomposition_key(parts):
    return tuple(sorted((format_class(rec.cls), mult) for rec, mult in parts))


def check_singular_members(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    pencil = surface_mod.Pencil(resolve_class(s.lattice, p["pencil"], "pencil"))
    expected = sorted(
        tuple(sorted((format_class(resolve_class(s.lattice, part["class"], "expected.class")),
                      _int(part["multiplicity"], "expected.multiplicity"))
                     for part in decomp))
        for decomp in p["expected"]
    )
    got = sorted(_decomposition_key(d) for d in surface_mod.singular_members(s, pencil))
    return [equality_check(p["name"], got, expected)]


def check_contract(wb, p) -> list[Check]:
    s = wb.surface(p["surface"])
    classes = [resolve_class(s.lattice, m, "classes") for m in p["classes"]]
    expected = (_int(p["expected_nodes"], "expected_nodes"),
                str(_rat(p["expected_k2_after"], "expected_k2_after")))
    by_class = s.catalog_by_class()
    recs = []
    for cls in classes:
        rec = by_class.get(cls.coeffs)
        if rec is None:
            return [Check(p["name"], FAIL, f"{format_class(cls)} not in catalog",
                          "catalogued curve")]
        recs.append(rec)
    record = surface_mod.contract(s, recs)
    got = (record.nodes, str(record.k2_after))
    checks = [equality_check(p["name"], got, expected)]
    if "expected_disjoint_remainder" in p:
        remainder = _expected_class_set(s, p["expected_disjoint_remainder"],
                                        "expected_disjoint_remainder")
        contracted = {r.cls.coeffs for r in recs}
        rest = [r for r in surface_mod.minus_two_curves(s) if r.cls.coeffs not in contracted]
        ok = all(r.cls.dot(c.cls) == 0 for r in rest for c in recs)
        names = sorted(format_class(r.cls) for r in rest)
        checks.append(equality_check(f"{p['name']}/remainder", (names, ok), (remainder, True)))
    return checks


# ---------------------------------------------------------------------------
# handlers: cover suite


def check_cover_relations(wb, p) -> list[Check]:
    return list(wb.validation(p["cover"]))


def check_relation_sum(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    chi = _ints(p["character"], "character")
    expected = resolve_class(spec.base.lattice, p["expected_class"], "expected_class")
    m = spec.group.element_order(chi)
    rhs = cover_mod.relation_rhs(spec, chi)
    out = [equality_check(f"{p['name']}/sum", format_class(rhs), format_class(expected))]
    given = dict(spec.reduced_l)
    if chi in given:
        out.append(equality_check(f"{p['name']}/equals-{m}L", format_class(m * given[chi]),
                                  format_class(expected)))
    return out


def check_derived_class(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    derived = spec.all_l
    chi = spec.group.reduce(_ints(p["character"], "character"))
    got = derived[chi]
    checks = []
    if "expected_class" in p:
        expected = resolve_class(spec.base.lattice, p["expected_class"], "expected_class")
        checks.append(equality_check(p["name"], format_class(got), format_class(expected)))
    if "minuend" in p:
        base_chi = spec.group.reduce(_ints(p["minuend"]["character"], "minuend.character"))
        mult = _int(p["minuend"]["multiple"], "minuend.multiple")
        combo = mult * derived[base_chi]
        by_name = spec.branch_by_name()
        for name in p["subtract_components"]:
            combo = combo - by_name[name].curve
        checks.append(equality_check(f"{p['name']}/combination", format_class(got),
                                     format_class(combo)))
    return checks


def check_solve_matches_derived(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
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
                  expected="solver agrees with the pair-rule derivation")]


def check_branch_points(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    expected_nodes = sorted(
        (tuple(sorted(n["pair"])), _int(n["points"], "expected_nodes.points"),
         _int(n["preimages"], "expected_nodes.preimages"),
         _int(n["inertia_order"], "expected_nodes.inertia_order"))
        for n in p["expected_nodes"]
    )
    expected_total = _int(p["expected_total_nodes"], "expected_total_nodes")
    analyses = spec.branch_points
    nodes = sorted(
        (tuple(sorted(a.location)), a.crossing_points, a.preimage_count, a.inertia_order)
        for a in analyses if a.verdict == cover_mod.VERDICT_NODE_A1
    )
    others_smooth = all(
        a.verdict == cover_mod.VERDICT_SMOOTH
        for a in analyses if a.verdict != cover_mod.VERDICT_NODE_A1
    )
    return [
        equality_check(f"{p['name']}/nodes", nodes, expected_nodes),
        equality_check(f"{p['name']}/others-smooth", others_smooth, True),
        equality_check(f"{p['name']}/total-nodes", cover_mod.node_count(spec), expected_total),
    ]


def check_pullback(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    e = p["expected"]
    expected = (_int(e["e"], "expected.e"), _int(e["n"], "expected.n"),
                _int(e["d"], "expected.d"), str(_rat(e["s"], "expected.s")))
    comp = spec.branch_by_name()[p["component"]]
    pb = cover_mod.pullback(spec, comp)
    got = (pb.ramification_multiplicity, pb.components, pb.map_degree, str(pb.self_intersection))
    return [equality_check(p["name"], got, expected)]


def check_preimage_consistency(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
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
        ))
    return out


def check_canonical_cover(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    expected_k2 = _rat(p["expected_k2"], "expected_k2")
    cls, k2 = cover_mod.canonical_cover(spec, _int(p["n"], "n"))
    checks = [equality_check(f"{p['name']}/k2", k2, expected_k2)]
    if "expected_class" in p:
        expected = resolve_class(spec.base.lattice, p["expected_class"], "expected_class")
        checks.append(equality_check(f"{p['name']}/class", format_class(cls),
                                     format_class(expected)))
    return checks


def check_invariants(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    e = p["expected"]
    expected = {"chi": _int(e["chi"], "expected.chi"), "p_g": _int(e["p_g"], "expected.p_g"),
                "q": _int(e["q"], "expected.q")}
    inv = cover_mod.invariants(spec)
    got = {"chi": inv.chi, "p_g": inv.p_g, "q": inv.q}
    if "k2_cover" in e:
        got["k2_cover"] = str(inv.k2_cover)
        expected["k2_cover"] = str(_rat(e["k2_cover"], "expected.k2_cover"))
    return [equality_check(p["name"], got, expected)]


def check_h0_vanishing(wb, p) -> list[Check]:
    return cover_mod.h0_vanishing_checks(wb.cover(p["cover"]))


def check_quotient_cover(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    expected_k2 = _rat(p["expected_k2"], "expected_k2")
    quotient = cover_mod.quotient_cover(spec, _ints(p["character"], "character"))
    got_branch = sorted(c.name for c in quotient.branch)
    _cls, k2 = cover_mod.canonical_cover(quotient, 2)
    return [equality_check(f"{p['name']}/branch", got_branch, sorted(p["expected_branch"])),
            equality_check(f"{p['name']}/k2", k2, expected_k2)]


def check_minimal_model(wb, p) -> list[Check]:
    spec = wb.cover(p["cover"])
    expected_k2 = _rat(p["expected_k2"], "expected_k2")
    expect_ample = _bool(p.get("expect_ample", False), "expect_ample")
    plan = cover_mod.ContractionPlan(
        simple=_int(p["simple"], "simple"),
        node_threading=_int(p["node_threading"], "node_threading"),
        contracted_base=tuple(p["contract"]),
    )
    inv = cover_mod.minimal_model(spec, plan)
    checks = [equality_check(f"{p['name']}/k2", inv.k2_minimal, expected_k2)]
    if expect_ample:
        checks.append(equality_check(f"{p['name']}/ample-proxy", inv.ample_proxy, True))
    return checks


# ---------------------------------------------------------------------------
# handlers: lefschetz suite


def check_involution_counts(wb, p) -> list[Check]:
    got = lef.involution_counts(_int(p["kr"], "kr"), _int(p["r2"], "r2"))
    return [equality_check(p["name"], got, _ints(p["expected"], "expected"))]


def check_order3_counts(wb, p) -> list[Check]:
    got = lef.order3_counts(_int(p["kr"], "kr"), _int(p["r2"], "r2"), _int(p["tr"], "tr"))
    expected = None if p["expected"] is None else _ints(p["expected"], "expected")
    return [equality_check(p["name"], got, expected)]


def check_range_filter(wb, p) -> list[Check]:
    got = lef.involution_range_filter(
        _int(p["k2"], "k2"),
        r2=_int(p["r2"], "r2") if "r2" in p else None,
        exclude=_ints(p.get("exclude", []), "exclude"),
    )
    return [equality_check(p["name"], got, list(_ints(p["expected"], "expected")))]


def check_diophantine(wb, p) -> list[Check]:
    box = None
    if "box" in p:
        box = {k: range(_int(lo, f"box.{k}"), _int(hi, f"box.{k}") + 1)
               for k, (lo, hi) in p["box"].items()}
    target = _ints(p["target"], "target") if "target" in p else None
    expected = sorted(_ints(sol, "expected") for sol in p["expected"])
    got = lef.diophantine_enumerate(p["constraint"], box=box, target=target)
    return [equality_check(p["name"], sorted(got), expected)]


def check_det_identity(wb, p) -> list[Check]:
    """Pointwise agreement of the 3x3 intersection determinant with the
    closed form that the "ample-obstruction-det" enumeration solves, and
    emptiness of the admissible locus."""
    closed_form = lef.NAMED_CONSTRAINTS["ample-obstruction-det"][1]
    a_values = range(_int(p["a_min"], "a_min"), _int(p["a_max"], "a_max") + 1)
    b_values = range(_int(p["b_min"], "b_min"), _int(p["b_max"], "b_max") + 1)
    mismatches = []
    for a in a_values:
        for b in b_values:
            if gram_det([[7, a, 0], [a, 1, b], [0, b, -2]]) != closed_form(a, b):
                mismatches.append((a, b))
    checks = [equality_check(f"{p['name']}/closed-form", mismatches, [])]
    admissible = lef.involution_range_filter(7, r2=1)
    solutions = [
        (a, b)
        for (a, b) in lef.diophantine_enumerate("ample-obstruction-det")
        if a in admissible
    ]
    checks.append(equality_check(f"{p['name']}/no-admissible-zero", solutions, []))
    return checks


def check_theorem11(wb, p) -> list[Check]:
    return [replace(c, name=f"{p['name']}/{c.name}")
            for c in lef.theorem11_consistency(p["case"])]


def check_subgroups(wb, p) -> list[Check]:
    group = groups_mod.FiniteAbelianGroup(_ints(p["orders"], "orders"))
    elementary_only = _bool(p.get("elementary_only", False), "elementary_only")
    subs = groups_mod.subgroups_of_order(group, _int(p["n"], "n"),
                                         elementary_only=elementary_only)
    return [equality_check(p["name"], len(subs), _int(p["expected_count"], "expected_count"))]


def check_common_involution(wb, p) -> list[Check]:
    group = groups_mod.FiniteAbelianGroup(_ints(p["orders"], "orders"))
    subs = groups_mod.subgroups_of_order(group, _int(p["n"], "n"))
    got = groups_mod.pairwise_common_involution(group, subs)
    return [equality_check(p["name"], got, _bool(p["expected"], "expected"))]


def check_restriction_level(wb, p) -> list[Check]:
    group = groups_mod.FiniteAbelianGroup(_ints(p["orders"], "orders"))
    pair = groups_mod.CyclicPair(group, _ints(p["generator"], "generator"),
                                 _int(p["exponent"], "exponent"))
    got = groups_mod.restriction_level(pair, _ints(p["character"], "character"))
    return [equality_check(p["name"], got, _int(p["expected"], "expected"))]


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

# kinds whose handler reads derived cover data, which means nothing when
# the file's cover data failed validation
NEEDS_VALID_COVER = frozenset({
    "derived_class", "solve_matches_derived", "branch_points", "preimage_consistency",
    "canonical_cover", "invariants", "h0_vanishing", "quotient_cover", "minimal_model",
})


def run_check(wb, params: dict) -> list[Check]:
    """The checks of one file entry, with the harness decisions made here
    once for every handler: an unknown kind fails; a kind in
    NEEDS_VALID_COVER reports `unsupported` when its cover failed
    validation; a SpecError is raised again naming the check; any other
    exception becomes a failing check; and the entry's `tag`, when it has
    one, replaces the tags of all its checks."""
    name, kind = params.get("name", "?"), params.get("kind")
    try:
        if kind not in HANDLERS:
            checks = [Check(name, FAIL, f"unknown check kind {kind!r}", "known check kind")]
        elif kind in NEEDS_VALID_COVER and not wb.cover_valid(params["cover"]):
            checks = [Check(name, UNSUPPORTED, "cover data failed validation",
                            "valid cover data")]
        else:
            checks = HANDLERS[kind](wb, params)
    except SpecError as exc:
        raise SpecError(f"check {name}: {exc}") from None
    except Exception as exc:  # a check must never crash the harness
        checks = [Check(name, FAIL, f"{type(exc).__name__}: {exc}", "check evaluates cleanly")]
    if "tag" in params:
        checks = [replace(c, tag=params["tag"]) for c in checks]
    return checks


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
