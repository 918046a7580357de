"""Check handlers: the small declarative language used by workbench files.

Each check is a JSON object with a unique `name`, a `kind` selecting the
handler, an optional `suite` and citation `tag`, and the fields of its kind:
the handler's parameters after `wb`, required unless they have a default
(`class_` reads the field `class`).  Handlers compute exact values and
compare them with the expected data frozen in the file, returning a list
of `Check`.  Every value a handler reads from the file goes through one of
the readers below, which raise `SpecError` naming the field.  `bind_checks`
holds each entry to its fields when the file is parsed, and `run_check`
makes the harness decisions once for every handler; see there.
"""

from __future__ import annotations

import inspect
from dataclasses import replace
from fractions import Fraction
from keyword import iskeyword

from . import cover as cover_mod
from . import groups as groups_mod
from . import lefschetz as lef
from . import surface as surface_mod
from .lattice import (DivisorClass, NotDivisible, Unsolvable, abstract_lattice,
                      adjunction_genus, format_class, gram_det, hodge_index_bound, solve_divide,
                      solve_linear)
from .report import FAIL, PASS, UNSUPPORTED, Check, equality_check

SUITES = ("lattice", "surface", "cover", "lefschetz", "all")


class SpecError(Exception):
    """Schema or semantic error in a workbench file (exit code 2)."""


# ---------------------------------------------------------------------------
# readers for the values of a workbench file


def _fields(obj, where: str, required, optional=()) -> dict:
    """The JSON object `obj`, refused naming the field when it lacks a
    required field, has a field it does not know, or holds an explicit null
    in an optional field, which would otherwise read as absent."""
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: expected an object, got {obj!r}")
    for key in required:
        if key not in obj:
            raise SpecError(f"{where}.{key}: missing field")
    for key, value in obj.items():
        if key not in required and key not in optional:
            known = ", ".join(sorted((*required, *optional)))
            raise SpecError(f"{where}.{key}: unknown field; known fields: {known}")
        if value is None and key in optional:
            raise SpecError(f"{where}.{key}: expected a value, got null")
    return obj


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


def _list(values, where: str, of: str) -> list:
    # iterating a number raises TypeError, and a string reads as its characters
    if not isinstance(values, list):
        raise SpecError(f"{where}: expected a list of {of}, got {values!r}")
    return values


def _ints(values, where: str) -> tuple[int, ...]:
    return tuple(_int(x, where) for x in _list(values, where, "integers"))


def _interval(value, where: str) -> range:
    """The integers lo..hi of a list [lo, hi]."""
    bounds = _ints(value, where)
    if len(bounds) != 2:
        raise SpecError(f"{where}: expected [lo, hi], got {value!r}")
    return range(bounds[0], bounds[1] + 1)


def _bool(value, where: str) -> bool:
    # bool() would read the string "false" as True
    if isinstance(value, bool):
        return value
    raise SpecError(f"{where}: expected true or false, got {value!r}")


def _str(value, where: str) -> str:
    if isinstance(value, str):
        return value
    raise SpecError(f"{where}: expected a string, got {value!r}")


def _strs(values, where: str) -> list[str]:
    return [_str(x, f"{where}[{i}]") for i, x in enumerate(_list(values, where, "strings"))]


def _choice(value, known, where: str) -> str:
    """One of the names in `known`."""
    if isinstance(value, str) and value in known:
        return value
    raise SpecError(f"{where}: expected one of {', '.join(sorted(known))}, got {value!r}")


def resolve_class(lattice, class_map, where: str) -> DivisorClass:
    if not isinstance(class_map, dict):
        raise SpecError(f"{where}: expected a symbol->coefficient map")
    for sym in sorted(class_map):
        if sym not in lattice.names:
            raise SpecError(f"{where}: unknown basis symbol {sym!r}")
    return lattice.divisor({sym: _rat(c, f"{where}.{sym}") for sym, c in sorted(class_map.items())})


def _element(group, value, where: str) -> tuple[int, ...]:
    """A group element or character: one residue per cyclic factor, reduced."""
    residues = _ints(value, where)
    if len(residues) != len(group.orders):
        raise SpecError(f"{where}: expected {len(group.orders)} residues, got {list(residues)}")
    return group.reduce(residues)


def _components(spec, names, where: str) -> list:
    """The branch components of a cover that a check names."""
    by_name = spec.branch_by_name()
    if not isinstance(names, list) or not all(isinstance(n, str) and n in by_name for n in names):
        raise SpecError(f"{where}: expected names of branch components, got {names!r}")
    return [by_name[n] for n in names]


def _class_set(records):
    return sorted(format_class(r.cls) for r in records)


def _classes(lattice, maps, where: str) -> list[DivisorClass]:
    return [resolve_class(lattice, m, f"{where}[{i}]")
            for i, m in enumerate(_list(maps, where, "classes"))]


def _expected_class_set(surface, maps, where: str):
    return sorted(format_class(cls) for cls in _classes(surface.lattice, maps, where))


def _matrix(rows, where: str) -> list[list[Fraction]]:
    return [[_rat(x, f"{where}[{i}][{j}]")
             for j, x in enumerate(_list(row, f"{where}[{i}]", "entries"))]
            for i, row in enumerate(_list(rows, where, "rows"))]


def _abstract_lattice(basis, gram):
    return abstract_lattice(_strs(basis, "basis"), _matrix(gram, "gram"))


# ---------------------------------------------------------------------------
# handlers: lattice suite


def check_intersect(wb, name, surface, lhs, rhs, expected):
    lhs = resolve_class(surface.lattice, lhs, "lhs")
    rhs = resolve_class(surface.lattice, rhs, "rhs")
    return [equality_check(name, lhs.dot(rhs), _rat(expected, "expected"))]


def check_abstract_self_intersection(wb, name, basis, gram, class_, expected, divide=1):
    lat = _abstract_lattice(basis, gram)
    cls = resolve_class(lat, class_, "class")
    value = cls.dot(cls) / _rat(divide, "divide")
    return [equality_check(name, value, _rat(expected, "expected"))]


def check_abstract_adjunction_genus(wb, name, basis, gram, class_, k_class, expected):
    lat = _abstract_lattice(basis, gram)
    cls = resolve_class(lat, class_, "class")
    k = resolve_class(lat, k_class, "k_class")
    return [equality_check(name, adjunction_genus(cls, k), _rat(expected, "expected"))]


def check_gram_det(wb, name, matrix, expected):
    det = gram_det(_matrix(matrix, "matrix"))
    return [equality_check(name, det, _rat(expected, "expected"))]


def check_blowup_basis_det(wb, name, surface):
    classes = [surface.lattice.divisor({sym: 1}) for sym in surface.lattice.names]
    expected = Fraction((-1) ** len(surface.lattice.exceptional_names))
    return [equality_check(name, gram_det(classes), expected)]


def check_adjunction_genus(wb, name, surface, class_, expected):
    cls = resolve_class(surface.lattice, class_, "class")
    return [equality_check(name, adjunction_genus(cls, surface.canonical),
                           _rat(expected, "expected"))]


def check_solve_divide(wb, name, surface, class_, n, expected_class):
    cls = resolve_class(surface.lattice, class_, "class")
    got = solve_divide(cls, _int(n, "n"))
    expected = resolve_class(surface.lattice, expected_class, "expected_class")
    return [equality_check(name, format_class(got), format_class(expected))]


def check_hodge_bound(wb, name, k2, kd, expected, d2=None):
    k2, kd = _rat(k2, "k2"), _rat(kd, "kd")
    if d2 is not None:
        verdict = hodge_index_bound(k2, kd, _rat(d2, "d2"))
        return [equality_check(name, verdict, _bool(expected, "expected"))]
    bound = hodge_index_bound(k2, kd)
    floor = bound.numerator // bound.denominator
    return [equality_check(name, floor, _int(expected, "expected"))]


# ---------------------------------------------------------------------------
# handlers: surface suite


def check_collinear_sets(wb, name, surface, expected):
    got = sorted(sorted(group) for group in surface.collinear_sets)
    expected = sorted(sorted(_strs(group, f"expected[{i}]"))
                      for i, group in enumerate(_list(expected, "expected", "lists of strings")))
    return [equality_check(name, got, expected)]


def check_minus_two_catalog(wb, name, surface, expected_classes):
    expected = _expected_class_set(surface, expected_classes, "expected_classes")
    return [equality_check(name, _class_set(surface_mod.minus_two_curves(surface)), expected)]


def check_isolated_minus_one(wb, name, surface, expected_classes):
    expected = _expected_class_set(surface, expected_classes, "expected_classes")
    return [equality_check(name, _class_set(surface_mod.isolated_minus_one_curves(surface)),
                           expected)]


def check_catalog_counts(wb, name, surface, expected_minus_one, expected_minus_two):
    expected = (_int(expected_minus_one, "expected_minus_one"),
                _int(expected_minus_two, "expected_minus_two"))
    got = (len(surface_mod.minus_one_curves(surface)), len(surface_mod.minus_two_curves(surface)))
    return [equality_check(name, got, expected)]


def check_pencils_include(wb, name, surface, classes):
    resolved = _classes(surface.lattice, classes, "classes")
    found = {pen.cls.coeffs for pen in surface_mod.find_pencils(surface)}
    missing = [m for m, cls in zip(classes, resolved) if cls.coeffs not in found]
    status = PASS if not missing else FAIL
    return [Check(name, status,
                  computed="all present" if not missing else f"missing {missing}",
                  expected="pencil classes present")]


def _decomposition_key(parts):
    return tuple(sorted((format_class(rec.cls), mult) for rec, mult in parts))


def check_singular_members(wb, name, surface, pencil, expected):
    pencil = surface_mod.Pencil(resolve_class(surface.lattice, pencil, "pencil"))
    expected = _list(expected, "expected", "decompositions")
    for i, decomp in enumerate(expected):
        for j, part in enumerate(_list(decomp, f"expected[{i}]", "parts")):
            _fields(part, f"expected[{i}][{j}]", ("class", "multiplicity"))
    expected = sorted(
        tuple(sorted((format_class(resolve_class(surface.lattice, part["class"],
                                                 f"expected[{i}][{j}].class")),
                      _int(part["multiplicity"], f"expected[{i}][{j}].multiplicity"))
                     for j, part in enumerate(decomp)))
        for i, decomp in enumerate(expected)
    )
    got = sorted(_decomposition_key(d) for d in surface_mod.singular_members(surface, pencil))
    return [equality_check(name, got, expected)]


def check_contract(wb, name, surface, classes, expected_nodes, expected_k2_after,
                   expected_disjoint_remainder=None):
    resolved = _classes(surface.lattice, classes, "classes")
    expected = (_int(expected_nodes, "expected_nodes"),
                str(_rat(expected_k2_after, "expected_k2_after")))
    by_class = surface.catalog_by_class()
    recs = []
    for cls in resolved:
        rec = by_class.get(cls.coeffs)
        if rec is None:
            return [Check(name, FAIL, f"{format_class(cls)} not in catalog", "catalogued curve")]
        recs.append(rec)
    record = surface_mod.contract(surface, recs)
    got = (record.nodes, str(record.k2_after))
    checks = [equality_check(name, got, expected)]
    if expected_disjoint_remainder is not None:
        remainder = _expected_class_set(surface, expected_disjoint_remainder,
                                        "expected_disjoint_remainder")
        contracted = {r.cls.coeffs for r in recs}
        rest = [r for r in surface_mod.minus_two_curves(surface)
                if r.cls.coeffs not in contracted]
        ok = all(r.cls.dot(c.cls) == 0 for r in rest for c in recs)
        names = sorted(format_class(r.cls) for r in rest)
        checks.append(equality_check(f"{name}/remainder", (names, ok), (remainder, True)))
    return checks


# ---------------------------------------------------------------------------
# handlers: cover suite


def check_cover_relations(wb, name, cover):
    return list(wb.validation(cover.name))


def check_relation_sum(wb, name, cover, character, expected_class):
    chi = _element(cover.group, character, "character")
    expected = resolve_class(cover.base.lattice, expected_class, "expected_class")
    m = cover.group.element_order(chi)
    rhs = cover_mod.relation_rhs(cover, chi)
    out = [equality_check(f"{name}/sum", format_class(rhs), format_class(expected))]
    given = dict(cover.reduced_l)
    if chi in given:
        out.append(equality_check(f"{name}/equals-{m}L", format_class(m * given[chi]),
                                  format_class(expected)))
    return out


def check_derived_class(wb, name, cover, character, expected_class=None, minuend=None,
                        subtract_components=None):
    derived = cover.all_l
    chi = _element(cover.group, character, "character")
    got = derived[chi]
    checks = []
    if expected_class is not None:
        expected = resolve_class(cover.base.lattice, expected_class, "expected_class")
        checks.append(equality_check(name, format_class(got), format_class(expected)))
    if minuend is not None or subtract_components is not None:
        _fields(minuend, "minuend", ("character", "multiple"))
        base_chi = _element(cover.group, minuend["character"], "minuend.character")
        mult = _int(minuend["multiple"], "minuend.multiple")
        combo = mult * derived[base_chi]
        for comp in _components(cover, subtract_components, "subtract_components"):
            combo = combo - comp.curve
        checks.append(equality_check(f"{name}/combination", format_class(got),
                                     format_class(combo)))
    return checks


def check_solve_matches_derived(wb, name, cover):
    solution = solve_linear(cover_mod.building_data_relations(cover))
    ok = solution.degrees_of_freedom == 0
    mismatches = []
    for chi, cls in cover.all_l.items():
        if chi == cover.group.identity():
            continue
        unknown = cover_mod.character_unknown_name(chi)
        if solution.classes[unknown] != cls:
            mismatches.append(unknown)
    ok = ok and not mismatches
    return [Check(name, PASS if ok else FAIL,
                  computed=("unique solution matching the derived sheaves" if ok
                            else f"dof={solution.degrees_of_freedom}, mismatches={mismatches}"),
                  expected="solver agrees with the pair-rule derivation")]


def check_branch_points(wb, name, cover, expected_nodes, expected_total_nodes):
    for i, n in enumerate(_list(expected_nodes, "expected_nodes", "nodes")):
        _fields(n, f"expected_nodes[{i}]", ("pair", "points", "preimages", "inertia_order"))
    expected_nodes = sorted(
        (tuple(sorted(_strs(n["pair"], f"expected_nodes[{i}].pair"))),
         _int(n["points"], f"expected_nodes[{i}].points"),
         _int(n["preimages"], f"expected_nodes[{i}].preimages"),
         _int(n["inertia_order"], f"expected_nodes[{i}].inertia_order"))
        for i, n in enumerate(expected_nodes)
    )
    expected_total = _int(expected_total_nodes, "expected_total_nodes")
    analyses = cover.branch_points
    nodes = sorted(
        (tuple(sorted(a.location)), a.crossing_points, a.preimage_count, a.inertia_order)
        for a in analyses if a.verdict == cover_mod.VERDICT_NODE_A1
    )
    others_smooth = all(
        a.verdict == cover_mod.VERDICT_SMOOTH
        for a in analyses if a.verdict != cover_mod.VERDICT_NODE_A1
    )
    return [
        equality_check(f"{name}/nodes", nodes, expected_nodes),
        equality_check(f"{name}/others-smooth", others_smooth, True),
        equality_check(f"{name}/total-nodes", cover_mod.node_count(cover), expected_total),
    ]


def check_pullback(wb, name, cover, component, expected):
    e = _fields(expected, "expected", ("e", "n", "d", "s"))
    expected = (_int(e["e"], "expected.e"), _int(e["n"], "expected.n"),
                _int(e["d"], "expected.d"), str(_rat(e["s"], "expected.s")))
    comp, = _components(cover, [component], "component")
    pb = cover_mod.pullback(cover, comp)
    got = (pb.ramification_multiplicity, pb.components, pb.map_degree, str(pb.self_intersection))
    return [equality_check(name, got, expected)]


def check_preimage_consistency(wb, name, cover, components="all"):
    comps = cover.branch if components == "all" else _components(cover, components, "components")
    out = []
    for comp in comps:
        if comp.curve.is_zero:
            continue
        rep = cover_mod.preimage_consistency(cover, comp)
        out.append(Check(
            f"{name}/{comp.name}",
            PASS if rep.ok else FAIL,
            computed=f"d={rep.map_degree}, r={rep.ramification}, genus={rep.hurwitz_genus} ({rep.reason})",
            expected="asserted component count is arithmetically consistent",
        ))
    return out


def check_canonical_cover(wb, name, cover, n, expected_k2, expected_class=None):
    expected_k2 = _rat(expected_k2, "expected_k2")
    cls, k2 = cover_mod.canonical_cover(cover, _int(n, "n"))
    checks = [equality_check(f"{name}/k2", k2, expected_k2)]
    if expected_class is not None:
        expected = resolve_class(cover.base.lattice, expected_class, "expected_class")
        checks.append(equality_check(f"{name}/class", format_class(cls),
                                     format_class(expected)))
    return checks


def check_invariants(wb, name, cover, expected):
    e = _fields(expected, "expected", ("chi", "p_g", "q"), ("k2_cover",))
    expected = {"chi": _int(e["chi"], "expected.chi"), "p_g": _int(e["p_g"], "expected.p_g"),
                "q": _int(e["q"], "expected.q")}
    inv = cover_mod.invariants(cover)
    got = {"chi": inv.chi, "p_g": inv.p_g, "q": inv.q}
    if "k2_cover" in e:
        got["k2_cover"] = str(inv.k2_cover)
        expected["k2_cover"] = str(_rat(e["k2_cover"], "expected.k2_cover"))
    return [equality_check(name, got, expected)]


def check_h0_vanishing(wb, name, cover):
    return cover_mod.h0_vanishing_checks(cover)


def check_quotient_cover(wb, name, cover, character, expected_branch, expected_k2):
    expected_k2 = _rat(expected_k2, "expected_k2")
    expected_branch = sorted(_strs(expected_branch, "expected_branch"))
    quotient = cover_mod.quotient_cover(cover, _element(cover.group, character, "character"))
    got_branch = sorted(c.name for c in quotient.branch)
    _cls, k2 = cover_mod.canonical_cover(quotient, 2)
    return [equality_check(f"{name}/branch", got_branch, expected_branch),
            equality_check(f"{name}/k2", k2, expected_k2)]


def check_minimal_model(wb, name, cover, simple, node_threading, contract, expected_k2,
                        expect_ample=None):
    # expect_ample is a claim either way, true or false; absent, no claim
    expected_k2 = _rat(expected_k2, "expected_k2")
    if expect_ample is not None:
        expect_ample = _bool(expect_ample, "expect_ample")
    plan = cover_mod.ContractionPlan(
        simple=_int(simple, "simple"),
        node_threading=_int(node_threading, "node_threading"),
        contracted_base=tuple(c.name for c in _components(cover, contract, "contract")),
    )
    inv = cover_mod.minimal_model(cover, plan)
    checks = [equality_check(f"{name}/k2", inv.k2_minimal, expected_k2)]
    if expect_ample is not None:
        checks.append(equality_check(f"{name}/ample-proxy", inv.ample_proxy, expect_ample))
    return checks


# ---------------------------------------------------------------------------
# handlers: lefschetz suite


def check_involution_counts(wb, name, kr, r2, expected):
    got = lef.involution_counts(_int(kr, "kr"), _int(r2, "r2"))
    return [equality_check(name, got, _ints(expected, "expected"))]


def check_order3_counts(wb, name, kr, r2, tr, expected):
    got = lef.order3_counts(_int(kr, "kr"), _int(r2, "r2"), _int(tr, "tr"))
    expected = None if expected is None else _ints(expected, "expected")
    return [equality_check(name, got, expected)]


def check_range_filter(wb, name, k2, expected, r2=None, exclude=None):
    got = lef.involution_range_filter(
        _int(k2, "k2"),
        r2=None if r2 is None else _int(r2, "r2"),
        exclude=() if exclude is None else _ints(exclude, "exclude"),
    )
    return [equality_check(name, got, list(_ints(expected, "expected")))]


def check_diophantine(wb, name, constraint, expected, box=None, target=None):
    constraint = _choice(constraint, lef.NAMED_CONSTRAINTS, "constraint")
    if box is not None:
        _fields(box, "box", lef.NAMED_CONSTRAINTS[constraint][0])  # one per variable
        box = {k: _interval(bounds, f"box.{k}") for k, bounds in box.items()}
    target = None if target is None else _ints(target, "target")
    expected = sorted(_ints(sol, f"expected[{i}]")
                      for i, sol in enumerate(_list(expected, "expected", "solutions")))
    got = lef.diophantine_enumerate(constraint, box=box, target=target)
    return [equality_check(name, sorted(got), expected)]


def check_det_identity(wb, name, a_min, a_max, b_min, b_max):
    """Pointwise agreement of the 3x3 intersection determinant with the
    closed form that the "ample-obstruction-det" enumeration solves, and
    emptiness of the admissible locus."""
    closed_form = lef.NAMED_CONSTRAINTS["ample-obstruction-det"][1]
    a_values = range(_int(a_min, "a_min"), _int(a_max, "a_max") + 1)
    b_values = range(_int(b_min, "b_min"), _int(b_max, "b_max") + 1)
    mismatches = []
    for a in a_values:
        for b in b_values:
            if gram_det([[7, a, 0], [a, 1, b], [0, b, -2]]) != closed_form(a, b):
                mismatches.append((a, b))
    checks = [equality_check(f"{name}/closed-form", mismatches, [])]
    admissible = lef.involution_range_filter(7, r2=1)
    solutions = [
        (a, b)
        for (a, b) in lef.diophantine_enumerate("ample-obstruction-det")
        if a in admissible
    ]
    checks.append(equality_check(f"{name}/no-admissible-zero", solutions, []))
    return checks


def check_theorem11(wb, name, case):
    return [replace(c, name=f"{name}/{c.name}")
            for c in lef.theorem11_consistency(_choice(case, lef.CASE_TABLE, "case"))]


def check_subgroups(wb, name, orders, n, expected_count, elementary_only=False):
    group = groups_mod.FiniteAbelianGroup(_ints(orders, "orders"))
    subs = groups_mod.subgroups_of_order(group, _int(n, "n"),
                                         elementary_only=_bool(elementary_only, "elementary_only"))
    return [equality_check(name, len(subs), _int(expected_count, "expected_count"))]


def check_common_involution(wb, name, orders, n, expected):
    group = groups_mod.FiniteAbelianGroup(_ints(orders, "orders"))
    subs = groups_mod.subgroups_of_order(group, _int(n, "n"))
    got = groups_mod.pairwise_common_involution(group, subs)
    return [equality_check(name, got, _bool(expected, "expected"))]


def check_restriction_level(wb, name, orders, generator, exponent, character, expected):
    group = groups_mod.FiniteAbelianGroup(_ints(orders, "orders"))
    pair = groups_mod.CyclicPair(group, _element(group, generator, "generator"),
                                 _int(exponent, "exponent"))
    got = groups_mod.restriction_level(pair, _element(group, character, "character"))
    return [equality_check(name, got, _int(expected, "expected"))]


# kind -> handler: the `check_<kind>` functions above, the one declaration of each kind
HANDLERS = {name.removeprefix("check_"): fn for name, fn in list(globals().items())
            if name.startswith("check_")}


def _fields_of(handler) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The required and the optional fields of a handler's kind: its
    parameters after `wb`, optional when they have a default."""
    params = list(inspect.signature(handler).parameters.values())[1:]
    required = tuple(p.name.rstrip("_") for p in params if p.default is p.empty)
    optional = tuple(p.name.rstrip("_") for p in params if p.default is not p.empty)
    return required, optional


FIELDS = {kind: _fields_of(handler) for kind, handler in HANDLERS.items()}
# the fields of an entry that the harness reads instead of the handler
HARNESS_FIELDS = ("kind", "suite", "tag")

# raised when a claimed class or derivation does not exist; any other exception
# is a fault, which proves nothing about the claim
REFUTATIONS = (cover_mod.InconsistentDerivation, cover_mod.AccountingError,
               cover_mod.CoverDataError, NotDivisible, Unsolvable)

# kinds whose handler reads derived cover data, which means nothing when
# the file's cover data failed validation
NEEDS_VALID_COVER = frozenset({
    "derived_class", "solve_matches_derived", "branch_points", "preimage_consistency",
    "canonical_cover", "invariants", "h0_vanishing", "quotient_cover", "minimal_model",
})


def bind_checks(entries, surfaces, covers) -> None:
    """Hold each (field path, object) of a file's `checks` to the fields of
    its kind, with unique names and `surface` and `cover` ids among the
    file's `surfaces` and `covers`; a SpecError names the offending field."""
    names = set()
    for where, raw in entries:
        for field in ("name", "kind"):
            _str(raw.get(field), f"{where}.{field}")
        for field in ("tag", "surface", "cover"):
            _str(raw.get(field, ""), f"{where}.{field}")
        if raw["kind"] not in HANDLERS:
            raise SpecError(f"{where}.kind: unknown check kind {raw['kind']!r}")
        required, optional = FIELDS[raw["kind"]]
        _fields(raw, where, required, (*HARNESS_FIELDS, *optional))
        _choice(raw.get("suite", "all"), SUITES, f"{where}.suite")
        if raw["name"] in names:
            raise SpecError(f"{where}.name: duplicate check name {raw['name']!r}")
        names.add(raw["name"])
        for field, ids in (("surface", surfaces), ("cover", covers)):
            if field in raw and raw[field] not in ids:
                raise SpecError(f"{where}.{field}: unknown {field} {raw[field]!r}")


def run_check(wb, params: dict) -> list[Check]:
    """The checks of one entry that `bind_checks` accepted, with the harness
    decisions made here once for every handler: the handler gets the entry's
    fields, its `surface` and `cover` ids resolved to the built objects; a
    kind in NEEDS_VALID_COVER reports `unsupported` when its cover failed
    validation; a SpecError, or an entry that yields no check, is raised
    again naming the check; an exception in REFUTATIONS becomes a failing
    check, and any other one an `unsupported` check naming it; and the
    entry's `tag`, when it has one, replaces the tags of all its checks."""
    name, kind = params["name"], params["kind"]
    args = {f"{k}_" if iskeyword(k) else k: v
            for k, v in params.items() if k not in HARNESS_FIELDS}
    try:
        if kind in NEEDS_VALID_COVER and not wb.cover_valid(args["cover"]):
            checks = [Check(name, UNSUPPORTED, "cover data failed validation",
                            "valid cover data")]
        else:
            for field, build in (("surface", wb.surface), ("cover", wb.cover)):
                if field in args:
                    args[field] = build(args[field])
            checks = HANDLERS[kind](wb, **args)
        if not checks:
            raise SpecError("the entry yields no report line")
    except SpecError as exc:
        raise SpecError(f"check {name}: {exc}") from None
    except Exception as exc:  # a check must never crash the harness
        status = FAIL if isinstance(exc, REFUTATIONS) else UNSUPPORTED
        checks = [Check(name, status, f"{type(exc).__name__}: {exc}", "check evaluates cleanly")]
    if "tag" in params:
        checks = [replace(c, tag=params["tag"]) for c in checks]
    return checks
