"""Check handlers: the small declarative language used by workbench files.

Each check is a JSON object with a unique `name`, a `kind` selecting the
handler, an optional `suite` and citation `tag`, and the fields of its kind:
the handler's parameters, required unless they have a default (`class_`
reads the field `class`).  The annotation of a parameter is the
reader of its field, one of the readers below, which raise `SpecError`
naming the field.  `bind_checks` runs every reader on every entry when the
file is parsed, so an input error names `checks[i].<path>` before any check
runs; the handlers get the values read and the entry's `surface` and `cover`
as the file built them, compute exact values and compare them with the
claims, returning a list of `Check`.  `run_check` makes the harness
decisions once for every handler; see there.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from fractions import Fraction

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
# readers for the values of a workbench file.  A reader takes the value, its
# field path and the entry's scope: the values read before it, and the
# entry's surface and cover as the file builds them.


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


def _rat(value, where: str, scope=None) -> Fraction:
    # bool is an int subclass, but a JSON true is no coefficient
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise SpecError(f"{where}: expected an integer or 'p/q' string, got {value!r}")


def _rat_text(value, where: str, scope=None) -> str:
    # compared inside tuples and maps, whose str would show a Fraction's repr
    return str(_rat(value, where))


def _int(value, where: str, scope=None) -> int:
    # int() would truncate 2.5 to 2 and read a JSON true as 1
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SpecError(f"{where}: expected an integer, got {value!r}")


def _positive(value, where: str, scope=None) -> int:
    if _int(value, where) < 1:
        raise SpecError(f"{where}: expected a positive integer, got {value!r}")
    return value


def _positive_rat(value, where: str, scope=None) -> Fraction:
    rat = _rat(value, where)
    if rat <= 0:
        raise SpecError(f"{where}: expected a positive integer or 'p/q' string, got {value!r}")
    return rat


def _nonzero_rat(value, where: str, scope=None) -> Fraction:
    rat = _rat(value, where)
    if rat == 0:
        raise SpecError(f"{where}: expected a nonzero integer or 'p/q' string, got {value!r}")
    return rat


def _bool(value, where: str, scope=None) -> bool:
    # bool() would read the string "false" as True
    if isinstance(value, bool):
        return value
    raise SpecError(f"{where}: expected true or false, got {value!r}")


def _str(value, where: str, scope=None) -> str:
    if isinstance(value, str):
        return value
    raise SpecError(f"{where}: expected a string, got {value!r}")


def _list_of(read, of: str):
    """The reader of a list whose elements `read` reads, each named by its index."""
    def read_list(values, where: str, scope=None) -> list:
        # iterating a number raises TypeError, and a string reads as its characters
        if not isinstance(values, list):
            raise SpecError(f"{where}: expected a list of {of}, got {values!r}")
        return [read(x, f"{where}[{i}]", scope) for i, x in enumerate(values)]
    return read_list


def _object(readers: dict, optional=()):
    """The reader of a JSON object with the fields that `readers` read,
    required unless `optional` names them; it returns the values read."""
    required = tuple(key for key in readers if key not in optional)

    def read_object(obj, where: str, scope=None) -> dict:
        _fields(obj, where, required, optional)
        return {key: read(obj[key], f"{where}.{key}", scope)
                for key, read in readers.items() if key in obj}
    return read_object


def _one_of(known):
    """The reader of one of the names in `known`."""
    def read_name(value, where: str, scope=None) -> str:
        if isinstance(value, str) and value in known:
            return value
        raise SpecError(f"{where}: expected one of {', '.join(sorted(known))}, got {value!r}")
    return read_name


_strs = _list_of(_str, "strings")
_int_list = _list_of(_int, "integers")
_matrix = _list_of(_list_of(_rat, "entries"), "rows")


def _ints(values, where: str, scope=None) -> tuple[int, ...]:
    return tuple(_int_list(values, where))


def _triple(values, where: str, scope=None) -> tuple[int, int, int]:
    triple = _ints(values, where)
    if len(triple) != 3:
        raise SpecError(f"{where}: expected 3 integers, got {values!r}")
    return triple


def _ints_or_null(values, where: str, scope=None):
    return None if values is None else _ints(values, where)


def _interval(value, where: str, scope=None) -> range:
    """The integers lo..hi of a list [lo, hi]."""
    bounds = _ints(value, where)
    if len(bounds) != 2:
        raise SpecError(f"{where}: expected [lo, hi], got {value!r}")
    return range(bounds[0], bounds[1] + 1)


def _group(orders, where: str, scope=None) -> groups_mod.FiniteAbelianGroup:
    """The group with these cyclic factor orders."""
    try:
        return groups_mod.FiniteAbelianGroup(_ints(orders, where))
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from None


def _orders(orders, where: str, scope=None) -> groups_mod.FiniteAbelianGroup:
    """The group of a check's `orders`, which names at least one cyclic factor."""
    if orders == []:
        raise SpecError(f"{where}: expected at least one cyclic factor order, got []")
    return _group(orders, where)


def _subgroup_order(value, where: str, scope) -> int:
    """A subgroup order: a positive divisor of the order of the entry's `orders`."""
    n = _positive(value, where)
    order = scope["orders"].order
    if order % n:
        raise SpecError(f"{where}: {n} does not divide the group order {order}")
    return n


def _element(group, value, where: str) -> tuple[int, ...]:
    """A group element or character: one residue per cyclic factor, reduced."""
    residues = _ints(value, where)
    if len(residues) != len(group.orders):
        raise SpecError(f"{where}: expected {len(group.orders)} residues, got {list(residues)}")
    return group.reduce(residues)


def _group_element(value, where: str, scope) -> tuple[int, ...]:
    """An element or character of the entry's cover group, or of its `orders`."""
    return _element(scope["cover"].group if "cover" in scope else scope["orders"], value, where)


def _cyclic_pair(group, generator, exponent: int, generator_where: str,
                 exponent_where: str) -> groups_mod.CyclicPair:
    """The CyclicPair of a read generator and character exponent; a SpecError
    names the generator's field when it is trivial, else the exponent's."""
    try:
        return groups_mod.CyclicPair(group, generator, exponent)
    except ValueError as exc:
        trivial = group.element_order(generator) == 1
        raise SpecError(f"{generator_where if trivial else exponent_where}: {exc}") from None


def _pair_exponent(value, where: str, scope) -> groups_mod.CyclicPair:
    """The CyclicPair of the entry's `generator` with this character exponent."""
    generator_where = f"{where.rpartition('.')[0]}.generator"
    return _cyclic_pair(scope["orders"], scope["generator"], _int(value, where), generator_where,
                        where)


def resolve_class(lattice, class_map, where: str) -> DivisorClass:
    if not isinstance(class_map, dict):
        raise SpecError(f"{where}: expected a symbol->coefficient map")
    for sym in sorted(class_map):
        if sym not in lattice.names:
            raise SpecError(f"{where}: unknown basis symbol {sym!r}")
    return lattice.divisor({sym: _rat(c, f"{where}.{sym}") for sym, c in sorted(class_map.items())})


def _gram(rows, where: str, scope):
    """The lattice of the entry's `basis` with this Gram matrix."""
    try:
        return abstract_lattice(scope["basis"], _matrix(rows, where))
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from None


def _class(value, where: str, scope) -> DivisorClass:
    """A class on the entry's surface, its cover's base, or its `gram` lattice."""
    lattice = (scope["surface"].lattice if "surface" in scope
               else scope["cover"].base.lattice if "cover" in scope else scope["gram"])
    return resolve_class(lattice, value, where)


_classes = _list_of(_class, "classes")


def _component(name, where: str, scope):
    """The branch component of the entry's cover with this name."""
    by_name = scope["cover"].branch_by_name()
    if isinstance(name, str) and name in by_name:
        return by_name[name]
    raise SpecError(f"{where}: expected the name of a branch component, got {name!r}")


_components = _list_of(_component, "branch component names")


def _box(box, where: str, scope) -> dict:
    """One [lo, hi] per variable of the entry's constraint."""
    variables = lef.NAMED_CONSTRAINTS[scope["constraint"]][0]
    return _object(dict.fromkeys(variables, _interval))(box, where)


def _formatted(classes) -> list[str]:
    return sorted(format_class(cls) for cls in classes)


# ---------------------------------------------------------------------------
# handlers: lattice suite


def check_intersect(name, surface, lhs: _class, rhs: _class, expected: _rat):
    return [equality_check(name, lhs.dot(rhs), expected)]


def check_abstract_self_intersection(name, basis: _strs, gram: _gram, class_: _class,
                                     expected: _rat, divide: _nonzero_rat = 1):
    return [equality_check(name, class_.dot(class_) / divide, expected)]


def check_abstract_adjunction_genus(name, basis: _strs, gram: _gram, class_: _class,
                                    k_class: _class, expected: _rat):
    return [equality_check(name, adjunction_genus(class_, k_class), expected)]


def check_gram_det(name, matrix: _matrix, expected: _rat):
    return [equality_check(name, gram_det(matrix), expected)]


def check_blowup_basis_det(name, surface):
    classes = [surface.lattice.divisor({sym: 1}) for sym in surface.lattice.names]
    expected = Fraction((-1) ** len(surface.lattice.exceptional_names))
    return [equality_check(name, gram_det(classes), expected)]


def check_adjunction_genus(name, surface, class_: _class, expected: _rat):
    return [equality_check(name, adjunction_genus(class_, surface.canonical), expected)]


def check_solve_divide(name, surface, class_: _class, n: _positive, expected_class: _class):
    got = solve_divide(class_, n)
    return [equality_check(name, format_class(got), format_class(expected_class))]


def _hodge_claim(value, where: str, scope):
    # a verdict on the given d2, else the floor of the bound
    return _bool(value, where) if "d2" in scope else _int(value, where)


# keyword-only, so that d2 is read before the claim whose reader it selects
def check_hodge_bound(name, k2: _positive_rat, kd: _rat, *, d2: _rat = None,
                      expected: _hodge_claim):
    if d2 is not None:
        return [equality_check(name, hodge_index_bound(k2, kd, d2), expected)]
    bound = hodge_index_bound(k2, kd)
    return [equality_check(name, bound.numerator // bound.denominator, expected)]


# ---------------------------------------------------------------------------
# handlers: surface suite


def check_collinear_sets(name, surface, expected: _list_of(_strs, "lists of strings")):
    got = sorted(sorted(group) for group in surface.collinear_sets)
    return [equality_check(name, got, sorted(sorted(group) for group in expected))]


def check_minus_two_catalog(name, surface, expected_classes: _classes):
    got = _formatted(r.cls for r in surface_mod.minus_two_curves(surface))
    return [equality_check(name, got, _formatted(expected_classes))]


def check_isolated_minus_one(name, surface, expected_classes: _classes):
    got = _formatted(r.cls for r in surface_mod.isolated_minus_one_curves(surface))
    return [equality_check(name, got, _formatted(expected_classes))]


def check_catalog_counts(name, surface, expected_minus_one: _int, expected_minus_two: _int):
    got = (len(surface_mod.minus_one_curves(surface)), len(surface_mod.minus_two_curves(surface)))
    return [equality_check(name, got, (expected_minus_one, expected_minus_two))]


def check_pencils_include(name, surface, classes: _classes):
    found = {pen.cls.coeffs for pen in surface_mod.find_pencils(surface)}
    missing = [format_class(cls) for cls in classes if cls.coeffs not in found]
    return [Check(name, FAIL if missing else PASS,
                  f"missing {missing}" if missing else "all present", "pencil classes present")]


def check_singular_members(name, surface, pencil: _class, expected: _list_of(_list_of(
        _object({"class": _class, "multiplicity": _int}), "parts"), "decompositions")):
    members = surface_mod.singular_members(surface, surface_mod.Pencil(pencil))
    got = sorted(tuple(sorted((format_class(rec.cls), mult) for rec, mult in d)) for d in members)
    expected = sorted(tuple(sorted((format_class(part["class"]), part["multiplicity"])
                                   for part in d)) for d in expected)
    return [equality_check(name, got, expected)]


def check_contract(name, surface, classes: _classes, expected_nodes: _int,
                   expected_k2_after: _rat_text, expected_disjoint_remainder: _classes = None):
    by_class = surface.catalog_by_class()
    recs = []
    for cls in classes:
        rec = by_class.get(cls.coeffs)
        if rec is None:
            return [Check(name, FAIL, f"{format_class(cls)} not in catalog", "catalogued curve")]
        recs.append(rec)
    record = surface_mod.contract(surface, recs)
    got = (record.nodes, str(record.k2_after))
    checks = [equality_check(name, got, (expected_nodes, expected_k2_after))]
    if expected_disjoint_remainder is not None:
        contracted = {r.cls.coeffs for r in recs}
        rest = [r for r in surface_mod.minus_two_curves(surface) if r.cls.coeffs not in contracted]
        ok = all(r.cls.dot(c.cls) == 0 for r in rest for c in recs)
        checks.append(equality_check(f"{name}/remainder", (_formatted(r.cls for r in rest), ok),
                                     (_formatted(expected_disjoint_remainder), True)))
    return checks


# ---------------------------------------------------------------------------
# handlers: cover suite


def check_cover_relations(name, cover):
    return list(cover.validation)


def check_relation_sum(name, cover, character: _group_element, expected_class: _class):
    m = cover.group.element_order(character)
    rhs = cover_mod.relation_rhs(cover, character)
    out = [equality_check(f"{name}/sum", format_class(rhs), format_class(expected_class))]
    given = dict(cover.reduced_l)
    if character in given:
        out.append(equality_check(f"{name}/equals-{m}L", format_class(m * given[character]),
                                  format_class(expected_class)))
    return out


def _subtrahends(names, where: str, scope) -> list:
    if "minuend" not in scope:
        raise SpecError(f"{where}: given without minuend")
    return _components(names, where, scope)


def check_derived_class(name, cover, character: _group_element, expected_class: _class = None,
                        minuend: _object({"character": _group_element, "multiple": _int}) = None,
                        subtract_components: _subtrahends = ()):
    derived = cover.all_l
    got = derived[character]
    checks = []
    if expected_class is not None:
        checks.append(equality_check(name, format_class(got), format_class(expected_class)))
    if minuend is not None:
        combo = minuend["multiple"] * derived[minuend["character"]]
        for comp in subtract_components:
            combo = combo - comp.curve
        checks.append(equality_check(f"{name}/combination", format_class(got),
                                     format_class(combo)))
    return checks


def check_solve_matches_derived(name, cover):
    solution = solve_linear(cover_mod.building_data_relations(cover))
    unknowns = {cover_mod.character_unknown_name(chi): cls for chi, cls in cover.all_l.items()
                if chi != cover.group.identity()}
    mismatches = [unknown for unknown, cls in unknowns.items() if solution.classes[unknown] != cls]
    ok = solution.degrees_of_freedom == 0 and not mismatches
    return [Check(name, PASS if ok else FAIL,
                  computed=("unique solution matching the derived sheaves" if ok
                            else f"dof={solution.degrees_of_freedom}, mismatches={mismatches}"),
                  expected="solver agrees with the pair-rule derivation")]


def check_branch_points(name, cover, expected_nodes: _list_of(_object(
        {"pair": _strs, "points": _int, "preimages": _int, "inertia_order": _int}), "nodes"),
                        expected_total_nodes: _int):
    expected_nodes = sorted((tuple(sorted(n["pair"])), n["points"], n["preimages"],
                             n["inertia_order"]) for n in expected_nodes)
    analyses = cover.branch_points
    nodes = sorted((tuple(sorted(a.location)), a.crossing_points, a.preimage_count,
                    a.inertia_order) for a in analyses if a.verdict == cover_mod.VERDICT_NODE_A1)
    others_smooth = all(a.verdict == cover_mod.VERDICT_SMOOTH
                        for a in analyses if a.verdict != cover_mod.VERDICT_NODE_A1)
    total = cover_mod.node_count(cover)
    return [equality_check(f"{name}/nodes", nodes, expected_nodes),
            equality_check(f"{name}/others-smooth", others_smooth, True),
            equality_check(f"{name}/total-nodes", total, expected_total_nodes)]


def check_pullback(name, cover, component: _component,
                   expected: _object({"e": _int, "n": _int, "d": _int, "s": _rat_text})):
    pb = cover_mod.pullback(cover, component)
    got = (pb.ramification_multiplicity, pb.components, pb.map_degree, str(pb.self_intersection))
    return [equality_check(name, got, tuple(expected.values()))]


def _preimage_components(value, where: str, scope):
    if value == "all":
        return value
    if value == []:
        raise SpecError(f"{where}: the entry yields no report line")
    return _components(value, where, scope)


def check_preimage_consistency(name, cover, components: _preimage_components = "all"):
    out = []
    for comp in cover.branch if components == "all" else components:
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


def check_canonical_cover(name, cover, n: _positive, expected_k2: _rat,
                          expected_class: _class = None):
    cls, k2 = cover_mod.canonical_cover(cover, n)
    checks = [equality_check(f"{name}/k2", k2, expected_k2)]
    if expected_class is not None:
        checks.append(equality_check(f"{name}/class", format_class(cls),
                                     format_class(expected_class)))
    return checks


def check_invariants(name, cover, expected: _object(
        {"chi": _int, "p_g": _int, "q": _int, "k2_cover": _rat_text}, optional=("k2_cover",))):
    inv = cover.invariants
    got = {"chi": inv.chi, "p_g": inv.p_g, "q": inv.q, "k2_cover": str(inv.k2_cover)}
    return [equality_check(name, {key: got[key] for key in expected}, expected)]


def check_h0_vanishing(name, cover):
    return cover_mod.h0_vanishing_checks(cover)


def check_quotient_cover(name, cover, character: _group_element, expected_branch: _strs,
                         expected_k2: _rat):
    quotient = cover_mod.quotient_cover(cover, character)
    got_branch = sorted(c.name for c in quotient.branch)
    _cls, k2 = cover_mod.canonical_cover(quotient, 2)
    return [equality_check(f"{name}/branch", got_branch, sorted(expected_branch)),
            equality_check(f"{name}/k2", k2, expected_k2)]


def check_minimal_model(name, cover, simple: _int, node_threading: _int,
                        contract: _components, expected_k2: _rat, expect_ample: _bool = None):
    # expect_ample is a claim either way, true or false; absent, no claim
    plan = cover_mod.ContractionPlan(simple, node_threading, tuple(c.name for c in contract))
    inv = cover_mod.minimal_model(cover, plan)
    checks = [equality_check(f"{name}/k2", inv.k2_minimal, expected_k2)]
    if expect_ample is not None:
        checks.append(equality_check(f"{name}/ample-proxy", inv.ample_proxy, expect_ample))
    return checks


# ---------------------------------------------------------------------------
# handlers: lefschetz suite


def check_involution_counts(name, kr: _int, r2: _int, expected: _ints):
    return [equality_check(name, lef.involution_counts(kr, r2), expected)]


def check_order3_counts(name, kr: _int, r2: _int, tr: _int, expected: _ints_or_null):
    return [equality_check(name, lef.order3_counts(kr, r2, tr), expected)]


def check_range_filter(name, k2: _positive, expected: _int_list, r2: _int = None,
                       exclude: _ints = ()):
    return [equality_check(name, lef.involution_range_filter(k2, r2=r2, exclude=exclude),
                           expected)]


def check_diophantine(name, constraint: _one_of(lef.NAMED_CONSTRAINTS),
                      expected: _list_of(_ints, "solutions"), box: _box = None,
                      target: _ints = None):
    got = lef.diophantine_enumerate(constraint, box=box, target=target)
    return [equality_check(name, sorted(got), sorted(expected))]


def check_det_identity(name, a_min: _int, a_max: _int, b_min: _int, b_max: _int):
    """Pointwise agreement of the 3x3 intersection determinant with the
    closed form that the "ample-obstruction-det" enumeration solves, and
    emptiness of the admissible locus."""
    closed_form = lef.NAMED_CONSTRAINTS["ample-obstruction-det"][1]
    mismatches = [(a, b) for a in range(a_min, a_max + 1) for b in range(b_min, b_max + 1)
                  if gram_det([[7, a, 0], [a, 1, b], [0, b, -2]]) != closed_form(a, b)]
    admissible = lef.involution_range_filter(7, r2=1)
    solutions = [(a, b) for (a, b) in lef.diophantine_enumerate("ample-obstruction-det")
                 if a in admissible]
    return [equality_check(f"{name}/closed-form", mismatches, []),
            equality_check(f"{name}/no-admissible-zero", solutions, [])]


def check_theorem11(name, case: _str, expected_kr: _triple, expected_rr: _triple):
    checks = lef.theorem11_consistency(case, expected_kr, expected_rr)
    return [replace(c, name=f"{name}/{c.name}") for c in checks]


# `orders` is read as the group with those cyclic factors
def check_subgroups(name, orders: _orders, n: _subgroup_order, expected_count: _int,
                    elementary_only: _bool = False):
    subs = groups_mod.subgroups_of_order(orders, n, elementary_only=elementary_only)
    return [equality_check(name, len(subs), expected_count)]


def check_common_involution(name, orders: _orders, n: _subgroup_order, expected: _bool):
    got = groups_mod.pairwise_common_involution(orders, groups_mod.subgroups_of_order(orders, n))
    return [equality_check(name, got, expected)]


# `exponent` is read as the CyclicPair of `generator` with that character exponent
def check_restriction_level(name, orders: _orders, generator: _group_element,
                            exponent: _pair_exponent, character: _group_element, expected: _int):
    return [equality_check(name, groups_mod.restriction_level(exponent, character), expected)]


# kind -> handler: the `check_<kind>` functions above, the one declaration of each kind
HANDLERS = {name.removeprefix("check_"): fn for name, fn in list(globals().items())
            if name.startswith("check_")}
# kind -> the parameters of its handler, their annotations evaluated
_PARAMS = {kind: list(inspect.signature(fn, eval_str=True).parameters.values())
           for kind, fn in HANDLERS.items()}
# kind -> its required and its optional fields: optional when the parameter has a default
FIELDS = {kind: (tuple(p.name.rstrip("_") for p in params if p.default is p.empty),
                 tuple(p.name.rstrip("_") for p in params if p.default is not p.empty))
          for kind, params in _PARAMS.items()}
# kind -> parameter -> the reader of its field; `name`, `surface` and `cover` have none
READERS = {kind: {p.name: p.annotation for p in params if p.annotation is not p.empty}
           for kind, params in _PARAMS.items()}
# the fields of an entry that the harness reads instead of the handler
HARNESS_FIELDS = ("kind", "suite", "tag")
# kinds whose every claim is an optional field, with those fields: an entry makes one
ONE_CLAIM = {"derived_class": ("expected_class", "minuend")}

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


@dataclass(frozen=True)
class Entry:
    """One check entry of a file, its fields read."""
    name: str
    kind: str
    suite: str
    tag: str | None
    # the handler's keyword arguments: the values read, and the built `surface` and `cover`
    args: dict


def bind_checks(entries, surfaces: dict, covers: dict) -> tuple[Entry, ...]:
    """Each (field path, object) of a file's `checks`, held to the fields of
    its kind and read: unique names, `surface` and `cover` ids among the
    file's `surfaces` and `covers` (id -> the object built when parsing),
    and every field read by the reader that its handler parameter declares;
    a SpecError names the offending field."""
    names, bound = set(), []
    for where, raw in entries:
        for field in ("name", "kind"):
            _str(raw.get(field), f"{where}.{field}")
        for field in ("tag", "surface", "cover"):
            _str(raw.get(field, ""), f"{where}.{field}")
        kind = raw["kind"]
        if kind not in HANDLERS:
            raise SpecError(f"{where}.kind: unknown check kind {kind!r}")
        required, optional = FIELDS[kind]
        _fields(raw, where, required, (*HARNESS_FIELDS, *optional))
        _one_of(SUITES)(raw.get("suite", "all"), f"{where}.suite")
        if raw["name"] in names:
            raise SpecError(f"{where}.name: duplicate check name {raw['name']!r}")
        names.add(raw["name"])
        if kind in ONE_CLAIM and not any(field in raw for field in ONE_CLAIM[kind]):
            raise SpecError(f"{where}: the entry yields no report line")
        scope = {}
        for field, built in (("surface", surfaces), ("cover", covers)):
            if field in raw:
                if raw[field] not in built:
                    raise SpecError(f"{where}.{field}: unknown {field} {raw[field]!r}")
                scope[field] = built[raw[field]]
        for param, read in READERS[kind].items():
            field = param.rstrip("_")
            if field in raw:
                scope[param] = read(raw[field], f"{where}.{field}", scope)
        bound.append(Entry(raw["name"], kind, raw.get("suite", "all"), raw.get("tag"), scope))
    return tuple(bound)


def run_check(entry: Entry) -> list[Check]:
    """The checks of one entry that `bind_checks` read, with the harness
    decisions made here once for every handler: the handler gets the
    entry's arguments; a kind in NEEDS_VALID_COVER reports `unsupported`
    when its cover failed validation; an exception in REFUTATIONS becomes a
    failing check, and any other one an `unsupported` check naming it; an
    entry that yields no check is an input error; and the entry's `tag`,
    when it has one, replaces the tags of all its checks."""
    try:
        if entry.kind in NEEDS_VALID_COVER and not entry.args["cover"].valid:
            checks = [Check(entry.name, UNSUPPORTED, "cover data failed validation",
                            "valid cover data")]
        else:
            checks = HANDLERS[entry.kind](entry.name, **entry.args)
    except Exception as exc:  # a check must never crash the harness
        status = FAIL if isinstance(exc, REFUTATIONS) else UNSUPPORTED
        checks = [Check(entry.name, status, f"{type(exc).__name__}: {exc}",
                        "check evaluates cleanly")]
    if not checks:
        raise SpecError(f"check {entry.name}: the entry yields no report line")
    if entry.tag is not None:
        checks = [replace(c, tag=entry.tag) for c in checks]
    return checks
