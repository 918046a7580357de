import dataclasses
import json
import pathlib
import re
import subprocess
import sys

import pytest

from scw import workbench
from scw.workbench import (SpecError, load_bundled, paper_suite, parse_data,
                           parse_spec, run_named, run_suite)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "scw" / "fixtures"

def test_parse_bundled_fixtures():
    for name in workbench.bundled_fixture_names():
        wf = load_bundled(name)
        # one surface and one cover in each Inoue workbench, none in named.json
        assert len(wf.surfaces) == len(wf.covers) == (name != "named.json")
        assert wf.checks


def _step_json(step) -> list:
    """A construction step as the file writes it."""
    kind = next(k for k, (ctor, _arity) in workbench._STEP_KINDS.items() if type(step) is ctor)
    return [kind, *dataclasses.astuple(step)]


def test_round_trip():
    for name in workbench.bundled_fixture_names():
        wf = load_bundled(name, seed=7)
        data = json.loads((FIXTURES / name).read_text())
        assert [(sid, s.name, [_step_json(step) for step in s.script],
                 [list(b) for b in s.blowups], s.seed_policy.base)
                for sid, s in wf.surfaces.items()] == [
            (s["id"], s["id"], s["script"], s["blowups"], 7) for s in data.get("surfaces", [])]
        assert [(cid, c.name, c.base is wf.surfaces[c.base.name])
                for cid, c in wf.covers.items()] == [
            (c["id"], c["id"], True) for c in data.get("covers", [])]
        assert [(e.name, e.kind, e.suite, e.tag) for e in wf.checks] == [
            (c["name"], c["kind"], c.get("suite", "all"), c.get("tag")) for c in data["checks"]]
        assert wf.seed == 7


def test_parse_errors(tmp_path):
    with pytest.raises(SpecError):
        parse_data({"version": 99})
    with pytest.raises(SpecError) as err:
        parse_data({
            "version": 1,
            "surfaces": [{"id": "S", "script": [["free_point", "p"]], "blowups": [["p", "E1"]]}],
            "covers": [{
                "id": "c", "surface": "S", "group": [2],
                "branch": [{"name": "B", "class": {"E9": 1},
                            "subgroup_generator": [1], "character_exponent": 1,
                            "components": 1}],
                "reduced_L": [],
            }],
        })
    assert "E9" in str(err.value)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError):
        parse_spec(bad)
    with pytest.raises(SpecError):
        parse_spec(tmp_path / "missing.json")


def _one_cover(**cover):
    return {
        "version": 1,
        "surfaces": [{"id": "S", "script": [["free_point", "p"]], "blowups": [["p", "E1"]]}],
        "covers": [{"id": "c", "surface": "S", "branch": [], "reduced_L": [], **cover}],
    }


@pytest.mark.parametrize("group", [None, ["two"], 2])
def test_bad_cover_group_names_the_field(group):
    data = _one_cover() if group is None else _one_cover(group=group)
    with pytest.raises(SpecError) as err:
        parse_data(data)
    assert "covers[0].group" in str(err.value)


def test_boolean_coefficient_rejected():
    data = _one_cover(group=[2], reduced_L=[{"character": [1], "class": {"L": True}}])
    with pytest.raises(SpecError) as err:
        parse_data(data)
    assert "reduced_L[0].class.L" in str(err.value)


_BRANCH = {"name": "B", "class": {"L": 1}, "subgroup_generator": [1],
           "character_exponent": 1, "components": 1}


@pytest.mark.parametrize("cover, field", [
    ({"group": [2], "branch": [{**_BRANCH, "components": 2.5}]}, "branch[0].components"),
    ({"group": [2], "branch": [{**_BRANCH, "character_exponent": 1.9}]},
     "branch[0].character_exponent"),
    ({"group": [2], "branch": [{**_BRANCH, "subgroup_generator": [True]}]},
     "branch[0].subgroup_generator"),
    ({"group": [2.7]}, "covers[0].group"),
    ({"group": [2], "reduced_L": [{"character": [False], "class": {"L": 1}}]},
     "reduced_L[0].character"),
])
def test_non_integer_cover_fields_rejected(cover, field):
    with pytest.raises(SpecError) as err:
        parse_data(_one_cover(**cover))
    assert field in str(err.value)


def _one_surface(**surface):
    return {"version": 1, "surfaces": [{"id": "S", "script": [["free_point", "p"]],
                                        "blowups": [["p", "E1"]], **surface}]}


@pytest.mark.parametrize("data, field", [
    (_one_surface(blowups=[["p", "E1"], ["nowhere", "E2"]]), "surfaces[0].blowups"),
    (_one_surface(blowups=[["p", "E1"], ["p", "E2"]]), "surfaces[0].blowups"),
    (_one_surface(blowups=[["p", "E1", "E2"]]), "surfaces[0].blowups"),
    (_one_surface(script=[["line_through", "m", "p", "q"]]), "surfaces[0].script"),
    (_one_surface(id=7), "surfaces[0].id"),
    (_one_cover(surface="T", group=[2]), "covers[0].surface"),
    (_one_cover(group=[0]), "covers[0].group"),
    (_one_cover(group=[2], branch=[{**_BRANCH, "subgroup_generator": [0]}]),
     "covers[0].branch[0].subgroup_generator"),
    (_one_cover(group=[4], branch=[{**_BRANCH, "character_exponent": 2}]),
     "covers[0].branch[0].character_exponent"),
    (_one_cover(group=[2], branch=[{**_BRANCH, "components": 0}]),
     "covers[0].branch[0].components"),
    (_one_cover(group=[2], branch=[_BRANCH, _BRANCH]), "covers[0].branch[1].name"),
    (_one_cover(group=[2], branch=[{**_BRANCH, "subgroup_generator": [1, 0]}]),
     "covers[0].branch[0].subgroup_generator"),
    (_one_cover(group=[2, 4], branch=[{**_BRANCH, "subgroup_generator": [1]}]),
     "covers[0].branch[0].subgroup_generator"),
    (_one_cover(group=[2], reduced_L=[{"character": [1, 1], "class": {"L": 1}}]),
     "covers[0].reduced_L[0].character"),
    (_one_cover(group=[2, 4], reduced_L=[{"character": [1], "class": {"L": 1}}]),
     "covers[0].reduced_L[0].character"),
])
def test_invalid_surface_or_cover_names_the_field(data, field):
    with pytest.raises(SpecError) as err:
        parse_data(data)
    assert f"workbench.{field}:" in str(err.value)


def test_invalid_cover_data_exits_2_before_any_check(tmp_path, capsys):
    from scw.cli import main

    raw = json.loads((FIXTURES / "inoue_bidouble.json").read_text())
    raw["surfaces"][0]["blowups"].append(["nowhere", "E9"])
    path = tmp_path / "file.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{path}.surfaces[0].blowups: blown-up point 'nowhere'" in err


def test_fault_is_refused_and_refutation_fails():
    # m and n both pass through a, so x = m.n is a itself: no realization
    # separates the blown-up points a and x
    wf = parse_data({
        "version": 1,
        "surfaces": [{"id": "S", "script": [
            ["free_point", "a"], ["free_point", "b"], ["free_point", "c"],
            ["line_through", "m", "a", "b"], ["line_through", "n", "a", "c"],
            ["intersection_point", "x", "m", "n"]],
            "blowups": [["a", "E1"], ["x", "E2"]]}],
        "checks": [
            {"name": "count", "kind": "catalog_counts", "surface": "S",
             "expected_minus_one": 3, "expected_minus_two": 0},
            {"name": "lines", "kind": "collinear_sets", "surface": "S", "expected": []},
            {"name": "halve", "kind": "solve_divide", "surface": "S", "class": {"L": 1},
             "n": 2, "expected_class": {"L": 1}},
        ],
    })
    report = run_suite(wf)
    by_name = {c.name: c for c in report.checks}
    assert by_name["count"].status == "unsupported"
    assert by_name["count"].computed.startswith("RealizationError: ")
    assert "marked points 'a' and 'x' coincide" in by_name["count"].computed
    assert by_name["lines"].status == "pass"
    assert by_name["halve"].status == "fail"
    assert by_name["halve"].computed.startswith("NotDivisible: ")
    assert not report.all_passed


def test_paper_suite_builds_each_surface_once(monkeypatch):
    from scw.surface import BlowupSurface

    built = []
    original = BlowupSurface.__init__

    def counted(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self.name)

    monkeypatch.setattr(BlowupSurface, "__init__", counted)
    assert paper_suite(seed=0).all_passed
    assert sorted(built) == ["W", "Y"]


def test_cover_derivations_run_once_per_spec(monkeypatch):
    from collections import Counter

    from scw import cover

    specs, calls = [], Counter()
    for name in ("derive_all_L", "classify_branch_points"):
        original = getattr(cover, name)

        def counted(spec, _original=original, _name=name):
            specs.append(spec)  # keeps every id unique for the whole run
            calls[_name, id(spec)] += 1
            return _original(spec)

        monkeypatch.setattr(cover, name, counted)
    assert paper_suite(seed=0).all_passed
    assert {name for name, _ in calls} == {"derive_all_L", "classify_branch_points"}
    assert max(calls.values()) == 1, calls


def test_duplicate_check_names_rejected():
    with pytest.raises(SpecError):
        parse_data({
            "version": 1,
            "checks": [
                {"name": "x", "kind": "range_filter", "k2": 7, "expected": [1, 3, 5, 7]},
                {"name": "x", "kind": "range_filter", "k2": 7, "expected": [1, 3, 5, 7]},
            ],
        })


def test_unknown_check_kind_rejected():
    with pytest.raises(SpecError) as err:
        parse_data(_one_check_file(kind="no_such_kind"))
    assert "checks[0].kind: unknown check kind 'no_such_kind'" in str(err.value)


def test_dangling_check_references_rejected():
    with pytest.raises(SpecError):
        parse_data({
            "version": 1,
            "checks": [{"name": "x", "kind": "catalog_counts", "surface": "nope",
                        "expected_minus_one": 0, "expected_minus_two": 0}],
        })
    with pytest.raises(SpecError):
        parse_data({
            "version": 1,
            "checks": [{"name": "x", "kind": "invariants", "cover": "nope",
                        "expected": {"chi": 1, "p_g": 0, "q": 0}}],
        })


def test_run_suite_filters_and_passes():
    wf = load_bundled("inoue_bidouble.json")
    lattice_only = run_suite(wf, suite="lattice")
    assert lattice_only.all_passed
    everything = run_suite(wf, suite="all")
    assert everything.all_passed
    assert len(everything.checks) > len(lattice_only.checks)
    with pytest.raises(SpecError):
        run_suite(wf, suite="nonsense")


def test_empty_check_list_passes():
    wf = parse_data({"version": 1})
    report = run_suite(wf)
    assert report.all_passed and report.checks == []


def test_paper_suite_green_and_byte_stable():
    r1 = paper_suite(seed=0)
    r2 = paper_suite(seed=0)
    assert r1.all_passed
    assert r1.to_text() == r2.to_text()
    assert r1.to_json() == r2.to_json()


def test_paper_suite_seed_invariant_outcomes():
    r0 = paper_suite(seed=0)
    r9 = paper_suite(seed=9)
    assert [(c.name, c.status) for c in r0.sorted_checks()] == \
        [(c.name, c.status) for c in r9.sorted_checks()]


def test_mutated_class_fails_exactly_the_relation_checks():
    raw = json.loads((FIXTURES / "inoue_z2z4.json").read_text())
    for entry in raw["covers"][0]["reduced_L"]:
        if entry["character"] == [1, 0]:
            entry["class"]["Q3p"] = entry["class"]["Q3p"] + 1
    wf = parse_data(raw, where="mutated")
    report = run_suite(wf, suite="cover")
    failed = sorted(c.name for c in report.checks if c.status == "fail")
    assert failed == [
        "inoue_z2z4/relation-c10",
        "z2z4/relation-sum-chi/equals-2L",
    ]
    unsupported = sorted(c.name for c in report.checks if c.status == "unsupported")
    assert unsupported == [
        "z2z4/branch-points", "z2z4/canonical", "z2z4/derived-rho2", "z2z4/h0-vanishing",
        "z2z4/invariants", "z2z4/minimal-model", "z2z4/preimage-consistency",
        "z2z4/quotient", "z2z4/solver-agrees",
    ]
    assert not report.all_passed


def test_untagged_checks_keep_their_inner_tags():
    raw = json.loads((FIXTURES / "inoue_z2z4.json").read_text())
    keep = {"z2z4/relations", "z2z4/h0-vanishing", "Y/catalog-counts"}
    raw["checks"] = [{k: v for k, v in c.items() if k != "tag"}
                     for c in raw["checks"] if c["name"] in keep]
    raw["checks"].append({"name": "t11", "kind": "theorem11", "case": "a",
                          "expected_kr": [7, 5, 5], "expected_rr": [5, 9, 7]})
    tags = {}
    for c in run_suite(parse_data(raw)).checks:
        tags.setdefault(c.name.split("/")[1].split("-")[0], set()).add(c.tag)
    assert tags == {
        "catalog": {""},  # a plain check
        "assumptions": {"cover-data"}, "effective": {"cover-data"}, "reduced": {"cover-data"},
        "relation": {"cover-relations"},
        "h0": {""},
        "case": {"involution-range", "fixed-point-count", "trace", "adjunction-parity",
                 "effective-pairing", "picard-rank"},
    }


def _fixture_with(fixture, name, **params):
    raw = json.loads((FIXTURES / f"{fixture}.json").read_text())
    for c in raw["checks"]:
        if c["name"] == name:
            c.update(params)
    return raw


def _one_check_file(**check):
    return {"version": 1, "checks": [{"name": "x", **check}]}


@pytest.mark.parametrize("data, name, field", [
    (_fixture_with("inoue_bidouble", "W/catalog-counts", expected_minus_two=4.9),
     "W/catalog-counts", "expected_minus_two"),
    (_fixture_with("inoue_bidouble", "W/halve-Delta2+Delta3", n=2.5), "W/halve-Delta2+Delta3", "n"),
    (_fixture_with("inoue_bidouble", "W/gamma2-self-intersection", lhs={"L": True}),
     "W/gamma2-self-intersection", "lhs.L"),
    (_one_check_file(kind="common_involution", orders=[2, 2, 2], n=4, expected="false"),
     "x", "expected"),
    (_one_check_file(kind="hodge_bound", k2=7, kd=3, d2=1, expected="no"), "x", "expected"),
    # a fixed id keeps this case's test id stable when its field path changes
    pytest.param(_one_check_file(kind="abstract_self_intersection", basis=["K", "F"],
                                 gram=[[7, 0.5], [0.5, 1]], **{"class": {"K": 1}}, expected=7),
                 "x", "gram[0][1]", id="data5-x-gram"),
    (_fixture_with("inoue_bidouble", "bidouble/pullback-Z1", component="Nope"),
     "bidouble/pullback-Z1", "component"),
    # the ids of the next three keep the field they named before it named the element
    pytest.param(_fixture_with("inoue_bidouble", "bidouble/preimage-consistency",
                               components=["Z1", "Nope"]),
                 "bidouble/preimage-consistency", "components[1]",
                 id="data7-bidouble/preimage-consistency-components"),
    pytest.param(_fixture_with("inoue_bidouble", "bidouble/minimal-model", contract=["Nope"]),
                 "bidouble/minimal-model", "contract[0]",
                 id="data8-bidouble/minimal-model-contract"),
    pytest.param(_fixture_with("inoue_z2z4", "z2z4/derived-rho2",
                               subtract_components=["M1", "Nope"]),
                 "z2z4/derived-rho2", "subtract_components[1]",
                 id="data9-z2z4/derived-rho2-subtract_components"),
    (_fixture_with("inoue_z2z4", "z2z4/quotient", character=[0, 2, 0]), "z2z4/quotient",
     "character"),
    # values in a field's type but outside its domain, refused before any handler runs
    (_fixture_with("named", "section-3-quotient/k2", divide=0), "section-3-quotient/k2",
     "divide"),
    (_fixture_with("named", "lemma-2.2/range", k2=0), "lemma-2.2/range", "k2"),
    (_fixture_with("named", "lemma-2.2/range-hodge", k2=-7), "lemma-2.2/range-hodge", "k2"),
    (_fixture_with("named", "lemma-3.2/pencil-sum-bound", k2=0), "lemma-3.2/pencil-sum-bound",
     "k2"),
    (_fixture_with("named", "lemma-3.2/hodge-pass", k2="-1/2"), "lemma-3.2/hodge-pass", "k2"),
    (_fixture_with("named", "corollary-1.3/seven-subgroups", n=3),
     "corollary-1.3/seven-subgroups", "n"),
    (_fixture_with("named", "corollary-1.3/common-involution", n=3),
     "corollary-1.3/common-involution", "n"),
    (_fixture_with("named", "corollary-1.3/seven-subgroups", orders=[]),
     "corollary-1.3/seven-subgroups", "orders"),
    (_fixture_with("named", "corollary-1.3/common-involution", orders=[]),
     "corollary-1.3/common-involution", "orders"),
    (_one_check_file(kind="restriction_level", orders=[], generator=[], exponent=1,
                     character=[], expected=0), "x", "orders"),
    (_one_check_file(kind="restriction_level", orders=[2, 4], generator=[2, 4], exponent=1,
                     character=[1, 2], expected=0), "x", "generator"),
    (_one_check_file(kind="restriction_level", orders=[2, 4], generator=[0, 1], exponent=2,
                     character=[1, 2], expected=0), "x", "exponent"),
])
def test_malformed_check_value_is_an_input_error(tmp_path, capsys, data, name, field):
    from scw.cli import main

    path = tmp_path / "file.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    index = [c["name"] for c in data["checks"]].index(name)
    assert out == ""
    assert f"{path}.checks[{index}].{field}: " in err


def _only_check(fixture, name, edit):
    """The fixture with `name` as its only check, changed in place by `edit`."""
    raw = json.loads((FIXTURES / f"{fixture}.json").read_text())
    raw["checks"] = [c for c in raw["checks"] if c["name"] == name]
    edit(raw["checks"][0])
    return raw


def _rename(old, new):
    return lambda check: check.update({new: check.pop(old)})


# Cases 5 to 35 were raised when the entry ran, as "check <name>: <path>: ...",
# until the fields were read at parse time; each keeps that message as its
# test id, so the ids stay stable.
@pytest.mark.parametrize("data, message", [
    # a field of the entry itself
    (_only_check("inoue_bidouble", "W/gamma2-self-intersection", lambda c: c.pop("rhs")),
     "checks[0].rhs: missing field"),
    (_only_check("inoue_z2z4", "z2z4/derived-rho2", _rename("expected_class", "expected_clas")),
     "checks[0].expected_clas: unknown field"),
    (_only_check("inoue_bidouble", "bidouble/minimal-model",
                 _rename("expect_ample", "expect_amples")),
     "checks[0].expect_amples: unknown field; known fields: contract, cover, expect_ample, "
     "expected_k2, kind, name, node_threading, simple, suite, tag"),
    (_only_check("inoue_z2z4", "z2z4/canonical", lambda c: c.update(expected_class=None)),
     "checks[0].expected_class: expected a value, got null"),
    (_only_check("inoue_z2z4", "z2z4/preimage-consistency", lambda c: c.update(components=None)),
     "checks[0].components: expected a value, got null"),
    # a field of a nested object
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/invariants", lambda c: c["expected"].pop("q")),
        "checks[0].expected.q: missing field",
        id="data5-check z2z4/invariants: expected.q: missing field"),
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/invariants", lambda c: c.update(
            expected={"chi": 1, "p_g": 0, "q": 0, "k2_covr": -10})),
        "checks[0].expected.k2_covr: unknown field",
        id="data6-check z2z4/invariants: expected.k2_covr: unknown field"),
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/pullback-M2", lambda c: c["expected"].pop("s")),
        "checks[0].expected.s: missing field",
        id="data7-check z2z4/pullback-M2: expected.s: missing field"),
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/branch-points",
                    lambda c: c["expected_nodes"][1].update(inertia=4)),
        "checks[0].expected_nodes[1].inertia: unknown field",
        id="data8-check z2z4/branch-points: expected_nodes[1].inertia: unknown field"),
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/derived-rho2", lambda c: c["minuend"].pop("multiple")),
        "checks[0].minuend.multiple: missing field",
        id="data9-check z2z4/derived-rho2: minuend.multiple: missing field"),
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/derived-rho2", lambda c: c.pop("minuend")),
        "checks[0].subtract_components: given without minuend",
        id="data10-check z2z4/derived-rho2: minuend: expected an object, got None"),
    pytest.param(
        _one_check_file(kind="diophantine", constraint="commuting-cubic", box={"x": [0, 1]},
                        expected=[]),
        "checks[0].box.y: missing field",
        id="data11-check x: box.y: missing field"),
    pytest.param(
        _one_check_file(kind="diophantine", constraint="commuting-cubic",
                        box={"x": [0, 1], "y": [0, 1], "z": [0, 1]}, expected=[[0, 1]]),
        "checks[0].box.z: unknown field",
        id="data12-check x: box.z: unknown field"),
    pytest.param(
        _only_check("inoue_z2z4", "Y/singular-members-Phi",
                    lambda c: c["expected"][0][1].update(mult=1)),
        "checks[0].expected[0][1].mult: unknown field",
        id="data13-check Y/singular-members-Phi: expected[0][1].mult: unknown field"),
    # an entry that makes no claim
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/derived-rho2", lambda c: [
            c.pop(k) for k in ("expected_class", "minuend", "subtract_components")]),
        "checks[0]: the entry yields no report line",
        id="data14-check z2z4/derived-rho2: the entry yields no report line"),
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/preimage-consistency",
                    lambda c: c.update(components=[])),
        "checks[0].components: the entry yields no report line",
        id="data15-check z2z4/preimage-consistency: the entry yields no report line"),
    # a name outside the known ones
    pytest.param(
        _one_check_file(kind="diophantine", constraint="nope", expected=[]),
        "checks[0].constraint: expected one of ample-obstruction-det, commuting-cubic, ",
        id="data16-check x: constraint: expected one of ample-obstruction-det, commuting-cubic, "),
    pytest.param(
        _one_check_file(kind="theorem11", case="a", expected_kr=[7, 5], expected_rr=[5, 9, 7]),
        "checks[0].expected_kr: expected 3 integers, got [7, 5]",
        id="data17-check x: expected_kr: expected 3 integers, got [7, 5]"),
    # a list value read by a reader that names the field
    pytest.param(
        _one_check_file(kind="diophantine", constraint="commuting-cubic",
                        box={"x": [0], "y": [0, 1]}, expected=[]),
        "checks[0].box.x: expected [lo, hi], got [0]",
        id="data18-check x: box.x: expected [lo, hi], got [0]"),
    pytest.param(
        _one_check_file(kind="diophantine", constraint="commuting-cubic",
                        box={"x": [0, 1], "y": [0, 0.5]}, expected=[]),
        "checks[0].box.y[1]: expected an integer, got 0.5",
        id="data19-check x: box.y: expected an integer, got 0.5"),
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/quotient",
                    lambda c: c.update(expected_branch="M1N1M2N2")),
        "checks[0].expected_branch: expected a list of strings, got 'M1N1M2N2'",
        id="data20-check z2z4/quotient: expected_branch: expected a list of strings, "
           "got 'M1N1M2N2'"),
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/quotient",
                    lambda c: c.update(expected_branch=["M1", 2])),
        "checks[0].expected_branch[1]: expected a string, got 2",
        id="data21-check z2z4/quotient: expected_branch[1]: expected a string, got 2"),
    pytest.param(
        _only_check("inoue_z2z4", "Y/collinear-sets", lambda c: c.update(expected=5)),
        "checks[0].expected: expected a list of lists of strings, got 5",
        id="data22-check Y/collinear-sets: expected: expected a list of lists of strings, got 5"),
    pytest.param(
        _only_check("inoue_z2z4", "Y/collinear-sets", lambda c: c["expected"].append("Q1Q2Q3")),
        "checks[0].expected[6]: expected a list of strings, got 'Q1Q2Q3'",
        id="data23-check Y/collinear-sets: expected[6]: expected a list of strings, "
           "got 'Q1Q2Q3'"),
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/branch-points",
                    lambda c: c["expected_nodes"][1].update(pair="Lambda2N2")),
        "checks[0].expected_nodes[1].pair: expected a list of strings, got 'Lambda2N2'",
        id="data24-check z2z4/branch-points: expected_nodes[1].pair: expected a list of "
           "strings, got 'Lambda2N2'"),
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/branch-points",
                    lambda c: c["expected_nodes"][0].update(pair=["Lambda2", 2])),
        "checks[0].expected_nodes[0].pair[1]: expected a string, got 2",
        id="data25-check z2z4/branch-points: expected_nodes[0].pair[1]: expected a string, "
           "got 2"),
    # a number where a list belongs, which iteration would meet as a TypeError
    pytest.param(
        _one_check_file(kind="diophantine", constraint="commuting-cubic", expected=5),
        "checks[0].expected: expected a list of solutions, got 5",
        id="data26-check x: expected: expected a list of solutions, got 5"),
    pytest.param(
        _one_check_file(kind="diophantine", constraint="commuting-cubic", expected=[5]),
        "checks[0].expected[0]: expected a list of integers, got 5",
        id="data27-check x: expected[0]: expected a list of integers, got 5"),
    pytest.param(
        _only_check("inoue_z2z4", "z2z4/branch-points", lambda c: c.update(expected_nodes=5)),
        "checks[0].expected_nodes: expected a list of nodes, got 5",
        id="data28-check z2z4/branch-points: expected_nodes: expected a list of nodes, got 5"),
    pytest.param(
        _only_check("inoue_z2z4", "Y/singular-members-Phi", lambda c: c.update(expected=5)),
        "checks[0].expected: expected a list of decompositions, got 5",
        id="data29-check Y/singular-members-Phi: expected: expected a list of decompositions, "
           "got 5"),
    pytest.param(
        _only_check("inoue_z2z4", "Y/singular-members-Phi", lambda c: c["expected"].append(5)),
        "checks[0].expected[3]: expected a list of parts, got 5",
        id="data30-check Y/singular-members-Phi: expected[3]: expected a list of parts, got 5"),
    pytest.param(
        _only_check("inoue_z2z4", "Y/minus-two-curves", lambda c: c.update(expected_classes=5)),
        "checks[0].expected_classes: expected a list of classes, got 5",
        id="data31-check Y/minus-two-curves: expected_classes: expected a list of classes, "
           "got 5"),
    pytest.param(
        _only_check("inoue_bidouble", "W/diagonals-isolated",
                    lambda c: c.update(expected_classes=5)),
        "checks[0].expected_classes: expected a list of classes, got 5",
        id="data32-check W/diagonals-isolated: expected_classes: expected a list of classes, "
           "got 5"),
    pytest.param(
        _only_check("inoue_bidouble", "W/pencils", lambda c: c.update(classes=5)),
        "checks[0].classes: expected a list of classes, got 5",
        id="data33-check W/pencils: classes: expected a list of classes, got 5"),
    pytest.param(
        _one_check_file(kind="gram_det", matrix=[[1, 0], 5], expected=1),
        "checks[0].matrix[1]: expected a list of entries, got 5",
        id="data34-check x: matrix[1]: expected a list of entries, got 5"),
    pytest.param(
        _one_check_file(kind="abstract_self_intersection", basis="KE", gram=[[7, 0], [0, 1]],
                        **{"class": {"K": 1}}, expected=7),
        "checks[0].basis: expected a list of strings, got 'KE'",
        id="data35-check x: basis: expected a list of strings, got 'KE'"),
])
def test_bad_check_field_is_an_input_error(tmp_path, capsys, data, message):
    from scw.cli import main

    path = tmp_path / "file.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


_Z2Z4 = json.loads((FIXTURES / "inoue_z2z4.json").read_text())
_RESTRICTION = {"kind": "restriction_level", "orders": [2, 4], "generator": [0, 1],
                "exponent": 1, "character": [1, 2], "expected": 2}


@pytest.mark.parametrize("data, path", [
    (_one_check_file(kind="involution_counts", kr=3, r2=1, expected=[7, "x"]),
     "checks[0].expected[1]"),
    (_one_check_file(kind="subgroups", orders=[2, "x"], n=2, expected_count=3),
     "checks[0].orders[1]"),
    (_one_check_file(kind="range_filter", k2=7, exclude=[1, "x"], expected=[3, 5, 7]),
     "checks[0].exclude[1]"),
    (_one_check_file(kind="diophantine", constraint="commuting-cubic", target=[0, "x"],
                     expected=[]),
     "checks[0].target[1]"),
    (_one_check_file(**{**_RESTRICTION, "generator": [0, "x"]}), "checks[0].generator[1]"),
    (_one_check_file(**{**_RESTRICTION, "character": ["x", 2]}), "checks[0].character[0]"),
    (_only_check("inoue_z2z4", "z2z4/relation-sum-chi", lambda c: c.update(character=[1, "x"])),
     "checks[0].character[1]"),
    (_one_cover(group=[2, "x"]), "covers[0].group[1]"),
    (_one_cover(group=[2, 4], branch=[{**_BRANCH, "subgroup_generator": [1, "x"]}]),
     "covers[0].branch[0].subgroup_generator[1]"),
    (_one_cover(group=[2], reduced_L=[{"character": ["x"], "class": {"L": 1}}]),
     "covers[0].reduced_L[0].character[0]"),
])
def test_bad_list_element_is_named(data, path):
    with pytest.raises(SpecError) as err:
        parse_data(data)
    assert str(err.value) == f"workbench.{path}: expected an integer, got 'x'"


@pytest.mark.parametrize("data, message", [
    (_only_check("inoue_z2z4", "z2z4/canonical", lambda c: c.update(n=0)),
     "checks[0].n: expected a positive integer, got 0"),
    (_only_check("inoue_z2z4", "z2z4/canonical", lambda c: c.update(n=-4)),
     "checks[0].n: expected a positive integer, got -4"),
    (_only_check("inoue_bidouble", "W/halve-Delta2+Delta3", lambda c: c.update(n=0)),
     "checks[0].n: expected a positive integer, got 0"),
    (_only_check("inoue_bidouble", "W/halve-Delta2+Delta3", lambda c: c.update(n=-2)),
     "checks[0].n: expected a positive integer, got -2"),
    (_one_check_file(kind="subgroups", orders=[2, 0], n=2, expected_count=3),
     "checks[0].orders: cyclic factor orders must be positive"),
    (_one_check_file(kind="subgroups", orders=[2, 2], n=0, expected_count=0),
     "checks[0].n: expected a positive integer, got 0"),
    (_one_check_file(kind="common_involution", orders=[0], n=1, expected=True),
     "checks[0].orders: cyclic factor orders must be positive"),
    (_one_check_file(**{**_RESTRICTION, "orders": [2, -4]}),
     "checks[0].orders: cyclic factor orders must be positive"),
])
def test_non_positive_integer_field_is_an_input_error(data, message):
    with pytest.raises(SpecError) as err:
        parse_data(data)
    assert str(err.value) == f"workbench.{message}"


def _invalid_cover(raw):
    # breaks the relation of one character sheaf, so the cover fails validation
    for entry in raw["covers"][0]["reduced_L"]:
        if entry["character"] == [1, 0]:
            entry["class"]["Q3p"] += 1


@pytest.mark.parametrize("edit, argv", [
    (None, []),
    (None, ["--suite", "lattice"]),  # an entry the suite does not select
    (_invalid_cover, []),            # an entry that would report `unsupported`
])
def test_malformed_entry_exits_2_before_any_check(tmp_path, capsys, monkeypatch, edit, argv):
    from scw import checks
    from scw.cli import main

    calls = []
    for kind, handler in checks.HANDLERS.items():
        def counted(*args, _handler=handler, _kind=kind, **kwargs):
            calls.append(_kind)
            return _handler(*args, **kwargs)
        monkeypatch.setitem(checks.HANDLERS, kind, counted)
    raw = json.loads(json.dumps(_Z2Z4))
    index = [c["name"] for c in raw["checks"]].index("z2z4/invariants")
    del raw["checks"][index]["expected"]["q"]
    if edit:
        edit(raw)
    path = tmp_path / "file.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", str(path), *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}.checks[{index}].expected.q: missing field\n"
    assert calls == []


def test_readme_lists_the_fields_of_every_kind():
    from scw.checks import FIELDS

    readme = (SRC.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (.*) \| (.*) \|$", readme, re.M)
    table = {kind: (tuple(re.findall(r"`(\w+)`", required)), tuple(re.findall(r"`(\w+)`", opt)))
             for kind, required, opt in rows}
    assert table == {kind: (required[1:], optional)
                     for kind, (required, optional) in FIELDS.items()}
    assert all(required[0] == "name" for required, _ in FIELDS.values())


@pytest.mark.parametrize("field, value", [
    ("tag", 5), ("tag", ["a"]), ("tag", None), ("name", ["a"]), ("name", 5),
    ("kind", ["a"]), ("kind", 5), ("surface", ["S"]), ("cover", 5),
])
def test_non_string_check_name_or_tag_is_an_input_error(tmp_path, capsys, field, value):
    from scw.cli import main

    check = {"name": "x", "kind": "gram_det", "matrix": [[2]], "expected": 2, "tag": "t"}
    check[field] = value
    path = tmp_path / "file.json"
    path.write_text(json.dumps({"version": 1, "checks": [check]}))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"checks[0].{field}: expected a string, got {value!r}" in err


RATIONAL = "expected an integer or 'p/q' string"


@pytest.mark.parametrize("fixture, index, path, value, message", [
    (None, 0, ("matrix", 1, 1), "x", f"matrix[1][1]: {RATIONAL}, got 'x'"),
    ("inoue_z2z4.json", 4, ("classes", 3, "L"), "y", f"classes[3].L: {RATIONAL}, got 'y'"),
    ("inoue_bidouble.json", 11, ("classes", 2, "L"), "y", f"classes[2].L: {RATIONAL}, got 'y'"),
    ("inoue_z2z4.json", 7, ("expected_disjoint_remainder", 0, "Q2"), "y",
     f"expected_disjoint_remainder[0].Q2: {RATIONAL}, got 'y'"),
    ("inoue_z2z4.json", 2, ("expected_classes", 1, "L"), "y",
     f"expected_classes[1].L: {RATIONAL}, got 'y'"),
    ("inoue_z2z4.json", 5, ("expected", 0, 1, "class", "Q1p"), "y",
     f"expected[0][1].class.Q1p: {RATIONAL}, got 'y'"),
    ("inoue_z2z4.json", 5, ("expected", 0, 2, "multiplicity"), "z",
     "expected[0][2].multiplicity: expected an integer, got 'z'"),
    ("inoue_z2z4.json", 13, ("expected_nodes", 1, "points"), "z",
     "expected_nodes[1].points: expected an integer, got 'z'"),
    ("inoue_z2z4.json", 13, ("expected_nodes", 0, "preimages"), "z",
     "expected_nodes[0].preimages: expected an integer, got 'z'"),
    ("inoue_z2z4.json", 13, ("expected_nodes", 1, "inertia_order"), "z",
     "expected_nodes[1].inertia_order: expected an integer, got 'z'"),
])
def test_run_time_input_error_names_the_element(fixture, index, path, value, message):
    # raised when the file is parsed, where the fields are read now; the test
    # keeps the name it had when these errors were raised at run time
    if fixture is None:
        data = {"version": 1, "checks": [
            {"name": "g", "kind": "gram_det", "matrix": [[1, 0], [0, 1]], "expected": 1}]}
    else:
        data = json.loads((FIXTURES / fixture).read_text())
    entry = json.loads(json.dumps(data["checks"][index]))
    *parents, last = path
    target = entry
    for step in parents:
        target = target[step]
    target[last] = value
    with pytest.raises(SpecError) as err:
        parse_data({**data, "checks": [entry]})
    assert str(err.value) == f"workbench.checks[0].{message}"


NAMED_KEYS = ["corollary-1.3", "lemma-2.2", "lemma-3.1", "lemma-3.2", "lemma-3.4", "lemma-4.1",
              "prop-2.2", "prop-3.5", "prop-3.7", "section-3-quotient", "theorem-1.1:a",
              "theorem-1.1:b", "theorem-1.1:c"]
UNKNOWN_KEY = f"unknown check tag 'lemma-99'; known: {', '.join(NAMED_KEYS)}"


def test_run_named_unknown_tag():
    with pytest.raises(SpecError) as err:
        run_named("lemma-99")
    assert str(err.value) == UNKNOWN_KEY
    # a check name is no key, and a tag is no key unless a name starts with it
    for not_a_key in ("lemma-2.2/range", "theorem-1.1", "section-3", ""):
        with pytest.raises(SpecError):
            run_named(not_a_key)
    assert run_named("prop-3.7").all_passed
    assert workbench.named_keys() == NAMED_KEYS
    # the keys partition the entries: each name is its key or starts with `key/`
    names = [entry.name for entry in load_bundled("named.json").checks]
    owners = [[key for key in NAMED_KEYS if name == key or name.startswith(f"{key}/")]
              for name in names]
    assert all(len(keys) == 1 for keys in owners)
    assert sorted({keys[0] for keys in owners}) == NAMED_KEYS


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = str(SRC)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "scw.cli", *args],
        capture_output=True, text=True, env=full_env,
    )


def test_cli_verify_and_exit_codes(tmp_path):
    proc = run_cli("verify", str(FIXTURES / "inoue_bidouble.json"), "--suite", "lefschetz")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    proc = run_cli("verify", str(bad))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps({
        "version": 1,
        "checks": [{"name": "wrong", "kind": "gram_det", "suite": "lattice",
                    "matrix": [[2]], "expected": 3}],
    }))
    proc = run_cli("verify", str(failing))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_cli_report_output(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", str(FIXTURES / "inoue_bidouble.json"),
                   "--suite", "lattice", "--report", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["fail"] == 0
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_cli_h0():
    proc = run_cli("h0", str(FIXTURES / "inoue_z2z4.json"), "Y",
                   '{"L": 2, "Q": -1, "Q1": -1, "Q2": -1, "Q3": -1}')
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"
    proc = run_cli("h0", str(FIXTURES / "inoue_z2z4.json"), "Y", '{"L": 1, "Zq": -1}')
    assert proc.returncode == 2
    proc = run_cli("h0", str(FIXTURES / "inoue_z2z4.json"), "Y", '{"L": 2.0}')
    assert proc.returncode == 2
    assert "class argument.L" in proc.stderr


def test_cli_h0_unknown_surface(capsys):
    from scw.cli import main

    assert main(["h0", str(FIXTURES / "inoue_z2z4.json"), "NOPE", "{}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unknown surface 'NOPE'\n"


def test_cli_lefschetz_and_seed_env():
    proc = run_cli("lefschetz", "lemma-3.1")
    assert proc.returncode == 0
    proc = run_cli("lefschetz", "lemma-99")
    assert proc.returncode == 2
    assert proc.stderr == f"error: {UNKNOWN_KEY}\n"
    proc = run_cli("lefschetz", "--help")
    assert proc.returncode == 0
    listed = " ".join(proc.stdout.split()).split("one of: ")[1].split(" options:")[0]
    assert listed.split(", ") == NAMED_KEYS
    proc = run_cli("lefschetz", "corollary-1.3", env={"SCW_SEED": "31"})
    assert proc.returncode == 0
    assert "(seed 31)" in proc.stdout


def test_fault_injected_check_fails_cleanly():
    wf = parse_data({
        "version": 1,
        "checks": [{"name": "bad-det", "kind": "gram_det", "suite": "lattice",
                    "matrix": [[1, 0], [0, 1]], "expected": 5}],
    })
    report = run_suite(wf)
    assert [c.status for c in report.checks] == ["fail"]


@pytest.mark.parametrize("debug", ["1", None])
def test_scw_debug_prints_the_traceback_of_an_unexpected_exception(monkeypatch, capsys, debug):
    from scw import cli

    def broken(seed):
        raise ZeroDivisionError("internal fault")

    if debug:
        monkeypatch.setenv("SCW_DEBUG", debug)
    else:
        monkeypatch.delenv("SCW_DEBUG", raising=False)
    monkeypatch.setattr(workbench, "paper_suite", broken)
    assert cli.main(["paper-suite"]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: ZeroDivisionError: internal fault\n")
    assert ("Traceback (most recent call last)" in err) == bool(debug)
    assert ("in broken" in err) == bool(debug)


def test_scw_debug_leaves_output_and_reports_unchanged(monkeypatch, capsys, tmp_path):
    from scw import cli

    runs = []
    for debug in ("0", "1"):
        monkeypatch.setenv("SCW_DEBUG", debug)
        report = tmp_path / f"report-{debug}.json"
        code = cli.main(["verify", str(FIXTURES / "inoue_bidouble.json"),
                         "--suite", "lattice", "--report", str(report)])
        runs.append((code, capsys.readouterr(), report.read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == cli.EXIT_OK
