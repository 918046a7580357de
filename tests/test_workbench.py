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
        assert len(wf.surfaces) == 1
        assert len(wf.covers) == 1
        assert wf.checks


def test_round_trip():
    for name in workbench.bundled_fixture_names():
        wf = load_bundled(name)
        data = json.loads(json.dumps(dataclasses.asdict(wf)))
        assert data == json.loads((FIXTURES / name).read_text())
        assert parse_data(data, where=name) == wf


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
    lattice_only = run_suite(wf, suite="lattice", seed=0)
    assert lattice_only.all_passed
    everything = run_suite(wf, suite="all", seed=0)
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
    report = run_suite(wf, suite="cover", seed=0)
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
    raw["checks"].append({"name": "t11", "kind": "theorem11", "case": "a"})
    tags = {}
    for c in run_suite(parse_data(raw), seed=0).checks:
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
    (_one_check_file(kind="abstract_self_intersection", basis=["K", "F"],
                 gram=[[7, 0.5], [0.5, 1]], **{"class": {"K": 1}}, expected=7), "x", "gram"),
    (_fixture_with("inoue_bidouble", "bidouble/pullback-Z1", component="Nope"),
     "bidouble/pullback-Z1", "component"),
    (_fixture_with("inoue_bidouble", "bidouble/preimage-consistency", components=["Z1", "Nope"]),
     "bidouble/preimage-consistency", "components"),
    (_fixture_with("inoue_bidouble", "bidouble/minimal-model", contract=["Nope"]),
     "bidouble/minimal-model", "contract"),
    (_fixture_with("inoue_z2z4", "z2z4/derived-rho2", subtract_components=["M1", "Nope"]),
     "z2z4/derived-rho2", "subtract_components"),
    (_fixture_with("inoue_z2z4", "z2z4/quotient", character=[0, 2, 0]), "z2z4/quotient",
     "character"),
])
def test_malformed_check_value_is_an_input_error(tmp_path, capsys, data, name, field):
    from scw.cli import main

    path = tmp_path / "file.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"check {name}: {field}:" in err


def _only_check(fixture, name, edit):
    """The fixture with `name` as its only check, changed in place by `edit`."""
    raw = json.loads((FIXTURES / f"{fixture}.json").read_text())
    raw["checks"] = [c for c in raw["checks"] if c["name"] == name]
    edit(raw["checks"][0])
    return raw


def _rename(old, new):
    return lambda check: check.update({new: check.pop(old)})


@pytest.mark.parametrize("data, message", [
    # a field of the entry itself, refused when the file is parsed
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
    # a field of a nested object, refused when the entry runs
    (_only_check("inoue_z2z4", "z2z4/invariants", lambda c: c["expected"].pop("q")),
     "check z2z4/invariants: expected.q: missing field"),
    (_only_check("inoue_z2z4", "z2z4/invariants", lambda c: c.update(
        expected={"chi": 1, "p_g": 0, "q": 0, "k2_covr": -10})),
     "check z2z4/invariants: expected.k2_covr: unknown field"),
    (_only_check("inoue_z2z4", "z2z4/pullback-M2", lambda c: c["expected"].pop("s")),
     "check z2z4/pullback-M2: expected.s: missing field"),
    (_only_check("inoue_z2z4", "z2z4/branch-points",
                 lambda c: c["expected_nodes"][1].update(inertia=4)),
     "check z2z4/branch-points: expected_nodes[1].inertia: unknown field"),
    (_only_check("inoue_z2z4", "z2z4/derived-rho2", lambda c: c["minuend"].pop("multiple")),
     "check z2z4/derived-rho2: minuend.multiple: missing field"),
    (_only_check("inoue_z2z4", "z2z4/derived-rho2", lambda c: c.pop("minuend")),
     "check z2z4/derived-rho2: minuend: expected an object, got None"),
    (_one_check_file(kind="diophantine", constraint="commuting-cubic", box={"x": [0, 1]},
                     expected=[]),
     "check x: box.y: missing field"),
    (_one_check_file(kind="diophantine", constraint="commuting-cubic",
                     box={"x": [0, 1], "y": [0, 1], "z": [0, 1]}, expected=[[0, 1]]),
     "check x: box.z: unknown field"),
    (_only_check("inoue_z2z4", "Y/singular-members-Phi",
                 lambda c: c["expected"][0][1].update(mult=1)),
     "check Y/singular-members-Phi: expected[0][1].mult: unknown field"),
    # an entry that makes no claim
    (_only_check("inoue_z2z4", "z2z4/derived-rho2", lambda c: [
        c.pop(k) for k in ("expected_class", "minuend", "subtract_components")]),
     "check z2z4/derived-rho2: the entry yields no report line"),
    (_only_check("inoue_z2z4", "z2z4/preimage-consistency", lambda c: c.update(components=[])),
     "check z2z4/preimage-consistency: the entry yields no report line"),
    # a name outside the known ones
    (_one_check_file(kind="diophantine", constraint="nope", expected=[]),
     "check x: constraint: expected one of ample-obstruction-det, commuting-cubic, "),
    (_one_check_file(kind="theorem11", case="d"),
     "check x: case: expected one of a, b, c, got 'd'"),
    # a list value read by a reader that names the field
    (_one_check_file(kind="diophantine", constraint="commuting-cubic",
                     box={"x": [0], "y": [0, 1]}, expected=[]),
     "check x: box.x: expected [lo, hi], got [0]"),
    (_one_check_file(kind="diophantine", constraint="commuting-cubic",
                     box={"x": [0, 1], "y": [0, 0.5]}, expected=[]),
     "check x: box.y: expected an integer, got 0.5"),
    (_only_check("inoue_z2z4", "z2z4/quotient", lambda c: c.update(expected_branch="M1N1M2N2")),
     "check z2z4/quotient: expected_branch: expected a list of strings, got 'M1N1M2N2'"),
    (_only_check("inoue_z2z4", "z2z4/quotient", lambda c: c.update(expected_branch=["M1", 2])),
     "check z2z4/quotient: expected_branch[1]: expected a string, got 2"),
    (_only_check("inoue_z2z4", "Y/collinear-sets", lambda c: c.update(expected=5)),
     "check Y/collinear-sets: expected: expected a list of lists of strings, got 5"),
    (_only_check("inoue_z2z4", "Y/collinear-sets", lambda c: c["expected"].append("Q1Q2Q3")),
     "check Y/collinear-sets: expected[6]: expected a list of strings, got 'Q1Q2Q3'"),
    (_only_check("inoue_z2z4", "z2z4/branch-points",
                 lambda c: c["expected_nodes"][1].update(pair="Lambda2N2")),
     "check z2z4/branch-points: expected_nodes[1].pair: expected a list of strings, "
     "got 'Lambda2N2'"),
    (_only_check("inoue_z2z4", "z2z4/branch-points",
                 lambda c: c["expected_nodes"][0].update(pair=["Lambda2", 2])),
     "check z2z4/branch-points: expected_nodes[0].pair[1]: expected a string, got 2"),
    # a number where a list belongs, which iteration would meet as a TypeError
    (_one_check_file(kind="diophantine", constraint="commuting-cubic", expected=5),
     "check x: expected: expected a list of solutions, got 5"),
    (_one_check_file(kind="diophantine", constraint="commuting-cubic", expected=[5]),
     "check x: expected[0]: expected a list of integers, got 5"),
    (_only_check("inoue_z2z4", "z2z4/branch-points", lambda c: c.update(expected_nodes=5)),
     "check z2z4/branch-points: expected_nodes: expected a list of nodes, got 5"),
    (_only_check("inoue_z2z4", "Y/singular-members-Phi", lambda c: c.update(expected=5)),
     "check Y/singular-members-Phi: expected: expected a list of decompositions, got 5"),
    (_only_check("inoue_z2z4", "Y/singular-members-Phi", lambda c: c["expected"].append(5)),
     "check Y/singular-members-Phi: expected[3]: expected a list of parts, got 5"),
    (_only_check("inoue_z2z4", "Y/minus-two-curves", lambda c: c.update(expected_classes=5)),
     "check Y/minus-two-curves: expected_classes: expected a list of classes, got 5"),
    (_only_check("inoue_bidouble", "W/diagonals-isolated",
                 lambda c: c.update(expected_classes=5)),
     "check W/diagonals-isolated: expected_classes: expected a list of classes, got 5"),
    (_only_check("inoue_bidouble", "W/pencils", lambda c: c.update(classes=5)),
     "check W/pencils: classes: expected a list of classes, got 5"),
    (_one_check_file(kind="gram_det", matrix=[[1, 0], 5], expected=1),
     "check x: matrix[1]: expected a list of entries, got 5"),
    (_one_check_file(kind="abstract_self_intersection", basis="KE", gram=[[7, 0], [0, 1]],
                     **{"class": {"K": 1}}, expected=7),
     "check x: basis: expected a list of strings, got 'KE'"),
])
def test_bad_check_field_is_an_input_error(tmp_path, capsys, data, message):
    from scw.cli import main

    path = tmp_path / "file.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


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


def test_run_named_unknown_tag():
    with pytest.raises(SpecError):
        run_named("lemma-99")
    assert run_named("prop-3.7").all_passed


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


def test_cli_lefschetz_and_seed_env():
    proc = run_cli("lefschetz", "lemma-3.1")
    assert proc.returncode == 0
    proc = run_cli("lefschetz", "unknown-tag")
    assert proc.returncode == 2
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
