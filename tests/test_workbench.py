import dataclasses
import json
import pathlib
import subprocess
import sys

import pytest

from scw import workbench
from scw.workbench import (SpecError, load_bundled, paper_suite, parse_data,
                           parse_spec, run_named, run_suite)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "scw" / "fixtures"

_STEP_NAMES = {ctor: kind for kind, (ctor, _arity) in workbench._STEP_KINDS.items()}


def _rat_json(x):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def serialize(wf: workbench.WorkbenchFile) -> dict:
    """The workbench JSON of a parsed file, for the round-trip test."""
    return {
        "version": wf.version,
        "surfaces": [
            {
                "id": s.id,
                "line_symbol": s.line_symbol,
                "script": [[_STEP_NAMES[type(step)], *dataclasses.astuple(step)]
                           for step in s.script],
                "blowups": [[p, sym] for p, sym in s.blowups],
            }
            for s in wf.surfaces
        ],
        "covers": [
            {
                "id": c.id,
                "surface": c.surface,
                "group": list(c.group),
                "branch": [
                    {
                        "name": b.name,
                        "class": {k: _rat_json(v) for k, v in b.cls},
                        "subgroup_generator": list(b.generator),
                        "character_exponent": b.exponent,
                        "components": b.components,
                    }
                    for b in c.branch
                ],
                "reduced_L": [
                    {"character": list(chi), "class": {k: _rat_json(v) for k, v in cls}}
                    for chi, cls in c.reduced_l
                ],
            }
            for c in wf.covers
        ],
        "checks": list(wf.checks),
    }


def test_parse_bundled_fixtures():
    for name in workbench.bundled_fixture_names():
        wf = load_bundled(name)
        assert len(wf.surfaces) == 1
        assert len(wf.covers) == 1
        assert wf.checks


def test_round_trip():
    for name in workbench.bundled_fixture_names():
        wf = load_bundled(name)
        again = parse_data(serialize(wf), where=name)
        assert again == wf
        assert serialize(again) == serialize(wf)


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


def _bidouble_with(name, **params):
    raw = json.loads((FIXTURES / "inoue_bidouble.json").read_text())
    for c in raw["checks"]:
        if c["name"] == name:
            c.update(params)
    return raw


def _one_check_file(**check):
    return {"version": 1, "checks": [{"name": "x", **check}]}


@pytest.mark.parametrize("data, name, field", [
    (_bidouble_with("W/catalog-counts", expected_minus_two=4.9),
     "W/catalog-counts", "expected_minus_two"),
    (_bidouble_with("W/halve-Delta2+Delta3", n=2.5), "W/halve-Delta2+Delta3", "n"),
    (_bidouble_with("W/gamma2-self-intersection", lhs={"L": True}),
     "W/gamma2-self-intersection", "lhs.L"),
    (_one_check_file(kind="common_involution", orders=[2, 2, 2], n=4, expected="false"),
     "x", "expected"),
    (_one_check_file(kind="hodge_bound", k2=7, kd=3, d2=1, expected="no"), "x", "expected"),
    (_one_check_file(kind="abstract_self_intersection", basis=["K", "F"],
                 gram=[[7, 0.5], [0.5, 1]], **{"class": {"K": 1}}, expected=7), "x", "gram"),
])
def test_malformed_check_value_is_an_input_error(tmp_path, capsys, data, name, field):
    from scw.cli import main

    path = tmp_path / "file.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"check {name}: {field}:" in err


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
