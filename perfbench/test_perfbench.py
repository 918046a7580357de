"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from itertools import islice

import pytest

import run
import tracing
import workloads

scw = run.import_scw()

# Per-layer metrics that each workload must move (the routing table of
# BASELINE.md); a zero here means a wrapper sits on the wrong alias.
ROUTES = {
    "paper-suite": (
        "lattice.dot.calls", "lattice.solve_linear.calls", "lattice.gram_det.calls",
        "exactla.rank.calls", "exactla.smith_normal_form.calls", "oracle.realize.calls",
        "oracle.h0.calls", "surface.h0.calls", "cover.derive_all_L.calls",
        "cover.derive_all_L.self_s", "cover.classify_branch_points.calls",
        "cover.validate_cover_data.calls", "cover.canonical_cover.calls",
        "cover.invariants.self_s", "cover.minimal_model.self_s",
        "cover.preimage_consistency.self_s", "lefschetz.calls", "lefschetz.self_s",
        "checks.run_check.calls", "checks.run_check.self_s", "workbench.parse.s",
        "report.render.s", "share.lattice", "share.cover",
    ),
    "catalog-general": (
        "lattice.dot.calls", "lattice.dot.s", "exactla.rank.calls", "exactla.rank.s",
        "exactla.rank.cells", "oracle.realize.calls", "oracle.h0.calls",
        "oracle.h0.self_s", "oracle.h0.rows", "surface.h0.calls", "surface.h0.self_s",
        "surface.catalog.self_s", "surface.catalog.accept_ratio",
        "surface.find_pencils.self_s", "surface.singular_members.self_s",
    ),
    "h0-highdeg": (
        "exactla.rank.calls", "exactla.rank.s", "exactla.rank.max_rows",
        "exactla.rank.max_cols", "oracle.realize.calls", "oracle.realize.s",
        "oracle.h0.calls", "oracle.h0.rows", "surface.h0.calls", "share.exactla",
    ),
}

TINY_H0_CYCLE = (
    (3, (1, 1, 1, 1, 1, 1, 1, 1, 1)),
    (4, (2, 1, 1, 1, 1, 1, 1, 1, 1)),
    (5, (2, 2, 1, 1, 1, 1, 1, 1, 1)),
    (6, (2, 2, 2, 1, 1, 1, 1, 1, 1)),
)


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "CATALOG_POINTS", 6)
    monkeypatch.setattr(workloads, "H0_CYCLE", TINY_H0_CYCLE)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _ops(name, seed, count=None):
    w = workloads.WORKLOADS[name]
    return list(islice(w.inputs(seed), count or w.cycle))


def _traced(name, inputs):
    w = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = [run.run_op(w, scw, inp, tracer, i) for i, inp in enumerate(inputs)]
    finally:
        tracer.uninstall()
    return tracer, ops


def test_h0_cycles_are_in_standard_form():
    for degree, mults in workloads.H0_CYCLE + TINY_H0_CYCLE:
        assert list(mults) == sorted(mults, reverse=True)
        assert degree >= sum(mults[:3])
        assert len(mults) == workloads.H0_POINTS


def test_closed_forms_at_six_points():
    # the 27 lines of a cubic surface, and its 21 conic-bundle classes of degree <= 2
    assert len(workloads.expected_general_curves(6)) == 27
    assert len(workloads.expected_general_pencils(6)) == 21


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_routed_layer_metrics_are_nonzero(name):
    tracer, ops = _traced(name, _ops(name, seed=1))
    assert all(op.error is None for op in ops), ops
    metrics = tracing.per_layer_metrics(tracer.spans, len(ops))
    zero = [m for m in ROUTES[name] if not metrics[m][0] > 0]
    assert not zero


def test_shares_cover_the_op():
    tracer, ops = _traced("catalog-general", _ops("catalog-general", seed=1))
    metrics = tracing.per_layer_metrics(tracer.spans, len(ops))
    assert sum(metrics[f"share.{layer}"][0] for layer in tracing.LAYERS) == pytest.approx(1.0)


def test_wrappers_are_installed_at_every_alias_and_removed():
    originals = {
        "rank": scw.exactla.rank,
        "gram_det": scw.lattice.gram_det,
        "solve_linear": scw.lattice.solve_linear,
        "det_bareiss": scw.exactla.det_bareiss,
        "smith_normal_form": scw.exactla.smith_normal_form,
        "validate_cover_data": scw.cover.validate_cover_data,
        "run_check": scw.checks.run_check,
        "dot": scw.lattice.DivisorClass.dot,
    }
    sites = [
        (scw.oracle, "rank"), (scw.exactla, "rank"),
        (scw.checks, "gram_det"), (scw.checks, "solve_linear"), (scw.lefschetz, "gram_det"),
        (scw, "gram_det"), (scw, "solve_linear"),
        (scw.workbench, "validate_cover_data"), (scw.workbench, "run_check"),
        (scw.lattice, "det_bareiss"), (scw.lattice, "smith_normal_form"),
        (scw.lattice.DivisorClass, "dot"),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr in sites:
            assert getattr(owner, attr) is not originals[attr], (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr in sites:
        assert getattr(owner, attr) is originals[attr], (owner, attr)
    for module, path, _name, _note in tracing.TARGETS:
        owner, attr = tracing._resolve(module, path)
        assert not hasattr(vars(owner)[attr], "__wrapped__"), (module, path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_answers_identical_with_tracing_on_and_off(name):
    inputs = _ops(name, seed=2)
    w = workloads.WORKLOADS[name]
    plain = [run.run_op(w, scw, inp) for inp in inputs]
    _tracer, traced = _traced(name, inputs)
    assert [op.error for op in plain + traced] == [None] * (2 * len(inputs))
    assert [op.answer for op in plain] == [op.answer for op in traced]


def _seed_free_answer(name, inp):
    """The checked answer, without the report's own mention of the seed."""
    w = workloads.WORKLOADS[name]
    answer = w.run(scw, inp)
    text = w.check(inp, answer)
    if name == "paper-suite":
        return [(c.name, c.status, c.computed, c.expected, c.tag)
                for c in answer[0].sorted_checks()]
    return text


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_changes_inputs_not_answers(name):
    first, second = _ops(name, seed=1), _ops(name, seed=2)
    assert first != second
    assert first == _ops(name, seed=1)
    assert ([_seed_free_answer(name, inp) for inp in first]
            == [_seed_free_answer(name, inp) for inp in second])


def test_wrong_answer_and_exception_count_as_failed_ops():
    w = workloads.WORKLOADS["h0-highdeg"]
    inp = _ops("h0-highdeg", seed=1, count=1)[0]

    def boom(scw, inp):
        raise ValueError("boom")

    wrong = run.run_op(dataclasses.replace(w, run=lambda scw, inp: -1), scw, inp)
    raised = run.run_op(dataclasses.replace(w, run=boom), scw, inp)
    assert wrong.answer is None and wrong.error.startswith("wrong answer")
    assert raised.answer is None and raised.error == "ValueError: boom"


def test_tail_percentile():
    assert run.tail([float(i) for i in range(1, 61)]) == (50.0, pytest.approx(100 * 50 / 60))
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(name, trace, key, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec[key]} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-suite",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout
