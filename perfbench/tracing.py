"""Spans around the calls into each scw layer, recorded from outside the program.

`Tracer.install` replaces each target function by a wrapper that records a
span (name, start, end, parent span, op id).  Several modules import a
function by name (`scw.oracle.rank`, `scw.checks.gram_det`, ...), so every
module and class attribute of scw that is the original function is replaced,
not only the defining one.  `Tracer.uninstall` puts the originals back.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its direct children cover; the run is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

HARNESS = "harness"
# Span-name prefix -> layer for the self-time shares.
LAYER_OF_PREFIX = {
    "lattice": "lattice",
    "exactla": "exactla",
    "oracle": "oracle",
    "surface": "surface",
    "cover": "cover",
    "groups": "cover",
    "lefschetz": "lefschetz",
    "checks": HARNESS,
    "workbench": HARNESS,
    "report": HARNESS,
    "op": HARNESS,
}
LAYERS = ("lattice", "exactla", "oracle", "surface", "cover", "lefschetz", HARNESS)


def _rank_note(args, kwargs, result):
    rows = args[0]
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0}


def _surface_h0_note(args, kwargs, result):
    surface = args[0]
    policy = (args[2] if len(args) > 2 else kwargs.get("policy")) or surface.seed_policy
    return {"seeds": len(policy.seeds())}


def _catalog_note(args, kwargs, result):
    return {"curves": len(result) - len(args[0].lattice.exceptional_names)}


def _spec_note(args, kwargs, result):
    # the spec object is kept alive by the span, so its id stays unique
    return {"spec": args[0]}


def _run_check_note(args, kwargs, result):
    return {"failed": sum(1 for c in result if c.status == "fail")}


# (module, attribute path, span name, note).  A note maps (args, kwargs,
# result) of a call to attributes of its span.
TARGETS = (
    ("scw.lattice", "DivisorClass.dot", "lattice.dot", None),
    ("scw.lattice", "DivisorClass.__add__", "lattice.add", None),
    ("scw.lattice", "DivisorClass.__sub__", "lattice.sub", None),
    ("scw.lattice", "DivisorClass.__neg__", "lattice.neg", None),
    ("scw.lattice", "DivisorClass.__rmul__", "lattice.mul", None),
    ("scw.lattice", "Lattice.divisor", "lattice.divisor", None),
    ("scw.lattice", "gram_det", "lattice.gram_det", None),
    ("scw.lattice", "solve_linear", "lattice.solve_linear", None),
    ("scw.lattice", "solve_divide", "lattice.solve_divide", None),
    ("scw.lattice", "adjunction_genus", "lattice.adjunction_genus", None),
    ("scw.lattice", "hodge_index_bound", "lattice.hodge_index_bound", None),
    ("scw.exactla", "rank", "exactla.rank", _rank_note),
    ("scw.exactla", "smith_normal_form", "exactla.smith_normal_form", None),
    ("scw.exactla", "det_bareiss", "exactla.det_bareiss", None),
    ("scw.oracle", "realize_configuration", "oracle.realize", None),
    ("scw.oracle", "h0_from_realization", "oracle.h0", None),
    ("scw.surface", "BlowupSurface.__init__", "surface.build", None),
    ("scw.surface", "BlowupSurface.h0", "surface.h0", _surface_h0_note),
    ("scw.surface", "catalog_negative_curves", "surface.catalog", _catalog_note),
    ("scw.surface", "find_pencils", "surface.find_pencils", None),
    ("scw.surface", "singular_members", "surface.singular_members", None),
    ("scw.surface", "contract", "surface.contract", None),
    ("scw.cover", "validate_cover_data", "cover.validate_cover_data", None),
    ("scw.cover", "derive_all_L", "cover.derive_all_L", _spec_note),
    ("scw.cover", "building_data_relations", "cover.building_data_relations", None),
    ("scw.cover", "classify_branch_points", "cover.classify_branch_points", None),
    ("scw.cover", "node_count", "cover.node_count", None),
    ("scw.cover", "pullback", "cover.pullback", None),
    ("scw.cover", "preimage_consistency", "cover.preimage_consistency", None),
    ("scw.cover", "canonical_cover", "cover.canonical_cover", None),
    ("scw.cover", "invariants", "cover.invariants", None),
    ("scw.cover", "h0_vanishing_checks", "cover.h0_vanishing_checks", None),
    ("scw.cover", "quotient_cover", "cover.quotient_cover", None),
    ("scw.cover", "minimal_model", "cover.minimal_model", None),
    ("scw.groups", "all_subgroups", "groups.all_subgroups", None),
    ("scw.groups", "subgroups_of_order", "groups.subgroups_of_order", None),
    ("scw.groups", "pairwise_common_involution", "groups.pairwise_common_involution", None),
    ("scw.groups", "restriction_level", "groups.restriction_level", None),
    ("scw.lefschetz", "involution_counts", "lefschetz.involution_counts", None),
    ("scw.lefschetz", "involution_profile", "lefschetz.involution_profile", None),
    ("scw.lefschetz", "involution_from_counts", "lefschetz.involution_from_counts", None),
    ("scw.lefschetz", "order3_counts", "lefschetz.order3_counts", None),
    ("scw.lefschetz", "order3_profile", "lefschetz.order3_profile", None),
    ("scw.lefschetz", "involution_range_filter", "lefschetz.involution_range_filter", None),
    ("scw.lefschetz", "diophantine_enumerate", "lefschetz.diophantine_enumerate", None),
    ("scw.lefschetz", "case_gram", "lefschetz.case_gram", None),
    ("scw.lefschetz", "theorem11_consistency", "lefschetz.theorem11_consistency", None),
    ("scw.checks", "run_check", "checks.run_check", _run_check_note),
    ("scw.workbench", "parse_data", "workbench.parse", None),
    ("scw.report", "VerificationReport.to_text", "report.render", None),
    ("scw.report", "VerificationReport.to_json", "report.render", None),
)


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _scw_namespaces():
    """Every loaded scw module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if name != "scw" and not name.startswith("scw."):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, op id, attributes or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1
        self._op_rec = None

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(rec)
                rec[5] = {"raised": type(exc).__name__}
                raise
            self._close(rec)
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result
        return traced

    def begin_op(self, op: int):
        self.op = op
        self._op_rec = self._open("op")

    def end_op(self):
        self._close(self._op_rec)

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every target at every scw attribute that refers to it."""
        wrappers = {}
        for module, path, name, note in TARGETS:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            wrappers[id(original)] = (original, self.wrap(name, original, note))
        try:
            for ns in _scw_namespaces():
                for attr, value in list(vars(ns).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(ns, attr, hit[1])
                        self._patched.append((ns, attr, value))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    # -- output ----------------------------------------------------------------

    def write(self, path):
        """Spans as gzipped JSON lines [name, start_us, end_us, parent, op]."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op, _attrs in self.spans:
                fh.write(json.dumps([name, round((start - t0) * 1e6, 1),
                                     round((end - t0) * 1e6, 1), parent, op]) + "\n")


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


def span_stats(spans):
    """Per span name: calls, total duration and total self time."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    for i, (name, start, end, _parent, _op, _attrs) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child[i]
    return calls, total, self_time


def per_layer_metrics(spans, n_ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, per op where it is a rate."""
    calls, total, self_time = span_stats(spans)
    per_op = max(n_ops, 1)

    def count(name):
        return calls[name] / per_op, "count/op"

    def secs(table, name):
        return table[name] / per_op, "s/op"

    def attrs(name, key):
        return [s[5][key] for s in spans if s[0] == name and s[5] and key in s[5]]

    rank_rows = attrs("exactla.rank", "rows")
    rank_cols = attrs("exactla.rank", "cols")
    h0_rows = sum(s[5]["rows"] for s in spans
                  if s[0] == "exactla.rank" and s[3] >= 0 and spans[s[3]][0] == "oracle.h0")
    lookups = sum(attrs("surface.h0", "seeds"))
    queried = sum(1 for s in spans
                  if s[0] == "surface.h0" and s[3] >= 0 and spans[s[3]][0] == "surface.catalog")
    accepted = sum(attrs("surface.catalog", "curves"))
    specs = {id(spec) for spec in attrs("cover.derive_all_L", "spec")}
    lefschetz_names = [n for n in calls if n.startswith("lefschetz.")]
    op_wall = total["op"]

    m = {
        "lattice.dot.calls": count("lattice.dot"),
        "lattice.dot.s": secs(total, "lattice.dot"),
        "lattice.solve_linear.calls": count("lattice.solve_linear"),
        "lattice.solve_linear.s": secs(total, "lattice.solve_linear"),
        "lattice.gram_det.calls": count("lattice.gram_det"),
        "lattice.gram_det.s": secs(total, "lattice.gram_det"),
        "exactla.rank.calls": count("exactla.rank"),
        "exactla.rank.s": secs(total, "exactla.rank"),
        "exactla.rank.cells": (sum(r * c for r, c in zip(rank_rows, rank_cols)) / per_op,
                               "count/op"),
        "exactla.rank.max_rows": (max(rank_rows, default=0), "count"),
        "exactla.rank.max_cols": (max(rank_cols, default=0), "count"),
        "exactla.smith_normal_form.calls": count("exactla.smith_normal_form"),
        "exactla.smith_normal_form.s": secs(total, "exactla.smith_normal_form"),
        "exactla.det_bareiss.calls": count("exactla.det_bareiss"),
        "exactla.det_bareiss.s": secs(total, "exactla.det_bareiss"),
        "oracle.realize.calls": count("oracle.realize"),
        "oracle.realize.s": secs(total, "oracle.realize"),
        "oracle.realize.failed": (len(attrs("oracle.realize", "raised")) / per_op, "count/op"),
        "oracle.h0.calls": count("oracle.h0"),
        "oracle.h0.self_s": secs(self_time, "oracle.h0"),
        "oracle.h0.rows": (h0_rows / per_op, "count/op"),
        "surface.h0.calls": count("surface.h0"),
        "surface.h0.self_s": secs(self_time, "surface.h0"),
        "surface.h0.lookups": (lookups / per_op, "count/op"),
        "surface.h0.cache_hit_ratio": (1 - calls["oracle.h0"] / lookups if lookups else 0.0,
                                       "ratio"),
        "surface.catalog.self_s": secs(self_time, "surface.catalog"),
        "surface.catalog.queried": (queried / per_op, "count/op"),
        "surface.catalog.accept_ratio": (accepted / queried if queried else 0.0, "ratio"),
        "surface.find_pencils.self_s": secs(self_time, "surface.find_pencils"),
        "surface.singular_members.self_s": secs(self_time, "surface.singular_members"),
        "cover.derive_all_L.calls": count("cover.derive_all_L"),
        "cover.derive_all_L.self_s": secs(self_time, "cover.derive_all_L"),
        "cover.derive_all_L.calls_per_spec": (calls["cover.derive_all_L"] / len(specs)
                                              if specs else 0.0, "ratio"),
        "cover.classify_branch_points.calls": count("cover.classify_branch_points"),
        "cover.classify_branch_points.self_s": secs(self_time, "cover.classify_branch_points"),
        "cover.validate_cover_data.calls": count("cover.validate_cover_data"),
        "cover.validate_cover_data.self_s": secs(self_time, "cover.validate_cover_data"),
        "cover.canonical_cover.calls": count("cover.canonical_cover"),
        "cover.canonical_cover.self_s": secs(self_time, "cover.canonical_cover"),
        "cover.invariants.self_s": secs(self_time, "cover.invariants"),
        "cover.minimal_model.self_s": secs(self_time, "cover.minimal_model"),
        "cover.preimage_consistency.self_s": secs(self_time, "cover.preimage_consistency"),
        "lefschetz.calls": (sum(calls[n] for n in lefschetz_names) / per_op, "count/op"),
        "lefschetz.self_s": (sum(self_time[n] for n in lefschetz_names) / per_op, "s/op"),
        "checks.run_check.calls": count("checks.run_check"),
        "checks.run_check.self_s": secs(self_time, "checks.run_check"),
        "checks.failed": (sum(attrs("checks.run_check", "failed")) / per_op, "count/op"),
        "workbench.parse.s": secs(total, "workbench.parse"),
        "report.render.s": secs(total, "report.render"),
    }
    layer_self = defaultdict(float)
    for name, t in self_time.items():
        layer_self[layer_of(name)] += t
    for layer in LAYERS:
        m[f"share.{layer}"] = (layer_self[layer] / op_wall if op_wall else 0.0, "ratio")
    m["trace.spans"] = (len(spans) / per_op, "count/op")
    return m
