"""Workbench files: parsing and suite execution.

A workbench file is JSON with construction scripts for surfaces, cover
specifications over them, and a list of named checks.  Rationals are
written as integers or "p/q" strings; divisor classes as symbol ->
rational maps; characters and group elements as residue tuples, one per
cyclic factor.  `_surface` and `_cover` read a surface and a cover into
the `BlowupSurface` and `CoverSpec` the checks use, refusing bad data with
a `SpecError` naming the field.  `parse_data` builds every surface and cover
once, at the run's seed, and reads every field of every check entry
(`checks.bind_checks`), so bad data fails before any check runs; the file
it returns holds the built objects and the values read.  Reports are
deterministic given (file, seed).  The bundled files are the two Inoue
cover workbenches and `named.json`, the paper's numeric claims, which
`run_named` selects by the first `/`-segment of their names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .checks import (SUITES, Entry, SpecError, _element, _group, _int, _str, bind_checks,
                     _cyclic_pair, resolve_class, run_check)
# validate_cover_data has no caller here: test_wrappers_are_installed_at_every_alias_and_removed
# in perfbench/test_perfbench.py lists this alias among those the tracer wraps
from .cover import BranchComponent, CoverDataError, CoverSpec, validate_cover_data  # noqa: F401
from .oracle import (FreeLine, FreePoint, IntersectionPoint, LineThrough, PointOnLine, ScriptError,
                     SeedPolicy)
from .report import VerificationReport
from .surface import BlowupSurface, SurfaceError

FORMAT_VERSION = 1

_STEP_KINDS = {
    "free_point": (FreePoint, 1),
    "free_line": (FreeLine, 1),
    "line_through": (LineThrough, 3),
    "point_on_line": (PointOnLine, 2),
    "intersection_point": (IntersectionPoint, 3),
}


@dataclass(frozen=True)
class WorkbenchFile:
    version: int
    # the seed at which the surfaces' realizations start
    seed: int
    # id -> the object built from the file's entry
    surfaces: dict[str, BlowupSurface]
    covers: dict[str, CoverSpec]
    checks: tuple[Entry, ...]


def _objects(values, where: str) -> list[tuple[str, dict]]:
    """The JSON objects of a list field, each with its field path."""
    if not isinstance(values, list) or not all(isinstance(v, dict) for v in values):
        raise SpecError(f"{where}: expected a list of objects")
    return [(f"{where}[{i}]", v) for i, v in enumerate(values)]


def _script(raw, where: str) -> list:
    if not isinstance(raw, list):
        raise SpecError(f"{where}: expected a list of construction steps")
    steps = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or not entry or entry[0] not in _STEP_KINDS:
            raise SpecError(f"{where}[{i}]: unknown construction step {entry!r}")
        ctor, arity = _STEP_KINDS[entry[0]]
        args = entry[1:]
        if len(args) != arity or not all(isinstance(a, str) for a in args):
            raise SpecError(f"{where}[{i}]: step {entry[0]} expects {arity} string argument(s)")
        steps.append(ctor(*args))
    return steps


def _surface(raw: dict, where: str, seed: int) -> BlowupSurface:
    """The surface of one `surfaces` entry; its realizations start at `seed`."""
    blowups = raw.get("blowups")
    if not isinstance(blowups, list) or not all(isinstance(b, list) and len(b) == 2 and all(
            isinstance(x, str) for x in b) for b in blowups):
        raise SpecError(f"{where}.blowups: expected a list of [point, symbol] string pairs")
    try:
        return BlowupSurface(
            _script(raw.get("script"), f"{where}.script"),
            [tuple(b) for b in blowups],
            name=_str(raw.get("id"), f"{where}.id"),
            line_symbol=_str(raw.get("line_symbol", "L"), f"{where}.line_symbol"),
            seed_policy=SeedPolicy(base=seed),
        )
    except (ScriptError, SurfaceError) as exc:
        field = "script" if isinstance(exc, ScriptError) else "blowups"
        raise SpecError(f"{where}.{field}: {exc}") from None


def _cover(raw: dict, where: str, surface_of) -> CoverSpec:
    """The cover of one `covers` entry, over the surface that `surface_of`
    returns for its `surface` id (a KeyError for an unknown id)."""
    sid = _str(raw.get("surface"), f"{where}.surface")
    try:
        base = surface_of(sid)
    except KeyError:
        raise SpecError(f"{where}.surface: unknown surface {sid!r}") from None
    group = _group(raw.get("group"), f"{where}.group")
    branch = []
    for w, b in _objects(raw.get("branch", []), f"{where}.branch"):
        name = _str(b.get("name"), f"{w}.name")
        if any(c.name == name for c in branch):
            raise SpecError(f"{w}.name: duplicate component name {name!r}")
        curve = resolve_class(base.lattice, b.get("class"), f"{w}.class")
        generator = _element(group, b.get("subgroup_generator"), f"{w}.subgroup_generator")
        exponent = _int(b.get("character_exponent"), f"{w}.character_exponent")
        pair = _cyclic_pair(group, generator, exponent, f"{w}.subgroup_generator",
                            f"{w}.character_exponent")
        components = _int(b.get("components"), f"{w}.components")
        try:
            branch.append(BranchComponent(name, curve, pair, components))
        except CoverDataError as exc:
            raise SpecError(f"{w}.components: {exc}") from None
    reduced = tuple(
        (_element(group, e.get("character"), f"{w}.character"),
         resolve_class(base.lattice, e.get("class"), f"{w}.class"))
        for w, e in _objects(raw.get("reduced_L", []), f"{where}.reduced_L")
    )
    return CoverSpec(name=_str(raw.get("id"), f"{where}.id"), group=group, base=base,
                     branch=tuple(branch), reduced_l=reduced)


def parse_data(data: dict, where: str = "workbench", seed: int = 0) -> WorkbenchFile:
    if not isinstance(data, dict):
        raise SpecError(f"{where}: expected a JSON object")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise SpecError(f"{where}: unrecognized version {version!r}")
    surfaces: dict[str, BlowupSurface] = {}
    for w, raw in _objects(data.get("surfaces", []), f"{where}.surfaces"):
        surface = _surface(raw, w, seed)
        if surface.name in surfaces:
            raise SpecError(f"{w}.id: duplicate surface id {surface.name!r}")
        surfaces[surface.name] = surface
    covers: dict[str, CoverSpec] = {}
    for w, raw in _objects(data.get("covers", []), f"{where}.covers"):
        cover = _cover(raw, w, surfaces.__getitem__)
        if cover.name in covers:
            raise SpecError(f"{w}.id: duplicate cover id {cover.name!r}")
        covers[cover.name] = cover
    checks = bind_checks(_objects(data.get("checks", []), f"{where}.checks"), surfaces, covers)
    return WorkbenchFile(version, seed, surfaces, covers, checks)


def parse_spec(path, seed: int = 0) -> WorkbenchFile:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return parse_data(data, where=str(path), seed=seed)


def _run(seed: int, jobs) -> VerificationReport:
    """One report over (file, suite) jobs, every file parsed at `seed`."""
    report = VerificationReport(seed=seed)
    for wf, suite in jobs:
        for entry in wf.checks:
            if suite == "all" or entry.suite == suite:
                report.extend(run_check(entry))
    return report


def run_suite(wf: WorkbenchFile, suite: str = "all") -> VerificationReport:
    """Execute the file's checks for one suite, at the seed it was parsed at;
    deterministic given (file, seed)."""
    if suite not in SUITES:
        raise SpecError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return _run(wf.seed, [(wf, suite)])


def bundled_fixture_names() -> list[str]:
    return ["inoue_bidouble.json", "inoue_z2z4.json", "named.json"]


def load_bundled(name: str, seed: int = 0) -> WorkbenchFile:
    text = resources.files("scw.fixtures").joinpath(name).read_text()
    return parse_data(json.loads(text), where=name, seed=seed)


def paper_suite(seed: int = 0) -> VerificationReport:
    """Every check of every bundled file, one report line per claim with its
    citation tag."""
    return _run(seed, [(load_bundled(name, seed), "all") for name in bundled_fixture_names()])


def _key(check_name: str) -> str:
    """The `scw lefschetz` key of a check: the first `/`-segment of its name."""
    return check_name.split("/", 1)[0]


def named_keys() -> list[str]:
    """The keys of the checks of `named.json`, sorted."""
    return sorted({_key(entry.name) for entry in load_bundled("named.json").checks})


def run_named(key: str, seed: int = 0) -> VerificationReport:
    """The checks of `named.json` whose name is `key` or starts with `key/`."""
    wf = load_bundled("named.json", seed)
    checks = tuple(entry for entry in wf.checks if _key(entry.name) == key)
    if not checks:
        raise SpecError(f"unknown check tag {key!r}; known: {', '.join(named_keys())}")
    return _run(seed, [(replace(wf, checks=checks), "all")])
