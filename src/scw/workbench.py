"""Workbench files: parsing and suite execution.

A workbench file is JSON with construction scripts for surfaces, cover
specifications over them, and a list of named checks.  Rationals are
written as integers or "p/q" strings; divisor classes as symbol ->
rational maps; characters and group elements as residue tuples.  Checks
are kept as the plain JSON objects of the file, with their keys sorted at
every level.  Reports are deterministic given (file, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .checks import NAMED_CHECKS, SpecError, _class_items, _int, _ints, run_check
from .cover import BranchComponent, CoverSpec, validate_cover_data
from .groups import CyclicPair, FiniteAbelianGroup
from .oracle import FreeLine, FreePoint, IntersectionPoint, LineThrough, PointOnLine, SeedPolicy
from .report import Check, VerificationReport
from .surface import BlowupSurface

FORMAT_VERSION = 1
SUITES = ("lattice", "surface", "cover", "lefschetz", "all")

_STEP_KINDS = {
    "free_point": (FreePoint, 1),
    "free_line": (FreeLine, 1),
    "line_through": (LineThrough, 3),
    "point_on_line": (PointOnLine, 2),
    "intersection_point": (IntersectionPoint, 3),
}


@dataclass(frozen=True)
class SurfaceDef:
    id: str
    line_symbol: str
    script: tuple
    blowups: tuple[tuple[str, str], ...]

    @property
    def symbols(self) -> tuple[str, ...]:
        return (self.line_symbol,) + tuple(s for _, s in self.blowups)


@dataclass(frozen=True)
class BranchDef:
    name: str
    cls: tuple[tuple[str, Fraction], ...]
    generator: tuple[int, ...]
    exponent: int
    components: int


@dataclass(frozen=True)
class CoverDef:
    id: str
    surface: str
    group: tuple[int, ...]
    branch: tuple[BranchDef, ...]
    reduced_l: tuple[tuple[tuple[int, ...], tuple[tuple[str, Fraction], ...]], ...]


@dataclass(frozen=True)
class WorkbenchFile:
    version: int
    surfaces: tuple[SurfaceDef, ...]
    covers: tuple[CoverDef, ...]
    checks: tuple[dict, ...]  # JSON objects, keys sorted at every level


def _parse_script(raw, where: str):
    steps = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or not entry or entry[0] not in _STEP_KINDS:
            raise SpecError(f"{where}[{i}]: unknown construction step {entry!r}")
        ctor, arity = _STEP_KINDS[entry[0]]
        args = entry[1:]
        if len(args) != arity or not all(isinstance(a, str) for a in args):
            raise SpecError(f"{where}[{i}]: step {entry[0]} expects {arity} string argument(s)")
        steps.append(ctor(*args))
    return tuple(steps)


def parse_data(data: dict, where: str = "workbench") -> WorkbenchFile:
    if not isinstance(data, dict):
        raise SpecError(f"{where}: expected a JSON object")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise SpecError(f"{where}: unrecognized version {version!r}")
    surfaces = []
    surface_symbols: dict[str, tuple[str, ...]] = {}
    for i, raw in enumerate(data.get("surfaces", [])):
        w = f"{where}.surfaces[{i}]"
        try:
            sid = raw["id"]
            sdef = SurfaceDef(
                id=sid,
                line_symbol=raw.get("line_symbol", "L"),
                script=_parse_script(raw["script"], f"{w}.script"),
                blowups=tuple((p, s) for p, s in raw["blowups"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"{w}: malformed surface ({exc})") from None
        if sid in surface_symbols:
            raise SpecError(f"{w}: duplicate surface id {sid!r}")
        surfaces.append(sdef)
        surface_symbols[sid] = sdef.symbols
    covers = []
    cover_ids = set()
    for i, raw in enumerate(data.get("covers", [])):
        w = f"{where}.covers[{i}]"
        try:
            cid = raw["id"]
            surface_id = raw["surface"]
        except (KeyError, TypeError):
            raise SpecError(f"{w}: missing id or surface") from None
        group = _ints(raw.get("group"), f"{w}.group")
        if surface_id not in surface_symbols:
            raise SpecError(f"{w}: unknown surface {surface_id!r}")
        if cid in cover_ids:
            raise SpecError(f"{w}: duplicate cover id {cid!r}")
        cover_ids.add(cid)
        symbols = surface_symbols[surface_id]
        branch = []
        names = set()
        for j, b in enumerate(raw.get("branch", [])):
            bw = f"{w}.branch[{j}]"
            try:
                bdef = BranchDef(
                    name=b["name"],
                    cls=_class_items(b["class"], symbols, f"{bw}.class"),
                    generator=_ints(b["subgroup_generator"], f"{bw}.subgroup_generator"),
                    exponent=_int(b["character_exponent"], f"{bw}.character_exponent"),
                    components=_int(b["components"], f"{bw}.components"),
                )
            except (KeyError, TypeError) as exc:
                raise SpecError(f"{bw}: malformed branch component ({exc})") from None
            if bdef.name in names:
                raise SpecError(f"{bw}: duplicate component name {bdef.name!r}")
            names.add(bdef.name)
            branch.append(bdef)
        reduced = []
        for j, entry in enumerate(raw.get("reduced_L", [])):
            rw = f"{w}.reduced_L[{j}]"
            try:
                chi = _ints(entry["character"], f"{rw}.character")
                cls = _class_items(entry["class"], symbols, f"{rw}.class")
            except (KeyError, TypeError) as exc:
                raise SpecError(f"{rw}: malformed entry ({exc})") from None
            reduced.append((chi, cls))
        covers.append(CoverDef(
            id=cid,
            surface=surface_id,
            group=group,
            branch=tuple(branch),
            reduced_l=tuple(reduced),
        ))
    checks = []
    names = set()
    for i, raw in enumerate(data.get("checks", [])):
        w = f"{where}.checks[{i}]"
        if not isinstance(raw, dict) or "name" not in raw or "kind" not in raw:
            raise SpecError(f"{w}: a check needs at least 'name' and 'kind'")
        if raw.get("suite", "all") not in SUITES:
            raise SpecError(f"{w}: unknown suite {raw.get('suite')!r}")
        if raw["name"] in names:
            raise SpecError(f"{w}: duplicate check name {raw['name']!r}")
        names.add(raw["name"])
        if "surface" in raw and raw["surface"] not in surface_symbols:
            raise SpecError(f"{w}: unknown surface {raw['surface']!r}")
        if "cover" in raw and raw["cover"] not in cover_ids:
            raise SpecError(f"{w}: unknown cover {raw['cover']!r}")
        checks.append(json.loads(json.dumps(raw, sort_keys=True)))
    return WorkbenchFile(
        version=version,
        surfaces=tuple(surfaces),
        covers=tuple(covers),
        checks=tuple(checks),
    )


def parse_spec(path) -> WorkbenchFile:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return parse_data(data, where=str(path))


class Workbench:
    """Built surfaces and covers for one file at one seed, with caching."""

    def __init__(self, wf: WorkbenchFile, seed: int = 0):
        self.file = wf
        self.seed = seed
        self._surfaces: dict[str, BlowupSurface] = {}
        self._covers: dict[str, CoverSpec] = {}
        self._validation: dict[str, list[Check]] = {}

    def surface(self, sid: str) -> BlowupSurface:
        if sid not in self._surfaces:
            sdef = next((s for s in self.file.surfaces if s.id == sid), None)
            if sdef is None:
                raise SpecError(f"unknown surface {sid!r}")
            self._surfaces[sid] = BlowupSurface(
                list(sdef.script),
                list(sdef.blowups),
                name=sdef.id,
                line_symbol=sdef.line_symbol,
                seed_policy=SeedPolicy(base=self.seed),
            )
        return self._surfaces[sid]

    def cover(self, cid: str) -> CoverSpec:
        if cid not in self._covers:
            cdef = next((c for c in self.file.covers if c.id == cid), None)
            if cdef is None:
                raise SpecError(f"unknown cover {cid!r}")
            base = self.surface(cdef.surface)
            group = FiniteAbelianGroup(cdef.group)
            branch = tuple(
                BranchComponent(
                    name=b.name,
                    curve=base.lattice.divisor(dict(b.cls)),
                    pair=CyclicPair(group, b.generator, b.exponent),
                    components=b.components,
                )
                for b in cdef.branch
            )
            reduced = tuple(
                (group.reduce(chi), base.lattice.divisor(dict(cls)))
                for chi, cls in cdef.reduced_l
            )
            self._covers[cid] = CoverSpec(
                name=cdef.id, group=group, base=base, branch=branch, reduced_l=reduced,
            )
        return self._covers[cid]

    def validation(self, cid: str) -> list[Check]:
        """The cover-data checks of one cover, run once."""
        if cid not in self._validation:
            self._validation[cid] = validate_cover_data(self.cover(cid))
        return self._validation[cid]

    def cover_valid(self, cid: str) -> bool:
        return all(c.status == "pass" for c in self.validation(cid))


def _run(jobs, seed: int) -> VerificationReport:
    """One report over (file, suite) jobs, each file on its own Workbench."""
    report = VerificationReport(seed=seed)
    for wf, suite in jobs:
        wb = Workbench(wf, seed=seed)
        for params in wf.checks:
            if suite == "all" or params.get("suite", "all") == suite:
                report.extend(run_check(wb, params))
    return report


def _named_file(tags) -> WorkbenchFile:
    checks = [params for tag in tags for params in NAMED_CHECKS[tag]]
    return parse_data({"version": FORMAT_VERSION, "checks": checks}, where="named checks")


def run_suite(wf: WorkbenchFile, suite: str = "all", seed: int = 0) -> VerificationReport:
    """Execute the file's checks for one suite; deterministic given (file, seed)."""
    if suite not in SUITES:
        raise SpecError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return _run([(wf, suite)], seed)


def bundled_fixture_names() -> list[str]:
    return ["inoue_bidouble.json", "inoue_z2z4.json"]


def load_bundled(name: str) -> WorkbenchFile:
    text = resources.files("scw.fixtures").joinpath(name).read_text()
    return parse_data(json.loads(text), where=name)


def paper_suite(seed: int = 0) -> VerificationReport:
    """Every bundled check: the two cover workbenches plus the named
    numeric checks, one report line per claim with its citation tag."""
    files = [load_bundled(name) for name in bundled_fixture_names()]
    files.append(_named_file(sorted(NAMED_CHECKS)))
    return _run([(wf, "all") for wf in files], seed)


def run_named(tag: str, seed: int = 0) -> VerificationReport:
    if tag not in NAMED_CHECKS:
        raise SpecError(f"unknown check tag {tag!r}; known: {', '.join(sorted(NAMED_CHECKS))}")
    return _run([(_named_file([tag]), "all")], seed)
