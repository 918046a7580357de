"""Workloads of the scw benchmark: inputs from a seed, one op, its answer check.

Every op builds fresh objects (a new Workbench or BlowupSurface) from its own
oracle seed, so no per-object cache carries over from one op to the next:
each op costs what one CLI invocation would.  The workload seed only picks
the oracle seeds and the order in which points are drawn; the answers it
checks do not depend on it.

Answers are checked against sources independent of the code under test:

* paper-suite: every one of the 190 checks passes;
* catalog-general: on n general points the negative curves, pencils and
  singular members of degree <= 2 are known in closed form (lines through
  two points, conics through five, line and conic pencils);
* h0-highdeg: a class in Cremona standard form on at most nine general
  points has h^0 = max(0, virtual dimension) (Harbourne 1986).

Functions of scw are looked up as module attributes at call time, so that
the wrappers of the traced run see every call.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterator

PAPER_SUITE_CHECKS = 190

CATALOG_POINTS = 8
CATALOG_BOUND = 2

# One cycle of h0-highdeg: (degree, multiplicities), each in Cremona standard
# form (descending, degree >= m1 + m2 + m3).  The row counts are chosen so
# that every op costs about the same (about 1 s here); degree 6 is at its
# largest standard-form matrix, 27x28.
H0_POINTS = 9
H0_CYCLE = (
    (6, (2, 2, 2, 2, 2, 2, 2, 2, 2)),  # 27 x 28
    (7, (2, 2, 2, 2, 2, 2, 2, 2, 2)),  # 27 x 36
    (8, (3, 2, 2, 2, 2, 2, 2, 1, 1)),  # 26 x 45
    (9, (3, 2, 2, 2, 2, 2, 1, 1, 1)),  # 24 x 55
)

ORACLE_SEED_RANGE = 1_000_000


class AnswerMismatch(Exception):
    """An op returned an answer that disagrees with the independent source."""


_REF_RNG = random.Random("perfbench-reference")
_REF_MATRIX = [[_REF_RNG.randint(-999, 999) for _ in range(10)] for _ in range(10)]


def fraction_kernel():
    """Reference kernel, independent of scw: Gaussian elimination of a fixed
    10x10 integer matrix over Fraction, eight times."""
    for _ in range(8):
        m = [[Fraction(x) for x in row] for row in _REF_MATRIX]
        for c in range(len(m)):
            piv = next(i for i in range(c, len(m)) if m[i][c] != 0)
            m[c], m[piv] = m[piv], m[c]
            for i in range(c + 1, len(m)):
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]


@dataclass(frozen=True)
class Workload:
    """A closed-loop workload.  `run(scw, inp)` is one op and returns the
    program's answer; `check(inp, answer)` raises AnswerMismatch when the
    answer is wrong and returns its canonical text otherwise.

    `reference`, when set, is a kernel that slows down with the op in the
    machine's slow phases; run.py reports op times normalised by it."""

    name: str
    cycle: int  # ops per cycle; a run measures whole cycles
    make_inputs: Callable[[random.Random], Iterator]
    run: Callable
    check: Callable[..., str]
    reference: Callable[[], None] | None

    def inputs(self, seed: int) -> Iterator:
        """Endless deterministic stream of op inputs for a workload seed."""
        return self.make_inputs(random.Random(f"perfbench:{self.name}:{seed}"))


# -- paper-suite -------------------------------------------------------------


def _paper_inputs(rng):
    while True:
        yield rng.randrange(ORACLE_SEED_RANGE)


def _paper_op(scw, seed):
    report = scw.workbench.paper_suite(seed=seed)
    return report, report.to_text(), report.to_json()


def _paper_check(seed, answer) -> str:
    report, text, js = answer
    counts = report.counts
    if len(report.checks) != PAPER_SUITE_CHECKS or counts["pass"] != PAPER_SUITE_CHECKS:
        failing = [c.name for c in report.checks if c.status != "pass"][:5]
        raise AnswerMismatch(f"seed {seed}: {counts} of {len(report.checks)} checks, "
                             f"expected {PAPER_SUITE_CHECKS} passing; first failing {failing}")
    return text + js


# -- catalog-general ---------------------------------------------------------


def _general_points(scw, order, base: int):
    """Surface blown up at free points drawn in `order`; E<i> lies over p<i>."""
    script = [scw.oracle.FreePoint(f"p{i}") for i in order]
    blowups = [(f"p{i}", f"E{i}") for i in sorted(order)]
    return scw.surface.build_surface(script, blowups,
                                     seed_policy=scw.oracle.SeedPolicy(base=base))


def _catalog_inputs(rng):
    points = list(range(1, CATALOG_POINTS + 1))
    while True:
        rng.shuffle(points)
        yield tuple(points), rng.randrange(ORACLE_SEED_RANGE)


def _catalog_op(scw, inp):
    order, base = inp
    s = _general_points(scw, order, base)
    curves = s.catalog(CATALOG_BOUND)
    pencils = scw.surface.find_pencils(s, CATALOG_BOUND)
    members = [scw.surface.singular_members(s, p, CATALOG_BOUND) for p in pencils]
    return curves, pencils, members


def _vec(cls) -> tuple[int, ...]:
    if not cls.is_integral:
        raise AnswerMismatch(f"non-integral class {cls}")
    return tuple(int(c) for c in cls.coeffs)


def _through(n: int, degree: int, points) -> tuple[int, ...]:
    return (degree,) + tuple(-1 if i in points else 0 for i in range(n))


def expected_general_curves(n: int) -> set[tuple[int, ...]]:
    """Negative curves of degree <= 2 on n general points: E_i, lines
    through two points, conics through five."""
    out = {(0,) + tuple(int(i == j) for j in range(n)) for i in range(n)}
    for k, degree in ((2, 1), (5, 2)):
        out |= {_through(n, degree, pts) for pts in itertools.combinations(range(n), k)}
    return out


def expected_general_pencils(n: int) -> set[tuple[int, ...]]:
    """Pencils of degree <= 2: lines through one point, conics through four."""
    out = set()
    for k, degree in ((1, 1), (4, 2)):
        out |= {_through(n, degree, pts) for pts in itertools.combinations(range(n), k)}
    return out


def _catalog_check(inp, answer) -> str:
    curves, pencils, members = answer
    n = len(inp[0])
    curve_vecs = [_vec(r.cls) for r in curves]
    want = expected_general_curves(n)
    if len(curve_vecs) != comb(n, 1) + comb(n, 2) + comb(n, 5) or set(curve_vecs) != want:
        raise AnswerMismatch(f"{len(curve_vecs)} curves, expected {len(want)}: "
                             f"missing {sorted(want - set(curve_vecs))[:3]}, "
                             f"extra {sorted(set(curve_vecs) - want)[:3]}")
    pencil_vecs = [_vec(p.cls) for p in pencils]
    want = expected_general_pencils(n)
    if len(pencil_vecs) != n + comb(n, 4) or set(pencil_vecs) != want:
        raise AnswerMismatch(f"{len(pencil_vecs)} pencils, expected {len(want)}")
    lines = []
    for pencil, vec, decomps in zip(pencils, pencil_vecs, members):
        # a line pencil L-E_i has the n-1 members (L-E_i-E_j)+E_j; a conic
        # pencil through four points has 3 line pairs and n-4 members
        # (conic through a fifth point)+E_x
        expected = n - 1 if vec[0] == 1 else 3 + (n - 4)
        if len(decomps) != expected:
            raise AnswerMismatch(f"pencil {pencil.cls}: {len(decomps)} singular members, "
                                 f"expected {expected}")
        for parts in decomps:
            total = [0] * (n + 1)
            for rec, mult in parts:
                for j, c in enumerate(_vec(rec.cls)):
                    total[j] += mult * c
            if tuple(total) != vec:
                raise AnswerMismatch(f"member {parts} does not sum to {pencil.cls}")
        lines.append(f"{pencil.cls}: " + "; ".join(
            " + ".join(f"{m}*{rec.name}" for rec, m in parts) for parts in decomps))
    total_members = sum(len(d) for d in members)
    if total_members != n * (n - 1) + comb(n, 4) * (3 + (n - 4)):
        raise AnswerMismatch(f"{total_members} singular members in total")
    return "\n".join([" ".join(r.name for r in curves)] + lines)


# -- h0-highdeg --------------------------------------------------------------


def virtual_dimension(degree: int, mults) -> int:
    return comb(degree + 2, 2) - sum(m * (m + 1) // 2 for m in mults)


def _h0_inputs(rng):
    points = list(range(1, H0_POINTS + 1))
    while True:
        for degree, mults in H0_CYCLE:
            rng.shuffle(points)
            yield degree, dict(zip(points, mults)), rng.randrange(ORACLE_SEED_RANGE)


def _h0_op(scw, inp):
    degree, mults, base = inp
    s = _general_points(scw, range(1, H0_POINTS + 1), base)
    cls = s.lattice.divisor({"L": degree, **{f"E{i}": -m for i, m in mults.items()}})
    return s.h0(cls)


def _h0_check(inp, answer) -> str:
    degree, mults, _base = inp
    expected = max(0, virtual_dimension(degree, mults.values()))
    if answer != expected:
        raise AnswerMismatch(f"h0 of degree {degree} with multiplicities "
                             f"{sorted(mults.values(), reverse=True)}: {answer}, "
                             f"expected {expected}")
    return str(answer)


# paper-suite and catalog-general churn through small Fraction and tuple
# objects and run up to 1.5x slower while other tenants load the machine,
# as the Fraction kernel does; h0-highdeg is big-integer arithmetic that
# barely slows then, so its times are reported as measured.
WORKLOADS = {w.name: w for w in (
    Workload("paper-suite", 1, _paper_inputs, _paper_op, _paper_check, fraction_kernel),
    Workload("catalog-general", 1, _catalog_inputs, _catalog_op, _catalog_check,
             fraction_kernel),
    Workload("h0-highdeg", len(H0_CYCLE), _h0_inputs, _h0_op, _h0_check, None),
)}
