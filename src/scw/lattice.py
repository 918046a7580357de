"""Divisor-class arithmetic on lattices with a symmetric intersection form.

Two kinds of lattice appear in practice: the Picard lattice of a blowup of
the projective plane, which carries the diagonal form (+1, -1, ..., -1) and
the canonical class -3L + sum(E_i); and an abstract lattice given by an
explicit Gram matrix, used for computations on surfaces whose Picard group
is only known numerically.

All coefficients are exact rationals.  Classes are immutable; every
operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .exactla import det_bareiss, smith_normal_form

Rat = Union[int, Fraction, str]


class LatticeMismatch(Exception):
    """Two classes from different lattices were combined."""


class NotDivisible(Exception):
    def __init__(self, symbol: str, coefficient: Fraction, divisor: int):
        self.symbol = symbol
        self.coefficient = coefficient
        self.divisor = divisor
        super().__init__(f"coefficient {coefficient} of {symbol} is not divisible by {divisor}")


class Unsolvable(Exception):
    def __init__(self, message: str, certificate=None):
        self.certificate = certificate
        super().__init__(message)


@dataclass(frozen=True)
class Lattice:
    """Base class; concrete lattices provide `names` and a Gram matrix."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("basis names must be unique")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown basis symbol {name!r}") from None

    def gram_entry(self, i: int, j: int) -> Fraction:
        raise NotImplementedError

    def divisor(self, coeffs: Mapping[str, Rat] | Sequence[Rat] | None = None) -> "DivisorClass":
        """Build a class from a symbol->coefficient map (missing symbols are 0)
        or from a dense coefficient sequence in basis order."""
        vec = [Fraction(0)] * self.dim
        if coeffs is None:
            pass
        elif isinstance(coeffs, Mapping):
            for name, value in coeffs.items():
                vec[self.index(name)] = Fraction(value)
        else:
            if len(coeffs) != self.dim:
                raise ValueError("coefficient sequence has wrong length")
            vec = [Fraction(x) for x in coeffs]
        return DivisorClass(self, tuple(vec))

    def zero(self) -> "DivisorClass":
        return self.divisor()


@dataclass(frozen=True)
class BlowupLattice(Lattice):
    """Picard lattice of a blowup of the plane: diagonal form (+1,-1,...,-1).

    `names[0]` is the pullback of a line; the remaining symbols are the
    exceptional classes.
    """

    def gram_entry(self, i: int, j: int) -> Fraction:
        if i != j:
            return Fraction(0)
        return Fraction(1) if i == 0 else Fraction(-1)

    @property
    def exceptional_names(self) -> tuple[str, ...]:
        return self.names[1:]

    def canonical_class(self) -> "DivisorClass":
        return self.divisor((Fraction(-3),) + (Fraction(1),) * (self.dim - 1))

    def exceptional(self, name: str) -> "DivisorClass":
        if name not in self.exceptional_names:
            raise KeyError(f"{name!r} is not an exceptional symbol")
        return self.divisor({name: 1})


def blowup_lattice(line: str, exceptional: Iterable[str]) -> BlowupLattice:
    return BlowupLattice((line,) + tuple(exceptional))


@dataclass(frozen=True)
class AbstractLattice(Lattice):
    """Lattice with a user-supplied symmetric Gram matrix."""

    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        super().__post_init__()
        n = len(self.names)
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise ValueError("Gram matrix must be square of the basis dimension")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")

    def gram_entry(self, i: int, j: int) -> Fraction:
        return self.gram[i][j]


def abstract_lattice(names: Iterable[str], gram_rows: Iterable[Iterable[Rat]]) -> AbstractLattice:
    rows = tuple(tuple(Fraction(x) for x in row) for row in gram_rows)
    return AbstractLattice(tuple(names), rows)


@dataclass(frozen=True)
class DivisorClass:
    lattice: Lattice
    coeffs: tuple[Fraction, ...]

    def coeff(self, name: str) -> Fraction:
        return self.coeffs[self.lattice.index(name)]

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: "DivisorClass"):
        if self.lattice != other.lattice:
            raise LatticeMismatch("classes live on different lattices")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(-a for a in self.coeffs))

    def __rmul__(self, n: Rat) -> "DivisorClass":
        f = Fraction(n)
        return DivisorClass(self.lattice, tuple(f * a for a in self.coeffs))

    __mul__ = __rmul__

    def dot(self, other: "DivisorClass") -> Fraction:
        self._check(other)
        lat = self.lattice
        if isinstance(lat, BlowupLattice):
            total = self.coeffs[0] * other.coeffs[0]
            for a, b in zip(self.coeffs[1:], other.coeffs[1:]):
                total -= a * b
            return total
        total = Fraction(0)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    total += a * b * lat.gram_entry(i, j)
        return total

    def __str__(self) -> str:
        return format_class(self)

    __repr__ = __str__


def format_class(d: DivisorClass) -> str:
    """Canonical human-readable form, e.g. '2L - E1 - 2E2p'."""
    parts = []
    for name, c in zip(d.lattice.names, d.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        coeff = "" if mag == 1 else (f"{mag}" if mag.denominator == 1 else f"({mag})")
        term = f"{coeff}{name}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def gram_det(classes_or_rows) -> Fraction:
    """Exact determinant of an intersection-number matrix.

    Accepts either a list of DivisorClass (the pairwise intersection matrix
    is formed first) or an explicit square matrix of rationals.
    """
    items = list(classes_or_rows)
    if items and isinstance(items[0], DivisorClass):
        rows = [[a.dot(b) for b in items] for a in items]
    else:
        rows = items
    return det_bareiss(rows)


def adjunction_genus(d: DivisorClass, k: DivisorClass) -> Fraction:
    """Arithmetic genus 1 + (D^2 + K.D)/2.

    The result is rational; integrality (D^2 + K.D even) is a separate
    parity check on integral classes.
    """
    return 1 + (d.dot(d) + k.dot(d)) / 2


def solve_divide(d: DivisorClass, n: int) -> DivisorClass:
    """The class X with n*X = D, if it exists in the integral lattice.

    Division is componentwise: the basis is a Z-basis, so n*X = D has an
    integral solution exactly when every coefficient is divisible by n.
    Raises NotDivisible naming the first offending coefficient.
    """
    if n <= 0:
        raise ValueError("divisor must be a positive integer")
    if not d.is_integral:
        raise ValueError("solve_divide expects an integral class")
    out = []
    for name, c in zip(d.lattice.names, d.coeffs):
        q = c / n
        if q.denominator != 1:
            raise NotDivisible(name, c, n)
        out.append(q)
    return DivisorClass(d.lattice, tuple(out))


@dataclass(frozen=True)
class Relation:
    """A linear-equivalence constraint  sum_u a_u * X_u == rhs."""

    unknowns: tuple[tuple[str, int], ...]
    rhs: DivisorClass

    @staticmethod
    def make(unknowns: Mapping[str, int], rhs: DivisorClass) -> "Relation":
        return Relation(tuple(sorted(unknowns.items())), rhs)


@dataclass(frozen=True)
class LinearSolution:
    classes: dict[str, DivisorClass]
    degrees_of_freedom: int


def solve_linear(relations: Sequence[Relation]) -> LinearSolution:
    """Solve a system of linear-equivalence constraints for unknown classes.

    Works over the free lattice (no torsion): the integer system is reduced
    by Smith normal form, each basis coordinate is solved independently,
    and integrality is enforced.  Underdetermined unknowns are reported via
    `degrees_of_freedom` (free unknowns are pinned to 0 in the returned
    canonical solution).  Raises Unsolvable with a certificate row when no
    integral solution exists.
    """
    if not relations:
        raise ValueError("no relations given")
    lat = relations[0].rhs.lattice
    for rel in relations:
        if rel.rhs.lattice != lat:
            raise LatticeMismatch("relation right-hand sides live on different lattices")
        if not rel.rhs.is_integral:
            raise ValueError("known classes must be integral")
    names: list[str] = []
    for rel in relations:
        for name, _ in rel.unknowns:
            if name not in names:
                names.append(name)
    a = [[0] * len(names) for _ in relations]
    for r, rel in enumerate(relations):
        for name, coeff in rel.unknowns:
            a[r][names.index(name)] = coeff
    b = [[rel.rhs.coeffs[j] for j in range(lat.dim)] for rel in relations]

    u, s, v = smith_normal_form(a)
    m, nu = len(a), len(names)
    ub = [
        [sum(Fraction(u[i][k]) * b[k][j] for k in range(m)) for j in range(lat.dim)]
        for i in range(m)
    ]
    diag = [s[i][i] for i in range(min(m, nu))]
    rank = sum(1 for d in diag if d != 0)

    y = [[Fraction(0)] * lat.dim for _ in range(nu)]
    for i in range(m):
        si = diag[i] if i < len(diag) else 0
        for j in range(lat.dim):
            if si == 0:
                if ub[i][j] != 0:
                    raise Unsolvable(
                        f"inconsistent system: combination {u[i]} of the relations "
                        f"forces 0 == {ub[i][j]} at symbol {lat.names[j]!r}",
                        certificate=(u[i], lat.names[j]),
                    )
            else:
                q = ub[i][j] / si
                if q.denominator != 1:
                    raise Unsolvable(
                        f"no integral solution: combination {u[i]} of the relations "
                        f"needs {si} | {ub[i][j]} at symbol {lat.names[j]!r}",
                        certificate=(u[i], lat.names[j]),
                    )
                y[i][j] = q
    x = [
        [sum(Fraction(v[i][k]) * y[k][j] for k in range(nu)) for j in range(lat.dim)]
        for i in range(nu)
    ]
    classes = {
        name: DivisorClass(lat, tuple(x[i]))
        for i, name in enumerate(names)
    }
    return LinearSolution(classes=classes, degrees_of_freedom=nu - rank)


def hodge_index_bound(k2: Rat, kd: Rat, d2: Rat | None = None):
    """Index-theorem bookkeeping for a class D against an ample-ish K,
    from the numbers K^2, K.D and optionally D^2.

    With D^2 known: returns True iff the constraint (K.D)^2 >= K^2 * D^2
    holds (only binding when D^2 > 0).  Otherwise returns the exact
    rational upper bound (K.D)^2 / K^2 for D^2.
    """
    k2 = Fraction(k2)
    kd = Fraction(kd)
    if k2 <= 0:
        raise ValueError("requires K^2 > 0")
    if d2 is None:
        return kd * kd / k2
    d2 = Fraction(d2)
    if d2 <= 0:
        return True
    return kd * kd >= k2 * d2
