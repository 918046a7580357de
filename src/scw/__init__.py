"""scw: exact-arithmetic workbench for blowup surfaces and abelian covers.

Divisor-class arithmetic on Picard lattices, negative-curve catalogs from
point-configuration scripts, building data of finite abelian Galois
covers, fixed-point bookkeeping, and a JSON check harness, all over exact
rationals.
"""

__version__ = "0.1.0"

from .lattice import (AbstractLattice, BlowupLattice, DivisorClass, LatticeMismatch,
                      NotDivisible, Relation, Unsolvable, abstract_lattice,
                      adjunction_genus, blowup_lattice, gram_det, hodge_index_bound,
                      solve_divide, solve_linear)
from .oracle import SeedPolicy
from .surface import BlowupSurface, build_surface

__all__ = [
    "AbstractLattice",
    "BlowupLattice",
    "BlowupSurface",
    "DivisorClass",
    "LatticeMismatch",
    "NotDivisible",
    "Relation",
    "SeedPolicy",
    "Unsolvable",
    "abstract_lattice",
    "adjunction_genus",
    "blowup_lattice",
    "build_surface",
    "gram_det",
    "hodge_index_bound",
    "solve_divide",
    "solve_linear",
]
