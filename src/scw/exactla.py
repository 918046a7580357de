"""Exact linear algebra over the rationals and the integers.

Dense matrices of two sizes: lattice systems stay below about 25x25, while
the interpolation matrices behind h^0 grow with the degree (24x55 at degree
9, 90x91 at degree 12).  For a determinant, rational rows are scaled to
integer rows by the lcm of their denominators.  The rank of an integer
matrix is eliminated mod the prime PRIME first: a minor that is nonzero mod
p is nonzero over Z, so that rank is a lower bound over Q, and exact when it
is full.  Only otherwise does fraction-free (Bareiss) elimination over Z
decide.  PRIME is the largest prime below 2^30.  No floating point anywhere.

The matrix mod PRIME is packed: each row is one Python int with a slot of
`slot_width(ncols)` bits per column, column 0 lowest.  Eliminating a column
reduces only the pivot row mod PRIME, once; every other row x becomes
(x >> width) + f * tail, two big-int operations in C, and is never reduced.
The slots only grow, so no borrow crosses a slot, and the width keeps every
slot below 2^width, so no carry does: a slot starts below PRIME and gains
at most (PRIME-1)^2 per column eliminated, and there are fewer than ncols.

The pivot's tail is reduced in whole-int operations, all slots at once.
PRIME = 2^30 - 35, so 2^30 = 35 mod PRIME, and a fold rewrites each slot
hi*2^30 + lo as hi*35 + lo, congruent and smaller, with per-slot masks
built once per matrix.  `_folds(width)` is the number of folds that brings
any slot below 2^width under 2*PRIME (two, for every ncols below 2^18);
then adding 2^31 - PRIME to a slot sets its bit 31 exactly when the slot
is at least PRIME, and that guard bit says where to subtract PRIME.  No
step carries or borrows across a slot, and every tail slot ends fully
reduced, below PRIME, so the slot bound above holds as it did.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

PRIME = 1073741789  # the largest prime below 2**30


def _integer_row(row) -> tuple[list[int], int]:
    """The row times the lcm d of its denominators, exactly, and d."""
    row = [x if type(x) is int else Fraction(x) for x in row]
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row], d


def _bareiss(a: list[list[int]]) -> tuple[int, int]:
    """Fraction-free elimination of an integer matrix, in place.

    Return (rank, d), where d is the last pivot times the sign of the row
    swaps: the determinant when the matrix is square and of full rank.
    Every entry stays a minor of the input, so each division is exact.
    """
    r, prev, sign = 0, 1, 1
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p, top = a[r][c], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        r += 1
        if r == len(a):
            break
    return r, sign * prev


def slot_width(ncols: int) -> int:
    """Bits per column of a packed row of ncols residues.

    A slot stays below PRIME + ncols*(PRIME-1)^2 (module docstring), which
    is below 2^(2*30 + ncols.bit_length() + 1).
    """
    return 2 * PRIME.bit_length() + ncols.bit_length() + 1


def _folds(width: int) -> int:
    """Folds that bring any slot below 2^width under 2*PRIME.

    A fold leaves a slot at most B at most 35*(B >> 30) + 2^30 - 1.
    """
    bound, folds = (1 << width) - 1, 0
    while bound >= 2 * PRIME:
        bound, folds = (bound >> 30) * 35 + (1 << 30) - 1, folds + 1
    return folds


def _fold_masks(ncols: int) -> tuple[int, int, int, int, int]:
    """What `_reduce_slots` needs for rows of ncols slots at their width:
    per slot, the masks of its low 30 and low width-30 bits, its bit 0 and
    the bias 2^31 - PRIME; and the number of folds."""
    w = slot_width(ncols)
    ones = ((1 << ncols * w) - 1) // ((1 << w) - 1)
    return (ones * ((1 << 30) - 1), ones * ((1 << w - 30) - 1), ones,
            ones * ((1 << 31) - PRIME), _folds(w))


def _reduce_slots(x: int, masks) -> int:
    """x with every slot reduced mod PRIME (module docstring)."""
    lo, hi, ones, bias, folds = masks
    for _ in range(folds):
        x = ((x >> 30) & hi) * 35 + (x & lo)
    return x - ((x + bias) >> 31 & ones) * PRIME


class Packed:
    """A matrix of residues mod PRIME: `rows` packed at the slot width of
    `ncols`.  As a sequence it is its rows of residues, so the argument of
    `rank` is still a sequence of rows whose length and first row's length
    are the matrix size (the tracing of perfbench reads them)."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: list[int], ncols: int):
        self.rows, self.ncols = rows, ncols

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> list[int]:
        w, x = slot_width(self.ncols), self.rows[i]
        return [(x >> j * w) & ((1 << w) - 1) for j in range(self.ncols)]


def _rank_mod_p(rows: list[int], ncols: int) -> int:
    """Rank over Z/PRIME of packed rows of ncols residues.

    Column by column, the pivot is the first row whose low slot is nonzero
    mod PRIME; it leaves the rows, and its tail is reduced mod PRIME by
    folding.  Every other row drops its low slot and adds f times that
    tail, where f is minus its low slot over the pivot's, mod PRIME.  The
    input is not modified.
    """
    w, masks = slot_width(ncols), _fold_masks(ncols)
    low = (1 << w) - 1
    m, r = list(rows), 0
    for k in range(ncols):
        piv = next((i for i, x in enumerate(m) if (x & low) % PRIME), None)
        if piv is None:
            m = [x >> w for x in m]
            continue
        top = m.pop(piv)
        neg_inv = PRIME - pow((top & low) % PRIME, -1, PRIME)
        tail = _reduce_slots(top >> w, masks)
        m = [(x >> w) + (x & low) * neg_inv % PRIME * tail for x in m]
        r += 1
        if not m:
            break
    return r


def det_bareiss(rows) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination.

    Rational input is first scaled row-by-row to integers; the determinant
    is divided back by the scaling factors at the end.
    """
    scaled = [_integer_row(row) for row in rows]
    n = len(scaled)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row, _ in scaled):
        raise ValueError("determinant requires a square matrix")
    r, det = _bareiss([row for row, _ in scaled])
    return Fraction(det, prod(d for _, d in scaled)) if r == n else Fraction(0)


def rank(residues: Packed, exact) -> int:
    """Rank over Q of an integer matrix: mod PRIME when that rank is full,
    else by exact Bareiss.

    `residues` is the matrix reduced mod PRIME, packed, and `exact` a
    function returning the integer matrix itself, which is called only when
    the rank mod PRIME is not full; the matrix it returns is overwritten.
    """
    r = _rank_mod_p(residues.rows, residues.ncols)
    if r == min(len(residues.rows), residues.ncols):
        return r
    return _bareiss(exact())[0]


class _SnfState:
    """Row/column operation bookkeeping for Smith reduction."""

    def __init__(self, rows: list[list[int]]):
        self.a = [list(map(int, row)) for row in rows]
        self.m = len(self.a)
        self.n = len(self.a[0]) if self.m else 0
        self.u = [[int(i == j) for j in range(self.m)] for i in range(self.m)]
        # vt holds the columns of V as rows
        self.vt = [[int(i == j) for j in range(self.n)] for i in range(self.n)]

    def row_swap(self, i, j):
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]

    def row_add(self, i, j, q):
        self.a[i] = [x + q * y for x, y in zip(self.a[i], self.a[j])]
        self.u[i] = [x + q * y for x, y in zip(self.u[i], self.u[j])]

    def col_swap(self, i, j):
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        self.vt[i], self.vt[j] = self.vt[j], self.vt[i]

    def col_add(self, i, j, q):
        for row in self.a:
            row[i] += q * row[j]
        self.vt[i] = [x + q * y for x, y in zip(self.vt[i], self.vt[j])]

    def diagonalize(self):
        a = self.a
        for t in range(min(self.m, self.n)):
            while True:
                piv = None
                for i in range(t, self.m):
                    for j in range(t, self.n):
                        if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                            piv = (i, j)
                if piv is None:
                    return
                if piv != (t, t):
                    if piv[0] != t:
                        self.row_swap(t, piv[0])
                    if piv[1] != t:
                        self.col_swap(t, piv[1])
                clean = True
                for i in range(t + 1, self.m):
                    if a[i][t] != 0:
                        self.row_add(i, t, -(a[i][t] // a[t][t]))
                        clean = clean and a[i][t] == 0
                for j in range(t + 1, self.n):
                    if a[t][j] != 0:
                        self.col_add(j, t, -(a[t][j] // a[t][t]))
                        clean = clean and a[t][j] == 0
                if clean:
                    break


def smith_normal_form(rows: list[list[int]]):
    """Return (U, S, V) with U*A*V = S, U and V unimodular, S diagonal
    with the divisibility chain s_1 | s_2 | ...
    """
    st = _SnfState(rows)
    st.diagonalize()
    r = min(st.m, st.n)
    while True:
        bad = next(
            (k for k in range(r - 1)
             if st.a[k][k] != 0 and st.a[k + 1][k + 1] % st.a[k][k] != 0),
            None,
        )
        if bad is None:
            break
        st.col_add(bad, bad + 1, 1)
        st.diagonalize()
    for i in range(r):
        if st.a[i][i] < 0:
            st.row_add(i, i, -2)
    v = [[st.vt[j][i] for j in range(st.n)] for i in range(st.n)]
    return st.u, st.a, v

