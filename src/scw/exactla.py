"""Exact linear algebra over the rationals and the integers.

Dense matrices of two sizes: lattice systems stay below about 25x25, while
the interpolation matrices behind h^0 grow with the degree (24x55 at degree
9, 90x91 at degree 12).  Rational rows are scaled to integer rows by the lcm
of their denominators.  Rank is eliminated mod the prime PRIME first: a
minor that is nonzero mod p is nonzero over Z, so that rank is a lower bound
over Q, and exact when it is full.  Only otherwise does fraction-free
(Bareiss) elimination over Z decide.  PRIME is the largest prime below 2^30,
so every residue is a single 30-bit CPython digit and each reduction divides
by a single digit; a larger prime would make the elimination multi-digit
arithmetic.  No floating point anywhere.
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


def _rank_mod_p(rows: list[list[int]]) -> int:
    """Rank over Z/PRIME of rows of residues in [0, PRIME).

    Each step removes its pivot row and keeps the other rows only right of
    the pivot column, since they are zero up to it; k is the offset of the
    current column in the rows kept.  The input rows are not modified.
    """
    m, r, k = list(rows), 0, 0
    for _ in range(len(m[0]) if m else 0):
        piv = next((i for i, row in enumerate(m) if row[k]), None)
        if piv is None:
            k += 1
            continue
        top = m.pop(piv)
        neg_inv, tail = PRIME - pow(top[k], -1, PRIME), top[k + 1:]
        m = [[(x + f * y) % PRIME for x, y in zip(row[k + 1:], tail)]
             if (f := row[k] * neg_inv % PRIME) else row[k + 1:] for row in m]
        r, k = r + 1, 0
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


def rank(rows, exact=None) -> int:
    """Rank over Q: mod PRIME when that rank is full, else by exact Bareiss.

    `rows` is the matrix, rational or integer.  A caller that has its
    residues mod PRIME already passes those as `rows`, and as `exact` a
    function returning the integer matrix they reduce; it is called only when
    the rank mod PRIME is not full.
    """
    if exact is None:
        a = [_integer_row(row)[0] for row in rows]
        rows, exact = [[x % PRIME for x in row] for row in a], lambda: a
    r = _rank_mod_p(rows)
    if not rows or r == min(len(rows), len(rows[0])):
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

