"""Exact linear algebra over Q with two kernels: fraction-free Bareiss
determinants and one Gauss-Jordan elimination, the incremental reduced
row echelon form of `IncrementalRank`, which the echelon solve reads.

Everything here is deterministic; no modular or floating-point
shortcuts.  Matrices are lists of lists (row-major).
"""

import math
from fractions import Fraction

from .errors import DimensionMismatch, InternalCheckError


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination with row pivoting.  All intermediate divisions are exact."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    for r in m:
        if len(r) != n:
            raise DimensionMismatch("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = None
        for i in range(k, n):
            if m[i][k]:
                piv = i
                break
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            if mik:
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * pkk - mik * row_k[j]) // prev
                row_i[k] = 0
            elif prev != pkk:
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * pkk) // prev
        prev = pkk
    return sign * m[n - 1][n - 1]


def det_fraction(rows: list[list]) -> Fraction:
    """Exact determinant of a square rational matrix (row-scaled Bareiss)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    int_rows = []
    for r in rows:
        if len(r) != n:
            raise DimensionMismatch("determinant of a non-square matrix")
        fr = [Fraction(x) for x in r]
        l = 1
        for x in fr:
            l = math.lcm(l, x.denominator)
        scale /= l
        int_rows.append([int(x * l) for x in fr])
    return scale * bareiss_det(int_rows)


def solve_preferring_early_columns(rows, rhs):
    """Solve A z = b exactly, returning the solution supported on the
    lexicographically earliest independent column set (free columns are
    set to zero).  `rhs` may be a single column or a list of columns;
    returns None for an inconsistent system.

    Reads the reduced row echelon form of [A | B]: its pivots inside A
    are the earliest independent columns, and a pivot inside B means
    some b is not in the column span of A.
    """
    single = not isinstance(rhs[0], (list, tuple))
    bs = [rhs] if single else rhs
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(b) != nrows for b in bs):
        raise DimensionMismatch("rhs length mismatch")
    tracker = IncrementalRank(ncols + len(bs))
    for i, r in enumerate(rows):
        tracker.add(list(r) + [b[i] for b in bs])
    if any(piv >= ncols for piv in tracker.rows):
        return None
    sols = [[Fraction(0)] * ncols for _ in bs]
    for piv, row in tracker.rows.items():
        for z, x in zip(sols, row[ncols:]):
            z[piv] = x
    return sols[0] if single else sols


class IncrementalRank:
    """Greedy exact rank tracker: feed rational vectors one at a time
    and learn whether each one enlarges the span."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows = {}  # pivot column -> its row of the reduced row echelon form

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec) -> int | None:
        """Insert the vector; returns its pivot column if it increased
        the rank, else None."""
        v = [Fraction(x) for x in vec]
        if len(v) != self.dim:
            raise DimensionMismatch("vector dimension mismatch")
        for piv, row in self.rows.items():
            c = v[piv]
            if c:
                for j in range(piv, self.dim):
                    if row[j]:
                        v[j] -= c * row[j]
        piv = None
        for j in range(self.dim):
            if v[j]:
                piv = j
                break
        if piv is None:
            return None
        inv = 1 / v[piv]
        v = [x * inv for x in v]
        for row in self.rows.values():
            c = row[piv]
            if c:
                for j in range(piv, self.dim):
                    if v[j]:
                        row[j] -= c * v[j]
        if piv in self.rows:
            raise InternalCheckError("duplicate pivot")
        self.rows[piv] = v
        return piv
