"""Exact linear algebra over Q: fraction-free determinants, echelon
solves with a fixed column preference, and an incremental rank tracker.

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

    Columns are scanned left to right and each new pivot takes the first
    unused row with a nonzero entry, so the pivot column set (and hence
    the returned solution) is deterministic.
    """
    single = not isinstance(rhs[0], (list, tuple))
    cols_b = [list(rhs)] if single else [list(b) for b in rhs]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    a = [[Fraction(x) for x in r] for r in rows]
    bs = [[Fraction(x) for x in b] for b in cols_b]
    for b in bs:
        if len(b) != nrows:
            raise DimensionMismatch("rhs length mismatch")
    used = [False] * nrows
    pivots = []  # (row, col)
    for col in range(ncols):
        piv = None
        for i in range(nrows):
            if not used[i] and a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        used[piv] = True
        pivots.append((piv, col))
        inv = 1 / a[piv][col]
        a[piv] = [x * inv for x in a[piv]]
        for b in bs:
            b[piv] *= inv
        for i in range(nrows):
            if i != piv and a[i][col] != 0:
                f = a[i][col]
                ai, ap = a[i], a[piv]
                for j in range(col, ncols):
                    if ap[j]:
                        ai[j] -= f * ap[j]
                for b in bs:
                    b[i] -= f * b[piv]
    # consistency: rows with no pivot must have zero rhs
    sols = []
    for b in bs:
        for i in range(nrows):
            if not used[i] and b[i] != 0:
                return None
        z = [Fraction(0)] * ncols
        for i, col in pivots:
            z[col] = b[i]
        sols.append(z)
    return sols[0] if single else sols


class IncrementalRank:
    """Greedy exact rank tracker: feed rational vectors one at a time
    and learn whether each one enlarges the span."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows = {}  # pivot column -> reduced row (pivot entry 1)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        v = [Fraction(x) for x in vec]
        if len(v) != self.dim:
            raise DimensionMismatch("vector dimension mismatch")
        for piv, row in self.rows.items():
            c = v[piv]
            if c:
                for j in range(piv, self.dim):
                    if row[j]:
                        v[j] -= c * row[j]
        return v

    def add(self, vec) -> int | None:
        """Insert the vector; returns its pivot column if it increased
        the rank, else None."""
        v = self.reduce(vec)
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
