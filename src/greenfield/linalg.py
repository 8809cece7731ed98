"""Exact linear algebra over Q with two kernels: a sparse fraction-free
Bareiss determinant and one Gauss-Jordan elimination, the incremental
reduced row echelon form of `IncrementalRank`, which the echelon solve
reads.

Everything here is deterministic and exact.  Matrices are lists of
lists (row-major).
"""

import math
from fractions import Fraction

from .errors import DimensionMismatch, InternalCheckError


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by sparse fraction-free
    Bareiss elimination.  All divisions are exact.

    Rows are kept as {column: entry} dicts.  Step k pivots on the active
    entry of least Markowitz cost (row nonzeros - 1)(column nonzeros - 1)
    and updates only the rows with a nonzero in the pivot column.  A row
    skipped by steps a+1..k-1 would only have been multiplied by the
    factors P_t / P_{t-1} of the pivots P_t, which telescope to
    P_{k-1} / P_a, so each row keeps the step a it was last updated at
    and is scaled lazily: the pivot row is brought to step k-1 by
    multiplying by P_{k-1} and dividing by P_a, and in an updated row the
    same factor cancels the Bareiss division by P_{k-1}, leaving a
    division by P_a.  The determinant is the last pivot, signed by the
    parities of the orders in which rows and columns became pivots.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("determinant of a non-square matrix")
    mat = [{j: x for j, x in enumerate(r) if x} for r in rows]
    cols = [set() for _ in range(n)]  # column -> active rows with a nonzero there
    for i, row in enumerate(mat):
        for j in row:
            cols[j].add(i)
    stamp = [0] * n  # row -> step it was last updated at
    pivots = [1]  # pivots[k] = P_k, with P_0 = 1
    live_rows, live_cols = list(range(n)), list(range(n))  # ascending
    sign = 1
    for k in range(1, n + 1):
        pick = _markowitz_pivot(mat, cols, live_rows, live_cols)
        if pick is None:
            return 0
        i, j = pick
        # moving row i and column j ahead of the active ones before them
        # takes a + b transpositions
        a, b = live_rows.index(i), live_cols.index(j)
        del live_rows[a], live_cols[b]
        if (a + b) % 2:
            sign = -sign
        prow = mat[i]
        last = pivots[stamp[i]]
        if last != pivots[k - 1]:
            scale = pivots[k - 1]
            prow = {c: x * scale // last for c, x in prow.items()}
        p = prow.pop(j)
        for c in prow:
            cols[c].discard(i)
        cols[j].discard(i)
        for r in cols[j]:
            row = mat[r]
            last = pivots[stamp[r]]
            m = row.pop(j)
            new = {}
            for c, x in row.items():
                y = prow.get(c)
                v = (p * x - m * y) // last if y is not None else p * x // last
                if v:
                    new[c] = v
                else:
                    cols[c].discard(r)
            for c, y in prow.items():
                if c not in row:
                    new[c] = -m * y // last
                    cols[c].add(r)
            mat[r] = new
            stamp[r] = k
        pivots.append(p)
    return sign * pivots[n]


def _markowitz_pivot(mat, cols, live_rows, live_cols):
    """The active entry (row, column) of least (row nonzeros - 1) *
    (column nonzeros - 1), or None when an active row or column is empty
    (a singular matrix).  Rows are searched shortest first, and the
    search stops once no later row can beat the best cost found."""
    counts = {j: len(cols[j]) for j in live_cols}
    cmin = min(counts.values())
    if cmin == 0:
        return None
    if cmin == 1:
        j = next(j for j, c in counts.items() if c == 1)
        return next(iter(cols[j])), j
    best, best_cost = None, None
    for i in sorted(live_rows, key=lambda i: len(mat[i])):
        r = len(mat[i]) - 1
        if r < 0:
            return None
        if best is not None and r * (cmin - 1) >= best_cost:
            break
        for j in mat[i]:
            cost = r * (counts[j] - 1)
            if best is None or cost < best_cost:
                best, best_cost = (i, j), cost
    return best


def det_fraction(rows: list[list]) -> Fraction:
    """Exact determinant of a square rational matrix: each row is scaled
    to integers by the lcm of its denominators before `bareiss_det`."""
    scale = 1
    int_rows = []
    for r in rows:
        fr = [Fraction(x) if x else 0 for x in r]  # most entries of a Macaulay row are 0
        l = math.lcm(*(x.denominator for x in fr))
        scale *= l
        int_rows.append([x.numerator * (l // x.denominator) for x in fr])
    return Fraction(bareiss_det(int_rows), scale)


def solve_preferring_early_columns(rows, rhs):
    """Solve A z = b exactly, returning the solution supported on the
    lexicographically earliest independent column set (free columns are
    set to zero) for each column b in the list `rhs`; returns None for an
    inconsistent system.

    Reads the reduced row echelon form of [A | B]: its pivots inside A
    are the earliest independent columns, and a pivot inside B means
    some b is not in the column span of A.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(b) != nrows for b in rhs):
        raise DimensionMismatch("rhs length mismatch")
    tracker = IncrementalRank(ncols + len(rhs))
    for i, r in enumerate(rows):
        tracker.add(list(r) + [b[i] for b in rhs])
    if any(piv >= ncols for piv in tracker.rows):
        return None
    sols = [[Fraction(0)] * ncols for _ in rhs]
    for piv, row in tracker.rows.items():
        for z, x in zip(sols, row[ncols:]):
            z[piv] = x
    return sols


class IncrementalRank:
    """Greedy exact rank tracker: feed rational vectors one at a time
    and learn whether each one enlarges the span.  It keeps the reduced
    row echelon form of the accepted vectors, as {pivot column: row}."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec) -> bool:
        """Reduce the vector against the echelon form and insert it if it
        is independent; returns whether it increased the rank."""
        v = [Fraction(x) for x in vec]
        if len(v) != self.dim:
            raise DimensionMismatch("vector dimension mismatch")
        for piv, row in self.rows.items():
            c = v[piv]
            if c:
                for j in range(piv, self.dim):
                    if row[j]:
                        v[j] -= c * row[j]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
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
        return True
