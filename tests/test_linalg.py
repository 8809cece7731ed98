import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfield.errors import DimensionMismatch
from greenfield.linalg import (IncrementalRank, bareiss_det, det_fraction,
                               solve_preferring_early_columns)

# the prime q of the hand cases and strata below: vectors equal or
# dependent modulo q must still be ranked over Q
Q61 = (1 << 61) - 1


def naive_det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * naive_det(minor)
    return total


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(m) == naive_det(m)


def test_bareiss_singular_and_shapes():
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    assert bareiss_det([]) == 1
    with pytest.raises(DimensionMismatch):
        bareiss_det([[1, 2], [3]])


def test_det_fraction_row_scaling():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
             for _ in range(n)]
        assert det_fraction(m) == naive_det(m)


def test_solver_prefers_early_columns():
    # x + y = 1 with columns (x, y): pivot on x, free y = 0
    sol = solve_preferring_early_columns([[1, 1]], [[1]])[0]
    assert sol == [Fraction(1), Fraction(0)]


def test_solver_consistency_and_multi_rhs():
    a = [[1, 0, 1], [0, 1, 1]]
    sols = solve_preferring_early_columns(a, [[1, 2], [0, 1]])
    for sol, b in zip(sols, [[1, 2], [0, 1]]):
        got = [sum(a[i][j] * sol[j] for j in range(3)) for i in range(2)]
        assert got == [Fraction(x) for x in b]
    assert solve_preferring_early_columns([[1], [1]], [[1, 2]]) is None


def test_incremental_rank():
    tr = IncrementalRank(3)
    assert tr.add([1, 2, 3]) is True
    assert tr.add([2, 4, 6]) is False
    assert tr.add([0, 1, 1]) is True
    assert tr.add([1, 3, 4]) is False  # row1 + row3
    assert tr.add([0, 0, 5]) is True
    assert tr.rank == 3
    assert tr.add([7, 8, 9]) is False


def test_incremental_rank_vectors_congruent_modulo_q():
    # [1, q] is dependent on [1, 0] mod q but not over Q
    tr = IncrementalRank(2)
    assert tr.add([1, 0]) is True
    assert tr.add([1, Q61]) is True
    assert tr.add([0, 1]) is False
    assert tr.rank == 2
    assert tr.rows == {0: [1, 0], 1: [0, 1]}
    # a denominator divisible by q and a zero residue
    tr = IncrementalRank(2)
    assert tr.add([1, 2]) is True
    assert tr.add([Fraction(1, Q61), Fraction(2, Q61)]) is False
    assert tr.add([Q61, 2 * Q61]) is False
    assert tr.add([0, 1]) is True


@st.composite
def rank_deficient_systems(draw):
    """A = L R with inner dimension below min(rows, cols), plus 1-3
    right-hand sides; each is A x for a small x or an arbitrary column."""
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, min(m, n) - 1))
    left = [[draw(small) for _ in range(r)] for _ in range(m)]
    right = [[draw(small) for _ in range(n)] for _ in range(r)]
    a = [[sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0))
          for j in range(n)] for i in range(m)]
    bs = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            x = [draw(small) for _ in range(n)]
            bs.append([sum((a[i][j] * x[j] for j in range(n)), Fraction(0))
                       for i in range(m)])
        else:
            bs.append([draw(small) for _ in range(m)])
    return a, bs


@settings(max_examples=150, deadline=None)
@given(rank_deficient_systems())
def test_solver_matches_sympy_rank_oracle(system):
    a, bs = system
    ma = sympy.Matrix(a)
    n = ma.cols
    rank_a = ma.rank()
    consistent = all(ma.row_join(sympy.Matrix(b)).rank() == rank_a for b in bs)
    sols = solve_preferring_early_columns(a, bs)
    assert (sols is None) == (not consistent)
    if sols is None:
        return
    # column j is among the earliest independent ones iff it raises the
    # rank of the columns before it
    early = {j for j in range(n)
             if ma[:, :j + 1].rank() > (ma[:, :j].rank() if j else 0)}
    for z, b in zip(sols, bs):
        assert [sum(a[i][j] * z[j] for j in range(n)) for i in range(len(a))] == b
        assert all(z[j] == 0 for j in range(n) if j not in early)


def _sympy_det(rows):
    n = len(rows)
    return sympy.Matrix(n, n, [x for r in rows for x in r]).det()


@st.composite
def sparse_int_matrices(draw):
    """Square integer matrices of side 0-10 whose entries, up to 2^64 in
    size, are nonzero with a drawn density; some are made singular by a
    repeated row or a zero column."""
    n = draw(st.integers(0, 10))
    density = draw(st.integers(0, 100))
    entry = st.integers(-2**64, 2**64)
    rows = [[draw(entry) if draw(st.integers(1, 100)) <= density else 0
             for _ in range(n)] for _ in range(n)]
    singular = draw(st.sampled_from(["no", "repeated row", "zero column"])) if n >= 2 else "no"
    if singular == "repeated row":
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[b] = list(rows[a])
    elif singular == "zero column":
        j = draw(st.integers(0, n - 1))
        for r in rows:
            r[j] = 0
    return rows, singular != "no"


@settings(max_examples=200)
@given(sparse_int_matrices())
def test_bareiss_matches_sympy_on_sparse_matrices(case):
    rows, singular = case
    det = bareiss_det(rows)
    assert det == _sympy_det(rows)
    if singular:
        assert det == 0


@settings(max_examples=100)
@given(sparse_int_matrices(), st.data())
def test_bareiss_row_scaling_multiplies_the_determinant(case, data):
    # bareiss_det divides each row by its content first: scaling row i by
    # k_i multiplies the determinant by prod k_i
    rows, _ = case
    ks = [data.draw(st.sampled_from([1, -1, 2, 3, -4, 9, Q61])) for _ in rows]
    scaled = [[k * x for x in r] for k, r in zip(ks, rows)]
    assert bareiss_det(scaled) == _sympy_det(scaled) == math.prod(ks) * _sympy_det(rows)


@settings(max_examples=100)
@given(st.integers(0, 7).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-10**6, max_value=10**6,
                                    max_denominator=10**4)),
             min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_det_fraction_matches_sympy(rows):
    expect = _sympy_det([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in rows])
    got = det_fraction(rows)
    assert sympy.Rational(got.numerator, got.denominator) == expect


@st.composite
def vector_sequences(draw):
    """Up to 8 rational vectors of length 1-5.  Entries are a + k q over
    denominators 1, 2, 3, q or 2q, so some are 0 mod q and some have no
    residue; about half the vectors are integer combinations of earlier
    ones, some shifted by a multiple of q in one entry (dependent mod q,
    independent over Q).  A sequence holds Fractions, ints (the integral
    entries converted) or a mix of both; some vectors are negated, so that
    pivots come out negative, and some are zero or repeat an earlier one."""
    dim = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["fraction", "int", "mixed"]))
    entry = st.builds(lambda a, k, den: Fraction(a + k * Q61, den),
                      st.integers(-3, 3), st.integers(-1, 1),
                      st.sampled_from([1, 1, 1, 2, 3, Q61, 2 * Q61]))
    vecs = []
    for _ in range(draw(st.integers(1, 8))):
        if vecs and draw(st.booleans()):
            coeffs = [draw(st.integers(-2, 2)) for _ in vecs]
            v = [sum((c * w[j] for c, w in zip(coeffs, vecs)), Fraction(0))
                 for j in range(dim)]
            v[draw(st.integers(0, dim - 1))] += draw(st.integers(-1, 1)) * Q61
        elif vecs and draw(st.integers(0, 4)) == 0:
            v = list(draw(st.sampled_from(vecs)))
        elif draw(st.integers(0, 6)) == 0:
            v = [0] * dim
        else:
            v = [draw(entry) for _ in range(dim)]
        if kind == "int":
            v = [x.numerator // x.denominator if isinstance(x, Fraction) else x for x in v]
        elif kind == "mixed":
            v = [int(x) if x.denominator == 1 and draw(st.booleans()) else x for x in v]
        if draw(st.booleans()):
            v = [-x for x in v]
        vecs.append(v)
    return dim, vecs


def _sympy_matrix(vecs):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v]
                         for v in vecs])


@settings(max_examples=200)
@given(vector_sequences())
def test_incremental_rank_matches_sympy_on_prefixes(case):
    dim, vecs = case
    tr = IncrementalRank(dim)
    rank = 0
    accepted = []
    for k, v in enumerate(vecs):
        new_rank = _sympy_matrix(vecs[:k + 1]).rank()
        assert tr.add(v) is (new_rank > rank)
        if new_rank > rank:
            accepted.append(v)
        rank = new_rank
        assert tr.rank == rank
    rref, pivots = _sympy_matrix(vecs).rref()
    assert set(tr.rows) == set(pivots)
    for i, piv in enumerate(pivots):
        assert [sympy.Rational(x.numerator, x.denominator) for x in tr.rows[piv]] == \
            list(rref.row(i))
    # the k-th pivot is the Schur complement det(M_k) / det(M_(k-1)) of the
    # first k accepted vectors on the first k pivot columns, in acceptance order
    order = list(tr.rows)
    minors = [sympy.Integer(1)] + [_sympy_matrix(accepted[:k]).extract(range(k), order[:k]).det()
                                   for k in range(1, rank + 1)]
    assert [sympy.Rational(p.numerator, p.denominator) for p in tr.pivots] == \
        [minors[k] / minors[k - 1] for k in range(1, rank + 1)]
    if rank == dim:
        det = tr.det()
        assert sympy.Rational(det.numerator, det.denominator) == _sympy_matrix(accepted).det()


@st.composite
def pivot_order_matrices(draw):
    """A full-rank square matrix whose rows, fed in order, take their
    pivots in a drawn column order: row k of S is zero left of order[k] and
    nonzero there, and each row adds rational multiples of the rows of S
    before it to a nonzero multiple of its own."""
    dim = draw(st.integers(1, 6))
    order = draw(st.permutations(range(dim)))
    entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    lead = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 4))
    s = [[Fraction(0)] * p + [draw(lead)] + [draw(entry) for _ in range(dim - p - 1)]
         for p in order]
    rows = []
    for k in range(dim):
        coeffs = [draw(entry) for _ in range(k)] + [draw(lead)]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, s)), Fraction(0))
                     for j in range(dim)])
    return order, rows


@settings(max_examples=100)
@given(pivot_order_matrices())
def test_signed_pivot_product_is_the_determinant(case):
    order, rows = case
    tr = IncrementalRank(len(rows))
    assert all(tr.add(r) for r in rows)
    assert list(tr.rows) == order
    assert tr.det() == det_fraction(rows)
