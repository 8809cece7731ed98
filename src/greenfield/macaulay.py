"""Macaulay matrices, the Macaulay resultant, its normalized log term,
and elimination certificates.

For N+1 forms of common degree d in N+1 variables the classical
construction works at the critical degree e = (N+1)(d-1)+1: every
degree-e monomial x^alpha is divisible by x_i^d for at least one i, the
first such i selects the row (x^alpha / x_i^d) * F_i, and the resultant
is det(D) / det(D') where D' is the minor on the monomials divisible by
x_i^d for two or more i (Cox, Little & O'Shea, *Using Algebraic
Geometry*, ch. 3 §4).  For N = 1 the minor is empty and D is the
Sylvester matrix, so the quotient degenerates to a single determinant.
The normalization is Res(x0^d, ..., xN^d) = 1.

The minor D' can vanish while Res(F) does not.  Since
Res(B·(F∘A)) = det(B)^(d^N) det(A)^(d^(N+1)) Res(F), integer changes of
variables with det A = det B = 1 keep the resultant and move the minor.
When every one tried leaves it singular, Macaulay's theorem decides:
Res(F) = 0 iff some x_i^e lies outside the degree-e part of the ideal
(F).
"""

import math
import random
from fractions import Fraction

from .errors import DimensionMismatch, DomainError, InternalCheckError, NotAMorphism
from .homopoly import HomoForm, PolyMap, monomials_of_degree
from .linalg import bareiss_det, solve_preferring_early_columns
from .pffield import LogMag, Place, abs_log


def macaulay_degree(d: int, N: int) -> int:
    return (N + 1) * (d - 1) + 1


class MacaulayMatrix:
    """The square Macaulay matrix of a map at degree e, each form scaled
    to integer coefficients by the lcm s_i of its denominators, so that
    Res(pm) = det_full() / (det_minor() * scale) with scale the product
    of the s_i^(d^N); `reduced[r]` marks rows/columns labeled by
    monomials divisible by a single x_i^d."""

    def __init__(self, pm: PolyMap):
        d = pm.degree
        n = pm.nvars
        lcms = [math.lcm(*(c.denominator for c in f.coeffs.values())) for f in pm.forms]
        self.scale = math.prod(lcms) ** d ** (n - 1)
        self.e = macaulay_degree(d, n - 1)
        self.columns = monomials_of_degree(n, self.e)
        col_index = {m: j for j, m in enumerate(self.columns)}
        self.reduced = []
        rows = []
        for alpha in self.columns:
            big = [i for i in range(n) if alpha[i] >= d]
            if not big:
                raise InternalCheckError("degree-e monomial with no x_i^d divisor")
            pick = big[0]
            mu = tuple(a - (d if i == pick else 0) for i, a in enumerate(alpha))
            self.reduced.append(len(big) == 1)
            row = [0] * len(self.columns)
            for expo, c in pm.forms[pick].coeffs.items():
                tgt = tuple(a + b for a, b in zip(expo, mu))
                row[col_index[tgt]] = c.numerator * (lcms[pick] // c.denominator)
            rows.append(row)
        self.rows = rows

    def det_full(self) -> int:
        return bareiss_det(self.rows)

    def det_minor(self) -> int:
        keep = [j for j, red in enumerate(self.reduced) if not red]
        sub = [[self.rows[i][j] for j in keep] for i in keep]
        return bareiss_det(sub)


def macaulay_resultant(pm: PolyMap) -> Fraction:
    """Macaulay resultant of the coordinate forms; zero iff they share a
    projective zero.  Satisfies Res(cF) = c^((N+1)d^N) Res(F).

    The quotient is taken at the first nonzero minor among F and the
    changes of variables for seeds 1 .. (N+1)! - 1.  If all of them are
    singular, Res(F) = 0 exactly when some x_i^e is not a combination
    sum eta_j F_j; if every x_i^e is one, it raises rather than guess."""
    n = pm.nvars
    if n < 2:
        raise DomainError("resultant needs at least two variables")
    for k in range(math.factorial(n)):
        mat = MacaulayMatrix(_change_of_variables(pm, k) if k else pm)
        den = mat.det_minor()
        if den:
            return Fraction(mat.det_full(), den * mat.scale)
    e = macaulay_degree(pm.degree, n - 1)
    powers = [HomoForm.monomial(n, [e * (j == i) for j in range(n)]) for i in range(n)]
    if _cofactors(pm, powers)[1] is None:
        return Fraction(0)
    raise InternalCheckError("Res(F) != 0 but the Macaulay minor vanished "
                             "under every change of variables tried")


def _change_of_variables(pm: PolyMap, k: int) -> PolyMap:
    """B·(F∘A) with A = L·U, where L and B are unit lower and U unit
    upper triangular with the entries off the diagonal drawn from
    [-k, k] by `random.Random(k)`: det A = det B = 1, so the resultant
    is unchanged."""
    n = pm.nvars
    rng = random.Random(k)

    def unit_triangular(lower):
        return [[1 if i == j else rng.randint(-k, k) if (j < i) == lower else 0
                 for j in range(n)] for i in range(n)]

    L, U, B = unit_triangular(True), unit_triangular(False), unit_triangular(True)
    # x_i -> sum_j A_ij x_j
    xs = [HomoForm(n, 1, {tuple(int(t == j) for t in range(n)):
                          sum(L[i][t] * U[t][j] for t in range(n)) for j in range(n)})
          for i in range(n)]
    moved = [f.substitute(xs) for f in pm.forms]
    return PolyMap([sum((g.scale(b) for g, b in zip(moved, row)), HomoForm.zero(n, pm.degree))
                    for row in B])


_CONVENTIONS = ("paper", "invariant")


def r_normalized(pm: PolyMap, place: Place, convention: str = "invariant",
                 resultant: Fraction | None = None) -> LogMag:
    """The resultant term of the Green's function.

    convention="paper" is +log|Res|_v / (d(d-1)(N+1)); "invariant" is
    -log|Res|_v / (d^N (d-1)(N+1)), which makes the Green's function
    insensitive to rescaling the lift F in every dimension.  The two
    agree up to sign when N = 1 and both vanish when |Res|_v = 1.
    """
    if convention not in _CONVENTIONS:
        raise DomainError(f"unknown convention {convention!r}")
    res = macaulay_resultant(pm) if resultant is None else resultant
    if res == 0:
        raise NotAMorphism("not a morphism: Res(F) = 0")
    d, N = pm.degree, pm.N
    if convention == "paper":
        factor = Fraction(1, d * (d - 1) * (N + 1))
    else:
        factor = -Fraction(1, d**N * (d - 1) * (N + 1))
    return abs_log(place, res).scale(factor)


def _cofactors(pm: PolyMap, phis: list[HomoForm]):
    """(mults, sols): for each phi of the common degree m, the coefficients
    of cofactors with phi = sum eta_i F_i (eta_0 first, each over the
    degree-(m-d) monomials `mults` in descending-lex order) supported on
    the earliest columns; sols is None when some phi is not in (F)_m."""
    n = pm.nvars
    d = pm.degree
    m = phis[0].degree
    row_monos = monomials_of_degree(n, m)
    row_index = {mono: r for r, mono in enumerate(row_monos)}
    mults = monomials_of_degree(n, m - d)
    rows = [[Fraction(0)] * (n * len(mults)) for _ in row_monos]
    col = 0
    for i in range(n):
        for mu in mults:
            for expo, c in pm.forms[i].coeffs.items():
                tgt = tuple(a + b for a, b in zip(expo, mu))
                rows[row_index[tgt]][col] += c
            col += 1
    rhs = []
    for phi in phis:
        b = [Fraction(0)] * len(row_monos)
        for expo, c in phi.coeffs.items():
            b[row_index[expo]] = c
        rhs.append(b)
    return mults, solve_preferring_early_columns(rows, rhs)


def elimination_certificates(pm: PolyMap, phis: list[HomoForm]) -> list[list[HomoForm]]:
    """Certificates (eta_0, ..., eta_N) with phi = sum eta_i F_i exactly
    for several forms phi of one common degree, sharing one matrix
    factorization; each takes the solution supported on the earliest
    cofactor coefficients in (index, descending-lex) order."""
    if not phis:
        return []
    n = pm.nvars
    d = pm.degree
    m = phis[0].degree
    for phi in phis:
        if phi.nvars != n:
            raise DimensionMismatch("certificate target has wrong variable count")
        if phi.degree != m:
            raise DimensionMismatch("certificate targets must share a degree")
    e = macaulay_degree(d, n - 1)
    if m < e:
        raise DomainError(f"degree {m} below the elimination threshold {e}")
    mults, sols = _cofactors(pm, phis)
    if sols is None:
        if macaulay_resultant(pm) == 0:
            raise NotAMorphism("not a morphism: Res(F) = 0")
        raise InternalCheckError("certificate system unsolvable despite Res != 0")
    out = []
    for phi, z in zip(phis, sols):
        etas = []
        for i in range(n):
            coeffs = {}
            for j, mu in enumerate(mults):
                c = z[i * len(mults) + j]
                if c:
                    coeffs[mu] = c
            etas.append(HomoForm(n, m - d, coeffs))
        check = HomoForm.zero(n, m)
        for eta, f in zip(etas, pm.forms):
            check = check + eta * f
        if check != phi:
            raise InternalCheckError("certificate failed exact re-expansion")
        out.append(etas)
    return out
