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
The normalization is Res(x0^d, ..., xN^d) = 1.  Every integer row is a
shift x^mu·sF_i of one integral model sF (`homopoly.shifted_rows`), so
the quotient is divided by s^((N+1) d^N), and the certificate system is
the transposed table of all the shifts, its solution multiplied by s.

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
from .homopoly import HomoForm, PolyMap, monomials_of_degree, shifted_rows
from .linalg import bareiss_det, solve_preferring_early_columns
from .pffield import LogMag, Place, abs_log


def macaulay_degree(d: int, N: int) -> int:
    return (N + 1) * (d - 1) + 1


class MacaulayMatrix:
    """The square Macaulay matrix at degree e of the integral model sF,
    s the lcm of all the coefficient denominators (`shifted_rows`), so
    that Res(pm) = det_full() / (det_minor() * scale) with
    scale = s^((N+1) d^N); `reduced[r]` marks rows/columns labeled by
    monomials divisible by a single x_i^d."""

    def __init__(self, pm: PolyMap):
        d, n = pm.degree, pm.nvars
        self.e = macaulay_degree(d, n - 1)
        self.columns = monomials_of_degree(n, self.e)
        self.reduced = []
        pairs = []
        for alpha in self.columns:
            big = [i for i in range(n) if alpha[i] >= d]
            if not big:
                raise InternalCheckError("degree-e monomial with no x_i^d divisor")
            self.reduced.append(len(big) == 1)
            pairs.append((big[0], tuple(a - d * (i == big[0]) for i, a in enumerate(alpha))))
        s, self.rows = shifted_rows(pm.forms, self.e, pairs)
        self.scale = s ** (n * d ** (n - 1))

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
    the earliest columns; sols is None when some phi is not in (F)_m.
    The columns x^mu·sF_i are those of x^mu·F_i times s, which keeps the
    earliest independent ones, so s times the solution is the cofactors'."""
    n = pm.nvars
    m = phis[0].degree
    mults = monomials_of_degree(n, m - pm.degree)
    s, table = shifted_rows(pm.forms, m, [(i, mu) for i in range(n) for mu in mults])
    rhs = [[phi.coeffs.get(mono, 0) for mono in monomials_of_degree(n, m)] for phi in phis]
    sols = solve_preferring_early_columns(list(zip(*table)), rhs)
    return mults, None if sols is None else [[s * x for x in z] for z in sols]


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
    k = len(mults)
    for phi, z in zip(phis, sols):  # HomoForm drops the zero coefficients
        etas = [HomoForm(n, m - d, dict(zip(mults, z[i * k:(i + 1) * k]))) for i in range(n)]
        if sum((eta * f for eta, f in zip(etas, pm.forms)), HomoForm.zero(n, m)) != phi:
            raise InternalCheckError("certificate failed exact re-expansion")
        out.append(etas)
    return out
