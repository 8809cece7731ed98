"""Macaulay matrices, the Macaulay resultant, its normalized log term,
and elimination certificates.

For N+1 forms of common degree d in N+1 variables the classical
construction works at the critical degree e = (N+1)(d-1)+1: every
degree-e monomial x^alpha is divisible by x_i^d for at least one i, the
first such i (in a chosen variable precedence) selects the row
(x^alpha / x_i^d) * F_i, and the resultant is det(D) / det(D') where D'
is the minor on the monomials divisible by x_i^d for two or more i.
For N = 1 the minor is empty and D is the Sylvester matrix, so the
quotient degenerates to a single determinant.  The normalization is
Res(x0^d, ..., xN^d) = 1.
"""

import math
from fractions import Fraction
from itertools import permutations

from .errors import DimensionMismatch, DomainError, InternalCheckError, NotAMorphism
from .homopoly import HomoForm, PolyMap, monomials_of_degree
from .linalg import det_fraction, solve_preferring_early_columns
from .pffield import LogMag, Place, abs_log

# Size guard for the perturbation fallback (matrix side length).
PERTURBATION_SIZE_LIMIT = 130


def macaulay_degree(d: int, N: int) -> int:
    return (N + 1) * (d - 1) + 1


class MacaulayMatrix:
    """The square Macaulay matrix of a map at degree e, for a given
    variable precedence; `reduced[r]` marks rows/columns labeled by
    monomials divisible by a single x_i^d."""

    def __init__(self, pm: PolyMap, precedence=None):
        d = pm.degree
        n = pm.nvars
        if precedence is None:
            precedence = tuple(range(n))
        self.precedence = tuple(precedence)
        self.e = macaulay_degree(d, n - 1)
        self.columns = monomials_of_degree(n, self.e)
        col_index = {m: j for j, m in enumerate(self.columns)}
        self.row_labels = []  # (i, multiplier monomial)
        self.reduced = []
        rows = []
        for alpha in self.columns:
            big = [i for i in range(n) if alpha[i] >= d]
            if not big:
                raise InternalCheckError("degree-e monomial with no x_i^d divisor")
            pick = next(i for i in self.precedence if alpha[i] >= d)
            mu = tuple(a - (d if i == pick else 0) for i, a in enumerate(alpha))
            self.row_labels.append((pick, mu))
            self.reduced.append(len(big) == 1)
            row = [Fraction(0)] * len(self.columns)
            for expo, c in pm.forms[pick].coeffs.items():
                tgt = tuple(a + b for a, b in zip(expo, mu))
                row[col_index[tgt]] = c
            rows.append(row)
        self.rows = rows

    def det_full(self) -> Fraction:
        return det_fraction(self.rows)

    def det_minor(self) -> Fraction:
        keep = [j for j, red in enumerate(self.reduced) if not red]
        sub = [[self.rows[i][j] for j in keep] for i in keep]
        return det_fraction(sub)


def macaulay_resultant(pm: PolyMap) -> Fraction:
    """Macaulay resultant of the coordinate forms; zero iff they share a
    projective zero.  Satisfies Res(cF) = c^((N+1)d^N) Res(F)."""
    n = pm.nvars
    if n < 2:
        raise DomainError("resultant needs at least two variables")
    if n == 2:
        return MacaulayMatrix(pm).det_full()  # Sylvester determinant
    for prec in permutations(range(n)):
        mat = MacaulayMatrix(pm, prec)
        den = mat.det_minor()
        if den != 0:
            return mat.det_full() / den
    return _resultant_by_perturbation(pm)


def _resultant_by_perturbation(pm: PolyMap) -> Fraction:
    """Degenerate specializations where the Macaulay minor vanishes for
    every variable precedence: perturb toward the power map G = (x_i^d).
    D'(G) is the identity, so det D'(F + tG) is monic of degree |D'| in t
    and vanishes at no more than |D'| values of t, and Res(F + tG) has
    degree at most (N+1)d^N in t.  The quotient det D / det D' at
    (N+1)d^N + 1 integers t >= 1 with a nonzero minor interpolates
    Res(F + tG) exactly; its value at t = 0 is Res(F)."""
    n, d = pm.nvars, pm.degree
    size = math.comb(macaulay_degree(d, n - 1) + n - 1, n - 1)
    if size > PERTURBATION_SIZE_LIMIT:
        raise InternalCheckError(
            "Macaulay quotient degenerate and the matrix is too large for "
            f"the perturbation fallback ({size} columns)"
        )
    power = [HomoForm.monomial(n, tuple(d if j == i else 0 for j in range(n)))
             for i in range(n)]
    nodes = n * d ** (n - 1) + 1
    ts, vals = [], []
    t = 0
    while len(ts) < nodes:
        t += 1
        mat = MacaulayMatrix(PolyMap([f + g.scale(t) for f, g in zip(pm.forms, power)]))
        if t > nodes + mat.reduced.count(False):
            raise InternalCheckError("perturbed Macaulay minor vanished too often")
        den = mat.det_minor()
        if den != 0:
            ts.append(t)
            vals.append(mat.det_full() / den)
    # Lagrange interpolation at t = 0
    res = Fraction(0)
    for i, (ti, vi) in enumerate(zip(ts, vals)):
        for j, tj in enumerate(ts):
            if j != i:
                vi *= Fraction(tj, tj - ti)
        res += vi
    return res


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


def _certificate_system(pm: PolyMap, m: int):
    """Rows = degree-m monomials; columns = coefficients of the unknown
    cofactors (eta_0 first, each in descending-lex order)."""
    n = pm.nvars
    d = pm.degree
    row_monos = monomials_of_degree(n, m)
    row_index = {mono: r for r, mono in enumerate(row_monos)}
    mults = monomials_of_degree(n, m - d)
    ncols = n * len(mults)
    rows = [[Fraction(0)] * ncols for _ in row_monos]
    col = 0
    for i in range(n):
        for mu in mults:
            for expo, c in pm.forms[i].coeffs.items():
                tgt = tuple(a + b for a, b in zip(expo, mu))
                rows[row_index[tgt]][col] += c
            col += 1
    return row_monos, mults, rows


def elimination_certificates(pm: PolyMap, phis: list[HomoForm]) -> list[list[HomoForm]]:
    """Certificates eta with phi = sum eta_i F_i for several forms phi of
    one common degree, sharing a single matrix factorization."""
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
    row_monos, mults, rows = _certificate_system(pm, m)
    row_index = {mono: r for r, mono in enumerate(row_monos)}
    rhs = []
    for phi in phis:
        b = [Fraction(0)] * len(row_monos)
        for expo, c in phi.coeffs.items():
            b[row_index[expo]] = c
        rhs.append(b)
    sols = solve_preferring_early_columns(rows, rhs)
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


def elimination_certificate(pm: PolyMap, phi: HomoForm) -> list[HomoForm]:
    """Forms (eta_0, ..., eta_N) with phi = sum eta_i F_i exactly, each of
    degree deg(phi) - d; picks the solution supported on the earliest
    cofactor coefficients in (index, descending-lex) order."""
    return elimination_certificates(pm, [phi])[0]
