"""The generator collection, degree bookkeeping, spanning families, and
greedy extraction of the special basis of degree-n forms.

The generator collection of a system F of degree d consists of the
powers (F_i^(k))^j with k >= 1 and 1 <= j <= d-1.  For n >= d(N+1) a
degree-n form is a combination of products

    eta * G_1 * ... * G_j,   G_l in the collection,  deg(eta) < d(N+1),

where repeatedly splitting off the largest admissible generator degree
(the "chain") certifies that such products span.  The factor count j of
the chain lies between floor(t1) and floor(t2) with
t1 = log_{(N+1)/N} max(1, n - d(N+1)) and t2 = log_{(2N+2)/(2N+1)} n,
except for small n, so the enumeration scans that window first and then
relaxes below it (recording that it had to) until full rank is reached.

A basis is extracted greedily in a fixed deterministic order: an element
is kept iff it enlarges the exact rank modulo the hypersurface ideal,
whose integer rows x^mu·sG come from `homopoly.shifted_rows`.
Candidates are multiplied as contents times primitive integer polynomials,
whose products stay primitive (Gauss's lemma), and ranked on those integer
vectors; on P^1, det(C) is the rank tracker's determinant times the contents.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from sympy import ZZ

from .errors import DimensionMismatch, DomainError, InternalCheckError, ResourceLimit
from .dynsys import DynSystem
from .homopoly import (HomoForm, ProjPoint, _capped, _form, _ring, form_str,
                       integral_forms, monomials_of_degree, shifted_rows)
from .linalg import IncrementalRank, det_fraction, integral
from .pffield import LogMag, MINUS_INFINITY, Place, abs_log

# Enumeration guardrail: abort after this multiple of c(n) candidates.
CANDIDATE_CAP_FACTOR = 50

# binary64 unit roundoff; sqrt(5) u bounds a complex product's relative error (Brent,
# Percival & Zimmermann 2007), padded by (1 + 16u) for second-order terms.
U = 2.0**-53
GAMMA = math.sqrt(5) * U * (1 + 16 * U)


def _generators(system: DynSystem, nmax: int) -> list[tuple[int, int, int]]:
    """(j*d^k, k, j) for the generator powers (F_i^(k))^j of degree up to
    nmax, by degree ascending (each degree has exactly one (k, j))."""
    d = system.degree
    out = []
    power, k = d, 1
    while power <= nmax:
        out += [(j * power, k, j) for j in range(1, d) if j * power <= nmax]
        power, k = power * d, k + 1
    return out


def gen_degrees(system: DynSystem, nmax: int) -> list[int]:
    """Degrees j*d^k of generator elements, up to nmax, ascending."""
    return [m for m, _, _ in _generators(system, nmax)]


def floor_G(system: DynSystem, n: int) -> int:
    """Largest generator degree n' with (N+1) n' <= n."""
    d, N = system.degree, system.N
    if n < d * (N + 1):
        raise DomainError(f"floor_G needs n >= d(N+1) = {d * (N + 1)}")
    cands = gen_degrees(system, n // (N + 1))
    if not cands:
        raise InternalCheckError("no generator degree below n/(N+1)")
    return cands[-1]


def floor_log(base: Fraction, arg: int) -> int:
    """floor(log_base(arg)) computed exactly for base > 1, arg >= 1."""
    if arg < 1:
        raise DomainError("floor_log needs arg >= 1")
    t = 0
    x = Fraction(1)
    while x * base <= arg:
        x *= base
        t += 1
    return t


def t1_floor(system: DynSystem, n: int) -> int:
    d, N = system.degree, system.N
    return floor_log(Fraction(N + 1, N), max(1, n - d * (N + 1)))


def t2_floor(system: DynSystem, n: int) -> int:
    N = system.N
    return floor_log(Fraction(2 * N + 2, 2 * N + 1), n)


def degree_chain(system: DynSystem, n: int) -> tuple[list[int], int]:
    """Greedy factor-degree chain for degree n: repeatedly split off
    floor_G of the remaining degree.  Returns (chain, final cofactor
    degree < d(N+1))."""
    d, N = system.degree, system.N
    chain = []
    r = n
    while r >= d * (N + 1):
        m = floor_G(system, r)
        chain.append(m)
        r -= m
    return chain, r


@dataclass
class GenElement:
    """A spanning-family element with its provenance.

    Monomial elements have factors = () and the exponent vector in
    `eta`.  Product elements are eta_monomial * prod (F_i^(k))^j with
    factors a tuple of (i, k, j) triples.  The element is content * poly,
    poly primitive over ZZ; `expanded`, the form, is built on first read.
    """

    eta: tuple
    factors: tuple  # of (i, k, j)
    content: Fraction
    poly: object

    @functools.cached_property
    def expanded(self) -> HomoForm:
        return _form(len(self.eta), sum(self.poly.LM), self.poly).scale(self.content)

    def describe(self) -> str:
        eta_str = form_str(HomoForm.monomial(len(self.eta), self.eta))
        if not self.factors:
            return eta_str
        parts = [f"(F{i}^({k}))^{j}" if j > 1 else f"F{i}^({k})" for i, k, j in self.factors]
        if any(self.eta):
            parts.insert(0, eta_str)
        return " * ".join(parts)

    def evaluate_at(self, system: DynSystem, point: ProjPoint, orbit=None):
        """Value via the provenance: needs only the orbit of the point,
        never the expanded form.  `orbit` caches F^(k)(P) vectors by k,
        filled in order from k = 1; pass one dict per point when
        evaluating several elements (as `BasisFamily.row` does)."""
        if orbit is None:
            orbit = {}
        val = math.prod(x ** a for x, a in zip(point.lift, self.eta) if a)
        for i, k, j in self.factors:
            while len(orbit) < k:
                orbit[len(orbit) + 1] = system.map.image(orbit.get(len(orbit), point.lift))
            val = val * orbit[k][i] ** j
        return val


def _wedge_terms(lifts):
    """(x_j y_i, x_i y_j) for i < j: the wedge P_i ^ P_j is their difference."""
    for j, (xj, yj) in enumerate(lifts):
        for xi, yi in lifts[:j]:
            yield xj * yi, xi * yj


@dataclass
class BasisFamily:
    """An ordered basis of degree-n forms with provenance."""

    n: int
    elements: list[GenElement]
    cn: int
    relaxed_j: bool = False
    coeff_det: Fraction | None = None  # on P^1: det(C), C as in `det`

    def __len__(self):
        return len(self.elements)

    def row(self, system: DynSystem, point: ProjPoint) -> list:
        """The evaluation row (eta_j(P))_j; its elements share one orbit
        of the point."""
        orbit = {}
        return [el.evaluate_at(system, point, orbit) for el in self.elements]

    def det(self, system: DynSystem, lifts) -> Fraction:
        """The exact evaluation determinant det(eta_j(P_i)) of exact lifts.

        On X = P^1 write eta_j = sum_a C[a][j] x0^a x1^(n-a); then the
        matrix is V C with V[i][a] = x_i^a y_i^(n-a) for P_i = (x_i, y_i),
        and V is a homogeneous Vandermonde matrix, so the determinant is
        det(C) * prod_{i<j} (x_j y_i - x_i y_j).  Every other X takes
        `det_fraction` on the evaluation rows."""
        if len(lifts) != self.cn or any(len(pt) != system.N + 1 for pt in lifts):
            raise DimensionMismatch(f"need {self.cn} lifts with {system.N + 1} coordinates")
        if not system.is_p1:
            return det_fraction([self.row(system, pt) for pt in lifts])
        lifted = [integral(pt.lift) for pt in lifts]  # (integer lift, its denominator)
        wedges = math.prod(a - b for a, b in _wedge_terms([v for v, _ in lifted]))
        scale = math.prod(den for _, den in lifted)
        # every point lies in n of the pairs
        return self.coeff_det * Fraction(wedges, scale**self.n)

    def det_log(self, system: DynSystem, lifts):
        """log|det| for numeric lifts on X = P^1 as a LogMag: log|det C| plus
        the fsum of the wedge logs log|a - b|.  Each wedge is charged GAMMA
        (|a| + |b|) for the products and 4u |a - b| for the subtraction (u),
        the modulus (2u) and second-order terms, its log one ulp; barring
        underflow this bounds the error.  MINUS_INFINITY when a wedge is not
        certifiably nonzero."""
        if not system.is_p1:
            raise DomainError("numeric lifts need X = P^1")
        if len(lifts) != self.cn or any(len(pt) != 2 for pt in lifts):
            raise DimensionMismatch(f"need {self.cn} lifts with 2 coordinates")
        logs, errs = [], []
        for a, b in _wedge_terms([pt.lift for pt in lifts]):
            w = abs(a - b)
            bound = GAMMA * (abs(a) + abs(b)) + 4 * U * w
            if bound >= w:
                return MINUS_INFINITY
            logs.append(math.log(w))
            errs.append(math.ulp(logs[-1]) - math.log1p(-bound / w))
        total = math.fsum(logs)
        return abs_log(Place.archimedean(), self.coeff_det) + LogMag.of_float(
            total, math.fsum(errs) + math.ulp(total))

    def spanning_prefix(self, system: DynSystem, lifts):
        """Greedily yield (position, lift) for each exact lift whose
        evaluation row is independent of the rows kept before it, stopping
        right after the c(n)-th without pulling another lift.

        On X = P^1 a lift is kept iff it is projectively new: by `det`,
        det(eta_j(P_i)) = det(C) * prod_{i<j} (x_j y_i - x_i y_j) with
        det(C) != 0, so rows are independent iff their points are
        distinct, and no row is evaluated.  Every other X ranks the
        evaluation rows exactly."""
        p1 = system.is_p1
        seen = set()  # on P^1: the keys of the kept points
        tracker = IncrementalRank(self.cn)  # elsewhere: the kept rows
        kept = 0
        for pos, pt in enumerate(lifts):
            if p1:
                key = pt.key()
                if key in seen:
                    continue
                seen.add(key)
            elif not tracker.add(self.row(system, pt)):
                continue
            yield pos, pt
            kept += 1
            if kept == self.cn:
                return


def section_dim(system: DynSystem | None, n: int, N: int | None = None) -> int:
    """c(n): dimension of degree-n forms modulo the hypersurface ideal."""
    if n < 1:
        raise DomainError("need n >= 1")
    if system is not None:
        N = system.N
        g = system.hypersurface
    else:
        g = None
    full = math.comb(n + N, N)
    if g is None or n < g.degree:
        return full
    return full - math.comb(n - g.degree + N, N)


def _monomial_elements(nvars: int, n: int) -> list[GenElement]:
    return [GenElement(expo, (), Fraction(1), _ring(nvars, ZZ)({expo: 1}))
            for expo in monomials_of_degree(nvars, n)]


def _elements_for_j(system: DynSystem, n: int, j: int):
    """Lazily yield the products with exactly j generator factors, in the
    documented order: cofactor monomial first (by degree, then position in
    the descending-lex listing of its degree), then the sorted factor tuple.

    One recursion picks the factors (i, k, j') with repetition from the
    generators sorted by degree descending, then i, and stops once the
    remaining slots cannot bring the cofactor degree below d(N+1).  Each
    factor-tuple prefix product is cached as (content, primitive ZZ part)."""
    d, N = system.degree, system.N
    nvars = system.map.nvars
    top = d * (N + 1)
    gens = [(m, (i, k, jp)) for m, k, jp in reversed(_generators(system, n))
            for i in range(N + 1)]
    by_rest = {}  # cofactor degree -> factor tuples

    def pick(start, slots, rest, factors):
        if slots == 0:
            if rest < top:
                by_rest.setdefault(rest, []).append(factors)
            return
        for idx in range(start, len(gens)):
            m, factor = gens[idx]
            if m * slots <= rest - top:
                break
            if m <= rest:
                pick(idx, slots - 1, rest - m, factors + (factor,))

    pick(0, j, n, ())

    @functools.cache
    def product(factors):
        if not factors:
            return Fraction(1), _ring(nvars, ZZ).one
        if len(factors) > 1:
            (c, part), (cf, pf) = product(factors[:-1]), product(factors[-1:])
            return c * cf, _capped(part * pf)
        (i, k, jp), = factors
        den, (ints,) = integral_forms([system.iterate(k).forms[i]])
        c, part = _ring(nvars, ZZ)(ints).primitive()
        return Fraction(int(c), den) ** jp, _capped(part**jp)

    for rest in sorted(by_rest):
        for eta in monomials_of_degree(nvars, rest):
            for factors in sorted(by_rest[rest]):
                c, part = product(factors)
                yield GenElement(eta, factors, c, part.mul_monom(eta))


def spanning_family(system: DynSystem, n: int):
    """Lazily yield (element, in_primary_window) in the deterministic
    enumeration order: the window floor(t1) <= j <= floor(t2) ascending,
    then j below the window (descending).  None lies beyond it: each chain
    step at r removes floor_G(r) > r/(2N+2), as consecutive generator
    degrees differ by a ratio <= 2, and the last starts at r >= d(N+1) >= 4
    > (2N+2)/(2N+1), so the chain has fewer than t2 steps."""
    d, N = system.degree, system.N
    if n < 1:
        raise DomainError("need n >= 1")
    if n < d * (N + 1):
        for el in _monomial_elements(system.map.nvars, n):
            yield el, True
        return
    jlo, jhi = t1_floor(system, n), t2_floor(system, n)
    for j in range(jlo, jhi + 1):
        for el in _elements_for_j(system, n, j):
            yield el, True
    for j in range(jlo - 1, -1, -1):
        for el in _elements_for_j(system, n, j):
            yield el, False


def _coeff_vector(coeffs: dict, index: dict):
    vec = [0] * len(index)
    for expo, c in coeffs.items():
        vec[index[expo]] = c
    return vec


def special_basis(system: DynSystem, n: int) -> BasisFamily:
    """Greedy basis of degree-n forms modulo the hypersurface ideal,
    drawn from the spanning family in enumeration order."""
    nvars = system.map.nvars
    monos = monomials_of_degree(nvars, n)
    index = {m: i for i, m in enumerate(monos)}
    target = section_dim(system, n)
    tracker = IncrementalRank(len(monos))
    g = system.hypersurface
    if g is not None:  # the ideal's degree-n part, x^mu·g; no mu when n < deg g
        pairs = [(0, mu) for mu in monomials_of_degree(nvars, n - g.degree)]
        for row in shifted_rows([g], n, pairs)[1]:
            tracker.add(row)
    if tracker.rank != len(monos) - target:
        raise InternalCheckError("hypersurface ideal rank mismatch")
    cap = CANDIDATE_CAP_FACTOR * math.comb(n + system.N, system.N)
    kept: list[GenElement] = []
    relaxed = False
    for seen, (el, primary) in enumerate(spanning_family(system, n)):
        if seen >= cap:
            raise ResourceLimit(f"basis enumeration cap {cap} hit at rank {len(kept)} of {target}")
        if not tracker.add(_coeff_vector(el.poly, index)):
            continue
        kept.append(el)
        relaxed = relaxed or not primary
        if len(kept) == target:  # on P^1, C is contents * kept vectors, `monos` reversed
            coeff_det = ((-1) ** (n * (n + 1) // 2) * math.prod(el.content for el in kept)
                         * tracker.det() if system.is_p1 else None)
            return BasisFamily(n, kept, target, relaxed, coeff_det)
    if system.hypersurface is None:
        raise InternalCheckError(
            f"spanning family exhausted at rank {len(kept)} of {target} for X = P^N"
        )
    raise ResourceLimit(
        f"family exhausted at rank {len(kept)} of {target} modulo the hypersurface"
    )


def monomial_basis(N: int, n: int) -> BasisFamily:
    """The standard degree-n monomial basis on P^N, descending lex."""
    if n < 1:
        raise DomainError("need n >= 1")
    els = _monomial_elements(N + 1, n)
    # on P^1 C is the anti-diagonal: (n + 1) // 2 row swaps make it the identity
    return BasisFamily(n, els, len(els),
                       coeff_det=Fraction((-1) ** ((n + 1) // 2)) if N == 1 else None)

