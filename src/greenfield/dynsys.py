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
valuation bookkeeping.  The lower growth constant bounds the digits m a
step drops by max_m, so W = (K+2)(max_m+1) keeps more than max_m digits
through all K steps and every m is exact; a step that drops more than
max_m raises InternalCheckError.  At the archimedean place the orbit is
iterated in floating point with per-step renormalization.
"""

import enum
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, DomainError, InternalCheckError, NotAMorphism
from .homopoly import (HomoForm, PolyMap, ProjPoint, _compile, _form, _poly, _values,
                       coeff_sup_log, evaluate, integral_forms, iterate)
from .linalg import integral
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
    certificates, per-place growth constants and reduction types, the
    archimedean tail per tol) is computed once, under the lock, and kept
    in `_cache`; a hit reads it without the lock."""

    def __init__(self, pm: PolyMap, hypersurface: HomoForm | None = None):
        self.map = pm
        self.hypersurface = hypersurface
        self._lock = threading.RLock()  # growth_constants reads certificates under it
        self._iter_cache: dict[int, PolyMap] = {}
        self._cache = {}  # "resultant", "certificates", or (kind, place or tol) -> value
        if self.resultant == 0:
            raise NotAMorphism("not a morphism: Res(F) = 0")
        if hypersurface is not None:
            if hypersurface.nvars != pm.nvars:
                raise DomainError("hypersurface variable count mismatch")
            if hypersurface.is_zero():
                raise DomainError("zero hypersurface form")
            if hypersurface.degree < 1:
                raise DomainError("constant hypersurface form: V(G) is empty")
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

    def _cached(self, key, compute, *args):
        """compute(*args) once per key: a miss takes the lock and looks again."""
        got = self._cache.get(key)
        if got is None:
            with self._lock:
                got = self._cache.get(key)
                if got is None:
                    got = self._cache[key] = compute(*args)
        return got

    @property
    def resultant(self) -> Fraction:
        return self._cached("resultant", macaulay_resultant, self.map)

    def iterate(self, k: int) -> PolyMap:
        with self._lock:
            return iterate(self.map, k, self._iter_cache)

    @property
    def certificates(self) -> list[list[HomoForm]]:
        """Elimination certificates for the pure powers x_i^e."""
        return self._cached("certificates", _certificates, self)

    def growth_constants(self, place: Place) -> tuple[float, float]:
        """(c_lo, c_hi) with -c_lo <= log||F(Q)|| - d log||Q|| <= c_hi
        for every nonzero Q over C_v."""
        return self._cached(("growth", place), _growth_constants, self, place)

    def reduction(self, place: Place) -> ReductionInfo:
        return self._cached(("reduction", place), _reduction_type, self, place)


def _certificates(system: DynSystem) -> list[list[HomoForm]]:
    n = system.map.nvars
    e = macaulay_degree(system.degree, system.N)
    targets = [
        HomoForm.monomial(n, tuple(e if j == i else 0 for j in range(n)))
        for i in range(n)
    ]
    return elimination_certificates(system.map, targets)


def _growth_constants(system: DynSystem, place: Place) -> tuple[float, float]:
    pm = system.map
    sup = coeff_sup_log(pm, place)
    eta_sup = sup_log(place, [c for cert in system.certificates for eta in cert
                              for c in eta.coeffs.values()])
    eta_terms = max(
        max((len(eta.coeffs) for eta in cert), default=1) for cert in system.certificates
    )
    if place.is_archimedean:
        terms = max(len(f.coeffs) for f in pm.forms)
        c_hi = sup.total() + math.log(terms) + 1e-12
        c_lo = math.log(pm.nvars) + math.log(max(eta_terms, 1)) + eta_sup.arch + 1e-12
        c_lo = max(c_lo, 0.0)
    else:
        c_hi = sup.total()
        c_lo = eta_sup.total()
    return c_lo, c_hi


def check_invariance(pm: PolyMap, g: HomoForm) -> InvarianceResult:
    """True iff G∘F = Q·G for some form Q; returns Q, or the nonzero
    remainder of the division in lex order with x0 first (no term of it
    is divisible by the leading term of G) on failure."""
    if g.is_zero():
        raise DomainError("division by zero form")
    if g.nvars != pm.nvars:
        raise DomainError("variable count mismatch in division")
    q, r = _poly(g.substitute(pm.forms)).div(_poly(g))
    if r:
        return InvarianceResult(False, None, _form(g.nvars, g.degree * pm.degree, r))
    return InvarianceResult(True, _form(g.nvars, g.degree * (pm.degree - 1), q), None)


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
    s, ints = integral_forms(system.map.forms)
    log_s_v = -place.valuation(s) * logp
    c_lo_s = c_lo - log_s_v
    c_hi_s = c_hi + log_s_v
    int_forms = [_compile(f, False) for f in ints]
    v0, den = integral(lift.lift)
    shift0 = min(place.valuation(x) for x in v0 if x)  # v0 / p^shift0 is primitive at p
    v = [x // p**shift0 for x in v0]
    # H_F(lift) = H_{F'}(v) - log|s|_v/(d-1) - log|lam|_v,  lam = den/p^shift0,
    # and log|s|_v = -ord_p(s) log p, log|lam|_v = -lam_ord log p:
    lam_ord = place.valuation(den) - shift0
    base = Fraction(lam_ord) + Fraction(place.valuation(s), d - 1)  # coefficient of log p
    bound = max(abs(c_lo_s), abs(c_hi_s), 1e-9)
    K = _tail_steps(d, bound, tol)
    max_m = max(1, int(c_lo_s / logp) + 1)
    # log||F'(v)||_p >= -c_lo_s for primitive v, so each step drops m <= max_m
    # digits: from W = (K+2)(max_m+1), step k keeps W - k*max_m > max_m of
    # them, and the least valuation of the residues is the true m
    mod = p ** ((K + 2) * (max_m + 1))  # p^W, divided by p^m at each step
    acc = 0  # sum of m_k d^(K-1-k)
    for _ in range(K):
        w = [x % mod for x in _values(int_forms, v)]
        g = math.gcd(*w)  # below mod, so v_p(g) is below the digits held
        if not g:
            raise InternalCheckError("p-adic escape iteration lost all precision")
        m = place.valuation(g)
        if m > max_m:
            raise InternalCheckError(f"p-adic escape step dropped {m} > {max_m} digits")
        acc = acc * d + m
        q = p**m
        v = [x // q for x in w]
        mod //= q
    total = base - Fraction(acc, d**K)  # Fraction coefficient of log p
    val = float(total) * logp
    err = bound / (d**K * (d - 1)) + 4 * math.ulp(abs(val) + 1.0)
    return LogMag.of_float(val, err)


def _arch_tail(system: DynSystem, tol: float) -> tuple[int, float]:
    """(K, bound) of the archimedean escape loop, once per (system, tol)."""
    return system._cached(("arch_tail", tol), _arch_tail_of, system, tol)


def _arch_tail_of(system: DynSystem, tol: float) -> tuple[int, float]:
    c_lo, c_hi = system.growth_constants(Place.archimedean())
    bound = max(abs(c_lo), abs(c_hi), 1e-9)
    return _tail_steps(system.degree, bound, tol), bound


def _escape_arch(system: DynSystem, lift: ProjPoint, tol: float) -> LogMag:
    d = system.degree
    K, bound = _arch_tail(system, tol)
    big = max(abs(x) for x in lift.lift)
    total = math.log(big) if lift.numeric else abs_log(Place.archimedean(), big).arch
    start = ProjPoint.of_numeric([x / big for x in lift.lift])
    parts = [total]
    if K:
        try:
            # step 1 via `evaluate`: perfbench/test_perfbench.py expects its span
            system.map._orbit()(*[evaluate(f, start) for f in system.map.forms], K, parts)
        except OverflowError:  # fsum's partial sums, or abs of a value
            raise DomainError("an orbit value lies outside the binary64 range") from None
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
    """Classify an escape rate by its sign, with a band max(tol, arch_err)
    around 0 left UNDETERMINED unless the rate is an exact ledger."""
    band = 0.0 if rate.is_exact else max(tol, rate.arch_err)  # an exact ledger has a sharp sign
    h = rate.total()
    if h > band:
        return Membership.OUTSIDE
    if h <= -band:
        return Membership.INSIDE
    return Membership.UNDETERMINED
