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
coefficients).  At bad places the orbit is iterated in Z/p^W with
valuation bookkeeping; at the archimedean place in floating point with
per-step renormalization.
"""

import enum
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalCheckError, NotAMorphism, PreconditionError
from .homopoly import (HomoForm, PolyMap, ProjPoint, coeff_sup_log, evaluate,
                       iterate)
from .macaulay import elimination_certificates, macaulay_degree, macaulay_resultant
from .pffield import LogMag, Place, log_abs


class Membership(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    UNDETERMINED = "undetermined"


@dataclass
class InvarianceResult:
    holds: bool
    quotient: HomoForm | None  # Q with G∘F = Q·G on success
    remainder: HomoForm | None  # nonzero remainder on failure

    def __bool__(self):
        return self.holds


@dataclass
class ReductionInfo:
    good: bool
    scaling_ord: int  # minimal coefficient valuation t at this place
    needs_extension: bool  # (N+1)d^N does not divide ord_v(Res)

    @property
    def kind(self) -> str:
        return "good" if self.good else "bad"


@dataclass
class EscapeRate:
    value: float
    error: float
    exact: LogMag | None = None  # set when the value is an exact ledger

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


def divmod_form(num: HomoForm, den: HomoForm):
    """Exact division of homogeneous forms: num = q*den + r with no term
    of r divisible by the leading term of den (descending-lex order)."""
    if den.is_zero():
        raise DomainError("division by zero form")
    if num.nvars != den.nvars:
        raise DomainError("variable count mismatch in division")
    lead_d = max(den.coeffs)
    cd = den.coeffs[lead_d]
    q = HomoForm.zero(num.nvars, max(num.degree - den.degree, 0))
    r_terms: dict = {}
    work = dict(num.coeffs)
    while work:
        lead = max(work)
        c = work.pop(lead)
        diff = tuple(a - b for a, b in zip(lead, lead_d))
        if all(a >= 0 for a in diff):
            qc = c / cd
            q = q + HomoForm.monomial(num.nvars, diff, qc)
            for expo, dc in den.coeffs.items():
                if expo == lead_d:
                    continue
                tgt = tuple(a + b for a, b in zip(expo, diff))
                s = work.get(tgt, Fraction(0)) - qc * dc
                if s == 0:
                    work.pop(tgt, None)
                else:
                    work[tgt] = s
        else:
            r_terms[lead] = c
    return q, HomoForm(num.nvars, num.degree, r_terms)


class DynSystem:
    """A lift F of a morphism of P^N, optionally restricted to an
    invariant hypersurface X = V(G).  Derived data (resultant,
    certificates, per-place growth constants and reduction types) is
    computed once and cached."""

    def __init__(self, pm: PolyMap, hypersurface: HomoForm | None = None,
                 r_convention: str = "invariant"):
        self.map = pm
        self.hypersurface = hypersurface
        self.r_convention = r_convention
        self._lock = threading.Lock()
        self._resultant = None
        self._iter_cache: dict[int, PolyMap] = {}
        self._certs = None
        self._growth: dict[Place, tuple[float, float]] = {}
        self._reduction: dict[Place, ReductionInfo] = {}
        if self.resultant == 0:
            raise NotAMorphism("not a morphism: Res(F) = 0")
        if hypersurface is not None:
            if hypersurface.nvars != pm.nvars:
                raise DomainError("hypersurface variable count mismatch")
            if hypersurface.is_zero():
                raise DomainError("zero hypersurface form")
            inv = check_invariance_forms(pm, hypersurface)
            if not inv:
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
    def macaulay_deg(self) -> int:
        return macaulay_degree(self.degree, self.N)

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
                e = self.macaulay_deg
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
        eta_coeffs = [c for cert in self.certificates for eta in cert for c in eta.coeffs.values()]
        eta_terms = max(
            max((len(eta.coeffs) for eta in cert), default=1) for cert in self.certificates
        )
        if place.is_archimedean:
            terms = max(len(f.coeffs) for f in pm.forms)
            c_hi = sup.total() + math.log(terms) + 1e-12
            big = max(abs(c) for c in eta_coeffs)
            c_lo = (
                math.log(pm.nvars)
                + math.log(max(eta_terms, 1))
                + (log_abs(big)[0] if big else 0.0)
                + 1e-12
            )
            c_lo = max(c_lo, 0.0)
        else:
            c_hi = sup.total()
            v = min(place.valuation(c) for c in eta_coeffs)
            c_lo = -v * math.log(place.p)
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


def check_invariance_forms(pm: PolyMap, g: HomoForm) -> InvarianceResult:
    comp = g.substitute(pm.forms)
    q, r = divmod_form(comp, g)
    if r.is_zero():
        return InvarianceResult(True, q, None)
    return InvarianceResult(False, None, r)


def check_invariance(system: DynSystem) -> InvarianceResult:
    """True iff G∘F = Q·G for some form Q; returns Q, or the nonzero
    remainder of the exact division on failure."""
    if system.hypersurface is None:
        raise PreconditionError("system has no hypersurface")
    return check_invariance_forms(system.map, system.hypersurface)


def _reduction_type(system: DynSystem, place: Place) -> ReductionInfo:
    if system.resultant == 0:
        raise NotAMorphism("not a morphism: Res(F) = 0")
    if place.is_archimedean:
        return ReductionInfo(False, 0, False)
    d, N = system.degree, system.N
    w = (N + 1) * d**N  # Res(cF) = c^w Res(F)
    ord_res = place.valuation(system.resultant)
    t = min(place.valuation(c) for f in system.map.forms for c in f.coeffs.values())
    # A scaling mu with |Res(mu F)|_v = 1 and unit coefficient sup-norm
    # exists (over an extension when w does not divide ord_res) iff the
    # two normalizations agree:
    good = ord_res == w * t
    return ReductionInfo(good, t, ord_res % w != 0)


def reduction_type(system: DynSystem, place: Place) -> str:
    """"good" or "bad" per the unit-resultant/unit-coefficients test;
    archimedean places are bad by convention."""
    return system.reduction(place).kind


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


def _escape_good_place(system: DynSystem, place: Place, lift: ProjPoint) -> EscapeRate:
    p = place.p
    t = system.reduction(place).scaling_ord
    minord = min(place.valuation(x) for x in lift.lift if x != 0)
    coeff = Fraction(-minord) - Fraction(t, system.degree - 1)
    mag = LogMag.of_log_prime(p, coeff)
    return EscapeRate(mag.total(), 0.0, mag)


def _escape_padic_bad(system: DynSystem, place: Place, lift: ProjPoint, tol: float) -> EscapeRate:
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
    int_forms = [
        {expo: int(c * s) for expo, c in f.coeffs.items()} for f in system.map.forms
    ]
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
    while True:
        acc = Fraction(0)
        v = [x % p**W for x in v0]
        prec = W
        ok = True
        for k in range(K):
            w = [_eval_int_form(f, v, p, prec) for f in int_forms]
            # entries lie in [0, p^prec), so a nonzero one has valuation < prec
            m = min((place.valuation(x) for x in w if x), default=None)
            if m is None:
                ok = False
                break
            acc -= Fraction(m, d ** (k + 1))
            q = p**m
            v = [x // q for x in w]
            prec -= m
        if ok:
            total = base + acc  # Fraction coefficient of log p
            val = float(total) * logp
            err = bound / (d**K * (d - 1)) + 4 * math.ulp(abs(val) + 1.0)
            return EscapeRate(val, err, None)
        W *= 2
        if W > 1_000_000:
            raise InternalCheckError("p-adic escape iteration lost all precision")


def _eval_int_form(coeffs: dict, v: list[int], p: int, prec: int) -> int:
    mod = p**prec
    acc = 0
    for expo, c in coeffs.items():
        t = c % mod
        for x, a in zip(v, expo):
            if a:
                t = (t * pow(x, a, mod)) % mod
        acc = (acc + t) % mod
    return acc


def _escape_arch(system: DynSystem, lift: ProjPoint, tol: float) -> EscapeRate:
    d = system.degree
    c_lo, c_hi = system.growth_constants(Place.archimedean())
    bound = max(abs(c_lo), abs(c_hi), 1e-9)
    K = _tail_steps(d, bound, tol)
    if lift.numeric:
        q = list(lift.lift)
        m0 = max(abs(x) for x in q)
        total = math.log(m0)
        q = [x / m0 for x in q]
    else:
        big = max(abs(x) for x in lift.lift)
        total = log_abs(big)[0]
        q = [complex(x / big) for x in lift.lift]
    parts = [total]
    scale = 1.0
    for k in range(K):
        w = [evaluate(f, ProjPoint.of_numeric(q)) for f in system.map.forms]
        m = max(abs(x) for x in w)
        if m == 0.0:
            raise InternalCheckError("orbit underflowed to zero at the archimedean place")
        scale /= d
        parts.append(scale * math.log(m))
        q = [x / m for x in w]
    val = math.fsum(parts)
    float_slop = (K + 2) * 1e-14 * (1.0 + abs(val)) + 1e-15
    err = bound / (d**K * (d - 1)) + float_slop
    return EscapeRate(val, err, None)


def escape_rate(system: DynSystem, place: Place, lift: ProjPoint, tol: float) -> EscapeRate:
    """The local escape rate of the lift at the place, within tol.

    Exact (zero error) at nonarchimedean places of good reduction.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if place.is_archimedean:
        return _escape_arch(system, lift, tol)
    if lift.numeric:
        raise DomainError("nonarchimedean escape rate needs an exact lift")
    if system.reduction(place).good:
        return _escape_good_place(system, place, lift)
    return _escape_padic_bad(system, place, lift, tol)


def julia_membership(system: DynSystem, place: Place, lift: ProjPoint, tol: float) -> Membership:
    """Filled-Julia membership via the sign of the escape rate; boundary
    band reported as UNDETERMINED.  Exact at good nonarchimedean places:
    the filled Julia set there is the polydisk H <= 0."""
    rate = escape_rate(system, place, lift, tol)
    if rate.is_exact:
        coeff = rate.exact.padic.get(place.p, Fraction(0)) if not place.is_archimedean else None
        if coeff is not None:
            return Membership.OUTSIDE if coeff > 0 else Membership.INSIDE
    if rate.value > tol:
        return Membership.OUTSIDE
    if rate.value < -tol:
        return Membership.INSIDE
    return Membership.UNDETERMINED
