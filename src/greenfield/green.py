"""Evaluation determinants, Green's function values, transfinite
diameter witnesses and envelopes, and the archimedean Fekete search.

The transfinite diameter itself is a sup over all admissible tuples and
is not computed: the module produces certified lower bounds (witnesses
from explicit tuples) and certified upper bounds (a Hadamard envelope),
and reports carry the pair.
"""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .basis import BasisFamily, section_dim, t2_floor
from .dynsys import DynSystem, Membership, escape_rate, julia_membership
from .errors import DimensionMismatch, DomainError, PreconditionError
from .homopoly import ProjPoint, evaluate
from .linalg import det_fraction
from .macaulay import r_normalized
from .pffield import (LogMag, MINUS_INFINITY, PLUS_INFINITY, Place, abs_log)

# Numeric determinants with 2-norm condition beyond this are treated as
# rank-deficient.
NUMERIC_COND_LIMIT = 1e13


@dataclass
class EvalDetLog:
    """log|det| of a basis evaluation matrix at a place.

    `value` is a LogMag, or MINUS_INFINITY when the matrix is exactly
    singular (exact mode) or numerically rank-deficient beyond the
    condition threshold (numeric mode, with the flag set).
    """

    value: object
    dimension: int
    degree: int
    numeric: bool = False
    numeric_rank_deficient: bool = False

    @property
    def is_minus_infinity(self) -> bool:
        return self.value is MINUS_INFINITY


def _eval_matrix(system: DynSystem, basis: BasisFamily, lifts):
    rows = []
    for pt in lifts:
        orbit = {}
        rows.append([el.evaluate_at(system, pt, orbit) for el in basis.elements])
    return rows


def eval_det_log(system: DynSystem, basis: BasisFamily, lifts, place: Place) -> EvalDetLog:
    """log|det(eta_j(P_i))|_v; exact when the lifts are exact."""
    c = len(basis.elements)
    if len(lifts) != c:
        raise DimensionMismatch(f"need {c} lifts, got {len(lifts)}")
    numeric_flags = {pt.numeric for pt in lifts}
    if len(numeric_flags) > 1:
        raise DomainError("mixed exact and numeric lifts")
    numeric = numeric_flags.pop()
    if numeric and not place.is_archimedean:
        raise DomainError("numeric lifts are archimedean-only")
    rows = _eval_matrix(system, basis, lifts)
    if not numeric:
        det = det_fraction(rows)
        if det == 0:
            return EvalDetLog(MINUS_INFINITY, c, basis.n)
        return EvalDetLog(abs_log(place, det), c, basis.n)
    m = np.array(rows, dtype=complex)
    sign, logabs = np.linalg.slogdet(m)
    if sign == 0 or not np.isfinite(logabs):
        return EvalDetLog(MINUS_INFINITY, c, basis.n, True, True)
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > NUMERIC_COND_LIMIT:
        return EvalDetLog(MINUS_INFINITY, c, basis.n, True, True)
    err = c * np.finfo(float).eps * cond + 1e-15
    return EvalDetLog(LogMag.of_float(float(logabs), float(err)), c, basis.n, True)


def green_value(system: DynSystem, basis: BasisFamily, lifts, place: Place,
                convention: str | None = None, tol: float = 1e-9):
    """The Green's function value

        (1/c) sum_i H(P_i)  -  (1/(n c)) log|det|  +  r(F)

    as a LogMag ledger, or PLUS_INFINITY on a singular tuple."""
    if convention is None:
        convention = system.r_convention
    det = eval_det_log(system, basis, lifts, place)
    if det.is_minus_infinity:
        return PLUS_INFINITY
    c = len(basis.elements)
    n = basis.n
    acc = det.value.scale(Fraction(-1, n * c))
    for pt in lifts:
        rate = escape_rate(system, place, pt, tol / max(c, 1))
        part = rate.exact if rate.is_exact else LogMag.of_float(rate.value, rate.error)
        acc = acc + part.scale(Fraction(1, c))
    acc = acc + r_normalized(system.map, place, convention, resultant=system.resultant)
    return acc


def on_hypersurface(system: DynSystem, pt: ProjPoint, tol: float = 1e-9) -> bool:
    g = system.hypersurface
    if g is None:
        return True
    val = evaluate(g, pt)
    if not pt.numeric:
        return val == 0
    scale = max(1.0, max(abs(x) for x in pt.lift) ** g.degree)
    return abs(val) <= tol * scale


def dbn_witness(system: DynSystem, basis: BasisFamily, lifts, place: Place,
                tol: float = 1e-9):
    """(1/(n c)) log|det| for an admissible tuple: a certified lower
    bound for log d at the place.  Every lift must lie on X and must not
    be certifiably outside the filled Julia set."""
    c = len(basis.elements)
    if len(lifts) != c:
        raise DimensionMismatch(f"need {c} lifts, got {len(lifts)}")
    for i, pt in enumerate(lifts):
        if julia_membership(system, place, pt, tol) is Membership.OUTSIDE:
            raise PreconditionError(f"lift {i} lies outside the filled Julia set")
        if not on_hypersurface(system, pt, tol):
            raise PreconditionError(f"lift {i} does not lie on the hypersurface")
    det = eval_det_log(system, basis, lifts, place)
    if det.is_minus_infinity:
        return MINUS_INFINITY
    return det.value.scale(Fraction(1, basis.n * c))


def julia_radius_log(system: DynSystem, place: Place) -> float:
    """Upper bound for the log sup-norm radius of the filled Julia set:
    exact at good places, from the growth constants otherwise."""
    if not place.is_archimedean:
        red = system.reduction(place)
        if red.good:
            return red.scaling_ord * math.log(place.p) / (system.degree - 1)
    c_lo, _ = system.growth_constants(place)
    return c_lo / (system.degree - 1)


def hadamard_envelope(system: DynSystem, n: int, R_log: float, place: Place) -> float:
    """Upper bound for log|det| over tuples drawn from a region of log
    sup-norm radius R_log: every basis element is a monomial cofactor of
    degree < d(N+1) times at most floor(t2) generator factors of degree
    increment <= d-1, so each entry is at most exp(E * max(R_log, 0))
    with E = d(N+1) - 1 + floor(t2)(d - 1); Hadamard over c(n) columns
    (Euclidean norms at the archimedean place) gives the bound."""
    if n < 2:
        raise DomainError("envelope needs n >= 2")
    d, N = system.degree, system.N
    c = section_dim(system, n)
    exponent = (d * (N + 1) - 1) + t2_floor(system, n) * (d - 1)
    env = c * exponent * max(R_log, 0.0)
    if place.is_archimedean:
        env += 0.5 * c * math.log(c)
    return env


@dataclass
class FeketeResult:
    angles: list[float]
    lifts: list[ProjPoint]
    witness: LogMag
    log_det: float
    evaluations: int


def fekete_search(system: DynSystem, basis: BasisFamily, n: int, budget: int,
                  seed: int) -> FeketeResult:
    """Maximize the determinant witness over tuples on the standard
    real-angle chart (unit-circle points with lifts normalized to escape
    rate zero): greedy Leja initialization over a seeded candidate pool,
    then cyclic single-angle ascent with a shrinking probe window.

    Deterministic given the seed; the best witness is nondecreasing in
    the budget.  The result is a certified lower bound for log d at the
    archimedean place, not a claim of optimality.
    """
    if system.N != 1:
        raise PreconditionError("the angle chart needs X = P^1")
    if budget < 1:
        raise DomainError("budget must be positive")
    if basis.n != n:
        raise DimensionMismatch("basis degree disagrees with n")
    c = len(basis.elements)
    rng = random.Random(seed)
    arch = Place.archimedean()
    evals = 0
    esc_tol = 1e-12
    row_cache: dict[float, np.ndarray] = {}

    def row_at(theta):
        nonlocal evals
        got = row_cache.get(theta)
        if got is not None:
            return got
        evals += 1
        pt = ProjPoint.of_numeric([cmath.exp(1j * theta), 1.0])
        h = escape_rate(system, arch, pt, esc_tol).value
        orbit = {}
        raw = [el.evaluate_at(system, pt, orbit) for el in basis.elements]
        row = np.array(raw, dtype=complex) * math.exp(-n * h)
        row_cache[theta] = row
        return row

    def log_det_of(ths):
        m = np.array([row_at(th) for th in ths])
        sign, logabs = np.linalg.slogdet(m)
        if sign == 0 or not np.isfinite(logabs):
            return -math.inf
        return float(logabs)

    # Leja initialization over a seeded pool: pick the row with the
    # largest component orthogonal to the span of the rows chosen so far.
    pool_size = min(max(4 * c, 48), max(budget - c, 1))
    pool = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(pool_size)]
    pool_rows = [row_at(th) for th in pool]
    thetas = []
    ortho = []
    taken = set()
    for _ in range(min(c, pool_size)):
        best_i, best_score = None, -1.0
        for i, row in enumerate(pool_rows):
            if i in taken:
                continue
            resid = row.copy()
            for q in ortho:
                resid -= q.conj().dot(resid) * q
            score = float(np.linalg.norm(resid))
            if score > best_score:
                best_i, best_score = i, score
        taken.add(best_i)
        thetas.append(pool[best_i])
        resid = pool_rows[best_i].copy()
        for q in ortho:
            resid -= q.conj().dot(resid) * q
        nrm = float(np.linalg.norm(resid))
        if nrm > 0:
            ortho.append(resid / nrm)
    while len(thetas) < c:  # degenerate pool; spread points evenly
        thetas.append(2.0 * math.pi * len(thetas) / c)

    current = log_det_of(thetas)
    best_thetas = list(thetas)
    best_val = current
    window = math.pi / max(c, 2)
    while evals < budget:
        sweep_start = evals
        improved = False
        for i in range(c):
            if evals >= budget:
                break
            jitter = rng.uniform(0.7, 1.3)
            for off in (window * jitter, -window * jitter,
                        window * jitter / 3, -window * jitter / 3):
                if evals >= budget:
                    break
                cand = list(thetas)
                cand[i] = thetas[i] + off
                val = log_det_of(cand)
                if val > current:
                    thetas, current = cand, val
                    improved = True
            if current > best_val:
                best_val, best_thetas = current, list(thetas)
        window *= 0.9 if improved else 0.5
        if window < 1e-15:
            window = math.pi / max(c, 2)
        if evals == sweep_start:
            break  # every probe hit the cache; nothing new to evaluate

    lifts = []
    for th in best_thetas:
        pt = ProjPoint.of_numeric([cmath.exp(1j * th), 1.0])
        h = escape_rate(system, arch, pt, esc_tol).value
        lifts.append(pt.scaled(cmath.exp(-h)))
    witness = LogMag.of_float(best_val / (n * c), 1e-12 + abs(best_val) * 1e-14)
    return FeketeResult(best_thetas, lifts, witness, best_val, evals)
