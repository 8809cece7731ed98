"""Evaluation determinants, Green's function values, transfinite
diameter witnesses and envelopes, and the archimedean Fekete search.

The transfinite diameter itself is a sup over all admissible tuples and
is not computed: the module produces certified lower bounds (witnesses
from explicit tuples) and certified upper bounds (a Hadamard envelope),
and reports carry the pair.  Green values and witnesses share one
ledger E = (1/c) sum_i H(P_i) - (1/(n c)) log|det| over lifts on X:
g = E + r(F) and the witness is -E.  Determinants come from
`BasisFamily.det` (exact lifts) and `det_log` (numeric lifts, X = P^1
only, with a derived error bound).
"""

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .basis import BasisFamily, section_dim, t2_floor
from .dynsys import DynSystem, escape_rate
from .errors import DomainError, PreconditionError
from .homopoly import ProjPoint, evaluate
from .macaulay import r_normalized
from .pffield import (LogMag, MINUS_INFINITY, PLUS_INFINITY, Place, abs_log)


def eval_det_log(system: DynSystem, basis: BasisFamily, lifts, place: Place):
    """log|det(eta_j(P_i))|_v as a LogMag: `BasisFamily.det` for exact lifts,
    `BasisFamily.det_log` (archimedean, X = P^1) for numeric ones, with its
    derived error; MINUS_INFINITY on a zero or not certifiably nonzero det."""
    numeric_flags = {pt.numeric for pt in lifts}
    if len(numeric_flags) > 1:
        raise DomainError("mixed exact and numeric lifts")
    if True in numeric_flags:
        if not place.is_archimedean:
            raise DomainError("numeric lifts are archimedean-only")
        return basis.det_log(system, lifts)
    det = basis.det(system, lifts)
    return MINUS_INFINITY if det == 0 else abs_log(place, det)


def _ledger(system: DynSystem, basis: BasisFamily, lifts, place: Place, tol: float):
    """(1/c) sum_i H(P_i) - (1/(n c)) log|det|, each escape rate within
    tol/c, or None on a singular tuple.  Every lift must lie on X."""
    det = eval_det_log(system, basis, lifts, place)
    if system.hypersurface is not None:
        for i, pt in enumerate(lifts):
            if evaluate(system.hypersurface, pt) != 0:
                raise PreconditionError(f"lift {i} does not lie on the hypersurface")
    if det is MINUS_INFINITY:
        return None
    c = basis.cn
    acc = det.scale(Fraction(-1, basis.n * c))
    for pt in lifts:
        acc = acc + escape_rate(system, place, pt, tol / c).scale(Fraction(1, c))
    return acc


def green_value(system: DynSystem, basis: BasisFamily, lifts, place: Place,
                convention: str = "invariant", tol: float = 1e-9):
    """The Green's function value

        (1/c) sum_i H(P_i)  -  (1/(n c)) log|det|  +  r(F)

    as a LogMag ledger, or PLUS_INFINITY on a singular tuple."""
    acc = _ledger(system, basis, lifts, place, tol)
    if acc is None:
        return PLUS_INFINITY
    return acc + r_normalized(system.map, place, convention, resultant=system.resultant)


def dbn_witness(system: DynSystem, basis: BasisFamily, lifts, place: Place,
                tol: float = 1e-9):
    """(1/(n c)) log|det| - (1/c) sum_i H(P_i) = r(F) - g for lifts on X,
    a certified lower bound for log d at the place: scaling each lift by
    lambda_i with log|lambda_i| = -H(P_i) puts it on the boundary of the
    filled Julia set K and multiplies det by prod lambda_i^n (at p the
    value group of C_p is Q, so the bound holds as a supremum over K).
    MINUS_INFINITY on a singular tuple."""
    acc = _ledger(system, basis, lifts, place, tol)
    return MINUS_INFINITY if acc is None else -acc


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
    witness: LogMag  # or MINUS_INFINITY
    log_det: float
    evaluations: int


def fekete_search(system: DynSystem, basis: BasisFamily, budget: int,
                  seed: int) -> FeketeResult:
    """Maximize the determinant witness over tuples on the standard
    real-angle chart (unit-circle points with lifts normalized to escape
    rate zero): a Leja start over a seeded candidate pool, then cyclic
    single-angle ascent with a shrinking probe window.

    The objective is log|det| of the lifts by `BasisFamily.det`'s
    factorization, log|det C| plus the fsum of the wedge logs
    log|P_i ^ P_j| (-inf on a zero wedge), without `det_log`'s error
    bound.  A probe that moves one point recomputes only that point's
    c - 1 wedge logs; while the objective is -inf it rescores from
    scratch.  The Leja start picks, one at a time, the pool point whose
    log wedges to the points picked before sum highest (ties to the
    lowest pool index); a pool smaller than c(n) is filled with evenly
    spread angles.  The start evaluates at least c(n) angles, so a budget
    below c(n) is a DomainError.

    The ascent stops once the window falls below 1e-15 or a sweep
    evaluates no new angle; the budget only caps it.  Deterministic given
    the seed.  Once budget >= c + max(4c, 48) fixes the pool, the best
    objective value is nondecreasing in the budget; below that the pool,
    and so the start, depends on the budget.  The witness is
    `dbn_witness` of the returned lifts, a certified lower bound for
    log d at the archimedean place (MINUS_INFINITY if the determinant is
    not certifiably nonzero), not a claim of optimality.
    """
    if not system.is_p1:
        raise PreconditionError("the angle chart needs X = P^1")
    c = basis.cn
    if budget < c:
        raise DomainError(f"budget {budget} is below c(n) = {c}")
    rng = random.Random(seed)
    arch = Place.archimedean()
    log_det_c = abs_log(arch, basis._coeff_det).total()
    evals = 0
    esc_tol = 1e-12
    cache: dict[float, ProjPoint] = {}  # theta -> lift scaled to escape rate 0

    def lift_at(theta):
        nonlocal evals
        got = cache.get(theta)
        if got is None:
            evals += 1
            pt = ProjPoint.of_numeric([cmath.exp(1j * theta), 1.0])
            rate = escape_rate(system, arch, pt, esc_tol)
            got = cache[theta] = pt.scaled(cmath.exp(-rate.total()))
        return got.lift

    def wedge_logs(pts, i):
        """log|P_i ^ P_j| for every j (0.0 at j = i); None on a zero wedge."""
        x, y = pts[i]
        row = [abs(x * yj - xj * y) for xj, yj in pts]
        row[i] = 1.0
        return [math.log(w) for w in row] if all(row) else None

    def pair_logs(rows):
        """Each wedge log once: row i's entries for j > i."""
        return [v for i, r in enumerate(rows) for v in r[i + 1:]]

    def objective(pts):
        """(log|det|, every point's wedge logs) of a tuple, from scratch."""
        rows = [wedge_logs(pts, i) for i in range(c)]
        if any(r is None for r in rows):
            return -math.inf, None
        return log_det_c + math.fsum(pair_logs(rows)), rows

    pool_size = min(max(4 * c, 48), max(budget - c, 1))
    pool = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(pool_size)]
    scores = [0.0] * pool_size  # sum of log wedges to the points picked so far
    free = list(range(pool_size))
    thetas = []
    for _ in range(min(c, pool_size)):
        pick = max(free, key=scores.__getitem__)
        free.remove(pick)
        thetas.append(pool[pick])
        x, y = lift_at(pool[pick])
        for i in free:
            xi, yi = lift_at(pool[i])
            w = abs(xi * y - x * yi)
            scores[i] += math.log(w) if w else -math.inf
    while len(thetas) < c:  # degenerate pool; spread points evenly
        thetas.append(2.0 * math.pi * len(thetas) / c)

    pts = [lift_at(th) for th in thetas]
    current, rows = objective(pts)
    cur_logs = None if rows is None else pair_logs(rows)
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
                cand_pts = list(pts)
                cand_pts[i] = lift_at(cand[i])
                if rows is None:
                    val, cand_rows = objective(cand_pts)
                else:
                    # only the moved point's wedges change; fsum rounds the
                    # exact sum once, so this equals the full recomputation
                    new_row = wedge_logs(cand_pts, i)
                    val = -math.inf if new_row is None else log_det_c + math.fsum(
                        cur_logs + [-v for v in rows[i]] + new_row)
                if val > current:
                    thetas, pts, current = cand, cand_pts, val
                    if rows is None:
                        rows = cand_rows
                    else:
                        rows[i] = new_row
                        for r, v in zip(rows, new_row):
                            r[i] = v
                    cur_logs = pair_logs(rows)
                    improved = True
        window *= 0.9 if improved else 0.5
        if window < 1e-15 or evals == sweep_start:
            break  # converged, or every probe hit the cache

    lifts = [cache[th] for th in thetas]
    return FeketeResult(thetas, lifts, dbn_witness(system, basis, lifts, arch, esc_tol),
                        current, evals)
