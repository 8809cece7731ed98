"""Experiment drivers: the adelic envelope/witness report and the
transfinite-diameter trend, which share one (n, place) row loop, the
greedy multiples search along a translation orbit, and the
degree-vs-height Lehmer scan on Lattes systems.

Reports pair certified lower bounds (witnesses from explicit admissible
tuples) with certified upper bounds (Hadamard envelopes); constants
fitted from the data are published as fits, never as derived constants.
"""

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice, product

from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

from .basis import BasisFamily, special_basis
from .dynsys import DynSystem
from .errors import DomainError, InternalCheckError, PreconditionError, ResourceLimit
from .green import dbn_witness, fekete_search, hadamard_envelope, julia_radius_log
from .heights import canonical_height, contributing_places
from .homopoly import HomoForm, PolyMap, ProjPoint
from .pffield import LogMag, MINUS_INFINITY, Place


# ---------------------------------------------------------------------------
# Elliptic curves y^2 = x^3 + ax + b over Q and their Lattes systems


@dataclass(frozen=True)
class EllipticCurve:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if 4 * self.a**3 + 27 * self.b**2 == 0:
            raise DomainError("singular curve: 4a^3 + 27b^2 = 0")

    def contains(self, pt) -> bool:
        if pt is None:
            return True
        x, y = pt
        return y * y == x**3 + self.a * x + self.b

    def neg(self, pt):
        if pt is None:
            return None
        x, y = pt
        return (x, -y)

    def add(self, p1, p2):
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        x1, y1 = p1
        x2, y2 = p2
        if x1 == x2:
            if y1 == -y2:
                return None
            lam = (3 * x1 * x1 + self.a) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        return (x3, lam * (x1 - x3) - y1)

    def mul(self, k: int, pt):
        if k < 0:
            return self.mul(-k, self.neg(pt))
        acc = None
        base = pt
        while k:
            if k & 1:
                acc = self.add(acc, base)
            k >>= 1
            if k:
                base = self.add(base, base)
        return acc


def duplication_map(a, b) -> PolyMap:
    """The degree-4 map on P^1 induced by doubling on y^2 = x^3+ax+b
    through the x-coordinate."""
    a, b = Fraction(a), Fraction(b)
    f0 = HomoForm(2, 4, {(4, 0): 1, (2, 2): -2 * a, (1, 3): -8 * b, (0, 4): a * a})
    f1 = HomoForm(2, 4, {(3, 1): 4, (1, 3): 4 * a, (0, 4): 4 * b})
    return PolyMap([f0, f1])


@dataclass
class LattesSystem:
    curve: EllipticCurve
    base_point: tuple
    system: DynSystem = field(init=False)

    def __post_init__(self):
        x0, y0 = self.base_point
        self.base_point = (Fraction(x0), Fraction(y0))
        if not self.curve.contains(self.base_point):
            raise DomainError("base point is not on the curve")
        self.system = DynSystem(duplication_map(self.curve.a, self.curve.b))
        dbl = self.curve.add(self.base_point, self.base_point)
        if dbl is not None:
            img = self.system.map(ProjPoint.exact([self.base_point[0], 1]))
            if img.lift[1] == 0 or img.lift[0] / img.lift[1] != dbl[0]:
                raise InternalCheckError("group law disagrees with the x-map")

    def x_of_multiple(self, k: int) -> ProjPoint:
        pt = self.curve.mul(k, self.base_point)
        if pt is None:
            raise PreconditionError(f"{k}·P is the identity: torsion base point")
        return ProjPoint.exact([pt[0], 1])

    def orbit(self, bound: int) -> list[ProjPoint]:
        """x(kP) for k = 1..bound; rejects torsion points."""
        pts = [self.x_of_multiple(k) for k in range(1, bound + 1)]
        pair = _first_repeat(pts)
        if pair is not None:
            raise PreconditionError(
                f"orbit points {pair[0] + 1} and {pair[1] + 1} coincide: torsion base point"
            )
        return pts


def _first_repeat(points) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, of projectively equal exact points
    in pairwise-scan order (least i, then least j), or None.  Linear
    time: points are grouped by `ProjPoint.key`."""
    first = {}
    pair = None
    for j, pt in enumerate(points):
        i = first.setdefault(pt.key(), j)
        if i != j and (pair is None or i < pair[0]):
            pair = (i, j)
    return pair


# ---------------------------------------------------------------------------
# Admissible exact tuples


# Grid points sample_julia_tuple tries before giving up.
MAX_GRID_TRIES = 5000


def _grid_lifts(nvars: int):
    for i in range(nvars):
        yield ProjPoint.exact([1 if j == i else 0 for j in range(nvars)])
    for size in count(1):
        for tup in product(range(size + 1), repeat=nvars - 1):
            if max(tup, default=0) == size:
                yield ProjPoint.exact(list(tup) + [1])


def sample_julia_tuple(system: DynSystem, basis: BasisFamily):
    """A deterministic tuple of c(n) exact lifts with a nonzero basis
    determinant, built greedily from a small integer grid; `dbn_witness`
    takes any lifts, so none is scaled into the filled Julia set.  Only
    for systems without a hypersurface (grid points need not lie on X
    otherwise)."""
    if system.hypersurface is not None:
        raise PreconditionError("exact tuple sampling needs X = P^N")
    lifts = islice(_grid_lifts(system.map.nvars), MAX_GRID_TRIES)
    chosen = [lift for _, lift in basis.spanning_prefix(system, lifts)]
    if len(chosen) == basis.cn:
        return chosen
    raise ResourceLimit(f"no admissible nonsingular tuple within {MAX_GRID_TRIES} grid points")


def roots_of_unity_tuple(count_pts: int) -> list[ProjPoint]:
    """Numeric lifts of the count-th roots of unity on P^1."""
    return [
        ProjPoint.of_numeric([cmath.exp(2j * math.pi * k / count_pts), 1.0])
        for k in range(count_pts)
    ]


# ---------------------------------------------------------------------------
# Adelic report (envelope vs witness, per place and degree)


def report_places(system: DynSystem) -> list[Place]:
    """The archimedean place plus every prime in the support of the
    resultant or of any coefficient."""
    probe = ProjPoint.exact([1] * system.map.nvars)
    return contributing_places(system, probe)


def _bound_rows(system: DynSystem, n_list, places, tol: float, arch_witness) -> list[dict]:
    """One row per (n, place), n outer: the Hadamard envelope for log d_H(n)
    from the Julia-radius bound, and the witness of `arch_witness(basis,
    place)` at the archimedean place or of a greedy grid tuple at a finite
    one, with the reason when there is none.  A witness above its
    envelope fails a hard check."""
    rows = []
    for n in n_list:
        basis = special_basis(system, n)
        for place in places:
            r_log = julia_radius_log(system, place)
            env = hadamard_envelope(system, n, r_log, place) / (n * basis.cn)
            note = None
            try:
                w = arch_witness(basis, place) if place.is_archimedean else dbn_witness(
                    system, basis, sample_julia_tuple(system, basis), place, tol)
            except (PreconditionError, ResourceLimit) as exc:
                w, note = None, str(exc)
            if w is MINUS_INFINITY:
                w, note = None, "the tuple's evaluation determinant vanishes"
            if w is not None:
                w = w.total()
                if w > env + 1e-6:
                    raise InternalCheckError(
                        f"witness {w} exceeds envelope {env} at {place} (n={n})")
            rows.append({"n": n, "c": basis.cn, "place": repr(place), "envelope_logd": env,
                         "witness_logd": w, **({"witness_note": note} if note else {})})
    return rows


def adelic_report(system: DynSystem, n_list, budget: int = 4000, seed: int = 7,
                  tol: float = 1e-9) -> dict:
    """For each n: the special basis, per-place envelopes from the
    Julia-radius bound, witnesses from explicit tuples (Fekete search at
    the archimedean place, greedy grid tuples at finite places), and
    the fitted constant max_n (sum_v envelope) * n / log n; returned as
    the JSON-ready report the CLI prints."""
    places = report_places(system)
    rows = _bound_rows(system, n_list, places, tol,
                       lambda basis, _place: fekete_search(system, basis, budget, seed).witness)
    entries = []
    for start in range(0, len(rows), len(places)):
        group = rows[start:start + len(places)]
        n = group[0]["n"]
        envs = {r["place"]: r["envelope_logd"] for r in group}
        wits = {r["place"]: r["witness_logd"] for r in group}
        notes = {r["place"]: r["witness_note"] for r in group if "witness_note" in r}
        env_sum = math.fsum(envs.values())
        entries.append({
            "n": n, "c": group[0]["c"], "envelopes": envs, "witnesses": wits,
            "envelope_sum": env_sum, "fitted_c": env_sum * n / math.log(n),
            "witness_sum": None if None in wits.values() else math.fsum(wits.values()),
            **({"witness_notes": notes} if notes else {})})
    return {
        "schema": "greenfield-report/1",
        "kind": "adelic-report",
        "places": [repr(p) for p in places],
        "c_fit": max((e["fitted_c"] for e in entries), default=0.0),
        "entries": entries,
    }


# ---------------------------------------------------------------------------
# Transfinite-diameter trend at a place


def transfin_trend(system: DynSystem, n_list, places=None, tol: float = 1e-9):
    """Per (n, place): envelope and witness for log d_H(n), the rows of
    `adelic_report` with the roots of unity as the tuple at infinity."""
    if places is None:
        places = report_places(system)

    def roots_witness(basis, place):
        if not system.is_p1:
            raise PreconditionError("the roots-of-unity tuple needs X = P^1")
        return dbn_witness(system, basis, roots_of_unity_tuple(basis.cn), place, tol)

    return _bound_rows(system, n_list, places, tol, roots_witness)


# ---------------------------------------------------------------------------
# Greedy multiples search (translation orbits)


@dataclass
class MultiplesResult:
    indices: list[int]  # 1-based positions within the orbit
    determinant: Fraction


def multiples_search(system: DynSystem, orbit: list[ProjPoint], n: int) -> MultiplesResult:
    """Scan the orbit in order, keeping index k iff the special basis's row
    at x(kP) is independent of the rows kept before it
    (`BasisFamily.spanning_prefix`); returns the chosen c(n) indices and
    the determinant of the selected square matrix, whose being nonzero
    certifies the selection.  The orbit must be free of repeats, so on
    X = P^1 the indices are 1..c(n) and no basis row is evaluated."""
    basis = special_basis(system, n)
    c = basis.cn
    pair = _first_repeat(orbit)
    if pair is not None:
        raise PreconditionError(
            f"orbit entries {pair[0] + 1} and {pair[1] + 1} are projectively equal"
        )
    picked = list(basis.spanning_prefix(system, orbit))
    indices = [k + 1 for k, _ in picked]
    if len(indices) == c:
        det = basis.det(system, [lift for _, lift in picked])
        if det == 0:
            raise InternalCheckError("selected rows are dependent despite rank check")
        return MultiplesResult(indices, det)
    raise PreconditionError(
        f"rank {len(indices)} of {c} within the orbit bound {len(orbit)}: "
        "the orbit violates the search preconditions (torsion point?)"
    )


# ---------------------------------------------------------------------------
# Lehmer scan on a Lattes system


MAX_LEHMER_DEPTH = 3


def _preimage_factors(lattes: LattesSystem, depth: int):
    """Irreducible factors over Q of the depth-k preimage equation
    f^k(z) = x(P), as (coefficients, multiplicity) pairs. Each factor is
    a primitive integer polynomial with a positive leading coefficient,
    its coefficients listed from the highest degree down."""
    x0 = lattes.base_point[0]
    p0, q0 = x0.numerator, x0.denominator
    fk = lattes.system.iterate(depth)
    form = fk.forms[0].scale(q0) - fk.forms[1].scale(p0)
    deg = form.degree
    poly = [Fraction(0)] * (deg + 1)
    for (i, _j), cval in form.coeffs.items():
        poly[deg - i] = cval
    if poly[0] == 0:
        raise InternalCheckError("preimage polynomial dropped degree")
    den = math.lcm(*(c.denominator for c in poly))
    ints = [ZZ(c.numerator * (den // c.denominator)) for c in poly]
    _const, factors = dup_factor_list(ints, ZZ)
    return factors


def _poly_str(coeffs) -> str:
    """A primitive integer polynomial in z, coefficients from the highest
    degree down, printed as sympy prints it: "3*z**2 - z + 7"."""
    if coeffs[0] <= 0 or math.gcd(*coeffs) != 1:
        raise InternalCheckError(f"not primitive with a positive leading coefficient: {coeffs}")
    terms = []
    for e, c in zip(range(len(coeffs) - 1, -1, -1), coeffs):
        if c == 0:
            continue
        mono = "" if e == 0 else "z" if e == 1 else f"z**{e}"
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else mono or str(abs(c))
        terms.append(("- " if c < 0 else "+ ") + body)
    return " ".join(terms)[2:]  # the leading term is positive: drop its "+ "


def lehmer_scan(lattes: LattesSystem, depth_list, tol: float = 1e-9) -> dict:
    """Height-vs-degree table over iterated preimages of x(P), returned
    as the JSON-ready report the CLI prints: each depth-k preimage class
    of degree D (D conjugate points, its count) contributes height
    h0/4^k (exact functional equation) and the shape value
    h * D^5 * log(max(D,2))^2.  The minimum shape is reported as an
    empirical constant; nothing is proved, rows can only falsify."""
    for depth in depth_list:
        if depth < 0 or depth > MAX_LEHMER_DEPTH:
            raise DomainError(f"depth {depth} outside [0, {MAX_LEHMER_DEPTH}]")
    h0 = sum(canonical_height(lattes.system, ProjPoint.exact([lattes.base_point[0], 1]),
                              tol).values(), LogMag.zero())
    if h0.total() - h0.arch_err <= tol:
        raise PreconditionError(
            f"base point height {h0.total()} not certifiably above tol={tol}: torsion?"
        )

    rows = []
    for depth in depth_list:
        scale = 4**depth
        h = h0.total() / scale
        factors = ([("z - x(P)", 1, 1)] if depth == 0 else
                   [(_poly_str(poly), len(poly) - 1, mult)
                    for poly, mult in _preimage_factors(lattes, depth)])
        for factor, D, mult in factors:
            rows.append({
                "depth": depth, "degree": D, "count": D, "multiplicity": mult,
                "height": h, "height_err": h0.arch_err / scale,
                "shape": h * D**5 * math.log(max(D, 2)) ** 2, "factor": factor})
    return {
        "schema": "greenfield-report/1",
        "kind": "lehmer-scan",
        "base_height": h0.total(),
        "base_height_err": h0.arch_err,
        "min_shape": min((r["shape"] for r in rows), default=math.inf),
        "rows": rows,
    }
