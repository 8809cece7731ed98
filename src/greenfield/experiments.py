"""Experiment drivers: the adelic envelope/witness report, the
transfinite-diameter trend at a fixed place, the greedy multiples
search along a translation orbit, and the degree-vs-height Lehmer scan
on Lattes systems.

Reports pair certified lower bounds (witnesses from explicit admissible
tuples) with certified upper bounds (Hadamard envelopes); constants
fitted from the data are published as fits, never as derived constants.
"""

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, product

from sympy import Poly, Symbol, factor_list

from .basis import BasisFamily, special_basis
from .dynsys import DynSystem, escape_rate
from .errors import DomainError, InternalCheckError, PreconditionError
from .green import dbn_witness, fekete_search, hadamard_envelope, julia_radius_log
from .heights import HeightValue, canonical_height, contributing_places
from .homopoly import HomoForm, PolyMap, ProjPoint
from .linalg import IncrementalRank, det_fraction
from .pffield import MINUS_INFINITY, Place


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
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i].proportional_to(pts[j]):
                    raise PreconditionError(
                        f"orbit points {i + 1} and {j + 1} coincide: torsion base point"
                    )
        return pts


# ---------------------------------------------------------------------------
# Admissible exact tuples


def scale_into_julia(system: DynSystem, place: Place, lift: ProjPoint,
                     tol: float = 1e-9) -> ProjPoint:
    """Rescale an exact lift by a rational power so its escape rate is
    certifiably <= 0 at the place."""
    rate = escape_rate(system, place, lift, tol)
    if rate.is_exact:
        q = rate.exact.padic.get(place.p, Fraction(0))
        if q <= 0:
            return lift
        # |p^m|_p = p^-m: multiplying by p^m lowers the rate by m log p
        return lift.scaled(Fraction(place.p) ** math.ceil(q))
    h = rate.value + rate.error
    if h <= 0:
        return lift
    if place.is_archimedean:
        m = math.ceil(h / math.log(2) + 1e-12) + 1
        return lift.scaled(Fraction(1, 2**m))
    m = math.ceil(h / math.log(place.p) + 1e-12) + 1
    return lift.scaled(Fraction(place.p) ** m)


# Grid points sample_julia_tuple tries before giving up.
MAX_GRID_TRIES = 5000


def _grid_lifts(nvars: int):
    for i in range(nvars):
        yield ProjPoint.exact([1 if j == i else 0 for j in range(nvars)])
    for size in count(1):
        for tup in product(range(size + 1), repeat=nvars - 1):
            if max(tup, default=0) == size:
                yield ProjPoint.exact(list(tup) + [1])


def sample_julia_tuple(system: DynSystem, basis: BasisFamily, place: Place,
                       tol: float = 1e-9):
    """A deterministic tuple of c(n) exact lifts inside the filled Julia
    set at the place with a nonzero basis determinant, built greedily
    from a small integer grid.  Only for systems without a hypersurface
    (grid points need not lie on X otherwise)."""
    if system.hypersurface is not None:
        raise PreconditionError("exact tuple sampling needs X = P^N")
    c = len(basis.elements)
    tracker = IncrementalRank(c)
    chosen = []
    tried = 0
    for cand in _grid_lifts(system.map.nvars):
        if tried >= MAX_GRID_TRIES:
            break
        tried += 1
        lift = scale_into_julia(system, place, cand, tol)
        orbit = {}
        row = [el.evaluate_at(system, lift, orbit) for el in basis.elements]
        if tracker.add(row) is None:
            continue
        chosen.append(lift)
        if len(chosen) == c:
            return chosen
    raise InternalCheckError(f"no admissible nonsingular tuple within {MAX_GRID_TRIES} grid points")


def roots_of_unity_tuple(count_pts: int) -> list[ProjPoint]:
    """Numeric lifts of the count-th roots of unity on P^1."""
    return [
        ProjPoint.of_numeric([cmath.exp(2j * math.pi * k / count_pts), 1.0])
        for k in range(count_pts)
    ]


# ---------------------------------------------------------------------------
# Adelic report (envelope vs witness, per place and degree)


@dataclass
class AdelicEntry:
    n: int
    c: int
    envelopes: dict  # place repr -> envelope for log d (upper bound)
    witnesses: dict  # place repr -> witness for log d (lower bound) or None
    envelope_sum: float = 0.0
    witness_sum: float | None = None
    fitted_c: float = 0.0


@dataclass
class AdelicReport:
    places: list[str]
    entries: list[AdelicEntry]
    c_fit: float

    def to_dict(self):
        return {
            "schema": "greenfield-report/1",
            "kind": "adelic-report",
            "places": self.places,
            "c_fit": self.c_fit,
            "entries": [
                {
                    "n": e.n,
                    "c": e.c,
                    "envelopes": e.envelopes,
                    "witnesses": e.witnesses,
                    "envelope_sum": e.envelope_sum,
                    "witness_sum": e.witness_sum,
                    "fitted_c": e.fitted_c,
                }
                for e in self.entries
            ],
        }


def report_places(system: DynSystem) -> list[Place]:
    """The archimedean place plus every prime in the support of the
    resultant or of any coefficient."""
    probe = ProjPoint.exact([1] * system.map.nvars)
    return contributing_places(system, probe)


def adelic_report(system: DynSystem, n_list, budget: int = 4000, seed: int = 7,
                  tol: float = 1e-9) -> AdelicReport:
    """For each n: the special basis, per-place envelopes from the
    Julia-radius bound, witnesses from explicit tuples (Fekete search at
    the archimedean place, greedy grid tuples at finite places), and
    the fitted constant max_n (sum_v envelope) * n / log n."""
    places = report_places(system)
    entries = []
    for n in n_list:
        basis = special_basis(system, n)
        c = basis.cn
        envs = {}
        wits = {}
        for place in places:
            r_log = julia_radius_log(system, place)
            envs[repr(place)] = hadamard_envelope(system, n, r_log, place) / (n * c)
            try:
                if place.is_archimedean:
                    res = fekete_search(system, basis, n, budget, seed)
                    wit = res.witness.total()
                else:
                    lifts = sample_julia_tuple(system, basis, place, tol)
                    w = dbn_witness(system, basis, lifts, place, tol)
                    wit = None if w is MINUS_INFINITY else w.total()
            except (PreconditionError, InternalCheckError):
                wit = None
            wits[repr(place)] = wit
            if wit is not None and wit > envs[repr(place)] + 1e-6:
                raise InternalCheckError(
                    f"witness {wit} exceeds envelope {envs[repr(place)]} at {place} (n={n})"
                )
        env_sum = math.fsum(envs.values())
        wit_vals = [w for w in wits.values() if w is not None]
        wit_sum = math.fsum(wit_vals) if len(wit_vals) == len(places) else None
        fitted = env_sum * n / math.log(n) if n >= 2 else 0.0
        entries.append(AdelicEntry(n, c, envs, wits, env_sum, wit_sum, fitted))
    c_fit = max((e.fitted_c for e in entries), default=0.0)
    return AdelicReport([repr(p) for p in places], entries, c_fit)


# ---------------------------------------------------------------------------
# Transfinite-diameter trend at a place


def transfin_trend(system: DynSystem, n_list, places=None, tol: float = 1e-9):
    """Per (place, n): witness and envelope for log d_H(n).  Finite
    places where no rational rescaling gives a unit resultant are
    skipped with a reason."""
    if places is None:
        places = report_places(system)
    rows = []
    for n in n_list:
        basis = special_basis(system, n)
        c = basis.cn
        for place in places:
            row = {"n": n, "c": c, "place": repr(place)}
            if not place.is_archimedean and system.reduction(place).needs_extension:
                row["skipped"] = "no rational rescaling attains |Res|_v = 1"
                rows.append(row)
                continue
            r_log = julia_radius_log(system, place)
            row["envelope_logd"] = hadamard_envelope(system, n, r_log, place) / (n * c)
            try:
                if place.is_archimedean:
                    lifts = roots_of_unity_tuple(c)
                else:
                    lifts = sample_julia_tuple(system, basis, place, tol)
                w = dbn_witness(system, basis, lifts, place, tol)
                row["witness_logd"] = None if w is MINUS_INFINITY else w.total()
            except (PreconditionError, InternalCheckError) as exc:
                row["witness_logd"] = None
                row["witness_note"] = str(exc)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Greedy multiples search (translation orbits)


@dataclass
class MultiplesResult:
    indices: list[int]  # 1-based positions within the orbit
    determinant: Fraction
    basis: BasisFamily


def multiples_search(system: DynSystem, orbit: list[ProjPoint], n: int,
                     basis: BasisFamily | None = None) -> MultiplesResult:
    """Scan the orbit in order, keeping index k iff the evaluation row of
    x(kP) enlarges the exact rank; returns the chosen c(n) indices and
    the (nonzero) determinant of the selected square matrix."""
    if basis is None:
        basis = special_basis(system, n)
    c = basis.cn
    for i in range(len(orbit)):
        for j in range(i + 1, len(orbit)):
            if orbit[i].proportional_to(orbit[j]):
                raise PreconditionError(
                    f"orbit entries {i + 1} and {j + 1} are projectively equal"
                )
    tracker = IncrementalRank(c)
    rows = []
    indices = []
    for k, lift in enumerate(orbit, start=1):
        orbit_cache = {}
        row = [el.evaluate_at(system, lift, orbit_cache) for el in basis.elements]
        if tracker.add(row) is None:
            continue
        rows.append(row)
        indices.append(k)
        if len(indices) == c:
            det = det_fraction(rows)
            if det == 0:
                raise InternalCheckError("selected rows are dependent despite rank check")
            return MultiplesResult(indices, det, basis)
    raise PreconditionError(
        f"rank {len(indices)} of {c} within the orbit bound {len(orbit)}: "
        "the orbit violates the search preconditions (torsion point?)"
    )


# ---------------------------------------------------------------------------
# Lehmer scan on a Lattes system


MAX_LEHMER_DEPTH = 3


@dataclass
class LehmerRow:
    depth: int
    degree: int
    count: int  # number of conjugate preimages in the class
    multiplicity: int
    height: float
    height_err: float
    shape: float  # height * D^5 * log(max(D,2))^2
    factor: str


@dataclass
class LehmerTable:
    base_height: HeightValue
    rows: list[LehmerRow]
    min_shape: float

    def to_dict(self):
        return {
            "schema": "greenfield-report/1",
            "kind": "lehmer-scan",
            "base_height": self.base_height.value,
            "base_height_err": self.base_height.error,
            "min_shape": self.min_shape,
            "rows": [
                {
                    "depth": r.depth,
                    "degree": r.degree,
                    "count": r.count,
                    "multiplicity": r.multiplicity,
                    "height": r.height,
                    "height_err": r.height_err,
                    "shape": r.shape,
                    "factor": r.factor,
                }
                for r in self.rows
            ],
        }


def _preimage_factors(lattes: LattesSystem, depth: int):
    """Irreducible factors over Q of the depth-k preimage equation
    f^k(z) = x(P)."""
    x0 = lattes.base_point[0]
    p0, q0 = x0.numerator, x0.denominator
    fk = lattes.system.iterate(depth)
    form = fk.forms[0].scale(q0) - fk.forms[1].scale(p0)
    z = Symbol("z")
    coeffs = {}
    deg = form.degree
    for (i, _j), cval in form.coeffs.items():
        coeffs[z**i] = cval
    poly = Poly(sum(c * mono for mono, c in coeffs.items()), z, domain="QQ")
    if poly.degree() != deg:
        raise InternalCheckError("preimage polynomial dropped degree")
    _const, factors = factor_list(poly)
    return [(Poly(f, z, domain="QQ"), mult) for f, mult in factors]


def lehmer_scan(lattes: LattesSystem, depth_list, tol: float = 1e-9) -> LehmerTable:
    """Height-vs-degree table over iterated preimages of x(P): each
    depth-k preimage class of degree D contributes height h0/4^k (exact
    functional equation) and the shape value h * D^5 * log(max(D,2))^2.
    The minimum shape is reported as an empirical constant; nothing is
    proved, rows can only falsify."""
    sys0 = lattes.system
    h0 = canonical_height(sys0, ProjPoint.exact([lattes.base_point[0], 1]), tol)
    if h0.value - h0.error <= tol:
        raise PreconditionError(
            f"base point height {h0.value} not certifiably above tol={tol}: torsion?"
        )

    rows = []
    for depth in depth_list:
        if depth < 0 or depth > MAX_LEHMER_DEPTH:
            raise DomainError(f"depth {depth} outside [0, {MAX_LEHMER_DEPTH}]")
        scale = 4**depth
        h = h0.value / scale
        herr = h0.error / scale
        if depth == 0:
            shape = h * 1**5 * math.log(2) ** 2
            rows.append(LehmerRow(0, 1, 1, 1, h, herr, shape, "z - x(P)"))
            continue
        for poly, mult in _preimage_factors(lattes, depth):
            D = poly.degree()
            shape = h * D**5 * math.log(max(D, 2)) ** 2
            rows.append(LehmerRow(depth, D, D, mult, h, herr, shape, str(poly.as_expr())))
    min_shape = min((r.shape for r in rows), default=math.inf)
    return LehmerTable(h0, rows, min_shape)
