"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime.  Expected values come from closed forms, exact
enumeration, or independent brute-force oracles computed in place;
tolerances are the stated ones, pinned here.
"""

import cmath
import math
import random
import time
from fractions import Fraction

from sympy import factorint, prime

from greenfield.basis import monomial_basis, section_dim, special_basis
from greenfield.dynsys import DynSystem, escape_rate
from greenfield.errors import PreconditionError
from greenfield.experiments import (EllipticCurve, LattesSystem, duplication_map,
                                    lehmer_scan, multiples_search,
                                    sample_julia_tuple, transfin_trend)
from greenfield.green import (dbn_witness, eval_det_log, fekete_search,
                              hadamard_envelope, julia_radius_log)
from greenfield.heights import canonical_height
from greenfield.homopoly import (HomoForm, PolyMap, ProjPoint, evaluate,
                                 monomials_of_degree, parse_map)
from greenfield.linalg import det_fraction
from greenfield.macaulay import macaulay_resultant
from greenfield.pffield import (MINUS_INFINITY, Place, abs_log, product_formula_sum,
                                support)

ARCH = Place.archimedean()


def _finish(num: int, label: str, t0: float, problems: list):
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status} ({time.time() - t0:5.1f}s)  {label}")
    assert not problems, problems


def test_criterion_01_product_formula_ledger():
    t0 = time.time()
    problems = []
    rng = random.Random(101)
    pool = [2, 3, 5, 7, 11, 13] + [prime(rng.randint(10, 4000)) for _ in range(40)]

    def factored_int(limit):
        n, fac = 1, {}
        while True:
            p = rng.choice(pool)
            e = rng.randint(1, 4)
            if n * p**e > limit:
                return n, fac
            n *= p**e
            fac[p] = fac.get(p, 0) + e

    for i in range(1000):
        num, fnum = factored_int(10**30)
        den, fden = factored_int(10**30)
        x = Fraction(num, den) * rng.choice([1, -1])
        s = product_formula_sum(x)
        expect = {p: -Fraction(e) for p, e in fnum.items()}
        for p, e in fden.items():
            expect[p] = expect.get(p, Fraction(0)) + e
        expect = {p: q for p, q in expect.items() if q}
        if s.padic != expect:
            problems.append(f"padic ledger wrong for sample {i}")
            break
        if abs(s.total()) > 1e-9:
            problems.append(f"|adelic sum| = {abs(s.total())} for sample {i}")
            break

    pw = DynSystem(parse_map(["x0^2", "x1^2"]))
    done = 0
    while done < 100:
        n = rng.choice([1, 2])
        basis = monomial_basis(1, n)
        lifts = []
        while len(lifts) < n + 1:
            cand = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            if any(cand):
                lifts.append(ProjPoint.exact(cand))
        rows = [[evaluate(el.expanded, pt) for el in basis.elements] for pt in lifts]
        det = det_fraction(rows)
        if det == 0:
            continue
        total = eval_det_log(pw, basis, lifts, ARCH)
        for place in sorted(support(det)):
            if not place.is_archimedean:
                total = total + eval_det_log(pw, basis, lifts, place)
        expect = {p: -Fraction(e) for p, e in factorint(det.numerator).items() if p > 1}
        for p, e in factorint(det.denominator).items():
            expect[p] = expect.get(p, Fraction(0)) + e
        expect = {p: q for p, q in expect.items() if q}
        if total.padic != expect:
            problems.append(f"det ledger wrong (tuple {done})")
            break
        if abs(total.total()) > 1e-9:
            problems.append(f"det adelic residual {abs(total.total())} (tuple {done})")
            break
        done += 1

    elapsed = time.time() - t0
    if elapsed > 10.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _finish(1, "product formula ledger (1000 rationals + 100 determinants)", t0, problems)


def test_criterion_02_macaulay_resultants():
    t0 = time.time()
    problems = []
    if macaulay_resultant(parse_map(["x0^2", "x1^2"])) != 1:
        problems.append("Res(x^2, y^2) != 1")
    if macaulay_resultant(parse_map(["2*x0^2", "x1^2"])) != 4:
        problems.append("Res(2x^2, y^2) != 4")
    if macaulay_resultant(parse_map(["x0^2", "x1^2", "x2^2"])) != 1:
        problems.append("Res(x^2, y^2, z^2) != 1")

    rng = random.Random(102)
    cases = [(2, 1)] * 10 + [(3, 1)] * 10 + [(2, 2)] * 10 + [(3, 2)] * 10 \
        + [(2, 3)] * 6 + [(3, 3)] * 4
    rng.shuffle(cases)

    def dense_map(nvars, d):
        forms = []
        for _ in range(nvars):
            coeffs = {}
            for expo in monomials_of_degree(nvars, d):
                c = rng.randint(-9, 9)
                coeffs[expo] = Fraction(c if c else 1)
            forms.append(HomoForm(nvars, d, coeffs))
        return PolyMap(forms)

    for i, (d, N) in enumerate(cases):
        pm = dense_map(N + 1, d)
        res = macaulay_resultant(pm)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        scaled = macaulay_resultant(pm.scale(lam))
        if scaled != lam ** ((N + 1) * d**N) * res:
            problems.append(f"scaling law failed on case {i} (d={d}, N={N})")
            break
    elapsed = time.time() - t0
    if elapsed > 60.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _finish(2, "Macaulay resultants (anchors + scaling law on 50 random cases)", t0, problems)


def test_criterion_03_escape_rates():
    t0 = time.time()
    problems = []
    pw = DynSystem(parse_map(["x0^2", "x1^2"]))
    cheb = DynSystem(parse_map(["x0^2 - 2*x1^2", "x1^2"]))
    half = DynSystem(parse_map(["x0^2 + 1/2*x1^2", "x1^2"]))
    rng = random.Random(103)

    def rand_lift():
        while True:
            coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            if any(coords):
                return ProjPoint.exact(coords)

    # power map closed form: exact ledgers at good places, 1e-9 at infinity
    for _ in range(30):
        pt = rand_lift()
        for p in (2, 3, 5):
            place = Place.prime(p)
            rate = escape_rate(pw, place, pt, 1e-9)
            v = min(place.valuation(x) for x in pt.lift if x != 0)
            if not rate.is_exact or rate.padic != ({p: Fraction(-v)} if v else {}):
                problems.append(f"power-map exact rate wrong at p={p}")
        rate = escape_rate(pw, ARCH, pt, 1e-10)
        big = max(abs(x) for x in pt.lift)
        if abs(rate.total() - (math.log(big.numerator) - math.log(big.denominator))) > 1e-9:
            problems.append("power-map archimedean rate off by more than 1e-9")

    rate = escape_rate(cheb, ARCH, ProjPoint.exact([3, 1]), 1e-10)
    target = math.log((3 + math.sqrt(5)) / 2)  # w + 1/w = 3 oracle
    if abs(rate.total() - target) > 1e-9:
        problems.append(f"Chebyshev rate {rate.total()} vs {target}")
    if abs(target - 0.9624236501) > 1e-9:
        problems.append("oracle drifted from the quoted digits")

    tol = 4e-10
    for i in range(100):
        system = (pw, cheb, half)[i % 3]
        d = system.degree
        place = (ARCH, Place.prime(2), Place.prime(5), Place.prime(3))[i % 4]
        pt = rand_lift()
        r1 = escape_rate(system, place, pt, tol)
        r2 = escape_rate(system, place, system.map(pt), tol)
        if abs(r2.total() - d * r1.total()) > 2e-9:
            problems.append(f"functional equation off at sample {i}: "
                            f"{abs(r2.total() - d * r1.total())}")
            break
    _finish(3, "escape rates (closed forms + functional equation on 100 lifts)", t0, problems)


def test_criterion_04_basis_machinery():
    t0 = time.time()
    problems = []

    def power_system(N, d):
        return DynSystem(parse_map([f"x{i}^{d}" for i in range(N + 1)]))

    from greenfield.basis import floor_G
    for d in (2, 3):
        for N in (1, 2, 3):
            system = power_system(N, d)
            n0 = d * (N + 1)  # recorded: no violations at or beyond the threshold
            for n in range(d * (N + 1), 201):
                gap = n - floor_G(system, n)
                if not (Fraction(N * n, N + 1) <= gap <= Fraction((2 * N + 1) * n, 2 * N + 2)):
                    if n >= n0:
                        problems.append(f"sandwich violated at d={d} N={N} n={n}")

    for d in (2, 3):
        sys1 = power_system(1, d)
        for n in range(d * 2, 41):
            if len(special_basis(sys1, n)) != n + 1:
                problems.append(f"rank deficit at N=1 d={d} n={n}")
        sys2 = power_system(2, d)
        for n in range(d * 3, 13):
            if len(special_basis(sys2, n)) != math.comb(n + 2, 2):
                problems.append(f"rank deficit at N=2 d={d} n={n}")
    elapsed = time.time() - t0
    if elapsed > 300.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 5min")
    _finish(4, "basis machinery (keyratio sandwich to n=200; spanning ranks)", t0, problems)


def test_criterion_05_hadamard_envelope():
    t0 = time.time()
    problems = []
    half = DynSystem(parse_map(["x0^2 + 1/2*x1^2", "x1^2"]))
    rng = random.Random(105)
    places = [Place.prime(2), ARCH]
    scaled_env_sums = []
    fitted = []
    from greenfield.basis import t2_floor
    for n in (4, 8, 16, 32):
        basis = special_basis(half, n)
        c = basis.cn
        # the envelope's factor-count exponent covers these elements
        if basis.relaxed_j or max(len(el.factors) for el in basis.elements) > t2_floor(half, n):
            problems.append(f"basis at n={n} exceeds the envelope's factor window")
        env_sum = 0.0
        for place in places:
            r_log = julia_radius_log(half, place)
            env = hadamard_envelope(half, n, r_log, place)
            env_sum += env / (n * c)
            # the witness of a sampled and of random rational tuples: each
            # is the tuple rescaled onto the boundary of the filled Julia set
            tuples = [sample_julia_tuple(half, basis)]
            for _ in range(2):
                xs = set()
                while len(xs) < c:  # distinct points: a repeat makes det vanish
                    xs.add(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                tuples.append([ProjPoint.exact([x, 1]) for x in sorted(xs)])
            for lifts in tuples:
                wit = dbn_witness(half, basis, lifts, place)
                if wit is not MINUS_INFINITY and wit.total() > env / (n * c) + 1e-6:
                    problems.append(f"witness {wit.total()} exceeds envelope "
                                    f"{env / (n * c)} at n={n}, {place}")
        scaled_env_sums.append(env_sum)
        fitted.append(env_sum * n / math.log(n))
    if not all(scaled_env_sums[i + 1] < scaled_env_sums[i]
               for i in range(len(scaled_env_sums) - 1)):
        problems.append(f"scaled envelope not decreasing: {scaled_env_sums}")
    if max(fitted) / min(fitted) > 1.2:
        problems.append(f"fitted constant unstable beyond 20%: {fitted}")
    c_fit = max(fitted)
    for n, s in zip((4, 8, 16, 32), scaled_env_sums):
        if s > c_fit * math.log(n) / n + 1e-12:
            problems.append(f"envelope sum at n={n} above C_fit log n / n")
    _finish(5, "Hadamard envelope (certified on sampled tuples; C_fit stable)",
            t0, problems)


def test_criterion_06_transfinite_trend():
    t0 = time.time()
    problems = []
    pw = DynSystem(parse_map(["x0^2", "x1^2"]))
    # brute force at n = 2: |Vandermonde| on the cube roots of unity
    w = cmath.exp(2j * math.pi / 3)
    m = [[w ** (i * j) for j in range(3)] for i in range(3)]
    # cofactor expansion along the first row: the cofactor of column j is
    # the minor on columns j + 1, j + 2 (mod 3), with sign +1
    brute = abs(sum(m[0][j] * (m[1][j - 2] * m[2][j - 1] - m[1][j - 1] * m[2][j - 2])
                    for j in range(3)))
    if abs(brute - 3**1.5) > 1e-12:
        problems.append(f"|V| = {brute} differs from 3^(3/2)")
    rows = transfin_trend(pw, [2, 4, 8, 16], places=[ARCH, Place.prime(7)])
    for row in rows:
        n = row["n"]
        if row["place"] == "p=7":
            if row["envelope_logd"] != 0.0:
                problems.append(f"good-place envelope not exactly 0 at n={n}")
        else:
            wit = row["witness_logd"]
            bound = math.log(n + 1) / (2 * n)
            if wit is None or abs(wit) > bound + 1e-9:
                problems.append(f"roots-of-unity witness {wit} above {bound} at n={n}")
    _finish(6, "transfinite-diameter trend (exact zero envelopes; Vandermonde witnesses)",
            t0, problems)


def test_criterion_07_fekete_search():
    t0 = time.time()
    problems = []
    pw = DynSystem(parse_map(["x0^2", "x1^2"]))
    for n, tol in ((2, 1e-6), (4, 1e-6), (8, 1e-6), (20, 1e-3)):
        basis = monomial_basis(1, n)
        res = fekete_search(pw, basis, 20000, seed=7)
        target = math.log(n + 1) / (2 * n)
        if abs(res.witness.total() - target) > tol:
            problems.append(f"witness at n={n}: {res.witness.total()} vs {target}")
        if res.evaluations > 20000:
            problems.append(f"budget overrun at n={n}")
    again = fekete_search(pw, monomial_basis(1, 4), 20000, seed=7)
    once = fekete_search(pw, monomial_basis(1, 4), 20000, seed=7)
    if again.angles != once.angles or again.log_det != once.log_det:
        problems.append("search is not deterministic for a fixed seed")
    elapsed = time.time() - t0
    if elapsed > 60.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _finish(7, "Fekete search (roots-of-unity witnesses; deterministic)", t0, problems)


def test_criterion_08_canonical_heights():
    t0 = time.time()
    problems = []
    pw = DynSystem(parse_map(["x0^2", "x1^2"]))
    cheb = DynSystem(parse_map(["x0^2 - 2*x1^2", "x1^2"]))
    from greenfield.pffield import LogMag
    zero = LogMag.zero()
    h = sum(canonical_height(pw, ProjPoint.exact([2, 1]), 1e-13).values(), zero).total()
    if abs(h - math.log(2)) > 1e-12:
        problems.append(f"h([2:1]) = {h} vs log 2")
    for system, xs in ((pw, (0, 1, -1)), (cheb, (0, 1, -1, 2, -2))):
        for x in xs:
            hv = sum(canonical_height(system, ProjPoint.exact([x, 1]), 1e-10).values(),
                     zero).total()
            if abs(hv) > 1e-9:
                problems.append(f"preperiodic x={x}: h = {hv}")
    # lift-change invariance: exact on the p-adic ledgers, float-bounded at infinity
    pt = ProjPoint.exact([6, 1])
    lam = Fraction(20, 3)
    p1 = canonical_height(pw, pt, 1e-11)
    p2 = canonical_height(pw, pt.scaled(lam), 1e-11)
    for place in set(p1) | set(p2):
        if place.is_archimedean:
            continue
        r1, r2 = p1.get(place), p2.get(place)
        a = r1 if r1 is not None else zero  # absent entry means exactly 0
        b = r2 if r2 is not None else zero
        if not (a.is_exact and b.is_exact):
            problems.append(f"inexact entry at good place {place}")
        elif (b - a).padic != abs_log(place, lam).padic:
            problems.append(f"profile shift at {place} not exactly log|c|_v")
    moved = abs(sum(p2.values(), zero).total() - sum(p1.values(), zero).total())
    if moved > 1e-9:
        problems.append(f"total height moved by {moved}")
    _finish(8, "canonical heights (log 2 anchor; preperiodic zeros; lift invariance)",
            t0, problems)


def test_criterion_09_multiples_search():
    t0 = time.time()
    problems = []
    lattes = LattesSystem(EllipticCurve(Fraction(0), Fraction(-2)),
                          (Fraction(3), Fraction(5)))
    for n in range(1, 11):
        cn = section_dim(lattes.system, n)
        bound = 2 * n + cn
        orbit = lattes.orbit(bound)
        res = multiples_search(lattes.system, orbit, n)
        if len(res.indices) != cn or res.indices[-1] > bound:
            problems.append(f"selection out of bound at n={n}")
        if res.determinant == 0:
            problems.append(f"zero determinant at n={n}")
    try:
        torsion = LattesSystem(EllipticCurve(Fraction(0), Fraction(1)),
                               (Fraction(2), Fraction(3)))
        torsion.orbit(7)
        problems.append("torsion orbit was not rejected")
    except PreconditionError:
        pass
    # group-law oracle on 50 random curve points
    rng = random.Random(109)
    checked = 0
    while checked < 50:
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        y0 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = y0 * y0 - x0**3 - a * x0
        if 4 * a**3 + 27 * b**2 == 0:
            continue
        E = EllipticCurve(a, b)
        dbl = E.add((x0, y0), (x0, y0))
        if dbl is None:
            continue
        img = duplication_map(a, b)(ProjPoint.exact([x0, 1]))
        if img.lift[1] == 0 or img.lift[0] / img.lift[1] != dbl[0]:
            problems.append(f"group law mismatch at sample {checked}")
            break
        checked += 1
    _finish(9, "orbit multiples search (bound 3n+1 for n<=10; torsion rejected; x(2P) oracle)",
            t0, problems)


def test_criterion_10_lehmer_scan():
    t0 = time.time()
    problems = []
    lattes = LattesSystem(EllipticCurve(Fraction(0), Fraction(-2)),
                          (Fraction(3), Fraction(5)))
    table = lehmer_scan(lattes, [0, 1, 2], tol=1e-9)
    h0 = table["base_height"]
    for row in table["rows"]:
        if row["height"] * 4**row["depth"] != h0:
            problems.append(f"functional equation broken at depth {row['depth']}")
        shape = row["height"] * row["degree"]**5 * math.log(max(row["degree"], 2)) ** 2
        if not shape > 0:
            problems.append(f"nonpositive shape at depth {row['depth']}")
        if abs(shape - row["shape"]) > 1e-12 * max(1.0, abs(shape)):
            problems.append("reported shape disagrees with recomputation")
    for depth in (0, 1, 2):
        total = sum(r["degree"] * r["multiplicity"] for r in table["rows"] if r["depth"] == depth)
        if total != 4**depth:
            problems.append(f"factor degrees at depth {depth} sum to {total}")
    if not table["min_shape"] > 0:
        problems.append("minimum shape not positive")
    elapsed = time.time() - t0
    if elapsed > 300.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 5min")
    _finish(10, "Lehmer scan (exact height quarters; positive shape column)",
            t0, problems)
