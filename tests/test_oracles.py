"""Cross-validation against independent oracles: exact brute-force
orbits for the p-adic escape scheme, sympy's Macaulay construction for
the resultant quotient, the pairwise-Green identity for the averaged
Green's function, and group-law quadraticity for canonical heights."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfield.basis import monomial_basis
from greenfield.dynsys import DynSystem, escape_rate
from greenfield.errors import InternalCheckError
from greenfield.experiments import EllipticCurve, LattesSystem, report_places
from greenfield.green import green_value
from greenfield.heights import canonical_height
from greenfield.homopoly import (HomoForm, PolyMap, ProjPoint, monomials_of_degree,
                                 parse_map)
from greenfield.macaulay import macaulay_resultant
from greenfield.pffield import LogMag, Place, abs_log

ARCH = Place.archimedean()


def _oracle_valuation(x, p):
    """ord_p(x), written out independently of Place.valuation."""
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


@settings(max_examples=40)
@given(p=st.sampled_from([2, 3, 5, 1223]), v=st.integers(0, 4000), w=st.integers(0, 4000),
       a=st.integers(-10**30, 10**30).filter(bool), b=st.integers(1, 10**30))
def test_valuation_against_the_oracle(p, v, w, a, b):
    # valuations in the thousands, where stripping one p at a time is slow
    x = Fraction(a * p**v, b * p**w)
    assert Place.prime(p).valuation(x) == _oracle_valuation(x, p)
    # an int takes its own path, without a Fraction
    assert Place.prime(p).valuation(a * p**v) == _oracle_valuation(Fraction(a * p**v), p)


def test_padic_escape_vs_bruteforce_orbit():
    # d^-K log||F^K(P)||_p computed with full exact arithmetic must agree
    # with the mod-p^W scheme within the telescoping tail bound
    systems = [
        DynSystem(parse_map(["x0^2 + 1/2*x1^2", "x1^2"])),
        DynSystem(parse_map(["3*x0^2 - 1/4*x1^2", "x0*x1 + x1^2"])),
    ]
    rng = random.Random(61)
    for system in systems:
        d = system.degree
        for p in (2, 3):
            place = Place.prime(p)
            if system.reduction(place).good:
                continue
            c_lo, c_hi = system.growth_constants(place)
            tail = lambda K: max(abs(c_lo), abs(c_hi)) / (d**K * (d - 1))
            for _ in range(5):
                pt = ProjPoint.exact([Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                      Fraction(rng.randint(1, 9), rng.randint(1, 9))])
                K = 9
                cur = pt
                for _ in range(K):
                    cur = system.map(cur)
                norm_log = -min(_oracle_valuation(x, p) for x in cur.lift if x != 0) \
                    * math.log(p)
                brute = norm_log / d**K
                rate = escape_rate(system, place, pt, 1e-12)
                assert abs(rate.total() - brute) <= tail(K) + 1e-12 + rate.arch_err


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), d=st.sampled_from([2, 3]),
       sign=st.sampled_from([1, -1]), u=st.integers(1, 30), k=st.integers(1, 3),
       a=st.integers(-20, 20), b=st.integers(-20, 20),
       i=st.integers(-4, 4), j=st.integers(-4, 4))
def test_bad_prime_escape_vs_exact_orbit(p, d, sign, u, k, a, b, i, j):
    # x0^d + c x1^d with c = ±u/p^k is bad at p.  The exact orbit of
    # primitive integer vectors under the integral model F' = s F gives
    # each step's valuation drop m directly (F' of a primitive vector is
    # p-integral and exactly divisible by p^m), which checks the premise
    # that fixes the p-adic precision: m <= c_lo_s / log p.
    if u % p == 0 or (a == 0 and b == 0):
        return
    c = Fraction(sign * u, p**k)
    system = DynSystem(PolyMap([HomoForm(2, d, {(d, 0): Fraction(1), (0, d): c}),
                                HomoForm.monomial(2, (0, d))]))
    place = Place.prime(p)
    assert not system.reduction(place).good
    logp = math.log(p)
    c_lo, c_hi = system.growth_constants(place)
    s = c.denominator
    c_lo_s = c_lo + _oracle_valuation(Fraction(s), p) * logp
    pt = ProjPoint.exact([Fraction(a) * Fraction(p)**i, Fraction(b) * Fraction(p)**j])
    # log||P||_p + sum_k d^-(k+1) log||F(Q_k)||_p, Q_k the normalized orbit
    coeff = -min(_oracle_valuation(x, p) for x in pt.lift if x)
    den = math.lcm(*(x.denominator for x in pt.lift))
    v = [int(x * den) for x in pt.lift]
    v = [x // math.gcd(*v) for x in v]
    K = 12 if d == 2 else 8
    for step in range(K):
        v = [s * v[0] ** d + c.numerator * v[1] ** d, s * v[1] ** d]  # F'(v)
        g = math.gcd(*v)
        m = _oracle_valuation(Fraction(g), p)
        assert m * logp <= c_lo_s + 1e-9, (step, m, c_lo_s)
        coeff += Fraction(_oracle_valuation(Fraction(s), p) - m, d ** (step + 1))
        v = [x // g for x in v]
    tail = max(abs(c_lo), abs(c_hi)) / (d**K * (d - 1))
    rate = escape_rate(system, place, pt, 1e-10)
    assert abs(rate.total() - float(coeff) * logp) <= tail + rate.arch_err + 1e-12


@pytest.mark.parametrize("a, b, x0, y0", [
    (0, Fraction(3581, 2000), Fraction(-6, 5), Fraction(1, 4)),  # bad at 2, 3, 5, 3581
    (3, Fraction(1357, 125), Fraction(-8, 5), Fraction(7, 5)),  # 2, 3, 5, 17, 111997
    (1, Fraction(1212, 125), Fraction(-8, 5), 2),  # 2, 5, 9930997
    (Fraction(1, 5), Fraction(503, 320), Fraction(-3, 4), 1),  # 2, 5, 647, 52817
])
def test_lattes_bad_prime_escape_vs_exact_orbit(a, b, x0, y0):
    # Lattes maps at each bad prime, up to p ~ 10^7, where the p-adic
    # precision is largest: the exact orbit of primitive integer vectors
    # under F' = s F gives each step's drop m, which must stay within the
    # max_m = max(1, floor(c_lo_s / log p) + 1) that fixes the precision
    lattes = LattesSystem(EllipticCurve(a, b), (x0, y0))
    system = lattes.system
    d = system.degree
    s = math.lcm(*(c.denominator for f in system.map.forms for c in f.coeffs.values()))
    int_forms = [{e: int(c * s) for e, c in f.coeffs.items()} for f in system.map.forms]
    bad = [place for place in report_places(system)
           if not place.is_archimedean and not system.reduction(place).good]
    assert max(place.p for place in bad) > 10**3
    K = 6
    for place in bad:
        p = place.p
        logp = math.log(p)
        c_lo, c_hi = system.growth_constants(place)
        ord_s = _oracle_valuation(Fraction(s), p)
        c_lo_s = c_lo + ord_s * logp
        max_m = max(1, int(c_lo_s / logp) + 1)
        tail = max(abs(c_lo_s), abs(c_hi - ord_s * logp)) / (d**K * (d - 1))
        pts = [lattes.x_of_multiple(k) for k in (1, 2, 3)]
        pts += [ProjPoint.exact(xy) for xy in ([p, 1], [1, p], [Fraction(1, p), 3])]
        for pt in pts:
            coeff = Fraction(-min(_oracle_valuation(x, p) for x in pt.lift if x))
            den = math.lcm(*(x.denominator for x in pt.lift))
            v = [int(x * den) for x in pt.lift]
            v = [x // math.gcd(*v) for x in v]
            for step in range(K):
                v = [sum(c * v[0] ** e[0] * v[1] ** e[1] for e, c in f.items())
                     for f in int_forms]
                g = math.gcd(*v)
                m = _oracle_valuation(Fraction(g), p)
                assert m <= max_m and m * logp <= c_lo_s + 1e-9, (p, step, m, c_lo_s)
                coeff += Fraction(ord_s - m, d ** (step + 1))
                v = [x // g for x in v]
            rate = escape_rate(system, place, pt, 1e-10)
            assert abs(rate.total() - float(coeff) * logp) <= tail + rate.arch_err + 1e-12


def test_bad_prime_step_beyond_the_growth_constant_is_an_internal_error(monkeypatch):
    # F' = (8 x0^2 + x1^2, 8 x1^2) at p = 2 drops m = 3 digits at (1, 0);
    # growth constants that allow only m <= 1 must fail loudly, not return
    system = DynSystem(parse_map(["x0^2 + 1/8*x1^2", "x1^2"]))
    place = Place.prime(2)
    assert not system.reduction(place).good
    # (1 : 0) is fixed over Q, so its escape rate is 0
    rate = escape_rate(system, place, ProjPoint.exact([1, 0]), 1e-9)
    assert abs(rate.total()) <= rate.arch_err
    c_hi = system.growth_constants(place)[1]
    # c_lo_s = c_lo + ord_2(8) log 2 = 0, so max_m = 1
    monkeypatch.setattr(system, "growth_constants", lambda place: (-3 * math.log(2), c_hi))
    with pytest.raises(InternalCheckError, match="dropped 3 > 1 digits"):
        escape_rate(system, place, ProjPoint.exact([1, 0]), 1e-9)


def test_resultant_composition_formula():
    # Res(F∘G) = ±Res(F)^(e^N) Res(G)^(d^(N+1)) for degrees d = deg F,
    # e = deg G (both exponents follow from counting coefficient degrees
    # on each side); the composition itself is computed symbolically, so
    # this exercises the N = 2 Macaulay quotient against an identity it
    # knows nothing about.
    from greenfield.homopoly import compose
    rng = random.Random(62)

    def rand_system(nvars, d):
        forms = []
        for _ in range(nvars):
            coeffs = {}
            for expo in monomials_of_degree(nvars, d):
                c = rng.randint(-3, 3)
                coeffs[expo] = Fraction(c if c else 1)
            forms.append(HomoForm(nvars, d, coeffs))
        return PolyMap(forms)

    checked = 0
    while checked < 3:
        f = rand_system(3, 2)
        g = rand_system(3, 2)
        rf, rg = macaulay_resultant(f), macaulay_resultant(g)
        if rf == 0 or rg == 0:
            continue
        lhs = macaulay_resultant(compose(f, g))
        rhs = rf ** (2**2) * rg ** (2**3)  # e^N = 4, d^(N+1) = 8
        assert lhs == rhs or lhs == -rhs
        checked += 1
    # and in dimension one, where the Sylvester determinant is the oracle:
    checked = 0
    while checked < 5:
        f = rand_system(2, 2)
        g = rand_system(2, 2)
        rf, rg = macaulay_resultant(f), macaulay_resultant(g)
        if rf == 0 or rg == 0:
            continue
        lhs = macaulay_resultant(compose(f, g))
        rhs = rf**2 * rg**4
        assert lhs == rhs or lhs == -rhs
        checked += 1


def test_green_equals_average_of_pairwise_greens():
    # Baker-Rumely: with the monomial basis on P^1 and n = c - 1 the
    # evaluation determinant is the binary Vandermonde, so the Green's
    # function (invariant convention) is 1/(n c) times the sum over the
    # n c / 2 pairs i < j of the pairwise Green's function
    #   g(P, Q) = H(P) + H(Q) - log|P ^ Q|_v - log|Res F|_v / (d (d - 1)),
    # that is, half their average.  The identity is exact at places of
    # good reduction and holds within the reported errors at infinity and
    # at bad primes.
    maps = [
        DynSystem(parse_map(["x0^2", "x1^2"])),
        DynSystem(parse_map(["x0^2 + 1/2*x1^2", "x1^2"])),  # bad at 2
        DynSystem(parse_map(["x0^3 - 5/3*x0*x1^2 + 2*x1^3", "7*x1^3"])),  # bad at 3, 7
    ]
    rng = random.Random(63)
    for system in maps:
        d = system.degree
        for n in (1, 2, 3, 5):
            basis = monomial_basis(1, n)
            c = n + 1
            for _ in range(5):
                lifts, wedges = _pairwise_distinct_lifts(rng, c)
                for place in (ARCH, Place.prime(2), Place.prime(3), Place.prime(5),
                              Place.prime(7)):
                    got = green_value(system, basis, lifts, place, "invariant", 1e-12)
                    rates = [escape_rate(system, place, pt, 1e-12) for pt in lifts]
                    res_term = abs_log(place, system.resultant).scale(Fraction(1, d * (d - 1)))
                    total = LogMag.zero()
                    for (i, j), w in wedges.items():
                        total = total + rates[i] + rates[j] - abs_log(place, w) - res_term
                    expect = total.scale(Fraction(1, n * c))
                    if not place.is_archimedean and system.reduction(place).good:
                        assert got == expect, (system.map, n, place)
                    else:
                        assert abs(got.total() - expect.total()) \
                            <= got.arch_err + expect.arch_err, (system.map, n, place)


def _pairwise_distinct_lifts(rng, c):
    """c random rational lifts on P^1 and their wedges x_P y_Q - x_Q y_P
    for index pairs i < j, all nonzero."""
    while True:
        lifts = [ProjPoint.exact([Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                  Fraction(rng.randint(1, 9), rng.randint(1, 9))])
                 for _ in range(c)]
        wedges = {(i, j): lifts[i].lift[0] * lifts[j].lift[1]
                  - lifts[j].lift[0] * lifts[i].lift[1]
                  for i in range(c) for j in range(i + 1, c)}
        if all(wedges.values()):
            return lifts, wedges


def test_height_quadraticity_along_multiples():
    # h(x(kP)) = k^2 h(x(P)): the group law and the local escape sums
    # are entirely independent code paths
    lattes = LattesSystem(EllipticCurve(Fraction(0), Fraction(-2)),
                          (Fraction(3), Fraction(5)))
    base = sum(canonical_height(lattes.system, lattes.x_of_multiple(1), 1e-11).values(),
               LogMag.zero()).total()
    for k in (2, 3, 4):
        hk = sum(canonical_height(lattes.system, lattes.x_of_multiple(k), 1e-10).values(),
                 LogMag.zero()).total()
        assert hk == pytest.approx(k * k * base, abs=1e-8), k


def test_chebyshev_escape_matches_substitution_oracle():
    # z = w + 1/w conjugates z^2 - 2 to w^2, so H((z, 1)) = log|w| for
    # |w| >= 1 and 0 on the interval [-2, 2]
    cheb = DynSystem(parse_map(["x0^2 - 2*x1^2", "x1^2"]))
    for z in (Fraction(5, 2), Fraction(3), Fraction(17, 4), Fraction(-7, 2)):
        zf = float(z)
        w = (abs(zf) + math.sqrt(zf * zf - 4)) / 2
        rate = escape_rate(cheb, ARCH, ProjPoint.exact([z, 1]), 1e-11)
        assert rate.total() == pytest.approx(math.log(w), abs=1e-9), z
    for z in (Fraction(1, 2), Fraction(-3, 2), Fraction(2), Fraction(0)):
        rate = escape_rate(cheb, ARCH, ProjPoint.exact([z, 1]), 1e-11)
        assert abs(rate.total()) <= 1e-9, z
