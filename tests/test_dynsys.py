import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greenfield.dynsys import (DynSystem, Membership, check_invariance, escape_rate,
                               membership_of)
from greenfield.errors import DimensionMismatch, DomainError, NotAMorphism
from greenfield.homopoly import (HomoForm, PolyMap, ProjPoint, monomials_of_degree, parse_form,
                                 parse_map)
from greenfield.pffield import Place

ARCH = Place.archimedean()
GOLDEN_SQ = (3 + math.sqrt(5)) / 2  # w with w + 1/w = 3


def rand_lift(rng, nvars=2, bound=9):
    while True:
        coords = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                  for _ in range(nvars)]
        if any(coords):
            return ProjPoint.exact(coords)


def test_constructor_rejects_non_morphism():
    with pytest.raises(NotAMorphism):
        DynSystem(parse_map(["x0^2", "x0*x1"]))


def test_invariance_examples(power_map):
    inv = check_invariance(power_map.map, parse_form("x1", 2))
    assert inv.holds and inv.quotient == parse_form("x1", 2)
    inv = check_invariance(power_map.map, parse_form("x0 - x1", 2))
    assert inv.holds and inv.quotient == parse_form("x0 + x1", 2)
    inv = check_invariance(power_map.map, parse_form("x0 - 2*x1", 2))
    assert not inv.holds and not inv.remainder.is_zero()


@st.composite
def _form(draw, nvars, degree):
    coeff = st.fractions(-4, 4, max_denominator=3)
    return HomoForm(nvars, degree, {e: draw(coeff) for e in monomials_of_degree(nvars, degree)
                                    if draw(st.booleans())})


@settings(max_examples=60)
@given(st.data(), st.sampled_from([2, 3]), st.integers(2, 4),
       st.fractions(-4, 4, max_denominator=3))
def test_invariance_of_a_line_through_a_built_quotient(data, nvars, d, c):
    # G = x0 - x1 and F1 = F0 - G*h + c*x1^d give G∘F = G*h - c*x1^d, whose
    # remainder in lex order with x0 first is -c*x1^d: no term has an x0
    g = parse_form("x0 - x1", nvars)
    h = data.draw(_form(nvars, d - 1))
    f0 = data.draw(_form(nvars, d))
    x1_d = HomoForm.monomial(nvars, [0, d] + [0] * (nvars - 2), c)
    forms = [f0, f0 - g * h + x1_d] + [data.draw(_form(nvars, d)) for _ in range(nvars - 2)]
    assume(not all(f.is_zero() for f in forms))
    inv = check_invariance(PolyMap(forms), g)
    if c == 0:
        assert inv.holds and inv.quotient == h and inv.remainder is None
    else:
        assert not inv.holds and inv.quotient is None and inv.remainder == x1_d.scale(-1)


def test_check_invariance_rejects_a_zero_or_mismatched_form(power_map):
    with pytest.raises(DomainError):
        check_invariance(power_map.map, HomoForm.zero(2, 1))
    with pytest.raises(DomainError):
        check_invariance(power_map.map, parse_form("x0 - x2", 3))


def test_invariant_hypersurface_accepted_and_checked():
    sys_line = DynSystem(parse_map(["x0^2", "x1^2"]), parse_form("x0 - x1", 2))
    assert check_invariance(sys_line.map, sys_line.hypersurface).holds
    # x0^2 - 2*x1^2 = (x0 + 2*x1)(x0 - 2*x1) + 2*x1^2
    with pytest.raises(DomainError, match=r"\(remainder HomoForm\('2\*x1\^2'\)\)"):
        DynSystem(parse_map(["x0^2", "x1^2"]), parse_form("x0 - 2*x1", 2))


def test_escape_power_map_closed_form(power_map):
    # ||F^n(x,y)|| = max(|x|,|y|)^(2^n) at every place
    rate = escape_rate(power_map, ARCH, ProjPoint.exact([2, 1]), 1e-10)
    assert rate.total() == pytest.approx(math.log(2), abs=1e-9)
    rate = escape_rate(power_map, ARCH, ProjPoint.exact([Fraction(1, 3), Fraction(1, 4)]), 1e-10)
    assert rate.total() == pytest.approx(math.log(1 / 3), abs=1e-9)
    rate = escape_rate(power_map, Place.prime(2), ProjPoint.exact([Fraction(1, 2), 1]), 1e-10)
    assert rate.is_exact and rate.padic == {2: Fraction(1)}
    rate = escape_rate(power_map, Place.prime(3), ProjPoint.exact([9, 2]), 1e-10)
    assert rate.is_exact and rate.is_zero()  # min ord is 0


def test_escape_chebyshev_oracle(chebyshev):
    # z = w + 1/w conjugates z^2 - 2 to w^2; H((3,1)) = log w
    rate = escape_rate(chebyshev, ARCH, ProjPoint.exact([3, 1]), 1e-10)
    assert rate.total() == pytest.approx(math.log(GOLDEN_SQ), abs=1e-9)
    rate = escape_rate(chebyshev, ARCH, ProjPoint.exact([2, 1]), 1e-10)
    assert abs(rate.total()) <= 1e-9  # fixed point z = 2


def test_escape_functional_equation(power_map, chebyshev, half_map):
    rng = random.Random(20)
    tol = 1e-10
    for system in (power_map, chebyshev, half_map):
        d = system.degree
        for place in (ARCH, Place.prime(2), Place.prime(5)):
            for _ in range(6):
                pt = rand_lift(rng)
                r1 = escape_rate(system, place, pt, tol)
                r2 = escape_rate(system, place, system.map(pt), tol)
                assert abs(r2.total() - d * r1.total()) <= 2 * tol + d * r1.arch_err + r2.arch_err


def test_escape_lift_scaling(power_map, half_map):
    rng = random.Random(21)
    tol = 1e-10
    for system in (power_map, half_map):
        for place in (ARCH, Place.prime(2)):
            pt = rand_lift(rng)
            lam = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            r1 = escape_rate(system, place, pt, tol)
            r2 = escape_rate(system, place, pt.scaled(lam), tol)
            if place.is_archimedean:
                shift = math.log(abs(lam))
            else:
                shift = -place.valuation(lam) * math.log(place.p)
            assert abs(r2.total() - r1.total() - shift) <= 2 * tol
            if r1.is_exact and r2.is_exact:
                assert r2.total() - r1.total() == pytest.approx(shift, abs=1e-14)


def test_escape_map_scaling(half_map):
    # H_{cF} = H_F + log|c|_v/(d-1): this is what fixes the r(F) convention
    rng = random.Random(22)
    tol = 1e-10
    lam = Fraction(3, 2)
    scaled = DynSystem(half_map.map.scale(lam))
    for place in (ARCH, Place.prime(2), Place.prime(3)):
        pt = rand_lift(rng)
        r1 = escape_rate(half_map, place, pt, tol)
        r2 = escape_rate(scaled, place, pt, tol)
        if place.is_archimedean:
            shift = math.log(float(lam))
        else:
            shift = -place.valuation(lam) * math.log(place.p)
        assert abs(r2.total() - r1.total() - shift / (half_map.degree - 1)) <= 2 * tol


def test_escape_rejects_bad_args(power_map, half_map):
    for tol in (0.0, float("nan")):
        with pytest.raises(DomainError):
            escape_rate(power_map, ARCH, ProjPoint.exact([1, 1]), tol)
    with pytest.raises(DomainError):
        escape_rate(power_map, Place.prime(2), ProjPoint.of_numeric([1.0, 1.0]), 1e-9)
    # a lift of the wrong length, at a bad prime, a good prime and infinity
    for place in (Place.prime(2), Place.prime(3), ARCH):
        with pytest.raises(DimensionMismatch):
            escape_rate(half_map, place, ProjPoint.exact([3, 1, 5]), 1e-9)


def _membership(system, place, pt):
    return membership_of(escape_rate(system, place, pt, 1e-9), 1e-9)


def test_membership_examples(power_map):
    assert _membership(power_map, ARCH, ProjPoint.exact([1, 1])) is Membership.UNDETERMINED
    assert _membership(power_map, ARCH, ProjPoint.exact([2, 1])) is Membership.OUTSIDE
    assert _membership(power_map, ARCH, ProjPoint.exact([Fraction(1, 2), Fraction(1, 3)])) \
        is Membership.INSIDE
    assert _membership(power_map, Place.prime(2), ProjPoint.exact([Fraction(1, 2), 1])) \
        is Membership.OUTSIDE
    # exact boundary at a good place is inside (polydisk is closed)
    assert _membership(power_map, Place.prime(2), ProjPoint.exact([1, 1])) is Membership.INSIDE


def test_reduction_type_examples(power_map):
    for p in (2, 3, 5, 97):
        assert power_map.reduction(Place.prime(p)).kind == "good"
    assert power_map.reduction(ARCH).kind == "bad"
    third = DynSystem(parse_map(["x0^2 + 1/3*x1^2", "x1^2"]))
    assert third.reduction(Place.prime(3)).kind == "bad"
    assert third.reduction(Place.prime(2)).kind == "good"


def test_reduction_respects_rescaling():
    # 2F has |Res|_2 < 1 but rescaling by 1/2 restores the good model
    doubled = DynSystem(parse_map(["2*x0^2", "2*x1^2"]))
    info = doubled.reduction(Place.prime(2))
    assert info.good and info.scaling_ord == 1


def test_reduction_bad_when_no_rational_scaling_has_unit_resultant():
    # Res(2x^2, y^2) = 4: ord_2 = 2 is not divisible by (N+1)d^N = 4
    system = DynSystem(parse_map(["2*x0^2", "x1^2"]))
    info = system.reduction(Place.prime(2))
    assert not info.good


def test_good_reduction_polydisk_agreement(power_map):
    # At a good place membership must agree with the exact polydisk test
    rng = random.Random(23)
    place = Place.prime(7)
    for _ in range(200):
        pt = rand_lift(rng, bound=20)
        got = _membership(power_map, place, pt)
        norm_ord = min(place.valuation(x) for x in pt.lift if x != 0)
        inside = norm_ord >= 0  # log||lift||_7 <= 0
        assert got is (Membership.INSIDE if inside else Membership.OUTSIDE)


def test_growth_constants_bound_one_step(power_map, chebyshev, half_map):
    rng = random.Random(24)
    for system in (power_map, chebyshev, half_map):
        d = system.degree
        for place in (ARCH, Place.prime(2)):
            c_lo, c_hi = system.growth_constants(place)
            for _ in range(30):
                pt = rand_lift(rng)
                if place.is_archimedean:
                    nq = max(abs(float(x)) for x in pt.lift)
                    nfq = max(abs(float(x)) for x in system.map(pt).lift)
                    delta = math.log(nfq) - d * math.log(nq)
                else:
                    p = place.p
                    nq = -min(place.valuation(x) for x in pt.lift if x != 0) * math.log(p)
                    nfq = -min(place.valuation(x) for x in system.map(pt).lift if x != 0) * math.log(p)
                    delta = nfq - d * nq
                assert -c_lo - 1e-9 <= delta <= c_hi + 1e-9
