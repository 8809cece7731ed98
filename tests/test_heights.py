import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfield.dynsys import DynSystem, escape_rate
from greenfield.errors import DomainError
from greenfield.heights import canonical_height, contributing_places, weil_height
from greenfield.homopoly import HomoForm, PolyMap, ProjPoint
from greenfield.pffield import LogMag, Place, abs_log

ARCH = Place.archimedean()


def _height(profile):
    """The height whose local terms are the profile's ledgers."""
    return sum(profile.values(), LogMag.zero())


def test_weil_height_examples():
    assert _height(weil_height(ProjPoint.exact([2, 1]))).total() == \
        pytest.approx(math.log(2), abs=1e-14)
    assert _height(weil_height(ProjPoint.exact([Fraction(2, 3), 1]))).total() == \
        pytest.approx(math.log(3), abs=1e-14)
    assert _height(weil_height(ProjPoint.exact([1, 1]))).total() == 0.0


def test_weil_height_lift_invariance():
    rng = random.Random(12)
    for _ in range(25):
        coords = [Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(2)]
        if not any(coords):
            continue
        pt = ProjPoint.exact(coords)
        lam = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        h1 = _height(weil_height(pt))
        h2 = _height(weil_height(pt.scaled(lam)))
        assert h2.total() == pytest.approx(h1.total(), abs=1e-11)


def test_weil_rejects_numeric(half_map):
    with pytest.raises(DomainError):
        weil_height(ProjPoint.of_numeric([1.0, 2.0]))
    with pytest.raises(DomainError):
        canonical_height(half_map, ProjPoint.of_numeric([1, 1]))


def test_canonical_height_examples(power_map, chebyshev):
    h = _height(canonical_height(power_map, ProjPoint.exact([2, 1]), 1e-12))
    assert h.total() == pytest.approx(math.log(2), abs=1e-12)
    h = _height(canonical_height(chebyshev, ProjPoint.exact([2, 1]), 1e-9))
    assert abs(h.total()) <= 1e-9  # fixed point of z^2 - 2
    h = _height(canonical_height(chebyshev, ProjPoint.exact([3, 1]), 1e-9))
    assert h.total() == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-9)


def test_canonical_height_preperiodic_points(power_map, chebyshev):
    # all rational preperiodic points of z^2 and the post-critically
    # finite orbit points of z^2 - 2
    for x in (0, 1, -1):
        pt = ProjPoint.exact([x, 1])
        assert abs(_height(canonical_height(power_map, pt, 1e-10)).total()) <= 1e-9
    for x in (0, 1, -1, 2, -2):
        pt = ProjPoint.exact([x, 1])
        assert abs(_height(canonical_height(chebyshev, pt, 1e-10)).total()) <= 1e-9
    assert abs(_height(canonical_height(power_map, ProjPoint.exact([1, 0]), 1e-10)).total()) \
        <= 1e-9


def test_local_profile_examples(power_map):
    prof = canonical_height(power_map, ProjPoint.exact([2, 1]), 1e-10)
    entries = {repr(k): v for k, v in prof.items()}
    assert entries["inf"].total() == pytest.approx(math.log(2), abs=1e-10)
    assert entries["p=2"].is_zero()
    prof2 = canonical_height(power_map, ProjPoint.exact([4, 2]), 1e-10)
    entries2 = {repr(k): v for k, v in prof2.items()}
    assert entries2["inf"].total() == pytest.approx(math.log(4), abs=1e-10)
    assert entries2["p=2"].padic == {2: Fraction(-1)}
    assert _height(prof2).total() == pytest.approx(_height(prof).total(), abs=1e-10)


def test_profile_lift_change_shifts_by_abs_log(power_map, half_map):
    rng = random.Random(31)
    for system in (power_map, half_map):
        pt = ProjPoint.exact([3, 2])
        lam = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        p1 = canonical_height(system, pt, 1e-11)
        p2 = canonical_height(system, pt.scaled(lam), 1e-11)
        places = set(p1) | set(p2)
        for place in places:
            r1 = p1.get(place)
            r2 = p2.get(place)
            v1 = r1.total() if r1 else 0.0
            v2 = r2.total() if r2 else 0.0
            shift = abs_log(place, lam).total()
            if r1 is not None and r2 is not None and r1.is_exact and r2.is_exact:
                diff = r2 - r1
                assert diff.padic == abs_log(place, lam).padic  # exact
            else:
                assert v2 - v1 == pytest.approx(shift, abs=1e-9)
        # invariant total
        assert _height(p2).total() == pytest.approx(_height(p1).total(), abs=1e-9)


def test_one_reporting_rule(power_map, half_map):
    # every local quantity is a LogMag, exact iff it carries no float
    # error; exact ledgers arise exactly at good nonarchimedean places
    pt = ProjPoint.exact([Fraction(3, 2), 1])
    for system, place, exact in ((half_map, Place.archimedean(), False),
                                 (half_map, Place.prime(2), False),
                                 (half_map, Place.prime(3), True),
                                 (power_map, Place.prime(2), True)):
        rate = escape_rate(system, place, pt, 1e-10)
        assert isinstance(rate, LogMag)
        assert rate.is_exact is exact
        assert rate.is_exact == (rate.arch_err == 0)
    for profile in (canonical_height(half_map, pt, 1e-10), weil_height(pt)):
        assert profile
        for mag in profile.values():
            assert isinstance(mag, LogMag)
            assert mag.is_exact == (mag.arch_err == 0)
        # the height's error is its ledger's: the local errors plus the
        # rounding each addition charges
        h = _height(profile)
        assert h.arch_err >= sum(m.arch_err for m in profile.values())


def test_functional_equation(power_map, chebyshev, half_map):
    rng = random.Random(14)
    tol = 1e-10
    for system in (power_map, chebyshev, half_map):
        d = system.degree
        for _ in range(12):
            coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            if not any(coords):
                continue
            pt = ProjPoint.exact(coords)
            h1 = _height(canonical_height(system, pt, tol))
            h2 = _height(canonical_height(system, system.map(pt), tol))
            assert abs(h2.total() - d * h1.total()) <= 2 * tol + d * h1.arch_err + h2.arch_err


@st.composite
def power_plus_c(draw):
    """x0^d + c*x1^d with d in {2, 3} and c = a/b, b <= 12: bad at the
    primes of b (2, 3, 5, 7, 11), so the integer escape kernel runs."""
    d = draw(st.sampled_from([2, 3]))
    c = Fraction(draw(st.integers(-12, 12).filter(bool)), draw(st.integers(1, 12)))
    return DynSystem(PolyMap([HomoForm(2, d, {(d, 0): 1, (0, d): c}),
                              HomoForm.monomial(2, (0, d))]))


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
lifts = st.tuples(rationals, rationals).filter(any).map(ProjPoint.exact)


@settings(max_examples=40, deadline=None)
@given(power_plus_c(), lifts)
def test_functional_equation_property(system, pt):
    # hhat(F(P)) = d * hhat(P), within the reported errors
    d = system.degree
    h1 = _height(canonical_height(system, pt))
    h2 = _height(canonical_height(system, system.map(pt)))
    assert abs(h2.total() - d * h1.total()) <= h2.arch_err + d * h1.arch_err


@settings(max_examples=40, deadline=None)
@given(power_plus_c(), lifts, rationals.filter(bool))
def test_lift_invariance_property(system, pt, lam):
    h1 = _height(canonical_height(system, pt))
    h2 = _height(canonical_height(system, pt.scaled(lam)))
    assert abs(h2.total() - h1.total()) <= h1.arch_err + h2.arch_err


def test_canonical_height_rejects_bad_tol(half_map):
    for tol in (0.0, -1e-9, float("nan")):
        with pytest.raises(DomainError):
            canonical_height(half_map, ProjPoint.exact([3, 1]), tol)


def test_nonnegativity(power_map, chebyshev, half_map):
    rng = random.Random(15)
    for system in (power_map, chebyshev, half_map):
        for _ in range(15):
            coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            if not any(coords):
                continue
            h = _height(canonical_height(system, ProjPoint.exact(coords), 1e-10))
            assert h.total() >= -1e-9


def test_height_minus_weil_bounded_by_growth_constants(half_map):
    # |hhat - h| <= sum over contributing places of max(c_lo, c_hi)/(d-1)
    rng = random.Random(16)
    d = half_map.degree
    for _ in range(15):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
        if not any(coords):
            continue
        pt = ProjPoint.exact(coords)
        hhat = _height(canonical_height(half_map, pt, 1e-10))
        h = _height(weil_height(pt))
        budget = 0.0
        for place in contributing_places(half_map, pt):
            c_lo, c_hi = half_map.growth_constants(place)
            budget += max(abs(c_lo), abs(c_hi)) / (d - 1)
        assert abs(hhat.total() - h.total()) <= budget + 1e-9


def test_contributing_places(half_map):
    pt = ProjPoint.exact([Fraction(3, 5), 1])
    places = contributing_places(half_map, pt)
    assert Place.archimedean() in places
    assert Place.prime(2) in places  # coefficient support
    assert Place.prime(3) in places and Place.prime(5) in places
