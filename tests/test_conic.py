"""A positive-dimensional hypersurface system: the conic x0 x2 = x1^2
in P^2 (the degree-2 Veronese image of P^1) is invariant under the
coordinate-squaring map, since x^2 z^2 - y^4 = (xz - y^2)(xz + y^2).
Sections of O(n) restricted to the conic pull back to degree-2n forms
on P^1, so c(n) = 2n + 1 and evaluation matrices at Veronese points of
distinct parameters are nonsingular."""

from fractions import Fraction

import pytest

from greenfield.basis import section_dim, special_basis
from greenfield.dynsys import DynSystem, check_invariance
from greenfield.errors import PreconditionError
from greenfield.experiments import adelic_report
from greenfield.green import dbn_witness, eval_det_log, green_value, hadamard_envelope, julia_radius_log
from greenfield.homopoly import ProjPoint, parse_form, parse_map
from greenfield.linalg import det_fraction
from greenfield.pffield import MINUS_INFINITY, Place, support

ARCH = Place.archimedean()


@pytest.fixture(scope="module")
def conic():
    return DynSystem(parse_map(["x0^2", "x1^2", "x2^2"]),
                     parse_form("x0*x2 - x1^2", 3))


def veronese(a, b):
    a, b = Fraction(a), Fraction(b)
    return ProjPoint.exact([a * a, a * b, b * b])


def test_invariance_with_explicit_quotient(conic):
    inv = check_invariance(conic.map, conic.hypersurface)
    assert inv.holds
    assert inv.quotient == parse_form("x0*x2 + x1^2", 3)


def test_section_dimensions_match_the_twisted_line(conic):
    # O_X(n) pulls back to O_{P^1}(2n)
    for n in (1, 2, 3, 5, 8):
        assert section_dim(conic, n) == 2 * n + 1


def test_special_basis_on_the_conic(conic):
    for n in (2, 4, 6):
        fam = special_basis(conic, n)
        assert len(fam) == 2 * n + 1
        for el in fam.elements:
            assert el.expanded.degree == n


def test_eval_det_nonsingular_at_distinct_parameters(conic):
    n = 3
    fam = special_basis(conic, n)
    lifts = [veronese(k, 1) for k in range(2 * n + 1)]
    res = eval_det_log(conic, fam, lifts, ARCH)
    assert res is not MINUS_INFINITY
    # repeated parameter kills the determinant
    bad = lifts[:-1] + [veronese(0, 1)]
    assert eval_det_log(conic, fam, bad, ARCH) is MINUS_INFINITY


def test_dbn_witness_checks_the_hypersurface(conic):
    n = 2
    fam = special_basis(conic, n)
    lifts = [veronese(k, 1) for k in range(5)]
    off = lifts[:-1] + [ProjPoint.exact([1, 1, 2])]  # not on the conic
    with pytest.raises(PreconditionError, match="hypersurface"):
        dbn_witness(conic, fam, off, Place.prime(7))


def test_adelic_report_says_why_a_witness_is_missing(conic):
    entry = adelic_report(conic, [6], budget=50)["entries"][0]
    assert entry["witnesses"] == {"inf": None}
    assert "X = P^1" in entry["witness_notes"]["inf"]  # the angle chart


def test_witness_nonpositive_at_good_places(conic):
    n = 2
    fam = special_basis(conic, n)
    place = Place.prime(11)
    lifts = [veronese(k, 1) for k in range(5)]  # unit-gcd integral lifts
    wit = dbn_witness(conic, fam, lifts, place)
    assert wit is not MINUS_INFINITY
    assert wit.total() <= 1e-12
    env = hadamard_envelope(conic, n, julia_radius_log(conic, place), place)
    assert wit.total() <= env / (n * section_dim(conic, n)) + 1e-12


def test_adelic_green_sum_is_the_average_height(conic):
    # summed over all places, the determinant term cancels by the
    # product formula and r(F) = 0, so what remains of the Green values
    # is the average canonical height of the tuple
    from greenfield.heights import canonical_height
    from greenfield.pffield import LogMag
    n = 2
    fam = special_basis(conic, n)
    lifts = [veronese(k, 1) for k in range(5)]
    rows = [[el.evaluate_at(conic, pt, {}) for el in fam.elements] for pt in lifts]
    det = det_fraction(rows)
    assert det != 0
    total = green_value(conic, fam, lifts, ARCH, "invariant", 1e-11)
    for place in sorted(support(det)):
        if not place.is_archimedean:
            total = total + green_value(conic, fam, lifts, place, "invariant", 1e-11)
    # symbolic part: exactly the det's factorization scaled by 1/(n c)
    c = len(fam.elements)
    expect = {}
    for place in sorted(support(det)):
        if not place.is_archimedean:
            q = Fraction(place.valuation(det), n * c)
            if q:
                expect[place.p] = q
    assert total.padic == expect
    avg_height = sum(sum(canonical_height(conic, pt, 1e-11).values(), LogMag.zero()).total()
                     for pt in lifts) / c
    assert total.total() == pytest.approx(avg_height, abs=1e-9)


def test_conic_matches_p1_vandermonde_structure(conic):
    # the restricted determinant at Veronese points factors through the
    # degree-2n interpolation problem on P^1: its support is contained
    # in the support of the corresponding Vandermonde product
    n = 2
    fam = special_basis(conic, n)
    params = [0, 1, 2, 3, 5]
    lifts = [veronese(k, 1) for k in params]
    rows = [[el.evaluate_at(conic, pt, {}) for el in fam.elements] for pt in lifts]
    det = det_fraction(rows)
    vandermonde = Fraction(1)
    for i in range(len(params)):
        for j in range(i + 1, len(params)):
            vandermonde *= Fraction(params[j] - params[i])
    # det / V^2 must be an integer ratio built from the basis change only
    ratio = det / vandermonde**2
    assert ratio != 0
    for place in sorted(support(det)):
        if place.is_archimedean:
            continue
        assert place in support(vandermonde**2) or place in support(ratio)
