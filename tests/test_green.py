import cmath
import math
import random
from fractions import Fraction

import pytest

from greenfield.basis import monomial_basis, special_basis
from greenfield.dynsys import DynSystem
from greenfield.errors import DimensionMismatch, DomainError, PreconditionError
from greenfield.green import (dbn_witness, eval_det_log, fekete_search,
                              green_value, hadamard_envelope, julia_radius_log)
from greenfield.homopoly import ProjPoint, parse_form, parse_map
from greenfield.linalg import det_fraction
from greenfield.pffield import (MINUS_INFINITY, PLUS_INFINITY, Place, abs_log,
                                support)

ARCH = Place.archimedean()


def exact(coords):
    return ProjPoint.exact(coords)


def test_eval_det_examples(power_map):
    mb = monomial_basis(1, 1)
    res = eval_det_log(power_map, mb, [exact([0, 1]), exact([1, 0])], Place.prime(5))
    assert res.value.is_zero()  # det = -1, a unit
    res = eval_det_log(power_map, mb, [exact([1, 1]), exact([-1, 1])], ARCH)
    assert res.value.arch == pytest.approx(math.log(2), abs=1e-12)
    res = eval_det_log(power_map, mb, [exact([1, 1]), exact([2, 2])], ARCH)
    assert res.is_minus_infinity and not res.numeric_rank_deficient


def test_eval_det_input_validation(power_map):
    mb = monomial_basis(1, 1)
    with pytest.raises(DimensionMismatch):
        eval_det_log(power_map, mb, [exact([1, 1])], ARCH)
    with pytest.raises(DomainError):
        eval_det_log(power_map, mb, [exact([1, 1]), ProjPoint.of_numeric([1, 1])], ARCH)
    with pytest.raises(DomainError):
        eval_det_log(power_map, mb,
                     [ProjPoint.of_numeric([1, 1]), ProjPoint.of_numeric([0, 1])],
                     Place.prime(3))


def test_numeric_eval_det_flags_rank_deficiency(power_map):
    mb = monomial_basis(1, 1)
    res = eval_det_log(power_map, mb,
                       [ProjPoint.of_numeric([1.0, 1.0]),
                        ProjPoint.of_numeric([1.0, 1.0])], ARCH)
    assert res.is_minus_infinity and res.numeric_rank_deficient


def test_green_value_examples(power_map):
    mb = monomial_basis(1, 1)
    lifts = [exact([1, 1]), exact([-1, 1])]
    g_inf = green_value(power_map, mb, lifts, ARCH)
    assert g_inf.total() == pytest.approx(-0.5 * math.log(2), abs=1e-12)
    g_two = green_value(power_map, mb, lifts, Place.prime(2))
    assert g_two.padic == {2: Fraction(1, 2)}
    assert abs((g_inf + g_two).total()) <= 1e-12
    assert green_value(power_map, mb, [exact([1, 1]), exact([2, 2])], ARCH) \
        is PLUS_INFINITY


def test_green_lift_scaling_invariance(power_map, half_map):
    rng = random.Random(42)
    tol = 1e-10
    for system in (power_map, half_map):
        mb = monomial_basis(1, 2)
        lifts = [exact([0, 1]), exact([1, 1]), exact([3, 1])]
        for conv in ("paper", "invariant"):
            for place in (ARCH, Place.prime(2), Place.prime(5)):
                base = green_value(system, mb, lifts, place, conv, tol)
                lam = Fraction(rng.randint(1, 30), rng.randint(1, 30))
                scaled = list(lifts)
                scaled[1] = scaled[1].scaled(lam)
                moved = green_value(system, mb, scaled, place, conv, tol)
                assert abs(moved.total() - base.total()) <= 2 * tol
                if not place.is_archimedean and system is power_map:
                    assert moved.padic == base.padic  # exact cancellation


def test_green_map_scaling(power_map):
    # invariant convention: no drift; paper convention: drift is
    # (1 + d^(N-1)) log|lambda|_v / (d-1) at N = 1
    mb = monomial_basis(1, 1)
    lifts = [exact([2, 1]), exact([1, 3])]
    lam = Fraction(3)
    scaled = DynSystem(power_map.map.scale(lam))
    d = power_map.degree
    tol = 1e-10
    for place in (ARCH, Place.prime(3)):
        lam_log = abs_log(place, lam).total()
        g0i = green_value(power_map, mb, lifts, place, "invariant", tol)
        g1i = green_value(scaled, mb, lifts, place, "invariant", tol)
        assert abs(g1i.total() - g0i.total()) <= 2 * tol
        g0p = green_value(power_map, mb, lifts, place, "paper", tol)
        g1p = green_value(scaled, mb, lifts, place, "paper", tol)
        drift = (1 + d ** (power_map.N - 1)) * lam_log / (d - 1)
        assert g1p.total() - g0p.total() == pytest.approx(drift, abs=2e-10)


def test_basis_change_det_relation(chebyshev):
    # dets with respect to two bases differ exactly by det of the exact
    # change-of-basis matrix, place by place; summed over all places the
    # difference cancels by the product formula.
    from greenfield.basis import _coeff_vector
    from greenfield.homopoly import monomials_of_degree
    n = 6
    special = special_basis(chebyshev, n)
    mono = monomial_basis(1, n)
    monos = monomials_of_degree(2, n)
    index = {m: i for i, m in enumerate(monos)}
    m_rows = [_coeff_vector(el.expanded, index) for el in special.elements]
    det_m = det_fraction(m_rows)  # special = M * monomial
    assert det_m != 0
    lifts = [exact([k, 1]) for k in range(n + 1)]

    def exact_det(basis):
        rows = [[el.evaluate_at(chebyshev, pt, {}) for el in basis.elements]
                for pt in lifts]
        return det_fraction(rows)

    d_special = exact_det(special)
    d_mono = exact_det(mono)
    assert d_special == det_m * d_mono
    # ledger version: difference of eval_det_log across every place in
    # the support of det M equals abs_log(det M), which sums to zero
    for place in sorted(support(det_m)) + [Place.prime(11)]:
        a = eval_det_log(chebyshev, special, lifts, place).value
        b = eval_det_log(chebyshev, mono, lifts, place).value
        diff = a - b
        expect = abs_log(place, det_m)
        assert diff.padic == expect.padic


def test_dbn_witness_examples(power_map):
    mb2 = monomial_basis(1, 2)
    w = cmath.exp(2j * math.pi / 3)
    lifts = [ProjPoint.of_numeric([w**k, 1.0]) for k in range(3)]
    wit = dbn_witness(power_map, mb2, lifts, ARCH)
    # |Vandermonde| on cube roots of unity = |disc(x^3-1)|^(1/2) = 3^(3/2)
    assert wit.total() == pytest.approx(0.25 * math.log(3), abs=1e-9)
    mb1 = monomial_basis(1, 1)
    wit = dbn_witness(power_map, mb1, [exact([0, 1]), exact([1, 1])], Place.prime(5))
    assert wit.total() == 0.0
    # repeated projective point with admissible lifts: exact singular matrix
    wit = dbn_witness(power_map, mb1, [exact([1, 1]), exact([1, 1])], ARCH)
    assert wit is MINUS_INFINITY


def test_dbn_witness_preconditions(power_map):
    mb1 = monomial_basis(1, 1)
    with pytest.raises(PreconditionError, match="lift 1"):
        dbn_witness(power_map, mb1, [exact([1, 1]), exact([3, 1])], ARCH)
    line = DynSystem(parse_map(["x0^2", "x1^2"]), parse_form("x0 - x1", 2))
    fam = special_basis(line, 2)
    bad = [exact([1, 1])] * (len(fam.elements) - 1) + [exact([Fraction(1, 2), 1])]
    with pytest.raises(PreconditionError, match="hypersurface"):
        dbn_witness(line, fam, bad, Place.prime(3))


def test_dbn_witness_nonpositive_at_good_places(power_map):
    # good reduction: the filled Julia set is the unit polydisk and unit
    # tuples have |det|_v <= 1
    rng = random.Random(3)
    mb = monomial_basis(1, 3)
    place = Place.prime(7)
    for _ in range(25):
        lifts = []
        while len(lifts) < 4:
            cand = exact([rng.randint(-20, 20), rng.randint(-20, 20)])
            if any(x % 7 != 0 for x in cand.lift):
                lifts.append(cand)
        wit = dbn_witness(power_map, mb, lifts, place)
        if wit is not MINUS_INFINITY:
            assert wit.total() <= 1e-12


def test_hadamard_envelope_examples(power_map):
    assert hadamard_envelope(power_map, 4, 0.0, Place.prime(3)) == 0.0
    env = hadamard_envelope(power_map, 4, math.log(2), Place.prime(2))
    assert env == pytest.approx(35 * math.log(2), abs=1e-12)
    # archimedean adds the Euclidean-column Hadamard term
    env_arch = hadamard_envelope(power_map, 4, math.log(2), ARCH)
    assert env_arch == pytest.approx(35 * math.log(2) + 2.5 * math.log(5), abs=1e-12)
    with pytest.raises(DomainError):
        hadamard_envelope(power_map, 1, 0.0, ARCH)


def test_envelope_rate_fitted_constant(power_map):
    # envelope/(n c) <= C log n / n with a stable fitted constant
    fits = []
    for n in (4, 8, 16, 32, 64):
        env = hadamard_envelope(power_map, n, math.log(2), ARCH)
        scaled = env / (n * (n + 1))
        fits.append(scaled * n / math.log(n))
    assert max(fits) / min(fits) < 1.6
    assert all(fits[i + 1] <= fits[i] * 1.05 for i in range(len(fits) - 1))


def test_julia_radius_log(power_map, half_map):
    assert julia_radius_log(power_map, Place.prime(2)) == 0.0
    assert julia_radius_log(power_map, ARCH) == pytest.approx(math.log(2), abs=1e-9)
    r2 = julia_radius_log(half_map, Place.prime(2))
    assert r2 > 0.0  # bad place: certificates force a positive radius bound


def test_fekete_small_n_against_grid_oracle(power_map):
    # brute force over an angle grid for the optimal two-point witness
    mb1 = monomial_basis(1, 1)
    best = -math.inf
    for k in range(720):
        th = 2 * math.pi * k / 720
        det = abs(cmath.exp(1j * th) - 1.0)
        if det > 0:
            best = max(best, math.log(det) / 2)
    res = fekete_search(power_map, mb1, 1, 4000, seed=11)
    assert res.witness.total() >= best - 1e-6
    assert res.witness.total() == pytest.approx(0.5 * math.log(2), abs=1e-9)

    mb2 = monomial_basis(1, 2)
    res = fekete_search(power_map, mb2, 2, 6000, seed=11)
    assert res.witness.total() == pytest.approx(0.25 * math.log(3), abs=1e-6)


def test_fekete_deterministic_and_monotone(power_map):
    mb = monomial_basis(1, 4)
    a = fekete_search(power_map, mb, 4, 3000, seed=5)
    b = fekete_search(power_map, mb, 4, 3000, seed=5)
    assert a.angles == b.angles and a.log_det == b.log_det
    small = fekete_search(power_map, mb, 4, 800, seed=5)
    assert a.witness.total() >= small.witness.total() - 1e-15


def test_fekete_needs_p1_without_chart(power_map_p2):
    from greenfield.basis import monomial_basis as mb
    with pytest.raises(PreconditionError):
        fekete_search(power_map_p2, mb(2, 2), 2, 100, seed=1)
