import cmath
import math
import random
import types
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfield import green as green_module
from greenfield.basis import (BasisFamily, GenElement, _wedge_terms, monomial_basis,
                              special_basis)
from greenfield.dynsys import DynSystem
from greenfield.errors import DimensionMismatch, DomainError, PreconditionError
from greenfield.experiments import roots_of_unity_tuple
from greenfield.green import (dbn_witness, eval_det_log, fekete_search,
                              green_value, hadamard_envelope, julia_radius_log)
from greenfield.homopoly import HomoForm, PolyMap, ProjPoint, parse_form, parse_map
from greenfield.linalg import det_fraction
from greenfield.macaulay import r_normalized
from greenfield.pffield import (MINUS_INFINITY, PLUS_INFINITY, Place, abs_log,
                                support)

ARCH = Place.archimedean()


def exact(coords):
    return ProjPoint.exact(coords)


def test_eval_det_examples(power_map):
    mb = monomial_basis(1, 1)
    res = eval_det_log(power_map, mb, [exact([0, 1]), exact([1, 0])], Place.prime(5))
    assert res.is_zero()  # det = -1, a unit
    res = eval_det_log(power_map, mb, [exact([1, 1]), exact([-1, 1])], ARCH)
    assert res.arch == pytest.approx(math.log(2), abs=1e-12)
    res = eval_det_log(power_map, mb, [exact([1, 1]), exact([2, 2])], ARCH)
    assert res is MINUS_INFINITY


def test_eval_det_input_validation(power_map):
    mb = monomial_basis(1, 1)
    with pytest.raises(DimensionMismatch):
        eval_det_log(power_map, mb, [exact([1, 1])], ARCH)
    # a lift of the wrong length is rejected, not truncated by the evaluation
    for make in (exact, ProjPoint.of_numeric):
        with pytest.raises(DimensionMismatch):
            eval_det_log(power_map, mb, [make([1, 1]), make([2, 1, 5])], ARCH)
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
    assert res is MINUS_INFINITY


def test_numeric_lifts_need_p1(power_map_p2):
    with pytest.raises(DomainError, match="P\\^1"):
        eval_det_log(power_map_p2, monomial_basis(2, 1),
                     [ProjPoint.of_numeric([1, 0, 0]), ProjPoint.of_numeric([0, 1, 0]),
                      ProjPoint.of_numeric([0, 0, 1])], ARCH)
    line = DynSystem(parse_map(["x0^2", "x1^2"]), parse_form("x0 - x1", 2))
    fam = special_basis(line, 2)
    with pytest.raises(DomainError, match="P\\^1"):
        eval_det_log(line, fam, [ProjPoint.of_numeric([1, 1])] * fam.cn, ARCH)


def _mp_det_rows(basis, lifts):
    """The evaluation rows (eta_j(P_i)) at the binary64 lifts, from the
    expanded forms, in mpmath at the working precision."""
    coeffs = [[(a, mpmath.mpf(c.numerator) / c.denominator)
               for (a, _b), c in el.expanded.coeffs.items()] for el in basis.elements]
    rows = []
    for pt in lifts:
        x, y = (mpmath.mpc(z) for z in pt.lift)
        powers = [x**a * y**(basis.n - a) for a in range(basis.n + 1)]
        rows.append([mpmath.fsum(c * powers[a] for a, c in terms) for terms in coeffs])
    return rows


@settings(max_examples=60)
@given(c=st.fractions(-3, 3, max_denominator=6), n=st.integers(1, 12),
       special=st.booleans(), data=st.data())
def test_numeric_det_log_within_its_bound_of_a_60_digit_determinant(c, n, special, data):
    # the float wedge path against mpmath's determinant of the evaluation
    # rows; one pair of points is near-coincident, down to 1e-15 rad
    system = DynSystem(PolyMap([HomoForm(2, 2, {(2, 0): 1, (0, 2): c}),
                                HomoForm(2, 2, {(0, 2): 1})]))
    basis = special_basis(system, n) if special else monomial_basis(1, n)
    angle = st.floats(0.0, 2 * math.pi)
    thetas = data.draw(st.lists(angle, min_size=n + 1, max_size=n + 1))
    i, j = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    if i != j:
        thetas[j] = thetas[i] + 10.0 ** data.draw(st.integers(-15, -3))
    scales = data.draw(st.lists(st.tuples(st.floats(0.5, 2.0), angle),
                                min_size=n + 1, max_size=n + 1))
    lifts = [ProjPoint.of_numeric([cmath.exp(1j * th), 1.0]).scaled(cmath.rect(r, ph))
             for th, (r, ph) in zip(thetas, scales)]
    got = eval_det_log(system, basis, lifts, ARCH)
    with mpmath.workdps(60):
        if got is MINUS_INFINITY:
            # only a pair that floats cannot separate loses the witness
            wedges = [abs(mpmath.mpc(xj) * yi - mpmath.mpc(xi) * yj) / (abs(xi) * abs(yj))
                      for a, (xj, yj) in enumerate(pt.lift for pt in lifts)
                      for xi, yi in (pt.lift for pt in lifts[:a])]
            assert min(wedges) < 1e-14
            return
        true = mpmath.log(abs(mpmath.det(mpmath.matrix(_mp_det_rows(basis, lifts)))))
        assert abs(mpmath.mpf(got.arch) - true) <= got.arch_err


@pytest.mark.parametrize("forms,n", [
    (["x0^3 - 5/3*x0*x1^2 + 2*x1^3", "7*x1^3"], 36),
    (["x0^2 - 7/6*x1^2", "x1^2"], 64),
    (["x0^2 + 1/2*x1^2", "x1^2"], 64),
])
def test_roots_of_unity_witness_is_det_c_times_c_to_the_c_half(forms, n):
    # prod_{i<j} |z_j - z_i| = c^(c/2) over the c-th roots of unity; the
    # first two lost their witness to a condition-number cutoff, and the
    # half map's slogdet error estimate was 0.031
    system = DynSystem(parse_map(forms))
    basis = special_basis(system, n)
    c = basis.cn
    got = eval_det_log(system, basis, roots_of_unity_tuple(c), ARCH)
    assert got is not MINUS_INFINITY and got.arch_err <= 1e-9
    coeff_det = abs(basis._coeff_det)
    with mpmath.workdps(40):
        want = (mpmath.log(coeff_det.numerator) - mpmath.log(coeff_det.denominator)
                + mpmath.mpf(c) / 2 * mpmath.log(c))
        assert abs(mpmath.mpf(got.arch) - want) <= got.arch_err


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
        a = eval_det_log(chebyshev, special, lifts, place)
        b = eval_det_log(chebyshev, mono, lifts, place)
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


def test_dbn_witness_preconditions():
    line = DynSystem(parse_map(["x0^2", "x1^2"]), parse_form("x0 - x1", 2))
    fam = special_basis(line, 2)
    bad = [exact([1, 1])] * (len(fam.elements) - 1) + [exact([Fraction(1, 2), 1])]
    with pytest.raises(PreconditionError, match="hypersurface"):
        dbn_witness(line, fam, bad, Place.prime(3))


# P^1 maps with good and bad reduction at 2, 3 and 7
WITNESS_MAPS = [DynSystem(parse_map(forms)) for forms in (
    ["x0^2", "x1^2"], ["x0^2 + 1/2*x1^2", "x1^2"], ["x0^2 - 7/6*x1^2", "x1^2"],
    ["x0^3 + 2*x1^3", "3*x1^3"], ["x0^2 - 7*x0*x1", "49*x1^2"])]
WITNESS_PLACES = [ARCH, Place.prime(2), Place.prime(3), Place.prime(7)]
_small = st.fractions(-12, 12, max_denominator=12)


@st.composite
def _witness_case(draw):
    system = draw(st.sampled_from(WITNESS_MAPS))
    n = draw(st.integers(1, 3))
    xs = draw(st.lists(_small, min_size=n + 1, max_size=n + 1, unique=True))
    lams = draw(st.lists(_small.filter(bool), min_size=n + 1, max_size=n + 1))
    return system, monomial_basis(1, n), [exact([x, 1]) for x in xs], lams


@settings(max_examples=60, deadline=None)
@given(case=_witness_case(), place=st.sampled_from(WITNESS_PLACES))
def test_dbn_witness_is_lift_invariant(case, place):
    system, basis, lifts, lams = case
    tol = 1e-10
    base = dbn_witness(system, basis, lifts, place, tol)
    moved = dbn_witness(system, basis, [pt.scaled(lam) for pt, lam in zip(lifts, lams)],
                        place, tol)
    if not place.is_archimedean and system.reduction(place).good:
        assert moved == base  # exact ledgers: the scaling cancels exactly
    else:
        # at a bad prime the rates are floats, so the scaling moves from the
        # determinant's exact part into the rates' float part
        assert abs(moved.total() - base.total()) <= moved.arch_err + base.arch_err


@settings(max_examples=60, deadline=None)
@given(case=_witness_case(), place=st.sampled_from(WITNESS_PLACES),
       convention=st.sampled_from(["paper", "invariant"]))
def test_dbn_witness_is_r_minus_the_green_value(case, place, convention):
    system, basis, lifts, _ = case
    tol = 1e-10
    r = r_normalized(system.map, place, convention, resultant=system.resultant)
    wit = dbn_witness(system, basis, lifts, place, tol)
    want = r - green_value(system, basis, lifts, place, convention, tol)
    assert wit.padic == want.padic
    assert abs(wit.total() - want.total()) <= wit.arch_err + want.arch_err


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
    res = fekete_search(power_map, mb1, 4000, seed=11)
    assert res.witness.total() >= best - 1e-6
    assert res.witness.total() == pytest.approx(0.5 * math.log(2), abs=1e-9)

    mb2 = monomial_basis(1, 2)
    res = fekete_search(power_map, mb2, 6000, seed=11)
    assert res.witness.total() == pytest.approx(0.25 * math.log(3), abs=1e-6)


def test_fekete_deterministic_and_monotone(power_map):
    mb = monomial_basis(1, 4)
    a = fekete_search(power_map, mb, 3000, seed=5)
    b = fekete_search(power_map, mb, 3000, seed=5)
    assert a.angles == b.angles and a.log_det == b.log_det
    small = fekete_search(power_map, mb, 800, seed=5)
    assert a.witness.total() >= small.witness.total() - 1e-15


def _full_objective(basis, lifts):
    """log|det C| + fsum of every wedge log of the lifts, from scratch."""
    wedges = [abs(a - b) for a, b in _wedge_terms([pt.lift for pt in lifts])]
    if not all(wedges):
        return -math.inf
    return abs_log(ARCH, basis._coeff_det).total() + math.fsum(map(math.log, wedges))


FEKETE_MAPS = {
    "half": ["x0^2 + 1/2*x1^2", "x1^2"],
    "sevensixths": ["x0^2 - 7/6*x1^2", "x1^2"],
    "power": ["x0^2", "x1^2"],
    "cubic": ["x0^3 - 2*x0*x1^2 + 1/5*x1^3", "x1^3"],
}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 7])
@pytest.mark.parametrize("name", sorted(FEKETE_MAPS))
def test_fekete_witness_is_certified_from_its_lifts(name, seed):
    system = DynSystem(parse_map(FEKETE_MAPS[name]))
    basis = special_basis(system, 8)
    n, c = 8, basis.cn
    res = fekete_search(system, basis, 600, seed=seed)
    # a probe rescores only the moved point's wedges; fsum rounds the exact
    # sum once, so the score is the full recomputation bit for bit
    assert res.log_det == _full_objective(basis, res.lifts)
    assert res.witness == dbn_witness(system, basis, res.lifts, ARCH, 1e-12)
    # the lifts were scaled to escape rate 0, so the witness is the
    # search's objective over (n c) up to the escape rates' errors
    assert res.witness.total() == pytest.approx(res.log_det / (n * c), abs=1e-12)
    assert res.witness.arch_err < 2.5e-12


def test_fekete_builds_no_basis_row(half_map, monkeypatch):
    # the objective and the witness both go through the wedges of the lifts
    basis = special_basis(half_map, 8)

    def refuse(*args, **kwargs):
        raise AssertionError("the search evaluated a basis element")

    monkeypatch.setattr(BasisFamily, "row", refuse)
    monkeypatch.setattr(GenElement, "evaluate_at", refuse)
    res = fekete_search(half_map, basis, 600, seed=7)
    assert res.evaluations == 600
    assert res.witness is not MINUS_INFINITY


def test_fekete_budget_covers_the_start(half_map):
    # the Leja start evaluates at least c(n) = 9 angles
    basis = special_basis(half_map, 8)
    with pytest.raises(DomainError, match=r"budget 8 is below c\(n\) = 9"):
        fekete_search(half_map, basis, 8, seed=7)
    assert fekete_search(half_map, basis, 9, seed=7).evaluations == 9


def test_fekete_recovers_from_a_start_with_a_zero_wedge(half_map, monkeypatch):
    class Repeating:
        """Every draw is the midpoint, so the pool holds one angle twice."""

        def __init__(self, seed):
            pass

        def uniform(self, a, b):
            return (a + b) / 2

    monkeypatch.setattr(green_module, "random", types.SimpleNamespace(Random=Repeating))
    basis = special_basis(half_map, 8)
    c = basis.cn
    # budget c + 2 makes a pool of two equal angles, and the Leja start
    # takes both: its objective is -inf, so probes rescore from scratch
    # until one separates the pair, and incrementally after that
    res = fekete_search(half_map, basis, c + 2, seed=0)
    assert res.evaluations == c + 2
    assert math.isfinite(res.log_det)
    assert res.log_det == _full_objective(basis, res.lifts)


def test_fekete_needs_p1_without_chart(power_map_p2):
    from greenfield.basis import monomial_basis as mb
    with pytest.raises(PreconditionError):
        fekete_search(power_map_p2, mb(2, 2), 100, seed=1)


ELKIES_MAPS = {
    "power": ["x0^2", "x1^2"],
    "half": ["x0^2 + 1/2*x1^2", "x1^2"],  # bad at 2
    "sixfifths": ["x0^2 - 6/5*x1^2", "x1^2"],  # bad at 5
    "cubic": ["x0^3 - 5/3*x0*x1^2 + 2*x1^3", "7*x1^3"],  # bad at 3 and 7
}
ELKIES_PLACES = (ARCH, Place.prime(2), Place.prime(3), Place.prime(5), Place.prime(7))


def _tuples(c):
    point = st.tuples(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
                      ).filter(any).map(exact)
    return st.lists(point, min_size=c, max_size=c, unique_by=ProjPoint.key)


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("name", sorted(ELKIES_MAPS))
def test_green_value_above_the_envelope_bound(name, n):
    # Elkies-type inequality, place by place: g_v(P_1..P_c) >=
    # r_v - envelope_v(n) / (n c), because the lift-invariant part of
    # g_v is -(1/(n c)) log|det| on lifts of escape rate 0, which lie in
    # the region the envelope covers.  At good places both sides are
    # exact and the bound can be attained.
    system = DynSystem(parse_map(ELKIES_MAPS[name]))
    fam = special_basis(system, n)
    c = fam.cn
    bounds = {}
    for place in ELKIES_PLACES:
        env = hadamard_envelope(system, n, julia_radius_log(system, place), place)
        r = r_normalized(system.map, place, "invariant", resultant=system.resultant)
        bounds[place] = (r, env / (n * c))

    @settings(max_examples=15)
    @given(_tuples(c))
    def check(lifts):
        for place, (r, env) in bounds.items():
            g = green_value(system, fam, lifts, place)
            if g is PLUS_INFINITY:
                continue
            slack = g.total() - (r.total() - env)
            assert slack >= -(g.arch_err + r.arch_err + 1e-9), (place, slack)
    check()
