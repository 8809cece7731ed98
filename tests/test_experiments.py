import math
import random
from fractions import Fraction

import pytest

from greenfield.basis import monomial_basis, section_dim
from greenfield.dynsys import DynSystem
from greenfield.errors import DomainError, PreconditionError
from greenfield.experiments import (EllipticCurve, LattesSystem, adelic_report,
                                    duplication_map, lehmer_scan,
                                    multiples_search, roots_of_unity_tuple,
                                    sample_julia_tuple, scale_into_julia,
                                    transfin_trend)
from greenfield.green import dbn_witness, eval_det_log
from greenfield.homopoly import ProjPoint, evaluate, form_str, parse_map
from greenfield.linalg import det_fraction
from greenfield.pffield import MINUS_INFINITY, Place, support

ARCH = Place.archimedean()


def test_curve_validation_and_group_law():
    with pytest.raises(DomainError):
        EllipticCurve(Fraction(0), Fraction(0))
    E = EllipticCurve(Fraction(0), Fraction(-2))
    P = (Fraction(3), Fraction(5))
    assert E.contains(P)
    assert not E.contains((Fraction(3), Fraction(4)))
    twoP = E.add(P, P)
    assert twoP == (Fraction(129, 100), Fraction(-383, 1000))
    assert E.add(P, E.neg(P)) is None
    assert E.mul(3, P) == E.add(P, twoP)
    assert E.mul(-2, P) == E.neg(twoP)


def test_torsion_structure_on_mordell_curve():
    # (2, 3) has order 6 on y^2 = x^3 + 1
    E = EllipticCurve(Fraction(0), Fraction(1))
    P = (Fraction(2), Fraction(3))
    orders = {k: E.mul(k, P) for k in range(1, 7)}
    assert orders[6] is None
    assert all(orders[k] is not None for k in range(1, 6))


def test_duplication_map_formula():
    a, b = Fraction(-1), Fraction(3)
    pm = duplication_map(a, b)
    assert form_str(pm.forms[0]) == "x0^4 + 2*x0^2*x1^2 - 24*x0*x1^3 + x1^4"
    assert form_str(pm.forms[1]) == "4*x0^3*x1 - 4*x0*x1^3 + 12*x1^4"


def test_group_law_matches_x_map_on_random_curves():
    # b is chosen so that a random (x0, y0) lies on the curve
    rng = random.Random(50)
    checked = 0
    while checked < 50:
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        y0 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = y0 * y0 - x0**3 - a * x0
        if 4 * a**3 + 27 * b**2 == 0:
            continue
        E = EllipticCurve(a, b)
        P = (x0, y0)
        dbl = E.add(P, P)
        if dbl is None:
            continue
        pm = duplication_map(a, b)
        img = pm(ProjPoint.exact([x0, 1]))
        assert img.lift[0] / img.lift[1] == dbl[0]
        checked += 1


def test_lattes_system_validation():
    with pytest.raises(DomainError):
        LattesSystem(EllipticCurve(Fraction(0), Fraction(-2)), (Fraction(3), Fraction(4)))
    L = LattesSystem(EllipticCurve(Fraction(0), Fraction(-2)), (Fraction(3), Fraction(5)))
    assert L.system.resultant != 0
    assert L.x_of_multiple(2).lift[0] == Fraction(129, 100)


def test_orbit_rejects_torsion():
    L = LattesSystem(EllipticCurve(Fraction(0), Fraction(1)), (Fraction(2), Fraction(3)))
    with pytest.raises(PreconditionError):
        L.orbit(6)


def test_multiples_search_examples(mordell_lattes):
    orbit = mordell_lattes.orbit(7)
    res = multiples_search(mordell_lattes.system, orbit, 2)
    assert res.indices == [1, 2, 3]
    assert res.determinant != 0
    res1 = multiples_search(mordell_lattes.system, orbit, 1)
    assert res1.indices == [1, 2]


def test_multiples_search_within_lemma_bound(mordell_lattes):
    for n in (1, 2, 3, 4):
        cn = section_dim(mordell_lattes.system, n)
        bound = 2 * n + cn
        orbit = mordell_lattes.orbit(bound)
        res = multiples_search(mordell_lattes.system, orbit, n)
        assert len(res.indices) == cn
        assert res.indices[-1] <= bound
        assert res.determinant != 0


def test_multiples_search_rejects_duplicates(mordell_lattes):
    orbit = mordell_lattes.orbit(3)
    with pytest.raises(PreconditionError, match="projectively equal"):
        multiples_search(mordell_lattes.system, orbit + [orbit[0]], 2)


def test_multiples_search_reports_rank_failure(mordell_lattes):
    # two points cannot reach rank 3
    orbit = mordell_lattes.orbit(2)
    with pytest.raises(PreconditionError, match="rank 2 of 3"):
        multiples_search(mordell_lattes.system, orbit, 2)


def test_scale_into_julia(power_map, half_map):
    for system, place in ((power_map, ARCH), (power_map, Place.prime(2)),
                          (half_map, ARCH), (half_map, Place.prime(2))):
        lift = ProjPoint.exact([7, 1])
        from greenfield.dynsys import Membership, julia_membership
        scaled = scale_into_julia(system, place, lift, 1e-9)
        assert julia_membership(system, place, scaled, 1e-9) is not Membership.OUTSIDE


def test_sample_julia_tuple(power_map, half_map):
    basis = monomial_basis(1, 3)
    for system in (power_map, half_map):
        for place in (ARCH, Place.prime(2), Place.prime(5)):
            lifts = sample_julia_tuple(system, basis, place)
            assert len(lifts) == 4
            wit = dbn_witness(system, basis, lifts, place)
            assert wit is not MINUS_INFINITY


def test_adelic_report_power_map(power_map):
    report = adelic_report(power_map, [2, 4, 8], budget=1500, seed=3)
    assert report.places == ["inf"]  # Res = 1, unit coefficients
    for entry in report.entries:
        for place, env in entry.envelopes.items():
            wit = entry.witnesses[place]
            assert wit is None or wit <= env + 1e-9
    # fitted constants stable and the scaled envelope decreasing
    sums = [e.envelope_sum for e in report.entries]
    assert all(sums[i + 1] <= sums[i] + 1e-12 for i in range(len(sums) - 1))
    d = report.to_dict()
    assert d["schema"] == "greenfield-report/1"


def test_adelic_report_half_map(half_map):
    report = adelic_report(half_map, [4, 8], budget=1200, seed=3)
    # bad places are exactly 2 and infinity
    assert set(report.places) == {"inf", "p=2"}
    for entry in report.entries:
        assert entry.envelopes["p=2"] > 0.0
        assert entry.envelopes["inf"] > 0.0
        for place, env in entry.envelopes.items():
            wit = entry.witnesses[place]
            assert wit is None or wit <= env + 1e-9


def test_adelic_product_formula_for_exact_tuples(power_map):
    # sum over places of (1/(n c)) log|det|_v vanishes: exact on the
    # p-adic ledger, tiny float residual at infinity
    rng = random.Random(8)
    basis = monomial_basis(1, 2)
    lifts = []
    while len(lifts) < 3:
        cand = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
        if any(cand):
            lifts.append(ProjPoint.exact(cand))
    rows = [[evaluate(el.expanded, pt) for el in basis.elements] for pt in lifts]
    det = det_fraction(rows)
    if det != 0:
        from sympy import factorint
        total = eval_det_log(power_map, basis, lifts, ARCH).value
        for place in sorted(support(det)):
            if not place.is_archimedean:
                total = total + eval_det_log(power_map, basis, lifts, place).value
        # symbolic part is exactly minus the factorization of |det|
        expect = {p: -Fraction(e) for p, e in factorint(det.numerator).items() if p > 1}
        for p, e in factorint(det.denominator).items():
            expect[p] = expect.get(p, Fraction(0)) + e
        assert total.padic == {p: q for p, q in expect.items() if q}
        assert abs(total.total()) <= 1e-9


def test_transfin_trend_power_map(power_map):
    rows = transfin_trend(power_map, [2, 4, 8], places=[ARCH, Place.prime(7)])
    for row in rows:
        if row["place"] == "p=7":
            assert row["envelope_logd"] == 0.0
            if row.get("witness_logd") is not None:
                assert row["witness_logd"] <= 0.0
        else:
            n = row["n"]
            assert row["witness_logd"] == pytest.approx(
                math.log(n + 1) / (2 * n), abs=1e-9)
    # envelope trend at infinity decays
    env_inf = [r["envelope_logd"] for r in rows if r["place"] == "inf"]
    assert env_inf[0] >= env_inf[-1]


def test_transfin_trend_skips_extension_places():
    system = DynSystem(parse_map(["2*x0^2", "x1^2"]))  # ord_2 Res = 2, w = 4
    rows = transfin_trend(system, [2], places=[Place.prime(2)])
    assert rows[0].get("skipped")


def test_roots_of_unity_tuple():
    lifts = roots_of_unity_tuple(5)
    assert len(lifts) == 5
    vals = [pt.lift[0] for pt in lifts]
    assert all(abs(abs(v) - 1) < 1e-14 for v in vals)


def test_lehmer_scan(mordell_lattes):
    table = lehmer_scan(mordell_lattes, [0, 1], tol=1e-9)
    h0 = table.base_height.value
    assert h0 > 0.5
    assert table.rows[0].degree == 1
    assert table.rows[0].height == h0
    total_degree = sum(r.degree * r.multiplicity for r in table.rows if r.depth == 1)
    assert total_degree == 4
    for r in table.rows:
        assert r.height * 4**r.depth == pytest.approx(h0, rel=1e-15)
        assert r.shape > 0
        assert r.height >= -1e-9
    assert table.min_shape > 0


def test_lehmer_scan_depth_guard(mordell_lattes):
    with pytest.raises(DomainError):
        lehmer_scan(mordell_lattes, [4], tol=1e-9)


def test_lehmer_scan_rejects_torsion():
    L = LattesSystem(EllipticCurve(Fraction(0), Fraction(1)), (Fraction(2), Fraction(3)))
    with pytest.raises(PreconditionError):
        lehmer_scan(L, [0], tol=1e-9)


def test_multiples_search_reproducible(mordell_lattes):
    orbit = mordell_lattes.orbit(7)
    a = multiples_search(mordell_lattes.system, orbit, 2)
    b = multiples_search(mordell_lattes.system, orbit, 2)
    assert a.indices == b.indices and a.determinant == b.determinant
