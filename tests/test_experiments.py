import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, factor_list
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_sqf_p

from greenfield.basis import BasisFamily, monomial_basis, section_dim, special_basis
from greenfield.dynsys import DynSystem, escape_rate
from greenfield import cli, experiments
from greenfield.errors import DomainError, InternalCheckError, PreconditionError
from greenfield.experiments import (EllipticCurve, LattesSystem, adelic_report,
                                    duplication_map, lehmer_scan,
                                    multiples_search, report_places,
                                    roots_of_unity_tuple, sample_julia_tuple,
                                    transfin_trend)
from greenfield.green import dbn_witness, eval_det_log
from greenfield.homopoly import ProjPoint, evaluate, form_str, parse_form, parse_map
from greenfield.linalg import det_fraction
from greenfield.pffield import MINUS_INFINITY, Place, support

ARCH = Place.archimedean()


@pytest.fixture()
def half_cfg_path(tmp_path):
    path = tmp_path / "half.json"
    path.write_text('{"N": 1, "d": 2, "forms": ["x0^2 + 1/2*x1^2", "x1^2"]}')
    return str(path)


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
    with pytest.raises(PreconditionError, match="6·P is the identity"):
        L.orbit(6)
    # (2, 3) has order 6: x(P) = x(5P) and x(2P) = x(4P)
    with pytest.raises(PreconditionError, match="orbit points 1 and 5 coincide"):
        L.orbit(5)


def _group_law_orbit(lattes, bound):
    """`orbit(bound)`'s lifts or error text, from the group law: each x(kP)
    by `x_of_multiple`, then the first repeated pair in pairwise-scan order."""
    try:
        lifts = [lattes.x_of_multiple(k).lift for k in range(1, bound + 1)]
    except PreconditionError as exc:
        return str(exc)
    pairs = [(i, j) for j in range(bound) for i in range(j) if lifts[i] == lifts[j]]
    if pairs:
        i, j = min(pairs)
        return f"orbit points {i + 1} and {j + 1} coincide: torsion base point"
    return lifts


def _x_only_orbit(lattes, bound):
    try:
        return [pt.lift for pt in lattes.orbit(bound)]
    except PreconditionError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(xn=st.integers(-9, 9), xd=st.integers(1, 5), yn=st.integers(1, 9),
       yd=st.integers(1, 5), an=st.integers(-9, 9), ad=st.integers(1, 5),
       bound=st.integers(0, 30))
def test_x_only_orbit_matches_the_group_law(xn, xd, yn, yd, an, ad, bound):
    # drawn like acceptance criterion 09's group-law oracle: b puts (x0, y0) on the curve
    x0, y0, a = Fraction(xn, xd), Fraction(yn, yd), Fraction(an, ad)
    b = y0 * y0 - x0**3 - a * x0
    assume(4 * a**3 + 27 * b**2 != 0)
    L = LattesSystem(EllipticCurve(a, b), (x0, y0))
    assert _x_only_orbit(L, bound) == _group_law_orbit(L, bound)


@pytest.mark.parametrize("a, b, point, order", [
    (0, 1, (2, 3), 6), (0, 1, (0, 1), 3), (0, 1, (-1, 0), 2), (-43, 166, (3, 8), 7),
    (-1, 1, (0, 1), None),  # x(P) = 0 on a point of infinite order
])
def test_x_only_orbit_on_torsion_and_zero_points(a, b, point, order):
    L = LattesSystem(EllipticCurve(a, b), point)
    for bound in range(0, 2 * (order or 15) + 1):
        assert _x_only_orbit(L, bound) == _group_law_orbit(L, bound), bound
    if order is not None:
        with pytest.raises(PreconditionError, match=f"^{order}·P is the identity"):
            L.orbit(order)


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
    # the pairwise scan met (1, 5) before (2, 4); the last entry is
    # another lift of the first point
    a, b, c = orbit
    with pytest.raises(PreconditionError, match="orbit entries 1 and 5 are projectively equal"):
        multiples_search(mordell_lattes.system, [a, b, c, b, a.scaled(-2)], 2)


def _no_rows(self, system, point):
    raise AssertionError("an evaluation row was built")


def test_multiples_search_on_p1_builds_no_rows(mordell_lattes, monkeypatch):
    # distinct points on P^1 are independent, so the orbit's first c(n)
    # entries are kept without evaluating the basis
    n = 12
    cn = section_dim(mordell_lattes.system, n)
    orbit = mordell_lattes.orbit(2 * n + cn)
    monkeypatch.setattr(BasisFamily, "row", _no_rows)
    res = multiples_search(mordell_lattes.system, orbit, n)
    assert res.indices == list(range(1, cn + 1))
    assert res.determinant != 0


def test_sample_julia_tuple_on_p1_builds_no_rows(half_map, monkeypatch):
    basis = special_basis(half_map, 8)
    monkeypatch.setattr(BasisFamily, "row", _no_rows)
    lifts = sample_julia_tuple(half_map, basis)
    assert len(lifts) == basis.cn
    assert basis.det(half_map, lifts) != 0


def test_multiples_search_reports_rank_failure(mordell_lattes):
    # two points cannot reach rank 3
    orbit = mordell_lattes.orbit(2)
    with pytest.raises(PreconditionError, match="rank 2 of 3"):
        multiples_search(mordell_lattes.system, orbit, 2)


def test_sample_julia_tuple(power_map, half_map):
    basis = monomial_basis(1, 3)
    for system in (power_map, half_map):
        lifts = sample_julia_tuple(system, basis)
        assert len(lifts) == 4
        for place in (ARCH, Place.prime(2), Place.prime(5)):
            wit = dbn_witness(system, basis, lifts, place)
            assert wit is not MINUS_INFINITY


def _scaled_into_k(system, place, lift, tol):
    """The lift rescaled by a whole power of 2 (at infinity) or p so its
    escape rate is certifiably <= 0, with a rounding margin for a float
    ledger: how grid tuples were put into the filled Julia set before
    `dbn_witness` took lifts off it."""
    rate = escape_rate(system, place, lift, tol)
    if rate.total() + rate.arch_err <= 0:
        return lift
    b = 2 if place.is_archimedean else place.p
    m = math.ceil(rate.padic.get(place.p, 0))
    upper = rate.arch + rate.arch_err
    if upper:
        m += math.ceil(upper / math.log(b) + 1e-12) + 1
    return lift.scaled(Fraction(1, 2**m) if place.is_archimedean else Fraction(b) ** m)


def test_grid_witness_is_no_lower_than_with_lifts_scaled_into_k(half_map):
    # scaling a lift by lambda with log|lambda| <= -H(P) moves (1/(n c)) log|det|
    # by log|lambda| / c, which the ledger's -H(P) / c bounds from above
    bad = [p for p in report_places(half_map) if not p.is_archimedean]
    assert bad == [Place.prime(2)]
    for n in (4, 8, 16):
        basis = special_basis(half_map, n)
        lifts = sample_julia_tuple(half_map, basis)
        for place in bad:
            new = dbn_witness(half_map, basis, lifts, place)
            inside = [_scaled_into_k(half_map, place, pt, 1e-9) for pt in lifts]
            old = eval_det_log(half_map, basis, inside, place).scale(
                Fraction(1, n * basis.cn))
            assert old.total() <= new.total()


def test_adelic_report_power_map(power_map):
    report = adelic_report(power_map, [2, 4, 8], budget=1500, seed=3)
    assert report["places"] == ["inf"]  # Res = 1, unit coefficients
    for entry in report["entries"]:
        for place, env in entry["envelopes"].items():
            wit = entry["witnesses"][place]
            assert wit is None or wit <= env + 1e-9
    # fitted constants stable and the scaled envelope decreasing
    sums = [e["envelope_sum"] for e in report["entries"]]
    assert all(sums[i + 1] <= sums[i] + 1e-12 for i in range(len(sums) - 1))
    assert report["schema"] == "greenfield-report/1"
    assert all("witness_notes" not in e for e in report["entries"])  # none missing


def test_adelic_report_half_map(half_map):
    report = adelic_report(half_map, [4, 8], budget=1200, seed=3)
    # bad places are exactly 2 and infinity
    assert set(report["places"]) == {"inf", "p=2"}
    for entry in report["entries"]:
        assert entry["envelopes"]["p=2"] > 0.0
        assert entry["envelopes"]["inf"] > 0.0
        for place, env in entry["envelopes"].items():
            wit = entry["witnesses"][place]
            assert wit is None or wit <= env + 1e-9


def test_adelic_report_notes_a_hypersurface_on_p1():
    # P^1 with a hypersurface: the angle chart's points are not on X
    line = DynSystem(parse_map(["x0^2", "x1^2"]), parse_form("x0 - x1", 2))
    for entry in adelic_report(line, [2, 3], budget=50)["entries"]:
        assert entry["witnesses"]["inf"] is None
        assert entry["witness_notes"]["inf"] == "the angle chart needs X = P^1"


def test_transfin_trend_notes_the_roots_of_unity_off_p1(power_map_p2):
    conic = DynSystem(parse_map(["x0^2", "x1^2", "x2^2"]), parse_form("x0*x2 - x1^2", 3))
    for system in (power_map_p2, conic):
        (row,) = transfin_trend(system, [2], places=[ARCH])
        assert row["envelope_logd"] is not None and row["witness_logd"] is None
        assert row["witness_note"] == "the roots-of-unity tuple needs X = P^1"


def test_grid_exhaustion_is_a_witness_note(half_map, monkeypatch):
    monkeypatch.setattr(experiments, "MAX_GRID_TRIES", 1)
    entry = adelic_report(half_map, [4], budget=300, seed=3)["entries"][0]
    assert entry["witnesses"]["p=2"] is None
    assert "within 1 grid points" in entry["witness_notes"]["p=2"]


def test_internal_check_error_escapes_the_witness_notes(half_map, half_cfg_path,
                                                        monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalCheckError("broken certificate")

    monkeypatch.setattr(experiments, "dbn_witness", broken)
    with pytest.raises(InternalCheckError, match="broken certificate"):
        adelic_report(half_map, [4], budget=300, seed=3)
    assert cli.run(["adelic-report", half_cfg_path, "--n", "4", "--budget", "300"]) == 1
    assert "broken certificate" in capsys.readouterr().err


def test_witness_above_the_envelope_fails_in_both_reports(power_map, half_map,
                                                          monkeypatch):
    # both reports enforce witness <= envelope; the trend checks it with
    # roots of unity at infinity and with a grid tuple at p = 2
    monkeypatch.setattr(experiments, "hadamard_envelope", lambda *args: -1e9)
    with pytest.raises(InternalCheckError, match="exceeds envelope"):
        adelic_report(half_map, [2], budget=50, seed=3)
    for system, place in ((power_map, ARCH), (half_map, Place.prime(2))):
        with pytest.raises(InternalCheckError, match="exceeds envelope"):
            transfin_trend(system, [2], places=[place])


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
        total = eval_det_log(power_map, basis, lifts, ARCH)
        for place in sorted(support(det)):
            if not place.is_archimedean:
                total = total + eval_det_log(power_map, basis, lifts, place)
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


def test_transfin_trend_matches_adelic_report_at_finite_places(half_map):
    # the first two have no rational scaling with a unit resultant
    # (ord_v Res = 2 and 3 against (N+1)d^N = 4 and 6); both reports read
    # the same rows, so those places get a witness too
    cases = ((DynSystem(parse_map(["2*x0^2", "x1^2"])), 2),
             (DynSystem(parse_map(["x0^3 + 2*x1^3", "3*x1^3"])), 3),
             (half_map, 2))
    for system, p in cases:
        place = Place.prime(p)
        report = adelic_report(system, [2, 4, 8], budget=50, seed=3)
        rows = transfin_trend(system, [2, 4, 8], places=[place])
        assert len(rows) == len(report["entries"]) == 3
        for row, entry in zip(rows, report["entries"]):
            assert row["n"] == entry["n"] and "witness_note" not in row
            assert row["envelope_logd"] == entry["envelopes"][repr(place)]
            assert row["witness_logd"] == entry["witnesses"][repr(place)]
            assert row["witness_logd"] <= row["envelope_logd"]
        # by default the trend covers the report's places
        assert [row["place"] for row in transfin_trend(system, [2])] == report["places"]
    (row,) = transfin_trend(cases[0][0], [2], places=[Place.prime(2)])
    assert row["witness_logd"] == 0.23104906007905782
    assert row["envelope_logd"] == 1.7328679513998633


def test_roots_of_unity_tuple():
    lifts = roots_of_unity_tuple(5)
    assert len(lifts) == 5
    vals = [pt.lift[0] for pt in lifts]
    assert all(abs(abs(v) - 1) < 1e-14 for v in vals)


def test_lehmer_scan(mordell_lattes):
    table = lehmer_scan(mordell_lattes, [0, 1], tol=1e-9)
    h0 = table["base_height"]
    assert h0 > 0.5
    assert table["rows"][0]["degree"] == 1
    assert table["rows"][0]["height"] == h0
    total_degree = sum(r["degree"] * r["multiplicity"] for r in table["rows"] if r["depth"] == 1)
    assert total_degree == 4
    for r in table["rows"]:
        assert r["height"] * 4**r["depth"] == pytest.approx(h0, rel=1e-15)
        assert r["shape"] > 0
        assert r["height"] >= -1e-9
    assert table["min_shape"] > 0


def test_lehmer_scan_depth_guard(mordell_lattes, monkeypatch):
    # every depth is checked before any height or factorization work
    def no_work(*_args):
        raise AssertionError("work done before the depths were checked")

    monkeypatch.setattr(experiments, "canonical_height", no_work)
    monkeypatch.setattr(experiments, "_preimage_factors", no_work)
    for depths in ([4], [0, 1, 2, 4], [-1, 1]):
        with pytest.raises(DomainError, match=r"outside \[0, 3\]"):
            lehmer_scan(mordell_lattes, depths, tol=1e-9)


Z = Symbol("z")


@settings(max_examples=300)
@given(st.lists(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10**50, 10**50)),
                min_size=1, max_size=21))
def test_poly_str_prints_as_sympy(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = 1
    g = math.gcd(*coeffs) * (1 if coeffs[0] > 0 else -1)
    coeffs = [c // g for c in coeffs]
    assert experiments._poly_str(coeffs) == str(Poly(coeffs, Z).as_expr())


def test_poly_str_takes_only_primitive_polynomials_led_by_a_positive_coefficient():
    # sympy prints -z + 5 as "5 - z"; the formatter does not copy that
    for coeffs in ([-1, 5], [2, 4], [0, 1], [-3]):
        with pytest.raises(InternalCheckError):
            experiments._poly_str(coeffs)


def _iterate_equation(lattes, depth):
    """den·F^k_0(z, 1) - num·F^k_1(z, 1) over QQ, x(P) = num/den, from the
    symbolic iterate F^k."""
    x0 = lattes.base_point[0]
    fk = lattes.system.iterate(depth)
    form = fk.forms[0].scale(x0.denominator) - fk.forms[1].scale(x0.numerator)
    return Poly(sum(c * Z**i for (i, _j), c in form.coeffs.items()), Z, domain="QQ")


def _sympy_preimage_factors(lattes, depth):
    """The factorization over QQ through sympy's expression layer."""
    _const, factors = factor_list(_iterate_equation(lattes, depth))
    return [(str(Poly(f, Z, domain="QQ").as_expr()), mult) for f, mult in factors]


def _factor_lists(lattes, max_depth):
    """Depth 1..max_depth factor lists, each computed from the one before
    it as `lehmer_scan` does; index k holds depth k."""
    x0 = lattes.base_point[0]
    lists = [[([x0.denominator, -x0.numerator], 1)]]
    for depth in range(1, max_depth + 1):
        lists.append(experiments._preimage_factors(lattes, depth, lists[-1]))
    return lists


def _lattes(a, x0, y0) -> LattesSystem:
    """Duplication on y^2 = x^3 + ax + b, b chosen so that (x0, y0) is on it."""
    x0, y0 = Fraction(x0), Fraction(y0)
    return LattesSystem(EllipticCurve(Fraction(a), y0**2 - x0**3 - a * x0), (x0, y0))


@st.composite
def _small_lattes(draw):
    """Lattes systems through a small point; a = 0 is drawn directly, and a
    flag draws b = 0 (y^2 = x^3 + ax through the point)."""
    a = draw(st.integers(-4, 4))
    x0 = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 4])))
    y0 = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 8])))
    if draw(st.booleans()) and x0 != 0:
        a = (y0**2 - x0**3) / x0
    try:
        return _lattes(a, x0, y0)
    except DomainError:  # a singular curve
        assume(False)


GOLDEN_LATTES = _lattes(0, 3, 5)  # y^2 = x^3 - 2, P = (3, 5): the golden curve
J1728_LATTES = _lattes(-2, 2, 2)  # y^2 = x^3 - 2x, P = (2, 2): j = 1728
# 2·(3, 5) on the golden curve: g_1 = 1·3, a reducible parent
DOUBLED_LATTES = _lattes(0, Fraction(129, 100), Fraction(-383, 1000))


@settings(max_examples=40)
@given(_small_lattes())
@example(GOLDEN_LATTES)
@example(J1728_LATTES)
def test_preimage_factors_match_sympy_over_qq(lattes):
    lists = _factor_lists(lattes, 2)
    for depth in (1, 2):
        ours = [(experiments._poly_str(f), mult) for f, mult in lists[depth]]
        assert ours == _sympy_preimage_factors(lattes, depth)


@settings(max_examples=20)
@given(_small_lattes())
@example(GOLDEN_LATTES)
@example(J1728_LATTES)
@example(DOUBLED_LATTES)
@example(_lattes(0, 1, 0))  # y^2 = x^3 - 1, P = (1, 0) of order 2: each g_k is a square
def test_preimage_factors_multiply_to_the_iterate_equation(lattes):
    # g_k from its parent alone agrees with the symbolic F^k at every depth
    for depth, factors in enumerate(_factor_lists(lattes, 3)[1:], 1):
        product = math.prod((Poly(f, Z) ** mult for f, mult in factors), start=Poly(1, Z))
        _den, poly = _iterate_equation(lattes, depth).clear_denoms(convert=True)
        assert product == poly.primitive()[1]


def test_lehmer_scan_builds_no_iterate(mordell_lattes, monkeypatch):
    def no_iterate(*_args):
        raise AssertionError("the scan composed F^k")

    monkeypatch.setattr(DynSystem, "iterate", no_iterate)
    table = lehmer_scan(mordell_lattes, [0, 1, 2, 3], tol=1e-9)
    assert [sum(r["degree"] * r["multiplicity"] for r in table["rows"] if r["depth"] == d)
            for d in range(4)] == [1, 4, 16, 64]


@pytest.mark.parametrize("a, point, degrees, certified", [
    (-36, (12, 36), ([4], [8, 8]), None),  # g_2 splits, so no certificate applies
    (Fraction(-81, 8), (-2, Fraction(7, 2)), ([4], [4, 4, 8]), None),
    (-2, (2, 2), ([4], [16]), False),  # irreducible, but the patterns never decide
    (0, (3, 5), ([4], [16]), True),  # the golden curve y^2 = x^3 - 2
    (0, (Fraction(129, 100), Fraction(-383, 1000)), ([1, 3], [4, 12]), None),  # 2·(3, 5)
])
def test_degree_pattern_certificate_and_its_fallback(a, point, degrees, certified):
    lattes = _lattes(a, *point)
    lists = _factor_lists(lattes, 2)
    for depth in (1, 2):
        assert sorted(len(f) - 1 for f, _mult in lists[depth]) == degrees[depth - 1]
        assert [(experiments._poly_str(f), mult) for f, mult in lists[depth]] == \
            _sympy_preimage_factors(lattes, depth)
    if certified is not None:
        g2 = lists[2][0][0]
        assert experiments._certified_irreducible(lattes, lists[1][0][0], g2) is certified


def test_degree_patterns_read_only_squarefree_reductions(mordell_lattes, monkeypatch):
    # y(P) = 5 makes g_1 = z^4 - 12z^3 + 16z + 24 a non-squarefree polynomial
    # mod 5, where F has good reduction; distinct-degree factorization
    # misreads the degrees of a polynomial with repeated factors
    primes = []

    def ddf(f, p, K):
        assert gf_sqf_p(f, p, K)
        primes.append(p)
        return gf_ddf_zassenhaus(f, p, K)

    monkeypatch.setattr(experiments, "gf_ddf_zassenhaus", ddf)
    assert [len(f) - 1 for f, _mult in _factor_lists(mordell_lattes, 2)[2]] == [16]
    assert primes and 5 not in primes


def test_lehmer_scan_depths_without_their_predecessor(mordell_lattes, monkeypatch):
    # each depth is factored once per scan, from the depth before it, and
    # the rows of a depth do not depend on which other depths are listed
    calls = []
    factor = experiments._preimage_factors

    def counted(lattes, depth, parent):
        calls.append(depth)
        return factor(lattes, depth, parent)

    monkeypatch.setattr(experiments, "_preimage_factors", counted)
    full = lehmer_scan(mordell_lattes, [0, 1, 2], tol=1e-9)
    assert calls == [1, 2]
    for depths in ([2], [1, 2], [2, 1]):
        calls.clear()
        table = lehmer_scan(mordell_lattes, depths, tol=1e-9)
        assert calls == [1, 2]
        for d in depths:
            assert [r for r in table["rows"] if r["depth"] == d] == \
                [r for r in full["rows"] if r["depth"] == d]
    calls.clear()
    lehmer_scan(mordell_lattes, [0], tol=1e-9)
    assert calls == []


def test_lehmer_scan_rejects_torsion():
    L = LattesSystem(EllipticCurve(Fraction(0), Fraction(1)), (Fraction(2), Fraction(3)))
    with pytest.raises(PreconditionError):
        lehmer_scan(L, [0], tol=1e-9)


def test_multiples_search_reproducible(mordell_lattes):
    orbit = mordell_lattes.orbit(7)
    a = multiples_search(mordell_lattes.system, orbit, 2)
    b = multiples_search(mordell_lattes.system, orbit, 2)
    assert a.indices == b.indices and a.determinant == b.determinant
