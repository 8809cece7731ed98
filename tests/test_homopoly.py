import math
import random
from fractions import Fraction

import pytest

from greenfield.errors import DimensionMismatch, DomainError, InputError
from greenfield.homopoly import (HomoForm, PolyMap, ProjPoint, coeff_sup_log,
                                 compose, evaluate, form_str, iterate,
                                 monomials_of_degree, parse_form, parse_map)
from greenfield.pffield import Place


def rand_form(rng, nvars, degree, nterms=3, coef_bound=9):
    coeffs = {}
    monos = monomials_of_degree(nvars, degree)
    for expo in rng.sample(monos, min(nterms, len(monos))):
        coeffs[expo] = Fraction(rng.randint(-coef_bound, coef_bound))
    if not any(coeffs.values()):
        coeffs[monos[0]] = Fraction(1)
    return HomoForm(nvars, degree, coeffs)


def rand_map(rng, nvars, degree):
    while True:
        forms = [rand_form(rng, nvars, degree) for _ in range(nvars)]
        if not all(f.is_zero() for f in forms):
            return PolyMap(forms)


def rand_point(rng, nvars):
    while True:
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(nvars)]
        if any(coords):
            return ProjPoint.exact(coords)


def test_evaluate_examples():
    f = parse_form("x0^2 + 3*x1^2", 2)
    assert evaluate(f, ProjPoint.exact([1, 2])) == 13
    g = parse_form("x0*x1", 2)
    assert evaluate(g, ProjPoint.exact([3, Fraction(1, 3)])) == 1


def test_evaluate_at_origin_like_lift_rejected():
    with pytest.raises(DomainError):
        ProjPoint.exact([0, 0])


def test_evaluate_dimension_mismatch():
    f = parse_form("x0^2", 1)
    with pytest.raises(DimensionMismatch):
        evaluate(f, ProjPoint.exact([1, 2]))


def test_homogeneity_exact():
    rng = random.Random(2)
    for _ in range(25):
        nvars = rng.choice([2, 3])
        deg = rng.randint(1, 4)
        f = rand_form(rng, nvars, deg)
        pt = rand_point(rng, nvars)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        assert evaluate(f, pt.scaled(lam)) == lam**deg * evaluate(f, pt)


def test_compose_examples():
    pw = parse_map(["x0^2", "x1^2"])
    assert compose(pw, pw) == parse_map(["x0^4", "x1^4"])
    cheb = parse_map(["x0^2 - 2*x1^2", "x1^2"])
    sq = compose(cheb, cheb)
    assert sq == PolyMap([
        parse_form("x0^4 - 4*x0^2*x1^2 + 2*x1^4", 2),
        parse_form("x1^4", 2),
    ])


def test_compose_matches_pointwise_evaluation():
    rng = random.Random(4)
    for _ in range(10):
        nvars = rng.choice([2, 3])
        f = rand_map(rng, nvars, 2)
        g = rand_map(rng, nvars, 2)
        fg = compose(f, g)
        assert fg.degree == 4
        for _ in range(5):
            pt = rand_point(rng, nvars)
            inner = [evaluate(q, pt) for q in g.forms]
            expect = [evaluate(q, ProjPoint.exact(inner)) if any(inner) else 0
                      for q in f.forms]
            got = [evaluate(q, pt) for q in fg.forms]
            assert got == expect


def test_compose_associative_via_evaluation():
    rng = random.Random(9)
    for _ in range(5):
        a = rand_map(rng, 2, 2)
        b = rand_map(rng, 2, 2)
        c = rand_map(rng, 2, 2)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        for _ in range(10):
            pt = rand_point(rng, 2)
            assert [evaluate(f, pt) for f in left.forms] == \
                   [evaluate(f, pt) for f in right.forms]


def test_iterate_examples():
    pw = parse_map(["x0^2", "x1^2"])
    assert iterate(pw, 3) == parse_map(["x0^8", "x1^8"])
    with pytest.raises(DomainError):
        iterate(pw, 0)


def test_iterate_degree_and_evaluation_oracle():
    rng = random.Random(6)
    for _ in range(6):
        d = rng.choice([2, 3])
        f = rand_map(rng, 2, d)
        for k in (2, 3, 4):
            fk = iterate(f, k)
            assert fk.degree == d**k
        f2 = iterate(f, 2)
        for _ in range(20):
            pt = rand_point(rng, 2)
            mid = [evaluate(q, pt) for q in f.forms]
            if not any(mid):
                continue  # pt hits a common zero of a non-morphism draw
            expect = [evaluate(q, ProjPoint.exact(mid)) for q in f.forms]
            assert [evaluate(q, pt) for q in f2.forms] == expect


def test_coeff_sup_log_examples():
    pw = parse_map(["x0^2", "x1^2"])
    for p in (2, 3, 5):
        assert coeff_sup_log(pw, Place.prime(p)).is_zero()
    half = parse_map(["x0^2 + 1/2*x1^2", "x1^2"])
    assert coeff_sup_log(half, Place.prime(2)).padic == {2: Fraction(1)}
    three = parse_map(["3*x0^2", "x1^2"])
    assert coeff_sup_log(three, Place.archimedean()).arch == pytest.approx(math.log(3))


def test_numeric_evaluation_accuracy():
    f = parse_form("x0^2 - 2*x1^2", 2)
    val = evaluate(f, ProjPoint.of_numeric([1 + 1j, 0.5]))
    assert val == pytest.approx((1 + 1j) ** 2 - 0.5, abs=1e-14)


def test_modes_never_mix():
    with pytest.raises(DomainError):
        ProjPoint.exact([1.5, 1])
    p = ProjPoint.of_numeric([1.0, 2.0])
    assert p.numeric
    with pytest.raises(DomainError):
        ProjPoint.of_numeric([0, 0])


def test_serialize_parse_roundtrip_bytewise():
    rng = random.Random(8)
    for _ in range(40):
        nvars = rng.choice([2, 3])
        f = rand_form(rng, nvars, rng.randint(1, 5), nterms=4)
        text = form_str(f)
        again = parse_form(text, nvars)
        assert form_str(again) == text
        assert again == f


def test_parse_form_rejects_bad_input():
    for bad, nv in (("x0^2 + x1", 2), ("x5", 2), ("2**x0", 2), ("", 2), ("x0 @ x1", 2),
                    ("1/0*x0", 2)):
        with pytest.raises(InputError):
            parse_form(bad, nv)


def test_parse_form_accepts_spec_shapes():
    f = parse_form("1/2*x0^2*x1^0 - x1^2", 2)
    assert f.coeffs == {(2, 0): Fraction(1, 2), (0, 2): Fraction(-1)}


def test_polymap_validation():
    with pytest.raises(DimensionMismatch):
        PolyMap([parse_form("x0^2", 2)])
    with pytest.raises(DomainError):
        parse_map(["x0", "x1"])  # degree 1 rejected


def test_canonical_term_order_is_descending_lex():
    f = parse_form("x1^2 + x0*x1 + x0^2", 2)
    assert [e for e, _ in f.terms()] == [(2, 0), (1, 1), (0, 2)]
    assert form_str(f) == "x0^2 + x0*x1 + x1^2"
