import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from sympy import Poly, Rational, resultant, symbols

from greenfield.errors import DomainError, NotAMorphism
from greenfield.homopoly import (HomoForm, PolyMap, evaluate, form_str,
                                 monomials_of_degree, parse_form, parse_map,
                                 ProjPoint)
from greenfield.macaulay import (MacaulayMatrix, elimination_certificate,
                                 macaulay_degree, macaulay_resultant,
                                 r_normalized)
from greenfield.pffield import Place


def rand_form(rng, nvars, degree, density=0.7, bound=5):
    coeffs = {}
    for expo in monomials_of_degree(nvars, degree):
        if rng.random() < density:
            c = rng.randint(-bound, bound)
            if c:
                coeffs[expo] = Fraction(c)
    if not coeffs:
        coeffs[(degree,) + (0,) * (nvars - 1)] = Fraction(1)
    return HomoForm(nvars, degree, coeffs)


def rand_map(rng, nvars, degree, **kw):
    while True:
        try:
            return PolyMap([rand_form(rng, nvars, degree, **kw) for _ in range(nvars)])
        except DomainError:
            continue


def test_anchor_resultants():
    assert macaulay_resultant(parse_map(["x0^2", "x1^2"])) == 1
    assert macaulay_resultant(parse_map(["2*x0^2", "x1^2"])) == 4
    assert macaulay_resultant(parse_map(["x0^2", "x1^2", "x2^2"])) == 1
    # independent of the added multiple of the other form
    for c in (Fraction(7, 3), Fraction(-2), Fraction(0)):
        pm = PolyMap([
            HomoForm(2, 2, {(2, 0): 1, (0, 2): c}),
            HomoForm(2, 2, {(0, 2): 1}),
        ])
        assert macaulay_resultant(pm) == 1


def test_macaulay_degree_and_matrix_shape():
    assert macaulay_degree(2, 1) == 3
    assert macaulay_degree(2, 2) == 4
    assert macaulay_degree(3, 2) == 7
    mat = MacaulayMatrix(parse_map(["x0^2", "x1^2", "x2^2"]))
    assert len(mat.columns) == math.comb(mat.e + 2, 2)
    assert len(mat.rows) == len(mat.columns)
    # non-reduced monomials at e=4 for d=2, N=2: x^2y^2, x^2z^2, y^2z^2
    assert sum(1 for r in mat.reduced if not r) == 3


def test_sylvester_oracle_random_binary_forms():
    z = symbols("z")
    rng = random.Random(31)
    checked = 0
    while checked < 25:
        d = rng.choice([2, 3, 4])
        pm = rand_map(rng, 2, d)
        mine = macaulay_resultant(pm)

        def dehom(f):
            return sum(Rational(c) * z ** e[0] for e, c in f.coeffs.items())

        p0, p1 = Poly(dehom(pm.forms[0]), z), Poly(dehom(pm.forms[1]), z)
        if p0.degree() != d or p1.degree() != d:
            continue  # sympy's convention differs when the degree drops
        assert Rational(mine.numerator, mine.denominator) == resultant(p0, p1)
        checked += 1


def test_scaling_law_exact():
    rng = random.Random(7)
    for _ in range(12):
        nvars = rng.choice([2, 3])
        d = rng.choice([2, 3])
        pm = rand_map(rng, nvars, d)
        res = macaulay_resultant(pm)
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 7)) * rng.choice([1, -1])
        n_minus_1 = nvars - 1
        expect = lam ** (nvars * d**n_minus_1) * res
        assert macaulay_resultant(pm.scale(lam)) == expect


def test_zero_iff_common_projective_zero():
    # common zero [2 : 1]
    f0 = parse_form("x0^2 - 4*x1^2", 2)   # (x-2y)(x+2y)
    f1 = parse_form("x0*x1 - 2*x1^2", 2)  # y(x-2y)
    assert macaulay_resultant(PolyMap([f0, f1])) == 0
    # gcd of dehomogenizations detects the same root
    z = symbols("z")
    g = Poly(z**2 - 4, z).gcd(Poly(z**2 - 2 * z, z))
    assert g.degree() >= 1
    # and a visibly zero-free pair stays nonzero
    assert macaulay_resultant(parse_map(["x0^2 + x1^2", "x0^2 - x1^2"])) != 0


def test_zero_resultant_on_p2():
    # all three forms vanish at [0 : 0 : 1]
    pm = parse_map(["x0^2", "x0*x1", "x1^2"])
    assert macaulay_resultant(pm) == 0


@pytest.mark.parametrize("forms, expected", [
    # (N, d) = (2, 3) and (3, 2); values computed by symbolic elimination
    # over Q[t] in the perturbation F + tG
    (["-x1^3 - x1^2*x2", "x0^3 + x0^2*x1 + x0*x2^2",
      "3*x0*x1^2 + 3*x1^2*x2 + 3*x2^3"], 275562),
    (["2*x0*x1 + x1*x3 + x3^2", "2*x0^2 + x0*x2 + 3*x1*x3",
      "2*x2^2 + x2*x3 + 2*x3^2", "-x1^2"], 65536),
])
def test_degenerate_minor_takes_the_perturbation_fallback(forms, expected):
    pm = parse_map(forms)
    for prec in permutations(range(pm.nvars)):
        assert MacaulayMatrix(pm, prec).det_minor() == 0
    assert macaulay_resultant(pm) == expected
    lam = Fraction(3, 2)
    w = pm.nvars * pm.degree ** pm.N
    assert macaulay_resultant(pm.scale(lam)) == lam**w * expected


def test_r_normalized_examples():
    arch = Place.archimedean()
    pw = parse_map(["x0^2", "x1^2"])
    assert r_normalized(pw, arch, "paper").is_zero()
    assert r_normalized(pw, arch, "invariant").is_zero()
    two = parse_map(["2*x0^2", "x1^2"])
    rp = r_normalized(two, arch, "paper")
    assert rp.total() == pytest.approx(0.5 * math.log(2), abs=1e-12)
    ri = r_normalized(two, arch, "invariant")
    assert ri.total() == pytest.approx(-0.5 * math.log(2), abs=1e-12)
    # exact at finite places
    assert r_normalized(two, Place.prime(2), "paper").padic == {2: Fraction(-1, 2)}
    with pytest.raises(DomainError):
        r_normalized(two, arch, "folklore")


def test_r_normalized_rejects_non_morphism():
    bad = PolyMap([parse_form("x0^2", 2), parse_form("x0*x1", 2)])
    with pytest.raises(NotAMorphism):
        r_normalized(bad, Place.archimedean(), "paper")


def test_certificate_examples():
    pw = parse_map(["x0^2", "x1^2"])
    etas = elimination_certificate(pw, parse_form("x0^4", 2))
    assert [form_str(e) for e in etas] == ["x0^2", "0"]
    etas = elimination_certificate(pw, parse_form("x0^2*x1^2", 2))
    assert [form_str(e) for e in etas] == ["x1^2", "0"]


def test_certificate_reexpands_exactly():
    rng = random.Random(13)
    for _ in range(8):
        nvars = rng.choice([2, 3])
        d = 2
        pm = rand_map(rng, nvars, d)
        if macaulay_resultant(pm) == 0:
            continue
        m = macaulay_degree(d, nvars - 1) + rng.randint(0, 1)
        phi = rand_form(rng, nvars, m)
        etas = elimination_certificate(pm, phi)
        acc = HomoForm.zero(nvars, m)
        for eta, f in zip(etas, pm.forms):
            assert eta.degree == m - d
            acc = acc + eta * f
        assert acc == phi


def test_certificate_degree_threshold():
    pw = parse_map(["x0^2", "x1^2"])
    with pytest.raises(DomainError):
        elimination_certificate(pw, parse_form("x0^2", 2))


def test_chebyshev_certificate_verified_by_substitution():
    cheb = parse_map(["x0^2 - 2*x1^2", "x1^2"])
    phi = parse_form("x0^3*x1", 2)
    etas = elimination_certificate(cheb, phi)
    rng = random.Random(1)
    for _ in range(10):
        pt = ProjPoint.exact([Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                              Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
        lhs = evaluate(phi, pt)
        rhs = sum(evaluate(e, pt) * evaluate(f, pt)
                  for e, f in zip(etas, cheb.forms))
        assert lhs == rhs
