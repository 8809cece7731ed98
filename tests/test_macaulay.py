import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Poly, Rational, resultant, symbols

from greenfield import macaulay
from greenfield.errors import DomainError, InternalCheckError, NotAMorphism
from greenfield.homopoly import (HomoForm, PolyMap, evaluate, form_str,
                                 monomials_of_degree, parse_form, parse_map,
                                 ProjPoint)
from greenfield.linalg import bareiss_det
from greenfield.macaulay import (MacaulayMatrix, elimination_certificates,
                                 macaulay_degree, macaulay_resultant,
                                 r_normalized)
from greenfield.pffield import Place

# a morphism of P^2 whose identity minor is singular; Res = 995328
DEGENERATE = Path(__file__).resolve().parent / "golden" / "degenerate_p2.json"


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


@st.composite
def dense_maps_and_scalars(draw):
    """A map with every degree-d monomial in every form, and lam = a/b."""
    d, N = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3)]))
    nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool)
    monos = monomials_of_degree(N + 1, d)
    pm = PolyMap([HomoForm(N + 1, d, {m: draw(nonzero) for m in monos})
                  for _ in range(N + 1)])
    lam = draw(st.fractions(min_value=-20, max_value=20, max_denominator=20).filter(bool))
    return pm, lam


@settings(max_examples=100)
@given(dense_maps_and_scalars())
def test_scaling_law_on_dense_maps(case):
    # Res(lam F) = lam^((N+1) d^N) Res(F)
    pm, lam = case
    w = pm.nvars * pm.degree ** pm.N
    assert macaulay_resultant(pm.scale(lam)) == lam**w * macaulay_resultant(pm)


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
    # (N, d) = (2, 3), value also by interpolating Res(F + tG) at t = 0;
    # the minor stays singular under six seeded changes of variables
    # whose entries all lie in {-1, 0, 1}
    (["x0*x1*x2 + x1^2*x2", "2*x0^2*x1 - x0^2*x2 - 2*x0*x1^2 - 2*x1^2*x2",
      "2*x0^3 - 2*x0*x1*x2 - x1^3 - x1^2*x2 + x2^3"], -608),
    # (N, d) = (3, 3): a 220-column matrix; the changes of variables
    # k = 1..23 with a nonzero minor (22 of them) all give this value
    (["x0^3 + x0*x1^2 + 2*x2^3 - x3^3", "-x1^3 + 2*x1*x2*x3",
      "-2*x0*x2^2 - x2^2*x3", "x0^2*x3 + 2*x0*x1^2 + x0*x1*x3"], -27842052096),
])
def test_degenerate_minor_is_moved_off_by_a_change_of_variables(forms, expected):
    pm = parse_map(forms)
    assert MacaulayMatrix(pm).det_minor() == 0
    assert macaulay_resultant(pm) == expected
    lam = Fraction(3, 2)
    w = pm.nvars * pm.degree ** pm.N
    assert macaulay_resultant(pm.scale(lam)) == lam**w * expected


def test_minor_singular_under_every_change_of_variables_takes_the_zero_test(monkeypatch):
    # three multiples of one conic: every B·(F∘A) has rank-1 forms, so
    # every minor is singular and Macaulay's criterion decides Res = 0
    pm = parse_map(["x0^2 + x1*x2", "2*x0^2 + 2*x1*x2", "-x0^2 - x1*x2"])
    calls = []
    solve = macaulay._cofactors
    monkeypatch.setattr(macaulay, "_cofactors",
                        lambda *args: calls.append(args) or solve(*args))
    assert macaulay_resultant(pm) == 0
    assert len(calls) == 1


def test_no_nonzero_minor_for_a_morphism_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(macaulay, "_change_of_variables", lambda pm, k: pm)
    pm = parse_map(json.loads(DEGENERATE.read_text())["forms"])
    with pytest.raises(InternalCheckError):
        macaulay_resultant(pm)


def _linear_substitution(pm, a):
    """F∘A: x_i -> sum_j a[i][j] x_j in every form."""
    n = pm.nvars
    xs = [HomoForm(n, 1, {tuple(int(t == j) for t in range(n)): a[i][j] for j in range(n)})
          for i in range(n)]
    return PolyMap([f.substitute(xs) for f in pm.forms])


def _form_combination(pm, b):
    """B·F: the i-th form is sum_j b[i][j] F_j."""
    zero = HomoForm.zero(pm.nvars, pm.degree)
    return PolyMap([sum((f.scale(c) for f, c in zip(pm.forms, row)), zero) for row in b])


@st.composite
def sparse_maps_and_matrices(draw):
    """A sparse map and two integer matrices P·diag(delta, 1, ..)·L·U
    with P a permutation, L, U unit triangular and delta in
    {±1, ±2, 3}, so det = ±delta."""
    d, N = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    n = N + 1
    coeff = st.integers(-3, 3)
    monos = monomials_of_degree(n, d)
    forms = [HomoForm(n, d, {m: draw(coeff) for m in monos}) for _ in range(n)]
    assume(any(not f.is_zero() for f in forms))

    def matrix():
        unit = st.integers(-1, 1)
        lower = [[1 if i == j else draw(unit) if j < i else 0 for j in range(n)]
                 for i in range(n)]
        upper = [[1 if i == j else draw(unit) if j > i else 0 for j in range(n)]
                 for i in range(n)]
        delta = draw(st.sampled_from([1, -1, 2, -2, 3]))
        perm = draw(st.permutations(range(n)))
        lu = [[sum(lower[i][t] * upper[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        return [[delta * x for x in lu[p]] if p == 0 else lu[p] for p in perm]

    return PolyMap(forms), matrix(), matrix()


@settings(max_examples=150, deadline=None)
@given(sparse_maps_and_matrices())
def test_change_of_variables_laws(case):
    # Res(F∘A) = det(A)^(d^(N+1)) Res(F) and Res(B·F) = det(B)^(d^N) Res(F)
    pm, a, b = case
    d, N = pm.degree, pm.N
    res = macaulay_resultant(pm)
    assert macaulay_resultant(_linear_substitution(pm, a)) == bareiss_det(a) ** d ** (N + 1) * res
    assert macaulay_resultant(_form_combination(pm, b)) == bareiss_det(b) ** d**N * res


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
    etas = elimination_certificates(pw, [parse_form("x0^4", 2)])[0]
    assert [form_str(e) for e in etas] == ["x0^2", "0"]
    etas = elimination_certificates(pw, [parse_form("x0^2*x1^2", 2)])[0]
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
        etas = elimination_certificates(pm, [phi])[0]
        acc = HomoForm.zero(nvars, m)
        for eta, f in zip(etas, pm.forms):
            assert eta.degree == m - d
            acc = acc + eta * f
        assert acc == phi


def test_certificate_degree_threshold():
    pw = parse_map(["x0^2", "x1^2"])
    with pytest.raises(DomainError):
        elimination_certificates(pw, [parse_form("x0^2", 2)])


def test_chebyshev_certificate_verified_by_substitution():
    cheb = parse_map(["x0^2 - 2*x1^2", "x1^2"])
    phi = parse_form("x0^3*x1", 2)
    etas = elimination_certificates(cheb, [phi])[0]
    rng = random.Random(1)
    for _ in range(10):
        pt = ProjPoint.exact([Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                              Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
        lhs = evaluate(phi, pt)
        rhs = sum(evaluate(e, pt) * evaluate(f, pt)
                  for e, f in zip(etas, cheb.forms))
        assert lhs == rhs
