import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from greenfield import basis as basis_mod
from greenfield import homopoly
from greenfield.basis import (degree_chain, floor_G, gen_degrees, monomial_basis,
                              section_dim, spanning_family, special_basis,
                              t1_floor, t2_floor)
from greenfield.dynsys import DynSystem
from greenfield.errors import DomainError, NotAMorphism, ResourceLimit
from greenfield.homopoly import (HomoForm, PolyMap, ProjPoint, evaluate, form_str, iterate,
                                 monomials_of_degree, parse_form, parse_map)
from greenfield.linalg import IncrementalRank, det_fraction


def power_system(N, d):
    forms = []
    for i in range(N + 1):
        expo = tuple(d if j == i else 0 for j in range(N + 1))
        forms.append(f"x{i}^{d}")
    return DynSystem(parse_map(forms))


def test_gen_degrees_examples(power_map):
    assert gen_degrees(power_map, 20) == [2, 4, 8, 16]
    d3 = power_system(1, 3)
    assert gen_degrees(d3, 20) == [3, 6, 9, 18]
    assert gen_degrees(power_map, 1) == []


def test_floor_G_examples(power_map):
    assert floor_G(power_map, 20) == 8
    assert floor_G(power_map, 6) == 2
    assert floor_G(power_map, 4) == 2
    with pytest.raises(DomainError):
        floor_G(power_map, 3)


def test_t_windows_small_n(power_map):
    # n = 4: t1 argument degenerates to max(1, 0) = 1
    assert t1_floor(power_map, 4) == 0
    assert t2_floor(power_map, 4) == 4  # floor(log_{4/3} 4)


def test_degree_sandwich_and_n0_scan():
    # lower bound N n/(N+1) <= n - floor_G(n) holds by definition; the
    # upper bound n - floor_G(n) <= (2N+1) n/(2N+2) holds from the first
    # admissible n on for d, N <= 3 (recorded n0 = d(N+1), stable).
    for d in (2, 3):
        for N in (1, 2, 3):
            system = power_system(N, d)
            violations = []
            for n in range(d * (N + 1), 201):
                fl = floor_G(system, n)
                gap = n - fl
                assert Fraction(N * n, N + 1) <= gap
                if Fraction(gap) > Fraction((2 * N + 1) * n, 2 * N + 2):
                    violations.append(n)
            assert violations == [], (d, N, violations)


def test_degree_chain_never_leaves_the_window():
    # spanning_family scans no j beyond floor(t2): the chain is never longer.
    # The chain and t2 read only (d, N) off the system.
    for N in range(1, 6):
        for d in range(2, 9):
            system = SimpleNamespace(degree=d, N=N)
            for n in range(d * (N + 1), 300):
                chain, _ = degree_chain(system, n)
                assert len(chain) <= t2_floor(system, n), (N, d, n)


def test_spanning_family_monomials_below_threshold(power_map):
    els = [el for el, _ in spanning_family(power_map, 3)]
    assert all(not el.factors for el in els)
    assert len(els) == 4


def test_spanning_rank_examples(power_map, power_map_p2):
    assert len(special_basis(power_map, 6)) == 7
    assert len(special_basis(power_map, 4)) == 5
    assert len(special_basis(power_map_p2, 8)) == 45


def test_spanning_reaches_full_rank_small():
    for d in (2, 3):
        sys1 = power_system(1, d)
        for n in range(d * 2, 25):
            assert len(special_basis(sys1, n)) == n + 1, (d, n)
        sys2 = power_system(2, d)
        for n in range(d * 3, 10):
            assert len(special_basis(sys2, n)) == math.comb(n + 2, 2), (d, n)


def test_special_basis_counts(power_map, chebyshev):
    for n in (2, 5, 8, 13):
        assert len(special_basis(power_map, n)) == n + 1
        assert len(special_basis(chebyshev, n)) == n + 1


def test_special_basis_on_plane_cubic():
    system = DynSystem(parse_map(["x0^2", "x1^2", "x2^2"]),
                       parse_form("x0*x1*x2", 3))
    assert section_dim(system, 3) == 9
    fam = special_basis(system, 3)
    assert len(fam) == 9
    # and the kept elements really are independent modulo the ideal
    from greenfield.basis import _coeff_vector
    from greenfield.homopoly import monomials_of_degree
    monos = monomials_of_degree(3, 3)
    index = {m: i for i, m in enumerate(monos)}
    tracker = IncrementalRank(len(monos))
    g = system.hypersurface
    for mu in monomials_of_degree(3, 3 - g.degree):  # the ideal's rows, in the QQ ring
        tracker.add(_coeff_vector((HomoForm.monomial(3, mu) * g).coeffs, index))
    for el in fam.elements:
        assert tracker.add(_coeff_vector(el.expanded.coeffs, index)) is True


def test_special_basis_relaxes_below_the_window():
    # x0^5, x1^5 at n = 18: the window j in [t1, t2] = [3, 10] runs out
    # before rank 19, and j = 2, below it, completes the basis
    system = power_system(1, 5)
    fam = special_basis(system, 18)
    assert (t1_floor(system, 18), t2_floor(system, 18)) == (3, 10)
    assert fam.relaxed_j is True
    assert len(fam) == section_dim(system, 18) == 19
    # hadamard_envelope's premise: a cofactor of degree < d(N+1) times at
    # most floor(t2) generator factors
    for el in fam.elements:
        assert len(el.factors) <= t2_floor(system, 18) and sum(el.eta) < 10


def test_monomial_basis_examples():
    fam = monomial_basis(1, 2)
    assert [form_str(el.expanded) for el in fam.elements] == ["x0^2", "x0*x1", "x1^2"]
    fam = monomial_basis(2, 1)
    assert [form_str(el.expanded) for el in fam.elements] == ["x0", "x1", "x2"]
    assert len(monomial_basis(1, 5)) == 6


def test_elements_reexpand_to_provenance_product(chebyshev, half_map):
    for system in (chebyshev, half_map):
        fam = special_basis(system, 9)
        for el in fam.elements:
            prod = HomoForm.monomial(2, el.eta)
            for i, k, j in el.factors:
                prod = prod * (iterate(system.map, k).forms[i] ** j)
            assert prod == el.expanded


def test_special_basis_reproducible(chebyshev):
    a = special_basis(chebyshev, 10)
    b = special_basis(chebyshev, 10)
    assert [el.describe() for el in a.elements] == [el.describe() for el in b.elements]
    assert [form_str(el.expanded) for el in a.elements] == \
           [form_str(el.expanded) for el in b.elements]


def test_provenance_evaluation_oracle(half_map):
    rng = random.Random(77)
    fam = special_basis(half_map, 8)
    for el in fam.elements:
        pt = ProjPoint.exact([Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                              Fraction(rng.randint(1, 9), rng.randint(1, 9))])
        assert el.evaluate_at(half_map, pt, {}) == evaluate(el.expanded, pt)
        # numeric unit-circle lifts take the complex orbit path
        pt = ProjPoint.of_numeric([cmath.exp(1j * rng.uniform(0, 2 * math.pi)), 1.0])
        want = evaluate(el.expanded, pt)
        assert abs(el.evaluate_at(half_map, pt, {}) - want) <= 1e-12 * abs(want)


def test_section_dim_hypersurface_small_n():
    system = DynSystem(parse_map(["x0^2", "x1^2", "x2^2"]),
                       parse_form("x0*x1*x2", 3))
    assert section_dim(system, 2) == 6  # below deg G: full space
    assert section_dim(system, 3) == 9
    assert section_dim(system, 5) == math.comb(7, 2) - math.comb(4, 2)


_small = st.fractions(min_value=-6, max_value=6, max_denominator=5)
_coord = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))


@st.composite
def _lifts(draw, nvars, count):
    """Distinct exact points, zero coordinates allowed; one tuple in five
    repeats a point with a new scaling (a singular tuple)."""
    point = st.lists(_coord, min_size=nvars, max_size=nvars).filter(any).map(ProjPoint.exact)
    lifts = draw(st.lists(point, min_size=count, max_size=count, unique_by=ProjPoint.key))
    if count > 1 and draw(st.integers(0, 4)) == 0:
        i, j = draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True))
        lifts[j] = lifts[i].scaled(draw(_small.filter(bool)))
    return lifts


@st.composite
def _system(draw, nvars, degrees):
    d = draw(st.sampled_from(degrees))
    monos = monomials_of_degree(nvars, d)
    forms = [HomoForm(nvars, d, {m: draw(_small) for m in monos}) for _ in range(nvars)]
    try:
        return DynSystem(PolyMap(forms))
    except (DomainError, NotAMorphism):
        assume(False)


@st.composite
def _p1_cases(draw):
    system = draw(_system(2, (2, 3, 4)))
    n = draw(st.sampled_from(range(1, 11)))
    fam = special_basis(system, n) if draw(st.booleans()) else monomial_basis(1, n)
    return system, fam, draw(_lifts(2, n + 1))


@settings(max_examples=200)
@given(_p1_cases())
def test_p1_evaluation_det_matches_bareiss(case):
    # det(C) * prod_{i<j} (x_j y_i - x_i y_j) against elimination on the
    # evaluation rows, sign and zero included
    system, fam, lifts = case
    assert fam.det(system, lifts) == det_fraction([fam.row(system, pt) for pt in lifts])


def _coeff_matrix(fam):
    """C[a][j], the coefficient of x0^a x1^(n-a) in eta_j."""
    n = fam.n
    return [[el.expanded.coeffs.get((a, n - a), 0) for el in fam.elements] for a in range(n + 1)]


@settings(max_examples=30, deadline=None)
@given(_system(2, (2, 3, 4)), st.sampled_from(range(1, 41)), st.booleans())
def test_coeff_det_is_the_determinant_of_c(system, n, special):
    # read off the elimination that chose the basis, or, for monomials,
    # the sign of the anti-diagonal; checked against Bareiss on C itself
    fam = special_basis(system, n) if special else monomial_basis(1, n)
    assert fam.coeff_det == det_fraction(_coeff_matrix(fam))


def test_coeff_det_is_only_set_on_p1(power_map_p2):
    assert special_basis(power_map_p2, 2).coeff_det is None
    assert monomial_basis(2, 2).coeff_det is None


@st.composite
def _fallback_cases(draw):
    if draw(st.booleans()):
        system = draw(_system(3, (2,)))
        fam = special_basis(system, draw(st.integers(1, 3)))
    else:
        # the power map fixes 0 and infinity, so V(x0 x1) is invariant
        system = DynSystem(parse_map(["x0^2", "x1^2"]), parse_form("x0*x1", 2))
        fam = special_basis(system, draw(st.integers(2, 6)))
    return system, fam, draw(_lifts(system.N + 1, fam.cn))


@settings(max_examples=40)
@given(_fallback_cases())
def test_evaluation_det_falls_back_to_bareiss_off_p1(case):
    system, fam, lifts = case
    rows = [fam.row(system, pt) for pt in lifts]
    seen = []

    def spy(matrix):
        seen.append(matrix)
        return det_fraction(matrix)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(basis_mod, "det_fraction", spy)
        got = fam.det(system, lifts)
    assert seen == [rows]
    assert got == det_fraction(rows)


class _FractionRank:
    """The Fraction reduced row echelon form the basis was first extracted
    with, kept as the reference for `IncrementalRank`'s integer rows."""

    def __init__(self):
        self.rows, self.pivots = {}, []

    def add(self, vec):
        v = [Fraction(x) for x in vec]
        for piv, row in self.rows.items():
            if v[piv]:
                c = v[piv]
                v = [x - c * y for x, y in zip(v, row)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        p = v[piv]
        self.pivots.append(p)
        v = [x / p for x in v]
        for row in self.rows.values():
            if row[piv]:
                c = row[piv]
                row[:] = [x - c * y for x, y in zip(row, v)]
        self.rows[piv] = v
        return True

    def det(self):
        order = list(self.rows)
        inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
        return (-1) ** inversions * math.prod(self.pivots)


def _reference_basis(system, n):
    """The greedy extraction on Fraction forms multiplied in the QQ ring
    and the Fraction elimination: kept (eta, factors, form), relaxed_j and
    det(C) on P^1."""
    nvars = system.map.nvars
    monos = monomials_of_degree(nvars, n)
    tracker = _FractionRank()
    g = system.hypersurface
    if g is not None:  # the ideal's rows x^mu·g, multiplied in the QQ ring
        for mu in monomials_of_degree(nvars, n - g.degree):
            row = HomoForm.monomial(nvars, mu) * g
            tracker.add([row.coeffs.get(m, 0) for m in monos])
    kept, relaxed = [], False
    for el, primary in spanning_family(system, n):
        form = HomoForm.monomial(nvars, el.eta)
        for i, k, j in el.factors:
            form = form * system.iterate(k).forms[i] ** j
        if tracker.add([form.coeffs.get(m, 0) for m in monos]):
            kept.append((el.eta, el.factors, form))
            relaxed = relaxed or not primary
            if len(kept) == section_dim(system, n):
                break
    det = (-1) ** (n * (n + 1) // 2) * tracker.det() if system.is_p1 else None
    return kept, relaxed, det


def _assert_matches_reference(system, n):
    fam = special_basis(system, n)
    kept, relaxed, det = _reference_basis(system, n)
    assert [(el.eta, el.factors) for el in fam.elements] == [(eta, f) for eta, f, _ in kept]
    assert [el.expanded for el in fam.elements] == [form for _, _, form in kept]
    assert (fam.relaxed_j, fam.coeff_det) == (relaxed, det)


_SCALES = st.sampled_from([Fraction(1), Fraction(2), Fraction(-3, 4), Fraction(6), Fraction(10, 9)])


@settings(max_examples=25, deadline=None)
@given(_system(2, (2, 3, 4)), _SCALES, _SCALES, st.integers(1, 40))
def test_special_basis_matches_the_fraction_reference(system, a, b, n):
    # contents other than 1 in each coordinate form: the integer path
    # carries them outside the tracker and multiplies them into det(C)
    f0, f1 = system.map.forms
    _assert_matches_reference(DynSystem(PolyMap([f0.scale(a), f1.scale(b)])), n)


@pytest.mark.parametrize("forms, hypersurface, n", [
    (["2*x0^2", "3/2*x1^2", "x2^2"], None, n) for n in range(1, 7)] + [
    (["x0^2", "x1^2", "x2^2"], "x0*x2 - x1^2", n) for n in range(1, 6)])
def test_special_basis_matches_the_fraction_reference_on_p2(forms, hypersurface, n):
    system = DynSystem(parse_map(forms), hypersurface and parse_form(hypersurface, 3))
    _assert_matches_reference(system, n)


def test_integer_products_keep_the_term_cap(monkeypatch):
    # the iterates are built under the default cap, so only the candidates'
    # products in the integer ring can exceed the lowered one
    system = DynSystem(parse_map(["x0^2 + 1/2*x1^2", "x1^2"]))
    for k in (1, 2, 3):
        system.iterate(k)
    monkeypatch.setattr(homopoly, "TERM_CAP", 4)
    with pytest.raises(ResourceLimit, match="exceeds 4 terms"):
        special_basis(system, 12)


@lru_cache(maxsize=None)
def _selection_system(name):
    forms = {"power": ["x0^2", "x1^2"], "half": ["x0^2 + 1/2*x1^2", "x1^2"],
             "power_p2": ["x0^2", "x1^2", "x2^2"],
             # x-coordinate duplication on y^2 = x^3 - 2
             "lattes": ["x0^4 + 16*x0*x1^3", "4*x0^3*x1 - 8*x1^4"]}[name]
    return DynSystem(parse_map(forms))


@lru_cache(maxsize=None)
def _selection_basis(name, n):
    return special_basis(_selection_system(name), n)


@st.composite
def _selection_cases(draw):
    """A basis on one of three P^1 maps (n <= 6) or on the P^2 power map
    (n <= 3), and a lift sequence drawn from a few points with repeats
    and rescaled duplicates."""
    name = draw(st.sampled_from(["power", "half", "lattes", "power_p2"]))
    system = _selection_system(name)
    fam = _selection_basis(name, draw(st.integers(1, 6 if system.is_p1 else 3)))
    pool = draw(_lifts(system.N + 1, draw(st.integers(1, fam.cn + 2))))
    lifts = []
    for _ in range(draw(st.integers(0, 2 * fam.cn + 2))):
        pt = draw(st.sampled_from(pool))
        lifts.append(pt.scaled(draw(_small.filter(bool))) if draw(st.booleans()) else pt)
    return system, fam, lifts


@settings(max_examples=150)
@given(_selection_cases())
def test_spanning_prefix_matches_a_greedy_rank_scan(case):
    system, fam, lifts = case
    tracker = IncrementalRank(fam.cn)
    expect = []
    for pos, pt in enumerate(lifts):
        if len(expect) < fam.cn and tracker.add(fam.row(system, pt)):
            expect.append(pos)
    pulled = []

    def feed():
        for pt in lifts:
            pulled.append(pt)
            yield pt
    got = list(fam.spanning_prefix(system, feed()))
    assert [pos for pos, _ in got] == expect
    assert all(pt is lifts[pos] for pos, pt in got)
    # no lift is pulled after the c(n)-th kept one
    assert len(pulled) == (expect[-1] + 1 if len(expect) == fam.cn else len(lifts))


# (N, d) -> the largest n checked: the brute-force reference lists every
# multiset of j generator factors, so n stays small
_ENUMERATION_SYSTEMS = {(1, 2): 16, (1, 3): 18, (1, 4): 16, (2, 2): 8, (2, 3): 9}


def _reference_elements(system, n, j):
    """(eta, factors) of the products with j generator factors, by brute
    force: every multiset of factors (i, k, j') of degree j' d^k <= n whose
    cofactor degree lies in [0, d(N+1)), crossed with the cofactor
    monomials, sorted by (cofactor degree, monomial position, factors)."""
    d, N = system.degree, system.N
    gens = sorted(((jp * d**k, (i, k, jp)) for k in range(1, n + 1) for jp in range(1, d)
                   for i in range(N + 1) if jp * d**k <= n),
                  key=lambda g: (-g[0], g[1][0]))
    rows = []
    for combo in combinations_with_replacement(gens, j):
        rest = n - sum(m for m, _ in combo)
        if 0 <= rest < d * (N + 1):
            factors = tuple(f for _, f in combo)
            rows += [(rest, pos, factors, eta)
                     for pos, eta in enumerate(monomials_of_degree(N + 1, rest))]
    return [(eta, factors) for _, _, factors, eta in sorted(rows)]


@pytest.mark.parametrize("N, d", sorted(_ENUMERATION_SYSTEMS))
def test_elements_for_j_match_a_brute_force_reference(N, d):
    system = power_system(N, d)
    for n in range(1, _ENUMERATION_SYSTEMS[N, d] + 1):
        jmax = max(t2_floor(system, n), len(degree_chain(system, n)[0])) + 1
        for j in range(jmax + 1):
            got = [(el.eta, el.factors) for el in basis_mod._elements_for_j(system, n, j)]
            assert got == _reference_elements(system, n, j), (n, j)
