"""The generator collection, degree bookkeeping, spanning families, and
greedy extraction of the special basis of degree-n forms.

The generator collection of a system F of degree d consists of the
powers (F_i^(k))^j with k >= 1 and 1 <= j <= d-1.  For n >= d(N+1) a
degree-n form is a combination of products

    eta * G_1 * ... * G_j,   G_l in the collection,  deg(eta) < d(N+1),

where repeatedly splitting off the largest admissible generator degree
(the "chain") certifies that such products span.  The factor count j of
the chain lies between floor(t1) and floor(t2) with
t1 = log_{(N+1)/N} max(1, n - d(N+1)) and t2 = log_{(2N+2)/(2N+1)} n,
except for small n, so the enumeration scans that window first and then
relaxes outside it (recording that it had to) until full rank is
reached.

A basis is extracted greedily in a fixed deterministic order: an element
is kept iff it enlarges the exact rank modulo the hypersurface ideal.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import DomainError, InternalCheckError, ResourceLimit
from .dynsys import DynSystem
from .homopoly import HomoForm, ProjPoint, evaluate, form_str, monomials_of_degree
from .linalg import IncrementalRank

# Enumeration guardrail: abort after this multiple of c(n) candidates.
CANDIDATE_CAP_FACTOR = 50


def gen_degrees(system: DynSystem, nmax: int) -> list[int]:
    """Degrees j*d^k of generator elements, up to nmax, ascending."""
    d = system.degree
    out = set()
    power = d
    while power <= nmax:
        for j in range(1, d):
            if j * power <= nmax:
                out.add(j * power)
        power *= d
    return sorted(out)


def floor_G(system: DynSystem, n: int) -> int:
    """Largest generator degree n' with (N+1) n' <= n."""
    d, N = system.degree, system.N
    if n < d * (N + 1):
        raise DomainError(f"floor_G needs n >= d(N+1) = {d * (N + 1)}")
    cands = gen_degrees(system, n // (N + 1))
    if not cands:
        raise InternalCheckError("no generator degree below n/(N+1)")
    return cands[-1]


def floor_log(base: Fraction, arg: int) -> int:
    """floor(log_base(arg)) computed exactly for base > 1, arg >= 1."""
    if arg < 1:
        raise DomainError("floor_log needs arg >= 1")
    t = 0
    x = Fraction(1)
    while x * base <= arg:
        x *= base
        t += 1
    return t


def t1_floor(system: DynSystem, n: int) -> int:
    d, N = system.degree, system.N
    return floor_log(Fraction(N + 1, N), max(1, n - d * (N + 1)))


def t2_floor(system: DynSystem, n: int) -> int:
    N = system.N
    return floor_log(Fraction(2 * N + 2, 2 * N + 1), n)


def degree_chain(system: DynSystem, n: int) -> tuple[list[int], int]:
    """Greedy factor-degree chain for degree n: repeatedly split off
    floor_G of the remaining degree.  Returns (chain, final cofactor
    degree < d(N+1))."""
    d, N = system.degree, system.N
    chain = []
    r = n
    while r >= d * (N + 1):
        m = floor_G(system, r)
        chain.append(m)
        r -= m
    return chain, r


@dataclass
class GenElement:
    """A spanning-family element with its provenance.

    Monomial elements have factors = () and the exponent vector in
    `eta`.  Product elements are eta_monomial * prod (F_i^(k))^j with
    factors a tuple of (i, k, j) triples.
    """

    eta: tuple
    factors: tuple  # of (i, k, j)
    expanded: HomoForm

    @property
    def is_monomial(self) -> bool:
        return not self.factors

    def describe(self) -> str:
        eta_str = form_str(HomoForm.monomial(len(self.eta), self.eta))
        if not self.factors:
            return eta_str
        parts = [f"(F{i}^({k}))^{j}" if j > 1 else f"F{i}^({k})" for i, k, j in self.factors]
        if any(self.eta):
            parts.insert(0, eta_str)
        return " * ".join(parts)

    def evaluate_at(self, system: DynSystem, point: ProjPoint, orbit=None):
        """Value via the provenance: needs only the orbit of the point,
        never the expanded form.  `orbit` caches F^(k)(P) vectors by k;
        pass one dict per point when evaluating several elements."""
        if orbit is None:
            orbit = {}
        val = _monomial_value(self.eta, point.lift, point.numeric)
        for i, k, j in self.factors:
            vec = _orbit_vector(system, point, k, orbit)
            val = val * vec[i] ** j
        return val


def _monomial_value(expo, lift, numeric):
    val = complex(1.0) if numeric else Fraction(1)
    for x, a in zip(lift, expo):
        if a:
            val = val * x**a
    return val


def _orbit_vector(system: DynSystem, point: ProjPoint, k: int, cache: dict):
    got = cache.get(k)
    if got is not None:
        return got
    if k == 1:
        vec = tuple(evaluate(f, point) for f in system.map.forms)
    else:
        prev = _orbit_vector(system, point, k - 1, cache)
        pp = ProjPoint(prev, numeric=point.numeric)
        vec = tuple(evaluate(f, pp) for f in system.map.forms)
    cache[k] = vec
    return vec


def _degree_to_kj(system: DynSystem, m: int) -> tuple[int, int]:
    """The unique (k, j) with m = j*d^k, 1 <= j <= d-1."""
    d = system.degree
    k = 0
    power = 1
    while power * d <= m:
        power *= d
        k += 1
    j, rem = divmod(m, power)
    if k < 1 or rem or not (1 <= j <= d - 1):
        raise InternalCheckError(f"{m} is not a generator degree")
    return k, j


@dataclass
class BasisFamily:
    """An ordered basis of degree-n forms with provenance and the pivot
    record of the greedy extraction."""

    n: int
    elements: list[GenElement]
    pivots: list[int]
    cn: int
    relaxed_j: bool = False

    def __len__(self):
        return len(self.elements)

    def max_factor_count(self) -> int:
        return max((len(el.factors) for el in self.elements), default=0)


def section_dim(system: DynSystem | None, n: int, N: int | None = None) -> int:
    """c(n): dimension of degree-n forms modulo the hypersurface ideal."""
    if system is not None:
        N = system.N
        g = system.hypersurface
    else:
        g = None
    full = math.comb(n + N, N)
    if g is None or n < g.degree:
        return full
    return full - math.comb(n - g.degree + N, N)


def _monomial_elements(nvars: int, n: int) -> list[GenElement]:
    return [
        GenElement(expo, (), HomoForm.monomial(nvars, expo))
        for expo in monomials_of_degree(nvars, n)
    ]


def _elements_for_j(system: DynSystem, n: int, j: int) -> list[GenElement]:
    """All products with exactly j generator factors, in the documented
    order: cofactor monomial first (by degree, then position in the
    descending-lex listing of its degree), then factor triples."""
    d, N = system.degree, system.N
    nvars = system.map.nvars
    degs = gen_degrees(system, n)
    if j == 0:
        if n < d * (N + 1):
            return _monomial_elements(nvars, n)
        return []
    out = []

    def multisets(start_idx, slots, remaining):
        # nonincreasing degree sequences; remaining degree for eta in [0, d(N+1))
        if slots == 0:
            if 0 <= remaining < d * (N + 1):
                yield []
            return
        for idx in range(start_idx, -1, -1):
            m = degs[idx]
            if m * slots < remaining - d * (N + 1) + 1:
                break
            if m > remaining:
                continue
            for rest in multisets(idx, slots - 1, remaining - m):
                yield [m] + rest

    for ms in multisets(len(degs) - 1, j, n):
        eta_deg = n - sum(ms)
        # group repeated degrees; choose coordinate indices as multisets
        groups = []
        seen = {}
        for m in ms:
            seen[m] = seen.get(m, 0) + 1
        for m in sorted(seen, reverse=True):
            groups.append((m, seen[m]))
        choice_sets = []
        for m, mult in groups:
            k, jp = _degree_to_kj(system, m)
            choice_sets.append([
                tuple((i, k, jp) for i in combo)
                for combo in combinations_with_replacement(range(N + 1), mult)
            ])

        def assemble(gi, acc):
            if gi == len(choice_sets):
                factors = tuple(t for grp in acc for t in grp)
                for eta in monomials_of_degree(nvars, eta_deg):
                    out.append((eta_deg, eta, factors))
                return
            for pick in choice_sets[gi]:
                assemble(gi + 1, acc + [pick])

        assemble(0, [])
    order = {expo: r for deg in sorted({e[0] for e in out}) for r, expo in
             enumerate(monomials_of_degree(nvars, deg))}
    out.sort(key=lambda t: (t[0], order[t[1]], t[2]))
    elements = []
    for eta_deg, eta, factors in out:
        form = HomoForm.monomial(nvars, eta)
        for i, k, jp in factors:
            form = form * (system.iterate(k).forms[i] ** jp)
        elements.append(GenElement(eta, factors, form))
    return elements


def spanning_family(system: DynSystem, n: int):
    """Lazily yield (element, in_primary_window) in the deterministic
    enumeration order: the window floor(t1) <= j <= floor(t2) ascending,
    then j below the window (descending) and beyond it (ascending)."""
    d, N = system.degree, system.N
    if n < 1:
        raise DomainError("need n >= 1")
    if n < d * (N + 1):
        for el in _monomial_elements(system.map.nvars, n):
            yield el, True
        return
    jlo, jhi = t1_floor(system, n), t2_floor(system, n)
    chain, _ = degree_chain(system, n)
    jmax = max(jhi, len(chain))
    for j in range(jlo, jhi + 1):
        for el in _elements_for_j(system, n, j):
            yield el, True
    for j in range(jlo - 1, -1, -1):
        for el in _elements_for_j(system, n, j):
            yield el, False
    for j in range(jhi + 1, jmax + 1):
        for el in _elements_for_j(system, n, j):
            yield el, False


def _ideal_rows(system: DynSystem, n: int):
    g = system.hypersurface
    if g is None or n < g.degree:
        return []
    nvars = system.map.nvars
    rows = []
    for mu in monomials_of_degree(nvars, n - g.degree):
        rows.append(HomoForm.monomial(nvars, mu) * g)
    return rows


def _coeff_vector(form: HomoForm, index: dict):
    vec = [Fraction(0)] * len(index)
    for expo, c in form.coeffs.items():
        vec[index[expo]] = c
    return vec


def special_basis(system: DynSystem, n: int) -> BasisFamily:
    """Greedy basis of degree-n forms modulo the hypersurface ideal,
    drawn from the spanning family in enumeration order."""
    nvars = system.map.nvars
    monos = monomials_of_degree(nvars, n)
    index = {m: i for i, m in enumerate(monos)}
    target = section_dim(system, n)
    tracker = IncrementalRank(len(monos))
    for row in _ideal_rows(system, n):
        tracker.add(_coeff_vector(row, index))
    if tracker.rank != len(monos) - target:
        raise InternalCheckError("hypersurface ideal rank mismatch")
    cap = CANDIDATE_CAP_FACTOR * math.comb(n + system.N, system.N)
    kept: list[GenElement] = []
    pivots: list[int] = []
    relaxed = False
    seen = 0
    for el, primary in spanning_family(system, n):
        if seen >= cap:
            raise ResourceLimit(
                f"basis enumeration cap {cap} hit at rank {len(kept)} of {target}"
            )
        seen += 1
        piv = tracker.add(_coeff_vector(el.expanded, index))
        if piv is None:
            continue
        kept.append(el)
        pivots.append(piv)
        if not primary:
            relaxed = True
        if len(kept) == target:
            return BasisFamily(n, kept, pivots, target, relaxed)
    if system.hypersurface is None:
        raise InternalCheckError(
            f"spanning family exhausted at rank {len(kept)} of {target} for X = P^N"
        )
    raise ResourceLimit(
        f"family exhausted at rank {len(kept)} of {target} modulo the hypersurface"
    )


def monomial_basis(N: int, n: int) -> BasisFamily:
    """The standard degree-n monomial basis on P^N, descending lex."""
    if n < 1:
        raise DomainError("need n >= 1")
    els = _monomial_elements(N + 1, n)
    return BasisFamily(n, els, list(range(len(els))), len(els))


def spanning_rank(system: DynSystem, n: int) -> int:
    """Rank attained by the spanning family in the full degree-n space
    (no hypersurface reduction)."""
    nvars = system.map.nvars
    monos = monomials_of_degree(nvars, n)
    index = {m: i for i, m in enumerate(monos)}
    tracker = IncrementalRank(len(monos))
    cap = CANDIDATE_CAP_FACTOR * math.comb(n + system.N, system.N)
    seen = 0
    for el, _ in spanning_family(system, n):
        if seen >= cap or tracker.rank == len(monos):
            break
        seen += 1
        tracker.add(_coeff_vector(el.expanded, index))
    return tracker.rank
