"""Exact sparse homogeneous polynomial algebra.

Forms are stored sparsely as {exponent tuple: nonzero Fraction} with a
canonical descending-lex term order (x0-major), which makes iteration,
serialization and the greedy basis extraction deterministic.

Products, powers and substitution (so `compose` and `iterate`) run in
sympy's sparse ring QQ[x0, ..., xN], cached per variable count and domain
(the special basis multiplies primitive parts in ZZ[x0, ..., xN]): `_poly`
converts a form in, `_form` converts a result back to Fractions, and
`_capped` raises ResourceLimit past TERM_CAP terms on either path.
`check_invariance` divides there.  Integer rows come from one integral
model sF (`integral_forms`) and its monomial shifts (`shifted_rows`).

Values of forms at points come from one generic kernel, `_values`, which
takes forms compiled by `_compile` into term lists (coefficient,
((i, a), ...)) with zero exponents dropped, and computes each
sum(c * x^expo) in the arithmetic of the coordinates: exactly for
Fractions (exact lifts) and ints (the p-adic escape loop reduces the
integer value mod p^W), and with compensated summation (math.fsum of the
real and imaginary parts) for complex binary64 coordinates (numeric
lifts), whose terms carry complex coefficients.  Each `HomoForm` caches
its compilation per arithmetic (a derived form starts uncompiled), so
`evaluate` at a `ProjPoint` and `PolyMap.image`, one orbit step, are
single kernel calls that compile nothing after the first.

The archimedean escape loop runs its later steps outside `_values`:
`PolyMap._orbit` generates, once per map, a straight-line orbit function
from the complex term lists (`_orbit_kernel`) on scalar locals, whose
values agree with the kernel's bit for bit.
"""

import functools
import math
import re
from fractions import Fraction

from sympy import QQ
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from .errors import (DimensionMismatch, DomainError, InputError, InternalCheckError,
                     ResourceLimit)
from .linalg import integral
from .pffield import LogMag, Place, parse_rational, sup_log

# Cap on the stored terms of a product, power or substitution result.
TERM_CAP = 10**7


@functools.cache
def _ring(nvars: int, domain=QQ):
    """The sparse ring QQ[x0, ..., x_(nvars-1)] (or ZZ[...]), lex order
    with x0 first, in which forms multiply."""
    return ring([f"x{i}" for i in range(nvars)], domain, lex)[0]


def _poly(form: "HomoForm"):
    """The form as an element of `_ring`."""
    return _ring(form.nvars).dtype({e: QQ(c.numerator, c.denominator)
                                    for e, c in form.coeffs.items()})


def _capped(poly):
    """The ring element, or ResourceLimit past TERM_CAP terms."""
    if len(poly) > TERM_CAP:
        raise ResourceLimit(f"result exceeds {TERM_CAP} terms")
    return poly


def _form(nvars: int, degree: int, poly) -> "HomoForm":
    """A `_ring` element of known degree as a form with Fraction
    coefficients; ResourceLimit past TERM_CAP terms."""
    return HomoForm._of(nvars, degree, {e: Fraction(int(c.numerator), int(c.denominator))
                                        for e, c in _capped(poly).items()})


def monomials_of_degree(nvars: int, degree: int):
    """All exponent vectors of the given total degree, descending lex."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for a in range(remaining, -1, -1):
            rec(prefix + (a,), remaining - a, slots - 1)

    rec((), degree, nvars)
    return out


def integral_forms(forms) -> tuple[int, list[dict]]:
    """(s, [s·F_i as {exponent: int}]): s is the lcm of the coefficient
    denominators of all the forms, so s·F is the map's integral model."""
    ints, s = integral([c for f in forms for c in f.coeffs.values()])
    it = iter(ints)
    return s, [{e: next(it) for e in f.coeffs} for f in forms]


def shifted_rows(forms, m: int, pairs) -> tuple[int, list[list[int]]]:
    """(s, rows): s as in `integral_forms`, and for each (i, mu) in pairs
    the integer coefficients of x^mu · s·F_i over the degree-m monomials
    in descending lex."""
    s, ints = integral_forms(forms)
    index = {e: j for j, e in enumerate(monomials_of_degree(forms[0].nvars, m))}
    rows = [[0] * len(index) for _ in pairs]
    for row, (i, mu) in zip(rows, pairs):
        for expo, c in ints[i].items():
            row[index[tuple(a + b for a, b in zip(expo, mu))]] = c
    return s, rows


class HomoForm:
    """A homogeneous form with exact rational coefficients."""

    __slots__ = ("nvars", "degree", "coeffs", "_compiled")

    def __init__(self, nvars: int, degree: int, coeffs: dict):
        if nvars < 1:
            raise DomainError("need at least one variable")
        if degree < 0:
            raise DomainError("negative degree")
        clean = {}
        for expo, c in coeffs.items():
            c = Fraction(c)
            if c == 0:
                continue
            expo = tuple(int(a) for a in expo)
            if len(expo) != nvars or any(a < 0 for a in expo):
                raise DomainError(f"bad exponent vector {expo}")
            if sum(expo) != degree:
                raise DomainError(f"exponent {expo} does not sum to degree {degree}")
            clean[expo] = c
        self.nvars = nvars
        self.degree = degree
        self.coeffs = clean
        self._compiled = [None, None]  # term lists: exact, complex

    @staticmethod
    def _of(nvars: int, degree: int, coeffs: dict) -> "HomoForm":
        """A form over coefficients that are already clean (nonzero
        Fractions on valid exponents), with an empty compile cache."""
        out = HomoForm.__new__(HomoForm)
        out.nvars, out.degree, out.coeffs = nvars, degree, coeffs
        out._compiled = [None, None]
        return out

    @staticmethod
    def zero(nvars: int, degree: int) -> "HomoForm":
        return HomoForm(nvars, degree, {})

    @staticmethod
    def constant(nvars: int, c) -> "HomoForm":
        return HomoForm(nvars, 0, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def monomial(nvars: int, expo, c=1) -> "HomoForm":
        expo = tuple(expo)
        return HomoForm(nvars, sum(expo), {expo: Fraction(c)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """(exponent, coefficient) pairs in canonical descending-lex order."""
        for expo in sorted(self.coeffs, reverse=True):
            yield expo, self.coeffs[expo]

    def __eq__(self, other):
        return (
            isinstance(other, HomoForm)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, tuple(sorted(self.coeffs.items()))))

    def __add__(self, other: "HomoForm") -> "HomoForm":
        self._check_compatible(other)
        coeffs = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            s = coeffs.get(expo, 0) + c
            if s == 0:
                coeffs.pop(expo, None)
            else:
                coeffs[expo] = s
        return HomoForm._of(self.nvars, self.degree, coeffs)

    def __neg__(self) -> "HomoForm":
        return HomoForm._of(self.nvars, self.degree, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "HomoForm") -> "HomoForm":
        return self + (-other)

    def scale(self, c) -> "HomoForm":
        c = Fraction(c)
        return HomoForm._of(self.nvars, self.degree,
                            {} if c == 0 else {e: q * c for e, q in self.coeffs.items()})

    def __mul__(self, other: "HomoForm") -> "HomoForm":
        if self.nvars != other.nvars:
            raise DimensionMismatch("variable count mismatch in product")
        return _form(self.nvars, self.degree + other.degree, _poly(self) * _poly(other))

    def __pow__(self, k: int) -> "HomoForm":
        if k < 0:
            raise DomainError("negative power")
        if k == 0:
            return HomoForm.constant(self.nvars, 1)
        return _form(self.nvars, self.degree * k, _poly(self) ** k)

    def _terms(self, numeric: bool) -> list:
        """The form compiled for `_values`, once per arithmetic."""
        got = self._compiled[numeric]
        if got is None:
            got = self._compiled[numeric] = _compile(self.coeffs, numeric)
        return got

    def _check_compatible(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch("variable count mismatch")
        if self.degree != other.degree:
            raise DimensionMismatch("degree mismatch")

    def substitute(self, vec: list["HomoForm"]) -> "HomoForm":
        """Evaluate the form at a vector of forms of common degree."""
        if len(vec) != self.nvars:
            raise DimensionMismatch("substitution vector length mismatch")
        if not vec:
            raise DomainError("empty substitution")
        if any((g.nvars, g.degree) != (vec[0].nvars, vec[0].degree) for g in vec):
            raise DimensionMismatch("substitution forms must share nvars and degree")
        return _substituted([self], vec)[0]

    def __repr__(self):
        return f"HomoForm({form_str(self)!r})"


class ProjPoint:
    """A lift of a projective point: exact rationals or complex binary64."""

    __slots__ = ("lift", "numeric")

    def __init__(self, lift, numeric: bool):
        lift = tuple(lift)
        if not lift:
            raise DomainError("empty lift")
        if numeric:
            lift = tuple(complex(x) for x in lift)
        elif any(isinstance(x, (float, complex)) for x in lift):
            raise DomainError("numeric coordinate in exact lift")
        else:
            lift = tuple(Fraction(x) for x in lift)
        if all(x == 0 for x in lift):
            raise DomainError("zero lift")
        self.lift = lift
        self.numeric = numeric

    @staticmethod
    def exact(coords) -> "ProjPoint":
        return ProjPoint(coords, numeric=False)

    @staticmethod
    def of_numeric(coords) -> "ProjPoint":
        return ProjPoint(coords, numeric=True)

    def __len__(self):
        return len(self.lift)

    def scaled(self, c) -> "ProjPoint":
        c = complex(c) if self.numeric else Fraction(c)
        return ProjPoint([c * x for x in self.lift], self.numeric)

    def key(self) -> tuple:
        """Exact normal form of the projective point: the lift divided by
        its first nonzero coordinate, so two exact lifts of one point
        have equal keys."""
        if self.numeric:
            raise DomainError("projective equality is an exact-mode test")
        lead = next(x for x in self.lift if x)
        return tuple(x / lead for x in self.lift)

    def __repr__(self):
        tag = "numeric" if self.numeric else "exact"
        return f"ProjPoint({tag}, {list(self.lift)})"


def _compile(coeffs: dict, numeric: bool) -> list:
    """The terms of a form as (coefficient, ((i, a), ...)) in dict order,
    zero exponents dropped; complex coefficients when numeric."""
    try:
        return [(complex(c) if numeric else c, tuple((i, a) for i, a in enumerate(expo) if a))
                for expo, c in coeffs.items()]
    except OverflowError:
        raise DomainError("a coefficient lies outside the binary64 range") from None


def _values(forms: list, coords) -> tuple:
    """sum(c * x^a) of each compiled form at the coordinate vector, each
    term multiplied out in coordinate order.  Complex coordinates sum the
    real and imaginary parts with math.fsum; anything else (ints,
    Fractions) sums exactly, starting from int 0 so that integer values
    stay ints."""
    out = []
    if isinstance(coords[0], complex):
        fsum = math.fsum
        for terms in forms:
            re, im = [], []
            for c, powers in terms:
                for i, a in powers:
                    c = c * coords[i] ** a
                re.append(c.real)
                im.append(c.imag)
            out.append(complex(fsum(re), fsum(im)))
    else:
        for terms in forms:
            s = 0
            for c, powers in terms:
                for i, a in powers:
                    c = c * coords[i] ** a
                s += c
            out.append(s)
    return tuple(out)


def _orbit_kernel(forms: list, degree: int):
    """The renormalized archimedean orbit loop of complex-compiled forms,
    generated as one function orbit(w0, ..., wN, steps, parts).  Given
    the first image w of a point, each of the `steps` passes takes
    m = max|w_i| (compared in coordinate order, as `max` does), appends
    d^-k log(m) to parts and, unless it is the last, replaces w by the
    image of w / m.  Each term is straight-line ((c * x_i ** a) * x_j ** b)
    in coordinate order, every power x_i ** a (a > 1) computed once per step.  A
    form of three or more terms is complex(fsum(real parts), fsum(imaginary
    parts)) as in `_values`; one of one or two terms is t0 or t0 + t1, as
    fsum of one or two finite floats is their correctly rounded sum.  Only
    the sign of a zero part differs, which abs, / m and log never expose,
    so the values are `_values`' bit for bit; a sum that fsum refused as an
    overflow is inf here, and a norm that is not finite raises
    OverflowError.  The source holds only indices, exponents and generated
    names; the coefficients are bound by name in the function's globals."""
    n = len(forms)
    ns = {"fsum": math.fsum, "log": math.log, "inf": math.inf, "d": degree,
          "InternalCheckError": InternalCheckError,
          "UNDERFLOW": "orbit underflowed to zero at the archimedean place"}
    body = [f"x{i} = w{i} / m" for i in range(n)]
    body += [f"p{i}_{a} = x{i} ** {a}"
             for i, a in sorted({p for terms in forms for _, powers in terms for p in powers})
             if a > 1]
    for k, terms in enumerate(forms):
        names = []
        for j, (c, powers) in enumerate(terms):
            ns[f"c{k}_{j}"] = c
            expr = f"c{k}_{j}"
            for i, a in powers:
                expr = f"({expr} * {f'p{i}_{a}' if a > 1 else f'x{i}'})"
            body.append(f"t{k}_{j} = {expr}")
            names.append(f"t{k}_{j}")
        body.append(f"w{k} = {' + '.join(names) or '0j'}" if len(names) < 3 else
                    f"w{k} = complex(fsum([{', '.join(t + '.real' for t in names)}]), "
                    f"fsum([{', '.join(t + '.imag' for t in names)}]))")
    ws = [f"w{i}" for i in range(n)]
    norm = [line for i in range(1, n)
            for line in (f"a{i} = abs(w{i})", f"if a{i} > m:", f"    m = a{i}")]
    src = "\n".join([f"def orbit({', '.join(ws)}, steps, parts):",
                     "    append = parts.append",
                     "    scale = 1.0",
                     "    while True:",
                     "        m = abs(w0)",
                     *("        " + line for line in norm),
                     "        if not 0.0 < m < inf:",
                     "            raise OverflowError if m else InternalCheckError(UNDERFLOW)",
                     "        scale /= d",
                     "        append(scale * log(m))",
                     "        steps -= 1",
                     "        if not steps:",
                     "            return",
                     *("        " + line for line in body)])
    exec(compile(src, "<orbit kernel>", "exec"), ns)
    return ns["orbit"]


def evaluate(form: HomoForm, point: ProjPoint):
    """Value of the form at a lift: exact Fraction, or complex with
    compensated summation in numeric mode."""
    if len(point.lift) != form.nvars:
        raise DimensionMismatch("point/form dimension mismatch")
    return _values([form._terms(point.numeric)], point.lift)[0]


class PolyMap:
    """N+1 homogeneous forms of common degree d >= 2: a lift of a
    self-map of projective N-space."""

    __slots__ = ("forms", "nvars", "degree", "_kernel")

    def __init__(self, forms: list[HomoForm]):
        forms = list(forms)
        if not forms:
            raise DomainError("empty map")
        nvars = forms[0].nvars
        if len(forms) != nvars:
            raise DimensionMismatch(f"{len(forms)} forms in {nvars} variables")
        degree = forms[0].degree
        for f in forms:
            if f.nvars != nvars:
                raise DimensionMismatch("forms disagree on variable count")
            if f.degree != degree:
                raise DimensionMismatch("forms disagree on degree")
        if degree < 2:
            raise DomainError("map degree must be >= 2")
        if all(f.is_zero() for f in forms):
            raise DomainError("zero map")
        self.forms = forms
        self.nvars = nvars
        self.degree = degree
        self._kernel = None  # the generated orbit loop, built on first use

    @property
    def N(self) -> int:
        return self.nvars - 1

    def _terms(self, numeric: bool) -> list:
        """The forms' compiled term lists, from each form's cache."""
        return [f._terms(numeric) for f in self.forms]

    def _orbit(self):
        """The map's generated archimedean orbit loop (`_orbit_kernel`)."""
        if self._kernel is None:
            self._kernel = _orbit_kernel(self._terms(True), self.degree)
        return self._kernel

    def image(self, coords) -> tuple:
        """The values of the coordinate forms at a coordinate vector (one
        orbit step)."""
        if len(coords) != self.nvars:
            raise DimensionMismatch("point/map dimension mismatch")
        return _values(self._terms(isinstance(coords[0], complex)), coords)

    def __call__(self, point: ProjPoint) -> ProjPoint:
        # ProjPoint rejects an all-zero image (a common projective zero)
        return ProjPoint(self.image(point.lift), numeric=point.numeric)

    def scale(self, c) -> "PolyMap":
        return PolyMap([f.scale(c) for f in self.forms])

    def __eq__(self, other):
        return isinstance(other, PolyMap) and self.forms == other.forms

    def __repr__(self):
        return "PolyMap([" + ", ".join(form_str(f) for f in self.forms) + "])"


def _substituted(outer: list, vec: list) -> list:
    """Each outer form at the vector vec of forms of one degree (checked by
    the caller), converting vec to the ring once and taking each power once."""
    polys = [_poly(g) for g in vec]
    power = functools.cache(lambda i, a: polys[i] ** a)
    m, e = vec[0].nvars, vec[0].degree
    R = _ring(m)
    out = []
    for f in outer:
        acc = R.zero
        for expo, c in f.coeffs.items():
            t = R.ground_new(QQ(c.numerator, c.denominator))
            for i, a in enumerate(expo):
                if a:
                    t *= power(i, a)
            acc += t
        out.append(_form(m, f.degree * e, acc))
    return out


def compose(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """outer ∘ inner, coordinatewise symbolic substitution."""
    if outer.nvars != inner.nvars:
        raise DimensionMismatch("composition dimension mismatch")
    return PolyMap(_substituted(outer.forms, inner.forms))


def iterate(pm: PolyMap, k: int, _cache: dict | None = None) -> PolyMap:
    """k-th iterate F^(k), by binary splitting on composition."""
    if k < 1:
        raise DomainError("iterate count must be >= 1")
    if _cache is None:
        _cache = {}
    got = _cache.get(k)
    if got is not None:
        return got
    if k == 1:
        out = pm
    else:
        half = iterate(pm, k // 2, _cache)
        out = compose(half, half)
        if k & 1:
            out = compose(pm, out)
    _cache[k] = out
    return out


def coeff_sup_log(pm: PolyMap, place: Place) -> LogMag:
    """log of the sup-norm over all coefficients of all coordinate forms."""
    coeffs = [c for f in pm.forms for c in f.coeffs.values()]
    if not coeffs:
        raise DomainError("zero map has no coefficient norm")
    return sup_log(place, coeffs)


# ---------------------------------------------------------------------------
# Text format: sum of terms "c*x0^a0*...*xN^aN"


_VAR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_COEF_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_form(text: str, nvars: int) -> HomoForm:
    """Parse the canonical text format back into a form."""
    s = text.strip()
    if not s:
        raise InputError("empty form text")
    if s == "0":
        raise InputError("cannot parse zero form without a degree; use HomoForm.zero")
    # split into signed terms before each sign; a leading sign leaves an empty first piece
    pieces = re.split(r"(?=[+-])", s)[s[0] in "+-":]
    terms = [(-1 if p[0] == "-" else 1, p.lstrip("+-").strip()) for p in pieces]
    if not all(tok for _, tok in terms):
        raise InputError(f"dangling sign in {text!r}")
    coeffs: dict[tuple, Fraction] = {}
    degree = None
    for sign, tok in terms:
        c = Fraction(sign)
        expo = [0] * nvars
        for factor in tok.split("*"):
            factor = factor.strip()
            if not factor:
                raise InputError(f"empty factor in term {tok!r}")
            m = _VAR_RE.match(factor)
            if m:
                try:
                    idx, e = int(m.group(1)), int(m.group(2) or 1)
                except ValueError:  # more digits than int() converts
                    raise InputError(f"variable index or exponent too long in {tok[:40]!r}")
                if idx >= nvars:
                    raise InputError(f"variable x{idx} out of range (nvars={nvars})")
                expo[idx] += e
            elif _COEF_RE.match(factor):
                c *= parse_rational(factor)
            else:
                raise InputError(f"bad factor {factor!r} in term {tok!r}")
        d = sum(expo)
        if degree is None:
            degree = d
        elif degree != d:
            raise InputError(f"form is not homogeneous: saw degrees {degree} and {d}")
        key = tuple(expo)
        s2 = coeffs.get(key, Fraction(0)) + c
        if s2 == 0:
            coeffs.pop(key, None)
        else:
            coeffs[key] = s2
    if degree is None:
        raise InputError("no terms parsed")
    return HomoForm(nvars, degree, coeffs)


def _term_str(expo, c: Fraction) -> str:
    vars_part = "*".join(
        f"x{i}" if a == 1 else f"x{i}^{a}" for i, a in enumerate(expo) if a
    )
    if not vars_part:
        return str(c)
    if c == 1:
        return vars_part
    if c == -1:
        return "-" + vars_part
    return f"{c}*{vars_part}"


def form_str(form: HomoForm) -> str:
    """Canonical text rendering; parse_form inverts it byte-for-byte."""
    if form.is_zero():
        return "0"
    parts = []
    for expo, c in form.terms():
        t = _term_str(expo, c)
        if not parts:
            parts.append(t)
        elif t.startswith("-"):
            parts.append(" - " + t[1:])
        else:
            parts.append(" + " + t)
    return "".join(parts)


def parse_map(form_texts: list[str]) -> PolyMap:
    nvars = len(form_texts)
    return PolyMap([parse_form(t, nvars) for t in form_texts])
