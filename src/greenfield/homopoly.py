"""Exact sparse homogeneous polynomial algebra.

Forms are stored sparsely as {exponent tuple: nonzero Fraction} with a
canonical descending-lex term order (x0-major), which makes iteration,
serialization and the greedy basis extraction deterministic.

Every value of a form at a point comes from one kernel, `_values`, which
takes forms compiled by `_compile` into term lists (coefficient,
((i, a), ...)) with zero exponents dropped, and computes each
sum(c * x^expo) in the arithmetic of the coordinates: exactly for
Fractions (exact lifts) and ints (the p-adic escape loop reduces the
integer value mod p^W), and with compensated summation (math.fsum of the
real and imaginary parts) for complex binary64 coordinates (numeric
lifts), whose terms carry complex coefficients.  A `PolyMap` compiles
its forms once per arithmetic, so `PolyMap.image`, one orbit step, is a
single kernel call; `evaluate` compiles one form at a `ProjPoint`.
"""

import math
import re
from fractions import Fraction

from .errors import DimensionMismatch, DomainError, InputError, ResourceLimit
from .pffield import LogMag, Place, parse_rational, sup_log

# Intermediate expansion cap for products/compositions (total stored terms).
TERM_CAP = 10**7


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


class HomoForm:
    """A homogeneous form with exact rational coefficients."""

    __slots__ = ("nvars", "degree", "coeffs")

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
        out = HomoForm.__new__(HomoForm)
        out.nvars, out.degree, out.coeffs = self.nvars, self.degree, coeffs
        return out

    def __neg__(self) -> "HomoForm":
        out = HomoForm.__new__(HomoForm)
        out.nvars, out.degree = self.nvars, self.degree
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __sub__(self, other: "HomoForm") -> "HomoForm":
        return self + (-other)

    def scale(self, c) -> "HomoForm":
        c = Fraction(c)
        out = HomoForm.__new__(HomoForm)
        out.nvars, out.degree = self.nvars, self.degree
        out.coeffs = {} if c == 0 else {e: q * c for e, q in self.coeffs.items()}
        return out

    def __mul__(self, other: "HomoForm") -> "HomoForm":
        if self.nvars != other.nvars:
            raise DimensionMismatch("variable count mismatch in product")
        coeffs = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = coeffs.get(e, 0) + c1 * c2
                if s == 0:
                    coeffs.pop(e, None)
                else:
                    coeffs[e] = s
            if len(coeffs) > TERM_CAP:
                raise ResourceLimit(f"product exceeds {TERM_CAP} terms")
        out = HomoForm.__new__(HomoForm)
        out.nvars, out.degree = self.nvars, self.degree + other.degree
        out.coeffs = coeffs
        return out

    def __pow__(self, k: int) -> "HomoForm":
        if k < 0:
            raise DomainError("negative power")
        if k == 0:
            return HomoForm.constant(self.nvars, 1)
        acc = None
        base = self
        while k:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

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
        m = vec[0].nvars
        e = vec[0].degree
        for g in vec:
            if g.nvars != m or g.degree != e:
                raise DimensionMismatch("substitution forms must share nvars and degree")
        pow_cache: dict[tuple[int, int], HomoForm] = {}

        def cached_pow(i, a):
            key = (i, a)
            got = pow_cache.get(key)
            if got is None:
                got = vec[i] ** a
                pow_cache[key] = got
            return got

        acc = HomoForm.zero(m, self.degree * e)
        for expo, c in self.terms():
            t = None
            for i, a in enumerate(expo):
                if a:
                    f = cached_pow(i, a)
                    t = f if t is None else t * f
            if t is None:
                t = HomoForm.constant(m, 1)
            acc = acc + t.scale(c)
            if len(acc.coeffs) > TERM_CAP:
                raise ResourceLimit(f"composition exceeds {TERM_CAP} terms")
        return acc

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


def evaluate(form: HomoForm, point: ProjPoint):
    """Value of the form at a lift: exact Fraction, or complex with
    compensated summation in numeric mode."""
    if len(point.lift) != form.nvars:
        raise DimensionMismatch("point/form dimension mismatch")
    return _values([_compile(form.coeffs, point.numeric)], point.lift)[0]


class PolyMap:
    """N+1 homogeneous forms of common degree d >= 2: a lift of a
    self-map of projective N-space."""

    __slots__ = ("forms", "nvars", "degree", "_compiled")

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
        self._compiled = [None, None]  # term lists: exact, complex

    @property
    def N(self) -> int:
        return self.nvars - 1

    def _terms(self, numeric: bool) -> list:
        """The forms compiled for `_values`, once per arithmetic."""
        got = self._compiled[numeric]
        if got is None:
            got = self._compiled[numeric] = [_compile(f.coeffs, numeric) for f in self.forms]
        return got

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


def compose(outer: PolyMap, inner: PolyMap) -> PolyMap:
    """outer ∘ inner, coordinatewise symbolic substitution."""
    if outer.nvars != inner.nvars:
        raise DimensionMismatch("composition dimension mismatch")
    return PolyMap([f.substitute(inner.forms) for f in outer.forms])


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
    # split into signed terms at top level
    terms = []
    cur = []
    sign = 1
    i = 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    while i <= len(s):
        ch = s[i] if i < len(s) else None
        if ch in ("+", "-") or ch is None:
            tok = "".join(cur).strip()
            if not tok:
                raise InputError(f"dangling sign in {text!r}")
            terms.append((sign, tok))
            cur = []
            sign = -1 if ch == "-" else 1
        else:
            cur.append(ch)
        i += 1
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
