"""Places of Q and exact log-absolute-value arithmetic.

The base field is Q with its standard normalized absolute values:
|x|_p = p^(-ord_p x) at a finite prime p and the usual |x| at the
archimedean place.  Logs of absolute values are carried by LogMag,
which keeps every nonarchimedean contribution symbolic (a rational
multiple of log p) so that adelic cancellations can be tested exactly;
only the archimedean part is a float, with a tracked error bound.

The Place interface (is_archimedean / valuation) is kept
minimal so that a function-field instance can be added later without
touching consumers.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from sympy import factorint, isprime, multiplicity

from .errors import DomainError, InputError

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(s: str) -> Fraction:
    """Parse "a" or "a/b" (base 10, optional leading minus) into a Fraction."""
    s = s.strip()
    if not _RATIONAL_RE.match(s):
        raise InputError(f"not a rational literal: {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise InputError(f"zero denominator: {s!r}")
    except ValueError:  # more digits than int() converts
        raise InputError(f"rational literal of {len(s)} characters is too long")


# log(0) (never mixed into LogMag ledgers) and a Green value on a
# singular tuple; tested with `is`, so a stray math.inf never matches.
MINUS_INFINITY = float("-inf")
PLUS_INFINITY = float("inf")


@dataclass(frozen=True)
class Place:
    """A normalized absolute value on Q: archimedean or p-adic.

    `p` is None at the archimedean place and a prime at a finite place.
    Ordering puts the archimedean place first, then primes ascending,
    which fixes the deterministic iteration order used in reports.
    """

    p: int | None

    @staticmethod
    def archimedean() -> "Place":
        return Place(None)

    @staticmethod
    def prime(p: int) -> "Place":
        if p < 2 or not isprime(p):
            raise DomainError(f"not a prime: {p}")
        return Place(p)

    def _key(self):
        return (0, 0) if self.p is None else (1, self.p)

    def __lt__(self, other):
        return self._key() < other._key()

    @property
    def is_archimedean(self) -> bool:
        return self.p is None

    def valuation(self, x) -> int:
        """ord_p(x) for nonzero rational x; undefined at the archimedean place."""
        if self.p is None:
            raise DomainError("archimedean place has no valuation")
        if not isinstance(x, int):
            x = Fraction(x)  # most of the cost of a call; an int needs none
        if x == 0:
            raise DomainError("valuation of zero")
        return multiplicity(self.p, x.numerator) - multiplicity(self.p, x.denominator)

    def __repr__(self):
        return "inf" if self.p is None else f"p={self.p}"

    @staticmethod
    def parse(s: str) -> "Place":
        s = s.strip()
        if s == "inf":
            return Place.archimedean()
        if s.startswith("p="):
            try:
                return Place.prime(int(s[2:]))
            except (ValueError, DomainError) as exc:
                raise InputError(f"not a place: {s!r} ({exc})")
        raise InputError(f"not a place: {s!r} (expected 'inf' or 'p=<prime>')")


class LogMag:
    """Exact ledger for a log-absolute-value.

    `padic` maps primes p to rational coefficients q_p and means
    sum(q_p * log p); `arch` is a binary64 term with error bound
    `arch_err`.  Addition and negation are exact on the padic part and
    interval-correct on the arch part.  Zero coefficients are never
    stored.
    """

    __slots__ = ("padic", "arch", "arch_err")

    def __init__(self, padic=None, arch: float = 0.0, arch_err: float = 0.0):
        clean = {}
        if padic:
            for p, q in padic.items():
                q = Fraction(q)
                if q != 0:
                    clean[p] = q
        self.padic = clean
        self.arch = float(arch)
        if arch_err < 0:
            raise DomainError("negative arch_err")
        self.arch_err = float(arch_err)

    @staticmethod
    def zero() -> "LogMag":
        return LogMag()

    @staticmethod
    def of_log_prime(p: int, q) -> "LogMag":
        return LogMag({p: Fraction(q)})

    @staticmethod
    def of_float(x: float, err: float = 0.0) -> "LogMag":
        return LogMag(None, x, err)

    @property
    def is_exact(self) -> bool:
        return self.arch_err == 0.0

    def is_zero(self) -> bool:
        return not self.padic and self.arch == 0.0

    def __add__(self, other: "LogMag") -> "LogMag":
        padic = dict(self.padic)
        for p, q in other.padic.items():
            s = padic.get(p, 0) + q
            if s == 0:
                padic.pop(p, None)
            else:
                padic[p] = s
        arch = self.arch + other.arch
        err = self.arch_err + other.arch_err
        if arch != 0.0:
            err += math.ulp(abs(arch))
        out = LogMag.__new__(LogMag)
        out.padic, out.arch, out.arch_err = padic, arch, err
        return out

    def __neg__(self) -> "LogMag":
        out = LogMag.__new__(LogMag)
        out.padic = {p: -q for p, q in self.padic.items()}
        out.arch, out.arch_err = -self.arch, self.arch_err
        return out

    def __sub__(self, other: "LogMag") -> "LogMag":
        return self + (-other)

    def scale(self, c) -> "LogMag":
        """Multiply the ledger by an exact rational."""
        c = Fraction(c)
        if c == 0:
            return LogMag.zero()
        out = LogMag.__new__(LogMag)
        out.padic = {p: q * c for p, q in self.padic.items()}
        out.arch = self.arch * float(c)
        out.arch_err = self.arch_err * abs(float(c)) + (
            math.ulp(abs(out.arch)) if out.arch != 0.0 else 0.0
        )
        return out

    def total(self) -> float:
        """Evaluate the ledger to a float (symbolic part included)."""
        return math.fsum([self.arch] + [float(q) * math.log(p) for p, q in sorted(self.padic.items())])

    def __eq__(self, other):
        return (
            isinstance(other, LogMag)
            and self.padic == other.padic
            and self.arch == other.arch
            and self.arch_err == other.arch_err
        )

    def __repr__(self):
        parts = [f"{q}*log{p}" for p, q in sorted(self.padic.items())]
        if self.arch != 0.0 or not parts:
            parts.append(f"{self.arch!r}(±{self.arch_err:.2e})")
        return "LogMag(" + " + ".join(parts) + ")"


def abs_log(place: Place, x) -> LogMag:
    """log|x|_v as a LogMag; exact at finite places, ≤ a few ulp at infinity."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("log of zero magnitude")
    if place.is_archimedean:
        # math.log of an int is correctly rounded, however many digits it has
        ln, ld = math.log(abs(x.numerator)), math.log(x.denominator)
        val = ln - ld
        err = math.ulp(abs(ln)) + math.ulp(abs(ld)) + math.ulp(abs(val) + 1.0)
        return LogMag.of_float(val, err)
    v = place.valuation(x)
    return LogMag.of_log_prime(place.p, -v) if v else LogMag.zero()


def sup_log(place: Place, values) -> LogMag:
    """log max_i |x_i|_v over the nonzero rationals among the values."""
    xs = [Fraction(x) for x in values if x != 0]
    if not xs:
        raise DomainError("sup-norm of zero values")
    if place.is_archimedean:
        return abs_log(place, max(abs(x) for x in xs))
    return abs_log(place, min(xs, key=place.valuation))


def support(x) -> set[Place]:
    """The places where |x|_v differs from 1 (archimedean included iff |x| != 1)."""
    x = Fraction(x)
    if x == 0:
        raise DomainError("support of zero")
    places = set()
    # numerator and denominator factored separately: they are coprime,
    # and half-size inputs keep the factorizer out of its slow paths
    for part in (abs(x.numerator), x.denominator):
        for p in factorint(part):
            if p > 1:
                places.add(Place.prime(p))
    if abs(x) != 1:
        places.add(Place.archimedean())
    return places


def product_formula_sum(x) -> LogMag:
    """Sum of abs_log(v, x) over support(x) plus the archimedean place.

    The padic part of the result is exactly the negation of the prime
    factorization of |x|, which is the certificate of the product
    formula; total() is 0 only up to the rounding of log|x| and of the
    float sum.
    """
    x = Fraction(x)
    if x == 0:
        raise DomainError("product formula sum of zero")
    acc = abs_log(Place.archimedean(), x)
    for place in sorted(support(x)):
        if not place.is_archimedean:
            acc = acc + abs_log(place, x)
    return acc
