import math
import random
from fractions import Fraction

import pytest
from sympy import prime

from greenfield.errors import DomainError, InputError
from greenfield.pffield import (LogMag, Place, abs_log, parse_rational,
                                product_formula_sum, support)


def test_abs_log_prime_examples():
    assert abs_log(Place.prime(2), 12).padic == {2: Fraction(-2)}
    assert abs_log(Place.prime(5), 12).is_zero()
    mag = abs_log(Place.archimedean(), Fraction(-3, 2))
    assert mag.arch == pytest.approx(math.log(1.5), abs=1e-15)
    assert mag.arch_err > 0


def test_abs_log_zero_rejected():
    with pytest.raises(DomainError):
        abs_log(Place.prime(3), 0)


def test_place_construction_and_parsing():
    assert repr(Place.prime(7)) == "p=7"
    assert repr(Place.archimedean()) == "inf"
    assert Place.parse("p=11") == Place.prime(11)
    assert Place.parse("inf").is_archimedean
    with pytest.raises(DomainError):
        Place.prime(6)
    with pytest.raises(InputError):
        Place.parse("q=7")


def test_place_interface():
    p = Place.prime(3)
    assert p.valuation(Fraction(18, 5)) == 2
    assert p.valuation(Fraction(5, 27)) == -3


def test_support_examples():
    assert support(12) == {Place.prime(2), Place.prime(3), Place.archimedean()}
    assert support(1) == set()
    assert support(-1) == set()
    # |x| = 1 but nontrivial finite support
    assert support(Fraction(2, 2)) == set()
    assert Place.archimedean() not in support(Fraction(-3, 3))


def test_product_formula_examples():
    for x in (12, Fraction(-7, 9), Fraction(1)):
        s = product_formula_sum(x)
        assert abs(s.total()) <= 1e-12
    assert product_formula_sum(1).is_zero()


def test_product_formula_padic_negates_arch_expansion():
    s = product_formula_sum(Fraction(-40, 9))
    # 40/9 = 2^3 * 5 / 3^2: the ledger's symbolic part is minus that
    assert s.padic == {2: Fraction(-3), 3: Fraction(2), 5: Fraction(-1)}


def test_product_formula_random_rationals():
    rng = random.Random(3)
    pool = [2, 3, 5, 7, 11, 13] + [prime(rng.randint(10, 2000)) for _ in range(30)]

    def rand_nonzero():
        num, den = 1, 1
        for _ in range(rng.randint(1, 8)):
            num *= rng.choice(pool) ** rng.randint(0, 3)
            den *= rng.choice(pool) ** rng.randint(0, 3)
        return Fraction(rng.choice([1, -1]) * num, den)

    for _ in range(300):
        s = product_formula_sum(rand_nonzero())
        assert abs(s.total()) <= 1e-9


def test_abs_log_is_a_homomorphism():
    rng = random.Random(11)
    arch = Place.archimedean()
    for _ in range(100):
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * rng.choice([1, -1])
        y = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        for place in (Place.prime(2), Place.prime(3), Place.prime(97)):
            lhs = abs_log(place, x * y)
            rhs = abs_log(place, x) + abs_log(place, y)
            assert lhs.padic == rhs.padic
        lhs = abs_log(arch, x * y)
        rhs = abs_log(arch, x) + abs_log(arch, y)
        assert abs(lhs.arch - rhs.arch) <= lhs.arch_err + rhs.arch_err


def test_support_of_product_is_contained_in_union():
    rng = random.Random(5)
    for _ in range(50):
        x = Fraction(rng.randint(1, 9999), rng.randint(1, 9999))
        y = Fraction(rng.randint(1, 9999), rng.randint(1, 9999))
        assert support(x * y) <= support(x) | support(y)


def test_logmag_arithmetic_exact_on_padic_parts():
    a = LogMag({2: Fraction(1, 3), 5: 2}, 0.25, 1e-16)
    b = LogMag({2: Fraction(-1, 3), 7: 1}, -0.25, 1e-16)
    s = a + b
    assert s.padic == {5: Fraction(2), 7: Fraction(1)}  # exact cancellation at 2
    assert s.arch == 0.0
    n = -a
    assert n.padic == {2: Fraction(-1, 3), 5: Fraction(-2)}
    assert (a - a).is_zero()
    assert (a - a).padic == {}
    sc = a.scale(Fraction(3))
    assert sc.padic == {2: Fraction(1), 5: Fraction(6)}


def test_logmag_rejects_negative_error():
    with pytest.raises(DomainError):
        LogMag({}, 0.0, -1e-3)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-12") == -12
    for bad in ("1.5", "a/b", "3/", "--2", "", "1/0", "-7/00"):
        with pytest.raises(InputError):
            parse_rational(bad)
