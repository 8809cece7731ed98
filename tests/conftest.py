import pytest
from fractions import Fraction

from hypothesis import settings

from greenfield.dynsys import DynSystem
from greenfield.experiments import EllipticCurve, LattesSystem
from greenfield.homopoly import parse_map

# Fixed example sequences, so that a run's results do not depend on the
# run; per-test max_examples are untouched.
settings.register_profile("greenfield", derandomize=True, deadline=None)
settings.load_profile("greenfield")


@pytest.fixture(scope="session")
def power_map():
    """z^2 as (x^2, y^2): good reduction everywhere, Res = 1."""
    return DynSystem(parse_map(["x0^2", "x1^2"]))


@pytest.fixture(scope="session")
def power_map_p2():
    """(x^2, y^2, z^2) on P^2."""
    return DynSystem(parse_map(["x0^2", "x1^2", "x2^2"]))


@pytest.fixture(scope="session")
def chebyshev():
    """z^2 - 2, conjugate to w + 1/w -> w^2 + 1/w^2."""
    return DynSystem(parse_map(["x0^2 - 2*x1^2", "x1^2"]))


@pytest.fixture(scope="session")
def half_map():
    """z^2 + 1/2: bad reduction exactly at 2 (and at infinity)."""
    return DynSystem(parse_map(["x0^2 + 1/2*x1^2", "x1^2"]))


@pytest.fixture(scope="session")
def mordell_lattes():
    """Duplication on y^2 = x^3 - 2 with the generator (3, 5)."""
    return LattesSystem(EllipticCurve(Fraction(0), Fraction(-2)),
                        (Fraction(3), Fraction(5)))
