"""Weil and canonical heights over Q, each returned as its profile: a
dict from Place to the LogMag local term.  The height is the ledger
sum(profile.values(), LogMag.zero()): value total(), error arch_err.

Profiles are assembled place by place: outside the support of the
coordinates, the map coefficients and the resultant, the system has
good reduction and a unit lift, so the local term vanishes exactly.
Nonarchimedean good places contribute exact ledgers; the archimedean
place and bad primes contribute floats with a tracked tail bound, with
the tolerance budget split evenly among them.
"""

from .dynsys import DynSystem, escape_rate
from .errors import DomainError
from .homopoly import ProjPoint
from .pffield import LogMag, Place, support, sup_log


def _coordinate_places(point: ProjPoint) -> set[Place]:
    places = {Place.archimedean()}
    for x in point.lift:
        if x != 0:
            places |= support(x)
    return places


def contributing_places(system: DynSystem, point: ProjPoint) -> list[Place]:
    """Places where the local canonical term can be nonzero: support of
    the coordinates, of the map coefficients, and of the resultant,
    plus the archimedean place."""
    places = _coordinate_places(point)
    for f in system.map.forms:
        for c in f.coeffs.values():
            places |= support(c)
    places |= support(system.resultant)
    return sorted(places)


def weil_height(point: ProjPoint) -> dict[Place, LogMag]:
    """Profile of the standard Weil height of a rational point: log max_i
    |x_i|_v at the archimedean place and at each place where it is
    nonzero."""
    if point.numeric:
        raise DomainError("Weil height needs an exact rational lift")
    profile = {}
    for place in sorted(_coordinate_places(point)):
        mag = sup_log(place, point.lift)
        if not mag.is_zero() or place.is_archimedean:
            profile[place] = mag
    return profile


def canonical_height(system: DynSystem, point: ProjPoint,
                     tol: float = 1e-9) -> dict[Place, LogMag]:
    """Profile of the canonical height of a rational point: the escape
    rate of the given lift at each contributing place, within its share
    of tol.  The height's error is the summed ledger's arch_err.
    Replacing the lift by c*lift shifts each entry by log|c|_v and leaves
    the sum unchanged (product formula)."""
    if point.numeric:
        raise DomainError("height profile needs an exact rational lift")
    if not tol > 0:
        raise DomainError("tol must be positive")
    places = contributing_places(system, point)
    inexact = [v for v in places if v.is_archimedean or not system.reduction(v).good]
    tol_each = tol / max(len(inexact), 1)
    return {place: escape_rate(system, place, point, tol_each if place in inexact else tol)
            for place in places}
