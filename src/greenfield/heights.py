"""Weil and canonical heights over Q from local escape rates.

Heights are assembled place by place: outside the support of the
coordinates, the map coefficients and the resultant, the system has
good reduction and a unit lift, so the local term vanishes exactly.
Nonarchimedean good places contribute exact ledgers; the archimedean
place and bad primes contribute floats with a tracked tail bound, with
the tolerance budget split evenly among them.
"""

import math
from dataclasses import dataclass, field

from .dynsys import DynSystem, escape_rate
from .errors import DomainError
from .homopoly import ProjPoint
from .pffield import Place, support, sup_log


@dataclass
class HeightValue:
    value: float
    error: float
    local_profile: dict = field(default_factory=dict)  # Place -> LogMag


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


def weil_height(point: ProjPoint) -> HeightValue:
    """Standard Weil height of a rational point: sum over places of
    log max_i |x_i|_v."""
    if point.numeric:
        raise DomainError("Weil height needs an exact rational lift")
    profile = {}
    for place in sorted(_coordinate_places(point)):
        mag = sup_log(place, point.lift)
        if not mag.is_zero() or place.is_archimedean:
            profile[place] = mag
    return _summed(profile)


def _summed(profile: dict) -> HeightValue:
    """The height whose local terms are the profile's ledgers."""
    return HeightValue(math.fsum(m.total() for m in profile.values()),
                       sum(m.arch_err for m in profile.values()), profile)


def canonical_height(system: DynSystem, point: ProjPoint, tol: float = 1e-9) -> HeightValue:
    """Canonical height of a rational point: the sum of its local escape
    rates, total error at most tol (plus float slop).  The profile holds
    the escape rate of the given lift at each contributing place;
    replacing the lift by c*lift shifts each entry by log|c|_v and leaves
    the total unchanged (product formula)."""
    if point.numeric:
        raise DomainError("height profile needs an exact rational lift")
    if not tol > 0:
        raise DomainError("tol must be positive")
    places = contributing_places(system, point)
    inexact = [v for v in places if v.is_archimedean or not system.reduction(v).good]
    tol_each = tol / max(len(inexact), 1)
    profile = {place: escape_rate(system, place, point,
                                  tol_each if place in inexact else tol)
               for place in places}
    return _summed(profile)
