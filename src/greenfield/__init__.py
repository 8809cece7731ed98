"""Computable pieces of the arithmetic of polarized dynamical systems
over Q: places and exact log-magnitude ledgers, homogeneous polynomial
dynamics, Macaulay resultants and elimination certificates, escape
rates and filled Julia sets, the special spanning bases, Arakelov-Green
values with transfinite-diameter witnesses and envelopes, canonical
heights, and the experiment drivers built on top of them.
"""

from .basis import (BasisFamily, GenElement, floor_G, gen_degrees,
                    monomial_basis, section_dim, spanning_family, special_basis)
from .dynsys import (DynSystem, Membership, check_invariance, escape_rate,
                     membership_of)
from .errors import (DimensionMismatch, DomainError, GreenfieldError,
                     InputError, InternalCheckError, NotAMorphism,
                     PreconditionError, ResourceLimit)
from .experiments import (EllipticCurve, LattesSystem, adelic_report,
                          duplication_map, lehmer_scan, multiples_search,
                          transfin_trend)
from .green import (dbn_witness, eval_det_log, fekete_search, green_value,
                    hadamard_envelope, julia_radius_log)
from .heights import canonical_height, contributing_places, weil_height
from .homopoly import (HomoForm, PolyMap, ProjPoint, coeff_sup_log, compose,
                       evaluate, form_str, iterate, parse_form, parse_map)
from .macaulay import (MacaulayMatrix, elimination_certificates,
                       macaulay_resultant, r_normalized)
from .pffield import (LogMag, MINUS_INFINITY, PLUS_INFINITY, Place, abs_log,
                      product_formula_sum, support)

__version__ = "0.1.0"
