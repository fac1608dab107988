"""Exact denominator identities and Theta correspondence tables for the
classical Lie superalgebras gl(m,n), B(m,n), C(m+1), D(m,n).

Everything is integer-exact: weights live in the half-integral eps/delta
lattice, characters are sparse series truncated by principal height, and all
identities are checked coefficient by coefficient.
"""

import types as _types

from .weights import Weight, inner, is_isotropic
from .rootdata import (
    RootDatum,
    BasisOrder,
    Symbol,
    PositiveSystem,
    build_root_datum,
    positive_system,
    odd_reflect,
    standard_order,
    all_basis_orders,
    distinguished_order,
)
from .weyl import WeylElement, sgn, sgn_prime, reflection, full_weyl, sharp_subgroup, coset_reps
from .series import CharSeries, weyl_character
from .diagrams import (
    ArcDiagram,
    enumerate_diagrams,
    build_nice,
    reduce_to_simple,
    odd_reflect_diagram,
    interval_reflect,
)
from .denominators import (
    IdentityReport,
    compare,
    verify,
    verify_glkk,
    lhs,
    right_side,
    WeylSum,
    c_g,
    princ_constant,
    window4,
)
from .theta import make_pair, BPair, D1Pair, D2Pair, D2PrimePair, GLPair, ThetaEntry
from .kw import verify_chv, verify_xx, verify_kwfor, natural_supercharacter, kw_systems

# every public name imported above; the submodules, bound as a side effect of
# those imports, are left out
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
