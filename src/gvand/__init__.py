"""Exact generalized Vandermonde determinants.

Supports (ordered exponent sets in NN^n) define N x N matrices of
monomials X_i^(gamma_l); this package expands their determinants
exactly, decides absolute irreducibility over any characteristic from
three support conditions, and cross-checks the decisions with a
characteristic-blind tropical construction plus independent oracles.
"""

from gvand.exponents import (
    SNFResult,
    Support,
    affine_dimension,
    componentwise_min,
    d_gamma,
    normalize,
    reduce_to_span_coordinates,
    smith_normal_form,
)
from gvand.irreducibility import (
    VERDICT_COLLINEAR,
    VERDICT_IRREDUCIBLE,
    VERDICT_MONOMIAL_FACTOR,
    VERDICT_POWER,
    VERDICT_SMALL_N,
    IrreducibilityCertificate,
    decide,
    verify_certificate,
)
from gvand.poly import PolyRing, SparsePoly, grid_ring, grid_var
from gvand.rings import ZZ, CoefficientRing
from gvand.tropical import (
    TROPICAL_IRREDUCIBLE,
    TROPICAL_REDUCIBLE,
    TropicalCertificate,
    decide_tropical_irreducibility,
    regular_subdivision,
)
from gvand.vandermonde import (
    build_matrix,
    expand_chunks,
    row_expansion,
    vandermonde_determinant,
)

__version__ = "0.1.0"
