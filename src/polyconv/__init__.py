"""Volterra-type convolution of classical orthogonal polynomial series.

The package computes the coefficients rho_{j,n}^m of

    integral_{-a}^{x+a} P_m(x-t) P_n(t) dt = sum_j rho_{j,n}^m P_j(x+a)

for the Jacobi, symmetric Jacobi, Gegenbauer, Legendre, Chebyshev, and
Laguerre families in closed form, assembles convolution matrices for
finite series, and certifies every closed form against an independent
exact-arithmetic oracle.
"""

from .basis import (
    Family,
    FamilySpec,
    GenericBasisData,
    chebyshev,
    endpoint_derivative,
    eval_poly,
    gegenbauer,
    generic_monic,
    jacobi,
    laguerre,
    legendre,
    monomial_expansion_b,
    spec_from_config,
    symmetric_jacobi,
)
from .closed_forms import (
    BatemanTensor,
    bateman_tensor,
    clear_caches,
    magnitude_grid,
    rho_closed,
    rho_closed_vector,
    symmetry_factor,
    zero_region,
)
from .convmat import (ConvMatrix, SeriesCoeffs, build_matrix,
                      convolve_series, rho_table)
from .generic_conv import (RhoRequest, generic_table, rho_highj, rho_lowj,
                           rho_taylor, rho_vector)
from .oracle import (MonomialPoly, convolve_exact, oracle_rho, oracle_table,
                     project_to_family, to_monomial)
from .scalars import (
    RATIONAL,
    FloatBackend,
    RationalBackend,
    Scalar,
    hyp_pfq,
    pochhammer,
)

__version__ = "0.1.0"

__all__ = [
    "BatemanTensor",
    "ConvMatrix",
    "Family",
    "FamilySpec",
    "FloatBackend",
    "GenericBasisData",
    "MonomialPoly",
    "RATIONAL",
    "RationalBackend",
    "RhoRequest",
    "Scalar",
    "SeriesCoeffs",
    "bateman_tensor",
    "build_matrix",
    "chebyshev",
    "clear_caches",
    "convolve_exact",
    "convolve_series",
    "endpoint_derivative",
    "eval_poly",
    "gegenbauer",
    "generic_monic",
    "generic_table",
    "hyp_pfq",
    "jacobi",
    "laguerre",
    "legendre",
    "magnitude_grid",
    "monomial_expansion_b",
    "oracle_rho",
    "oracle_table",
    "pochhammer",
    "project_to_family",
    "rho_closed",
    "rho_closed_vector",
    "rho_highj",
    "rho_lowj",
    "rho_table",
    "rho_taylor",
    "rho_vector",
    "spec_from_config",
    "symmetric_jacobi",
    "symmetry_factor",
    "to_monomial",
    "zero_region",
]
