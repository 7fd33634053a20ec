"""Bilateral counterparty risk for credit default swaps.

Prices a CDS between a protection buyer and seller on a reference name,
where all three can default when a correlated Brownian driver first hits
a barrier. Survival probabilities and credit/debit value adjustments come
from closed-form kernels in one and two names and from a finite-element
eigenfunction expansion on a spherical triangle in three.
"""

from .model import (CdsTerms, CorrelationTriple, DriverState, FirmInput,
                    distance_to_default, validate_correlations)
from .cds1d import (survival_1d, annuity_1d, default_leg_1d, cds_values_1d,
                    breakeven_coupon_1d)
from .cds2d import (WedgeCoords, to_wedge, green_2d_eigen, green_2d_images,
                    survival_2d, survival_2d_1f1, cva_2d)
from .domain3d import (DomainSpec, SurfaceMesh, build_domain, build_mesh,
                       decorrelate, correlate, theta_max_at)
from .fem import (EigenBasis, build_basis, solve_eig, eval_basis,
                  truncate_basis)
from .cds3d import (TruncationWarning, SphericalPoint, transform_3d,
                    green_3d, survival_3d, prepare_pricing, cva_3d, dva_3d,
                    breakeven_coupon_3d, Price3d, price_3d)
from .mc_oracle import (McConfig, McEstimate, simulate_survival,
                        simulate_cva_dva, simulate_contract, richardson)

__version__ = "0.1.0"

__all__ = [
    "CdsTerms", "CorrelationTriple", "DriverState", "FirmInput",
    "distance_to_default", "validate_correlations",
    "survival_1d", "annuity_1d", "default_leg_1d", "cds_values_1d",
    "breakeven_coupon_1d",
    "WedgeCoords", "to_wedge", "green_2d_eigen", "green_2d_images",
    "survival_2d", "survival_2d_1f1", "cva_2d",
    "DomainSpec", "SurfaceMesh", "build_domain", "build_mesh",
    "decorrelate", "correlate", "theta_max_at",
    "EigenBasis", "build_basis", "solve_eig", "eval_basis", "truncate_basis",
    "TruncationWarning", "SphericalPoint", "transform_3d", "green_3d",
    "survival_3d", "prepare_pricing", "cva_3d", "dva_3d",
    "breakeven_coupon_3d", "Price3d", "price_3d",
    "McConfig", "McEstimate", "simulate_survival", "simulate_cva_dva",
    "simulate_contract", "richardson",
    "__version__",
]
