"""Input types and the map from balance-sheet data to default drivers.

A firm defaults when log(assets/liabilities), scaled by asset volatility,
first hits zero. The driver starts at x0 = log(a0 / l0) / sigma with
a0 = s0 + l0 and l0 = R * L0: equity plus the recoverable slice of
liabilities over that slice, so riskier balance sheets start closer to the
barrier.
"""

import math
from dataclasses import dataclass

EPS_RHO = 1e-6   # margin keeping correlation matrices away from singularity
EPS_CHI = 1e-10  # floor on the 3D decorrelation volume factor


@dataclass(frozen=True)
class FirmInput:
    """Balance-sheet description of one firm.

    equity and liabilities are per unit notional (any common scale works,
    only the ratio matters). recovery is the fraction of liabilities paid
    out in default, in [0, 1).
    """
    equity: float
    liabilities: float
    volatility: float
    recovery: float

    def __post_init__(self):
        # written as "not x > 0" so that NaN fails too
        if not self.volatility > 0:
            raise ValueError("volatility must be positive")
        if not 0 <= self.recovery < 1:
            raise ValueError("recovery must be in [0, 1)")
        if not (self.equity > 0 and self.liabilities > 0):
            raise ValueError("equity and liabilities must be positive")


@dataclass(frozen=True)
class DriverState:
    """Initial distance to default of the driving Brownian motion."""
    x0: float

    def __post_init__(self):
        if not self.x0 > 0:
            raise ValueError("driver must start strictly above the barrier")


@dataclass(frozen=True)
class CorrelationTriple:
    """Pairwise instantaneous correlations (seller-reference,
    seller-buyer, reference-buyer)."""
    rho_xy: float
    rho_xz: float
    rho_yz: float

    def chi(self):
        """Volume factor of the correlation matrix Cholesky, sqrt(det)."""
        r = self
        v = (1.0 - r.rho_xy ** 2 - r.rho_xz ** 2 - r.rho_yz ** 2
             + 2.0 * r.rho_xy * r.rho_xz * r.rho_yz)
        return math.sqrt(max(v, 0.0))


@dataclass(frozen=True)
class CdsTerms:
    """Contract terms: maturity (years), running coupon, flat short rate,
    and the reference entity's recovery used in the protection leg."""
    maturity: float
    coupon: float
    rate: float
    recovery: float

    def __post_init__(self):
        if not 0 < self.maturity < math.inf:
            raise ValueError("maturity must be positive and finite")
        if not math.isfinite(self.coupon):
            raise ValueError("coupon must be finite")
        if not 0 <= self.rate < math.inf:
            raise ValueError("rate must be non-negative and finite")
        if not 0 <= self.recovery < 1:
            raise ValueError("recovery must be in [0, 1)")


def distance_to_default(firm, initial_value_is_distance=False):
    """Convert a FirmInput to its DriverState.

    With initial_value_is_distance, `equity` already holds the log asset
    to barrier distance log(a0 / l0) and only gets scaled by volatility.
    Otherwise the barrier is l0 = recovery * liabilities and the asset
    level a0 = equity + l0, so x0 = log(a0 / l0) / volatility.
    """
    if initial_value_is_distance:
        if firm.equity <= 0:
            raise ValueError("log distance must be positive")
        return DriverState(x0=firm.equity / firm.volatility)
    if firm.recovery <= 0:
        raise ValueError("zero recovery puts the barrier at zero asset value")
    l0 = firm.recovery * firm.liabilities
    a0 = firm.equity + l0
    return DriverState(x0=math.log(a0 / l0) / firm.volatility)


def validate_correlations(corr):
    """Check that the correlation matrix is usable.

    Every pairwise entry must sit in (-1 + EPS_RHO, 1 - EPS_RHO) and the
    determinant factor chi must clear EPS_CHI, otherwise the change of
    variables to the spherical domain degenerates.
    """
    lim = 1.0 - EPS_RHO
    for name in ("rho_xy", "rho_xz", "rho_yz"):
        v = getattr(corr, name)
        if not -lim < v < lim:
            raise ValueError(f"{name}={v} outside (-{lim}, {lim})")
    if corr.chi() < EPS_CHI:
        raise ValueError(
            f"correlation matrix too close to singular: chi={corr.chi():.3e}")
    return corr
