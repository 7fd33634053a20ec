"""Single-name CDS pricing off a Brownian driver absorbed at zero.

The reference's driver y starts at y0 > 0 and the name defaults when y
first hits 0. Everything here is closed form: the absorbed transition
density (image construction or sine-transform), the survival probability,
the risky annuity, the protection leg, and the resulting CDS value per
unit notional.

Units: tau in years, flat continuously compounded short rate, coupon paid
continuously. Value is from the protection buyer's side: protection leg
minus coupon leg.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .specfun import gauss_legendre, norm_cdf, norm_pdf

# Below this rate * tau, the annuity's discounted default loss divides a
# vanishing difference by the rate; the zero-rate loss is used instead.
_RATE_FLOOR = 1e-8


def green_1d_images(tau, y0, y):
    """Absorbed-at-zero Brownian transition density, image construction.

    g(tau, y0, y) = phi((y-y0)/sqrt(tau))/sqrt(tau) - phi((y+y0)/sqrt(tau))/sqrt(tau)

    Vanishes at y = 0, integrates to the survival probability.
    """
    tau = float(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    y = np.asarray(y, dtype=float)
    rt = math.sqrt(tau)
    out = np.asarray((norm_pdf((y - y0) / rt) - norm_pdf((y + y0) / rt)) / rt)
    return out if out.ndim else float(out)


def green_1d_integral(tau, y0, y, k_max=40.0, n_nodes=2000):
    """Same density via the sine-transform representation.

    g = (2/pi) int_0^kmax e^(-k^2 tau/2) sin(k y0) sin(k y) dk, evaluated by
    Gauss-Legendre. The integrand dies like e^(-k^2 tau/2), so k_max ~
    sqrt(80/tau) suffices; the default covers tau >= 0.05.

    Kept as an independent route for validating the image construction.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    k, w = gauss_legendre(n_nodes, 0.0, k_max)
    y = np.asarray(y, dtype=float)
    vals = np.exp(-0.5 * k * k * tau) * np.sin(k * y0) * np.sin(
        np.multiply.outer(y, k))
    out = (2.0 / math.pi) * vals @ w
    return out if out.ndim else float(out)


def survival_1d(tau, y0):
    """P(driver stays above 0 up to tau) = 2 N(y0/sqrt(tau)) - 1."""
    tau = np.asarray(tau, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be positive")
    out = 2.0 * norm_cdf(y0 / np.sqrt(tau)) - 1.0
    return out if out.ndim else float(out)


def _legs_1d(tau, y0, rate, recovery):
    """Default leg and risky annuity from one evaluation.

    With T the first-passage time, s = P(T <= tau) and a = y0/sqrt(tau),
    the default leg is (1-R) E[e^(-rate T); T <= tau] = (1-R)(t1 + t2).
    The annuity is the riskless -expm1(-rate tau)/rate less the
    discounted default loss (t1 + t2 - e^(-rate tau) s)/rate >= 0, whose
    terms are all of the size of s, so no O(1/rate) numbers cancel.
    Below the rate floor, decided per element, the loss is taken at zero
    rate. Dropping its discounting errs by under rate tau^2 / 2, so by
    rate tau^2 / (2 A) relative to the annuity A; for a name near
    default that is far above rate tau (8.8e-8 against 9e-9 at tau = 10,
    y0 = 0.1, rate 9e-10).

    t1 and t2 fold e^(+y0 sqrt(2 rate)) and its far normal tail into
    scaled complementary error functions with non-positive exponents;
    the literal form overflows once y0 sqrt(2 rate) > ~700.
    """
    tau = np.asarray(tau, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be positive")
    if np.any(y0 <= 0):
        raise ValueError("y0 must be positive")
    rate = float(rate)
    if rate < 0:
        raise ValueError("rate must be non-negative")

    a = y0 / np.sqrt(tau)
    b = np.sqrt(2.0 * rate * tau)
    s = _sp.erfc(a / math.sqrt(2.0))
    # e^(y0 sqrt(2r)) N(-a-b) = 0.5 e^(-y0^2/2tau - r tau) erfcx((a+b)/sqrt2)
    t1 = 0.5 * np.exp(-0.5 * a * a - rate * tau) * _sp.erfcx(
        (a + b) / math.sqrt(2.0))
    t2 = 0.5 * np.exp(-y0 * math.sqrt(2.0 * rate)) * _sp.erfc(
        (a - b) / math.sqrt(2.0))
    paid = t1 + t2
    x = rate * tau
    small = x < _RATE_FLOOR
    riskless = loss = 0.0
    if not np.all(small):
        riskless = -np.expm1(-x) / rate
        loss = (paid - np.exp(-x) * s) / rate
    if np.any(small):
        # 1 - x/2 is -expm1(-x)/x to x^2/6, also where x underflows; the
        # loss is int_0^tau (1 - Q(u)) du at zero rate
        riskless = np.where(small, tau * (1.0 - 0.5 * x), riskless)
        loss = np.where(small, (tau + y0 * y0) * s
                        - 2.0 * y0 * np.sqrt(tau) * norm_pdf(a), loss)
    d = (1.0 - recovery) * paid
    ann = riskless - loss
    if np.ndim(d) == 0:
        return float(d), float(ann)
    return d, ann


def annuity_1d(tau, y0, rate):
    """Risky annuity int_0^tau e^(-rate*s) Q(s) ds, closed form."""
    return _legs_1d(tau, y0, rate, 0.0)[1]


def default_leg_1d(tau, y0, rate, recovery):
    """Protection leg value (1-R) E[e^(-rate * default time); default <= tau]."""
    return _legs_1d(tau, y0, rate, recovery)[0]


@dataclass(frozen=True)
class Cds1dQuote:
    """Valuation breakdown of a single-name CDS."""
    value: float
    annuity: float
    default_leg: float
    survival: float


def cds_value_1d(tau, y0, terms):
    """Protection-buyer value of a CDS on one name, per unit notional.

    value = default_leg - coupon * annuity. Positive when the running
    coupon undercompensates the default risk at this driver level.
    """
    d, a = _legs_1d(tau, y0, terms.rate, terms.recovery)
    q = survival_1d(tau, y0)
    return Cds1dQuote(value=d - terms.coupon * a, annuity=a, default_leg=d,
                      survival=q)


def cds_values_1d(tau, y0, terms):
    """Vectorized protection-buyer CDS value over arrays of tau and y0.

    Same payout as cds_value_1d but skipping the quote container; used in
    the exposure quadratures where the valuation runs over a grid.
    """
    d, a = _legs_1d(tau, y0, terms.rate, terms.recovery)
    return d - terms.coupon * a


def breakeven_coupon_1d(tau, y0, rate, recovery):
    """Coupon making the CDS worthless at inception: default_leg / annuity."""
    d, a = _legs_1d(tau, y0, rate, recovery)
    return d / a
