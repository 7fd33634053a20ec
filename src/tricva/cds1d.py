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

import numpy as np
from scipy import special as _sp

from .specfun import gauss_legendre, norm_cdf, norm_pdf

# Below this rate * tau the annuity's closed form divides a vanishing
# difference by the rate; its moment series in rate * tau is used
# instead, with enough terms that the first one dropped,
# (rate tau)^6 / 7!, is below 2e-22 of the sum.
_SERIES_RATE_TAU = 1e-3
_SERIES_TERMS = 6
# Above that cut the closed form's annuity A is good to about
# s / (rate A) ulps, s the default probability; where that passes this
# bound (1e-14 relative) the annuity's Gaussian series is used instead.
_CANCEL_ULPS = 45.0
# Cutoff wavenumber and Gauss-Legendre nodes of green_1d_integral.
_SINE_CUTOFF = 40.0
_SINE_NODES = 2000


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


def green_1d_integral(tau, y0, y):
    """Same density via the sine-transform representation.

    g = (2/pi) int_0^K e^(-k^2 tau/2) sin(k y0) sin(k y) dk, evaluated by
    Gauss-Legendre on _SINE_NODES nodes. The integrand dies like
    e^(-k^2 tau/2), so K ~ sqrt(80/tau) suffices; K = _SINE_CUTOFF
    covers tau >= 0.05.

    Kept as an independent route for validating the image construction.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    k, w = gauss_legendre(_SINE_NODES, 0.0, _SINE_CUTOFF)
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


def _annuity_series(tau, a, x, s):
    """Risky annuity from its moment series in x = rate tau.

    The annuity is tau sum_k (-x)^k / (k+1)! (q + g_(k+1)), with
    q = erf(a / sqrt2) the survival probability and
    g_m = E[(T/tau)^m; T <= tau] = c^m Gamma(1/2 - m, c) / sqrt(pi),
    c = a^2 / 2, the first-passage moments. Integrating
    int_0^tau u^k P(T <= u) du by parts gives them; the incomplete
    gamma recurrence g_m = (a phi(a) - c g_(m-1)) / (m - 1/2) from
    g_0 = s = erfc(a / sqrt2) yields them in turn. Every term is
    non-negative before its (-x)^k, so the sum does not cancel; the
    recurrence loses digits only for names far from default, where
    g <= erfc(a / sqrt2) is negligible next to q.
    """
    c = 0.5 * a * a
    q = _sp.erf(a / math.sqrt(2.0))
    edge = a * norm_pdf(a)
    g = s
    coef = 1.0
    total = 0.0
    for k in range(_SERIES_TERMS):
        g = (edge - c * g) / (k + 0.5)
        total = total + coef * (q + g)
        coef = coef * (-x / (k + 2))
    return tau * total


def _annuity_gaussian_series(tau, a, x, s):
    """Risky annuity for rate tau at or above the series cut, by a
    series of positive terms.

    With b = sqrt(2 x), x = rate tau, and R the Mills ratio, the loss
    numerator t1 + t2 - e^(-x) s of _legs_1d is e^(-x) phi(a) times the
    second difference R(a + b) + R(a - b) - 2 R(a). Subtracted from the
    riskless leg's -expm1(-x) term by term in b, that leaves

      rate A = 2 e^(-x) sum_(k>=1) b^(2k) / (2k)! W_(2k),
      W_n = int_0^inf t^n (phi(t) - phi(t + a)) dt > 0,

    so nothing cancels. With M_n = int_0^inf t^n phi(t + a) dt,
    integration by parts gives W_(n+1) = n W_(n-1) + a M_n and
    M_(n+1) = n M_(n-1) - a M_n, from W_0 = q / 2, M_0 = s / 2,
    M_1 = phi(a) - a M_0 and W_1 = phi(0) - phi(a) + a M_0. They are
    carried scaled, w_n = b^n W_n / n! and m_n = b^n M_n / n!; the
    Gaussian weight keeps the M recurrence's growth in a bounded. Terms
    are added until the last is below 1e-17 of the sum: 6 terms at
    x = 1e-3, 11 at 0.1, 20 at 1.
    """
    b = np.sqrt(2.0 * x)
    ab, bb = a * b, b * b
    m_prev = 0.5 * s
    m = b * (norm_pdf(a) - a * m_prev)
    w_prev = 0.5 * _sp.erf(a / math.sqrt(2.0))
    w = b * (a * m_prev - norm_pdf(0.0) * np.expm1(-0.5 * a * a))
    total = np.zeros_like(a)
    am = np.empty_like(a)
    for n in range(1, 1000):
        # m_(n+1) = (b^2 m_(n-1) - a b m_n) / (n + 1), in place of m_(n-1)
        np.multiply(ab, m, out=am)
        m_prev *= bb
        m_prev -= am
        m_prev /= n + 1
        w_prev *= bb
        w_prev += am
        w_prev /= n + 1
        m_prev, m = m, m_prev
        w_prev, w = w, w_prev
        if n % 2:
            total += w
            if np.all(w <= 1e-17 * total):
                break
    return 2.0 * tau * np.exp(-x) / x * total


def _legs_1d(tau, y0, rate, recovery):
    """Default leg and risky annuity from one evaluation.

    With T the first-passage time, s = P(T <= tau) and a = y0/sqrt(tau),
    the default leg is (1-R) E[e^(-rate T); T <= tau] = (1-R)(t1 + t2).
    The annuity is the riskless -expm1(-rate tau)/rate less the
    discounted default loss (t1 + t2 - e^(-rate tau) s)/rate >= 0, whose
    terms are all of the size of s, so no O(1/rate) numbers cancel; the
    difference in the numerator still loses digits like eps/(rate tau).
    Where rate tau < 1e-3, decided per element and zero rate included,
    the annuity instead comes from its moment series in rate tau
    (_annuity_series), evaluated on those elements only. Against
    40-digit quadrature the series is within 2e-16 relative for names
    near default (tau = 10, y0 = 0.1, rate 2e-9). Above the cut the
    closed form loses about s / (rate A) ulps, 7e-12 to 8e-11 relative
    just above it for such names (tau = 10, y0 = 0.1 to tau = 30,
    y0 = 0.01). Where that passes _CANCEL_ULPS the annuity comes from
    _annuity_gaussian_series instead. Against 40-digit quadrature on
    60 random names (tau in [0.1, 30], a in [3e-4, 3], rate tau in
    [1e-3, 3]) the series was within 1.1e-15 relative and the closed
    form, where kept, within 7.4e-15.

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
    # paid = t1 + t2, built in place; t1 = e^(y0 sqrt(2r)) N(-a-b)
    # = 0.5 e^(-y0^2/2tau - r tau) erfcx((a+b)/sqrt2)
    paid = 0.5 * np.exp(-0.5 * a * a - rate * tau) * _sp.erfcx(
        (a + b) / math.sqrt(2.0))
    paid += 0.5 * np.exp(-y0 * math.sqrt(2.0 * rate)) * _sp.erfc(
        (a - b) / math.sqrt(2.0))
    x = rate * tau
    small = x < _SERIES_RATE_TAU
    if np.all(small):
        ann = _annuity_series(tau, a, x, s)
    else:
        riskless = -np.expm1(-x) / rate
        loss = np.asarray((paid - np.exp(-x) * s) / rate)
        ann = np.subtract(riskless, loss, out=loss)
        cancels = ~small & (s * tau > _CANCEL_ULPS * x * ann)
        tau_b = np.broadcast_to(tau, a.shape)
        for at, series in ((np.broadcast_to(small, a.shape),
                            _annuity_series),
                           (cancels, _annuity_gaussian_series)):
            if np.any(at):
                tau_at = tau_b[at]
                ann[at] = series(tau_at, a[at], rate * tau_at, s[at])
    d = (1.0 - recovery) * paid
    if np.ndim(d) == 0:
        return float(d), float(ann)
    return d, ann


def annuity_1d(tau, y0, rate):
    """Risky annuity int_0^tau e^(-rate*s) Q(s) ds, closed form."""
    return _legs_1d(tau, y0, rate, 0.0)[1]


def default_leg_1d(tau, y0, rate, recovery):
    """Protection leg value (1-R) E[e^(-rate * default time); default <= tau]."""
    return _legs_1d(tau, y0, rate, recovery)[0]


def cds_values_1d(tau, y0, terms):
    """Protection-buyer CDS value per unit notional, over arrays of tau
    and y0: default_leg - coupon * annuity.

    Positive when the running coupon undercompensates the default risk
    at this driver level; the exposure quadratures run it over grids.
    """
    d, a = _legs_1d(tau, y0, terms.rate, terms.recovery)
    return d - terms.coupon * a


def breakeven_coupon_1d(tau, y0, rate, recovery):
    """Coupon making the CDS worthless at inception: default_leg / annuity."""
    d, a = _legs_1d(tau, y0, rate, recovery)
    return d / a
