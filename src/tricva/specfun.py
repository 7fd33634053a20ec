"""Special functions used by the pricing routines.

Thin wrappers around scipy for the standard pieces (normal cdf, log-gamma,
scaled modified Bessel) plus an in-repo confluent hypergeometric 1F1 tuned
for the negative real axis, where naive summation cancels catastrophically.

All functions accept floats; the wrappers also broadcast over numpy arrays.
"""

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special as _sp

# Series controls. The relative cutoff matches double precision; the term cap
# guards against parameter regions where the Kummer series would need more
# terms than the asymptotic route should have handled.
SERIES_RTOL = 1e-16
SERIES_MAX_TERMS = 10_000

# Kummer-to-asymptotic switchover for 1F1(a, b, -w). The Kummer series needs
# roughly w terms, the asymptotic expansion roughly a^2/w accuracy, so the
# crossover sits where both are comfortable for the orders used here.
_ASYMPTOTIC_W = 2000.0


def norm_cdf(x):
    """Standard normal cumulative distribution function."""
    return _sp.ndtr(x)


def norm_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return out if out.ndim else float(out)


def ln_gamma(x):
    """log |Gamma(x)| for x > 0."""
    return _sp.gammaln(x)


def bessel_i_scaled(nu, x):
    """Exponentially scaled modified Bessel function e^(-x) I_nu(x).

    Parameters
    ----------
    nu : real order, nu >= 0 (non-integer orders allowed)
    x : argument, x >= 0; broadcasts over arrays

    The scaling keeps the value bounded for large x, where I_nu(x) itself
    overflows near x ~ 700.
    """
    return _sp.ive(nu, x)


def _kummer_series(a, b, x):
    """Sum 1F1(a, b, x) for x >= 0 by the defining series.

    Returns (log of the sum, sign). With a, b > 0 and x >= 0 every term is
    positive, so there is no cancellation; the sum can exceed float range,
    hence the running rescale and log return.
    """
    if x < 0:
        raise ValueError("series path requires x >= 0")
    term = 1.0
    total = 1.0
    offset = 0.0  # accumulated log of rescales
    for k in range(SERIES_MAX_TERMS):
        term *= (a + k) * x / ((b + k) * (k + 1.0))
        total += term
        if term < SERIES_RTOL * total:
            return math.log(total) + offset, 1.0
        if total > 1e280:
            total *= 1e-280
            term *= 1e-280
            offset += 280.0 * math.log(10.0)
    raise ArithmeticError(
        f"1F1 series failed to converge: a={a}, b={b}, x={x}"
    )


def _asymptotic_ln(a, b, w):
    """log 1F1(a, b, -w) for large w via the w -> inf expansion.

    1F1(a,b,-w) ~ Gamma(b)/Gamma(b-a) w^(-a) sum_k (a)_k (a-b+1)_k / (k! w^k).
    The series is asymptotic; summation stops at the smallest term.
    """
    s = 1.0
    term = 1.0
    prev = math.inf
    for k in range(60):
        term *= (a + k) * (a - b + 1 + k) / ((k + 1.0) * w)
        if abs(term) >= prev:
            break  # smallest-term truncation
        s += term
        prev = abs(term)
        if abs(term) < SERIES_RTOL * abs(s):
            break
    if s <= 0:
        raise ArithmeticError(
            f"1F1 asymptotic expansion lost positivity: a={a}, b={b}, w={w}"
        )
    return float(_sp.gammaln(b) - _sp.gammaln(b - a) - a * math.log(w) + math.log(s))


def ln_hyp1f1_neg(a, b, w):
    """log 1F1(a, b, -w) for w >= 0, requiring 0 < a < b.

    Uses the Kummer transformation 1F1(a,b,-w) = e^(-w) 1F1(b-a,b,w), whose
    series has positive terms, so the alternating cancellation of the direct
    series never appears. Beyond the switchover the large-w expansion is used
    instead, since the transformed series needs O(w) terms.
    """
    if w < 0:
        raise ValueError("w must be >= 0")
    if not 0 < a < b:
        raise ValueError("requires 0 < a < b")
    if w == 0:
        return 0.0
    if w > _ASYMPTOTIC_W:
        return _asymptotic_ln(a, b, w)
    ln_s, _ = _kummer_series(b - a, b, w)
    return ln_s - w


@functools.lru_cache(maxsize=64)
def _leggauss_cached(n):
    return leggauss(n)


def gauss_legendre(n, a, b):
    """Gauss-Legendre nodes and weights on the interval [a, b].

    Base nodes are cached per order; computing them is an O(n^3)
    eigenproblem that would otherwise dominate repeated quadratures.
    """
    if n < 1:
        raise ValueError("need at least one node")
    x, w = _leggauss_cached(int(n))
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w
