"""Special functions used by the pricing routines.

Thin wrappers around scipy: normal cdf, log-gamma, scaled modified
Bessel, and the log of the confluent hypergeometric 1F1 on the negative
real axis, which refuses underflow instead of returning it.

All functions accept floats; the wrappers also broadcast over numpy arrays.
"""

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special as _sp

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


def ln_hyp1f1_neg(a, b, w):
    """log 1F1(a, b, -w) for w >= 0, requiring 0 < a < b; broadcasts.

    One scipy.special.hyp1f1 call. With 0 < a < b the value lies in
    (0, 1], so it can only fail by underflow: a value that is not finite
    or lies below the smallest normal double raises ArithmeticError,
    rather than returning -inf or the log of a subnormal.
    """
    a, b, w = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float),
                                  np.asarray(w, float))
    if not np.all(w >= 0):
        raise ValueError("w must be >= 0")
    if not np.all((0 < a) & (a < b)):
        raise ValueError("requires 0 < a < b")
    f = _sp.hyp1f1(a, b, -w)
    bad = ~((f >= np.finfo(float).tiny) & np.isfinite(f))
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise ArithmeticError(
            "1F1(a, b, -w) = %r is not a normal positive double: a=%r, "
            "b=%r, w=%r" % (float(f.flat[i]), float(a.flat[i]),
                            float(b.flat[i]), float(w.flat[i])))
    out = np.log(f)
    return out if out.ndim else float(out)


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
