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


# Panels of the ln ive table (IveTable): width in ln z and Chebyshev
# degree. ln ive(nu, e^s) is analytic in the strip |Im s| < pi/2 (the
# zeros of I_nu lie on the imaginary z axis), so a panel of width h
# converges like rho^-k with rho = pi/h + sqrt(1 + (pi/h)^2), 6.4 here.
# In 40 digits, over 14 panels from each order's live edge up (orders
# 1.26, 16.35, 60 and 190), the coefficient of degree 20 stayed below
# 2e-17 and that of degree 22 below 3e-19.
_TABLE_PANEL = 1.0
_TABLE_DEGREE = 20
# Live cells per block of IveTable.blocks, which bounds its temporaries.
_TABLE_BLOCK = 1 << 15
# The table's stated accuracy: every value within this of 40-digit
# mpmath, relative (tests/test_specfun.py holds it to frozen references).
IVE_TABLE_RTOL = 2e-13


class IveTable:
    """ive(nu_j, z_i) on a kernel grid's live cells, from a table of
    ln ive in ln z with one library call for its nodes.

    Row i holds the argument z[i] and asks the first n_live[i] of the
    ascending orders nu, the layout of cds2d._live_cells. Each order
    with at least as many live cells as its table has nodes is
    tabulated: its ln z span, from its rows' smallest z to their
    largest, is cut into panels of width at most _TABLE_PANEL, each
    fitted by a Chebyshev series of degree _TABLE_DEGREE through the
    library's values at its Chebyshev points, and Clenshaw's recurrence
    reads the fit at the cells. Every other order, and any with a cell
    at z = 0, is asked directly.

    asks is the (orders, arguments) pair to pass to the library in one
    call: the n_direct directly asked cells, row by row, then the
    table's nodes. blocks() turns the answers into the cells' values.
    Each value is within IVE_TABLE_RTOL of ive, relative.
    """

    def __init__(self, nu, z, n_live):
        nu = np.asarray(nu, dtype=float)
        z = np.asarray(z, dtype=float)
        self._n_live = n_live = np.asarray(n_live)
        orders = np.arange(len(nu))
        # rows asking order j: those with n_live > j
        count = np.cumsum(np.bincount(n_live, minlength=len(nu) + 1)
                          [::-1])[::-1][1:]
        # order j's ln z span, between the first such row from below
        # and from above
        with np.errstate(divide="ignore"):
            self._s = s = np.log(z)
        up = np.argsort(s)
        down = up[::-1]
        lo = s[up][np.minimum(np.searchsorted(np.maximum.accumulate(
            n_live[up]), orders, side="right"), len(z) - 1)]
        hi = s[down][np.minimum(np.searchsorted(np.maximum.accumulate(
            n_live[down]), orders, side="right"), len(z) - 1)]
        span = np.where(np.isfinite(lo), hi - lo, 0.0)
        panels = np.maximum(np.ceil(span / _TABLE_PANEL), 1.0).astype(int)
        n_nodes = _TABLE_DEGREE + 1
        self._direct = ~((count >= panels * n_nodes) & np.isfinite(lo))
        panels[self._direct] = 0
        width = np.maximum(span, _TABLE_PANEL) / np.maximum(panels, 1)
        # panel g: its order, centre and half-width in ln z
        self._first = np.cumsum(panels) - panels
        order_g = np.repeat(orders, panels)
        k_g = np.arange(len(order_g)) - self._first[order_g]
        self._half = 0.5 * width[order_g]
        self._centre = lo[order_g] + (2 * k_g + 1) * self._half
        self._lo, self._width, self._last = lo, width, panels - 1

        # the directly asked orders of each row are the first of these
        direct = np.flatnonzero(self._direct)
        per_row = np.concatenate([[0], np.cumsum(self._direct)])[n_live]
        self._direct_start = np.concatenate([[0], np.cumsum(per_row)])
        self.n_direct = int(self._direct_start[-1])
        rows, k = _ragged(per_row)
        x = np.cos(np.pi * (np.arange(n_nodes) + 0.5) / n_nodes)
        nodes = np.exp(self._centre[:, None] + self._half[:, None] * x)
        self.asks = (
            np.concatenate([nu[direct[k]], np.repeat(nu[order_g], n_nodes)]),
            np.concatenate([z[rows], nodes.ravel()]))

    def blocks(self, values):
        """(start, stop, block) over consecutive rows [start, stop), about
        _TABLE_BLOCK live cells at a time, from the library's values at
        asks: block[i - start, j] is ive(nu_j, z_i) on each live cell
        and 0 elsewhere, as wide as the block's widest row."""
        n = _TABLE_DEGREE + 1
        nodes = values[self.n_direct:].reshape(len(self._centre), n)
        if np.any(nodes < np.finfo(float).tiny):
            raise ArithmeticError("ive underflows at a table node")
        # Chebyshev coefficients of each panel, one row per degree; the
        # angle k (2i + 1) pi / 2n is reduced mod 2 pi in integers first
        k = np.arange(n)
        fit = (2.0 / n) * np.cos(np.pi / (2 * n) * (
            np.outer(k, 2 * k + 1) % (4 * n)))
        fit[0] *= 0.5
        coef = fit @ np.log(nodes).T
        ends = np.cumsum(self._n_live)
        cuts = np.searchsorted(ends, np.arange(_TABLE_BLOCK, ends[-1],
                                               _TABLE_BLOCK))
        bounds = np.unique(np.concatenate([[0], cuts, [len(ends)]]))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            n_live = self._n_live[start:stop]
            rows, cols = _ragged(n_live)
            block = np.zeros((stop - start, n_live.max()))
            direct = self._direct[cols]
            block[rows[direct], cols[direct]] = values[
                self._direct_start[start]:self._direct_start[stop]]
            tab = ~direct
            block[rows[tab], cols[tab]] = self._clenshaw(
                coef, self._s[start:stop][rows[tab]], cols[tab])
            yield start, stop, block

    def _clenshaw(self, coef, s, order):
        """The fit at ln z = s for the cells of the given orders."""
        panel = np.minimum(((s - self._lo[order]) / self._width[order])
                           .astype(int), self._last[order])
        g = self._first[order] + panel
        x = (s - self._centre[g]) / self._half[g]
        x2 = 2.0 * x
        b1 = coef[-1][g]
        b2 = np.zeros_like(b1)
        tmp = np.empty_like(b1)
        term = np.empty_like(b1)
        for c_k in coef[-2:0:-1]:
            np.multiply(x2, b1, out=tmp)
            tmp -= b2
            tmp += c_k.take(g, out=term, mode="clip")
            b1, b2, tmp = tmp, b1, b2
        b1 *= x
        b1 -= b2
        b1 += coef[0][g]
        return np.exp(b1, out=b1)


def _ragged(counts):
    """(row, k) of every entry of rows holding counts[i] entries each."""
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(counts)
                                                  - counts, counts)


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
