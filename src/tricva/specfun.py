"""Special functions used by the pricing routines.

Thin wrappers around scipy: normal cdf, log-gamma, scaled modified
Bessel, and the log of the confluent hypergeometric 1F1 on the negative
real axis, which refuses underflow instead of returning it.

Every Bessel kernel grid (the three-name pricing grid and green_3d
lattice, the wedge flux) is one IveTable: it picks the live cells,
reads them off a table of ln ive and sums them against coefficients.

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


def order_cutoff(z):
    """Largest Bessel order that still contributes at argument z.

    ive(nu, z) plateaus near 1/sqrt(2 pi z) and then falls off like
    exp(-nu^2 / 2z), so at large z the order 9 sqrt(z) is e^-40.5 down;
    at small z ive(nu, z) ~ (z/2)^nu / Gamma(nu + 1) and the offset 5
    carries the cut. Over z in [1e-4, 1e5], ive(nu, z) at the cut is at
    most 2.5e-15 of ive(0, z) (near z = 0.17) and 4.7e-14 of ive(1, z)
    (near z = 0.065). Broadcasts over arrays of z.

    The bound is against ive(0, z). The three-name kernel's lowest
    order is about 3.4, far below ive(0, z) at small z, so one green_3d
    value can lose 1.7e-10 of itself (rho = (-0.3, 0.4, 0.1), 500
    points, 60 modes, tau = 5, r = 0.31; 3e-13 of its lattice's
    largest). A cut relative to each row's first order, measured, kept
    9 % more live cells (3.05 M -> 3.33 M over the default five grids)
    and moved default prices by up to 7.4e-14; it is not used.
    """
    return 5.0 + 9.0 * np.sqrt(np.maximum(z, 0.0))


# A row whose Gaussian prefactor is at most this share of its grid's
# largest is dead (IveTable): with ive <= 1 it holds at most that share.
_DEAD_ROW = 1e-16
# Panels of the ln ive table (IveTable): width in ln z and Chebyshev
# degree. ln ive(nu, e^s) is analytic in the strip |Im s| < pi/2 (the
# zeros of I_nu lie on the imaginary z axis), so a panel of width h
# converges like rho^-k with rho = pi/h + sqrt(1 + (pi/h)^2), 6.4 here.
# In 40 digits, over 14 panels from each order's live edge up (orders
# 1.26, 16.35, 60 and 190), the coefficient of degree 20 stayed below
# 2e-17 and that of degree 22 below 3e-19.
_TABLE_PANEL = 1.0
_TABLE_DEGREE = 20
# Live cells per block of IveTable.sums, which bounds its temporaries.
_TABLE_BLOCK = 1 << 15
# The table's stated accuracy: every value within this of 40-digit
# mpmath, relative (tests/test_specfun.py holds it to frozen references).
IVE_TABLE_RTOL = 2e-13


class IveTable:
    """A Bessel kernel grid's live cells ive(nu_j, z_i), read off a
    table of ln ive in ln z with one library call for its nodes, and
    their sums against coefficients.

    z and pref, of one shape, hold each row's Bessel argument and the
    Gaussian prefactor its Bessel values are multiplied by; nu holds
    the ascending orders. A row is live while its prefactor is above
    _DEAD_ROW of the largest, and there it keeps the orders up to
    order_cutoff(z), at least the first: n_live (raveled) counts them,
    0 on a dead row. What the skipped cells held is bounded per row by
    pref times the sum of the |coefficients| they multiply, times 1 on
    a dead row (ive <= 1) and times ive(nu_c, z) past the last kept
    order nu_c (ive(nu, z) <= ive(nu_c, z) for nu >= nu_c >= 0).

    Each order with at least as many live cells as its table has nodes
    is tabulated: its ln z span, from its rows' smallest z to their
    largest, is cut into panels of width at most _TABLE_PANEL, each
    fitted by a Chebyshev series of degree _TABLE_DEGREE through the
    library's values at its Chebyshev points, and Clenshaw's recurrence
    reads the fit at the cells. Every other order, and any with a cell
    at z = 0, is asked directly.

    asks is the (orders, arguments) pair to pass to the library in one
    call: the n_direct directly asked cells, row by row, then the
    table's nodes. sums() turns the answers into the rows' sums. Each
    value is within IVE_TABLE_RTOL of ive, relative.
    """

    def __init__(self, nu, z, pref):
        nu = np.asarray(nu, dtype=float)
        self._shape = np.shape(z)
        z = np.ravel(z).astype(float)
        pref = np.ravel(pref)
        self.n_live = n_live = np.maximum(np.searchsorted(
            nu, order_cutoff(z), side="right"), 1)
        n_live[pref <= _DEAD_ROW * pref.max()] = 0
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

    def sums(self, values, coef):
        """sum_j ive(nu_j, z_i) coef[j, ...] over each row's live orders,
        shaped as z and then coef's trailing axes, from the library's
        values at asks. The rows are read off the table and contracted
        about _TABLE_BLOCK live cells at a time."""
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
        cheb = fit @ np.log(nodes).T
        out = np.empty((len(self.n_live),) + coef.shape[1:])
        ends = np.cumsum(self.n_live)
        cuts = np.searchsorted(ends, np.arange(_TABLE_BLOCK, ends[-1],
                                               _TABLE_BLOCK))
        bounds = np.unique(np.concatenate([[0], cuts, [len(ends)]]))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            n_live = self.n_live[start:stop]
            rows, cols = _ragged(n_live)
            block = np.zeros((stop - start, n_live.max()))
            direct = self._direct[cols]
            block[rows[direct], cols[direct]] = values[
                self._direct_start[start]:self._direct_start[stop]]
            tab = ~direct
            block[rows[tab], cols[tab]] = self._clenshaw(
                cheb, self._s[start:stop][rows[tab]], cols[tab])
            out[start:stop] = block @ coef[:block.shape[1]]
        return out.reshape(self._shape + coef.shape[1:])

    def _clenshaw(self, cheb, s, order):
        """The fit at ln z = s for the cells of the given orders."""
        panel = np.minimum(((s - self._lo[order]) / self._width[order])
                           .astype(int), self._last[order])
        g = self._first[order] + panel
        x = (s - self._centre[g]) / self._half[g]
        x2 = 2.0 * x
        b1 = cheb[-1][g]
        b2 = np.zeros_like(b1)
        tmp = np.empty_like(b1)
        term = np.empty_like(b1)
        for c_k in cheb[-2:0:-1]:
            np.multiply(x2, b1, out=tmp)
            tmp -= b2
            tmp += c_k.take(g, out=term, mode="clip")
            b1, b2, tmp = tmp, b1, b2
        b1 *= x
        b1 -= b2
        b1 += cheb[0][g]
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
