"""Joint seller-reference machinery on the planar wedge.

Two correlated drivers (x for the protection seller, y for the reference)
map to independent coordinates via alpha = x, beta = (y - rho x)/rho_bar,
then to polar coordinates. The positive quadrant becomes the wedge
0 < phi < varpi, varpi = arccos(-rho): the phi = 0 edge is the reference's
barrier (y = 0), the phi = varpi edge the seller's (x = 0).

Two independent representations of the absorbed transition density are
kept deliberately: an eigenfunction series in the wedge angle, and a sum
of free-space kernels over reflected sources. They validate each other and
the survival series.

Every Bessel series here keeps its orders up to the first at or past
_order_cutoff(z), and no more than _ORDER_CAP of them (_series_length,
which warns once when the cap cuts a series). The CVA's seller-edge
flux is a (radius, order) grid evaluated on its live cells only
(_live_cells), the rule the three-name radial kernel shares; the CVA
quadrature also returns its exact derivative in the coupon, which the
break-even root of a far buyer steps on.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cds1d import _legs_1d, cds_values_1d
from .specfun import (bessel_i_scaled, gauss_legendre, ln_gamma,
                      ln_hyp1f1_neg)

# Series order cutoffs. Terms die once the Bessel order passes the argument,
# with scale sqrt(z) for large z; the hard cap flags configurations the
# series cannot resolve rather than silently returning a partial sum.
_ORDER_CAP = 4000
# Skip boundary-flux evaluation when the source cannot have reached the edge:
# exp(-d^2/2tau) below ~1e-350 underflows any payout it multiplies.
_UNDERFLOW_EXPONENT = 800.0
# Bessel cells whose Gaussian prefactor is below this fraction of their
# grid's largest are skipped: with ive <= 1 they hold at most that
# fraction of the largest row's scale.
_DEAD_PREFACTOR = 1e-16
# Gauss-Legendre nodes of the diffraction integral in _f_wedge.
_H_NODES = 600
# Term cap of the reference 1F1 survival series (survival_2d_1f1).
_1F1_MAX_TERMS = 500


@dataclass(frozen=True)
class WedgeCoords:
    """Polar position of the joint driver state inside the wedge."""
    r0: float
    phi0: float
    varpi: float
    rho_xy: float
    rho_bar: float


def to_wedge(x0, y0, rho_xy):
    """Map initial distances (x0, y0) and their correlation to the wedge.

    Requires both drivers strictly above their barriers. The angle is
    measured from the reference's edge, so y0 -> 0 sends phi0 -> 0 and
    x0 -> 0 sends phi0 -> varpi.
    """
    if x0 <= 0 or y0 <= 0:
        raise ValueError("initial distances must be positive")
    if not -1.0 < rho_xy < 1.0:
        raise ValueError("correlation must be in (-1, 1)")
    rho_bar = math.sqrt(1.0 - rho_xy * rho_xy)
    alpha = x0
    beta = (y0 - rho_xy * x0) / rho_bar
    r0 = math.hypot(alpha, beta)
    varpi = math.acos(-rho_xy)
    phi0 = varpi + math.atan2(-alpha, beta)
    # the quadrant maps strictly inside the wedge
    assert 0.0 < phi0 < varpi, (x0, y0, rho_xy, phi0, varpi)
    return WedgeCoords(r0=r0, phi0=phi0, varpi=varpi, rho_xy=rho_xy,
                       rho_bar=rho_bar)


def _order_cutoff(z):
    """Largest Bessel order that still contributes at argument z.

    ive(nu, z) plateaus near 1/sqrt(2 pi z) and then falls off like
    exp(-nu^2 / 2z), so at large z the order 9 sqrt(z) is e^-40.5 down;
    at small z ive(nu, z) ~ (z/2)^nu / Gamma(nu + 1) and the offset 5
    carries the cut. Over z in [1e-4, 1e5], ive(nu, z) at the cut is at
    most 2.5e-15 of ive(0, z) (near z = 0.17) and 4.7e-14 of ive(1, z)
    (near z = 0.065). Broadcasts over arrays of z.
    """
    return 5.0 + 9.0 * np.sqrt(np.maximum(z, 0.0))


def _series_length(z, first, step, what):
    """Number of terms of a Bessel series whose k-th order is
    first + k step (k = 0, 1, ...): up to and including the first order
    at or past _order_cutoff(z), and at most _ORDER_CAP, with one
    RuntimeWarning naming the series when the cap cuts it."""
    n = int(math.ceil((_order_cutoff(z) - first) / step)) + 1
    if n > _ORDER_CAP:
        warnings.warn("%s series truncated at order cap" % what,
                      RuntimeWarning, stacklevel=3)
        n = _ORDER_CAP
    return n


def _live_cells(pref, z, nu):
    """Flat (row, order) indices of the Bessel cells a kernel grid needs.

    pref and z hold each row's Gaussian prefactor and Bessel argument
    (raveled); nu is ascending. A row is live while its prefactor is
    above _DEAD_PREFACTOR of the grid's largest, and there it keeps the
    orders up to _order_cutoff(z), at least the first: a prefix of nu.
    What the skipped cells held is bounded per row by pref times the sum
    of the |coefficients| they multiply, times 1 on a dead row
    (ive <= 1) and times ive(nu_c, z) past the last kept order nu_c
    (ive(nu, z) <= ive(nu_c, z) for nu >= nu_c >= 0).
    """
    pref = np.ravel(pref)
    n_live = np.maximum(np.searchsorted(nu, _order_cutoff(np.ravel(z)),
                                        side="right"), 1)
    n_live[pref <= _DEAD_PREFACTOR * pref.max()] = 0
    rows = np.repeat(np.arange(len(pref)), n_live)
    start = np.repeat(np.cumsum(n_live) - n_live, n_live)
    return rows, np.arange(len(rows)) - start


def green_2d_eigen(tau, r, phi, wedge, n_terms=None):
    """Absorbed transition density by angular eigenfunction expansion.

    G(tau, r, phi) = (2 / (varpi tau)) e^(-(r^2+r0^2)/2tau)
                     sum_n I_(nu_n)(r r0 / tau) sin(nu_n phi) sin(nu_n phi0)

    with nu_n = n pi / varpi. The scaled Bessel form keeps every factor
    bounded: exp(-(r-r0)^2/2tau) * ive(nu, r r0/tau).

    Returns a density in the plane (per unit area), broadcast over r, phi.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    z = r * wedge.r0 / tau
    if n_terms is None:
        step = math.pi / wedge.varpi
        n_terms = _series_length(float(np.max(z)), step, step,
                                 "eigenfunction")
    n = np.arange(1, n_terms + 1)
    nu = n * math.pi / wedge.varpi
    shape_z = np.broadcast_shapes(z.shape, phi.shape)
    zb = np.broadcast_to(z, shape_z)[..., None]
    phib = np.broadcast_to(phi, shape_z)[..., None]
    terms = (bessel_i_scaled(nu, zb) * np.sin(nu * phib)
             * np.sin(nu * wedge.phi0))
    pref = (2.0 / (wedge.varpi * tau)) * np.exp(
        -0.5 * (r - wedge.r0) ** 2 / tau)
    out = np.asarray(pref * np.broadcast_to(terms.sum(axis=-1), shape_z))
    return out if out.ndim else float(out)


def _f_wedge(p, q):
    """f(p, q) = 1 - (1/2pi) int_R exp(-p(cosh(2 q z) - cos q))/(z^2+1/4) dz.

    Even in q, f(p, 0) = f(0, q) = 0. The Lorentzian is flattened by
    z = tan(u)/2, after which the integrand lives on [-uc, uc] with
    uc = atan(2 zc) and the cutoff zc solves p(cosh(2 q zc) - cos q) = 60,
    keeping every node inside the numerically live region.
    """
    if p < 0:
        raise ValueError("p must be non-negative")
    q = abs(q)
    if p == 0.0 or q == 0.0:
        return 0.0
    # cosh argument where the exponent reaches 60 below its minimum
    c = (60.0 / p) + math.cos(q)
    if c <= 1.0:
        # exponent exceeds 60 already at z = 0: the integral is below e^-60
        return 1.0
    zc = math.acosh(c) / (2.0 * q)
    uc = math.atan(2.0 * zc)
    u, w = gauss_legendre(_H_NODES, 0.0, uc)
    ex = -p * (np.cosh(q * np.tan(u)) - math.cos(q))
    integral = 4.0 * np.sum(w * np.exp(ex))
    return 1.0 - integral / (2.0 * math.pi)


def h_kernel(p, q):
    """Wedge correction kernel h(p, q) of the reflected-source density.

    h(p, q) = [sign(pi+q) f(p, pi+q) + sign(pi-q) f(p, pi-q)] / 2.

    For |q| < pi this carries the free kernel (h -> 1 as p -> infinity);
    beyond |q| = pi the two halves cancel the free part and only the
    diffraction correction survives. Even in q.
    """
    sp = 1.0 if math.pi + q >= 0 else -1.0
    sm = 1.0 if math.pi - q >= 0 else -1.0
    return 0.5 * (sp * _f_wedge(p, math.pi + q)
                  + sm * _f_wedge(p, math.pi - q))


def _free_kernel_factor(tau, r, r0, psi, p):
    # exp(-(r^2+r0^2-2 r r0 cos psi)/2tau) h(p, psi) / (2 pi tau) with the
    # exponent written against (r-r0)^2 so it never overflows
    ex = -0.5 * ((r - r0) ** 2 + 2.0 * r * r0 * (1.0 - math.cos(psi))) / tau
    if ex < -_UNDERFLOW_EXPONENT:
        return 0.0
    return math.exp(ex) * h_kernel(p, psi) / (2.0 * math.pi * tau)


def green_2d_images(tau, r, phi, wedge):
    """Absorbed transition density as a sum over reflected sources.

    Sources at phi0 + 2 n varpi carry weight +1 and mirrored sources at
    -phi0 + 2 n varpi weight -1; each contributes a free-space kernel times
    the diffraction correction h. Scalar in (r, phi).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    r = float(r)
    phi = float(phi)
    # reflected-pair contributions fall off ~ 1/n^3; this count keeps the
    # truncation tail under ~2e-7 even for slow kernels (small r r0/tau)
    n_pairs = int(math.ceil(24.0 * math.pi / wedge.varpi))
    p = r * wedge.r0 / tau
    total = 0.0
    for n in range(-n_pairs, n_pairs + 1):
        psi_pos = phi - (wedge.phi0 + 2.0 * n * wedge.varpi)
        psi_neg = phi - (-wedge.phi0 + 2.0 * n * wedge.varpi)
        total += _free_kernel_factor(tau, r, wedge.r0, psi_pos, p)
        total -= _free_kernel_factor(tau, r, wedge.r0, psi_neg, p)
    return total


def survival_2d(tau, wedge):
    """Joint survival probability, Bessel representation.

    Q = (2 r0 / sqrt(2 pi tau)) sum_k sin(nu phi0)/(2k+1)
        [ive((nu-1)/2, z) + ive((nu+1)/2, z)],  nu = (2k+1) pi / varpi,

    with z = r0^2 / 4 tau; the exponential prefactor of the unscaled
    Bessel functions cancels exactly against e^(-z). The terms run up
    to the first order (nu-1)/2 at or past _order_cutoff(z).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    z = wedge.r0 ** 2 / (4.0 * tau)
    pref = 2.0 * wedge.r0 / math.sqrt(2.0 * math.pi * tau)
    step = math.pi / wedge.varpi
    k = np.arange(_series_length(z, 0.5 * (step - 1.0), step, "survival"))
    nu = (2 * k + 1) * step
    terms = (np.sin(nu * wedge.phi0) / (2 * k + 1)
             * (bessel_i_scaled(0.5 * (nu - 1.0), z)
                + bessel_i_scaled(0.5 * (nu + 1.0), z)))
    return pref * float(terms.sum())


def survival_2d_1f1(tau, wedge):
    """Joint survival probability, confluent hypergeometric representation.

    Q = sum_k (4 sin(nu phi0) / ((2k+1) pi)) w^(nu/2)
        Gamma(1+nu/2)/Gamma(1+nu) 1F1(nu/2, 1+nu, -w),  w = r0^2 / 2 tau.

    Every factor is assembled in logs; independent of survival_2d down to
    truncation, which the tests exploit.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    w = wedge.r0 ** 2 / (2.0 * tau)
    lw = math.log(w)
    total = 0.0
    nu_stop = 2.0 * _order_cutoff(w / 2.0)  # comparable reach to Bessel form
    for k in range(_1F1_MAX_TERMS):
        nu = (2 * k + 1) * math.pi / wedge.varpi
        ln_mag = (0.5 * nu * lw + ln_gamma(1.0 + 0.5 * nu)
                  - ln_gamma(1.0 + nu) + ln_hyp1f1_neg(0.5 * nu, 1.0 + nu, w))
        term = (4.0 * math.sin(nu * wedge.phi0) / ((2 * k + 1) * math.pi)
                * math.exp(ln_mag))
        total += term
        if nu > nu_stop and abs(term) < 1e-16 * max(abs(total), 1e-300):
            break
    else:
        warnings.warn("survival series hit the term cap", RuntimeWarning,
                      stacklevel=2)
    return total


def _edge_flux_coefficients(tau, r, wedge):
    """Angular derivative of the eigenfunction series on the phi = varpi
    edge: G_phi(tau, r, varpi) as an array over r. Negative (density falls
    off toward the absorbing edge). Only the live cells of the
    (radius, order) grid call the Bessel function (_live_cells)."""
    z = r * wedge.r0 / tau
    step = math.pi / wedge.varpi
    n_terms = _series_length(float(np.max(z)), step, step, "edge flux")
    n = np.arange(1, n_terms + 1)
    nu = n * math.pi / wedge.varpi
    signs = np.where(n % 2 == 0, 1.0, -1.0)  # cos(n pi)
    pref = (2.0 / (wedge.varpi * tau)) * np.exp(
        -0.5 * (r - wedge.r0) ** 2 / tau)
    rows, cols = _live_cells(pref, z, nu)
    bess = np.zeros((len(r), n_terms))
    bess[rows, cols] = bessel_i_scaled(nu[cols], z[rows])
    terms = bess * (nu * signs * np.sin(nu * wedge.phi0))
    return pref * terms.sum(axis=1)


def exposure_root(tau_left, terms, y_hi):
    """Distance above which a long-protection CDS has negative value.

    The value is strictly decreasing in the driver, positive at the
    barrier (where protection is a sure thing) and negative for safe
    names unless the coupon is zero. Vectorised over tau_left: every
    root is bisected at once on [1e-12 y_hi, y_hi] to 1e-15 relative.
    Returns y_hi where the value is still positive there.
    """
    tau_left = np.asarray(tau_left, dtype=float)
    root = np.full(tau_left.shape, float(y_hi))
    if terms.coupon > 0:
        todo = cds_values_1d(tau_left, root, terms) < 0.0
        tau = tau_left[todo]
        lo = np.full(tau.shape, 1e-12 * y_hi)
        hi = root[todo]
        while np.any(hi - lo > 1e-15 * hi):
            mid = 0.5 * (lo + hi)
            above = cds_values_1d(tau, mid, terms) > 0.0
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        root[todo] = 0.5 * (lo + hi)
    return root if root.ndim else float(root)


def cva_2d(wedge, terms, recovery_seller, n_time=64, n_radial=200):
    """Unilateral credit adjustment when only seller and reference can fail.

    Integrates the discounted positive CDS exposure against the density
    flux through the seller's edge:

      CVA = -(1 - R_s)/2 int_0^T dt e^(-rate t)
            int_0^inf G_phi(t, r, varpi) V(t, T, rho_bar r)^+ dr / r.

    Positive by construction (flux coefficient is negative). The radial
    integral stops at the exposure root, where the positive part kinks to
    zero; integrating across that kink would wreck the quadrature order.
    Time nodes the diffusion cannot reach are skipped outright: their
    true flux underflows and a truncated series would leave pure noise.
    """
    return _cva_2d_with_slope(wedge, terms, recovery_seller, n_time,
                              n_radial)[0]


def _cva_2d_with_slope(wedge, terms, recovery_seller, n_time=64,
                       n_radial=200):
    """cva_2d and its derivative in the coupon, from one quadrature.

    With V = D - coupon A the 1D value (cds1d._legs_1d),

      d CVA / d coupon = (1 - R_s)/2 int_0^T dt e^(-rate t)
                         int_0^r* G_phi(t, r, varpi) A / r dr <= 0

    on the same nodes: the exposure vanishes at its root r*, so the
    root's move with the coupon adds nothing.
    """
    T = terms.maturity
    t_nodes, t_w = gauss_legendre(n_time, 0.0, T)
    r_hi = wedge.r0 + 8.0 * math.sqrt(T)
    r_lo = r_hi * 1e-6
    # closest approach of the source to the seller edge
    gap = wedge.r0 * math.sin(min(wedge.varpi - wedge.phi0, 0.5 * math.pi))
    # nodes the diffusion cannot reach, and the exposure root of the rest
    reach = ((gap * gap / (2.0 * t_nodes) <= _UNDERFLOW_EXPONENT)
             & (t_nodes < T))
    r_stars = np.zeros_like(t_nodes)
    r_stars[reach] = exposure_root(T - t_nodes[reach], terms,
                                   wedge.rho_bar * r_hi) / wedge.rho_bar
    total = 0.0
    slope = 0.0
    for t, wt, r_star in zip(t_nodes, t_w, r_stars):
        if r_star <= r_lo:
            continue
        tau_left = T - t
        r_nodes, r_w = gauss_legendre(n_radial, r_lo, min(r_star, r_hi))
        flux = _edge_flux_coefficients(t, r_nodes, wedge)
        d, a = _legs_1d(tau_left, wedge.rho_bar * r_nodes, terms.rate,
                        terms.recovery)
        exposure = d - terms.coupon * a
        a = np.where(exposure > 0.0, a, 0.0)
        exposure = np.maximum(exposure, 0.0)
        integrand = flux * exposure / r_nodes
        disc = wt * math.exp(-terms.rate * t)
        total += disc * np.sum(r_w * integrand)
        slope += disc * np.sum(r_w * flux * a / r_nodes)
    scale = 0.5 * (1.0 - recovery_seller)
    return -scale * total, scale * slope
