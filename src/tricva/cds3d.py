"""Three-driver pricing: survival, Green function and the CVA/DVA legs.

The seller (x), reference (y) and buyer (z) drivers map to a cone over
a spherical triangle; the angular eigenbasis comes from the finite
element solve and the radial part is a Bessel kernel of order
nu_n = sqrt(Lambda_n^2 + 1/4). Credit adjustments are boundary-flux
integrals: the seller's chart face (phi = 0) feeds the CVA leg, the
buyer's curved face (theta = Theta(phi)) the DVA leg. Fluxes are taken
variationally, pairing each mode's residual (K - Lambda^2 M) psi with
the boundary hat functions, which keeps them exactly consistent with
the discrete basis and needs no off-mesh differentiation; the basis
stores those boundary rows, formed once when it is built.

The radial Bessel kernel is one contraction, never a tensor: one
specfun.IveTable per (time, radius) x order grid picks its live cells,
asks the Bessel function once and sums the cells against both faces'
source-weighted fluxes (prepare_pricing) or the distinct angles'
source-weighted mode values (green_3d). survival_3d's series is one
1F1 call. Every series runs over all modes of the basis it is given;
a shallower sum is a price on fem.truncate_basis.

A PricingGrid is one contract: prepare_pricing takes its terms and the
two counterparties' recoveries, and reads the chart and the driver
distances off the source. The legs and roots take the grid and a coupon
(price_3d the grid alone) and read the grid's seller and buyer legs,
which give their cells of nonzero weight (cds2d.LegCells) at the
grid's terms and that coupon to one contraction (cds2d._leg_sum). Past
the reach cut the buyer's leg has no cells and the seller's is the
seller-reference wedge's (cds2d._wedge_cells). survival_3d, which takes
no grid, makes the same cut itself. Every break-even coupon is one
Newton root on the legs' exact slopes.
"""

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.optimize import root_scalar

from . import cds1d
# cva_2d is not called here; perfbench's tracer hooks it by this name
from .cds2d import (LegCells, _leg_cells, _leg_sum, _wedge_cells, cva_2d,
                    survival_2d, to_wedge)
from .domain3d import decorrelate
from .fem import eval_basis
from .model import CdsTerms
from .specfun import (IveTable, bessel_i_scaled, gauss_legendre, ln_gamma,
                      ln_hyp1f1_neg)

# The truncated flux series rings before the driver can plausibly have
# reached its barrier (the radial factor stops damping high modes as
# r0^2/2t grows). Taper the leg integrand by exp(reach - gap^2/2t) once
# gap^2/2t exceeds this bound; the taper tracks the true Gaussian tail
# and the suppressed crossing mass is under 2 Phi(-4) ~ 6e-5. A buyer
# past this bound at maturity is priced on the two-name wedge instead.
_REACH_EXPONENT = 8.0


class TruncationWarning(RuntimeWarning):
    """Eigen series cut before the last term became negligible."""


@dataclass(frozen=True)
class SphericalPoint:
    """Source location in the chart: radius and angles.

    domain is the chart the point was mapped into and drivers the
    (seller, reference, buyer) distances it was mapped from. transform_3d
    sets both: prepare_pricing and survival_3d read the contract's chart
    and distances off them. Neither enters equality or repr.
    """
    r0: float
    phi0: float
    theta0: float
    domain: object = field(default=None, repr=False, compare=False)
    drivers: tuple = field(default=None, repr=False, compare=False)


def transform_3d(domain, x0, y0, z0):
    """Map positive, finite driver distances to chart coordinates."""
    if not all(0.0 < v < math.inf for v in (x0, y0, z0)):
        raise ValueError("driver distances must be positive and finite")
    a, b, g = decorrelate(domain, x0, y0, z0)
    r0 = math.sqrt(a * a + b * b + g * g)
    phi0 = math.atan2(a, b)
    theta0 = math.acos(min(max(g / r0, -1.0), 1.0))
    return SphericalPoint(r0=r0, phi0=phi0, theta0=theta0, domain=domain,
                          drivers=(x0, y0, z0))


def _unreachable_buyer_wedge(source, horizon):
    """Seller-reference wedge when the buyer cannot default by horizon.

    The buyer counts as unreachable once z^2 / 2T exceeds
    _REACH_EXPONENT (z > 4 sqrt(T)), the cut past which prepare_pricing
    tapers the buyer's flux at every time node. The three-name problem
    then reduces to the two-name wedge of seller and reference, up to
    the buyer's crossing mass erfc(z / sqrt(2T)) < 6.4e-5. Returns None
    while the buyer is reachable, or when the source carries no driver
    distances. Only survival_3d and prepare_pricing make this cut.
    """
    if source.drivers is None:
        return None
    x, y, z = source.drivers
    if z * z / (2.0 * horizon) <= _REACH_EXPONENT:
        return None
    return to_wedge(x, y, source.domain.rho_xy)


def _scalar_tau(tau):
    """tau as a float; ValueError unless it is a positive scalar."""
    if np.ndim(tau) != 0:
        raise ValueError("tau must be a positive scalar")
    tau = float(tau)
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    return tau


def _source_weights(basis, source):
    return eval_basis(basis, source.phi0, source.theta0)[0]


def _radial_grid(tau, r, r0):
    """The radial kernel exp(-(r - r0)^2 / 2 tau) I_nu(r r0 / tau) /
    (tau sqrt(r r0)) as its Bessel argument z and the Gaussian
    prefactor that multiplies ive(nu, z); tau broadcasts against r."""
    with np.errstate(under="ignore"):
        base = np.exp(-((r - r0) ** 2) / (2.0 * tau)) / (tau * np.sqrt(r * r0))
    return (1.0 / tau) * (r * r0), base


def green_3d(basis, tau, r, phi, theta, source):
    """Transition density to (r, phi, theta), per unit driver volume.

    All of r >= 0, phi, theta broadcast together; tau is a positive
    scalar. The source angular profile is the truncated eigenfunction
    expansion, so the density is semi-analytical: exact in the radial
    part, spectral in the angles.

    The radial Bessel kernel depends on r only and the mode values on
    the angles only, so a call locates each distinct (phi, theta) once
    and sums the live cells of (distinct radii x modes) (specfun.IveTable)
    against the distinct angles' source-weighted mode values: a lattice
    of radii x angles costs what its radii and its angles cost apart,
    and points scattered in both cost the lattice they span.
    """
    tau = _scalar_tau(tau)
    r, phi, theta = np.broadcast_arrays(
        np.asarray(r, float), np.asarray(phi, float),
        np.asarray(theta, float))
    if np.any(r < 0.0):
        raise ValueError("r must be non-negative")
    shape = r.shape
    radii, r_at = np.unique(r.ravel(), return_inverse=True)
    # phi + i theta sorts as the (phi, theta) pair does: the distinct
    # angles of np.unique(axis=0), without its slow sort of row records
    angles, a_at = np.unique(phi.ravel() + 1j * theta.ravel(),
                             return_inverse=True)
    modes = eval_basis(basis, angles.real, angles.imag)
    psi0 = _source_weights(basis, source)
    z, base = _radial_grid(tau, radii, source.r0)
    table = IveTable(basis.nu, z, base)
    # a column per distinct angle, and the last mode alone (the
    # truncation check's term)
    coef = np.hstack([modes.T, np.eye(len(psi0))[:, -1:]]) * psi0[:, None]
    sums = base[:, None] * table.sums(bessel_i_scaled(*table.asks), coef)
    out = sums[r_at, a_at]
    tail = np.abs(modes[a_at, -1] * sums[r_at, -1])
    if np.any(tail > 1e-10 * np.maximum(np.abs(out), 1e-300)):
        warnings.warn("last eigen term above 1e-10 of the partial sum; "
                      "density not fully converged", TruncationWarning)
    return out.reshape(shape) if shape else float(out[0])


def survival_3d(basis, tau, source):
    """Probability that no driver has crossed by tau.

    Integrating the radial kernel against r^2 dr gives
    w^a Gamma(b - a) / Gamma(b) 1F1(a, b, -w) per mode, with
    a = nu/2 - 1/4, b = nu + 1 and w = r0^2 / 2 tau, evaluated in log
    space for all modes at once (specfun.ln_hyp1f1_neg, which raises
    ArithmeticError where 1F1 underflows). The angular integral
    contributes each mode's surface mass.

    A buyer with z > 4 sqrt(tau) cannot default by tau: the result is
    then the seller-reference wedge survival_2d, which exceeds the
    three-name value by at most erfc(z / sqrt(2 tau)) < 6.4e-5. The
    source must come from transform_3d for this check to apply.
    """
    tau = _scalar_tau(tau)
    wedge = _unreachable_buyer_wedge(source, tau)
    if wedge is not None:
        return survival_2d(tau, wedge)
    nu = basis.nu
    w = source.r0 ** 2 / (2.0 * tau)
    a = 0.5 * nu - 0.25
    b = nu + 1.0
    radial = np.exp(a * math.log(w) + ln_gamma(b - a) - ln_gamma(b)
                    + ln_hyp1f1_neg(a, b, w))
    psi0 = _source_weights(basis, source)
    terms_n = psi0 * basis.s_n * radial
    q = float(terms_n.sum())
    if abs(terms_n[-1]) > 1e-10 * max(abs(q), 1e-300):
        warnings.warn("last eigen term above 1e-10 of the partial sum; "
                      "survival not fully converged", TruncationWarning)
    if q < -1e-3 or q > 1.0 + 1e-3:
        warnings.warn("survival series poorly converged (q=%.3e); more "
                      "modes or a finer mesh needed" % q, RuntimeWarning)
    return min(max(q, 0.0), 1.0)


@dataclass(frozen=True)
class FaceFluxes:
    """Variational boundary fluxes of each mode, grouped by chart face.

    Coefficient row i holds, for every mode, the outward metric flux
    integrated against the hat function of boundary node i, i.e. the
    residual (K - Lambda^2 M) psi at that node. Corner nodes of the
    straight edges are attributed to those edges; the pole edge at the
    theta floor is an artifact of the chart clamp and is dropped.
    """
    seller_theta: np.ndarray      # (ks,) nodes on phi = 0
    seller_coeff: np.ndarray      # (ks, n_modes)
    buyer_phi: np.ndarray         # (kb,) nodes on theta = Theta(phi)
    buyer_theta: np.ndarray       # (kb,)
    buyer_coeff: np.ndarray       # (kb, n_modes)
    reference_theta: np.ndarray   # (kr,) nodes on phi = varpi
    reference_coeff: np.ndarray   # (kr, n_modes)


def _variational_face_fluxes(basis, domain):
    """Group the stored boundary residuals of every mode by face."""
    resid = basis.boundary_residual
    phi, theta = basis.mesh.vertices[basis.mesh.boundary_mask].T
    tol = 1e-7
    on_seller = phi < tol
    on_reference = phi > domain.varpi - tol
    on_pole = (theta < domain.theta_floor + tol) & ~on_seller \
        & ~on_reference
    on_buyer = ~(on_seller | on_reference | on_pole)
    order_s = np.argsort(theta[on_seller])
    order_b = np.argsort(phi[on_buyer])
    order_r = np.argsort(theta[on_reference])
    return FaceFluxes(
        seller_theta=theta[on_seller][order_s],
        seller_coeff=resid[on_seller][order_s],
        buyer_phi=phi[on_buyer][order_b],
        buyer_theta=theta[on_buyer][order_b],
        buyer_coeff=resid[on_buyer][order_b],
        reference_theta=theta[on_reference][order_r],
        reference_coeff=resid[on_reference][order_r])


@dataclass(frozen=True)
class PricingGrid:
    """One contract: its terms, the seller's and buyer's recoveries, d0
    and a0, the plain contract's legs at the reference's own distance,
    and the CVA's seller leg and the DVA's buyer leg, each giving its
    cells (cds2d.LegCells) at the terms and a coupon. On the three-name
    cone both are fixed (time, radius, face node) cells:
    V = D - coupon A is linear in the coupon, so D and A are computed
    once. A buyer past the reach cut (prepare_pricing) has no cells, and
    the seller's leg is the seller-reference wedge's, built at each
    coupon (cds2d._wedge_cells).
    """
    terms: CdsTerms
    recovery_seller: float
    recovery_buyer: float
    d0: float
    a0: float
    seller: LegCells
    buyer: LegCells


def _face_distances(domain, fluxes, r_nodes):
    """Reference distance at each radius on the seller and buyer faces."""
    bxy = domain.rho_bar_xy
    y_s = bxy * np.outer(r_nodes, np.sin(fluxes.seller_theta))
    ray = (domain.rho_xy * np.sin(fluxes.buyer_phi)
           + bxy * np.cos(fluxes.buyer_phi)) * np.sin(fluxes.buyer_theta)
    return y_s, np.outer(r_nodes, ray)


def prepare_pricing(basis, source, terms, recovery_seller, recovery_buyer,
                    n_time=48, n_radial=200):
    """The contract's pricing grid: its terms and recoveries, the plain
    legs at the reference's distance and the seller's and buyer's legs.

    A recovery outside [0, 1) is a ValueError. The chart and the driver
    distances come from the source, which must come from transform_3d
    (ValueError otherwise). A buyer with
    z > 4 sqrt(T) cannot default by maturity: its leg then has no cells,
    the seller's is the seller-reference wedge's on cva_2d's default
    quadrature, and no three-name kernel is evaluated. Otherwise one
    specfun.IveTable sums the kernel's live cells against both faces'
    fluxes, and bounds the skipped cells' share. A cell's weight is its
    face flux times the reach taper exp(min(0, 8 - gap^2/2t)), -1/2,
    the discount and the quadrature weights; the 1D legs are evaluated
    where it is not 0.
    """
    if not all(0.0 <= r < 1.0 for r in (recovery_seller, recovery_buyer)):
        raise ValueError("recovery must be in [0, 1)")
    domain = source.domain
    if domain is None or source.drivers is None:
        raise ValueError("source carries no chart or driver distances: "
                         "map it with transform_3d")
    x_gap, y0, z_gap = source.drivers
    rate, recovery = terms.rate, terms.recovery
    d0, a0 = cds1d._legs_1d(terms.maturity, y0, rate, recovery)
    contract = dict(terms=terms, recovery_seller=recovery_seller,
                    recovery_buyer=recovery_buyer, d0=float(d0),
                    a0=float(a0))
    wedge = _unreachable_buyer_wedge(source, terms.maturity)
    if wedge is not None:
        return PricingGrid(**contract, seller=partial(_wedge_cells, wedge),
                           buyer=LegCells(*np.zeros((3, 0))))
    fluxes = _variational_face_fluxes(basis, domain)
    t_nodes, t_w = gauss_legendre(n_time, 0.0, terms.maturity)
    r_hi = source.r0 + 8.0 * math.sqrt(terms.maturity)
    r_nodes, r_w = gauss_legendre(n_radial, r_hi * 1e-6, r_hi)

    z, base = _radial_grid(t_nodes[:, None], r_nodes, source.r0)
    table = IveTable(basis.nu, z, base)
    # both faces' source-weighted flux coefficients, seller columns then
    # buyer columns, summed in one pass over the live cells
    coeff = np.concatenate([fluxes.seller_coeff, fluxes.buyer_coeff]).T
    flux = table.sums(bessel_i_scaled(*table.asks),
                      coeff * _source_weights(basis, source)[:, None])
    # a cell's prefactor, -1/2, time weight, discount and radial weight
    cell_w = base * (-0.5 * t_w * np.exp(-rate * t_nodes))[:, None] * r_w
    tau_left = (terms.maturity - t_nodes)[:, None, None]
    legs = []
    for face, gap, y in zip(
            np.split(flux, [len(fluxes.seller_theta)], axis=2),
            (x_gap, z_gap), _face_distances(domain, fluxes, r_nodes)):
        taper = np.exp(np.minimum(0.0, _REACH_EXPONENT
                                  - gap * gap / (2.0 * t_nodes)))
        weight = face * (taper[:, None] * cell_w)[:, :, None]
        legs.append(_leg_cells(weight, tau_left, y, rate, recovery))
    return PricingGrid(**contract, seller=legs[0], buyer=legs[1])


def _leg(grid, coupon, side):
    """CVA (side +1) or DVA (side -1) on the grid at coupon, reported
    >= 0 as cva_3d and dva_3d do, and its exact derivative in the coupon.

    Each leg is cds2d._leg_sum of its cells at the grid's terms and
    coupon, the CVA's where V > 0 and the DVA's where V < 0; a leg the
    report clamps to 0, as one with no cells, has slope 0.
    """
    leg, recovery = ((grid.seller, grid.recovery_seller) if side > 0
                     else (grid.buyer, grid.recovery_buyer))
    value, slope = _leg_sum(leg(replace(grid.terms, coupon=coupon)),
                            coupon, side)
    # the seller's leg is a loss; the buyer's is non-positive and its
    # sign flip makes the bilateral value V - cva + dva. Truncation
    # noise can push a vanishing adjustment a hair negative.
    scale = side * (1.0 - recovery)
    if not scale * value > 0.0:
        return 0.0, 0.0
    return scale * value, scale * slope


def cva_3d(grid, coupon):
    """Expected discounted loss when the seller defaults first, >= 0, of
    the grid's contract (prepare_pricing) at coupon.

    Positive exposure of the protection buyer hits the seller's face;
    the loss is the unrecovered fraction of the replacement value.

    On the grid of a buyer with z > 4 sqrt(T), who cannot default by
    maturity, the seller's leg is the two-name wedge's: the value is
    cva_2d's on its default quadrature, within
    (1 - R_s)(1 - R) erfc(z / sqrt(2T)) of the three-name value.
    """
    return _leg(grid, coupon, 1.0)[0]


def dva_3d(grid, coupon):
    """Own-default benefit when the buyer defaults first, reported >= 0,
    of the grid's contract (prepare_pricing) at coupon.

    The raw adjustment is non-positive (negative exposure times the
    unrecovered fraction); the sign flip makes the bilateral value
    V - cva + dva.

    On the grid of a buyer with z > 4 sqrt(T), who cannot default by
    maturity, the buyer's leg has no cells and the value is 0.0; the
    true one is at most
    (1 - R_b) coupon T erfc(z / sqrt(2T)).
    """
    return _leg(grid, coupon, -1.0)[0]


def breakeven_coupon_3d(grid, adjust):
    """Coupon that zeroes the adjusted value of the grid's contract.

    adjust picks which legs enter: "none" reproduces the plain coupon
    d0/a0 (the grid's legs at the reference's distance), "cva" charges
    the seller leg, "dva" credits the buyer leg, "bilateral" both, each
    as cva_3d and dva_3d report it on grid; any other adjust is a
    ValueError. On the grid of a buyer with z > 4 sqrt(T) the adjusted
    value is off by at most the sum of the two legs' error bounds there.

    The root of f(c) = (d0/a0 - c) a0 - cva(c) + dva(c), which is exactly
    0 at the plain coupon while no leg enters, is one Newton solve from
    there on the legs' exact slopes (_leg). It stops once a step is
    below 1e-12 (1 + c) and raises RuntimeError after 30 steps.
    """
    if adjust not in ("none", "cva", "dva", "bilateral"):
        raise ValueError("adjust must be one of none, cva, dva, "
                         "bilateral, not %r" % (adjust,))
    plain = grid.d0 / grid.a0

    def adjusted(coupon):
        value, slope = (plain - coupon) * grid.a0, -grid.a0
        if adjust in ("cva", "bilateral"):
            cva, d_cva = _leg(grid, coupon, 1.0)
            value, slope = value - cva, slope - d_cva
        if adjust in ("dva", "bilateral"):
            dva, d_dva = _leg(grid, coupon, -1.0)
            value, slope = value + dva, slope + d_dva
        return value, slope

    root = root_scalar(adjusted, x0=plain, fprime=True, method="newton",
                       xtol=1e-12, rtol=1e-12, maxiter=30)
    if not root.converged:
        raise RuntimeError("breakeven Newton did not converge: %s"
                           % root.flag)
    return float(root.root)


@dataclass(frozen=True)
class Price3d:
    """Break-even coupons and adjustments of one contract at one maturity."""
    bec_1d: float
    bec_cva_only: float
    bec_dva_only: float
    bec_bilateral: float
    cva: float
    dva: float


def price_3d(grid):
    """The four break-even coupons of the grid's contract
    (prepare_pricing), and its CVA and DVA at grid.terms.coupon.

    A leg with no cells adds nothing to a root, so then the bilateral
    coupon is the one-leg coupon without it: on the grid of a buyer with
    z > 4 sqrt(T) the CVA-only one, rooted once on the two-name wedge.
    """
    bec_cva = breakeven_coupon_3d(grid, "cva")
    bec_dva = breakeven_coupon_3d(grid, "dva")
    # a leg of fixed cells, none of them, adds nothing to a root; a leg
    # built at each coupon may have cells at another
    empty = [isinstance(leg, LegCells) and leg.weight.size == 0
             for leg in (grid.buyer, grid.seller)]
    bec_bilateral = (bec_cva if empty[0] else bec_dva if empty[1]
                     else breakeven_coupon_3d(grid, "bilateral"))
    return Price3d(
        bec_1d=breakeven_coupon_3d(grid, "none"), bec_cva_only=bec_cva,
        bec_dva_only=bec_dva, bec_bilateral=bec_bilateral,
        cva=cva_3d(grid, grid.terms.coupon),
        dva=dva_3d(grid, grid.terms.coupon))
