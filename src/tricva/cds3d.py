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

The radial Bessel kernel has one evaluation path, for the pricing grid
and green_3d alike: it calls the Bessel function on the live cells of
its (time, radius) x order grid only, by the rule of cds2d._live_cells.
Every series runs over all modes of the basis it is given; a shallower
sum is a price on fem.truncate_basis.

A PricingGrid is one contract: prepare_pricing reads the chart and the
driver distances off the source, decides the regime, and the legs and
roots read only the grid. A buyer past the reach cut gets a grid that
holds the seller-reference wedge, on which the CVA is cva_2d and the DVA
is 0. survival_3d, which takes no grid, makes the same cut itself.
Every break-even coupon is one Newton root on the legs' exact slopes.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import root_scalar

from . import cds1d
# cva_2d is not called here; perfbench's tracer hooks it by this name
from .cds2d import (WedgeCoords, _cva_2d_with_slope, _live_cells, cva_2d,
                    survival_2d, to_wedge)
from .domain3d import decorrelate
from .fem import eval_basis
from .specfun import bessel_i_scaled, gauss_legendre, ln_gamma, ln_hyp1f1_neg

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
    """Map positive driver distances to chart coordinates."""
    if min(x0, y0, z0) <= 0.0:
        raise ValueError("driver distances must be positive")
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


def _radial_kernel(basis, tau, r, r0):
    """exp(-(r - r0)^2 / 2 tau) I_nu(r r0 / tau) / (tau sqrt(r r0)),
    Bessel factor scaled; shape (len(tau), len(r), n_modes).

    Only the live cells of the (tau, r) x order grid call the Bessel
    function (cds2d._live_cells); the others are left 0.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    nu = basis.nu
    z = np.multiply.outer(1.0 / tau, r * r0)
    with np.errstate(under="ignore"):
        base = (np.exp(-((r[None, :] - r0) ** 2) / (2.0 * tau[:, None]))
                / (tau[:, None] * np.sqrt(r[None, :] * r0)))
        rows, cols = _live_cells(base, z, nu)
        bess = np.zeros(z.shape + nu.shape)
        bess.reshape(-1, len(nu))[rows, cols] = bessel_i_scaled(
            nu[cols], z.ravel()[rows])
    return base[:, :, None] * bess


def green_3d(basis, tau, r, phi, theta, source):
    """Transition density to (r, phi, theta), per unit driver volume.

    All of r >= 0, phi, theta broadcast together; tau is a positive
    scalar. The source angular profile is the truncated eigenfunction
    expansion, so the density is semi-analytical: exact in the radial
    part, spectral in the angles.

    The radial Bessel kernel depends on r only and the mode values on
    the angles only, so a call asks the Bessel function for the live
    cells of (distinct radii x modes) alone (cds2d._live_cells) and
    locates each distinct (phi, theta) once: a lattice of radii x
    angles costs what its radii and its angles cost apart.
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
    modes = eval_basis(basis, angles.real, angles.imag)[a_at]
    psi0 = _source_weights(basis, source)
    rad = _radial_kernel(basis, tau, radii, source.r0)[0][r_at]
    out = np.einsum("pn,n,pn->p", modes, psi0, rad)
    last = np.abs(modes[:, -1] * psi0[-1] * rad[:, -1])
    if np.any(last > 1e-10 * np.maximum(np.abs(out), 1e-300)):
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
    """One contract's coupon-independent quadrature data.

    The 1D CDS value on each face grid is linear in the coupon,
    V = D - coupon A, so the default legs D and risky annuities A at
    every (time left, radius, face node) are computed once here; a
    valuation at another coupon only rescales the annuities. d0 and a0
    are the plain contract's legs at the reference's own distance.

    A buyer past the reach cut (prepare_pricing) leaves the grid with the
    seller-reference wedge alone: wedge is then set and every array is
    None, and while the buyer is reachable wedge is None.
    """
    maturity: float
    rate: float
    recovery: float
    d0: float
    a0: float
    wedge: WedgeCoords = None
    t_nodes: np.ndarray = None
    t_weights: np.ndarray = None
    r_nodes: np.ndarray = None
    r_weights: np.ndarray = None
    flux_seller: np.ndarray = None     # (nt, nr, ks): psi0_n radial_n R_kn
    flux_buyer: np.ndarray = None      # (nt, nr, kb)
    default_seller: np.ndarray = None  # (nt, nr, ks) D on the seller's face
    annuity_seller: np.ndarray = None  # (nt, nr, ks) A on the seller's face
    default_buyer: np.ndarray = None   # (nt, nr, kb)
    annuity_buyer: np.ndarray = None   # (nt, nr, kb)

    def check_terms(self, terms):
        """ValueError when terms differ from the grid's in anything but
        the coupon."""
        if (terms.maturity, terms.rate, terms.recovery) != (
                self.maturity, self.rate, self.recovery):
            raise ValueError("pricing grid built for other terms: only "
                             "the coupon may change")

    def face_values(self, terms, face):
        """1D CDS values D - coupon A on one face grid, "seller" or
        "buyer"; check_terms first."""
        self.check_terms(terms)
        if face == "seller":
            return self.default_seller - terms.coupon * self.annuity_seller
        return self.default_buyer - terms.coupon * self.annuity_buyer


def _face_distances(domain, fluxes, r_nodes):
    """Reference distance at each radius on the seller and buyer faces."""
    bxy = domain.rho_bar_xy
    y_s = bxy * np.outer(r_nodes, np.sin(fluxes.seller_theta))
    ray = (domain.rho_xy * np.sin(fluxes.buyer_phi)
           + bxy * np.cos(fluxes.buyer_phi)) * np.sin(fluxes.buyer_theta)
    return y_s, np.outer(r_nodes, ray)


def prepare_pricing(basis, source, terms, n_time=48, n_radial=200):
    """The contract's pricing grid: its regime, the plain legs at the
    reference's distance, and for a reachable buyer the time/radius
    grids, per-face flux tensors and 1D legs.

    The chart and the driver distances come from the source, which must
    come from transform_3d (ValueError otherwise). A buyer with
    z > 4 sqrt(T) cannot default by maturity: the grid then holds the
    seller-reference wedge and no flux tensors, and no three-name kernel
    is evaluated. Otherwise the radial kernel is evaluated on its live
    cells only (cds2d._live_cells); the skipped cells' share of each
    flux is bounded there.
    """
    domain = source.domain
    if domain is None or source.drivers is None:
        raise ValueError("source carries no chart or driver distances: "
                         "map it with transform_3d")
    x_gap, y0, z_gap = source.drivers
    rate, recovery = terms.rate, terms.recovery
    d0, a0 = cds1d._legs_1d(terms.maturity, y0, rate, recovery)
    contract = dict(maturity=terms.maturity, rate=rate, recovery=recovery,
                    d0=float(d0), a0=float(a0))
    wedge = _unreachable_buyer_wedge(source, terms.maturity)
    if wedge is not None:
        return PricingGrid(**contract, wedge=wedge)
    fluxes = _variational_face_fluxes(basis, domain)
    t_nodes, t_w = gauss_legendre(n_time, 0.0, terms.maturity)
    r_hi = source.r0 + 8.0 * math.sqrt(terms.maturity)
    r_nodes, r_w = gauss_legendre(n_radial, r_hi * 1e-6, r_hi)

    psi0 = _source_weights(basis, source)
    rad = _radial_kernel(basis, t_nodes, r_nodes, source.r0)
    rad *= psi0[None, None, :]
    flux_s = np.einsum("ijn,kn->ijk", rad, fluxes.seller_coeff)
    flux_b = np.einsum("ijn,kn->ijk", rad, fluxes.buyer_coeff)

    for flux, gap in ((flux_s, x_gap), (flux_b, z_gap)):
        ex = gap * gap / (2.0 * t_nodes)
        flux *= np.exp(np.minimum(0.0, _REACH_EXPONENT - ex))[:, None, None]

    tau_left = (terms.maturity - t_nodes)[:, None, None]
    y_s, y_b = (y[None, :, :]
                for y in _face_distances(domain, fluxes, r_nodes))
    d_s, a_s = cds1d._legs_1d(tau_left, y_s, rate, recovery)
    d_b, a_b = cds1d._legs_1d(tau_left, y_b, rate, recovery)
    return PricingGrid(
        **contract, t_nodes=t_nodes, t_weights=t_w, r_nodes=r_nodes,
        r_weights=r_w, flux_seller=flux_s, flux_buyer=flux_b,
        default_seller=d_s, annuity_seller=a_s,
        default_buyer=d_b, annuity_buyer=a_b)


def _leg(grid, terms, which, recovery):
    """CVA or DVA on the grid, reported >= 0 as cva_3d and dva_3d do, and
    its exact derivative in the coupon.

    On the three-name grid V = D - coupon A, so the slope is the same
    contraction with -A in place of V, summed where the exposure is on
    the leg's side (V > 0 for the CVA, V < 0 for the DVA); a leg the
    report clamps to 0 has slope 0. On the wedge the CVA and its slope
    come from one quadrature (cds2d._cva_2d_with_slope) and the DVA is 0.
    """
    grid.check_terms(terms)
    if grid.wedge is not None:
        if which == "cva":
            return _cva_2d_with_slope(grid.wedge, terms, recovery)
        return 0.0, 0.0
    if which == "cva":
        exposure = grid.face_values(terms, "seller")
        np.maximum(exposure, 0.0, out=exposure)
        annuity, flux = grid.annuity_seller, grid.flux_seller
    else:
        exposure = grid.face_values(terms, "buyer")
        np.minimum(exposure, 0.0, out=exposure)
        annuity, flux = grid.annuity_buyer, grid.flux_buyer
    annuity = np.where(exposure != 0.0, annuity, 0.0)
    weights = grid.t_weights * np.exp(-terms.rate * grid.t_nodes)
    leg, slope = (-0.5 * float(np.sum(
        weights * np.einsum("ijk,ijk,j->i", v, flux, grid.r_weights)))
        for v in (exposure, -annuity))
    # the seller's leg is a loss; the buyer's is non-positive and its
    # sign flip makes the bilateral value V - cva + dva. Truncation
    # noise can push a vanishing adjustment a hair negative.
    scale = (1.0 - recovery) if which == "cva" else -(1.0 - recovery)
    if not scale * leg > 0.0:
        return 0.0, 0.0
    return scale * leg, scale * slope


def cva_3d(grid, terms, recovery_seller):
    """Expected discounted loss when the seller defaults first, >= 0.

    Positive exposure of the protection buyer hits the seller's face;
    the loss is the unrecovered fraction of the replacement value. grid
    is prepare_pricing's grid for these terms at any coupon.

    On the grid of a buyer with z > 4 sqrt(T), who cannot default by
    maturity, the value is the two-name wedge CVA (cva_2d, on its own
    default quadrature), within (1 - R_s)(1 - R) erfc(z / sqrt(2T)) of
    the three-name value.
    """
    return _leg(grid, terms, "cva", recovery_seller)[0]


def dva_3d(grid, terms, recovery_buyer):
    """Own-default benefit when the buyer defaults first, reported >= 0.

    The raw adjustment is non-positive (negative exposure times the
    unrecovered fraction); the sign flip makes the bilateral value
    V - cva + dva. grid is prepare_pricing's grid for these terms at any
    coupon.

    On the grid of a buyer with z > 4 sqrt(T), who cannot default by
    maturity, the value is 0.0; the true one is at most
    (1 - R_b) coupon T erfc(z / sqrt(2T)).
    """
    return _leg(grid, terms, "dva", recovery_buyer)[0]


def breakeven_coupon_3d(grid, terms, recovery_seller, recovery_buyer,
                        adjust):
    """Coupon that zeroes the adjusted contract value.

    adjust picks which legs enter: "none" reproduces the plain coupon
    d0/a0 (the grid's legs at the reference's distance), "cva" charges
    the seller leg, "dva" credits the buyer leg, "bilateral" both, each
    as cva_3d and dva_3d report it on grid, prepare_pricing's grid for
    these terms at any coupon; any other adjust is a ValueError. On the
    grid of a buyer with z > 4 sqrt(T) the adjusted value is off by at
    most the sum of the two legs' error bounds there.

    The root of f(c) = (d0/a0 - c) a0 - cva(c) + dva(c), which is exactly
    0 at the plain coupon while no leg enters, is one Newton solve from
    there on the legs' exact slopes (_leg). It stops once a step is
    below 1e-12 (1 + c) and raises RuntimeError after 30 steps.
    """
    if adjust not in ("none", "cva", "dva", "bilateral"):
        raise ValueError("adjust must be one of none, cva, dva, "
                         "bilateral, not %r" % (adjust,))
    grid.check_terms(terms)
    plain = grid.d0 / grid.a0

    def adjusted(coupon):
        t = replace(terms, coupon=coupon)
        value, slope = (plain - coupon) * grid.a0, -grid.a0
        if adjust in ("cva", "bilateral"):
            cva, d_cva = _leg(grid, t, "cva", recovery_seller)
            value, slope = value - cva, slope - d_cva
        if adjust in ("dva", "bilateral"):
            dva, d_dva = _leg(grid, t, "dva", recovery_buyer)
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


def price_3d(basis, source, terms, recovery_seller, recovery_buyer,
             n_time=48, n_radial=200):
    """The four break-even coupons, CVA and DVA of one contract.

    Every root and both adjustments (at terms.coupon) read one
    prepare_pricing grid, built from the source's chart and driver
    distances. On the grid of a buyer with z > 4 sqrt(T) the DVA leg is
    zero, so the bilateral coupon is the CVA-only one, rooted once on
    the two-name wedge.
    """
    grid = prepare_pricing(basis, source, terms, n_time, n_radial)

    def coupon(adjust):
        return breakeven_coupon_3d(grid, terms, recovery_seller,
                                   recovery_buyer, adjust)

    bec_cva = coupon("cva")
    return Price3d(
        bec_1d=coupon("none"), bec_cva_only=bec_cva,
        bec_dva_only=coupon("dva"),
        bec_bilateral=(bec_cva if grid.wedge is not None
                       else coupon("bilateral")),
        cva=cva_3d(grid, terms, recovery_seller),
        dva=dva_3d(grid, terms, recovery_buyer))
