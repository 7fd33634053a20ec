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
A buyer past the reach cut is priced on the seller-reference wedge,
where the CVA-only break-even coupon is a Newton root on the wedge
CVA's exact coupon slope.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from . import cds1d
from .cds2d import (_cva_2d_with_slope, _live_cells, cva_2d,
                    survival_2d, to_wedge)
from .domain3d import correlate, decorrelate
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

    domain is the chart the point was mapped into; transform_3d sets it
    so that survival_3d can map the source back to driver distances.
    """
    r0: float
    phi0: float
    theta0: float
    domain: object = field(default=None, repr=False, compare=False)


def transform_3d(domain, x0, y0, z0):
    """Map positive driver distances to chart coordinates."""
    if min(x0, y0, z0) <= 0.0:
        raise ValueError("driver distances must be positive")
    a, b, g = decorrelate(domain, x0, y0, z0)
    r0 = math.sqrt(a * a + b * b + g * g)
    phi0 = math.atan2(a, b)
    theta0 = math.acos(min(max(g / r0, -1.0), 1.0))
    return SphericalPoint(r0=r0, phi0=phi0, theta0=theta0, domain=domain)


def _driver_distances(domain, source):
    """Map a chart source back to its driver distances (x, y, z)."""
    st = math.sin(source.theta0)
    return correlate(domain, source.r0 * st * math.sin(source.phi0),
                     source.r0 * st * math.cos(source.phi0),
                     source.r0 * math.cos(source.theta0))


def _unreachable_buyer_wedge(domain, source, horizon):
    """Seller-reference wedge when the buyer cannot default by horizon.

    The buyer counts as unreachable once z^2 / 2T exceeds
    _REACH_EXPONENT (z > 4 sqrt(T)), the cut past which prepare_pricing
    tapers the buyer's flux at every time node. The three-name problem
    then reduces to the two-name wedge of seller and reference, up to
    the buyer's crossing mass erfc(z / sqrt(2T)) < 6.4e-5. Returns None
    while the buyer is reachable, or when the chart is unknown.
    """
    if domain is None:
        return None
    x, y, z = _driver_distances(domain, source)
    if z * z / (2.0 * horizon) <= _REACH_EXPONENT:
        return None
    return to_wedge(x, y, domain.rho_xy)


def _scalar_tau(tau):
    """tau as a float; ValueError unless it is a positive scalar."""
    if np.ndim(tau) != 0:
        raise ValueError("tau must be a positive scalar")
    tau = float(tau)
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    return tau


def _source_weights(basis, source, n_terms):
    psi0 = eval_basis(basis, source.phi0, source.theta0)[0]
    return psi0[:n_terms]


def _radial_kernel(basis, tau, r, r0, n_terms):
    """exp(-(r - r0)^2 / 2 tau) I_nu(r r0 / tau) / (tau sqrt(r r0)),
    Bessel factor scaled; shape (len(tau), len(r), n_terms).

    Only the live cells of the (tau, r) x order grid call the Bessel
    function (cds2d._live_cells); the others are left 0.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    nu = basis.nu[:n_terms]
    z = np.multiply.outer(1.0 / tau, r * r0)
    with np.errstate(under="ignore"):
        base = (np.exp(-((r[None, :] - r0) ** 2) / (2.0 * tau[:, None]))
                / (tau[:, None] * np.sqrt(r[None, :] * r0)))
        rows, cols = _live_cells(base, z, nu)
        bess = np.zeros(z.shape + nu.shape)
        bess.reshape(-1, len(nu))[rows, cols] = bessel_i_scaled(
            nu[cols], z.ravel()[rows])
    return base[:, :, None] * bess


def green_3d(basis, tau, r, phi, theta, source, n_terms=None):
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
    n_terms = basis.n_modes if n_terms is None else n_terms
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
    modes = eval_basis(basis, angles.real, angles.imag)[a_at, :n_terms]
    psi0 = _source_weights(basis, source, n_terms)
    rad = _radial_kernel(basis, tau, radii, source.r0, n_terms)[0][r_at]
    out = np.einsum("pn,n,pn->p", modes, psi0, rad)
    last = np.abs(modes[:, -1] * psi0[-1] * rad[:, -1])
    if np.any(last > 1e-10 * np.maximum(np.abs(out), 1e-300)):
        warnings.warn("last eigen term above 1e-10 of the partial sum; "
                      "density not fully converged", TruncationWarning)
    return out.reshape(shape) if shape else float(out[0])


def survival_3d(basis, tau, source, n_terms=None):
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
    wedge = _unreachable_buyer_wedge(source.domain, source, tau)
    if wedge is not None:
        return survival_2d(tau, wedge)
    n_terms = basis.n_modes if n_terms is None else n_terms
    nu = basis.nu[:n_terms]
    w = source.r0 ** 2 / (2.0 * tau)
    a = 0.5 * nu - 0.25
    b = nu + 1.0
    radial = np.exp(a * math.log(w) + ln_gamma(b - a) - ln_gamma(b)
                    + ln_hyp1f1_neg(a, b, w))
    psi0 = _source_weights(basis, source, n_terms)
    terms_n = psi0 * basis.s_n[:n_terms] * radial
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
    """Coupon-independent quadrature data reused across valuations.

    The 1D CDS value on each face grid is linear in the coupon,
    V = D - coupon A, so the default legs D and risky annuities A at
    every (time left, radius, face node) are computed once here; a
    valuation at another coupon only rescales the annuities.
    """
    domain: object
    source: SphericalPoint
    maturity: float
    rate: float
    recovery: float
    t_nodes: np.ndarray
    t_weights: np.ndarray
    r_nodes: np.ndarray
    r_weights: np.ndarray
    flux_seller: np.ndarray      # (nt, nr, ks): sum_n psi0_n radial_n R_kn
    flux_buyer: np.ndarray       # (nt, nr, kb)
    default_seller: np.ndarray   # (nt, nr, ks) D on the seller's face
    annuity_seller: np.ndarray   # (nt, nr, ks) A on the seller's face
    default_buyer: np.ndarray    # (nt, nr, kb)
    annuity_buyer: np.ndarray    # (nt, nr, kb)

    def face_values(self, terms, face):
        """1D CDS values D - coupon A on one face grid, "seller" or
        "buyer".

        Raises ValueError when terms differ from the grid's in anything
        but the coupon.
        """
        if (terms.maturity, terms.rate, terms.recovery) != (
                self.maturity, self.rate, self.recovery):
            raise ValueError("pricing grid built for other terms: only "
                             "the coupon may change")
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


def prepare_pricing(basis, domain, source, terms, n_time=48, n_radial=200,
                    n_terms=None):
    """Assemble the time/radius grids, per-face flux tensors and 1D legs.

    The radial kernel is evaluated on its live cells only
    (cds2d._live_cells); the skipped cells' share of each flux is
    bounded there.
    """
    n_terms = basis.n_modes if n_terms is None else n_terms
    fluxes = _variational_face_fluxes(basis, domain)
    t_nodes, t_w = gauss_legendre(n_time, 0.0, terms.maturity)
    r_hi = source.r0 + 8.0 * math.sqrt(terms.maturity)
    r_nodes, r_w = gauss_legendre(n_radial, r_hi * 1e-6, r_hi)

    psi0 = _source_weights(basis, source, n_terms)
    rad = _radial_kernel(basis, t_nodes, r_nodes, source.r0, n_terms)
    rad *= psi0[None, None, :]
    flux_s = np.einsum("ijn,kn->ijk", rad,
                       fluxes.seller_coeff[:, :n_terms])
    flux_b = np.einsum("ijn,kn->ijk", rad,
                       fluxes.buyer_coeff[:, :n_terms])

    x_gap, _, z_gap = _driver_distances(domain, source)
    for flux, gap in ((flux_s, x_gap), (flux_b, z_gap)):
        ex = gap * gap / (2.0 * t_nodes)
        flux *= np.exp(np.minimum(0.0, _REACH_EXPONENT - ex))[:, None, None]

    tau_left = (terms.maturity - t_nodes)[:, None, None]
    y_s, y_b = (y[None, :, :]
                for y in _face_distances(domain, fluxes, r_nodes))
    rate, recovery = terms.rate, terms.recovery
    d_s, a_s = cds1d._legs_1d(tau_left, y_s, rate, recovery)
    d_b, a_b = cds1d._legs_1d(tau_left, y_b, rate, recovery)
    return PricingGrid(
        domain=domain, source=source, maturity=terms.maturity, rate=rate,
        recovery=recovery, t_nodes=t_nodes, t_weights=t_w,
        r_nodes=r_nodes, r_weights=r_w,
        flux_seller=flux_s, flux_buyer=flux_b,
        default_seller=d_s, annuity_seller=a_s,
        default_buyer=d_b, annuity_buyer=a_b)


def _leg(grid, terms, which, recovery):
    """CVA or DVA on the grid, reported >= 0 as cva_3d and dva_3d do."""
    if which == "cva":
        exposure = grid.face_values(terms, "seller")
        np.maximum(exposure, 0.0, out=exposure)
        flux = grid.flux_seller
    else:
        exposure = grid.face_values(terms, "buyer")
        np.minimum(exposure, 0.0, out=exposure)
        flux = grid.flux_buyer
    disc = np.exp(-terms.rate * grid.t_nodes)
    inner = np.einsum("ijk,ijk,j->i", exposure, flux, grid.r_weights)
    leg = -0.5 * float(np.sum(grid.t_weights * disc * inner))
    # the seller's leg is a loss; the buyer's is non-positive and its
    # sign flip makes the bilateral value V - cva + dva. Truncation
    # noise can push a vanishing adjustment a hair negative.
    if which == "cva":
        return max(0.0, (1.0 - recovery) * leg)
    return max(0.0, -(1.0 - recovery) * leg)


def cva_3d(basis, domain, source, terms, recovery_seller, n_time=48,
           n_radial=200, n_terms=None, grid=None):
    """Expected discounted loss when the seller defaults first, >= 0.

    Positive exposure of the protection buyer hits the seller's face;
    the loss is the unrecovered fraction of the replacement value.

    A buyer with z > 4 sqrt(T) cannot default by maturity: the value is
    then the two-name wedge CVA (cva_2d, on its own default quadrature),
    within (1 - R_s)(1 - R) erfc(z / sqrt(2T)) of the three-name value.
    """
    wedge = _unreachable_buyer_wedge(domain, source, terms.maturity)
    if wedge is not None:
        return cva_2d(wedge, terms, recovery_seller)
    if grid is None:
        grid = prepare_pricing(basis, domain, source, terms, n_time,
                               n_radial, n_terms)
    return _leg(grid, terms, "cva", recovery_seller)


def dva_3d(basis, domain, source, terms, recovery_buyer, n_time=48,
           n_radial=200, n_terms=None, grid=None):
    """Own-default benefit when the buyer defaults first, reported >= 0.

    The raw adjustment is non-positive (negative exposure times the
    unrecovered fraction); the sign flip makes the bilateral value
    V - cva + dva.

    A buyer with z > 4 sqrt(T) cannot default by maturity and the value
    is 0.0; the true one is at most (1 - R_b) coupon T erfc(z / sqrt(2T)).
    """
    if _unreachable_buyer_wedge(domain, source, terms.maturity) is not None:
        return 0.0
    if grid is None:
        grid = prepare_pricing(basis, domain, source, terms, n_time,
                               n_radial, n_terms)
    return _leg(grid, terms, "dva", recovery_buyer)


def breakeven_coupon_3d(basis, domain, source, terms, recovery_seller,
                        recovery_buyer, y0_reference, adjust="bilateral",
                        n_time=48, n_radial=200, n_terms=None, grid=None):
    """Coupon that zeroes the adjusted contract value.

    adjust picks which legs enter: "none" reproduces the plain two-name
    coupon, "cva" charges the seller leg, "dva" credits the buyer leg,
    "bilateral" both, each as cva_3d and dva_3d report it.
    y0_reference is the reference's own distance used for the
    unadjusted value. grid is a prepare_pricing grid for these terms at
    any coupon; one is built when it is None.

    A buyer with z > 4 sqrt(T) cannot default by maturity: the CVA leg
    is then cva_2d on the seller-reference wedge and the DVA leg is
    zero, as in cva_3d and dva_3d, so no three-name grid is built; the
    adjusted value is off by at most the sum of their two error bounds.
    That root is Newton's (_wedge_breakeven); the grid roots are
    brentq's, as the bilateral grid value need not be concave.
    """
    # the closed-form value is linear in the coupon: V = D - coupon A
    d0, a0 = cds1d._legs_1d(terms.maturity, y0_reference, terms.rate,
                            terms.recovery)
    plain = d0 / a0
    if adjust == "none":
        return plain
    wedge = _unreachable_buyer_wedge(domain, source, terms.maturity)
    if wedge is not None:
        if adjust == "dva":
            return plain
        return _wedge_breakeven(wedge, terms, recovery_seller, d0, a0, plain)
    if grid is None:
        grid = prepare_pricing(basis, domain, source, terms, n_time,
                               n_radial, n_terms)

    def adjusted(coupon):
        t = replace(terms, coupon=coupon)
        value = d0 - coupon * a0
        if adjust in ("cva", "bilateral"):
            value -= _leg(grid, t, "cva", recovery_seller)
        if adjust in ("dva", "bilateral"):
            value += _leg(grid, t, "dva", recovery_buyer)
        return value

    lo, hi = 0.25 * plain, 4.0 * plain + 1e-4
    flo, fhi = adjusted(lo), adjusted(hi)
    for _ in range(30):
        if flo * fhi <= 0.0:
            break
        lo *= 0.5
        hi *= 1.5
        flo, fhi = adjusted(lo), adjusted(hi)
    else:
        raise RuntimeError("no breakeven coupon bracket found")
    return brentq(adjusted, lo, hi, xtol=1e-12, rtol=1e-12)


def _wedge_breakeven(wedge, terms, recovery_seller, d0, a0, coupon):
    """Root of f(c) = d0 - c a0 - cva_2d(c) by Newton from the plain coupon.

    The exposure's positive part is convex in the coupon, so f is concave
    and decreasing. At the plain coupon f = -cva <= 0, so each Newton
    step lands between the root and the last iterate: the steps fall
    monotonically onto the root. The slope -a0 - d cva / d coupon comes
    exactly from the same quadrature (cds2d._cva_2d_with_slope).
    """
    for _ in range(30):
        cva, slope = _cva_2d_with_slope(wedge, replace(terms, coupon=coupon),
                                        recovery_seller)
        step = (d0 - coupon * a0 - cva) / (-a0 - slope)
        coupon -= step
        if abs(step) < 1e-12 * (1.0 + abs(coupon)):
            return coupon
    raise RuntimeError("wedge breakeven Newton did not converge")


@dataclass(frozen=True)
class Price3d:
    """Break-even coupons and adjustments of one contract at one maturity."""
    bec_1d: float
    bec_cva_only: float
    bec_dva_only: float
    bec_bilateral: float
    cva: float
    dva: float


def price_3d(basis, domain, source, terms, recovery_seller, recovery_buyer,
             y0_reference, n_time=48, n_radial=200, n_terms=None):
    """The four break-even coupons, CVA and DVA of one contract.

    Every root and both adjustments (at terms.coupon) read one
    prepare_pricing grid. A buyer with z > 4 sqrt(T) builds none: its
    DVA leg is zero, so the bilateral coupon is the CVA-only one, rooted
    once on the two-name wedge.
    """
    far = _unreachable_buyer_wedge(domain, source,
                                   terms.maturity) is not None
    grid = None if far else prepare_pricing(basis, domain, source, terms,
                                            n_time, n_radial, n_terms)

    def coupon(adjust):
        return breakeven_coupon_3d(basis, domain, source, terms,
                                   recovery_seller, recovery_buyer,
                                   y0_reference, adjust=adjust, grid=grid)

    bec_cva = coupon("cva")
    return Price3d(
        bec_1d=coupon("none"), bec_cva_only=bec_cva,
        bec_dva_only=coupon("dva"),
        bec_bilateral=bec_cva if far else coupon("bilateral"),
        cva=cva_3d(basis, domain, source, terms, recovery_seller, grid=grid),
        dva=dva_3d(basis, domain, source, terms, recovery_buyer, grid=grid))
