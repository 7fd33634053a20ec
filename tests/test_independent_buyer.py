"""The three-name CVA and CVA-only coupon against their exact values
when the buyer is independent of seller and reference.

With rho_xz = rho_yz = 0 the CVA's integrand at time t factors: the
seller-reference wedge's CVA node, the flux through the seller's edge
against the discounted positive exposure, times the buyer's survival
erf(z / sqrt(2t)). The reference is the wedge's seller-edge cells
(cds2d._edge_flux_coefficients, the angular derivative of the eigen
series that criterion 4 holds to the image sum) with that factor on
each time node's weight, built at each coupon as the seller leg of a
cds3d.PricingGrid whose buyer leg has no cells: cva_3d contracts it
(cds2d._leg_sum) and breakeven_coupon_3d roots on it, as on the
engine's grid. It reads no three-name eigenbasis. At rho_xy = 0 it is
the octant's pure 1D route (test_octant_legs).
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.special import erf

from tricva import cds1d, cds2d, cds3d, cli, domain3d, fem
from tricva.model import CorrelationTriple
from tricva.specfun import gauss_legendre
from test_octant_legs import octant_coupon, octant_legs


def buyer_independent_cells(drivers, rho_xy, terms, n_time=64,
                            n_radial=200):
    """The exact CVA's cells (cds2d.LegCells) at terms.coupon, without
    the loss factor 1 - R_s, of drivers at (seller, reference, buyer)
    distances with the buyer independent of the other two, on n_time
    Gauss-Legendre nodes in time and n_radial in the wedge radius.

    The nodes are cds2d._wedge_cells': the radial ones stop at the
    exposure root, and a time node under the seller's first-passage
    bound is skipped.
    """
    x0, y0, z0 = drivers
    wedge = cds2d.to_wedge(x0, y0, rho_xy)
    T = terms.maturity
    t, t_w = gauss_legendre(n_time, 0.0, T)
    bound = (t_w * x0 * np.exp(-x0 * x0 / (2.0 * t))
             / np.sqrt(2.0 * math.pi * t ** 3))
    keep = bound >= cds2d._NEGLIGIBLE_NODE * math.erfc(
        x0 / math.sqrt(2.0 * T))
    t, t_w = t[keep], t_w[keep]
    r_hi = wedge.r0 + 8.0 * math.sqrt(T)
    r_lo = 1e-6 * r_hi
    r_top = np.minimum(cds2d.exposure_root(T - t, terms,
                                           wedge.rho_bar * r_hi)
                       / wedge.rho_bar, r_hi)
    # a node whose root is below r_lo gets weights of 0
    r, r_w = gauss_legendre(n_radial, r_lo, np.maximum(r_top, r_lo)[:, None])
    flux = cds2d._edge_flux_coefficients(t[:, None], r, wedge)
    node_w = -0.5 * t_w * np.exp(-terms.rate * t) * erf(z0 / np.sqrt(2.0 * t))
    return cds2d._leg_cells(node_w[:, None] * r_w * flux / r,
                            (T - t)[:, None], wedge.rho_bar * r,
                            terms.rate, terms.recovery)


def buyer_independent_grid(drivers, rho_xy, terms, recovery_seller,
                           n_time=64, n_radial=200):
    """The exact contract as a cds3d.PricingGrid: its seller leg is
    buyer_independent_cells at each coupon, and its buyer leg has no
    cells, so it prices the CVA and the CVA-only coupon, and no buyer
    recovery enters."""
    d0, a0 = cds1d._legs_1d(terms.maturity, drivers[1], terms.rate,
                            terms.recovery)
    return cds3d.PricingGrid(
        terms=terms, recovery_seller=recovery_seller, recovery_buyer=0.0,
        d0=float(d0), a0=float(a0),
        seller=partial(buyer_independent_cells, drivers, rho_xy,
                       n_time=n_time, n_radial=n_radial),
        buyer=cds2d.LegCells(*np.zeros((3, 0))))


@pytest.fixture(scope="module")
def contract():
    """The CLI's default drivers, terms, recoveries and quadrature."""
    cfg = cli.load_config()
    return (cfg.drivers, cfg.terms, cfg.firms["X"].recovery,
            cfg.firms["Z"].recovery, cfg.quadrature)


@pytest.fixture(scope="module", params=[0.8, 0.98])
def buyer_apart(request):
    """(rho_xy, chart, basis) for the triple (rho_xy, 0, 0) on the
    default 1500-point, 160-mode basis."""
    spec = domain3d.build_domain(CorrelationTriple(request.param, 0.0, 0.0))
    mesh = domain3d.build_mesh(spec, n_points=1500, seed=0)
    return request.param, spec, fem.build_basis(mesh, n_modes=160)


@pytest.mark.parametrize("rho_xy", [0.0, 0.8, 0.98])
@pytest.mark.parametrize("maturity", [1.0, 5.0])
def test_reference_agrees_with_itself_under_node_doubling(contract, rho_xy,
                                                         maturity):
    drivers, terms, rec_s, *_ = contract
    terms = replace(terms, maturity=maturity)
    base, fine = (buyer_independent_grid(drivers, rho_xy, terms, rec_s,
                                         *nodes)
                  for nodes in ((64, 200), (128, 400)))
    cva = cds3d.cva_3d(base, terms.coupon)
    assert cva > 0.0
    assert cva == pytest.approx(cds3d.cva_3d(fine, terms.coupon), rel=1e-6,
                                abs=0.0)
    assert cds3d.breakeven_coupon_3d(base, "cva") == pytest.approx(
        cds3d.breakeven_coupon_3d(fine, "cva"), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("maturity", [1.0, 5.0])
def test_reference_is_the_octant_route_at_zero_correlation(contract,
                                                           maturity):
    # two independent routes to the octant's CVA and CVA-only coupon:
    # the wedge's flux series, and the seller's first-passage density
    # times the reference's image density (7.49794446e-05 at 1 y), the
    # coupon from a tight brentq on the latter
    drivers, terms, rec_s, *_ = contract
    terms = replace(terms, maturity=maturity)
    exact = buyer_independent_grid(drivers, 0.0, terms, rec_s)
    want = octant_legs(drivers, terms, rec_s, 0.0)[0]
    assert cds3d.cva_3d(exact, terms.coupon) == pytest.approx(
        want, rel=1e-9, abs=0.0)
    assert cds3d.breakeven_coupon_3d(exact, "cva") == pytest.approx(
        octant_coupon(drivers, terms, rec_s, 0.0, "cva"), rel=1e-9, abs=0.0)


def _engine_grid(buyer_apart, contract, maturity):
    """prepare_pricing's grid on the default basis and quadrature."""
    _, spec, basis = buyer_apart
    drivers, terms, rec_s, rec_b, quadrature = contract
    return cds3d.prepare_pricing(
        basis, cds3d.transform_3d(spec, *drivers),
        replace(terms, maturity=maturity), rec_s, rec_b, **quadrature)


# cva_3d against the reference on the default basis and quadrature: the
# measured gaps of the cases the engine misses by more than 1 %
_MISSES = {
    (0.8, 1.0): "-3.36 %",
    (0.98, 1.0): "-18.6 %",
    (0.98, 5.0): "+4.6 %",
}


@pytest.mark.parametrize("maturity", [1.0, 5.0])
def test_engine_cva_within_one_percent(buyer_apart, contract, maturity,
                                       request):
    rho_xy = buyer_apart[0]
    gap = _MISSES.get((rho_xy, maturity))
    if gap is not None:
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="the default basis misses the exact CVA "
            "of (%g, 0, 0) at %g y by %s" % (rho_xy, maturity, gap)))
    drivers, terms, rec_s, *_ = contract
    grid = _engine_grid(buyer_apart, contract, maturity)
    want = cds3d.cva_3d(buyer_independent_grid(drivers, rho_xy, grid.terms,
                                               rec_s), grid.terms.coupon)
    assert cds3d.cva_3d(grid, grid.terms.coupon) == pytest.approx(
        want, rel=1e-2, abs=0.0)


# the engine's CVA-only coupon against the exact one: the measured gaps
# of the cases the engine misses by more than 0.5 bp
_COUPON_MISSES = {
    (0.98, 1.0): "+1.07 bp",
    (0.98, 5.0): "-4.86 bp",
}


@pytest.mark.parametrize("maturity", [1.0, 5.0])
def test_engine_cva_only_coupon_within_half_a_bp(buyer_apart, contract,
                                                 maturity, request):
    # (0.8, 0, 0) at 1 y holds its coupon to +0.36 bp while its CVA is
    # 3.36 % off
    rho_xy = buyer_apart[0]
    gap = _COUPON_MISSES.get((rho_xy, maturity))
    if gap is not None:
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="the default basis misses the exact "
            "CVA-only coupon of (%g, 0, 0) at %g y by %s"
            % (rho_xy, maturity, gap)))
    drivers, terms, rec_s, *_ = contract
    grid = _engine_grid(buyer_apart, contract, maturity)
    want = cds3d.breakeven_coupon_3d(
        buyer_independent_grid(drivers, rho_xy, grid.terms, rec_s), "cva")
    assert cds3d.breakeven_coupon_3d(grid, "cva") == pytest.approx(
        want, rel=0.0, abs=0.5e-4)
