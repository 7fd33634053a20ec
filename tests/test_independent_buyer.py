"""The three-name CVA against its exact value when the buyer is
independent of seller and reference.

With rho_xz = rho_yz = 0 the CVA's integrand at time t factors: the
seller-reference wedge's CVA node, the flux through the seller's edge
against the discounted positive exposure, times the buyer's survival
erf(z / sqrt(2t)). The reference is the wedge's seller-edge cells
(cds2d._edge_flux_coefficients, the angular derivative of the eigen
series that criterion 4 holds to the image sum) with that factor on
each time node's weight, contracted by cds2d._leg_sum. It reads no
three-name eigenbasis. At rho_xy = 0 it is the octant's pure 1D route
(test_octant_legs.octant_legs).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

from tricva import cds2d, cds3d, cli, domain3d, fem
from tricva.model import CorrelationTriple
from tricva.specfun import gauss_legendre
from test_octant_legs import octant_legs


def buyer_independent_cva(drivers, rho_xy, terms, recovery_seller,
                          n_time=64, n_radial=200):
    """Exact CVA, >= 0, of drivers at (seller, reference, buyer)
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
    cells = cds2d._leg_cells(node_w[:, None] * r_w * flux / r,
                             (T - t)[:, None], wedge.rho_bar * r,
                             terms.rate, terms.recovery)
    return (1.0 - recovery_seller) * cds2d._leg_sum(cells, terms.coupon,
                                                    1.0)[0]


@pytest.fixture(scope="module")
def contract():
    """The CLI's default drivers, terms, seller recovery and quadrature."""
    cfg = cli.load_config()
    return cfg.drivers, cfg.terms, cfg.firms["X"].recovery, cfg.quadrature


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
    drivers, terms, rec_s, _ = contract
    terms = replace(terms, maturity=maturity)
    base = buyer_independent_cva(drivers, rho_xy, terms, rec_s)
    fine = buyer_independent_cva(drivers, rho_xy, terms, rec_s, 128, 400)
    assert base > 0.0
    assert base == pytest.approx(fine, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("maturity", [1.0, 5.0])
def test_reference_is_the_octant_route_at_zero_correlation(contract,
                                                           maturity):
    # two independent routes to the octant's CVA: the wedge's flux
    # series, and the seller's first-passage density times the
    # reference's image density (7.49794446e-05 at 1 y)
    drivers, terms, rec_s, _ = contract
    terms = replace(terms, maturity=maturity)
    want = octant_legs(drivers, terms, rec_s, 0.0)[0]
    got = buyer_independent_cva(drivers, 0.0, terms, rec_s)
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)


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
    rho_xy, spec, basis = buyer_apart
    gap = _MISSES.get((rho_xy, maturity))
    if gap is not None:
        request.applymarker(pytest.mark.xfail(
            strict=True, reason="the default basis misses the exact CVA "
            "of (%g, 0, 0) at %g y by %s" % (rho_xy, maturity, gap)))
    drivers, terms, rec_s, quadrature = contract
    terms = replace(terms, maturity=maturity)
    grid = cds3d.prepare_pricing(basis, cds3d.transform_3d(spec, *drivers),
                                 terms, **quadrature)
    want = buyer_independent_cva(drivers, rho_xy, terms, rec_s)
    assert cds3d.cva_3d(grid, terms, rec_s) == pytest.approx(
        want, rel=1e-2, abs=0.0)
