"""Three-name legs and break-even coupons on the octant against their
exact values.

On the octant the three drivers are independent, so each leg's
integrand at time t factors into one-name pieces. The CVA node is the
seller's first-passage density f_x(t) = x e^(-x^2/2t) / sqrt(2 pi t^3),
times the buyer's survival erf(z / sqrt(2t)), times the discounted
reference exposure E[V+(T - t, y_t); y alive]: the reference's image
density integrated against V+ below the exposure root. The DVA node
swaps seller and buyer and takes -V- above the root. Nothing here reads
the eigenbasis: the reference is 1D quadrature on the closed-form CDS
values, and an exact coupon a tight brentq on those legs.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import erf

from tricva import cds1d, cds3d, cli
from tricva.cds1d import cds_values_1d
from tricva.cds2d import exposure_root
from tricva.specfun import gauss_legendre

# the reference's image density is taken over y0 +- _SPAN sqrt(t)
_SPAN = 12.0


def _reference_exposure(t, y0, terms, side, n_space):
    """E[side V (T - t, y_t) clipped at 0; y alive at t] at each t.

    The positive part kinks at the exposure root, so the CVA's nodes
    (side +1) stop at it from below and the DVA's (side -1) start there.
    """
    tau = terms.maturity - t
    lo = np.maximum(0.0, y0 - _SPAN * np.sqrt(t))
    hi = y0 + _SPAN * np.sqrt(t)
    root = exposure_root(tau, terms, float(hi.max()))
    a, b = (lo, np.minimum(root, hi)) if side > 0 \
        else (np.maximum(root, lo), hi)
    b = np.maximum(a, b)
    y, w = gauss_legendre(n_space, a[:, None], b[:, None])
    st = np.sqrt(t)[:, None]
    density = (np.exp(-0.5 * ((y - y0) / st) ** 2)
               - np.exp(-0.5 * ((y + y0) / st) ** 2)) \
        / (math.sqrt(2.0 * math.pi) * st)
    value = side * cds_values_1d(tau[:, None], y, terms)
    return np.sum(w * density * np.maximum(value, 0.0), axis=1)


def octant_legs(drivers, terms, recovery_seller, recovery_buyer,
                n_time=128, n_space=128):
    """Exact CVA and DVA, both >= 0, of independent drivers at
    (seller, reference, buyer) distances drivers, on n_time
    Gauss-Legendre nodes in time and n_space in the reference."""
    x0, y0, z0 = drivers
    t, w = gauss_legendre(n_time, 0.0, terms.maturity)
    w = w * np.exp(-terms.rate * t)

    def node(defaulter, survivor):
        return (w * defaulter * np.exp(-defaulter ** 2 / (2.0 * t))
                / np.sqrt(2.0 * math.pi * t ** 3)
                * erf(survivor / np.sqrt(2.0 * t)))

    cva = node(x0, z0) @ _reference_exposure(t, y0, terms, 1.0, n_space)
    dva = node(z0, x0) @ _reference_exposure(t, y0, terms, -1.0, n_space)
    return (1.0 - recovery_seller) * cva, (1.0 - recovery_buyer) * dva


def octant_coupon(drivers, terms, recovery_seller, recovery_buyer, adjust):
    """Exact break-even coupon with the CVA ("cva") or both legs
    ("bilateral") of octant_legs: a tight brentq on the adjusted value
    d0 - c a0 - cva(c) [+ dva(c)], d0 and a0 the reference's 1D legs."""
    d0, a0 = cds1d._legs_1d(terms.maturity, drivers[1], terms.rate,
                            terms.recovery)

    def adjusted(coupon):
        cva, dva = octant_legs(drivers, replace(terms, coupon=coupon),
                               recovery_seller, recovery_buyer)
        return d0 - coupon * a0 - cva + (dva if adjust == "bilateral"
                                         else 0.0)

    return brentq(adjusted, 0.5 * d0 / a0, 2.0 * d0 / a0, xtol=1e-15,
                  rtol=1e-15)


@pytest.fixture(scope="module")
def contract():
    """The CLI's default drivers, terms and recoveries."""
    cfg = cli.load_config()
    return (cfg.drivers, cfg.terms, cfg.firms["X"].recovery,
            cfg.firms["Z"].recovery, cfg.quadrature)


@pytest.mark.parametrize("maturity", [1.0, 5.0])
def test_reference_agrees_with_itself_under_node_doubling(contract,
                                                         maturity):
    drivers, terms, rec_s, rec_b, _ = contract
    terms = replace(terms, maturity=maturity)
    base = octant_legs(drivers, terms, rec_s, rec_b)
    fine = octant_legs(drivers, terms, rec_s, rec_b, 256, 256)
    assert base[0] > 0.0 and base[1] > 0.0
    assert base == pytest.approx(fine, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("maturity", [
    pytest.param(1.0, marks=pytest.mark.xfail(
        strict=True, reason="short-time error of the default basis: at "
        "1 y the CVA reads -1.27 % and the DVA -2.70 % off exact")),
    2.0, 3.0, 4.0, 5.0])
def test_engine_legs_within_one_percent(octant_basis, contract, maturity):
    # cva_3d and dva_3d on the default 1500-point, 160-mode basis and the
    # default 48 x 200 quadrature
    spec, basis = octant_basis
    drivers, terms, rec_s, rec_b, quadrature = contract
    terms = replace(terms, maturity=maturity)
    grid = cds3d.prepare_pricing(basis, cds3d.transform_3d(spec, *drivers),
                                 terms, rec_s, rec_b, **quadrature)
    got = (cds3d.cva_3d(grid, terms.coupon), cds3d.dva_3d(grid, terms.coupon))
    want = octant_legs(drivers, terms, rec_s, rec_b)
    assert got == pytest.approx(want, rel=1e-2, abs=0.0)


@pytest.mark.parametrize("maturity", [1.0, 2.0, 3.0, 4.0, 5.0])
def test_engine_coupons_within_a_tenth_of_a_bp(octant_basis, contract,
                                               maturity):
    # the CVA-only and bilateral coupons on the default basis and
    # quadrature; 1 y holds although its legs are -1.27 % and -2.70 % off
    spec, basis = octant_basis
    drivers, terms, rec_s, rec_b, quadrature = contract
    terms = replace(terms, maturity=maturity)
    grid = cds3d.prepare_pricing(basis, cds3d.transform_3d(spec, *drivers),
                                 terms, rec_s, rec_b, **quadrature)
    for adjust in ("cva", "bilateral"):
        assert cds3d.breakeven_coupon_3d(grid, adjust) == pytest.approx(
            octant_coupon(drivers, terms, rec_s, rec_b, adjust), rel=0.0,
            abs=0.1e-4), adjust
