"""Release gate: one test per shipping criterion, run with -v for the
one-line pass/fail report."""

import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from tricva.model import CorrelationTriple, CdsTerms
from tricva import cds2d, cds3d, domain3d, fem, mc_oracle
from tricva.cds1d import (annuity_1d, breakeven_coupon_1d, survival_1d)
from tricva.cds2d import (cva_2d, green_2d_eigen, green_2d_images,
                          survival_2d, survival_2d_1f1, to_wedge)
from tricva.specfun import gauss_legendre

X0 = 1.4713114754098361
Y0 = 2.9043062200956938
Z0 = 1.9031746031746032
TERMS = CdsTerms(coupon=0.02, rate=0.02, recovery=0.4, maturity=5.0)
REC_SELLER = 0.50
REC_BUYER = 0.40


def _build(rho, n_points, n_modes=160):
    spec = domain3d.build_domain(CorrelationTriple(*rho))
    mesh = domain3d.build_mesh(spec, n_points=n_points, seed=0)
    return spec, fem.build_basis(mesh, n_modes=n_modes)


@pytest.fixture(scope="module")
def basis_buyer_heavy():
    """Strong buyer-side correlations (0.2, 0.3, 0.8)."""
    return _build((0.2, 0.3, 0.8), 1500)


def test_criterion_1_octant_eigenvalues():
    start = time.monotonic()
    spec = domain3d.build_domain(CorrelationTriple(0.0, 0.0, 0.0))
    mesh = domain3d.build_mesh(spec, n_points=1500, seed=0)
    basis = fem.build_basis(mesh, n_modes=3)
    elapsed = time.monotonic() - start
    lam2 = basis.lam2
    assert 11.8 <= lam2[0] <= 12.6
    assert 29.5 <= lam2[1] <= 31.5
    assert 29.5 <= lam2[2] <= 31.5
    assert abs(lam2[1] - lam2[2]) <= 0.5
    assert elapsed <= 120.0


def test_criterion_2_correlated_domain_eigenvalues(basis_pos_moderate,
                                                   basis_mixed_neg):
    _, basis = basis_pos_moderate
    assert basis.lam2[0] == pytest.approx(5.2, rel=0.05)
    _, basis = basis_mixed_neg
    assert basis.lam2[0] == pytest.approx(21.5, rel=0.05)


def test_criterion_3_one_dimensional_closed_forms():
    for tau in (0.25, 1.0, 5.0, 10.0):
        nodes, weights = gauss_legendre(2000, 0.0, tau)
        for y0 in (0.1, 1.0, Y0, 5.0):
            surv = np.vectorize(survival_1d)(nodes, y0)
            for rate in (0.0, 0.05, 0.1):
                quad = float(np.sum(weights * np.exp(-rate * nodes)
                                    * surv))
                assert abs(annuity_1d(tau, y0, rate) - quad) < 1e-8
    k = survival_1d(1.0, 1.0)
    # closed form is 2 Phi(1) - 1; the display constant is its 7-digit
    # rounding, so it carries half-ulp slack at the 8th digit
    assert abs(k - 0.6826894921370859) < 1e-9
    assert abs(k - 0.6826895) < 1e-8


def test_criterion_4_two_dimensional_dual_representations():
    for rho in (-0.75, 0.0, 0.5):
        wedge = to_wedge(1.0, 1.2, rho)
        for tau in (0.4, 1.0, 3.0):
            for r in (0.5, 1.4, 2.8):
                for frac in (0.25, 0.6, 0.9):
                    phi = frac * wedge.varpi
                    ge = green_2d_eigen(tau, r, phi, wedge)
                    gi = green_2d_images(tau, r, phi, wedge)
                    assert abs(ge - gi) < 1e-6
        for tau in (0.5, 1.0, 2.0, 5.0):
            a = survival_2d(tau, wedge)
            b = survival_2d_1f1(tau, wedge)
            assert abs(a - b) < 1e-8


def test_criterion_5_zero_correlation_factorization(octant_basis):
    for x, y in ((1.0, 1.0), (0.7, 2.0), (X0, Y0)):
        for tau in (0.5, 1.0, 4.0):
            joint = survival_2d(tau, to_wedge(x, y, 0.0))
            product = survival_1d(tau, x) * survival_1d(tau, y)
            assert abs(joint - product) < 1e-6
    spec, basis = octant_basis
    source = cds3d.transform_3d(spec, X0, Y0, Z0)
    joint = cds3d.survival_3d(fem.truncate_basis(basis, 50), 5.0, source)
    product = (survival_1d(5.0, X0) * survival_1d(5.0, Y0)
               * survival_1d(5.0, Z0))
    assert joint == pytest.approx(product, rel=0.01)


def test_criterion_6_monte_carlo_cross_validation(octant_basis,
                                                  basis_table1,
                                                  basis_mixed_neg):
    cases = {(0.0, 0.0, 0.0): octant_basis,
             (0.8, 0.5, 0.3): basis_table1,
             (0.2, -0.1, -0.6): basis_mixed_neg}
    tau = TERMS.maturity
    start = time.monotonic()
    for rho, (spec, basis) in cases.items():
        source = cds3d.transform_3d(spec, X0, Y0, Z0)
        grid = cds3d.prepare_pricing(basis, source, TERMS, REC_SELLER,
                                     REC_BUYER)
        model = {
            "survival_2d": survival_2d(tau, to_wedge(X0, Y0, rho[0])),
            "survival_3d": cds3d.survival_3d(basis, tau, source),
            "cva_3d": cds3d.cva_3d(grid, TERMS.coupon),
            "dva_3d": cds3d.dva_3d(grid, TERMS.coupon),
        }
        ladder = [mc_oracle.McConfig(n_paths=100_000, dt=tau / steps,
                                     seed=29, antithetic=True)
                  for steps in (200, 400)]
        coarse, fine = mc_oracle.simulate_contract(
            (X0, Y0, Z0), rho, TERMS, ladder,
            recovery_seller=REC_SELLER, recovery_buyer=REC_BUYER)
        for name, value in model.items():
            est = mc_oracle.richardson(fine[name], coarse[name])
            gap = abs(value - est.mean)
            assert gap <= 3.0 * est.std_error, (
                "%s at rho=%s: model %.6f vs MC %.6f +- %.6f"
                % (name, rho, value, est.mean, est.std_error))
    assert time.monotonic() - start <= 900.0


def test_criterion_7_breakeven_coupon_orderings(octant_basis,
                                                basis_table1,
                                                basis_mixed_neg,
                                                basis_buyer_heavy):
    def becs(bundle, maturity=5.0):
        spec, basis = bundle
        source = cds3d.transform_3d(spec, X0, Y0, Z0)
        terms = CdsTerms(coupon=TERMS.coupon, rate=TERMS.rate,
                         recovery=TERMS.recovery, maturity=maturity)
        grid = cds3d.prepare_pricing(basis, source, terms, REC_SELLER,
                                     REC_BUYER)
        return {adj: cds3d.breakeven_coupon_3d(grid, adj)
                for adj in ("none", "cva", "dva", "bilateral")}

    # (a) uncorrelated: seller risk cheapens the coupon, buyer risk
    # raises it, and the bilateral spread lands between the two
    ours = becs(octant_basis)
    assert ours["cva"] < ours["none"] < ours["dva"]
    assert ours["cva"] < ours["bilateral"] < ours["dva"]

    # (b) strong seller-reference correlation: large negative impact
    table1 = becs(basis_table1)
    drop_b = table1["none"] - table1["cva"]
    assert table1["cva"] < table1["none"]
    assert drop_b > 0.10 * table1["none"]

    # (c) buyer-heavy correlations leave the DVA impact insignificant
    buyer = becs(basis_buyer_heavy)
    lift_c = abs(buyer["dva"] - buyer["none"])
    assert lift_c < 0.10 * drop_b

    # (d) negative reference-buyer correlation: the buyer tends to
    # default precisely when the reference survives, leaving the seller
    # with an uncollected coupon stream, so of all the correlation
    # scenarios studied this is the one where the DVA adjustment on the
    # coupon is largest
    mixed = becs(basis_mixed_neg)
    lift_d = mixed["dva"] - mixed["none"]
    assert lift_d > 0
    for other in (ours, table1, buyer):
        assert lift_d > other["dva"] - other["none"]
    # coupons collapse hyper-exponentially at short maturity: each
    # halving of the horizon cuts the coupon by a larger factor than
    # the previous halving did (checked on the reference-name closed
    # form; the eigenexpansion legs carry truncation noise far above
    # the sub-1e-8 coupon scale this regime reaches)
    b1 = breakeven_coupon_1d(1.0, Y0, TERMS.rate, TERMS.recovery)
    b05 = breakeven_coupon_1d(0.5, Y0, TERMS.rate, TERMS.recovery)
    b025 = breakeven_coupon_1d(0.25, Y0, TERMS.rate, TERMS.recovery)
    assert b05 < 0.05 * b1
    assert b025 < 0.05 * b05
    assert b025 / b05 < b05 / b1
    assert b025 < 1e-6


def test_criterion_8_dimensional_reduction_far_buyer():
    spec, basis = _build((0.8, 0.0, 0.0), 1500)
    source = cds3d.transform_3d(spec, X0, Y0, 1e3)
    three_d = cds3d.cva_3d(cds3d.prepare_pricing(basis, source, TERMS,
                                                 REC_SELLER, REC_BUYER),
                           TERMS.coupon)
    two_d = cva_2d(to_wedge(X0, Y0, 0.8), TERMS, REC_SELLER)
    assert three_d == pytest.approx(two_d, rel=0.01), (
        "cva_3d %.6f vs cva_2d %.6f at z0=1e3: the angular eigenbasis "
        "cannot resolve a source this close to the polar cap"
        % (three_d, two_d))


def test_criterion_9_property_suites_present():
    here = Path(__file__).parent
    suites = {"test_specfun.py", "test_model.py", "test_cds1d.py",
              "test_cds2d.py", "test_domain3d.py", "test_fem.py",
              "test_cds3d.py", "test_mc.py", "test_cli.py"}
    for name in suites:
        text = (here / name).read_text()
        count = len(re.findall(r"\n    def test_|\ndef test_", text))
        assert count >= 8, "%s has too few checks" % name
