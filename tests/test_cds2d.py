"""Wedge-domain density and survival checks.

Frozen references: mpmath, 25 digits. The f/h kernel values come from
adaptive quadrature of the diffraction integral; the survival references
from the hypergeometric series summed in arbitrary precision; the density
reference doubles as a cross-check of the rho = 0 product factorization.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricva import cds1d, cds2d
from tricva.model import CdsTerms
from tricva.specfun import (IVE_TABLE_RTOL, IveTable, bessel_i_scaled,
                            order_cutoff)

F_REFERENCES = [
    (1.0, math.pi / 2, 0.860321682407031),
    (1.0, 0.7, 0.523165447475722),
    (0.3, 2.0, 0.704788319131039),
    (5.0, 1.0, 0.969449437423197),
    (2.0, math.pi, 0.996994841529909),
    (1.0, 4.0, 0.96657621250474),
]

H_REFERENCES = [
    (1.0, 0.7, 0.96136996083158),
    (1.0, 2.5, 0.69167554937531),
    (0.5, -1.2, 0.844817288410147),
    (3.0, 3.5, 0.23832356792691),
]

SURVIVAL_REFERENCES = [
    # tau, x0, y0, rho, value
    (1.0, 1.0, 1.0, 0.0, 0.46606494267439227),
    (1.0, 1.0, 1.0, 0.5, 0.53225603325665892),
    (2.0, 1.5, 0.8, -0.75, 0.21005672977115344),
    (5.0, 1.4713, 2.9043, 0.8, 0.47782554664273415),
]


def test_to_wedge_uncorrelated():
    w = cds2d.to_wedge(1.0, 1.0, 0.0)
    assert math.isclose(w.r0, 1.414213562373095, rel_tol=1e-14)
    assert math.isclose(w.phi0, 0.78539816339744831, rel_tol=1e-14)
    assert math.isclose(w.varpi, 1.5707963267948966, rel_tol=1e-14)


def test_to_wedge_edges_map_to_faces():
    # reference near its barrier: angle near 0; seller near its barrier:
    # angle near the opening varpi
    for rho in (-0.6, 0.0, 0.7):
        w = cds2d.to_wedge(1.0, 1e-9, rho)
        assert w.phi0 < 1e-8
        w = cds2d.to_wedge(1e-9, 1.0, rho)
        assert w.varpi - w.phi0 < 1e-8


@settings(max_examples=150)
@given(st.floats(0.05, 6.0), st.floats(0.05, 6.0), st.floats(-0.95, 0.95))
def test_to_wedge_always_interior(x0, y0, rho):
    w = cds2d.to_wedge(x0, y0, rho)
    assert 0.0 < w.phi0 < w.varpi
    assert w.r0 > 0
    # r0 also has a closed form straight from the quadratic form
    want = math.sqrt(x0 * x0 - 2 * rho * x0 * y0 + y0 * y0) / w.rho_bar
    assert math.isclose(w.r0, want, rel_tol=1e-12)


def test_to_wedge_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cds2d.to_wedge(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        cds2d.to_wedge(1.0, 1.0, 1.0)


@pytest.mark.parametrize("x0, y0", [(1e-20, 1.0), (1.0, 1e-20),
                                    (1e-16, 1.0)])
def test_to_wedge_refuses_a_source_on_an_edge(x0, y0):
    # one distance below about 1e-16 of the other rounds phi0 onto an
    # absorbing edge: a ValueError, not an assertion that python -O strips
    with pytest.raises(ValueError, match="edge"):
        cds2d.to_wedge(x0, y0, 0.5)


@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_to_wedge_rejects_non_finite_distances(slot, bad):
    # a ValueError, not an assertion that python -O strips
    distances = [1.0, 2.0]
    distances[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        cds2d.to_wedge(*distances, 0.3)


@pytest.mark.parametrize("p,q,want", F_REFERENCES)
def test_f_kernel_references(p, q, want):
    assert abs(cds2d._f_wedge(p, q) - want) < 1e-12


@pytest.mark.parametrize("p,q,want", H_REFERENCES)
def test_h_kernel_references(p, q, want):
    assert abs(cds2d.h_kernel(p, q) - want) < 1e-12


def test_h_kernel_limits():
    # f vanishes at p = 0 and q = 0; h approaches the free kernel weight 1
    # inside |q| < pi as p grows
    assert cds2d._f_wedge(0.0, 1.0) == 0.0
    assert cds2d._f_wedge(1.0, 0.0) == 0.0
    assert abs(cds2d.h_kernel(4000.0, 0.3) - 1.0) < 1e-6
    # far outside the physical sheet the kernel dies exponentially except at
    # full turns, where it only decays like 1/sqrt(p)
    assert abs(cds2d.h_kernel(2000.0, 2.5 * math.pi)) < 1e-8
    assert abs(cds2d.h_kernel(2000.0, 3.0 * math.pi)) < 1e-3


@settings(max_examples=80)
@given(st.floats(0.01, 50.0), st.floats(-6.0, 6.0))
def test_h_kernel_even_and_bounded(p, q):
    a = cds2d.h_kernel(p, q)
    b = cds2d.h_kernel(p, -q)
    assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    assert -1e-9 <= a <= 1.0 + 1e-9


def test_green_eigen_reference_point():
    w = cds2d.to_wedge(1.0, 1.0, 0.0)
    got = cds2d.green_2d_eigen(1.0, 1.3, 1.1, w)
    assert abs(got - 0.090192859282280277) < 1e-10


def test_green_eigen_factorizes_at_zero_correlation():
    # independent drivers: wedge density = product of two barrier densities
    w = cds2d.to_wedge(1.0, 1.4, 0.0)
    for (x, y) in [(0.5, 0.5), (1.2, 0.7), (2.0, 2.5)]:
        tau = 0.8
        r = math.hypot(x, y)
        # chart angle: phi = varpi + atan2(-x, y) at rho = 0
        phi = w.varpi + math.atan2(-x, y)
        want = (cds1d.green_1d_images(tau, 1.0, x)
                * cds1d.green_1d_images(tau, 1.4, y))
        got = cds2d.green_2d_eigen(tau, r, phi, w)
        assert math.isclose(got, want, rel_tol=1e-9)


def test_green_eigen_default_series_converged_at_small_argument():
    # z = r r0 / tau = 0.5 on a strongly correlated wedge: the order cut
    # must hold the default sum to a 300-term one (a 5 + 3z cut left
    # 1e-8 relative)
    w = cds2d.to_wedge(1.0, 1.0, 0.95)
    r = 0.5 / w.r0
    phi = 0.1 * w.varpi
    full = cds2d.green_2d_eigen(1.0, r, phi, w, n_terms=300)
    got = cds2d.green_2d_eigen(1.0, r, phi, w)
    assert math.isclose(got, full, rel_tol=1e-13)


def test_green_vanishes_on_edges():
    w = cds2d.to_wedge(1.0, 1.2, 0.3)
    r = np.linspace(0.2, 4.0, 7)
    assert np.max(np.abs(cds2d.green_2d_eigen(1.0, r, 0.0, w))) < 1e-14
    assert np.max(np.abs(cds2d.green_2d_eigen(1.0, r, w.varpi, w))) < 1e-12


def test_green_routes_agree_on_acceptance_grid():
    # eigenfunction vs reflected-source representations, three correlations
    worst = 0.0
    for rho in (-0.75, 0.0, 0.5):
        w = cds2d.to_wedge(1.0, 1.0, rho)
        for tau in (0.25, 1.0, 5.0):
            for r in (0.3, 1.0, 2.0, 4.0):
                for phi in np.linspace(0.15, w.varpi - 0.15, 4):
                    ge = cds2d.green_2d_eigen(tau, r, float(phi), w)
                    gi = cds2d.green_2d_images(tau, r, float(phi), w)
                    worst = max(worst, abs(ge - gi))
    assert worst < 1e-6


@pytest.mark.parametrize("tau,x0,y0,rho,want", SURVIVAL_REFERENCES)
def test_survival_references_both_routes(tau, x0, y0, rho, want):
    w = cds2d.to_wedge(x0, y0, rho)
    assert abs(cds2d.survival_2d(tau, w) - want) < 1e-10
    assert abs(cds2d.survival_2d_1f1(tau, w) - want) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 8.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
       st.floats(-0.9, 0.9))
def test_survival_routes_agree(tau, x0, y0, rho):
    w = cds2d.to_wedge(x0, y0, rho)
    a = cds2d.survival_2d(tau, w)
    b = cds2d.survival_2d_1f1(tau, w)
    assert abs(a - b) < 1e-8
    assert -1e-12 <= a <= 1.0 + 1e-12


def test_survival_past_the_old_term_cap():
    # a near-comonotone pair far from its barriers at a short horizon
    # needs 666 terms; a sum cut at 500 warned and, at the second
    # input, read 1 + 3.2e-13
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = cds2d.survival_2d(0.013567,
                              cds2d.to_wedge(5.4083, 1.5471, 0.97699))
        q_near = cds2d.survival_2d(
            0.013567050981374977,
            cds2d.to_wedge(5.408251610157345, 1.5471445483504207,
                           0.9769878094726396))
    assert 1.0 - 1e-15 <= q <= 1.0
    assert 1.0 - 1e-15 <= q_near <= 1.0 + 1e-15


def test_survival_independence_factorization():
    w = cds2d.to_wedge(0.9, 1.7, 0.0)
    want = cds1d.survival_1d(2.0, 0.9) * cds1d.survival_1d(2.0, 1.7)
    assert abs(cds2d.survival_2d(2.0, w) - want) < 1e-10


def test_survival_bounded_by_single_names():
    # joint survival cannot beat either marginal
    for rho in (-0.5, 0.0, 0.5):
        w = cds2d.to_wedge(1.2, 0.8, rho)
        q = cds2d.survival_2d(3.0, w)
        assert q <= cds1d.survival_1d(3.0, 1.2) + 1e-12
        assert q <= cds1d.survival_1d(3.0, 0.8) + 1e-12


def test_survival_increases_with_correlation():
    # comonotone defaults overlap, so joint survival rises with rho
    vals = [cds2d.survival_2d(2.0, cds2d.to_wedge(1.0, 1.0, rho))
            for rho in (-0.8, -0.4, 0.0, 0.4, 0.8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_green_integrates_to_survival():
    # quadrature of the eigen density over the wedge vs the survival series
    w = cds2d.to_wedge(1.0, 1.3, 0.4)
    tau = 0.9
    from tricva.specfun import gauss_legendre
    r, wr = gauss_legendre(400, 1e-6, w.r0 + 8.0 * math.sqrt(tau))
    phi, wp = gauss_legendre(200, 0.0, w.varpi)
    g = cds2d.green_2d_eigen(tau, r[:, None], phi[None, :], w)
    q = float(np.einsum("i,j,ij->", wr, wp, g * r[:, None]))
    assert math.isclose(q, cds2d.survival_2d(tau, w), rel_tol=1e-9)


def _five_year_terms():
    c = cds1d.breakeven_coupon_1d(5.0, 2.9043, 0.02, 0.4)
    return CdsTerms(maturity=5.0, coupon=c, rate=0.02, recovery=0.4)


def test_cva_positive_and_monotone_in_correlation():
    terms = _five_year_terms()
    vals = []
    for rho in (-0.5, 0.0, 0.5, 0.8):
        w = cds2d.to_wedge(1.4713, 2.9043, rho)
        vals.append(cds2d.cva_2d(w, terms, recovery_seller=0.5))
    assert all(v > 0 for v in vals)
    # seller failing together with a deteriorating reference raises the charge
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_cva_vanishes_for_safe_seller():
    terms = _five_year_terms()
    w = cds2d.to_wedge(40.0, 2.9043, 0.3)
    assert cds2d.cva_2d(w, terms, recovery_seller=0.5) < 1e-12


def test_cva_scales_with_seller_loss():
    terms = _five_year_terms()
    w = cds2d.to_wedge(1.4713, 2.9043, 0.5)
    full = cds2d.cva_2d(w, terms, recovery_seller=0.0)
    half = cds2d.cva_2d(w, terms, recovery_seller=0.5)
    assert math.isclose(half, 0.5 * full, rel_tol=1e-12)


def test_cva_quadrature_converged():
    terms = _five_year_terms()
    w = cds2d.to_wedge(1.4713, 2.9043, 0.5)
    base = cds2d.cva_2d(w, terms, recovery_seller=0.5)
    fine = cds2d.cva_2d(w, terms, recovery_seller=0.5, n_time=96,
                        n_radial=300)
    assert math.isclose(base, fine, rel_tol=5e-6)


def test_exposure_roots_match_scalar_brentq():
    # the vectorised bisection against one brentq per time left; the
    # value changes sign across each root, and a still-positive value at
    # the top returns it
    from scipy.optimize import brentq
    terms = _five_year_terms()
    tau_left = np.array([1e-4, 0.01, 0.3, 1.0, 2.5, 4.99])
    y_hi = 12.0
    roots = cds2d.exposure_root(tau_left, terms, y_hi)
    for tau, root in zip(tau_left, roots):
        want = brentq(lambda y: cds1d.cds_values_1d(tau, y, terms),
                      1e-12 * y_hi, y_hi, xtol=1e-15, rtol=1e-15)
        assert root == pytest.approx(want, rel=1e-14)
        assert cds1d.cds_values_1d(tau, root * (1 - 1e-13), terms) > 0
        assert cds1d.cds_values_1d(tau, root * (1 + 1e-13), terms) < 0
    assert cds2d.exposure_root(2.0, terms, 0.5) == 0.5
    free = CdsTerms(maturity=5.0, coupon=0.0, rate=0.02, recovery=0.4)
    assert np.all(cds2d.exposure_root(tau_left, free, y_hi) == y_hi)


def test_series_cap_warns():
    w = cds2d.to_wedge(1.0, 1.0, 0.0)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        cds2d.green_2d_eigen(1e-9, 1.414, 0.5, w)
    assert any("order cap" in str(m.message) for m in rec)


def test_quadrature_asks_only_its_table(monkeypatch):
    # one cva_2d quadrature evaluates the edge flux of all its time nodes
    # from one Bessel table: one library call, for the table's nodes and
    # the cells of the orders it asks directly
    w = cds2d.to_wedge(1.5, 2.9, 0.8)
    asked, tables = [], []

    def counting(nu, x):
        asked.append(np.broadcast(nu, x).size)
        return bessel_i_scaled(nu, x)

    class Recording(IveTable):
        def __init__(self, nu, z, pref):
            super().__init__(nu, z, pref)
            self.n_cells = self.n_live.sum()
            tables.append(self)

    monkeypatch.setattr(cds2d, "bessel_i_scaled", counting)
    monkeypatch.setattr(cds2d, "IveTable", Recording)
    cds2d.cva_2d(w, _five_year_terms(), recovery_seller=0.5)
    assert len(tables) == len(asked) == 1
    assert asked[0] == len(tables[0].asks[0]) < tables[0].n_cells / 20
    # t = 0.0017, 0.0092 and 0.0225, under the seller's first-passage
    # bound, are skipped; with them the orders ran to about 735
    assert tables[0].asks[0].max() < 190.0


def _edge_flux_full(t, r, w):
    # every (radius, order) cell of the edge-flux grid, and the pieces
    # of the skipped-cell bound
    z = r * w.r0 / t
    n_terms = int(math.ceil(order_cutoff(z.max()) * w.varpi
                            / math.pi)) + 1
    n = np.arange(1, n_terms + 1)
    nu = n * math.pi / w.varpi
    coef = nu * np.where(n % 2 == 0, 1.0, -1.0) * np.sin(nu * w.phi0)
    pref = (2.0 / (w.varpi * t)) * np.exp(-0.5 * (r - w.r0) ** 2 / t)
    bess = bessel_i_scaled(nu, z[:, None])
    return pref * (bess * coef).sum(axis=1), pref, z, nu, coef, bess


def test_edge_flux_skips_dead_cells_within_bound(monkeypatch):
    w = cds2d.to_wedge(1.5, 2.9, 0.8)
    asked = []

    def counting(nu, x):
        asked.append(np.broadcast(nu, x).size)
        return bessel_i_scaled(nu, x)

    monkeypatch.setattr(cds2d, "bessel_i_scaled", counting)
    r = np.linspace(1e-3, 12.0, 200)
    for t in (0.1, 0.5, 4.0):
        asked.clear()
        got = cds2d._edge_flux_coefficients(t, r, w)
        full, pref, z, nu, coef, bess = _edge_flux_full(t, r, w)
        assert sum(asked) < 0.7 * bess.size
        diff = np.abs(got - full)
        # round-off of the row's sum, at the Bessel table's bound per cell
        round_off = IVE_TABLE_RTOL * pref * np.abs(bess * coef).sum(axis=1)
        assert diff.max() <= 1e-12 * np.abs(full).max() + round_off.max()
        # the stated bound: pref sum |coef| on a dead row, and
        # pref ive(nu_c, z) sum_(n > c) |coef_n| past the last kept order
        # nu_c; round-off comes on top
        kept = IveTable(nu, z, pref).n_live
        tail = np.append(np.cumsum(np.abs(coef)[::-1])[::-1], 0.0)[kept]
        ive_c = np.where(kept > 0,
                         bess[np.arange(len(r)), np.maximum(kept - 1, 0)],
                         1.0)
        bound = pref * ive_c * tail
        assert np.all(diff <= bound + round_off)
