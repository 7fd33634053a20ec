"""Single-name pricing vs frozen quadrature references and cross-routes.

Annuity and protection-leg references were computed with mpmath adaptive
quadrature of e^(-rate*s) Q(s) ds and of the discounted first-passage
density, both at 25 digits.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tricva import cds1d
from tricva.model import CdsTerms

ANNUITY_REFERENCES = [
    # tau, y0, rate, value
    (5.0, 2.9, 0.02, 4.4062303779164161),
    (1.0, 1.0, 0.0, 0.84932043331245849),
    (0.25, 0.1, 0.1, 0.069671028571088702),
    (10.0, 5.0, 0.1, 6.1482342517587943),
    (2.0, 0.5, 0.03, 0.8806853363633316),
]

# names near default, at and just above zero rate (where the closed form
# cancels) and at 0.02; mpmath quadrature of e^(-rate*s) Q(s) ds at 40
# digits
NEAR_DEFAULT_REFERENCES = [
    # tau, y0, rate, value
    (10.0, 0.1, 2e-9, 0.49471060125398452207),
    (10.0, 0.01, 9e-10, 0.050362734393391355033),
    (30.0, 0.05, 3e-10, 0.43452544061404082157),
    (1.0, 0.1, 1e-6, 0.14984268785240640114),
    (10.0, 0.1, 0.0, 0.4947106046165121906),
    (10.0, 0.1, 0.02, 0.46301079461756910544),
]

# names near default just above the series cut, rate tau ~ 1e-3, where
# the closed-form loss numerator cancels; mpmath quadrature of
# e^(-rate*s) Q(s) ds at 40 digits
ABOVE_CUT_REFERENCES = [
    # tau, y0, rate, value
    (10.0, 0.1, 1e-4, 0.4945425286687061989312802),
    (10.0, 0.01, 1e-4, 0.05034591879028606440505808),
    (30.0, 0.01, 3.4e-5, 0.08727421482850907260591695),
]


def test_survival_reference():
    assert abs(cds1d.survival_1d(1.0, 1.0) - 0.6826894921370859) < 1e-15


def test_survival_bounds_and_monotonicity():
    taus = np.linspace(0.1, 10, 25)
    q = cds1d.survival_1d(taus, 2.0)
    assert np.all((q > 0) & (q < 1))
    assert np.all(np.diff(q) < 0)  # longer horizon, more chances to default
    y = np.linspace(0.1, 6, 25)
    qy = cds1d.survival_1d(2.0, y)
    assert np.all(np.diff(qy) > 0)


def test_green_reference_both_routes():
    want = 0.34495131388824463  # (1 - e^-2)/sqrt(2 pi)
    assert math.isclose(cds1d.green_1d_images(1.0, 1.0, 1.0), want,
                        rel_tol=1e-14)
    assert math.isclose(cds1d.green_1d_integral(1.0, 1.0, 1.0), want,
                        rel_tol=1e-10)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.05, 8.0))
def test_green_routes_agree(tau, y0, y):
    a = cds1d.green_1d_images(tau, y0, y)
    b = cds1d.green_1d_integral(tau, y0, y)
    assert abs(a - b) < 1e-10


def test_green_absorbs_at_barrier():
    assert abs(cds1d.green_1d_images(0.7, 1.3, 0.0)) < 1e-300
    y = np.linspace(0.0, 10.0, 5)
    g = cds1d.green_1d_images(2.0, 0.5, y)
    assert np.all(g >= 0)


def test_green_integrates_to_survival():
    # integrate the density over y and compare with the closed form
    tau, y0 = 1.7, 1.2
    y = np.linspace(0, 40, 40001)
    g = cds1d.green_1d_images(tau, y0, y)
    q = np.trapezoid(g, y)
    assert math.isclose(q, cds1d.survival_1d(tau, y0), rel_tol=1e-7)


@pytest.mark.parametrize("tau,y0,rate,want", ANNUITY_REFERENCES)
def test_annuity_references(tau, y0, rate, want):
    assert abs(cds1d.annuity_1d(tau, y0, rate) - want) < 1e-12


@pytest.mark.parametrize("tau,y0,rate,want", NEAR_DEFAULT_REFERENCES)
def test_annuity_near_default_references(tau, y0, rate, want):
    assert cds1d.annuity_1d(tau, y0, rate) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("tau,y0,rate,want", ABOVE_CUT_REFERENCES)
def test_annuity_above_series_cut_references(tau, y0, rate, want):
    assert rate * tau >= cds1d._SERIES_RATE_TAU
    assert cds1d.annuity_1d(tau, y0, rate) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("tau,y0,rate,want", ABOVE_CUT_REFERENCES)
def test_annuity_above_series_cut_matches_mpmath(tau, y0, rate, want):
    # the same three names against live 40-digit quadrature
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        tau_m, y0_m, rate_m = mp.mpf(tau), mp.mpf(y0), mp.mpf(rate)
        cuts = [tau_m * mp.mpf(10) ** k for k in range(-12, 1)]
        ref = mp.quad(lambda u: mp.exp(-rate_m * u)
                      * mp.erf(y0_m / mp.sqrt(2 * u)), [0] + cuts)
        got = mp.mpf(cds1d.annuity_1d(tau, y0, rate))
        assert abs(got / ref - 1) < 1e-14


def test_annuity_branches_chosen_per_element():
    # one call mixing the moment series, the Gaussian series and the
    # closed form gives each element what its own scalar call gives
    taus = np.array([0.01, 0.04, 0.06, 1.0, 5.0, 10.0])
    ys = np.array([0.001, 0.01, 0.1, 0.5, 2.0, 8.0])
    _, ann = cds1d._legs_1d(taus[:, None], ys[None, :], 0.02, 0.4)
    for i, tau in enumerate(taus):
        for j, y0 in enumerate(ys):
            assert ann[i, j] == cds1d._legs_1d(tau, y0, 0.02, 0.4)[1]


def test_annuity_riskless_limit_far_from_barrier():
    # huge y0: name never defaults, annuity equals the riskless one; the
    # naive closed form overflows on this input
    a = cds1d.annuity_1d(1.0, 500.0, 0.05)
    assert math.isclose(a, 0.97541150998571982, rel_tol=1e-13)


def test_annuity_zero_rate_continuity():
    lo = cds1d.annuity_1d(3.0, 1.5, 0.0)
    hi = cds1d.annuity_1d(3.0, 1.5, 1e-7)
    assert math.isclose(lo, hi, rel_tol=1e-6)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.25, 10.0), st.floats(0.1, 5.0), st.floats(0.0, 0.1))
@example(tau=0.25, y0=3.0, rate=1e-6)
@example(tau=0.25, y0=5.0, rate=5e-9)
@example(tau=0.3, y0=5.0, rate=7e-11)
def test_annuity_bounded_by_riskless(tau, y0, rate):
    # safe names just above the rate floor: the annuity must not exceed
    # the riskless one through cancellation in either expression
    a = cds1d.annuity_1d(tau, y0, rate)
    riskless = tau if rate < 1e-12 else -math.expm1(-rate * tau) / rate
    assert 0.0 < a <= riskless + 1e-12


def test_mixed_tenors_match_scalar_calls():
    # the zero-rate branch is chosen per element: a short tenor must not
    # strip the discounting from the others
    taus = np.array([1e-7, 0.5, 5.0])
    ann = cds1d.annuity_1d(taus, 2.9, 0.02)
    leg = cds1d.default_leg_1d(taus, 2.9, 0.02, 0.4)
    for tau, a, d in zip(taus, ann, leg):
        assert a == pytest.approx(cds1d.annuity_1d(tau, 2.9, 0.02), rel=1e-14)
        assert d == pytest.approx(cds1d.default_leg_1d(tau, 2.9, 0.02, 0.4),
                                  rel=1e-14, abs=1e-300)
    assert abs(ann[2] - 4.4062303779164161) < 1e-12
    assert abs(leg[2] - 0.10990358472363729) < 1e-12


def test_default_leg_reference():
    got = cds1d.default_leg_1d(5.0, 2.9, 0.02, 0.4)
    assert abs(got - 0.10990358472363729) < 1e-12


def test_default_leg_scales_with_loss_fraction():
    base = cds1d.default_leg_1d(4.0, 1.1, 0.03, 0.0)
    half = cds1d.default_leg_1d(4.0, 1.1, 0.03, 0.5)
    assert math.isclose(half, 0.5 * base, rel_tol=1e-13)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.25, 10.0), st.floats(0.1, 5.0), st.floats(0.0, 0.1),
       st.floats(0.0, 0.9))
def test_default_leg_in_unit_loss_band(tau, y0, rate, rec):
    d = cds1d.default_leg_1d(tau, y0, rate, rec)
    assert -1e-13 <= d <= (1.0 - rec) * (1.0 - cds1d.survival_1d(tau, y0)) + 1e-13


def test_value_zero_at_breakeven():
    terms = CdsTerms(maturity=5.0, coupon=0.0, rate=0.02, recovery=0.4)
    c = cds1d.breakeven_coupon_1d(5.0, 2.9, 0.02, 0.4)
    value = cds1d.cds_values_1d(
        5.0, 2.9, CdsTerms(maturity=5.0, coupon=c, rate=0.02, recovery=0.4))
    assert abs(value) < 1e-14
    assert (cds1d.annuity_1d(5.0, 2.9, 0.02) > 0
            and cds1d.default_leg_1d(5.0, 2.9, 0.02, 0.4) > 0)
    # terms container is not mutated by pricing
    assert terms.coupon == 0.0


def test_values_are_default_leg_less_coupon_annuity():
    tau = np.array([[0.1], [1.0], [5.0]])
    y0 = np.array([0.3, 1.0, 2.9, 6.0])
    terms = CdsTerms(maturity=5.0, coupon=0.03, rate=0.02, recovery=0.4)
    want = (cds1d.default_leg_1d(tau, y0, 0.02, 0.4)
            - 0.03 * cds1d.annuity_1d(tau, y0, 0.02))
    assert np.array_equal(cds1d.cds_values_1d(tau, y0, terms), want)


def test_value_decreases_in_distance():
    terms = CdsTerms(maturity=5.0, coupon=0.02, rate=0.02, recovery=0.4)
    y = np.linspace(0.3, 6.0, 30)
    v = cds1d.cds_values_1d(5.0, y, terms)
    assert np.all(np.diff(v) < 0)  # protection worth less on safer names


def test_breakeven_decreasing_in_distance():
    c1 = cds1d.breakeven_coupon_1d(5.0, 1.0, 0.02, 0.4)
    c2 = cds1d.breakeven_coupon_1d(5.0, 2.0, 0.02, 0.4)
    c3 = cds1d.breakeven_coupon_1d(5.0, 4.0, 0.02, 0.4)
    assert c1 > c2 > c3 > 0


def test_input_validation():
    with pytest.raises(ValueError):
        cds1d.survival_1d(0.0, 1.0)
    with pytest.raises(ValueError):
        cds1d.annuity_1d(1.0, -1.0, 0.02)
    with pytest.raises(ValueError):
        cds1d.annuity_1d(1.0, 1.0, -0.01)
    with pytest.raises(ValueError):
        cds1d.green_1d_images(-1.0, 1.0, 1.0)
