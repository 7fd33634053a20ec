"""Special function checks against independently computed references.

Reference constants were produced with mpmath at 25 significant digits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricva import specfun


def bessel_i_series(nu, x, terms=200):
    # direct power series oracle: I_nu(x) = sum (x/2)^(2k+nu) / (k! Gamma(k+nu+1))
    s = 0.0
    for k in range(terms):
        t = math.exp((2 * k + nu) * math.log(x / 2.0)
                     - math.lgamma(k + 1) - math.lgamma(k + nu + 1))
        s += t
        if t < 1e-18 * s:
            break
    return s


def test_norm_cdf_reference():
    assert abs(specfun.norm_cdf(1.0) - 0.84134474606854295) < 1e-15
    assert abs(specfun.norm_cdf(0.0) - 0.5) < 1e-16


def test_norm_cdf_symmetry():
    x = np.linspace(-6, 6, 41)
    np.testing.assert_allclose(specfun.norm_cdf(x) + specfun.norm_cdf(-x),
                               np.ones_like(x), rtol=0, atol=1e-15)


def test_norm_pdf_is_cdf_derivative():
    x = np.linspace(-4, 4, 17)
    h = 1e-5
    num = (specfun.norm_cdf(x + h) - specfun.norm_cdf(x - h)) / (2 * h)
    np.testing.assert_allclose(num, specfun.norm_pdf(x), rtol=1e-6)


def test_ln_gamma_reference():
    assert abs(specfun.ln_gamma(0.5) - 0.57236494292470009) < 1e-14
    assert abs(specfun.ln_gamma(1.0)) < 1e-15
    assert abs(specfun.ln_gamma(5.0) - math.log(24.0)) < 1e-13


@given(st.floats(0.3, 20.0))
def test_ln_gamma_recurrence(x):
    # Gamma(x+1) = x Gamma(x)
    assert math.isclose(specfun.ln_gamma(x + 1.0),
                        specfun.ln_gamma(x) + math.log(x), rel_tol=1e-12,
                        abs_tol=1e-12)


def test_bessel_scaled_reference():
    assert abs(specfun.bessel_i_scaled(0.5, 1.0) - 0.34495131388824463) < 1e-15
    assert abs(specfun.bessel_i_scaled(1.0, 1.0) - 0.20791041534970845) < 1e-15


def test_bessel_half_order_closed_form():
    # I_(1/2)(x) = sqrt(2/(pi x)) sinh(x)
    for x in (0.2, 1.0, 3.7, 20.0):
        want = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x) * math.exp(-x)
        assert math.isclose(specfun.bessel_i_scaled(0.5, x), want,
                            rel_tol=1e-13)


@settings(max_examples=200)
@given(st.floats(0.0, 8.0), st.floats(0.05, 6.0))
def test_bessel_scaled_matches_series(nu, x):
    want = bessel_i_series(nu, x) * math.exp(-x)
    got = specfun.bessel_i_scaled(nu, x)
    assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-300)


def test_bessel_scaled_large_argument_bounded():
    # raw I_nu would overflow here; the scaled form must stay finite
    v = specfun.bessel_i_scaled(3.5, 5000.0)
    assert 0 < v < 1
    # leading asymptotic term 1/sqrt(2 pi x)
    assert math.isclose(v, 1.0 / math.sqrt(2 * math.pi * 5000.0), rel_tol=1e-2)


def test_hyp1f1_references():
    # 1F1(1, 2, 1) = e - 1 by the direct series
    assert math.isclose(math.exp(specfun._kummer_series(1.0, 2.0, 1.0)[0]),
                        1.7182818284590452, rel_tol=1e-14)
    assert math.isclose(math.exp(specfun.ln_hyp1f1_neg(0.5, 2.0, 1.0)),
                        0.80145607363402177, rel_tol=1e-13)
    # deep negative axis, Kummer branch
    assert math.isclose(math.exp(specfun.ln_hyp1f1_neg(0.5, 2.0, 300.0)),
                        0.065092644272766992, rel_tol=1e-12)


def test_ln_hyp1f1_both_branches():
    # w = 850 sums the transformed series; w = 25000 takes the asymptotic path
    assert math.isclose(specfun.ln_hyp1f1_neg(2.6, 6.2, 850.0),
                        -13.726196631220178, rel_tol=1e-12)
    assert math.isclose(specfun.ln_hyp1f1_neg(4.1, 9.3, 25000.0),
                        -33.751494114449852, rel_tol=1e-12)


def test_ln_hyp1f1_branch_consistency():
    # at the switchover both evaluation routes must agree to near roundoff
    for (a, b) in [(0.9, 3.2), (7.3, 15.6), (14.75, 30.5)]:
        for w in (1500.0, 2000.0, 2500.0):
            series = specfun._kummer_series(b - a, b, w)[0] - w
            asym = specfun._asymptotic_ln(a, b, w)
            assert math.isclose(series, asym, rel_tol=1e-10)


@settings(max_examples=100)
@given(st.floats(0.1, 60.0))
def test_hyp1f1_exponential_identity(w):
    # 1F1(1, 2, -w) = (1 - e^-w)/w
    want = (1.0 - math.exp(-w)) / w
    assert math.isclose(math.exp(specfun.ln_hyp1f1_neg(1.0, 2.0, w)), want,
                        rel_tol=1e-12)


def test_hyp1f1_rejects_bad_parameters():
    with pytest.raises(ValueError):
        specfun.ln_hyp1f1_neg(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        specfun.ln_hyp1f1_neg(-1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        specfun.ln_hyp1f1_neg(0.5, 2.0, -3.0)


def test_gauss_legendre_exactness():
    # n nodes integrate polynomials up to degree 2n-1 exactly
    x, w = specfun.gauss_legendre(2, 0.0, 1.0)
    assert math.isclose(np.sum(w * x ** 3), 0.25, rel_tol=1e-14)
    x, w = specfun.gauss_legendre(12, -2.0, 5.0)
    assert math.isclose(np.sum(w), 7.0, rel_tol=1e-14)
    assert math.isclose(np.sum(w * x ** 10), (5.0 ** 11 + 2.0 ** 11) / 11.0,
                        rel_tol=1e-13)


def test_gauss_legendre_gaussian_moment():
    x, w = specfun.gauss_legendre(80, -12.0, 12.0)
    got = np.sum(w * specfun.norm_pdf(x) * x * x)
    assert math.isclose(got, 1.0, rel_tol=1e-12)
