"""Special function checks against independently computed references.

Reference constants were produced with mpmath at 25 significant digits,
the ln 1F1 grid and the ln ive table's references at 40 digits.
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
    assert math.isclose(math.exp(specfun.ln_hyp1f1_neg(0.5, 2.0, 1.0)),
                        0.80145607363402177, rel_tol=1e-13)
    # deep negative axis
    assert math.isclose(math.exp(specfun.ln_hyp1f1_neg(0.5, 2.0, 300.0)),
                        0.065092644272766992, rel_tol=1e-12)


def test_ln_hyp1f1_both_branches():
    # w = 850 sums the transformed series; w = 25000 takes the asymptotic path
    assert math.isclose(specfun.ln_hyp1f1_neg(2.6, 6.2, 850.0),
                        -13.726196631220178, rel_tol=1e-12)
    assert math.isclose(specfun.ln_hyp1f1_neg(4.1, 9.3, 25000.0),
                        -33.751494114449852, rel_tol=1e-12)


# ln 1F1(a, b, -w) with a = nu/2 - shift and b = nu + 1, keyed by
# (nu, shift): shift 1/4 is survival_3d's kernel, shift 0 is
# survival_2d_1f1's. One value per entry of _REF_W, which spans both
# sides of w = 2000.
_REF_W = (1e-4, 0.37, 8.5, 140.0, 650.0, 1900.0, 2100.0, 3200.0, 1e4, 1e5)
LN_HYP1F1_REFERENCES = {
    (0.6, 0.25): [
        -3.1249417828616778626e-6, -0.010814048232122902591,
        -0.10513401305960043238, -0.24206452396554273416,
        -0.3186765631854274611, -0.37228055489959701841,
        -0.37728334903560488897, -0.3983395199132410883,
        -0.45530538971982698999, -0.57043216930146013111,
    ],
    (0.6, 0.0): [
        -0.000018749707034640825283, -0.065532855283007583857,
        -0.65778817317446254942, -1.4875548572474021261,
        -1.9476472333124884393, -2.2693470866300449274,
        -2.2993676106554819518, -2.4257169122215216688,
        -2.7675280682318073156, -3.4582954956844637401,
    ],
    (1.7, 0.25): [
        -0.000022221988657162542262, -0.079117108858308032805,
        -0.97459032124826037497, -2.5803253495609547674,
        -3.4978163778428132499, -4.1407300981124045126,
        -4.2007470822476750109, -4.4533671042759559424,
        -5.1368874097251097896, -6.5183790638880173759,
    ],
    (1.7, 0.0): [
        -0.000031481189987813949257, -0.11256974326752894949,
        -1.4189207553277736916, -3.7148309512157781032,
        -5.0157945363953251837, -5.9268037869786255511,
        -6.0118384930484162759, -6.3697516253325967703,
        -7.3381172031178009444, -9.2952495035860573246,
    ],
    (5.3, 0.25): [
        -0.000038095076569749469116, -0.13875714330604738043,
        -2.3103707162742707055, -8.269976981040073811, -11.915682886522651419,
        -14.482963091773567466, -14.722814433239023973,
        -15.732587240189569302, -18.4657503677454046, -23.991328173719510742,
    ],
    (5.3, 0.0): [
        -0.000042063325145085579833, -0.15336108641026482796,
        -2.5799949845378570881, -9.2084491707689880257,
        -13.237550185478231325, -16.072922621331824726,
        -16.337791605497551547, -17.452857319187253689,
        -20.470865580950928397, -26.572084017635524446,
    ],
    (21.4, 0.25): [
        -0.00004665173253503345698, -0.17188409634732258066,
        -3.5923825266194346299, -23.226553230203493251,
        -38.629645384332601499, -49.722838090642199525,
        -50.762973244994287261, -55.145919906234656146,
        -67.028689942324182724, -91.080405410236638672,
    ],
    (21.4, 0.0): [
        -0.000047767803830523086665, -0.17601157564837431648,
        -3.6844778600148278109, -23.857044961962415358,
        -39.642223331650344371, -51.003452006532753246,
        -52.068603452097331835, -56.556839548612991699,
        -68.724452362716635483, -93.351808195317738842,
    ],
    (63.0, 0.25): [
        -0.000048828105779795003643, -0.18040096196644381932,
        -4.0120877290648386304, -41.090532544099226811,
        -83.610507413646542484, -116.12679832498934578,
        -119.20467264579250585, -132.20517518926123153,
        -167.60164463799246087, -239.46812979104392783,
    ],
    (63.0, 0.0): [
        -0.000049218730773926087056, -0.18184618644694882284,
        -4.0451565502238077743, -41.470868452921791786,
        -84.363015012995604313, -117.1468841597259719, -120.2497637414548708,
        -133.35552738001101086, -169.03682036518834451,
        -241.47894371017999275,
    ],
    (160.0, 0.25): [
        -0.000049534153775303648985, -0.18317077552581698547,
        -4.154697066053344313, -55.425502705517230103, -145.6250901058068677,
        -224.73389474151205586, -232.39518674845784451,
        -264.94020192993981678, -354.4503620317998579, -537.50552662358016646,
    ],
    (160.0, 0.0): [
        -0.000049689433278037134748, -0.18374530409700709985,
        -4.1678871303767557618, -55.621794712624357128,
        -146.15068747783154218, -225.52431862196706924,
        -233.21054825564914079, -265.86065046561813121,
        -355.65551567976091945, -539.28630507877334348,
    ],
}


@pytest.mark.parametrize("nu, shift", sorted(LN_HYP1F1_REFERENCES))
def test_ln_hyp1f1_matches_frozen_references(nu, shift):
    got = specfun.ln_hyp1f1_neg(0.5 * nu - shift, nu + 1.0,
                                np.array(_REF_W))
    np.testing.assert_allclose(got, LN_HYP1F1_REFERENCES[nu, shift],
                               rtol=0, atol=2e-12)


# ln ive(nu, z) at 40 digits, keyed by order, one value per entry of
# _TABLE_Z where the order is live (nu <= 5 + 9 sqrt(z), as
# IveTable keeps it; the lowest order everywhere) and None
# elsewhere. The orders span the three-name kernel's (2.286 is the book
# basis's lowest, 18.51 its highest at 60 modes, 38.96 at 160) and the
# wedge's n pi / varpi at rho = 0.8 (n = 1, 8, 48, 151, 585).
_TABLE_Z = (1e-5, 3e-4, 0.01, 0.37, 2.5, 14.0, 60.0, 250.0, 1100.0, 7000.0,
            1e4)
LN_IVE_REFERENCES = {
    1.2576: [
        -15.479606100534975522, -11.202550263401386751,
        -6.8023919880103439352, -2.606187898768633535,
        -1.7173516939980780412, -2.2878237604424637597,
        -2.9773008193733827619, -3.6823374505351500877,
        -4.4210767914352059636, -5.345866365286386644,
        -5.5241753004099175501,
    ],
    2.286: [
        -28.875737830606726623, -21.100890609287417077,
        -13.09459165483383774, -5.1896381379739230448,
        -2.5106549490270017618, -2.4225589317367127809,
        -3.0079222061054832596, -3.6896405005916431538,
        -4.4227340162681688645, -5.3461266866107307696,
        -5.5243575214324663298,
    ],
    10.06: [
        None, None, None, -32.587833121481046468, -15.360405471760483972,
        -5.8181358069539736043, -3.8124705375280977204,
        -3.8819541375734414648, -4.4663798198565461406,
        -5.3529827325563739655, -5.5291566511772277714,
    ],
    18.51: [
        None, None, None, None, -36.180216003745230142,
        -13.494115101180404241, -5.8202716206899424575,
        -4.3654683370399504892, -4.5761611581623716376,
        -5.3702279871567756452, -5.5412280753181053153,
    ],
    38.96: [
        None, None, None, None, None, None, -15.305331003127766094,
        -6.714856186043527975, -5.110545382527522511,
        -5.4541809685867610864, -5.5999939976559649619,
    ],
    60.36: [
        None, None, None, None, None, None, -31.488325573988751235,
        -10.945256972513155889, -6.0767536859793956546,
        -5.6060081955449967412, -5.706271254641564472,
    ],
    189.9: [
        None, None, None, None, None, None, None, None,
        -20.779177669536547548, -7.9216372542137419046,
        -7.3272326867754754104,
    ],
    735.7: [
        None, None, None, None, None, None, None, None, None,
        -43.97406500920322644, -32.575983606687549466,
    ],
}


def test_ive_table_matches_frozen_references():
    # one table over every order's live span in [1e-5, 1e4], dense
    # enough that each order is tabulated, read at the reference points
    nu = np.array(sorted(LN_IVE_REFERENCES))
    z = np.concatenate([_TABLE_Z, np.geomspace(1e-5, 1e4, 3000)])
    table = specfun.IveTable(nu, z, np.ones_like(z))
    n_live = table.n_live
    assert table.n_direct == 0
    # each row's live values, 0 past them
    got = table.sums(specfun.bessel_i_scaled(*table.asks), np.eye(len(nu)))
    want = np.full(got.shape, np.nan)
    want[:len(_TABLE_Z)] = np.array(
        [LN_IVE_REFERENCES[v] for v in nu], dtype=float).T
    want[np.arange(len(nu)) >= n_live[:, None]] = np.nan
    at = ~np.isnan(want)
    assert at.sum() == sum(v is not None for vals in
                           LN_IVE_REFERENCES.values() for v in vals)
    np.testing.assert_allclose(got[at], np.exp(want[at]),
                               rtol=specfun.IVE_TABLE_RTOL, atol=0)


def test_ln_hyp1f1_refuses_underflow():
    # ln 1F1(400, 801, -1e6) is about -2975, far below the double range
    with pytest.raises(ArithmeticError, match="a=400"):
        specfun.ln_hyp1f1_neg(400.0, 801.0, 1e6)


def test_ln_hyp1f1_array_call_equals_scalar_calls():
    nu = np.array([0.6, 4.2, 37.0, 160.0])
    w = np.array([[0.3], [900.0], [2500.0], [4e4]])
    got = specfun.ln_hyp1f1_neg(0.5 * nu - 0.25, nu + 1.0, w)
    assert got.shape == (4, 4)
    for i in range(4):
        for j in range(4):
            want = specfun.ln_hyp1f1_neg(0.5 * nu[j] - 0.25, nu[j] + 1.0,
                                         float(w[i, 0]))
            assert isinstance(want, float)
            assert got[i, j] == want


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
