import math

import pytest

from tricva.model import (CdsTerms, CorrelationTriple, FirmInput,
                          distance_to_default, validate_correlations)


def test_distance_from_balance_sheet():
    # barrier = R*L, assets = equity + barrier
    firm = FirmInput(equity=0.04, liabilities=1.0, volatility=0.2,
                     recovery=0.5)
    d = distance_to_default(firm)
    assert math.isclose(d.x0, math.log(0.54 / 0.5) / 0.2, rel_tol=1e-14)


def test_distance_from_log_distance_mode():
    # balance-sheet style inputs where the first field is already log(a0/l0)
    for val, vol, want in [
        (0.0359, 0.0244, 1.4713114754098361),
        (0.3035, 0.1045, 2.9043062200956938),
        (0.1199, 0.063, 1.9031746031746032),
    ]:
        firm = FirmInput(equity=val, liabilities=1.0, volatility=vol,
                         recovery=0.4)
        d = distance_to_default(firm, initial_value_is_distance=True)
        assert math.isclose(d.x0, want, rel_tol=1e-13)


def test_firm_input_validation():
    with pytest.raises(ValueError):
        FirmInput(equity=1.0, liabilities=1.0, volatility=0.0, recovery=0.4)
    with pytest.raises(ValueError):
        FirmInput(equity=1.0, liabilities=1.0, volatility=0.2, recovery=1.0)
    with pytest.raises(ValueError):
        FirmInput(equity=-1.0, liabilities=1.0, volatility=0.2, recovery=0.4)
    with pytest.raises(ValueError):
        distance_to_default(
            FirmInput(equity=1.0, liabilities=1.0, volatility=0.2,
                      recovery=0.0))


def test_cds_terms_validation():
    with pytest.raises(ValueError):
        CdsTerms(maturity=0.0, coupon=0.01, rate=0.02, recovery=0.4)
    with pytest.raises(ValueError):
        CdsTerms(maturity=5.0, coupon=0.01, rate=-0.01, recovery=0.4)
    CdsTerms(maturity=5.0, coupon=0.0, rate=0.0, recovery=0.0)


def test_chi_reference_value():
    c = CorrelationTriple(rho_xy=0.8, rho_xz=0.2, rho_yz=0.5)
    assert math.isclose(c.chi(), 0.47958315233127195, rel_tol=1e-14)
    c0 = CorrelationTriple(0.0, 0.0, 0.0)
    assert math.isclose(c0.chi(), 1.0, rel_tol=1e-15)


def test_validate_correlations_accepts_usable_triples():
    for t in [(0.0, 0.0, 0.0), (0.8, 0.5, 0.3), (0.2, -0.1, -0.6),
              (-0.75, 0.0, 0.0)]:
        validate_correlations(CorrelationTriple(*t))


def test_validate_correlations_rejects_edges():
    with pytest.raises(ValueError):
        validate_correlations(CorrelationTriple(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        validate_correlations(CorrelationTriple(0.0, -0.9999999, 0.0))
    # each pair is fine but the matrix is (numerically) singular
    with pytest.raises(ValueError):
        validate_correlations(CorrelationTriple(0.7, 0.7, -0.0205))


def test_validate_correlations_near_singular_boundary():
    # just inside the admissible set: chi small but above the floor
    c = CorrelationTriple(0.7, 0.7, 0.0)
    assert validate_correlations(c) is c


def test_nan_inputs_rejected():
    nan = float("nan")
    for field in ("equity", "liabilities", "volatility"):
        args = dict(equity=1.0, liabilities=1.0, volatility=0.2,
                    recovery=0.4)
        args[field] = nan
        with pytest.raises(ValueError):
            FirmInput(**args)
    for field in ("maturity", "coupon", "rate"):
        args = dict(maturity=5.0, coupon=0.01, rate=0.02, recovery=0.4)
        args[field] = nan
        with pytest.raises(ValueError):
            CdsTerms(**args)


@pytest.mark.parametrize("field", ["maturity", "rate"])
def test_cds_terms_reject_infinite_maturity_and_rate(field):
    args = dict(maturity=5.0, coupon=0.01, rate=0.02, recovery=0.4)
    args[field] = math.inf
    with pytest.raises(ValueError, match="finite"):
        CdsTerms(**args)
