"""Tests of the benchmark's own code: inputs, checks and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer  # noqa: E402

TERMS = inputs.TERMS


def test_inputs_repeat_for_a_seed():
    assert inputs.book(11) == inputs.book(11)
    assert inputs.scenarios(11) == inputs.scenarios(11)
    assert inputs.mc_case(11) == inputs.mc_case(11)
    assert inputs.book(11) != inputs.book(12)
    assert inputs.scenarios(11) != inputs.scenarios(12)
    assert inputs.mc_case(11) != inputs.mc_case(12)


def test_book_make_up():
    for seed in range(20):
        book = inputs.book(seed)
        kinds = [c.kind for c in book]
        assert kinds.count("near") == inputs.NEAR_PER_BOOK
        assert kinds.count("far-buyer") == inputs.FAR_PER_BOOK
        # the failing contracts do not depend on the seed
        fixed = [inputs.Contract(**f) for f in inputs.FIXED]
        assert book[-len(fixed):] == fixed
        for c in book[:-len(fixed)]:
            assert c.maturity in (2.0, 3.0, 4.0, 5.0)
            if c.kind == "far-buyer":
                assert c.z > 4.0 * math.sqrt(c.maturity)


def test_configs_load_in_tricva(tmp_path):
    from tricva import cli
    path = tmp_path / "c.json"
    book = inputs.book(3)
    for raw in ([inputs.price_config(c) for c in book]
                + [inputs.validate_config(inputs.mc_case(3)),
                   inputs.basis_config(inputs.BOOK_RHO)]):
        path.write_text(json.dumps(raw))
        assert cli.load_config(path).mesh["n_points"] == inputs.BASIS_POINTS
    path.write_text(json.dumps(inputs.price_config(book[0])))
    # the contract's distances reach the program as its driver distances
    assert cli.load_config(path).drivers == pytest.approx(
        (book[0].x, book[0].y, book[0].z))
    # every request of the book loads the basis the set-up built
    path.write_text(json.dumps(inputs.basis_config(inputs.BOOK_RHO)))
    key = cli.cache_key(cli.load_config(path))
    for contract in book:
        path.write_text(json.dumps(inputs.price_config(contract)))
        assert cli.cache_key(cli.load_config(path)) == key


def test_breakeven_reference_matches_library_closed_form():
    from tricva.cds1d import breakeven_coupon_1d
    for tau, y0 in ((1.0, 1.5), (5.0, 2.9), (3.0, 3.5)):
        ours = checks.breakeven_1d(tau, y0, 0.02, 0.40)
        assert ours == pytest.approx(breakeven_coupon_1d(tau, y0, 0.02,
                                                         0.40), rel=1e-10)


def _good_row(contract):
    plain = checks.breakeven_1d(contract.maturity, contract.y, 0.02, 0.40)
    return {"maturity": contract.maturity, "bec_1d": plain,
            "bec_cva_only": 0.9 * plain, "bec_dva_only": 1.05 * plain,
            "bec_bilateral": 0.95 * plain, "cva": 1e-3, "dva": 1e-5,
            "survival_3d": 0.40}


CONTRACT = inputs.Contract("near", x=1.5, y=2.9, z=1.9, maturity=5.0)


def _check(row, q_xy=0.45, q_zy=0.50):
    return checks.check_price_row(row, CONTRACT, TERMS, 0.50, 0.40,
                                  q_xy, q_zy)


def test_price_checks_accept_a_consistent_row():
    assert _check(_good_row(CONTRACT)) == []


def test_price_checks_reject_cva_above_its_bound():
    row = _good_row(CONTRACT)
    cap = 0.5 * 0.6 * checks.tail(CONTRACT.x, CONTRACT.maturity)
    row["cva"] = 1.01 * cap
    assert any("cva" in v for v in _check(row))
    row["cva"] = -1e-9
    assert any("cva" in v for v in _check(row))


def test_price_checks_reject_bilateral_outside_cva_dva():
    row = _good_row(CONTRACT)
    row["bec_bilateral"] = 1.1 * row["bec_dva_only"]
    assert any("bec_bilateral" in v for v in _check(row))
    row["bec_bilateral"] = 0.9 * row["bec_cva_only"]
    assert any("bec_bilateral" in v for v in _check(row))


def test_price_checks_reject_survival_above_a_wedge():
    row = _good_row(CONTRACT)
    row["survival_3d"] = 0.47
    assert any("above the seller-reference" in v for v in _check(row))


def test_unreachable_seller_must_sit_on_the_buyer_wedge():
    far = inputs.Contract(**inputs.FIXED[0])
    row = _good_row(far)
    row.update(cva=0.0, survival_3d=0.196)
    bad = checks.check_price_row(row, far, TERMS, 0.50, 0.40, 0.6, 0.518)
    assert any("buyer-reference" in v and "reach" in v for v in bad)
    assert checks.only_known_fault(far.kind, bad)
    row["survival_3d"] = 0.518
    assert checks.check_price_row(row, far, TERMS, 0.50, 0.40, 0.6,
                                  0.518) == []


def test_known_fault_admits_only_its_own_violations():
    far = inputs.Contract(**inputs.FIXED[0])
    row = _good_row(far)
    row.update(cva=0.0, survival_3d=0.196)
    bad = checks.check_price_row(row, far, TERMS, 0.50, 0.40, 0.6, 0.518)
    assert checks.only_known_fault("unreachable-seller", bad)
    # the same violations on another contract are a real failure
    assert not checks.only_known_fault("near", bad)
    # so is a crash, a negative CVA or a broken ordering on top
    assert not checks.only_known_fault("unreachable-seller",
                                       ["tricva price exited 1"])
    row["cva"] = -1e-9
    assert not checks.only_known_fault(
        "unreachable-seller",
        checks.check_price_row(row, far, TERMS, 0.50, 0.40, 0.6, 0.518))
    row["cva"] = 0.0
    row["bec_bilateral"] = 1.1 * row["bec_dva_only"]
    assert not checks.only_known_fault(
        "unreachable-seller",
        checks.check_price_row(row, far, TERMS, 0.50, 0.40, 0.6, 0.518))
    # no violation is no fault
    assert not checks.only_known_fault("unreachable-seller", [])


def test_one_year_fault_is_the_dva_coupon_below_the_plain_one():
    short = inputs.Contract(**inputs.FIXED[1])
    row = _good_row(short)
    row["bec_dva_only"] = row["bec_1d"] * (1.0 - 5e-6)
    row["bec_bilateral"] = row["bec_cva_only"] * (1.0 - 5e-6)
    bad = checks.check_price_row(row, short, TERMS, 0.50, 0.40, 0.402, 0.402)
    assert len(bad) == 2 and checks.only_known_fault("one-year", bad)
    row["bec_dva_only"] = 0.5 * row["bec_cva_only"]
    assert not checks.only_known_fault(
        "one-year",
        checks.check_price_row(row, short, TERMS, 0.50, 0.40, 0.402, 0.402))


def _lattice():
    rng = np.random.default_rng(0)
    r = np.linspace(0.1, 5.0, 24)
    r_w = np.full(24, 0.2)
    theta = rng.uniform(0.1, 1.5, 50)
    area = rng.uniform(0.001, 0.01, 50)
    density = rng.uniform(0.0, 0.1, (24, 50))
    return density, r, r_w, theta, area


def test_density_check_rejects_mass_off_by_one_percent():
    density, r, r_w, theta, area = _lattice()
    mass = checks.lattice_mass(density, r, r_w, theta, area)
    assert checks.check_density(density, r, r_w, theta, area, mass) == []
    assert checks.check_density(1.01 * density, r, r_w, theta, area, mass)
    assert checks.check_density(0.99 * density, r, r_w, theta, area, mass)


def test_validate_check_rejects_exit_status_and_far_mean():
    case = inputs.McCase(x=1.5, y=2.9, z=1.9, mc_seed=1)
    q = {d: checks.survival_1d(5.0, d) for d in (1.5, 2.9, 1.9)}
    rows = {"survival_1d": {"mc_mean": q[2.9], "mc_se": 0.01},
            "survival_2d": {"mc_mean": q[1.5] * q[2.9], "mc_se": 0.01},
            "survival_3d": {"mc_mean": q[1.5] * q[2.9] * q[1.9],
                            "mc_se": 0.01}}
    assert checks.check_validate(0, rows, case, 5.0, 3.0) == []
    assert checks.check_validate(1, rows, case, 5.0, 3.0)
    rows["survival_3d"]["mc_mean"] += 0.06
    assert checks.check_validate(0, rows, case, 5.0, 3.0)


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                    ["inner", 5.0, 7.0, 0], ["leaf", 5.5, 6.0, 2]]
    incl, own = tracer.totals()
    assert incl["outer"] == 10.0 and own["outer"] == 5.0
    assert incl["inner"] == 5.0 and own["inner"] == 4.5
    assert own["leaf"] == 0.5


def test_tracer_counts_only_inside_requests():
    from tricva import cds1d
    from tricva.model import CdsTerms
    terms = CdsTerms(maturity=1.0, coupon=0.02, rate=0.02, recovery=0.4)
    tracer = Tracer()
    tracer.install()
    try:
        cds1d.cds_values_1d(1.0, np.ones(5), terms)
        tracer.active = True
        cds1d.cds_values_1d(np.ones((2, 1)), np.ones(3), terms)
        tracer.active = False
    finally:
        tracer.uninstall()
    per = tracer.metrics(n_requests=2)
    assert per["cds1d.cds_values_1d.points"] == 3.0
    assert [s[0] for s in tracer.spans] == ["cds1d.cds_values_1d"]


def test_rate_costs_each_kind_at_its_median():
    import run
    from workloads import Outcome
    # a slow stretch that hits one of three near requests does not count
    outcomes = [Outcome("near", 1.0), Outcome("near", 9.0),
                Outcome("near", 1.2), Outcome("far-buyer", 5.0)]
    assert run.median_cost(outcomes) == pytest.approx(3 * 1.2 + 5.0)
