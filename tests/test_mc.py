"""Euler Monte Carlo cross-checks against the closed-form pricers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tricva.model import CorrelationTriple, CdsTerms
from tricva.cds1d import survival_1d
from tricva.cds2d import survival_2d, to_wedge
from tricva import mc_oracle
from tricva.mc_oracle import (McConfig, McEstimate, richardson,
                              simulate_contract, simulate_cva_dva,
                              simulate_survival)

X0 = 1.4713114754098361
Y0 = 2.9043062200956938
Z0 = 1.9031746031746032
TERMS = CdsTerms(coupon=0.02, rate=0.02, recovery=0.4, maturity=5.0)


def _cfg(n_steps, tau, n_paths=100_000, seed=11, antithetic=True):
    return McConfig(n_paths=n_paths, dt=tau / n_steps, seed=seed,
                    antithetic=antithetic)


def _rich_survival(dims, x0s, rho, tau, n_coarse=200, **kw):
    coarse = simulate_survival(dims, x0s, rho, tau,
                               _cfg(n_coarse, tau, **kw))
    fine = simulate_survival(dims, x0s, rho, tau,
                             _cfg(2 * n_coarse, tau, **kw))
    return richardson(fine, coarse)


class TestSurvivalAgainstClosedForms:
    def test_one_driver_matches_reflection_formula(self):
        est = _rich_survival(1, [1.0], 0.0, 1.0)
        exact = survival_1d(1.0, 1.0)
        assert abs(est.mean - exact) < 3.0 * est.std_error

    def test_two_drivers_match_wedge_series(self):
        est = _rich_survival(2, [1.0, 1.0], 0.5, 1.0)
        exact = survival_2d(1.0, to_wedge(1.0, 1.0, 0.5))
        assert abs(est.mean - exact) < 3.0 * est.std_error

    def test_three_uncorrelated_drivers_factorize(self):
        est = _rich_survival(3, [X0, Y0, Z0], (0.0, 0.0, 0.0), 5.0)
        exact = (survival_1d(5.0, X0) * survival_1d(5.0, Y0)
                 * survival_1d(5.0, Z0))
        assert abs(est.mean - exact) < 3.0 * est.std_error


class TestDiscretizationBias:
    def test_monitoring_bias_is_high_and_shrinks(self):
        # crossings between grid points go unseen, so coarser grids
        # overstate survival; the exact value sits below all levels
        exact = survival_1d(1.0, 1.0)
        means = []
        for n_steps in (50, 100, 200, 400):
            est = simulate_survival(1, [1.0], 0.0, 1.0,
                                    _cfg(n_steps, 1.0))
            means.append(est.mean)
            assert est.mean > exact
        assert means == sorted(means, reverse=True)


class TestEstimatorMechanics:
    def test_fixed_seed_reproducible(self):
        runs = [simulate_survival(2, [1.0, 2.0], -0.3, 2.0,
                                  _cfg(100, 2.0, n_paths=20_000))
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_antithetic_reduces_survival_variance(self):
        plain = simulate_survival(1, [1.0], 0.0, 1.0,
                                  _cfg(100, 1.0, antithetic=False))
        anti = simulate_survival(1, [1.0], 0.0, 1.0, _cfg(100, 1.0))
        assert anti.std_error < 0.95 * plain.std_error
        assert anti.n_effective == plain.n_effective // 2

    def test_antithetic_mean_consistent(self):
        plain = simulate_survival(1, [1.0], 0.0, 1.0,
                                  _cfg(100, 1.0, antithetic=False))
        anti = simulate_survival(1, [1.0], 0.0, 1.0, _cfg(100, 1.0))
        gap = abs(anti.mean - plain.mean)
        assert gap < 3.0 * math.hypot(anti.std_error, plain.std_error)

    def test_richardson_combination(self):
        fine = McEstimate(mean=1.0, std_error=0.1, n_effective=100)
        coarse = McEstimate(mean=1.2, std_error=0.2, n_effective=100)
        out = richardson(fine, coarse)
        k = math.sqrt(2.0)
        assert out.mean == pytest.approx((k - 1.2 / 1.0) / (k - 1.0))
        assert out.std_error == pytest.approx(
            math.sqrt(2.0 * 0.01 + 0.04) / (k - 1.0))

    def test_richardson_sharpens_the_bias(self):
        exact = survival_1d(1.0, 1.0)
        coarse = simulate_survival(1, [1.0], 0.0, 1.0, _cfg(200, 1.0))
        fine = simulate_survival(1, [1.0], 0.0, 1.0, _cfg(400, 1.0))
        extrap = richardson(fine, coarse)
        assert abs(extrap.mean - exact) < abs(fine.mean - exact)


class TestAdjustmentPaths:
    def test_full_recovery_means_no_loss(self):
        cfg = _cfg(50, TERMS.maturity, n_paths=10_000)
        cva, _ = simulate_cva_dva((X0, Y0, Z0), (0.8, 0.5, 0.3), TERMS,
                                  cfg, recovery_seller=1.0,
                                  recovery_buyer=0.4)
        assert cva.mean == 0.0
        assert cva.std_error == 0.0

    def test_unreachable_buyer_pays_no_dva(self):
        cfg = _cfg(50, TERMS.maturity, n_paths=10_000)
        _, dva = simulate_cva_dva((X0, Y0, 1e3), (0.0, 0.0, 0.0), TERMS,
                                  cfg, recovery_seller=0.5,
                                  recovery_buyer=0.4)
        assert dva.mean == 0.0

    def test_reference_first_contributes_nothing(self):
        # the reference starts on top of its barrier while the
        # counterparties sit far away: every path defaults
        # reference-first and both adjustments stay empty
        cfg = _cfg(50, TERMS.maturity, n_paths=10_000)
        cva, dva = simulate_cva_dva((30.0, 1e-8, 30.0), (0.0, 0.0, 0.0),
                                    TERMS, cfg, recovery_seller=0.5,
                                    recovery_buyer=0.4)
        assert cva.mean == 0.0
        assert dva.mean == 0.0

    def test_both_legs_collect_on_mixed_paths(self):
        cfg = _cfg(100, TERMS.maturity, n_paths=20_000)
        cva, dva = simulate_cva_dva((X0, Y0, Z0), (0.8, 0.5, 0.3), TERMS,
                                    cfg, recovery_seller=0.5,
                                    recovery_buyer=0.4)
        assert cva.mean > 10.0 * cva.std_error
        assert dva.mean > 5.0 * dva.std_error
        assert cva.mean < 1.0 and dva.mean < 1.0


class TestContract:
    @pytest.mark.parametrize("rho, antithetic", [((0.8, 0.5, 0.3), True),
                                                 ((0.0, 0.0, 0.0), False)])
    def test_matches_the_single_quantity_runs(self, rho, antithetic):
        cfg = _cfg(50, TERMS.maturity, n_paths=20_000,
                   antithetic=antithetic)
        est = simulate_contract((X0, Y0, Z0), rho, TERMS, cfg,
                                recovery_seller=0.5, recovery_buyer=0.4)
        assert est["survival_3d"] == simulate_survival(
            3, [X0, Y0, Z0], rho, TERMS.maturity, cfg)
        assert (est["cva_3d"], est["dva_3d"]) == simulate_cva_dva(
            (X0, Y0, Z0), rho, TERMS, cfg, recovery_seller=0.5,
            recovery_buyer=0.4)

    def test_marginal_survivals_match_closed_forms(self):
        # the reference and the seller-reference pair read off the
        # shared 3D paths have the one- and two-name laws
        rho = (0.8, 0.5, 0.3)
        tau = TERMS.maturity
        runs = [simulate_contract((X0, Y0, Z0), rho, TERMS,
                                  _cfg(steps, tau, n_paths=40_000),
                                  recovery_seller=0.5, recovery_buyer=0.4)
                for steps in (100, 200)]
        exact = {"survival_1d": survival_1d(tau, Y0),
                 "survival_2d": survival_2d(tau, to_wedge(X0, Y0, rho[0]))}
        for name, value in exact.items():
            est = richardson(runs[1][name], runs[0][name])
            assert abs(est.mean - value) < 3.0 * est.std_error, name

    def test_needs_three_drivers(self):
        with pytest.raises(ValueError, match="three"):
            simulate_contract((1.0, 1.0), (0.0, 0.0, 0.0), TERMS,
                              _cfg(50, TERMS.maturity, n_paths=20_000),
                              recovery_seller=0.5, recovery_buyer=0.4)


def _reference_walk(x0s, rho, horizon, cfg):
    """The walker's earlier per-step loop, kept verbatim as a reference.

    Each step masks the drivers that have not crossed yet by their
    first-step array and finds the paths that first crossed at this
    step by reducing it over the drivers.
    """
    dims = len(x0s)
    chol = mc_oracle._correlation_cholesky(dims, rho)
    n_steps = max(int(math.ceil(horizon / cfg.dt - 1e-12)), 50)
    sq = math.sqrt(horizon / n_steps)
    rng = np.random.default_rng(cfg.seed)
    firsts, ats = [], []
    for size in mc_oracle._chunk_sizes(cfg.n_paths, cfg.antithetic):
        x = np.tile(x0s, (size, 1))
        first_c = np.full((size, dims), n_steps + 1, dtype=np.int32)
        at_c = x.copy()
        half = size // 2
        for k in range(1, n_steps + 1):
            if cfg.antithetic:
                g = rng.standard_normal((half, dims))
                dw = np.concatenate([g, -g]) @ chol.T
            else:
                dw = rng.standard_normal((size, dims)) @ chol.T
            x += sq * dw
            hit = (x <= 0.0) & (first_c > n_steps)
            if hit.any():
                first_c[hit] = k
                newly = first_c.min(axis=1) == k
                at_c[newly] = x[newly]
        firsts.append(first_c)
        ats.append(at_c)
    return (n_steps, mc_oracle._stack(firsts, cfg.antithetic),
            mc_oracle._stack(ats, cfg.antithetic))


_WALK_CASES = ([(1, 0.0)]
               + [(2, r) for r in (0.0, 0.6, -0.7)]
               + [(3, r) for r in ((0.0, 0.0, 0.0), (0.8, 0.5, 0.3),
                                   (0.2, -0.1, -0.6))])


class TestWalkAgainstReferenceLoop:
    """_walk is bit for bit the reference loop: same draws, same
    crossings. 40,000 paths make three chunks."""

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("n_steps", [50, 100])
    @pytest.mark.parametrize("dims, rho", _WALK_CASES)
    def test_walk_is_bit_identical(self, dims, rho, n_steps, antithetic):
        x0s = np.array([0.9, 1.3, 0.7][:dims])
        cfg = McConfig(n_paths=40_000, dt=1.0 / n_steps, seed=5,
                       antithetic=antithetic)
        assert len(list(mc_oracle._chunk_sizes(40_000, antithetic))) == 3
        want = _reference_walk(x0s, rho, 1.0, cfg)
        [got] = mc_oracle._walk(x0s, rho, 1.0, [cfg])
        assert got[0] == want[0] == n_steps
        # the drivers start near their barriers: many paths cross
        assert np.mean(want[1].min(axis=1) <= n_steps) > 0.3
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("dims, rho", _WALK_CASES)
    def test_ladder_is_two_reference_walks(self, dims, rho, antithetic):
        # the coarse walk reads the first half of the fine walk's
        # stream; its last chunk's steps are shorter than the fine
        # walk's, so its step boundaries, and its end, fall mid-step
        # in the fine stream
        x0s = np.array([0.9, 1.3, 0.7][:dims])
        ladder = [McConfig(n_paths=40_000, dt=1.0 / n, seed=5,
                           antithetic=antithetic) for n in (50, 100)]
        per_step = [(s // 2 if antithetic else s) * dims
                    for s in mc_oracle._chunk_sizes(40_000, antithetic)]
        coarse_ends = set(np.cumsum(np.repeat(per_step, 50)))
        fine_ends = set(np.cumsum(np.repeat(per_step, 100)))
        assert not coarse_ends <= fine_ends
        got = mc_oracle._walk(x0s, rho, 1.0, ladder)
        for cfg, walk in zip(ladder, got):
            want = _reference_walk(x0s, rho, 1.0, cfg)
            assert walk[0] == want[0]
            assert np.array_equal(walk[1], want[1])
            assert np.array_equal(walk[2], want[2])

    @pytest.mark.parametrize("change", [{"seed": 6}, {"n_paths": 40_002},
                                        {"antithetic": False}])
    def test_ladder_refuses_configs_on_other_streams(self, change):
        coarse = McConfig(n_paths=40_000, dt=0.02, seed=5, antithetic=True)
        fine = replace(coarse, dt=0.01, **change)
        with pytest.raises(ValueError, match="share"):
            mc_oracle._walk(np.array([0.9, 1.3, 0.7]), (0.8, 0.5, 0.3),
                            1.0, [coarse, fine])

    def test_stream_holds_about_one_step(self, monkeypatch):
        # the walkers read lowest stream position first, so the buffer
        # never holds more than one fine step of draws plus one coarse
        # step, and only the fine walk's draws are ever made
        read = mc_oracle._NormalStream.read
        held, drawn = [], []

        def recorded(stream, lo, n):
            draws = read(stream, lo, n)
            held.append(len(stream.buf))
            drawn.append(stream.start + len(stream.buf))
            return draws

        monkeypatch.setattr(mc_oracle._NormalStream, "read", recorded)
        ladder = [McConfig(n_paths=40_000, dt=1.0 / n, seed=5,
                           antithetic=True) for n in (50, 100)]
        mc_oracle._walk(np.array([0.9, 1.3, 0.7]), (0.8, 0.5, 0.3), 1.0,
                        ladder)
        fine_step = coarse_step = mc_oracle._CHUNK // 2 * 3
        assert max(held) <= fine_step + coarse_step
        assert drawn[-1] == max(drawn) == 20_000 * 3 * 100


class TestValidation:
    def test_too_few_paths(self):
        with pytest.raises(ValueError, match="1e4 paths"):
            simulate_survival(1, [1.0], 0.0, 1.0,
                              McConfig(n_paths=5_000, dt=0.01, seed=0))

    def test_step_too_coarse(self):
        with pytest.raises(ValueError, match="horizon/50"):
            simulate_survival(1, [1.0], 0.0, 1.0,
                              McConfig(n_paths=20_000, dt=0.5, seed=0))

    def test_antithetic_needs_even_paths(self):
        with pytest.raises(ValueError, match="even"):
            simulate_survival(1, [1.0], 0.0, 1.0,
                              McConfig(n_paths=10_001, dt=0.01, seed=0,
                                       antithetic=True))

    def test_start_below_barrier(self):
        with pytest.raises(ValueError, match="above the barrier"):
            simulate_survival(1, [-1.0], 0.0, 1.0,
                              McConfig(n_paths=20_000, dt=0.01, seed=0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            simulate_survival(2, [1.0], 0.0, 1.0,
                              McConfig(n_paths=20_000, dt=0.01, seed=0))

    def test_pair_correlation_range(self):
        with pytest.raises(ValueError, match="correlation"):
            simulate_survival(2, [1.0, 1.0], 1.5, 1.0,
                              McConfig(n_paths=20_000, dt=0.01, seed=0))

    def test_triple_must_be_positive_definite(self):
        with pytest.raises(ValueError):
            simulate_survival(3, [1.0, 1.0, 1.0], (0.9, 0.9, -0.9), 1.0,
                              McConfig(n_paths=20_000, dt=0.01, seed=0))

    def test_dims_supported(self):
        with pytest.raises(ValueError, match="dims"):
            simulate_survival(5, [1.0] * 5, 0.0, 1.0,
                              McConfig(n_paths=20_000, dt=0.01, seed=0))
