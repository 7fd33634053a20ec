"""Euler Monte Carlo cross-checks against the closed-form pricers."""

import itertools
import math
import sys
import threading
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
        # the walkers read lowest stream position first, so the draws
        # still to be read span at most one fine step plus one coarse
        # step; the stream holds at most the two blocks of its fixed
        # ring that a read spans, and the producer makes only the fine
        # walk's draws
        read = mc_oracle._NormalStream.read
        made = _patch_rng(monkeypatch)
        spans, held = [], []
        end = 0

        def recorded(stream, lo, n):
            nonlocal end
            draws = read(stream, lo, n)
            end = max(end, lo + n)
            spans.append(end - lo)
            held.append(len(stream.held))
            assert len(stream.ring) == mc_oracle._SLOTS
            assert all(any(b is r for r in stream.ring)
                       for b in stream.held)
            return draws

        monkeypatch.setattr(mc_oracle._NormalStream, "read", recorded)
        ladder = [McConfig(n_paths=40_000, dt=1.0 / n, seed=5,
                           antithetic=True) for n in (50, 100)]
        mc_oracle._walk(np.array([0.9, 1.3, 0.7]), (0.8, 0.5, 0.3), 1.0,
                        ladder)
        fine_step = coarse_step = mc_oracle._CHUNK // 2 * 3
        assert max(spans) <= fine_step + coarse_step
        assert max(held) <= 2
        [rng] = made
        assert sum(rng.sizes) == end == 20_000 * 3 * 100
        assert max(rng.sizes) == mc_oracle._BLOCK


_DEFAULT_RNG = np.random.default_rng


class _RecordingRng:
    """default_rng(seed) that records each fill's size and can raise
    on the fail_at-th fill."""

    def __init__(self, seed, fail_at):
        self._rng = _DEFAULT_RNG(seed)
        self.sizes = []
        self.fail_at = fail_at

    def standard_normal(self, out):
        if len(self.sizes) + 1 == self.fail_at:
            raise RuntimeError("fill %d failed" % self.fail_at)
        self.sizes.append(out.size)
        return self._rng.standard_normal(out=out)


def _patch_rng(monkeypatch, fail_at=None):
    made = []

    def make(seed):
        made.append(_RecordingRng(seed, fail_at))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", make)
    return made


def _raised_within(seconds, fn, *args):
    """What fn(*args) raised, run on a thread that must end in time."""
    raised = []

    def run():
        try:
            fn(*args)
        except Exception as err:
            raised.append(err)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "the call did not return in time"
    return raised


@pytest.fixture
def open_stream():
    streams = []

    def make(seed, total):
        streams.append(mc_oracle._NormalStream(seed, total))
        return streams[-1]

    yield make
    for stream in streams:
        stream.close()


class TestNormalStream:
    """A read returns default_rng(seed)'s draws at its positions."""

    BLOCK = mc_oracle._BLOCK

    def test_skipped_draws_are_not_misread(self, open_stream):
        total = 4 * self.BLOCK
        want = _DEFAULT_RNG(5).standard_normal(total)
        stream = open_stream(5, total)
        assert np.array_equal(stream.read(0, 10), want[:10])
        assert np.array_equal(stream.read(20, 5), want[20:25])
        # past a whole block never read, and across a block boundary
        lo = 3 * self.BLOCK - 3
        assert np.array_equal(stream.read(lo, 7), want[lo:lo + 7])

    def test_refuses_reads_it_cannot_serve(self, open_stream):
        total = 3 * self.BLOCK
        stream = open_stream(5, total)
        stream.read(self.BLOCK + 1, 4)
        for lo, n in ((self.BLOCK - 1, 1), (total - 2, 3),
                      (self.BLOCK + 1, self.BLOCK + 1),
                      (self.BLOCK + 1, 0)):
            with pytest.raises(ValueError):
                stream.read(lo, n)

    def test_overlapping_reads_under_fast_switching(self, open_stream):
        # reads of any length up to a block, each overlapping or
        # skipping past the last as a ladder's walkers do, while the
        # interpreter switches threads as often as it can
        total = 6 * self.BLOCK + 12_345
        want = _DEFAULT_RNG(9).standard_normal(total)
        pick = _DEFAULT_RNG(0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stream = open_stream(9, total)
            lo = 0
            while True:
                n = int(pick.integers(1, self.BLOCK + 1))
                if lo + n > total:
                    break
                assert np.array_equal(stream.read(lo, n), want[lo:lo + n])
                lo += int(pick.integers(0, 2 * n))
        finally:
            sys.setswitchinterval(interval)


class TestStreamLifetime:
    """The producer thread is joined however a walk ends, and an error
    on either thread is raised in the caller."""

    CFG = McConfig(n_paths=10_000, dt=0.1, seed=3, antithetic=True)

    def test_survival_leaves_no_thread(self):
        before = threading.active_count()
        simulate_survival(3, [X0, Y0, Z0], (0.8, 0.5, 0.3), 5.0, self.CFG)
        assert threading.active_count() == before

    def test_walker_error_is_raised(self, monkeypatch):
        read = mc_oracle._NormalStream.read
        calls = itertools.count(1)

        def failing(stream, lo, n):
            if next(calls) == 7:
                raise RuntimeError("walker failed")
            return read(stream, lo, n)

        monkeypatch.setattr(mc_oracle._NormalStream, "read", failing)
        before = threading.active_count()
        [err] = _raised_within(60, simulate_survival, 3, [X0, Y0, Z0],
                               (0.8, 0.5, 0.3), 5.0, self.CFG)
        assert str(err) == "walker failed"
        assert threading.active_count() == before

    def test_producer_error_is_raised(self, monkeypatch):
        made = _patch_rng(monkeypatch, fail_at=3)
        before = threading.active_count()
        [err] = _raised_within(60, simulate_contract, (X0, Y0, Z0),
                               (0.8, 0.5, 0.3), TERMS, self.CFG, 0.5, 0.4)
        assert str(err) == "fill 3 failed"
        assert made[0].sizes == [mc_oracle._BLOCK] * 2
        assert threading.active_count() == before


# simulate_contract's estimates at the benchmark's validate size, as
# (mean, std_error) per step count and quantity
_FROZEN_MC = {
    (0.0, 0.0, 0.0): {
        100: {
            "survival_1d": (0.82535, 0.0023849122689635913),
            "survival_2d": (0.4352, 0.0025847174074563046),
            "survival_3d": (0.27425, 0.0027049815974502034),
            "cva_3d": (0.009676182106678368, 0.0002058123118068927),
            "dva_3d": (0.0024157276646136895, 4.761716574878691e-05),
        },
        200: {
            "survival_1d": (0.8154, 0.002413061600255713),
            "survival_2d": (0.42285, 0.0025880412565789162),
            "survival_3d": (0.26765, 0.0026729313882366346),
            "cva_3d": (0.009633012011511925, 0.0002049201599628901),
            "dva_3d": (0.002430315260321854, 4.797622677281055e-05),
        },
    },
    (0.8, 0.5, 0.3): {
        100: {
            "survival_1d": (0.82805, 0.002375159760603239),
            "survival_2d": (0.51625, 0.0020836333417351234),
            "survival_3d": (0.4, 0.0024301420861867124),
            "cva_3d": (0.030721607680726185, 0.00034321379872506356),
            "dva_3d": (0.0016756656425822285, 3.8288878663817124e-05),
        },
        200: {
            "survival_1d": (0.81855, 0.0024043019396036095),
            "survival_2d": (0.50835, 0.002084697183342133),
            "survival_3d": (0.3926, 0.002432512222286079),
            "cva_3d": (0.03069091716318857, 0.00033911686560276767),
            "dva_3d": (0.001711498598106445, 3.872081703475075e-05),
        },
    },
}


class TestFrozenMc:
    """simulate_contract's Richardson ladder at the benchmark's validate
    size (2e4 antithetic paths, 100 and 200 steps over 5 y), held with
    == to frozen values: every estimate's bits depend on every draw of
    the stream and on the order the walk reads them."""

    @pytest.mark.parametrize("rho", list(_FROZEN_MC))
    def test_estimates_are_frozen(self, rho):
        ladder = [_cfg(n, TERMS.maturity, n_paths=20_000)
                  for n in (100, 200)]
        before = threading.active_count()
        runs = simulate_contract((X0, Y0, Z0), rho, TERMS, ladder,
                                 recovery_seller=0.5, recovery_buyer=0.4)
        assert threading.active_count() == before
        for n_steps, run in zip((100, 200), runs):
            got = {name: (est.mean, est.std_error)
                   for name, est in run.items()}
            assert got == _FROZEN_MC[rho][n_steps]


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
