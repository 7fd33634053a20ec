"""Monte Carlo verification of survival probabilities and adjustments.

One walker runs plain Euler paths on the driver distances with
absorbing barriers at zero and records each driver's first crossing
step; simulate_survival, simulate_contract (all five checks of one
contract) and simulate_cva_dva are views of one walk. The estimates
carry a discrete-monitoring bias (paths can dip below the barrier
between grid times unseen) which shrinks like sqrt(dt) and is removed
for comparisons by Richardson extrapolation over the two finest step
sizes. Those step sizes share a seed, so the coarse walk's normals are
the first part of the fine walk's: simulate_contract walks such a
ladder off one normal stream, drawn once, with every output bit that
of separate walks. Exact first-passage sampling is out of scope: this
module is an oracle, not a production pricer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cds1d import cds_values_1d
from .model import CorrelationTriple, validate_correlations

_CHUNK = 16384


@dataclass(frozen=True)
class McConfig:
    """Simulation size, step, seed, and the antithetic-variates flag."""
    n_paths: int
    dt: float
    seed: int
    antithetic: bool = False


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error.

    n_effective counts independent observations: paths, or pairs when
    antithetic variates make the two halves dependent.
    """
    mean: float
    std_error: float
    n_effective: int


def _check_config(cfg, horizon):
    if cfg.n_paths < 10_000:
        raise ValueError("need at least 1e4 paths for a usable estimate")
    if cfg.dt <= 0 or cfg.dt > horizon / 50.0 + 1e-12:
        raise ValueError("dt must be positive and at most horizon/50")
    if cfg.antithetic and cfg.n_paths % 2:
        raise ValueError("antithetic runs need an even path count")


def _correlation_cholesky(dims, rho):
    corr = np.eye(dims)
    if dims == 2:
        r = float(rho)
        if not -1.0 < r < 1.0:
            raise ValueError("pairwise correlation must be in (-1, 1)")
        corr[0, 1] = corr[1, 0] = r
    elif dims == 3:
        triple = rho if isinstance(rho, CorrelationTriple) \
            else CorrelationTriple(*rho)
        validate_correlations(triple)
        corr[0, 1] = corr[1, 0] = triple.rho_xy
        corr[0, 2] = corr[2, 0] = triple.rho_xz
        corr[1, 2] = corr[2, 1] = triple.rho_yz
    elif dims != 1:
        raise ValueError("dims must be 1, 2 or 3")
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError as err:
        raise ValueError("correlation matrix not positive definite") from err


def _stats(samples, antithetic):
    if antithetic:
        half = len(samples) // 2
        samples = 0.5 * (samples[:half] + samples[half:])
    n = len(samples)
    mean = float(samples.mean())
    std = float(samples.std(ddof=1))
    return McEstimate(mean=mean, std_error=std / math.sqrt(n),
                      n_effective=n)


def _chunk_sizes(n_paths, antithetic):
    unit = 2 if antithetic else 1
    left = n_paths // unit
    while left > 0:
        take = min(left, _CHUNK // unit)
        yield take * unit
        left -= take


def _stack(chunks, antithetic):
    """Rows of all chunks, antithetic mates half an array apart.

    Chunks lay mates out as [g; -g], and _stats pairs sample i with
    sample i + n/2, so the first halves go before all second halves.
    """
    if antithetic:
        chunks = ([c[:len(c) // 2] for c in chunks]
                  + [c[len(c) // 2:] for c in chunks])
    return np.concatenate(chunks)


class _NormalStream:
    """The standard normals of default_rng(seed), read by stream position.

    read(lo, n) returns draws lo .. lo + n - 1. Calls must come in
    non-decreasing lo, so the draws below the last lo are dropped: the
    buffer holds only the draws of the last read that extended it.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.start = 0  # stream position of buf[0]
        self.buf = np.empty(0)

    def read(self, lo, n):
        drawn = self.start + len(self.buf)
        if lo + n > drawn:
            # normals are filled one after another, so drawing the
            # missing tail now gives the bits of one up-front draw
            self.buf = np.concatenate(
                (self.buf[lo - self.start:],
                 self._rng.standard_normal(lo + n - drawn)))
            self.start = lo
        return self.buf[lo - self.start:lo - self.start + n]


def _walker(x0s, chol_t, horizon, n_steps, cfg):
    """One step size's chunked Euler walk, as a coroutine.

    It yields the count of normals its next step reads, is sent those
    draws, and returns (first, at_first) when every chunk is walked.

    A step costs about its normal draw: crossings are tracked on
    per-driver and per-path alive flags, so nothing reduces over the
    drivers, the increments are written into one reused buffer, and a
    step's new crossings are found by flat index into the hit mask.
    An antithetic chunk multiplies its half draw g once and negates
    the product, which equals [g; -g] @ chol.T bit for bit (rounding
    is symmetric in sign).
    """
    dims = len(x0s)
    sq = math.sqrt(horizon / n_steps)
    firsts, ats = [], []
    for size in _chunk_sizes(cfg.n_paths, cfg.antithetic):
        x = np.tile(x0s, (size, 1))
        first_c = np.full((size, dims), n_steps + 1, dtype=np.int32)
        at_c = x.copy()
        alive = np.ones((size, dims), dtype=bool)
        path_alive = np.ones(size, dtype=bool)
        dw = np.empty((size, dims))
        hit = np.empty((size, dims), dtype=bool)
        n_draw = size // 2 if cfg.antithetic else size
        for k in range(1, n_steps + 1):
            g = (yield n_draw * dims).reshape(n_draw, dims)
            np.matmul(g, chol_t, out=dw[:n_draw])
            if cfg.antithetic:
                np.negative(dw[:n_draw], out=dw[n_draw:])
            dw *= sq
            x += dw
            np.less_equal(x, 0.0, out=hit)
            hit &= alive
            cells = np.flatnonzero(hit)
            if cells.size:
                first_c.ravel()[cells] = k
                alive.ravel()[cells] = False
                rows = cells // dims
                newly = rows[path_alive[rows]]
                path_alive[newly] = False
                at_c[newly] = x[newly]
        firsts.append(first_c)
        ats.append(at_c)
    return _stack(firsts, cfg.antithetic), _stack(ats, cfg.antithetic)


def _walk(x0s, rho, horizon, cfgs):
    """Chunked Euler paths of the drivers at each step size of cfgs.

    Increments are Cholesky-correlated Gaussians on a uniform grid of
    at most cfg.dt. The configs must share n_paths, seed and
    antithetic: every walk reads the one normal stream of that seed
    from its start, as a walk of its own would, so each config's
    arrays are bit for bit those of walking it alone. The walkers
    advance lowest stream position first, so the stream's buffer holds
    about one step of draws. Returns, per config in order, n_steps and,
    per path, the first step at which each driver was <= 0 (n_steps + 1
    if never) and the driver positions at the path's first crossing
    step.
    """
    if np.any(x0s <= 0):
        raise ValueError("drivers must start above the barrier")
    for cfg in cfgs:
        _check_config(cfg, horizon)
    shared = {(c.n_paths, c.seed, c.antithetic) for c in cfgs}
    if len(shared) != 1:
        raise ValueError("a ladder's configs must share n_paths, seed "
                         "and antithetic")
    chol_t = _correlation_cholesky(len(x0s), rho).T
    n_steps = [max(int(math.ceil(horizon / c.dt - 1e-12)), 50)
               for c in cfgs]
    walkers = [_walker(x0s, chol_t, horizon, n, c)
               for n, c in zip(n_steps, cfgs)]
    stream = _NormalStream(cfgs[0].seed)
    reads = {i: (0, next(w)) for i, w in enumerate(walkers)}
    out = [None] * len(cfgs)
    while reads:
        i = min(reads, key=lambda j: reads[j][0])
        lo, n = reads[i]
        try:
            reads[i] = (lo + n, walkers[i].send(stream.read(lo, n)))
        except StopIteration as done:
            del reads[i]
            out[i] = (n_steps[i],) + done.value
    return out


def simulate_survival(dims, x0s, rho, tau, cfg):
    """Fraction of Euler paths with all drivers positive at every step.

    The estimate is biased high (continuous crossings between grid
    points go unseen).
    """
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    if len(x0s) != dims:
        raise ValueError("x0s length must equal dims")
    [(n_steps, first, _)] = _walk(x0s, rho, tau, [cfg])
    return _stats((first.min(axis=1) > n_steps).astype(float),
                  cfg.antithetic)


def simulate_contract(drivers, rho, terms, cfg, recovery_seller,
                      recovery_buyer):
    """Every MC check of one contract from a single path set.

    drivers = (seller, reference, buyer) starting distances. Returns
    McEstimates keyed survival_1d (the reference never crossed),
    survival_2d (seller and reference never crossed), survival_3d (no
    driver crossed), cva_3d and dva_3d. When the seller alone crosses
    first, at step k before maturity, the path pays
    (1 - R_seller) e^(-rate t_k) V^+ into CVA, with V the closed-form
    CDS value at the reference's distance then; the buyer alone
    crossing first pays the symmetric V^- amount into DVA (reported
    positive). Same-step double crossings are resolved conservatively
    (an O(dt) tie either way): a reference crossing dominates, and a
    simultaneous seller+buyer crossing pays nothing.

    cfg may also be a ladder: a list or tuple of McConfigs that share
    n_paths, seed and antithetic, such as a Richardson pair. Its step
    sizes are walked together off one normal stream, and it returns
    one dict per config, in order, each bit for bit the dict of that
    config alone.
    """
    x0s = np.asarray(drivers, dtype=float)
    if x0s.shape != (3,):
        raise ValueError("drivers must be the three starting distances")
    ladder = not isinstance(cfg, McConfig)
    cfgs = list(cfg) if ladder else [cfg]
    outs = []
    for (n_steps, first, at_first), c in zip(
            _walk(x0s, rho, terms.maturity, cfgs), cfgs):
        out = {name: _stats((first[:, cols].min(axis=1) > n_steps)
                            .astype(float), c.antithetic)
               for name, cols in (("survival_1d", [1]),
                                  ("survival_2d", [0, 1]),
                                  ("survival_3d", [0, 1, 2]))}
        dt = terms.maturity / n_steps
        step = first.min(axis=1)
        crossed = first == step[:, None]
        tau_left = terms.maturity - np.arange(n_steps + 2) * dt
        # scalar math.exp per step: np.exp may differ in the last bit
        disc = np.array([math.exp(-terms.rate * (k * dt))
                         for k in range(n_steps + 2)])
        live = (step <= n_steps) & (tau_left[step] > 0) & ~crossed[:, 1]
        for name, leg, other, rec, sign in (
                ("cva_3d", 0, 2, recovery_seller, 1.0),
                ("dva_3d", 2, 0, recovery_buyer, -1.0)):
            pay = np.zeros(c.n_paths)
            paid = live & crossed[:, leg] & ~crossed[:, other]
            if paid.any():
                k = step[paid]
                v = cds_values_1d(tau_left[k], at_first[paid, 1], terms)
                pay[paid] = ((1.0 - rec) * disc[k]
                             * np.maximum(sign * v, 0.0))
            out[name] = _stats(pay, c.antithetic)
        outs.append(out)
    return outs if ladder else outs[0]


def simulate_cva_dva(drivers, rho, terms, cfg, recovery_seller,
                     recovery_buyer):
    """Path-wise CVA and DVA: simulate_contract's cva_3d and dva_3d."""
    est = simulate_contract(drivers, rho, terms, cfg, recovery_seller,
                            recovery_buyer)
    return est["cva_3d"], est["dva_3d"]


def richardson(fine, coarse):
    """Extrapolate away the sqrt(dt) monitoring bias.

    fine ran at half the step of coarse: with E(dt) = E0 + c sqrt(dt),
    E0 = (sqrt(2) E_fine - E_coarse) / (sqrt(2) - 1). The errors add in
    quadrature with the same weights.
    """
    k = math.sqrt(2.0)
    mean = (k * fine.mean - coarse.mean) / (k - 1.0)
    se = math.sqrt(2.0 * fine.std_error ** 2 + coarse.std_error ** 2) \
        / (k - 1.0)
    return McEstimate(mean=mean, std_error=se,
                      n_effective=min(fine.n_effective,
                                      coarse.n_effective))
