"""The three workloads: set-up, one round of requests, and their checks.

A request is one call into the program's public entry points, timed
from outside: tricva.cli.main for price-book and mc-validate, the
library functions for scenario-cold. A round holds the same operations
in every run, so a failing operation is the same share of every run.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tricva import cds3d, cli, domain3d, fem
from tricva.cds2d import cva_2d, survival_2d, to_wedge
from tricva.model import CdsTerms, CorrelationTriple
from tricva.specfun import gauss_legendre

import checks
import inputs

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class Outcome:
    """One request: its timed seconds and what its checks found.

    known_fault is true when every violation is the known fault of a
    fixed contract (checks.KNOWN_FAULTS); such a request counts as
    failed and leaves the run correct.
    """
    label: str
    seconds: float
    violations: list = field(default_factory=list)
    known_fault: bool = False


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _cold_eig(work, config_path, index):
    """tricva eig into a fresh cache; returns the cache and the seconds."""
    cache = work / ("cache-%d" % index)
    start = time.perf_counter()
    status = cli.main(["eig", "--config", str(config_path),
                       "--out", str(work / "setup"), "--cache", str(cache)])
    seconds = time.perf_counter() - start
    if status != 0:
        raise RuntimeError("tricva eig exited %d" % status)
    return cache, seconds


class _Timer:
    """Sums the seconds spent inside the program during one request."""

    def __init__(self, tracer):
        self.seconds = 0.0
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.active = False
        return False


class PriceBook:
    """tricva price, one contract per request, on a warm cached basis."""

    def __init__(self, seed, work):
        self.work = work
        self.contracts = inputs.book(seed)
        self.configs = []
        for i, contract in enumerate(self.contracts):
            path = work / ("price-%d.json" % i)
            _write_json(path, inputs.price_config(contract))
            self.configs.append(path)
        self.basis_config = work / "basis.json"
        _write_json(self.basis_config, inputs.basis_config(inputs.BOOK_RHO))
        self.cache = None
        self.references = [self._reference(c) for c in self.contracts]

    def _reference(self, c):
        rho_xy, _, rho_yz = inputs.BOOK_RHO
        ref = {"xy": survival_2d(c.maturity, to_wedge(c.x, c.y, rho_xy)),
               "zy": survival_2d(c.maturity, to_wedge(c.z, c.y, rho_yz)),
               "far": None}
        if c.kind == "far-buyer":
            terms = CdsTerms(maturity=c.maturity, **inputs.TERMS)
            ref["far"] = cva_2d(to_wedge(c.x, c.y, rho_xy), terms,
                                inputs.REC_SELLER)
        return ref

    def setup(self, index):
        self.cache, seconds = _cold_eig(self.work, self.basis_config, index)
        return seconds

    def round(self, tracer):
        for i, (contract, config) in enumerate(zip(self.contracts,
                                                   self.configs)):
            out = self.work / ("price-%d" % i)
            with _Timer(tracer) as timer:
                status = cli.main(["price", "--config", str(config),
                                   "--out", str(out),
                                   "--cache", str(self.cache)])
            bad = self._check(status, out, contract, i)
            yield Outcome(contract.kind, timer.seconds, bad,
                          checks.only_known_fault(contract.kind, bad))

    def _check(self, status, out, contract, i):
        if status != 0:
            return ["tricva price exited %d" % status]
        rows = _read_csv(out / "price.csv")
        if len(rows) != 1:
            return ["price.csv holds %d rows, want 1" % len(rows)]
        row = {k: float(v) for k, v in rows[0].items()}
        ref = self.references[i]
        return checks.check_price_row(
            row, contract, inputs.TERMS, inputs.REC_SELLER, inputs.REC_BUYER,
            ref["xy"], ref["zy"], ref["far"])


class ScenarioCold:
    """A fresh correlation scenario through the library, no cache."""

    def __init__(self, seed, work):
        self.work = work
        self.scenarios = inputs.scenarios(seed)

    def setup(self, index):
        # Nothing is cached between cold scenarios, so set-up is a fresh
        # interpreter's start-up and `import tricva` (numpy and scipy
        # included); the requests build everything else themselves.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tricva"], env=env,
                       check=True)
        return time.perf_counter() - start

    def round(self, tracer):
        for sc in self.scenarios:
            yield self._request(sc, tracer)

    def _request(self, sc, tracer):
        timer = _Timer(tracer)
        with timer:
            spec = domain3d.build_domain(CorrelationTriple(*sc.rho))
            mesh = domain3d.build_mesh(spec, n_points=sc.n_points, seed=0)
            basis = fem.build_basis(mesh, n_modes=inputs.SCENARIO_MODES)
            source = cds3d.transform_3d(spec, sc.x, sc.y, sc.z)
            surv = [cds3d.survival_3d(basis, float(t), source)
                    for t in range(1, 6)]
        mid_phi, mid_theta, weight = _edge_midpoints(mesh)
        tau = inputs.LATTICE_TAU
        r, r_w = gauss_legendre(inputs.LATTICE_RADII, 0.0,
                                source.r0 + 8.0 * math.sqrt(tau))
        with timer:
            density = cds3d.green_3d(basis, tau, r[:, None],
                                     mid_phi[None, :], mid_theta[None, :],
                                     source)
            surv_tau = cds3d.survival_3d(basis, tau, source)
        bad = checks.check_eigenvalues(sc.rho, basis.lam2,
                                       *fem.assemble(mesh))
        bad += checks.check_density(density, r, r_w, mid_theta, weight,
                                    surv_tau)
        if sc.rho == (0.0, 0.0, 0.0):
            bad += checks.check_octant_density(
                density, r, r_w, mid_phi, mid_theta, weight, tau,
                (sc.x, sc.y, sc.z))
        if not all(0.0 <= q <= 1.0 for q in surv) or \
                any(a < b for a, b in zip(surv, surv[1:])):
            bad.append("survival_3d not a falling probability: %r" % surv)
        return Outcome("rho=%s" % (sc.rho,), timer.seconds, bad)


def _edge_midpoints(mesh):
    """Unique mesh edges' midpoints and their midpoint-rule weights."""
    tri = mesh.triangles
    v = mesh.vertices
    p1, p2, p3 = v[tri[:, 0]], v[tri[:, 1]], v[tri[:, 2]]
    area = 0.5 * np.abs((p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1])
                        - (p3[:, 0] - p1[:, 0]) * (p2[:, 1] - p1[:, 1]))
    edges = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                    tri[:, [2, 0]]]), axis=1)
    uniq, inverse = np.unique(edges, axis=0, return_inverse=True)
    weight = np.zeros(len(uniq))
    np.add.at(weight, inverse.ravel(), np.tile(area / 3.0, 3))
    mid = 0.5 * (v[uniq[:, 0]] + v[uniq[:, 1]])
    return mid[:, 0], mid[:, 1], weight


class McValidate:
    """tricva validate on the octant, one seeded case per request."""

    def __init__(self, seed, work):
        self.work = work
        self.case = inputs.mc_case(seed)
        self.config = work / "validate.json"
        _write_json(self.config, inputs.validate_config(self.case))
        self.basis_config = work / "basis.json"
        _write_json(self.basis_config,
                    inputs.basis_config((0.0, 0.0, 0.0)))
        self.cache = None
        # the checks hold the MC rows to the tolerance validate applies
        self.tolerance_se = cli.load_config(self.config).mc["tolerance_se"]

    def setup(self, index):
        self.cache, seconds = _cold_eig(self.work, self.basis_config, index)
        return seconds

    def round(self, tracer):
        out = self.work / "validate"
        (out / "validate.csv").unlink(missing_ok=True)
        with _Timer(tracer) as timer:
            status = cli.main(["validate", "--config", str(self.config),
                               "--out", str(out),
                               "--cache", str(self.cache)])
        rows = {}
        if (out / "validate.csv").exists():
            for row in _read_csv(out / "validate.csv"):
                rows[row["check"]] = {"mc_mean": float(row["mc_mean"]),
                                      "mc_se": float(row["mc_se"])}
        yield Outcome("validate", timer.seconds, checks.check_validate(
            status, rows, self.case, inputs.MC_MATURITY, self.tolerance_se))


WORKLOADS = {"price-book": PriceBook, "scenario-cold": ScenarioCold,
             "mc-validate": McValidate}
