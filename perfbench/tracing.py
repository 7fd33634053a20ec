"""Spans and counts at the public functions of each tricva module.

The tracer replaces module attributes with wrappers, including the
names other modules imported directly (cds3d.bessel_i_scaled,
mc_oracle.cds_values_1d, cli.build_mesh, ...), so every call path into
a layer is seen. Spans (name, start, end, parent) are kept in memory
while a request runs and written out at the end; self times and counts
are derived from them. Outside a request the wrappers pass straight
through, so the benchmark's own checks are not traced.
"""

import functools
import json
import math
import time
from collections import Counter

import numpy as np


def _path_steps(cfg, tau):
    # mirrors mc_oracle's grid: ceil(tau / dt), at least 50 steps
    return cfg.n_paths * max(int(math.ceil(tau / cfg.dt - 1e-12)), 50)


def _eval_points(tracer, basis, phi, theta):
    pts = np.column_stack([np.ravel(phi), np.ravel(theta)])
    tracer.counts["fem.eval_basis.points"] += len(pts)
    tracer.counts["fem.eval_basis.distinct"] += len(np.unique(pts, axis=0))


# (module, attribute, span name or None, counter(tracer, *args, **kwargs))
def _hooks():
    from tricva import cds1d, cds2d, cds3d, cli, domain3d, fem, mc_oracle
    from tricva import specfun

    def calls(name):
        def bump(tr, *a, **k):
            tr.counts[name] += 1
        return bump

    def values_points(tr, tau, y0, terms):
        tr.counts["cds1d.cds_values_1d.points"] += np.broadcast(tau, y0).size

    def bessel(tr, nu, x):
        tr.counts["cds3d.bessel_evals"] += np.broadcast(nu, x).size

    def survival_steps(tr, dims, x0s, rho, tau, cfg):
        tr.counts["mc_oracle.path_steps"] += _path_steps(cfg, tau)

    def cva_dva_steps(tr, drivers, rho, terms, cfg, *a, **k):
        tr.counts["mc_oracle.path_steps"] += _path_steps(cfg, terms.maturity)

    return [
        (cli, "ensure_basis", "cli.ensure_basis", None),
        (domain3d, "build_mesh", "domain3d.build_mesh", None),
        (cli, "build_mesh", "domain3d.build_mesh", None),
        (domain3d, "delaunay", None, calls("domain3d.delaunay.calls")),
        (fem, "assemble", "fem.assemble", None),
        (fem, "solve_eig", "fem.solve_eig", None),
        (fem, "eval_basis", "fem.eval_basis", _eval_points),
        (cds3d, "eval_basis", "fem.eval_basis", _eval_points),
        (cds3d, "prepare_pricing", "cds3d.prepare_pricing",
         calls("cds3d.prepare_pricing.calls")),
        (cds3d, "bessel_i_scaled", None, bessel),
        (cds3d, "breakeven_coupon_3d", "cds3d.breakeven_coupon_3d", None),
        (cds3d, "green_3d", "cds3d.green_3d", None),
        (cds3d, "survival_3d", "cds3d.survival_3d", None),
        (specfun, "ln_hyp1f1_neg", None, calls("specfun.ln_hyp1f1_neg.calls")),
        (cds2d, "ln_hyp1f1_neg", None, calls("specfun.ln_hyp1f1_neg.calls")),
        (cds3d, "ln_hyp1f1_neg", None, calls("specfun.ln_hyp1f1_neg.calls")),
        (cds1d, "cds_values_1d", "cds1d.cds_values_1d", values_points),
        (cds2d, "cds_values_1d", "cds1d.cds_values_1d", values_points),
        (mc_oracle, "cds_values_1d", "cds1d.cds_values_1d", values_points),
        (cds2d, "cva_2d", "cds2d.cva_2d", calls("cds2d.cva_2d.calls")),
        (cds3d, "cva_2d", "cds2d.cva_2d", calls("cds2d.cva_2d.calls")),
        (mc_oracle, "simulate_cva_dva", "mc_oracle.simulate_cva_dva",
         cva_dva_steps),
        (mc_oracle, "simulate_survival", "mc_oracle.simulate_survival",
         survival_steps),
    ]


class Tracer:
    """In-memory spans and counters, active only inside requests."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.active = False
        self._stack = []
        self._saved = []

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counter is not None:
                counter(self, *args, **kwargs)
            if name is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
        return traced

    def install(self):
        for module, attr, name, counter in _hooks():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, counter))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def totals(self):
        """Inclusive and self seconds per span name."""
        incl = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            incl[name] += end - start
            own[name] += end - start - child[i]
        return incl, own

    def metrics(self, n_requests):
        """Per-layer figures per request, as named in BENCHMARK.json."""
        incl, own = self.totals()
        c = self.counts
        located = c["fem.eval_basis.points"]
        per = {
            "cli.ensure_basis.self_s": own["cli.ensure_basis"],
            "domain3d.build_mesh.s": incl["domain3d.build_mesh"],
            "domain3d.delaunay.calls": c["domain3d.delaunay.calls"],
            "fem.assemble.s": incl["fem.assemble"],
            "fem.solve_eig.s": incl["fem.solve_eig"],
            "fem.eval_basis.s": incl["fem.eval_basis"],
            "fem.eval_basis.points": located,
            "cds3d.prepare_pricing.s": incl["cds3d.prepare_pricing"],
            "cds3d.prepare_pricing.calls": c["cds3d.prepare_pricing.calls"],
            "cds3d.bessel_evals": c["cds3d.bessel_evals"],
            "cds3d.breakeven_coupon_3d.self_s":
                own["cds3d.breakeven_coupon_3d"],
            "cds3d.green_3d.s": incl["cds3d.green_3d"],
            "cds3d.survival_3d.s": incl["cds3d.survival_3d"],
            "specfun.ln_hyp1f1_neg.calls":
                c["specfun.ln_hyp1f1_neg.calls"],
            "cds1d.cds_values_1d.s": incl["cds1d.cds_values_1d"],
            "cds1d.cds_values_1d.points": c["cds1d.cds_values_1d.points"],
            "cds2d.cva_2d.s": incl["cds2d.cva_2d"],
            "cds2d.cva_2d.calls": c["cds2d.cva_2d.calls"],
            "mc_oracle.simulate_cva_dva.s":
                incl["mc_oracle.simulate_cva_dva"],
            "mc_oracle.simulate_survival.s":
                incl["mc_oracle.simulate_survival"],
            "mc_oracle.path_steps": c["mc_oracle.path_steps"],
        }
        out = {k: v / n_requests for k, v in per.items()}
        out["fem.eval_basis.distinct_share"] = (
            c["fem.eval_basis.distinct"] / located if located else 0.0)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)},
                      fh)
