"""Batch front end: mesh, eigensolve with caching, price, validate.

Outputs are CSV only; plotting belongs to external tools. Every file
opens with a comment line recording the resolved-config hash and the
eigenbasis cache key, and the same config plus seed reproduces each
file byte for byte. Progress and cache messages go to stderr.
"""

import argparse
import csv
import hashlib
import json
import logging
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import cds3d, fem, mc_oracle
from .cds1d import breakeven_coupon_1d, survival_1d
from .cds2d import survival_2d, to_wedge
from .domain3d import SurfaceMesh, build_domain, build_mesh
from .model import (CdsTerms, CorrelationTriple, FirmInput,
                    distance_to_default, validate_correlations)

log = logging.getLogger("tricva")

OK, FAIL_VALIDATION, FAIL_CONFIG, FAIL_NUMERIC = 0, 1, 2, 3

# npz cache layout, part of the cache key: bump it whenever the stored
# arrays change, or the mesher gives a config different vertices
_CACHE_LAYOUT = 5

# Table-1 style inputs: initial value is the log distance ln(a0/l0),
# converted to driver units by each firm's volatility.
_DEFAULTS = {
    "initial_value_is_distance": True,
    "firms": {
        "X": {"equity": 0.0359, "liabilities": 1.0,
              "volatility": 0.0244, "recovery": 0.50},
        "Y": {"equity": 0.3035, "liabilities": 1.0,
              "volatility": 0.1045, "recovery": 0.40},
        "Z": {"equity": 0.1199, "liabilities": 1.0,
              "volatility": 0.0630, "recovery": 0.40},
    },
    "rho": {"xy": 0.0, "xz": 0.0, "yz": 0.0},
    "terms": {"maturity": 5.0, "coupon": 0.02, "rate": 0.02,
              "recovery": 0.40},
    "maturities": [1.0, 2.0, 3.0, 4.0, 5.0],
    "mesh": {"n_points": 1500, "seed": 0},
    "series": {"n_terms": 160},
    "quadrature": {"n_time": 48, "n_radial": 200},
    "mc": {"n_paths": 100000, "n_steps": 200, "seed": 7,
           "antithetic": True, "tolerance_se": 3.0},
}


class ConfigError(ValueError):
    """Bad config file or flag: schema, types, or module invariants."""


def _finite_number(val):
    # json.load reads NaN and Infinity as floats, and integers of any size
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _merge(base, override, path=""):
    out = dict(base)
    for key, val in override.items():
        if key not in base:
            raise ConfigError("unknown config key %r" % (path + key))
        cur = base[key]
        if isinstance(cur, dict):
            if not isinstance(val, dict):
                raise ConfigError("%r must be an object" % (path + key))
            out[key] = _merge(cur, val, path + key + ".")
        elif isinstance(cur, bool):
            if not isinstance(val, bool):
                raise ConfigError("%r must be a boolean" % (path + key))
            out[key] = val
        elif isinstance(cur, (int, float)):
            if not _finite_number(val):
                raise ConfigError("%r must be a finite number" % (path + key))
            if isinstance(cur, int) and val != int(val):
                raise ConfigError("%r must be an integer" % (path + key))
            out[key] = type(cur)(val)
        elif isinstance(cur, list):
            if (not isinstance(val, list) or not val
                    or not all(_finite_number(v) for v in val)):
                raise ConfigError("%r must be a non-empty list of finite "
                                  "numbers" % (path + key))
            out[key] = [float(v) for v in val]
    return out


@dataclass(frozen=True)
class RunConfig:
    """Resolved batch inputs: firms, correlations, terms, and knobs."""
    raw: dict
    firms: dict
    drivers: tuple
    corr: CorrelationTriple
    terms: CdsTerms
    maturities: tuple

    @property
    def mesh(self):
        return self.raw["mesh"]

    @property
    def series(self):
        return self.raw["series"]

    @property
    def quadrature(self):
        return self.raw["quadrature"]

    @property
    def mc(self):
        return self.raw["mc"]


def load_config(path=None, points=None, terms=None, seed=None):
    """Merge defaults, file, and flag overrides; re-check invariants."""
    raw = json.loads(json.dumps(_DEFAULTS))
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as err:
            raise ConfigError("cannot read config: %s" % err) from err
        except json.JSONDecodeError as err:
            raise ConfigError("config is not valid JSON: %s" % err) from err
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        raw = _merge(raw, user)
    if points is not None:
        raw["mesh"]["n_points"] = int(points)
    if terms is not None:
        raw["series"]["n_terms"] = int(terms)
    if seed is not None:
        raw["mesh"]["seed"] = int(seed)
        raw["mc"]["seed"] = int(seed)

    try:
        firms = {name: FirmInput(**raw["firms"][name]) for name in "XYZ"}
        dist = raw["initial_value_is_distance"]
        drivers = tuple(distance_to_default(firms[n], dist).x0
                        for n in "XYZ")
        corr = CorrelationTriple(rho_xy=raw["rho"]["xy"],
                                 rho_xz=raw["rho"]["xz"],
                                 rho_yz=raw["rho"]["yz"])
        validate_correlations(corr)
        terms_obj = CdsTerms(**raw["terms"])
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err

    mats = raw["maturities"]
    if any(m <= 0 for m in mats):
        raise ConfigError("maturities must be positive")
    if raw["mesh"]["n_points"] < 50:
        raise ConfigError("mesh.n_points must be at least 50")
    if raw["series"]["n_terms"] < 1:
        raise ConfigError("series.n_terms must be positive")
    if raw["quadrature"]["n_time"] < 4 or raw["quadrature"]["n_radial"] < 8:
        raise ConfigError("quadrature nodes too few to integrate the legs")
    if raw["mc"]["n_paths"] < 10000:
        raise ConfigError("mc.n_paths must be at least 1e4")
    if raw["mc"]["n_steps"] < 50:
        raise ConfigError("mc.n_steps must be at least 50")
    if raw["mc"]["tolerance_se"] <= 0:
        raise ConfigError("mc.tolerance_se must be positive")
    return RunConfig(raw=raw, firms=firms, drivers=drivers, corr=corr,
                     terms=terms_obj, maturities=tuple(sorted(mats)))


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg):
    return hashlib.sha256(_canonical(cfg.raw).encode()).hexdigest()[:16]


def cache_key(cfg):
    """Identity of the eigenbasis inputs: geometry and mesh.

    layout numbers the npz contents, so entries of an older layout are
    never read. mesh.seed is left out: the mesher ignores it.
    """
    sub = {"layout": _CACHE_LAYOUT,
           "rho": cfg.raw["rho"], "n_points": cfg.mesh["n_points"]}
    return hashlib.sha256(_canonical(sub).encode()).hexdigest()[:16]


def _basis_from_npz(data):
    mesh = SurfaceMesh(vertices=data["vertices"],
                       triangles=data["triangles"],
                       boundary_mask=data["boundary_mask"],
                       h0=float(data["h0"]))
    return fem.EigenBasis(mesh=mesh, lam2=data["lam2"], psi=data["psi"],
                          s_n=data["s_n"],
                          boundary_residual=data["boundary_residual"])


def ensure_basis(cfg, cache_dir):
    """Load the eigenbasis from cache or build and store it.

    The basis returned holds series.n_terms modes: a cache entry with
    more is cut to its first ones (fem.truncate_basis).
    """
    key = cache_key(cfg)
    want = cfg.series["n_terms"]
    path = Path(cache_dir) / ("eig-%s.npz" % key)
    if path.exists():
        with np.load(path) as data:
            if int(data["n_modes"]) >= want:
                log.info("cache hit %s: skipping assembly and eigensolve",
                         key)
                basis = fem.truncate_basis(_basis_from_npz(data), want)
                return build_domain(cfg.corr), basis, key
        log.info("cache entry %s holds too few modes; rebuilding", key)
    spec = build_domain(cfg.corr)
    mesh = build_mesh(spec, n_points=cfg.mesh["n_points"])
    basis = fem.build_basis(mesh, n_modes=want)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, vertices=mesh.vertices,
                        triangles=mesh.triangles,
                        boundary_mask=mesh.boundary_mask, h0=mesh.h0,
                        lam2=basis.lam2, psi=basis.psi, s_n=basis.s_n,
                        boundary_residual=basis.boundary_residual,
                        n_modes=basis.n_modes)
    log.info("cached eigenbasis %s (%d modes)", key, basis.n_modes)
    return spec, basis, key


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, cfg, key, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write("# config=%s cache=%s\n" % (config_hash(cfg), key))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else _fmt(c)
                             for c in row])
    log.info("wrote %s", path)


def _triangle_min_angles(mesh):
    v = mesh.vertices[mesh.triangles]
    out = np.full(len(v), np.pi)
    for i in range(3):
        a = v[:, i] - v[:, (i + 1) % 3]
        b = v[:, i] - v[:, (i + 2) % 3]
        cosang = (a * b).sum(axis=1) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        out = np.minimum(out, np.arccos(np.clip(cosang, -1.0, 1.0)))
    return np.degrees(out)


def cmd_mesh(cfg, out_dir, cache_dir):
    spec = build_domain(cfg.corr)
    mesh = build_mesh(spec, n_points=cfg.mesh["n_points"])
    rows = [("vertex", p, t, int(b)) for (p, t), b
            in zip(mesh.vertices, mesh.boundary_mask)]
    rows += [("triangle", int(i), int(j), int(k))
             for i, j, k in mesh.triangles]
    _write_csv(Path(out_dir) / "mesh.csv", cfg, cache_key(cfg),
               ("kind", "a", "b", "c"), rows)
    ang = _triangle_min_angles(mesh)
    edges = mesh.edge_lengths()
    print("mesh quality: %d vertices, %d triangles, h0=%.4f"
          % (len(mesh.vertices), len(mesh.triangles), mesh.h0))
    print("min angle deg: worst %.2f, p05 %.2f, mean %.2f"
          % (ang.min(), float(np.percentile(ang, 5)), ang.mean()))
    print("edge length: mean %.4f, max/min %.2f"
          % (edges.mean(), edges.max() / edges.min()))
    return OK


def cmd_eig(cfg, out_dir, cache_dir):
    _, basis, key = ensure_basis(cfg, cache_dir)
    rows = [(i + 1, lam2) for i, lam2 in enumerate(basis.lam2)]
    _write_csv(Path(out_dir) / "eig.csv", cfg, key, ("n", "lambda2"), rows)
    return OK


def cmd_price(cfg, out_dir, cache_dir):
    spec, basis, key = ensure_basis(cfg, cache_dir)
    source = cds3d.transform_3d(spec, *cfg.drivers)
    rec_s = cfg.firms["X"].recovery
    rec_b = cfg.firms["Z"].recovery
    quad = cfg.quadrature
    rows = []
    for mat in cfg.maturities:
        p = cds3d.price_3d(basis, source, replace(cfg.terms, maturity=mat),
                           rec_s, rec_b, n_time=quad["n_time"],
                           n_radial=quad["n_radial"])
        rows.append((mat, p.bec_1d, p.bec_cva_only, p.bec_dva_only,
                     p.bec_bilateral, p.cva, p.dva,
                     cds3d.survival_3d(basis, mat, source)))
    _write_csv(Path(out_dir) / "price.csv", cfg, key,
               ("maturity", "bec_1d", "bec_cva_only", "bec_dva_only",
                "bec_bilateral", "cva", "dva", "survival_3d"), rows)
    return OK


def _mc_runs(cfg):
    """Coarse, fine, and extrapolated MC estimates for the checks."""
    mc = cfg.mc
    rho = (cfg.corr.rho_xy, cfg.corr.rho_xz, cfg.corr.rho_yz)
    out = {}
    for label, steps in (("coarse", mc["n_steps"]),
                         ("fine", 2 * mc["n_steps"])):
        conf = mc_oracle.McConfig(n_paths=mc["n_paths"],
                                  dt=cfg.terms.maturity / steps,
                                  seed=mc["seed"],
                                  antithetic=mc["antithetic"])
        out[label] = mc_oracle.simulate_contract(
            cfg.drivers, rho, cfg.terms, conf,
            recovery_seller=cfg.firms["X"].recovery,
            recovery_buyer=cfg.firms["Z"].recovery)
    out["richardson"] = {
        name: mc_oracle.richardson(out["fine"][name], out["coarse"][name])
        for name in out["fine"]}
    return out


def cmd_mc(cfg, out_dir, cache_dir):
    runs = _mc_runs(cfg)
    rows = []
    for label in ("coarse", "fine", "richardson"):
        for name in ("survival_1d", "survival_2d", "survival_3d",
                     "cva_3d", "dva_3d"):
            est = runs[label][name]
            rows.append((name, label, est.mean, est.std_error,
                         est.n_effective))
    _write_csv(Path(out_dir) / "mc.csv", cfg, cache_key(cfg),
               ("quantity", "level", "mean", "std_error", "n_effective"),
               rows)
    return OK


def cmd_validate(cfg, out_dir, cache_dir):
    spec, basis, key = ensure_basis(cfg, cache_dir)
    x0, y0, z0 = cfg.drivers
    source = cds3d.transform_3d(spec, x0, y0, z0)
    tau = cfg.terms.maturity
    quad = cfg.quadrature
    grid = cds3d.prepare_pricing(basis, source, cfg.terms,
                                 n_time=quad["n_time"],
                                 n_radial=quad["n_radial"])
    model = {
        "survival_1d": survival_1d(tau, y0),
        "survival_2d": survival_2d(tau, to_wedge(x0, y0,
                                                 cfg.corr.rho_xy)),
        "survival_3d": cds3d.survival_3d(basis, tau, source),
        "cva_3d": cds3d.cva_3d(grid, cfg.terms, cfg.firms["X"].recovery),
        "dva_3d": cds3d.dva_3d(grid, cfg.terms, cfg.firms["Z"].recovery),
    }
    extrap = _mc_runs(cfg)["richardson"]
    tol = cfg.mc["tolerance_se"]
    rows = []
    all_ok = True
    for name in ("survival_1d", "survival_2d", "survival_3d", "cva_3d",
                 "dva_3d"):
        est = extrap[name]
        n_se = abs(model[name] - est.mean) / est.std_error
        ok = n_se <= tol
        all_ok &= ok
        rows.append((name, model[name], est.mean, est.std_error, n_se,
                     "pass" if ok else "fail"))
    _write_csv(Path(out_dir) / "validate.csv", cfg, key,
               ("check", "model", "mc_mean", "mc_se", "n_se", "status"),
               rows)
    print("%-12s %12s %12s %10s %7s %s"
          % ("check", "model", "mc_mean", "mc_se", "n_se", "status"))
    for name, mod, mean, se, n_se, status in rows:
        print("%-12s %12.6f %12.6f %10.6f %7.2f %s"
              % (name, mod, mean, se, n_se, status))
    return OK if all_ok else FAIL_VALIDATION


def cmd_defaults(cfg, out_dir, cache_dir):
    print(json.dumps(_DEFAULTS, indent=2, sort_keys=True))
    return OK


_COMMANDS = {"mesh": cmd_mesh, "eig": cmd_eig, "price": cmd_price,
             "validate": cmd_validate, "mc": cmd_mc,
             "defaults": cmd_defaults}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tricva",
        description="CDS counterparty-risk batch runner; CSV outputs")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config; defaults fill missing keys")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory for CSV files")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override mc.seed and mesh.seed; the "
                             "mesher ignores mesh.seed")
    parser.add_argument("--terms", type=int, metavar="N",
                        help="override series.n_terms")
    parser.add_argument("--points", type=int, metavar="N",
                        help="override mesh.n_points")
    parser.add_argument("--cache", metavar="DIR",
                        help="eigenbasis cache directory (default OUT/cache)")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(name)s: %(message)s")
    try:
        cfg = load_config(args.config, points=args.points,
                          terms=args.terms, seed=args.seed)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return FAIL_CONFIG
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(args.cache) if args.cache else out_dir / "cache"
    try:
        return _COMMANDS[args.command](cfg, out_dir, cache_dir)
    except (ArithmeticError, np.linalg.LinAlgError, ValueError) as err:
        print("numeric failure: %s" % err, file=sys.stderr)
        return FAIL_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
