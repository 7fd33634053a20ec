"""End-to-end checks of the batch runner: files, caching, exit codes."""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from tricva import cds3d, cli, fem, mc_oracle


def _write_config(path, **sections):
    base = {
        "rho": {"xy": 0.0, "xz": 0.0, "yz": 0.0},
        "maturities": [1.0, 5.0],
        "mesh": {"n_points": 400},
        "series": {"n_terms": 40},
        "mc": {"n_paths": 20000, "n_steps": 50},
    }
    for name, val in sections.items():
        if isinstance(val, dict):
            base.setdefault(name, {}).update(val)
        else:
            base[name] = val
    path.write_text(json.dumps(base))
    return str(path)


def _run(tmp_path, command, config, *extra):
    return cli.main([command, "--config", config,
                     "--out", str(tmp_path / "out"),
                     "--cache", str(tmp_path / "cache"), *extra])


class TestDefaults:
    def test_prints_the_embedded_numbers(self, capsys):
        assert cli.main(["defaults"]) == cli.OK
        blob = json.loads(capsys.readouterr().out)
        assert blob["firms"]["Y"]["volatility"] == 0.1045
        assert blob["terms"]["coupon"] == 0.02
        assert blob["mesh"]["n_points"] == 1500


class TestMesh:
    def test_csv_and_quality_report(self, tmp_path, capsys):
        cfgp = _write_config(tmp_path / "c.json", mesh={"n_points": 200})
        assert _run(tmp_path, "mesh", cfgp) == cli.OK
        report = capsys.readouterr().out
        assert "min angle" in report and "triangles" in report
        lines = (tmp_path / "out" / "mesh.csv").read_text().splitlines()
        assert lines[0].startswith("# config=") and "cache=" in lines[0]
        assert lines[1] == "kind,a,b,c"
        kinds = {line.split(",")[0] for line in lines[2:]}
        assert kinds == {"vertex", "triangle"}

    def test_seed_changes_the_mesh(self, tmp_path):
        cfgp = _write_config(tmp_path / "c.json", mesh={"n_points": 200})
        _run(tmp_path, "mesh", cfgp, "--seed", "0")
        first = (tmp_path / "out" / "mesh.csv").read_text()
        _run(tmp_path, "mesh", cfgp, "--seed", "1")
        second = (tmp_path / "out" / "mesh.csv").read_text()
        _run(tmp_path, "mesh", cfgp, "--seed", "0")
        again = (tmp_path / "out" / "mesh.csv").read_text()
        assert first != second
        # the seed lands in the config hash, so identical reruns match
        assert first == again


class TestEig:
    def test_cache_hit_skips_assembly(self, tmp_path, caplog):
        cfgp = _write_config(tmp_path / "c.json",
                             mesh={"n_points": 250},
                             series={"n_terms": 12})
        with caplog.at_level(logging.INFO, logger="tricva"):
            assert _run(tmp_path, "eig", cfgp) == cli.OK
            first = (tmp_path / "out" / "eig.csv").read_bytes()
            assert "cache hit" not in caplog.text
            assert _run(tmp_path, "eig", cfgp) == cli.OK
        assert "cache hit" in caplog.text
        assert "skipping assembly" in caplog.text
        assert (tmp_path / "out" / "eig.csv").read_bytes() == first

    def test_seed_change_hits_the_cache(self, tmp_path, caplog):
        # uniform meshes ignore mesh.seed, so it is not part of the key
        cfgp = _write_config(tmp_path / "c.json",
                             mesh={"n_points": 200},
                             series={"n_terms": 10})
        with caplog.at_level(logging.INFO, logger="tricva"):
            assert _run(tmp_path, "eig", cfgp, "--seed", "0") == cli.OK
            first = (tmp_path / "out" / "eig.csv").read_text()
            assert "cache hit" not in caplog.text
            assert _run(tmp_path, "eig", cfgp, "--seed", "1") == cli.OK
            second = (tmp_path / "out" / "eig.csv").read_text()
        assert "cache hit" in caplog.text
        assert len(list((tmp_path / "cache").glob("eig-*.npz"))) == 1
        assert first.splitlines()[1:] == second.splitlines()[1:]

    def test_cache_holds_boundary_rows_not_matrices(self, tmp_path):
        cfgp = _write_config(tmp_path / "c.json",
                             mesh={"n_points": 250},
                             series={"n_terms": 12})
        assert _run(tmp_path, "eig", cfgp) == cli.OK
        (path,) = (tmp_path / "cache").glob("eig-*.npz")
        with np.load(path) as data:
            n = len(data["vertices"])
            n_boundary = int(data["boundary_mask"].sum())
            shapes = {name: data[name].shape for name in data.files}
        assert (n, n) not in shapes.values()
        assert shapes["boundary_residual"] == (n_boundary, 12)

    def test_octant_ground_eigenvalue_near_twelve(self, tmp_path):
        cfgp = _write_config(tmp_path / "c.json",
                             mesh={"n_points": 700},
                             series={"n_terms": 5})
        assert _run(tmp_path, "eig", cfgp) == cli.OK
        lines = (tmp_path / "out" / "eig.csv").read_text().splitlines()
        assert lines[1] == "n,lambda2"
        lam2 = [float(line.split(",")[1]) for line in lines[2:]]
        assert len(lam2) == 5
        assert 11.5 < lam2[0] < 13.0
        assert lam2 == sorted(lam2)


class TestPrice:
    def test_columns_and_byte_identical_rerun(self, tmp_path):
        cfgp = _write_config(tmp_path / "c.json",
                             rho={"xy": 0.8, "xz": 0.5, "yz": 0.3})
        assert _run(tmp_path, "price", cfgp) == cli.OK
        first = (tmp_path / "out" / "price.csv").read_bytes()
        assert _run(tmp_path, "price", cfgp) == cli.OK
        assert (tmp_path / "out" / "price.csv").read_bytes() == first
        lines = first.decode().splitlines()
        assert lines[1] == ("maturity,bec_1d,bec_cva_only,bec_dva_only,"
                            "bec_bilateral,cva,dva,survival_3d")
        rows = [line.split(",") for line in lines[2:]]
        assert [float(r[0]) for r in rows] == [1.0, 5.0]
        for r in rows:
            vals = dict(zip(lines[1].split(","), map(float, r)))
            # risky seller cheapens protection, risky buyer raises it
            assert vals["bec_cva_only"] < vals["bec_1d"]
            assert vals["bec_dva_only"] > vals["bec_cva_only"]
            assert vals["cva"] >= 0.0 and vals["dva"] >= 0.0
            assert 0.0 < vals["survival_3d"] < 1.0

    def test_one_pricing_grid_per_maturity(self, tmp_path, monkeypatch):
        built = []
        prepare = cds3d.prepare_pricing

        def counted(*args, **kwargs):
            built.append(args[2].maturity)
            return prepare(*args, **kwargs)

        monkeypatch.setattr(cds3d, "prepare_pricing", counted)
        rho = {"xy": 0.8, "xz": 0.5, "yz": 0.3}
        cfgp = _write_config(tmp_path / "c.json", rho=rho)
        assert _run(tmp_path, "price", cfgp) == cli.OK
        assert built == [1.0, 5.0]
        # a buyer 20 from its barrier, past z > 4 sqrt(T) at both
        # maturities, is priced on the two-name wedge: its grids evaluate
        # no three-name kernel, and no DVA leg moves the bilateral coupon
        # off the CVA-only one
        kernels = []
        kernel = cds3d._radial_kernel

        def recorded(*args, **kwargs):
            kernels.append(args[1])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(cds3d, "_radial_kernel", recorded)
        far = _write_config(tmp_path / "f.json", rho=rho,
                            firms={"Z": {"equity": 1.26,
                                         "volatility": 0.063}})
        assert _run(tmp_path, "price", far) == cli.OK
        assert kernels == []
        lines = (tmp_path / "out" / "price.csv").read_text().splitlines()
        assert len(lines) == 4
        for line in lines[2:]:
            vals = dict(zip(lines[1].split(","), line.split(",")))
            assert vals["bec_bilateral"] == vals["bec_cva_only"]
            assert float(vals["dva"]) == 0.0

    def test_deeper_cache_prices_its_leading_modes(self, tmp_path, caplog):
        # a cache holding more modes than asked is cut to the first ones:
        # the prices are those of the cached basis truncated, bit for bit
        cfgp = _write_config(tmp_path / "c.json",
                             rho={"xy": 0.8, "xz": 0.5, "yz": 0.3})
        assert _run(tmp_path, "eig", cfgp, "--terms", "60") == cli.OK
        with caplog.at_level(logging.INFO, logger="tricva"):
            assert _run(tmp_path, "price", cfgp, "--terms", "40") == cli.OK
        assert "cache hit" in caplog.text
        cfg = cli.load_config(cfgp, terms=60)
        spec, deep, _ = cli.ensure_basis(cfg, tmp_path / "cache")
        assert deep.n_modes == 60
        basis = fem.truncate_basis(deep, 40)
        x0, y0, z0 = cfg.drivers
        source = cds3d.transform_3d(spec, x0, y0, z0)
        lines = (tmp_path / "out" / "price.csv").read_text().splitlines()
        assert len(lines) == 2 + len(cfg.maturities)
        for line, mat in zip(lines[2:], cfg.maturities):
            p = cds3d.price_3d(basis, source,
                               replace(cfg.terms, maturity=mat),
                               cfg.firms["X"].recovery,
                               cfg.firms["Z"].recovery,
                               **cfg.quadrature)
            want = [mat, p.bec_1d, p.bec_cva_only, p.bec_dva_only,
                    p.bec_bilateral, p.cva, p.dva,
                    cds3d.survival_3d(basis, mat, source)]
            assert [float(c) for c in line.split(",")] == want
        assert _run(tmp_path, "eig", cfgp, "--terms", "40") == cli.OK
        rows = (tmp_path / "out" / "eig.csv").read_text().splitlines()[2:]
        assert len(rows) == 40


class TestValidate:
    def test_passes_then_fails_when_forced_tight(self, tmp_path, capsys):
        cfgp = _write_config(tmp_path / "c.json",
                             rho={"xy": 0.8, "xz": 0.5, "yz": 0.3})
        assert _run(tmp_path, "validate", cfgp) == cli.OK
        table = capsys.readouterr().out
        assert "survival_3d" in table and "pass" in table
        tight = _write_config(tmp_path / "t.json",
                              rho={"xy": 0.8, "xz": 0.5, "yz": 0.3},
                              mc={"n_paths": 20000, "n_steps": 50,
                                  "tolerance_se": 0.01})
        assert _run(tmp_path, "validate", tight) == cli.FAIL_VALIDATION
        report = (tmp_path / "out" / "validate.csv").read_text()
        assert "fail" in report
        header = report.splitlines()[1]
        assert header == "check,model,mc_mean,mc_se,n_se,status"


class TestMcCommand:
    def test_writes_all_levels(self, tmp_path):
        cfgp = _write_config(tmp_path / "c.json")
        assert _run(tmp_path, "mc", cfgp) == cli.OK
        lines = (tmp_path / "out" / "mc.csv").read_text().splitlines()
        assert lines[1] == "quantity,level,mean,std_error,n_effective"
        levels = {line.split(",")[1] for line in lines[2:]}
        assert levels == {"coarse", "fine", "richardson"}

    def test_one_walk_per_step_size(self, tmp_path, monkeypatch):
        walk = mc_oracle._walk
        steps = []

        def counted(x0s, rho, horizon, cfg):
            steps.append(round(horizon / cfg.dt))
            return walk(x0s, rho, horizon, cfg)

        monkeypatch.setattr(mc_oracle, "_walk", counted)
        cfgp = _write_config(tmp_path / "c.json")
        assert _run(tmp_path, "mc", cfgp) == cli.OK
        assert steps == [50, 100]


class TestExitCodes:
    def test_degenerate_correlation_is_a_config_error(self, tmp_path,
                                                      capsys):
        cfgp = _write_config(tmp_path / "c.json",
                             rho={"xy": 0.9, "xz": 0.9, "yz": -0.9})
        assert _run(tmp_path, "mesh", cfgp) == cli.FAIL_CONFIG
        assert "correlation" in capsys.readouterr().err

    def test_out_of_range_correlation(self, tmp_path, capsys):
        cfgp = _write_config(tmp_path / "c.json", rho={"xy": 1.5})
        assert _run(tmp_path, "eig", cfgp) == cli.FAIL_CONFIG
        assert "rho_xy" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"coupon_frequency": 4}')
        assert _run(tmp_path, "eig", str(path)) == cli.FAIL_CONFIG
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{maturity: five}")
        assert _run(tmp_path, "eig", str(path)) == cli.FAIL_CONFIG
        assert "JSON" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert _run(tmp_path, "eig",
                    str(tmp_path / "absent.json")) == cli.FAIL_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_impossible_mode_count_is_numeric(self, tmp_path, capsys):
        cfgp = _write_config(tmp_path / "c.json",
                             mesh={"n_points": 50},
                             series={"n_terms": 160})
        assert _run(tmp_path, "eig", cfgp) == cli.FAIL_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    def test_wrong_type_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"mesh": {"n_points": "plenty"}}')
        assert _run(tmp_path, "eig", str(path)) == cli.FAIL_CONFIG
        assert "number" in capsys.readouterr().err

    def test_fractional_integer_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        for section, key in (("mesh", "n_points"), ("series", "n_terms"),
                             ("mc", "n_paths")):
            path.write_text(json.dumps({section: {key: 1500.7}}))
            with pytest.raises(cli.ConfigError,
                               match="%s.%s' must be an integer"
                               % (section, key)):
                cli.load_config(str(path))
        path.write_text(json.dumps({"mesh": {"n_points": 1500.0},
                                    "series": {"n_terms": 40}}))
        cfg = cli.load_config(str(path))
        assert cfg.mesh["n_points"] == 1500
        assert isinstance(cfg.mesh["n_points"], int)

    @pytest.mark.parametrize("config", [
        {"firms": {"X": {"equity": float("nan")}}},
        {"maturities": [float("inf")]},
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, config):
        # json reads the NaN and Infinity literals that json.dumps writes
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert _run(tmp_path, "price", str(path)) == cli.FAIL_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))
        assert not list(tmp_path.rglob("*.npz"))
