"""Command-line surface: subcommands, exit codes, file contracts, determinism."""

import json

import numpy as np
import pytest

from slabflow.cli import main


def write_config(path, content):
    with open(path, "w") as fh:
        json.dump(content, fh)
    return str(path)


def base_config(**overrides):
    cfg = {
        "density": {"family": "combo", "alpha": -1.0, "beta": 0.042},
        "gravity": -1.0,
        "depth": 1.0,
        "grid": {"n": 2, "N": 16, "M_v": 12},
        "time": {"dt": 0.002, "horizon": 0.1, "output_interval": 10},
        "kmax": 2,
        "seed": 3,
    }
    cfg.update(overrides)
    return cfg


class TestConfigErrors:
    def test_malformed_json_no_partial_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"density": {"family": "willmore",}')
        out = tmp_path / "out"
        code = main(["--config", str(bad), "--out", str(out), "dispersion"])
        assert code == 2
        assert not (out / "dispersion.csv").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = base_config()
        cfg["viscosity"] = 2.0
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "ellipticity"]) == 2

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = base_config()
        cfg["grid"]["Nz"] = 4
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "ellipticity"]) == 2

    def test_bad_density_family(self, tmp_path):
        cfg = base_config(density={"family": "plateau"})
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "ellipticity"]) == 2

    def test_wrong_family_parameter(self, tmp_path):
        cfg = base_config(density={"family": "willmore", "sigma": 1.0})
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "ellipticity"]) == 2

    def test_invalid_grid(self, tmp_path):
        cfg = base_config()
        cfg["grid"]["N"] = 9
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "ellipticity"]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["--out", str(tmp_path), "ellipticity"]) == 2


class TestEllipticity:
    def test_elliptic_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", base_config())
        assert main(["--config", path, "--out", str(tmp_path), "ellipticity"]) == 0
        assert "strictly elliptic: True" in capsys.readouterr().out

    def test_non_elliptic_exit_three(self, tmp_path):
        beta_star = (4 * np.pi**2 + 1) / (16 * np.pi**4)
        cfg = base_config(density={"family": "combo", "alpha": -1.0,
                                    "beta": 0.99 * beta_star})
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "ellipticity"]) == 3


class TestDispersion:
    def test_row_count_and_header(self, tmp_path):
        path = write_config(tmp_path / "c.json", base_config())
        assert main(["--config", path, "--out", str(tmp_path), "dispersion"]) == 0
        lines = (tmp_path / "dispersion.csv").read_text().strip().split("\n")
        assert lines[0] == "kx,ky,lambda_min,re_lambda_2,im_lambda_2"
        # 12 conjugacy representatives with |k|_inf <= 2 plus the k = 0 row
        assert len(lines) == 1 + 13

    def test_threads_do_not_change_bytes(self, tmp_path):
        path = write_config(tmp_path / "c.json", base_config())
        main(["--config", path, "--out", str(tmp_path / "a"), "dispersion"])
        main(["--config", path, "--out", str(tmp_path / "b"), "dispersion", "--threads", "3"])
        a = (tmp_path / "a" / "dispersion.csv").read_bytes()
        b = (tmp_path / "b" / "dispersion.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, threads, capsys):
        path = write_config(tmp_path / "c.json", base_config())
        with pytest.raises(SystemExit) as exc:
            main(["--config", path, "--out", str(tmp_path), "dispersion", "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "dispersion.csv").exists()


class TestSimulate:
    def test_zero_data_flat_trace(self, tmp_path):
        path = write_config(tmp_path / "c.json", base_config())
        assert main(["--config", path, "--out", str(tmp_path), "simulate"]) == 0
        lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == "t,E_eq,D_eq,E_imp,D_imp,E_geo,mass"
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert all(v == 0.0 for v in vals[1:])
        assert (tmp_path / "trace.gnuplot").exists()

    def test_deterministic_rerun(self, tmp_path):
        cfg = base_config(initial_data={"modes": [
            {"k": [1, 0], "eta": [1e-3, 0.0], "u": [5e-4, 2e-4]}]})
        path = write_config(tmp_path / "c.json", cfg)
        main(["--config", path, "--out", str(tmp_path / "a"), "simulate"])
        main(["--config", path, "--out", str(tmp_path / "b"), "simulate"])
        assert (tmp_path / "a" / "trace.csv").read_bytes() == \
            (tmp_path / "b" / "trace.csv").read_bytes()

    def test_eigenmode_seeding(self, tmp_path):
        cfg = base_config(initial_data={"eigenmode": {"k": [1, 0], "amplitude": 1e-4}})
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "simulate"]) == 0
        lines = (tmp_path / "trace.csv").read_text().strip().split("\n")
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1] < first[1]  # E_eq decays


class TestVariations:
    def test_scalar_bending_column(self, tmp_path):
        cfg = base_config(density={"family": "scalar-willmore", "m0": 1.0},
                          variations={"eta_modes": [{"k": [1, 0], "eta": 0.5}]})
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "variations"]) == 0
        rows = (tmp_path / "variations.csv").read_text().strip().split("\n")
        assert rows[0] == "x1,x2,eta,delta_w,delta2_w_phi"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        expect = (2 * np.pi) ** 4 * np.cos(2 * np.pi * data[:, 0])
        assert np.max(np.abs(data[:, 3] - expect)) < 1e-8 * (2 * np.pi) ** 4
        assert (tmp_path / "variations_report.csv").exists()

    def test_flat_surface_zero_columns(self, tmp_path):
        cfg = base_config(density={"family": "area", "sigma": 1.0})
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "variations"]) == 0
        rows = (tmp_path / "variations.csv").read_text().strip().split("\n")
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert np.max(np.abs(data[:, 3])) < 1e-12  # delta W of the flat surface


class TestFigureForces:
    def test_requires_one_dimension(self, tmp_path):
        path = write_config(tmp_path / "c.json", base_config())
        assert main(["--config", path, "--out", str(tmp_path), "figure-forces"]) == 2

    def test_writes_profiles_with_documented_signs(self, tmp_path):
        cfg = base_config(grid={"n": 1, "N": 16, "M_v": 12},
                          figure={"profile": "both", "samples": 512})
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "figure-forces"]) == 0
        for shape in ("tanh", "gaussian"):
            text = (tmp_path / f"forces_{shape}.csv").read_text()
            assert text.startswith("#")
            rows = [r for r in text.strip().split("\n") if not r.startswith("#")]
            assert rows[0] == "x,eta,area_curvature,willmore_force,combined_force,disp_x,disp_y"
        data = np.array([[float(v) for v in r.split(",")] for r in
                         (tmp_path / "forces_gaussian.csv").read_text().strip().split("\n")[7:]])
        i0 = np.argmin(np.abs(data[:, 0]))
        assert data[i0, 2] < 0.0  # restoring curvature at the peak
        assert data[i0, 3] > 0.0  # bending force pushes the other way


class TestGeometryCheckAndValidate:
    def test_geometry_check_passes(self, tmp_path, capsys):
        # residual thresholds are stated at the desk resolution
        cfg = base_config(grid={"n": 2, "N": 32, "M_v": 24})
        path = write_config(tmp_path / "c.json", cfg)
        assert main(["--config", path, "--out", str(tmp_path), "geometry-check"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_geometry_check_flags_unconverged_grid(self, tmp_path):
        path = write_config(tmp_path / "c.json", base_config())  # coarse grid
        assert main(["--config", path, "--out", str(tmp_path), "geometry-check"]) == 4

    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out
