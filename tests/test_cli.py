"""End-to-end tests for the command-line interface and its exit codes."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from atomphase import (
    ConeAperture,
    DipoleOrientation,
    ParabolicMirror,
    SymmetricCoupling,
    cone_weighted_solid_angle,
    mirror_weighted_solid_angle,
    phase_symmetric,
)
from atomphase.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_symmetric_json(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--model", "symmetric",
                               "--omega-n", "1", "--eta", "1",
                               "--delta=-0.5", "--s0", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["phi_rad"] == phase_symmetric(
            SymmetricCoupling(1.0, 1.0), -0.5, 0.0).phi
        assert payload["branch"] == "generic"
        assert payload["swept_value"] is None

    def test_symmetric_csv(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--model", "symmetric",
                               "--omega-n", "1", "--eta", "1",
                               "--delta=-1", "--s0", "0", "--format", "csv")
        assert code == 0
        header, row, _ = out.split("\n")
        assert header.startswith("swept_value,delta,")
        fields = row.split(",")
        np.testing.assert_allclose(float(fields[4]), math.atan2(4.0, 3.0),
                                   rtol=1e-15)

    def test_asymmetric(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--model", "asymmetric",
                               "--omega-n", "0.94", "--eta", "0.98",
                               "--omega-n-prime", "0.88", "--eta-prime", "0.99",
                               "--p", "0.97", "--delta", "0", "--s0", "0.1")
        assert code == 0
        assert json.loads(out)["phi_deg"] == 180.0

    def test_kerr(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--model", "kerr",
                               "--omega-n", "0.94", "--eta", "0.98",
                               "--delta=-10", "--s0", "40.1")
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["s"], 0.1, rtol=1e-12)

    def test_missing_prime_flags_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--model", "asymmetric",
                               "--omega-n", "0.9", "--eta", "0.9",
                               "--delta", "0", "--s0", "0")
        assert code == 2
        assert "asymmetric" in err

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--model", "symmetric",
                               "--omega-n", "1.5", "--eta", "1",
                               "--delta", "0", "--s0", "0")
        assert code == 1
        assert "omega_n" in err

    def test_degenerate_point_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--model", "symmetric",
                               "--omega-n", "0.5", "--eta", "1",
                               "--delta", "0", "--s0", "0")
        assert code == 1
        assert "undefined" in err

    def test_kerr_pole_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--model", "kerr",
                                 "--omega-n", "0.5", "--eta", "1",
                                 "--delta", "0", "--s0", "0")
        assert (code, out) == (1, "")
        assert "pole" in err

    @pytest.mark.parametrize("model", ["symmetric", "kerr"])
    @pytest.mark.parametrize("drive", [
        ("--delta", "nan", "--s0", "0.1"),
        ("--delta", "0", "--s0", "nan"),
        ("--delta", "inf", "--s0", "0.1"),
        ("--delta", "0", "--s0", "1e308"),    # (1 + s)^2 overflows
        ("--delta", "0", "--s0=-1"),          # negative drive strength
    ])
    def test_rejected_drive_writes_nothing(self, capsys, model, drive):
        code, out, err = run_cli(capsys, "eval", "--model", model,
                                 "--omega-n", "0.5", "--eta", "0.9", *drive)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestSweep:
    def config(self, tmp_path, payload):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_csv_to_stdout(self, capsys, tmp_path):
        path = self.config(tmp_path, {
            "model": "symmetric",
            "coupling": {"omega_n": 1.0, "eta": 1.0},
            "sweep": {"var": "delta", "start": -5, "stop": 0, "count": 11,
                      "spacing": "linear"},
            "fixed": {"s0": 0.0},
        })
        code, out, _ = run_cli(capsys, "sweep", "--config", path)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 12
        last = lines[-1].split(",")
        assert float(last[1]) == 0.0
        assert float(last[5]) == 180.0

    def test_json_format(self, capsys, tmp_path):
        path = self.config(tmp_path, {
            "model": "kerr",
            "coupling": {"omega_n": 0.94, "eta": 0.98},
            "sweep": {"var": "s", "start": 0.0, "stop": 0.5, "count": 5,
                      "spacing": "linear"},
            "fixed": {"delta": -10.0},
        })
        code, out, _ = run_cli(capsys, "sweep", "--config", path, "--format",
                               "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5
        assert rows[0]["model"] == "kerr"

    def test_invalid_json_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert "JSON" in err

    def test_missing_file_is_config_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep", "--config",
                             str(tmp_path / "absent.json"))
        assert code == 2

    def test_bad_values_are_config_errors(self, capsys, tmp_path):
        path = self.config(tmp_path, {
            "model": "symmetric",
            "coupling": {"omega_n": 2.0, "eta": 1.0},
            "sweep": {"var": "delta", "start": -5, "stop": 0, "count": 11},
            "fixed": {"s0": 0.0},
        })
        code, _, _ = run_cli(capsys, "sweep", "--config", path)
        assert code == 2

    @pytest.mark.parametrize("sweep, fixed", [
        ({"var": "delta", "start": -5, "stop": math.nan, "count": 11}, {"s0": 0.0}),
        ({"var": "delta", "start": -math.inf, "stop": 0, "count": 11}, {"s0": 0.0}),
        ({"var": "delta", "start": -5, "stop": 0, "count": 11}, {"s0": math.nan}),
        ({"var": "s0", "start": 0, "stop": 1, "count": 11}, {"delta": math.inf}),
    ])
    def test_non_finite_config_writes_nothing(self, capsys, tmp_path, sweep, fixed):
        path = self.config(tmp_path, {
            "model": "symmetric", "coupling": {"omega_n": 1.0, "eta": 1.0},
            "sweep": sweep, "fixed": fixed})
        code, out, err = run_cli(capsys, "sweep", "--config", path)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_overflowing_linear_range_is_config_error(self, capsys, tmp_path):
        path = self.config(tmp_path, {
            "model": "symmetric", "coupling": {"omega_n": 1.0, "eta": 1.0},
            "sweep": {"var": "delta", "start": -1.7e308, "stop": 1.7e308, "count": 11},
            "fixed": {"s0": 0.1}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", "--config", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Warning" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("model, coupling, sweep, fixed", [
        # a bad swept coupling value only at the far end of the grid
        ("symmetric", {"omega_n": 1.0, "eta": 1.0},
         {"var": "omega_n", "start": 0, "stop": 1.5, "count": 101},
         {"delta": 0.0, "s0": 0.0}),
        ("asymmetric", {"omega_n": 1.0, "eta": 1.0, "omega_n_prime": 1.0,
                        "eta_prime": 1.0, "p": 1.0},
         {"var": "eta", "start": -0.1, "stop": 1, "count": 101},
         {"delta": 0.0, "s0": 0.0}),
        ("asymmetric", {"omega_n": 1.0, "eta": 1.0, "omega_n_prime": 1.0,
                        "eta_prime": 1.0, "p": 0.0},
         {"var": "delta", "start": -1, "stop": 1, "count": 101}, {"s0": 0.0}),
        ("kerr", {"omega_n": 1.0, "eta": 1.0},
         {"var": "s", "start": -1, "stop": 1, "count": 101}, {"delta": -1.0}),
        ("symmetric", {"omega_n": 1.0, "eta": 1.0},
         {"var": "s0", "start": 1, "stop": 1e300, "count": 101, "spacing": "log"},
         {"delta": -1.0}),
    ])
    def test_failing_sweep_writes_nothing(self, capsys, tmp_path, fmt, model,
                                          coupling, sweep, fixed):
        path = self.config(tmp_path, {"model": model, "coupling": coupling,
                                      "sweep": sweep, "fixed": fixed})
        code, out, err = run_cli(capsys, "sweep", "--config", path, "--format", fmt)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("model", ["symmetric", "kerr"])
    def test_boundary_and_pole_rows_leave_stderr_empty(self, capsys, tmp_path, fmt,
                                                       model):
        # omega_n = 0.5 at eta = 1, delta = 0, s0 = 0 is the resonance
        # boundary (symmetric) and the linear-phase pole (kerr)
        path = self.config(tmp_path, {
            "model": model, "coupling": {"omega_n": 1.0, "eta": 1.0},
            "sweep": {"var": "omega_n", "start": 0, "stop": 1, "count": 5},
            "fixed": {"delta": 0.0, "s0": 0.0}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", "--config", path,
                                     "--format", fmt)
        assert code == 0
        assert err == ""
        if fmt == "csv":
            assert out.split("\n")[3].split(",")[4:7] == ["", "", "boundary"]
        else:
            assert json.loads(out)[2]["phi_rad"] is None

    @pytest.mark.parametrize("coupling, sweep, fixed", [
        ({"omega_n": 1.0, "eta": 1.0},
         {"var": "delta", "start": -5, "stop": 0, "count": 2.9}, {"s0": 0.0}),
        ({"omega_n": 1.0, "eta": 1.0},
         {"var": "delta", "start": -5, "stop": 0, "count": "3"}, {"s0": 0.0}),
        ({"omega_n": 1.0, "eta": 1.0},
         {"var": "delta", "start": -5, "stop": 0, "count": 3}, {"s0": True}),
        ({"omega_n": True, "eta": 1.0},
         {"var": "delta", "start": -5, "stop": 0, "count": 3}, {"s0": 0.0}),
        ({"omega_n": 1.0, "eta": 1.0},
         {"var": "delta", "start": "-1", "stop": 0, "count": 3}, {"s0": 0.0}),
        # an integer too large for a float
        ({"omega_n": 1.0, "eta": 1.0},
         {"var": "delta", "start": -10**400, "stop": 0, "count": 3}, {"s0": 0.0}),
    ], ids=["fractional-count", "string-count", "bool-fixed", "bool-coupling",
            "string-start", "huge-integer-start"])
    def test_values_are_not_coerced(self, capsys, tmp_path, coupling, sweep, fixed):
        path = self.config(tmp_path, {"model": "symmetric", "coupling": coupling,
                                      "sweep": sweep, "fixed": fixed})
        code, out, err = run_cli(capsys, "sweep", "--config", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unknown_key_is_config_error(self, capsys, tmp_path):
        path = self.config(tmp_path, {
            "model": "symmetric",
            "coupling": {"omega_n": 1.0, "eta": 1.0},
            "sweep": {"var": "delta", "start": -5, "stop": 0, "count": 11},
            "fixed": {"s0": 0.0},
            "plot": True,
        })
        code, _, err = run_cli(capsys, "sweep", "--config", path)
        assert code == 2
        assert "plot" in err


class TestFigures:
    def test_fig2_writes_four_files(self, capsys, tmp_path):
        out_dir = tmp_path / "curves"
        code, out, _ = run_cli(capsys, "figures", "--name", "fig2", "--out",
                               str(out_dir))
        assert code == 0
        paths = out.strip().split("\n")
        assert len(paths) == 4
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == ["fig2-dashdot.csv", "fig2-dashed.csv",
                         "fig2-dotted.csv", "fig2-solid.csv"]
        solid = (out_dir / "fig2-solid.csv").read_text(encoding="utf-8")
        assert solid.startswith("# preset fig2-solid\n")
        data_lines = [l for l in solid.strip().split("\n")
                      if not l.startswith("#")]
        assert len(data_lines) == 1 + 501

    def test_unknown_preset_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "--name", "fig7", "--out", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_comments_record_parameters(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figures", "--name", "fig5", "--out",
                             str(tmp_path))
        assert code == 0
        text = (tmp_path / "fig5-left-kerr.csv").read_text(encoding="utf-8")
        assert "# abscissa is the detuned saturation parameter s" in text
        assert "model=kerr" in text


class TestGeometry:
    def test_cone(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "cone",
                               "--alpha", str(math.asin(0.95)),
                               "--orientation", "transverse")
        assert code == 0
        payload = json.loads(out)
        expected = cone_weighted_solid_angle(
            ConeAperture(math.asin(0.95), DipoleOrientation.TRANSVERSE))
        assert payload == {"omega_n": expected}

    def test_mirror_without_profile(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "mirror", "--f", "1",
                               "--R", "4", "--hole", "0.2")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"omega_n", "omega_n_prime"}
        expected = mirror_weighted_solid_angle(
            ParabolicMirror(1.0, 4.0, 0.2))
        assert payload["omega_n"] == expected
        np.testing.assert_allclose(payload["omega_n_prime"], 0.792, atol=1e-3)

    def test_mirror_with_flattop(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "mirror", "--f", "1",
                               "--R", "4", "--hole", "0.2",
                               "--profile", "flattop")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"omega_n", "omega_n_prime", "eta",
                                "eta_prime", "p"}
        np.testing.assert_allclose(payload["p"], 15.0 / 15.96, atol=1e-3)

    def test_mirror_with_doughnut(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "mirror", "--f", "1",
                               "--R", "20", "--hole", "0.4",
                               "--profile", "doughnut:2.36")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] > 0.95

    def test_mirror_with_matched(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "mirror", "--f", "1",
                               "--R", "20", "--hole", "0.4",
                               "--profile", "matched")
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["eta"], 1.0, atol=1e-9)

    def test_bad_profile_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "geometry", "mirror", "--f", "1",
                               "--R", "4", "--hole", "0.2",
                               "--profile", "bessel")
        assert code == 2
        assert "profile" in err

    def test_invalid_mirror_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "geometry", "mirror", "--f", "1",
                             "--R", "2", "--hole", "2")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("--f", "nan", "--R", "4", "--hole", "0.2"),
        ("--f", "1", "--R", "inf", "--hole", "0.2", "--profile", "flattop"),
        ("--f", "1", "--R", "4", "--hole", "nan", "--profile", "matched"),
        ("--f", "1", "--R", "4", "--hole", "0.2", "--profile", "doughnut:nan"),
        ("--f", "1", "--R", "4", "--hole", "0.2", "--profile", "doughnut:inf"),
    ])
    def test_non_finite_input_is_domain_error(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "geometry", "mirror", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("--f=1e160", "--R=4e160", "--hole=2e159", "--profile=doughnut:1.3e160"),
        ("--f=1e-160", "--R=4e-160", "--hole=2e-161", "--profile=doughnut:1.3e-160"),
    ])
    def test_mirror_far_from_unit_scale(self, capsys, argv):
        # every mirror result depends only on R/f, h/f and w/f
        code, out, _ = run_cli(capsys, "geometry", "mirror", *argv)
        assert code == 0
        _, unit, _ = run_cli(capsys, "geometry", "mirror", "--f=1", "--R=4", "--hole=0.2",
                             "--profile=doughnut:1.3")
        assert json.loads(out) == pytest.approx(json.loads(unit), rel=1e-12, abs=0.0)

    def test_degenerate_mirror_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "geometry", "mirror", "--f", "1",
                             "--R", "2.1", "--hole", "2.05")
        assert code == 1


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "atomphase", "eval", "--model", "symmetric",
             "--omega-n", "1", "--eta", "1", "--delta=-0.5", "--s0", "0"],
            capture_output=True, text=True)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        np.testing.assert_allclose(payload["phi_rad"], math.pi / 2.0,
                                   rtol=1e-15)

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "atomphase", "frobnicate"],
            capture_output=True, text=True)
        assert result.returncode == 2
