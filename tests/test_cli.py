"""End-to-end tests for the command-line interface and its exit codes."""

import gc
import json
import math
import os
import subprocess
import sys
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest

import atomphase
from atomphase import (
    AsymmetricCoupling,
    ConeAperture,
    DipoleOrientation,
    DomainError,
    ParabolicMirror,
    SymmetricCoupling,
    cone_weighted_solid_angle,
    evaluate_point,
    mirror_weighted_solid_angle,
    phase_asymmetric,
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
         {"var": "delta", "start": -5, "stop": 0, "count": True}, {"s0": 0.0}),
        ({"omega_n": 1.0, "eta": 1.0},
         {"var": "delta", "start": -5, "stop": 0, "count": None}, {"s0": 0.0}),
        ({"omega_n": 1.0, "eta": 1.0},
         {"var": "delta", "start": -5, "stop": 0, "count": 2.0}, {"s0": 0.0}),
        ({"omega_n": 1.0, "eta": 1.0},
         {"var": "delta", "start": -5, "stop": 0, "count": 3}, {"s0": True}),
        ({"omega_n": True, "eta": 1.0},
         {"var": "delta", "start": -5, "stop": 0, "count": 3}, {"s0": 0.0}),
        ({"omega_n": 1.0, "eta": 1.0},
         {"var": "delta", "start": "-1", "stop": 0, "count": 3}, {"s0": 0.0}),
        # an integer too large for a float
        ({"omega_n": 1.0, "eta": 1.0},
         {"var": "delta", "start": -10**400, "stop": 0, "count": 3}, {"s0": 0.0}),
    ], ids=["fractional-count", "string-count", "bool-count", "null-count",
            "integral-float-count", "bool-fixed", "bool-coupling",
            "string-start", "huge-integer-start"])
    def test_values_are_not_coerced(self, capsys, tmp_path, coupling, sweep, fixed):
        path = self.config(tmp_path, {"model": "symmetric", "coupling": coupling,
                                      "sweep": sweep, "fixed": fixed})
        code, out, err = run_cli(capsys, "sweep", "--config", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_zero_p_reports_the_library_message(self, capsys, tmp_path):
        coupling = {"omega_n": 0.9, "eta": 0.9, "omega_n_prime": 0.9, "eta_prime": 0.9,
                    "p": 0.0}
        path = self.config(tmp_path, {
            "model": "asymmetric", "coupling": coupling,
            "sweep": {"var": "delta", "start": -1, "stop": 1, "count": 3},
            "fixed": {"s0": 0.1}})
        code, out, err = run_cli(capsys, "sweep", "--config", path)
        messages = {err}
        for call in (phase_asymmetric, partial(evaluate_point, "asymmetric")):
            with pytest.raises(DomainError) as info:
                call(AsymmetricCoupling(**coupling), -1.0, 0.1)
            messages.add(f"error: {info.value}\n")
        assert code == 1 and out == ""
        assert messages == {"error: p must be positive for a defined phase\n"}

    def test_too_many_points_is_config_error(self, capsys, tmp_path):
        path = self.config(tmp_path, {
            "model": "symmetric", "coupling": {"omega_n": 1.0, "eta": 1.0},
            "sweep": {"var": "delta", "start": -5, "stop": 0, "count": 10**12},
            "fixed": {"s0": 0.0}})
        # refused while the config is read: no grid is ever built
        with mock.patch("atomphase.cli.write_sweep", side_effect=AssertionError):
            code, out, err = run_cli(capsys, "sweep", "--config", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(10**8) in err

    @pytest.mark.parametrize("text", [
        b"\xff\xfe{}",
        b'{"model": "symmetric", "sweep": {"stop": ' + b"9" * 5000 + b"}}",
    ], ids=["not-utf-8", "integer-over-4300-digits"])
    def test_unparsable_config_is_config_error(self, capsys, tmp_path, text):
        path = tmp_path / "sweep.json"
        path.write_bytes(text)
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_integer_past_the_float_range_names_its_key(self, capsys, tmp_path):
        path = self.config(tmp_path, {
            "model": "symmetric", "coupling": {"omega_n": 1.0, "eta": 1.0},
            "sweep": {"var": "delta", "start": -5, "stop": 10**400, "count": 11},
            "fixed": {"s0": 0.0}})
        code, out, err = run_cli(capsys, "sweep", "--config", path)
        assert code == 2 and out == ""
        assert err.startswith("error: stop ")

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

    @pytest.mark.parametrize("argv", [
        ("--f", "1", "--R", "5e-324", "--hole", "0"),
        ("--f", "4.189465174920426e-12", "--R", "1.5062745567398403e+297",
         "--hole", "1", "--profile", "flattop"),
    ], ids=["underflow", "overflow"])
    def test_aperture_ratio_past_the_float_range(self, capsys, argv):
        # 0.5 R / f rounded to 0 (a ZeroDivisionError traceback) or to inf
        code, out, err = run_cli(capsys, "geometry", "mirror", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: 0.5 aperture_radius / focal_length")
        assert err.count("\n") == 1


SWEEP_CONFIG = {"model": "symmetric", "coupling": {"omega_n": 1.0, "eta": 1.0},
                "sweep": {"var": "delta", "start": -5, "stop": 0, "count": 11},
                "fixed": {"s0": 0.0}}
ASYMMETRIC_COUPLING = {"omega_n": 1.0, "eta": 1.0, "omega_n_prime": 1.0,
                       "eta_prime": 1.0, "p": 1.0}
EVAL = ("eval", "--omega-n", "1", "--eta", "1", "--delta", "0", "--s0", "0")


@pytest.mark.parametrize("argv, config, message", [
    (EVAL + ("--model", "symmetric", "--p", "1"), None, "only apply to the asymmetric"),
    (EVAL + ("--model", "kerr", "--eta-prime", "1"), None, "only apply to the asymmetric"),
    (("geometry", "mirror", "--f", "1", "--R", "4", "--hole", "0.2",
      "--profile", "doughnut:abc"), None, "bad doughnut waist"),
    (None, [SWEEP_CONFIG], "config must be a JSON object"),
    (None, {k: v for k, v in SWEEP_CONFIG.items() if k != "sweep"},
     "missing or malformed config section"),
    (None, {**SWEEP_CONFIG, "coupling": 3}, "missing or malformed config section"),
    (None, {**SWEEP_CONFIG, "fixed": [0.0]}, "'fixed' must be an object"),
    (None, {**SWEEP_CONFIG, "sweep": {**SWEEP_CONFIG["sweep"], "step": 0.5}},
     "unknown sweep keys: ['step']"),
    (None, {**SWEEP_CONFIG, "model": "bogus", "coupling": ASYMMETRIC_COUPLING},
     "unknown model 'bogus'; expected one of"),
    (None, {**SWEEP_CONFIG, "model": "asymmetric"},
     "missing ['omega_n_prime', 'eta_prime', 'p'], unexpected []"),
    (None, {**SWEEP_CONFIG, "model": "kerr", "coupling": ASYMMETRIC_COUPLING},
     "missing [], unexpected ['eta_prime', 'omega_n_prime', 'p']"),
    (None, {**SWEEP_CONFIG, "coupling": {"omega_n": 1.0, "eta_": 1.0}},
     "missing ['eta'], unexpected ['eta_']"),
], ids=["symmetric-prime-flag", "kerr-prime-flag", "bad-doughnut-waist", "config-list",
        "missing-section", "malformed-section", "fixed-list", "unknown-sweep-key",
        "unknown-model", "missing-coupling-keys", "unexpected-coupling-keys",
        "misspelt-coupling-key"])
def test_refusal_is_usage_error(capsys, tmp_path, argv, config, message):
    if config is not None:
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ("sweep", "--config", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


class TestOutputFailures:
    # exit 2 with at most one error line and no traceback

    def test_figures_into_an_existing_file(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        code, out, err = run_cli(capsys, "figures", "--name", "fig2", "--out", str(taken))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_stdout_on_a_full_device(self, capsys, monkeypatch):
        with open("/dev/full", "w", encoding="utf-8") as full:
            monkeypatch.setattr(sys, "stdout", full)
            code = main(list(EVAL) + ["--model", "symmetric"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_reader_closes_the_pipe(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(
            {**SWEEP_CONFIG, "sweep": {**SWEEP_CONFIG["sweep"], "count": 200_001}}),
            encoding="utf-8")
        child = subprocess.Popen(
            [sys.executable, "-m", "atomphase", "sweep", "--config", str(config)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert child.stdout.readline().startswith(b"swept_value,")
        child.stdout.close()
        _, err = child.communicate(timeout=120)
        assert child.returncode == 2
        assert err == b""


def reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


class TestStrictJson:
    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "kerr", "--omega-n", "0.94", "--eta", "0.98",
         "--delta=-10", "--s0", "0.3"],
        ["geometry", "cone", "--alpha", "1.2", "--orientation", "axial"],
        ["geometry", "mirror", "--f", "1", "--R", "4", "--hole", "0.2",
         "--profile", "doughnut:1.3"],
    ])
    def test_payload_is_strict_json(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        json.loads(out, parse_constant=reject_constant)

    def test_sweep_is_strict_json(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "model": "symmetric", "coupling": {"omega_n": 1.0, "eta": 1.0},
            "fixed": {"delta": 0.0, "s0": 0.0},
            "sweep": {"var": "omega_n", "start": 0.0, "stop": 1.0, "count": 2049}}))
        code, out, err = run_cli(capsys, "sweep", "--config", str(config), "--format", "json")
        assert code == 0 and err == ""
        rows = json.loads(out, parse_constant=reject_constant)
        assert len(rows) == 2049 and rows[1024]["phi_rad"] is None

    def test_non_finite_payload_is_domain_error(self, capsys):
        # no public function returns NaN today; the writer must not print one
        with mock.patch("atomphase.cli.cone_weighted_solid_angle", return_value=math.nan):
            code, out, err = run_cli(capsys, "geometry", "cone", "--alpha", "1.2",
                                     "--orientation", "axial")
        assert code == 1 and out == "" and err.startswith("error: ")


# a child that runs the function the `atomphase` script of [project.scripts] calls
RUN = "import sys; from atomphase.__main__ import run; sys.exit(run())"
SRC = os.path.dirname(os.path.dirname(os.path.abspath(atomphase.__file__)))


def child(*argv):
    """A fresh interpreter on this tree's package, its output as bytes."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env)


class TestEntryPoint:
    @pytest.mark.parametrize("argv, status", [
        (EVAL + ("--model", "symmetric"), 0),
        (("eval", "--model", "symmetric", "--omega-n", "1.5", "--eta", "1",
          "--delta", "0", "--s0", "0"), 1),
        (("eval", "--model", "symmetric"), 2),
    ], ids=["eval", "domain-error", "usage-error"])
    def test_module_and_run_agree(self, argv, status):
        module = child("-m", "atomphase", *argv)
        script = child("-c", RUN, *argv)
        assert module.returncode == script.returncode == status
        assert module.stdout == script.stdout
        assert module.stderr == script.stderr
        assert b"Traceback" not in module.stderr
        assert (module.stdout == b"") == (status != 0)

    def test_run_leaves_the_collector_on_and_the_imports_frozen(self):
        code = ("import gc, sys; from atomphase.__main__ import run; status = run(); "
                "print(gc.isenabled(), gc.get_freeze_count() > 0, status)")
        result = child("-c", code, *EVAL, "--model", "symmetric")
        assert result.returncode == 0 and result.stderr == b""
        assert result.stdout.splitlines()[-1] == b"True True 0"

    def test_main_in_process_leaves_the_collector_alone(self, capsys):
        before = gc.isenabled(), gc.get_freeze_count()
        code, _, _ = run_cli(capsys, *EVAL, "--model", "symmetric")
        assert code == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before

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
