"""End-to-end tests for the command-line interface and its exit codes."""

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from atomphase.cli import _finish, _float, build_parser, main
from atomphase.sweep import (
    FIGURE_PRESETS,
    MAX_COUNT,
    MODELS,
    SWEEP_VARIABLES,
    _check_model,
    figure_preset,
    write_sweep,
)


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
        b"[" * 100000 + b"]" * 100000,
        b'{"model": "symmetric", "fixed": {"s": 1, "s": 2}, "model": "kerr"}',
    ], ids=["not-utf-8", "integer-over-4300-digits", "nested-past-the-recursion-limit",
            "duplicate-key"])
    def test_unparsable_config_is_config_error(self, capsys, tmp_path, text):
        path = tmp_path / "sweep.json"
        path.write_bytes(text)
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot parse config as JSON: ") and err.count("\n") == 1

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

    def test_mirror_without_profile_integrates_no_beam(self, capsys):
        # a flat-top beam's annulus power overflows past R/f = 3.79e154; no
        # beam is asked for, and the weights are those of --profile matched
        argv = ("geometry", "mirror", "--f", "1", "--R", "1e160", "--hole", "0")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"omega_n": 1.0, "omega_n_prime": 1.0}
        code, matched, _ = run_cli(capsys, *argv, "--profile", "matched")
        assert code == 0
        assert json.loads(matched) == {"omega_n": 1.0, "omega_n_prime": 1.0,
                                       "eta": 1.0, "eta_prime": 1.0, "p": 1.0}

    @pytest.mark.parametrize("profile", ["flattop", "matched", "doughnut:1.3"])
    def test_mirror_weights_do_not_depend_on_the_profile(self, capsys, profile):
        argv = ("geometry", "mirror", "--f", "1", "--R", "4", "--hole", "0.2")
        _, bare, _ = run_cli(capsys, *argv)
        _, full, _ = run_cli(capsys, *argv, "--profile", profile)
        weights = {key: json.loads(full)[key] for key in ("omega_n", "omega_n_prime")}
        assert bare == json.dumps(weights, indent=2) + "\n"

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


# spellings that float() reads but a number flag refuses: a digit separator,
# a digit outside ASCII, whitespace around the number
SPELLINGS = ("0_5", "1_000", "\u0661", "\u0660.\u0665", "\uff10.5",
             " 0.5", "0.5 ", "\t1", "1\n")
NUMBER_CALLS = {
    "eval": ("eval", "--model", "asymmetric", "--omega-n", "1", "--eta", "1",
             "--omega-n-prime", "1", "--eta-prime", "1", "--p", "1", "--delta", "0.5",
             "--s0", "0.5"),
    "cone": ("geometry", "cone", "--alpha", "1", "--orientation", "axial"),
    "mirror": ("geometry", "mirror", "--f", "1", "--R", "4", "--hole", "0.5",
               "--profile", "doughnut:1.5"),
}


@pytest.mark.parametrize("name", sorted(NUMBER_CALLS))
@pytest.mark.parametrize("text", SPELLINGS)
def test_number_spelling_is_usage_error(capsys, name, text):
    # each number of a call, and the doughnut waist, in turn; float() once
    # read 0_5 as 5, a non-ASCII digit as its value and a padded number as
    # itself, and the call exited 0
    call = NUMBER_CALLS[name]
    assert run_cli(capsys, *call)[0] == 0
    numbers = [i for i, token in enumerate(call) if token[-1].isdigit() and token[0] != "-"]
    for i in numbers:
        head, colon, _ = call[i].rpartition(":")
        argv = call[:i] + (head + colon + text,) + call[i + 1:]
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert repr(argv[i]) in err and err.count("error: ") == 1, err


SWEEP_CONFIG = {"model": "symmetric", "coupling": {"omega_n": 1.0, "eta": 1.0},
                "sweep": {"var": "delta", "start": -5, "stop": 0, "count": 11},
                "fixed": {"s0": 0.0}}
ASYMMETRIC_COUPLING = {"omega_n": 1.0, "eta": 1.0, "omega_n_prime": 1.0,
                       "eta_prime": 1.0, "p": 1.0}
EVAL = ("eval", "--omega-n", "1", "--eta", "1", "--delta", "0", "--s0", "0")


@pytest.mark.parametrize("argv, config, message", [
    (EVAL + ("--model", "symmetric", "--p", "1"), None,
     "error: --omega-n-prime/--eta-prime/--p only apply to the asymmetric model\n"),
    (EVAL + ("--model", "kerr", "--eta-prime", "1"), None, "only apply to the asymmetric"),
    (EVAL + ("--model", "asymmetric", "--omega-n-prime", "1", "--eta-prime", "1"), None,
     "error: model 'asymmetric' requires --omega-n-prime, --eta-prime and --p\n"),
    (("geometry", "mirror", "--f", "1", "--R", "4", "--hole", "0.2",
      "--profile", "doughnut:abc"), None, "bad doughnut waist"),
    (None, [SWEEP_CONFIG], "config must be a JSON object"),
    (None, {k: v for k, v in SWEEP_CONFIG.items() if k != "sweep"},
     "missing or malformed config section"),
    (None, {**SWEEP_CONFIG, "coupling": 3}, "missing or malformed config section"),
    (None, {**SWEEP_CONFIG, "sweep": "abc"},
     "error: missing or malformed config section: 'sweep'\n"),
    (None, {**SWEEP_CONFIG, "coupling": [["omega_n", 1], ["eta", 1]]},
     "error: missing or malformed config section: 'coupling'\n"),
    (None, {**SWEEP_CONFIG, "sweep": {**SWEEP_CONFIG["sweep"], "spacing": None}},
     "error: spacing must be a JSON string, got None\n"),
    (None, {**SWEEP_CONFIG, "sweep": {**SWEEP_CONFIG["sweep"], "var": ["delta"]}},
     "error: var must be a JSON string, got ['delta']\n"),
    (None, {**SWEEP_CONFIG, "fixed": [0.0]}, "'fixed' must be an object"),
    (None, {**SWEEP_CONFIG, "sweep": {**SWEEP_CONFIG["sweep"], "step": 0.5}},
     "unknown sweep keys: ['step']"),
    # an unknown fixed key is named as unknown before any value is read
    (None, {**SWEEP_CONFIG, "fixed": {"delta": 0.0, "s0": 0.1, "spacing": {}}},
     "error: unknown fixed parameters: ['spacing']\n"),
    (None, {**SWEEP_CONFIG, "fixed": {"s0": True}}, "error: s0 must be a JSON number, got True\n"),
    (None, {**SWEEP_CONFIG, "fixed": {"delta": 1, "s0": 0.0}},
     "error: fixed 'delta' conflicts with sweeping delta\n"),
    (None, {**SWEEP_CONFIG, "sweep": {"var": "delta", "stop": 0, "count": 11}},
     "error: missing sweep key: 'start'\n"),
    (None, {**SWEEP_CONFIG, "model": "bogus", "coupling": ASYMMETRIC_COUPLING},
     "unknown model 'bogus'; expected one of"),
    (None, {**SWEEP_CONFIG, "model": "asymmetric"},
     "error: model 'asymmetric' takes coupling keys ['omega_n', 'eta', 'omega_n_prime', "
     "'eta_prime', 'p']; missing ['omega_n_prime', 'eta_prime', 'p'], unexpected []\n"),
    (None, {**SWEEP_CONFIG, "model": "kerr", "coupling": ASYMMETRIC_COUPLING},
     "missing [], unexpected ['eta_prime', 'omega_n_prime', 'p']"),
    (None, {**SWEEP_CONFIG, "coupling": {"omega_n": 1.0, "eta_": 1.0}},
     "missing ['eta'], unexpected ['eta_']"),
], ids=["symmetric-prime-flag", "kerr-prime-flag", "asymmetric-without-p",
        "bad-doughnut-waist", "config-list",
        "missing-section", "malformed-section", "sweep-string", "coupling-pairs",
        "null-spacing", "var-list", "fixed-list", "unknown-sweep-key", "unknown-fixed-key",
        "bool-fixed-value", "fixed-swept-delta", "missing-sweep-key",
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

    def test_figures_lists_no_path_before_a_failure(self, capsys, tmp_path):
        # the third file of fig2 is taken by a directory: the first two are
        # written, but none is listed on stdout
        taken = tmp_path / "fig2-dotted.csv"
        taken.mkdir()
        code, out, err = run_cli(capsys, "figures", "--name", "fig2", "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(taken) in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_finish_reports_once(self, capsys, monkeypatch):
        # as main and then the process entry call it: the second call finds
        # stdout on the null device and writes no second line
        with open("/dev/full", "w", encoding="utf-8") as full:
            monkeypatch.setattr(sys, "stdout", full)
            full.write("lost")
            first = _finish(0)
            second = _finish(first)
        err = capsys.readouterr().err
        assert (first, second) == (2, 2)
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
                        reason="needs /dev/full and /proc/self/fd")
    def test_finish_leaks_no_descriptor(self, capsys, monkeypatch):
        # the null device _finish points a failed stdout at is closed again
        with open("/dev/full", "w", encoding="utf-8") as full:
            monkeypatch.setattr(sys, "stdout", full)
            full.write("lost")
            before = len(os.listdir("/proc/self/fd"))
            assert _finish(0) == 2
            assert len(os.listdir("/proc/self/fd")) == before
        capsys.readouterr()

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
RUN = "from atomphase.__main__ import entry; entry()"
# the two process entries: `python -m atomphase` and the script's function
ENTRIES = {"module": ("-m", "atomphase"), "script": ("-c", RUN)}
SRC = os.path.dirname(os.path.dirname(os.path.abspath(atomphase.__file__)))


def child(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env):
    """A fresh interpreter on this tree's package, its output as bytes; env
    entries override the caller's (PYTHONUNBUFFERED="" buffers the streams)."""
    env = {**os.environ, "PYTHONPATH": SRC, **env}
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=stderr, env=env)


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


# the entry ends the process with os._exit once stdout and stderr are
# flushed: nothing written may be lost, and every failure keeps main's exit
# code and its one stderr line (a usage error: test_module_and_run_agree)
STUB_RUN = """
import sys, atomphase.__main__ as entry_point
def run():
    sys.{stream}.write("unflushed")
    return 0
entry_point.run = run
entry_point.entry()
"""


class TestEntryContract:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_sweep_on_a_full_device(self, tmp_path, entry, unbuffered):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(  # several 1024-row chunks
            {**SWEEP_CONFIG, "sweep": {**SWEEP_CONFIG["sweep"], "count": 5000}}))
        with open("/dev/full", "wb") as full:
            result = child(*ENTRIES[entry], "sweep", "--config", str(config),
                           "--format", "json", stdout=full, PYTHONUNBUFFERED=unbuffered)
        assert result.returncode == 2
        assert result.stderr == b"error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_figures_files_are_whole(self, tmp_path, entry):
        result = child(*ENTRIES[entry], "figures", "--name", "fig2", "--out", str(tmp_path))
        assert result.returncode == 0 and result.stderr == b""
        preset = figure_preset("fig2")
        paths = [tmp_path / f"fig2-{series.name}.csv" for series in preset.series]
        assert result.stdout.decode().splitlines() == list(map(str, paths))
        for series, path in zip(preset.series, paths):
            text = io.StringIO()
            write_sweep(series.spec, text.write, comments=series.notes)
            assert path.read_bytes() == text.getvalue().encode("utf-8")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_final_flush_on_a_full_device(self):
        # output still buffered when main returns: the entry's own flush fails
        with open("/dev/full", "wb") as full:
            result = child("-c", STUB_RUN.format(stream="stdout"), stdout=full,
                           PYTHONUNBUFFERED="")
        assert result.returncode == 2
        assert result.stderr == b"error: [Errno 28] No space left on device\n"

    def test_final_flush_into_a_closed_pipe(self):
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": ""}
        proc = subprocess.Popen([sys.executable, "-c", STUB_RUN.format(stream="stdout")],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()   # before the child can have flushed anything
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_final_stderr_flush_fails(self):
        with open("/dev/full", "wb") as full:
            result = child("-c", STUB_RUN.format(stream="stderr"), stderr=full,
                           PYTHONUNBUFFERED="")
        assert (result.returncode, result.stdout) == (2, b"")

    # stderr on a full device: exit 2 in both buffering modes.  Python exits
    # 120 when its own final flush fails, after an "Exception ignored"
    # message that a full stderr swallows; the exit code is what shows it.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("argv", [
        ("eval", "--model", "symmetric", "--omega-n", "1.5", "--eta", "1",
         "--delta", "0", "--s0", "0"),
        ("eval", "--model", "symmetric"),
    ], ids=["domain-error", "usage-error"])
    def test_error_line_on_a_full_device(self, entry, unbuffered, argv):
        with open("/dev/full", "wb") as full:
            result = child(*ENTRIES[entry], *argv, stderr=full,
                           PYTHONUNBUFFERED=unbuffered)
        assert (result.returncode, result.stdout) == (2, b"")

    # --help leaves through argparse's SystemExit, whose output the entry
    # flushes too.  Unbuffered, each write reaches the device at once, and
    # the parser's _print_message lets its OSError through to cli.main.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_help_on_a_full_device(self, entry):
        for unbuffered in ("", "1"):
            with open("/dev/full", "wb") as full:
                result = child(*ENTRIES[entry], "--help", stdout=full,
                               PYTHONUNBUFFERED=unbuffered)
            assert result.returncode == 2, unbuffered
            assert result.stderr == b"error: [Errno 28] No space left on device\n", unbuffered

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_help_into_a_closed_pipe(self, entry):
        for unbuffered in ("", "1"):
            env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered}
            proc = subprocess.Popen([sys.executable, *ENTRIES[entry], "--help"],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            proc.stdout.close()   # long before the child has imported cli
            _, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (2, b""), unbuffered


# the peak RSS of a call against the floor of its imports, each the median
# of three children started by a small process: a child's ru_maxrss starts
# at the RSS of the process that forked it, so a pytest parent would mask it
SPAWN = """
import json, os, statistics, subprocess, sys
calls = json.loads(sys.argv[1])
peaks = {name: [] for name in calls}
for _ in range(3):
    procs = {name: subprocess.Popen(argv, stdout=subprocess.DEVNULL)
             for name, argv in calls.items()}
    for name, proc in procs.items():
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0, (name, proc.returncode)
        peaks[name].append(usage.ru_maxrss / 1024.0)
print(json.dumps({name: statistics.median(mb) for name, mb in peaks.items()}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_peak_rss_over_the_import_floor(tmp_path):
    # compiled from source, as under PYTHONDONTWRITEBYTECODE=1 with no
    # __pycache__: the compile of sweep.py must not stack on the loaded
    # scipy, and interpreter shutdown must not run.  PYTHONPYCACHEPREFIX
    # would make numpy and scipy compile too.
    shutil.copytree(os.path.dirname(atomphase.__file__), tmp_path / "atomphase",
                    ignore=shutil.ignore_patterns("__pycache__"))
    calls = {
        "floor": [sys.executable, "-c", "import numpy, scipy.integrate._quadpack"],
        "eval": [sys.executable, "-m", "atomphase", *EVAL, "--model", "symmetric"],
        "figures": [sys.executable, "-m", "atomphase", "figures", "--name", "fig2",
                    "--out", str(tmp_path / "out")],
    }
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-c", SPAWN, json.dumps(calls)],
                            capture_output=True, text=True, env=env, check=True)
    peak = json.loads(result.stdout)
    assert peak["eval"] - peak["floor"] <= 1.5, peak
    assert peak["figures"] - peak["floor"] <= 1.5, peak


# ------------------------------------------------------------------- fuzz
#
# Any argv of the real subcommands and flags, with any token as a value, and
# any sweep config of the real keys with any JSON value: a valid call or
# config with a few edits.  cli.main runs in process with its streams
# redirected.  --config and --out only ever name a path under the example's
# own temporary directory, which is also the working directory, and every
# drawn count is small or refused: no example reads a device, writes outside
# that directory or sweeps more than a few dozen rows.

def leaf_parsers(parser, path=()):
    """(subcommand path, parser) of every parser that runs a handler."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_parsers(sub, path + (name,))
            return
    yield path, parser


LEAVES = list(leaf_parsers(build_parser()))
OPTIONS = [action for _, parser in LEAVES for action in parser._actions
           if action.option_strings]
# the paths --config and --out take, the usable one three times as often
PATHS = {"--config": ["config.json"] * 3 + ["missing.json", ".", "config.json/sub"],
         "--out": ["out"] * 3 + [".", "out/sub", "config.json", "config.json/sub"]}
PROFILES = ("flattop", "matched", "doughnut:1.3", "doughnut:0", "doughnut:-1",
            "doughnut:nan", "doughnut:1e-300", "doughnut:1e300", "doughnut:", "bessel",
            *("doughnut:" + text for text in SPELLINGS))
NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "-0.5", "2", "4", "5e-324", "1e-300",
                     "1e300", "-1e308", "1e400", "nan", "inf", "-inf", "-0", *SPELLINGS]),
    st.floats(0, 1).map(repr), st.floats(0, 10).map(repr), st.floats().map(repr),
    st.integers().map(str))


# how many edits a call or a config gets: most get none or one
EDITS = st.sampled_from([0, 0, 0, 1, 1, 2, 3])


class InTmp(str):
    """A path relative to the example's temporary directory."""


def values(action):
    """Values of the flag's own kind."""
    if action.option_strings[0] in PATHS:
        return st.sampled_from(PATHS[action.option_strings[0]]).map(InTmp)
    if action.choices:
        return st.sampled_from(list(action.choices))
    return NUMBERS if action.type is _float else st.sampled_from(PROFILES)


@st.composite
def argvs(draw):
    # every required flag of a subcommand and all or none of the others, then
    # edits: a flag dropped, left without its value or given any token, or a
    # flag of any subcommand added
    path, parser = draw(st.sampled_from(LEAVES))
    optional = draw(st.booleans())
    pairs = [[action.option_strings[-1], draw(values(action))]
             for action in parser._actions if action.option_strings
             and action.nargs != 0 and (action.required or optional)]
    for _ in range(draw(EDITS)):
        kind = draw(st.integers(0, 3))
        i = draw(st.integers(0, len(pairs)))
        if kind == 3 or i == len(pairs):
            action = draw(st.sampled_from(OPTIONS))
            pairs.insert(i, [draw(st.sampled_from(action.option_strings))]
                         + ([draw(values(action))] if action.nargs != 0 else []))
        elif kind == 0:
            del pairs[i]
        elif kind == 1:
            del pairs[i][1:]
        elif pairs[i][0] not in PATHS:
            pairs[i][1:] = [draw(st.text(max_size=10))]
    # a value in the --flag=value form, as a negative one must be given
    return [*path, *(token for pair in pairs
                     for token in (["=".join(pair)] if draw(st.booleans()) else pair))]


class Obj(list):
    """A JSON object as a list of [key, value] pairs, so that a key may repeat."""


class Raw(str):
    """The name of a JSON text in RAW, written as that text."""


RAW = {"NaN": "NaN", "Infinity": "Infinity", "-Infinity": "-Infinity", "1e400": "1e400",
       "-0": "-0", "10**400": "1" + "0" * 400, "5000 digits": "9" * 5000,
       "deep array": "[" * 100000 + "]" * 100000,
       "deep object": '{"a": ' * 100000 + "1" + "}" * 100000}
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-100, 100),
              st.integers(min_value=MAX_COUNT + 1), st.floats(),
              st.text(max_size=8), st.sampled_from(sorted(RAW)).map(Raw)),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(st.tuples(st.text(max_size=5), inner).map(list), max_size=3).map(Obj),
    max_leaves=6)
CONFIG_KEYS = ["model", "coupling", "sweep", "fixed", "var", "start", "stop", "count",
               "spacing", "delta", "s0", "s",
               *(field.name for field in dataclasses.fields(AsymmetricCoupling))]


def dump(node) -> str:
    if isinstance(node, Raw):
        return RAW[node]
    if isinstance(node, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(dump, node)) + "]"
    if isinstance(node, float) and not math.isfinite(node):
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[repr(node)]
    return json.dumps(node)


class ConfigText(bytes):
    """A config file's bytes, shown by their ends when long."""

    def __repr__(self):
        if len(self) <= 300:
            return bytes.__repr__(self)
        return f"{bytes(self[:150])!r} ... {len(self)} bytes ... {bytes(self[-150:])!r}"


@st.composite
def configs(draw):
    # a config of one model, mostly with its own coupling class, one swept
    # variable and the fixed drive it needs, then edits of a key in any
    # object: dropped, added (perhaps a second time) or given any JSON value;
    # at times the whole file is any JSON value, cut short or given a byte
    # that is not UTF-8
    model, var = draw(st.sampled_from(MODELS)), draw(st.sampled_from(SWEEP_VARIABLES))
    coupling_type = draw(st.sampled_from([_check_model(model)] * 3
                                         + [SymmetricCoupling, AsymmetricCoupling]))
    floats, spacing = st.floats(-10, 10), draw(st.sampled_from(["linear", "log"]))
    ends = st.floats(1e-3, 10) if spacing == "log" else floats
    fixed = [["delta", draw(floats)]] if var != "delta" else []
    if var not in ("s0", "s"):
        fixed.append([draw(st.sampled_from(["s0", "s"])), draw(st.floats(0, 10))])
    config = Obj([
        ["model", model],
        ["coupling", Obj([field.name, draw(st.floats(0, 1))]
                         for field in dataclasses.fields(coupling_type))],
        ["sweep", Obj([["var", var], ["start", draw(ends)], ["stop", draw(ends)],
                       ["count", draw(st.integers(-2, 40))], ["spacing", spacing]])],
        ["fixed", Obj(fixed)],
    ])
    for _ in range(draw(EDITS)):
        obj = draw(st.sampled_from([config, *(v for _, v in config if isinstance(v, Obj))]))
        i = draw(st.integers(0, len(obj)))
        kind = draw(st.integers(0, 2))
        if kind == 0 and i < len(obj):
            del obj[i]
        elif kind == 1 and i < len(obj):
            obj[i][1] = draw(JSON_VALUES)
        else:
            obj.insert(i, [draw(st.sampled_from(CONFIG_KEYS)), draw(JSON_VALUES)])
    text = dump(config if draw(st.integers(0, 15)) else draw(JSON_VALUES)).encode()
    cut, kind = draw(st.integers(0, len(text))), draw(st.integers(0, 15))
    if kind == 14:
        text = text[:cut] + bytes([draw(st.integers(0x80, 0xff))]) + text[cut:]
    elif kind == 15:
        text = text[:cut]
    return ConfigText(text)


def check_main(argv, config):
    """Run cli.main in a temporary working directory holding config.json,
    check the exit code, stderr, stdout and the files of a figures call, and
    return the exit code."""
    cwd, out, err = os.getcwd(), io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "config.json"), "wb") as fh:
            fh.write(config)
        argv = [os.path.join(tmp, a) if isinstance(a, InTmp) else a for a in argv]
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            parsed = True
        except SystemExit as exc:
            code, parsed = exc.code, False
        finally:
            os.chdir(cwd)
        out, err = out.getvalue(), err.getvalue()
        if parsed and argv[0] == "figures":
            check_figures(build_parser().parse_args(argv), code, out, err, tmp)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
    if out.startswith(("{", "[")):
        json.loads(out, parse_constant=reject_constant)
    return code


def check_figures(args, code, out, err, cwd):
    """A figures call run in cwd writes every file of its preset and lists
    them, or exits 2 with one stderr line that names its --out path."""
    preset = figure_preset(args.name)
    paths = [os.path.join(args.out, f"{preset.name}-{series.name}.csv")
             for series in preset.series]
    if code == 0:
        assert out.splitlines() == paths and err == ""
        assert all(os.path.isfile(os.path.join(cwd, path)) for path in paths)
    else:
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("error: ") and args.out in err


class TestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(argv=argvs(), config=configs())
    def test_any_call(self, argv, config):
        check_main(argv, config)

    @settings(max_examples=60, deadline=None)
    @given(fmt=st.sampled_from(["csv", "json"]), config=configs())
    def test_any_sweep_config(self, fmt, config):
        check_main(["sweep", "--config", InTmp("config.json"), "--format", fmt], config)

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(FIGURE_PRESETS),
           out=st.sampled_from(sorted(set(PATHS["--out"]) | {"out/sub/deeper"})))
    def test_figures_out_target(self, name, out):
        # a directory, missing or not, or a path under a missing one is made
        # and written; an existing file, or a path under one, is refused
        code = check_main(["figures", "--name", name, "--out", InTmp(out)], b"{}")
        assert code == (2 if out.startswith("config.json") else 0)

    @pytest.mark.parametrize("text", [
        b"[" * 100000 + b"]" * 100000,
        json.dumps({**SWEEP_CONFIG, "sweep": "abc"}).encode(),
    ], ids=["nested-past-the-recursion-limit", "sweep-string"])
    def test_entry_point_refuses_the_config(self, tmp_path, text):
        # each once a RecursionError or ValueError traceback, exit 1
        path = tmp_path / "sweep.json"
        path.write_bytes(text)
        result = child("-c", RUN, "sweep", "--config", str(path))
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.startswith(b"error: ") and result.stderr.count(b"\n") == 1
