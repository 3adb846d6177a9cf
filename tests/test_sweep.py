"""Tests for sweeps, presets and the deterministic CSV/JSON emission."""

import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from atomphase import (
    AsymmetricCoupling,
    DomainError,
    PhaseBranch,
    ResultRow,
    SweepRange,
    SweepSpec,
    SymmetricCoupling,
    evaluate_point,
    figure_preset,
    kerr_linear_phase,
    kerr_phase,
    phase_symmetric,
    row_to_dict,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    saturation_at_detuning,
    write_sweep,
)
from atomphase import sweep
from atomphase.sweep import CSV_COLUMNS

FULL = SymmetricCoupling(omega_n=1.0, eta=1.0)
MIRROR = SymmetricCoupling(omega_n=0.94, eta=0.98)


def spec_delta(coupling=FULL, s0=0.0, start=-5.0, stop=0.0, count=11,
               model="symmetric"):
    return SweepSpec(model=model, coupling=coupling, var="delta",
                     range=SweepRange(start=start, stop=stop, count=count),
                     fixed={"s0": s0})


class TestSweepRange:
    def test_linear_grid_is_inclusive_and_ascending(self):
        grid = SweepRange(start=0.0, stop=1.0, count=5).grid()
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0],
                                   rtol=1e-15)

    def test_descending_input_still_ascends(self):
        grid = SweepRange(start=1.0, stop=0.0, count=3).grid()
        assert grid == sorted(grid)

    def test_log_grid_is_geometric(self):
        grid = SweepRange(start=0.01, stop=100.0, count=9, spacing="log").grid()
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        np.testing.assert_allclose(grid[0], 0.01, rtol=1e-12)
        np.testing.assert_allclose(grid[-1], 100.0, rtol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(start=0.0, stop=math.nan, count=5),
        dict(start=math.nan, stop=1.0, count=5),
        dict(start=-math.inf, stop=1.0, count=5),
        dict(start=1e-3, stop=math.inf, count=5, spacing="log"),
        dict(start=0.0, stop=1.0, count=1),
        dict(start=1.0, stop=1.0, count=5),
        dict(start=0.0, stop=1.0, count=5, spacing="log"),
        dict(start=-1.0, stop=1.0, count=5, spacing="log"),
        dict(start=0.0, stop=1.0, count=5, spacing="cubic"),
        dict(start=-1.7e308, stop=1.7e308, count=5),   # stop - start overflows
        dict(start=0.0, stop=1.0, count=2.5),
        dict(start=0.0, stop=1.0, count=5.0),
        dict(start=0.0, stop=1.0, count="5"),
        dict(start=0.0, stop=1.0, count=True),
        dict(start=0.0, stop=1.0, count=sweep.MAX_COUNT + 1),
        dict(start=0.0, stop=1.0, count=10**12),
    ])
    def test_invalid_ranges(self, kwargs):
        with pytest.raises(DomainError):
            SweepRange(**kwargs)

    @pytest.mark.parametrize("count", [np.int64(5), sweep.MAX_COUNT])
    def test_integer_counts_up_to_the_bound(self, count):
        # checked only: a grid of MAX_COUNT points would take 800 MB
        assert SweepRange(start=0.0, stop=1.0, count=count).count == count

    @pytest.mark.parametrize("count", [2, 4, 7, 1001])
    def test_widest_linear_grid_is_finite(self, count):
        # stop - start is the largest float; the last step may round past it
        half = 0.5 * 1.7976931348623157e308
        with np.errstate(all="raise"):
            grid = SweepRange(start=-half, stop=half, count=count).grid()
        assert grid[0] == -half and grid[-1] == half
        assert all(map(math.isfinite, grid)) and grid == sorted(grid)


class TestSweepSpecValidation:
    def test_unknown_model(self):
        with pytest.raises(DomainError):
            SweepSpec(model="quantum", coupling=FULL, var="delta",
                      range=SweepRange(0.0, 1.0, 3), fixed={"s0": 0.0})

    def test_unknown_variable(self):
        with pytest.raises(DomainError):
            SweepSpec(model="symmetric", coupling=FULL, var="power",
                      range=SweepRange(0.0, 1.0, 3), fixed={"s0": 0.0})

    def test_asymmetric_model_needs_asymmetric_coupling(self):
        with pytest.raises(DomainError,
                           match=r"^coupling of model 'asymmetric' must be an AsymmetricCoupling, "
                                 r"got SymmetricCoupling\(omega_n=1\.0, eta=1\.0\)$"):
            SweepSpec(model="asymmetric", coupling=FULL, var="delta",
                      range=SweepRange(0.0, 1.0, 3), fixed={"s0": 0.0})

    def test_missing_fixed_delta(self):
        with pytest.raises(DomainError):
            SweepSpec(model="symmetric", coupling=FULL, var="s0",
                      range=SweepRange(0.0, 1.0, 3), fixed={})

    def test_both_s0_and_s_fixed(self):
        with pytest.raises(DomainError):
            SweepSpec(model="symmetric", coupling=FULL, var="delta",
                      range=SweepRange(0.0, 1.0, 3),
                      fixed={"s0": 0.0, "s": 0.0})

    @pytest.mark.parametrize("fixed", [{"s0": math.nan}, {"s": math.inf},
                                       {"s0": 0.1, "delta": math.nan}])
    def test_non_finite_fixed_value(self, fixed):
        with pytest.raises(DomainError):
            SweepSpec(model="symmetric", coupling=FULL, var="delta",
                      range=SweepRange(0.0, 1.0, 3), fixed=fixed)

    def test_unknown_fixed_key(self):
        with pytest.raises(DomainError):
            SweepSpec(model="symmetric", coupling=FULL, var="delta",
                      range=SweepRange(0.0, 1.0, 3),
                      fixed={"s0": 0.0, "rabi": 1.0})


class TestRunSweep:
    def test_matches_single_point_calls_bitwise(self):
        rows = run_sweep(spec_delta(count=3, start=-2.0, stop=0.0, s0=0.3))
        for row in rows:
            expected = phase_symmetric(FULL, row.delta, 0.3)
            assert row.phi_rad == expected.phi
            assert row.branch == expected.branch.value

    def test_row_consistency_invariants(self):
        rows = run_sweep(spec_delta(count=21, s0=0.7))
        for row in rows:
            np.testing.assert_allclose(row.s,
                                       saturation_at_detuning(row.s0, row.delta),
                                       rtol=1e-15)
            if row.phi_rad is not None:
                assert abs(row.phi_deg - row.phi_rad * 180.0 / math.pi) < 1e-12

    def test_boundary_points_become_flagged_rows(self):
        spec = SweepSpec(model="symmetric", coupling=SymmetricCoupling(1.0, 1.0),
                         var="omega_n", range=SweepRange(0.0, 1.0, 3),
                         fixed={"delta": 0.0, "s0": 0.0})
        rows = run_sweep(spec)
        assert [row.branch for row in rows] == ["zero", "boundary", "pi"]
        assert rows[1].phi_rad is None and rows[1].phi_deg is None
        assert rows[0].phi_rad == 0.0
        assert rows[2].phi_rad == math.pi

    def test_delta_sweep_odd_symmetry(self):
        spec = spec_delta(coupling=MIRROR, s0=0.4, start=-2.0, stop=2.0,
                          count=81)
        rows = run_sweep(spec)
        for a, b in zip(rows, reversed(rows)):
            if a.delta == 0.0:
                continue
            assert abs(a.phi_rad + b.phi_rad) < 1e-12

    def test_sweep_s_converts_to_s0(self):
        spec = SweepSpec(model="symmetric", coupling=MIRROR, var="s",
                         range=SweepRange(0.0, 0.5, 6),
                         fixed={"delta": -10.0})
        rows = run_sweep(spec)
        for row in rows:
            np.testing.assert_allclose(row.s0,
                                       row.swept_value * (1.0 + 4.0 * 100.0),
                                       rtol=1e-15)
            np.testing.assert_allclose(row.s, row.swept_value, rtol=1e-12)

    def test_fixed_s_with_delta_sweep(self):
        spec = SweepSpec(model="symmetric", coupling=MIRROR, var="delta",
                         range=SweepRange(-5.0, -1.0, 5), fixed={"s": 0.1})
        for row in run_sweep(spec):
            np.testing.assert_allclose(row.s, 0.1, rtol=1e-12)

    def test_eta_sweep(self):
        spec = SweepSpec(model="symmetric", coupling=SymmetricCoupling(1.0, 1.0),
                         var="eta", range=SweepRange(0.1, 0.9, 5),
                         fixed={"delta": -1.0, "s0": 0.0})
        rows = run_sweep(spec)
        for row in rows:
            expected = phase_symmetric(
                SymmetricCoupling(1.0, row.swept_value), -1.0, 0.0)
            assert row.phi_rad == expected.phi

    def test_kerr_model_rows(self):
        spec = SweepSpec(model="kerr", coupling=MIRROR, var="s",
                         range=SweepRange(0.0, 0.5, 11),
                         fixed={"delta": -10.0})
        phi0 = kerr_linear_phase(MIRROR, -10.0)
        for row in run_sweep(spec):
            assert abs(row.phi_rad - kerr_phase(phi0, row.s)) < 1e-15

    def test_asymmetric_sweep(self):
        coupling = AsymmetricCoupling(omega_n=0.94, eta=0.98,
                                      omega_n_prime=0.88, eta_prime=0.99,
                                      p=0.97)
        spec = SweepSpec(model="asymmetric", coupling=coupling, var="delta",
                         range=SweepRange(-3.0, -0.5, 7), fixed={"s0": 0.1})
        rows = run_sweep(spec)
        assert all(row.model == "asymmetric" for row in rows)
        assert all(row.branch == "generic" for row in rows)


class TestSerialization:
    def test_csv_layout(self):
        rows = run_sweep(spec_delta(count=3))
        text = rows_to_csv(rows, comments=("a note",))
        lines = text.split("\n")
        assert lines[0] == "# a note"
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2 + 3 + 1  # comment, header, rows, trailing ''
        assert text.endswith("\n")
        assert "\r" not in text

    def test_text_columns(self):
        assert [name for name, text in zip(CSV_COLUMNS, sweep._TEXT) if text] == ["branch", "model"]

    def test_csv_floats_round_trip(self):
        rows = run_sweep(spec_delta(count=7, s0=0.123))
        lines = rows_to_csv(rows).strip().split("\n")[1:]
        for line, row in zip(lines, rows):
            fields = line.split(",")
            assert float(fields[1]) == row.delta
            assert float(fields[4]) == row.phi_rad

    def test_boundary_rows_have_empty_phase_fields(self):
        spec = SweepSpec(model="symmetric", coupling=SymmetricCoupling(1.0, 1.0),
                         var="omega_n", range=SweepRange(0.0, 1.0, 3),
                         fixed={"delta": 0.0, "s0": 0.0})
        lines = rows_to_csv(run_sweep(spec)).strip().split("\n")
        boundary = lines[2].split(",")
        assert boundary[4] == "" and boundary[5] == ""
        assert boundary[6] == "boundary"

    def test_json_mirror(self):
        rows = run_sweep(spec_delta(count=3))
        payload = json.loads(rows_to_json(rows))
        assert len(payload) == 3
        assert set(payload[0]) == set(CSV_COLUMNS)
        assert payload[0]["model"] == "symmetric"

    def test_json_spells_numpy_floats_and_bools_as_json_dumps(self):
        # %r once wrote "swept_value": np.float64(1.5) and "delta": True
        row = ResultRow(**{**row_to_dict(evaluate_point("symmetric", FULL, -1.0, 0.1)),
                           "swept_value": np.float64(1.5), "delta": True})
        text = rows_to_json([row])
        assert text == json.dumps([row_to_dict(row)], indent=2) + "\n"
        assert '"swept_value": 1.5,' in text and '"delta": true,' in text

    def test_deterministic_output(self):
        a = rows_to_csv(run_sweep(spec_delta(count=101, s0=0.3)))
        b = rows_to_csv(run_sweep(spec_delta(count=101, s0=0.3)))
        assert a == b


class TestFigurePresets:
    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            figure_preset("fig9")

    @pytest.mark.parametrize("name", ["fig9", ["fig2"], None])
    def test_unknown_preset_is_a_domain_error(self, name):
        with pytest.raises(DomainError, match="unknown preset"):
            figure_preset(name)

    def test_preset_names(self):
        assert sweep.FIGURE_PRESETS == ("fig2", "fig3", "fig4", "fig5")
        assert [figure_preset(n).name for n in sweep.FIGURE_PRESETS] == list(
            sweep.FIGURE_PRESETS)

    def test_fig2_series(self):
        preset = figure_preset("fig2")
        names = [s.name for s in preset.series]
        assert names == ["solid", "dashed", "dotted", "dashdot"]
        solid = preset.series[0].spec
        assert solid.model == "symmetric"
        assert solid.coupling == SymmetricCoupling(1.0, 1.0)
        assert solid.range.count == 501
        dotted = preset.series[2].spec
        assert dotted.model == "asymmetric"
        assert dotted.fixed["s0"] == 0.1
        assert preset.series[3].spec.fixed["s0"] == 10.0
        assert dotted.coupling.omega_n_prime == 0.88

    def test_fig2_solid_resonance_row(self):
        solid = figure_preset("fig2").series[0]
        rows = run_sweep(solid.spec)
        last = rows[-1]
        assert last.delta == 0.0
        assert last.phi_deg == 180.0

    def test_fig3_grid_classifies_branches(self):
        preset = figure_preset("fig3")
        base = [s for s in preset.series if s.name == "s0-0"][0]
        rows = run_sweep(base.spec)
        by_value = {round(r.swept_value, 6): r for r in rows}
        assert by_value[0.4].branch == "zero"
        assert by_value[1.0].branch == "pi"

    def test_fig4_threshold_series(self):
        preset = figure_preset("fig4")
        threshold = 4.0 ** (1.0 / 3.0) - 1.0
        s0_values = [s.spec.fixed["s0"] for s in preset.series]
        assert threshold - 1e-5 in s0_values
        assert threshold + 1e-5 in s0_values
        omegas = [s.spec.coupling.omega_n for s in preset.series]
        assert 0.5 + 1e-4 in omegas and 0.5 - 1e-4 in omegas

    def test_fig5_kerr_column_consistency(self):
        preset = figure_preset("fig5")
        kerr_series = [s for s in preset.series if s.name == "left-kerr"][0]
        rows = run_sweep(kerr_series.spec)
        phi0 = kerr_linear_phase(MIRROR, -10.0)
        for row in rows:
            assert abs(row.phi_rad - kerr_phase(phi0, row.s)) < 1e-12

    def test_fig5_has_full_and_kerr_pairs(self):
        names = [s.name for s in figure_preset("fig5").series]
        assert names == ["left-full", "left-kerr", "right-full", "right-kerr"]


class TestEvaluatePoint:
    def test_strict_mode_raises_on_boundary(self):
        from atomphase import DegenerateResultError
        with pytest.raises(DegenerateResultError):
            evaluate_point("symmetric", SymmetricCoupling(0.5, 1.0), 0.0, 0.0,
                           degenerate_ok=False)

    def test_lenient_mode_flags_boundary(self):
        row = evaluate_point("symmetric", SymmetricCoupling(0.5, 1.0), 0.0, 0.0)
        assert row.branch == "boundary"
        assert row.phi_rad is None

    def test_model_coupling_mismatch(self):
        for model in ("symmetric", "kerr"):
            with pytest.raises(DomainError,
                               match=rf"^coupling of model '{model}' must be a SymmetricCoupling, got "
                                     r"AsymmetricCoupling\(omega_n=0\.9, eta=0\.9, "
                                     r"omega_n_prime=0\.9, eta_prime=0\.9, p=1\.0\)$"):
                evaluate_point(model,
                               AsymmetricCoupling(0.9, 0.9, 0.9, 0.9, 1.0),
                               0.0, 0.0)

    @pytest.mark.parametrize("model", ["bogus", ["kerr"], "Kerr"])
    def test_unknown_model(self, model):
        # once computed as the symmetric model under the given name
        with pytest.raises(DomainError) as point:
            evaluate_point(model, SymmetricCoupling(0.5, 0.9), 0.1, 0.1)
        with pytest.raises(DomainError) as spec:
            spec_delta(coupling=SymmetricCoupling(0.5, 0.9), model=model)
        assert str(point.value) == str(spec.value)
        assert str(point.value).startswith(f"unknown model {model!r}")


# ------------------------------------------------- columnar kernel vs oracle

def streamed(spec):
    """The CLI's bytes for a sweep: write_sweep in each format."""
    csv_out, json_out = io.StringIO(), io.StringIO()
    write_sweep(spec, csv_out.write)
    write_sweep(spec, json_out.write, "json")
    return csv_out.getvalue(), json_out.getvalue()


def assert_streams_match_oracle(spec):
    expected = oracles.run_sweep(spec)
    csv_text, json_text = streamed(spec)
    assert csv_text == oracles.rows_to_csv(expected)
    assert json_text == oracles.rows_to_json(expected)


class TestWriteSweep:
    def test_csv_comments_lead_the_rows(self):
        spec = spec_delta(count=5, s0=0.3)
        out = io.StringIO()
        write_sweep(spec, out.write, comments=("a", "b"))
        assert out.getvalue() == rows_to_csv(run_sweep(spec), ("a", "b"))
        assert out.getvalue().startswith("# a\n# b\nswept_value,")

    @pytest.mark.parametrize("format, comments, message", [
        ("json", ("note",), "^JSON output cannot carry comments$"),
        ("xml", (), "^format must be 'csv' or 'json', got 'xml'$"),
        # once "# a" and "# b", a data line "b", and a TypeError
        ("csv", "ab", "^comments must be a tuple or a list, got 'ab'$"),
        ("csv", ("a\nb",), r"^a comment must be one line, got 'a\\nb'$"),
        ("csv", ["a", "b\r"], r"^a comment must be one line, got 'b\\r'$"),
        ("csv", None, "^comments must be a tuple or a list, got None$"),
        ("json", None, "^comments must be a tuple or a list, got None$"),
        ("csv", ("a", 3), "^comment must be a str, got 3$"),
    ], ids=["json-comments0", "xml-comments1", "string", "newline", "carriage-return", "csv-none",
            "json-none", "not-a-string"])
    def test_rejected_before_a_byte(self, format, comments, message):
        written = []
        with pytest.raises(DomainError, match=message):
            write_sweep(spec_delta(count=5), written.append, format, comments)
        assert written == []

    @pytest.mark.parametrize("comments", ["ab", ("a\nb",), ("a\rb",), None],
                             ids=["string", "newline", "carriage-return", "none"])
    def test_rows_to_csv_refuses_comments(self, comments):
        row = evaluate_point("symmetric", FULL, -1.0, 0.1)
        with pytest.raises(DomainError, match="^(comments|a comment) must be "):
            rows_to_csv([row], comments)

    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_failing_point_writes_nothing(self, format):
        # 1 + 4 delta^2 overflows only in the last chunk
        spec = spec_delta(start=0.0, stop=1e200, count=3 * sweep._CHUNK_ROWS)
        written = []
        with pytest.raises(DomainError, match="too large"):
            write_sweep(spec, written.append, format)
        assert written == []


def same_bits(a, b):
    """Field-by-field equality that tells -0.0 from 0.0 (float.hex)."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return type(a) is type(b) and a == b


def assert_rows_identical(rows, expected):
    assert len(rows) == len(expected)
    for row, ref in zip(rows, expected):
        for name in CSV_COLUMNS:
            got, want = getattr(row, name), getattr(ref, name)
            assert same_bits(got, want), (name, got, want, ref)


unit = st.floats(min_value=0.0, max_value=1.0)
# Values that put rows on the resonance boundary or a Kerr pole
# (2 omega_n eta^2 = 1 + 4 delta^2 at delta = 0) or give -0.0 imaginary parts.
edge_unit = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def couplings(draw, model):
    pick = lambda: draw(st.one_of(unit, edge_unit))  # noqa: E731
    if model == "asymmetric":
        return AsymmetricCoupling(omega_n=pick(), eta=pick(), omega_n_prime=pick(),
                                  eta_prime=pick(), p=draw(st.one_of(
                                      st.floats(min_value=1e-6, max_value=1.0),
                                      st.just(1.0))))
    return SymmetricCoupling(omega_n=pick(), eta=pick())


def grids(lo, hi, log_lo=None):
    """(start, stop, spacing) over [lo, hi], log-spaced from log_lo when given."""
    linear = st.tuples(st.floats(lo, hi), st.floats(lo, hi), st.just("linear"))
    # symmetric odd grids hit the midpoint (0 for delta, 0.5 for a unit range) exactly
    centred = st.just((lo, hi, "linear"))
    if log_lo is None:
        return st.one_of(linear, centred)
    log = st.tuples(st.floats(log_lo, hi), st.floats(log_lo, hi), st.just("log"))
    return st.one_of(linear, centred, log)


GRIDS = {
    "delta": grids(-60.0, 60.0),
    "s0": grids(0.0, 1e3, log_lo=1e-6),
    "s": grids(0.0, 50.0, log_lo=1e-6),
    "omega_n": grids(0.0, 1.0, log_lo=1e-6),
    "eta": grids(0.0, 1.0, log_lo=1e-6),
}
fixed_delta = st.one_of(st.floats(-60.0, 60.0), st.sampled_from([0.0, -0.0, 0.5, -0.5]))
fixed_drive = st.one_of(st.floats(0.0, 1e3), st.just(0.0))


@st.composite
def sweep_specs(draw):
    model = draw(st.sampled_from(sweep.MODELS))
    var = draw(st.sampled_from(sweep.SWEEP_VARIABLES))
    start, stop, spacing = draw(GRIDS[var])
    assume(start != stop)
    fixed = {}
    if var != "delta":
        fixed["delta"] = draw(fixed_delta)
    if var not in ("s0", "s"):
        fixed[draw(st.sampled_from(["s0", "s"]))] = draw(fixed_drive)
    return SweepSpec(model=model, coupling=draw(couplings(model)), var=var,
                     range=SweepRange(start, stop, draw(st.integers(2, 41)), spacing),
                     fixed=fixed)


class TestColumnarKernel:
    @settings(max_examples=400, deadline=None)
    @given(sweep_specs())
    def test_run_sweep_matches_point_oracle_bitwise(self, spec):
        assert_rows_identical(run_sweep(spec), oracles.run_sweep(spec))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_evaluate_point_matches_point_oracle_bitwise(self, data):
        model = data.draw(st.sampled_from(sweep.MODELS))
        coupling = data.draw(couplings(model))
        delta = data.draw(fixed_delta)
        s0 = data.draw(fixed_drive)
        assert_rows_identical([evaluate_point(model, coupling, delta, s0)],
                              [oracles.evaluate_point(model, coupling, delta, s0)])

    @pytest.mark.parametrize("model", sweep.MODELS)
    def test_boundary_and_pole_rows(self, model):
        coupling = (AsymmetricCoupling(1.0, 1.0, 0.5, 1.0, 1.0) if model == "asymmetric"
                    else SymmetricCoupling(1.0, 1.0))
        spec = SweepSpec(model=model, coupling=coupling, var="omega_n",
                         range=SweepRange(0.0, 1.0, 5), fixed={"delta": 0.0, "s0": 0.0})
        rows = run_sweep(spec)
        assert [row.branch for row in rows].count("boundary") == 1
        assert rows[2].phi_rad is None and rows[2].phi_deg is None
        assert_rows_identical(rows, oracles.run_sweep(spec))

    def test_chunk_seams_match_oracle(self):
        # more rows than one write holds, with a boundary row in a later chunk
        count = 2 * sweep._CHUNK_ROWS + 3
        spec = SweepSpec(model="kerr", coupling=SymmetricCoupling(1.0, 1.0),
                         var="omega_n", range=SweepRange(0.0, 1.0, count),
                         fixed={"delta": 0.0, "s0": 0.3})
        rows = run_sweep(spec)
        assert rows[(count - 1) // 2].branch == "boundary"
        expected = oracles.run_sweep(spec)
        assert rows_to_csv(rows) == oracles.rows_to_csv(expected)
        assert rows_to_json(rows) == oracles.rows_to_json(expected)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_grid_of_chunk_size_plus_minus_one(self, extra):
        # odd counts put the boundary row at omega_n = 0.5 exactly
        count = sweep._CHUNK_ROWS + extra
        spec = SweepSpec(model="symmetric", coupling=FULL, var="omega_n",
                         range=SweepRange(0.0, 1.0, count), fixed={"delta": 0.0, "s0": 0.0})
        assert_streams_match_oracle(spec)
        assert_rows_identical(run_sweep(spec), oracles.run_sweep(spec))


class TestKernelDomain:
    @pytest.mark.parametrize("model", sweep.MODELS)
    @pytest.mark.parametrize("delta, s0", [
        (math.nan, 0.1), (math.inf, 0.1), (0.0, math.nan), (0.0, math.inf),
        (0.0, -0.1),     # every model, including kerr, rejects negative s0
        (0.0, -1.0),     # once divided by zero in 1 / (1 + s)
        (0.0, 1e308),    # (1 + s)^2 overflows
        (1e200, 0.1),    # 1 + 4 delta^2 overflows
    ])
    def test_rejected_points(self, model, delta, s0):
        coupling = (AsymmetricCoupling(0.9, 0.9, 0.9, 0.9, 1.0) if model == "asymmetric"
                    else MIRROR)
        with pytest.raises(DomainError):
            evaluate_point(model, coupling, delta, s0)

    def test_zero_p_is_rejected(self):
        with pytest.raises(DomainError):
            evaluate_point("asymmetric", AsymmetricCoupling(0.9, 0.9, 0.9, 0.9, 0.0),
                           -1.0, 0.1)

    @pytest.mark.parametrize("var, start, stop, fixed", [
        ("omega_n", 0.0, 1.5, {"delta": 0.0, "s0": 0.0}),
        ("eta", -0.5, 1.0, {"delta": 0.0, "s0": 0.0}),
        ("s", -1.0, 1.0, {"delta": -1.0}),
        ("s0", 1.0, 1e300, {"delta": -1.0}),
        ("delta", -1e200, 0.0, {"s0": 0.1}),
        ("delta", -1.0, 1.0, {"s": 1e307}),
    ])
    def test_rejected_sweeps(self, var, start, stop, fixed):
        spec = SweepSpec(model="symmetric", coupling=FULL, var=var,
                         range=SweepRange(start, stop, 5), fixed=fixed)
        with pytest.raises(DomainError):
            run_sweep(spec)


class TestDriveRuleOrder:
    def test_first_failing_rule_wins(self):
        # detuned_drive's rules in its order, each over the whole grid: a
        # non-finite s0 is reported although a negative s0 comes first
        spec = SweepSpec(model="symmetric", coupling=FULL, var="s",
                         range=SweepRange(-1.0, 1e308, 3), fixed={"delta": 1.0})
        with pytest.raises(DomainError, match=r"^s0 must be finite, got inf$"):
            run_sweep(spec)
        # and a non-finite delta before an overflowing 1 + 4 delta^2
        with pytest.raises(DomainError, match=r"^delta must be finite, got nan$"):
            sweep._validate(np.array([1e200, math.nan]), ("s0", np.array([0.1, 0.1])), 2)


# ------------------------------------------------------- streamed writers

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e-300, max_value=1e-300),          # subnormals
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                     1.7976931348623157e308, -1e300, 1e22, 1e16, 0.1]),
    # a caller's row may hold numpy floats and bools, which %r does not
    # spell as json.dumps does
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.booleans(),
)
texts = st.one_of(st.sampled_from([b.value for b in PhaseBranch] + list(sweep.MODELS)),
                  st.text(max_size=8))


@st.composite
def result_rows(draw):
    values = {name: draw(texts) if name in ("branch", "model") else draw(numbers)
              for name in CSV_COLUMNS}
    for name in ("swept_value", "phi_rad", "phi_deg"):
        if draw(st.booleans()):
            values[name] = None
    return ResultRow(**values)


class TestStreamedWriters:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(result_rows(), max_size=12), st.sampled_from([1, 2, 5, 4096]))
    def test_json_equals_json_dumps(self, rows, chunk):
        # strict JSON: where json.dumps(allow_nan=False) refuses a value,
        # rows_to_json raises DomainError
        try:
            expected = json.dumps([row_to_dict(r) for r in rows], indent=2,
                                  allow_nan=False) + "\n"
        except ValueError:
            expected = None
        with mock.patch.object(sweep, "_CHUNK_ROWS", chunk):
            if expected is None:
                with pytest.raises(DomainError):
                    rows_to_json(rows)
            else:
                assert rows_to_json(rows) == expected

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(result_rows(), max_size=12), st.sampled_from([1, 2, 5, 4096]),
           st.lists(st.text(max_size=5), max_size=2))
    def test_csv_equals_per_row_join(self, rows, chunk, comments):
        with mock.patch.object(sweep, "_CHUNK_ROWS", chunk):
            if any("\n" in comment or "\r" in comment for comment in comments):
                # it would end the '#' line and start a data line
                with pytest.raises(DomainError, match="^a comment must be one line, got "):
                    rows_to_csv(rows, comments)
                return
            text = rows_to_csv(rows, comments)
        assert text == oracles.rows_to_csv(rows, comments)

    # The kernel's chunks carry a fixed delta or drive as one value and let
    # delta or s0 share swept_value's list; the writers spell those once.
    # Every layout must give the per-row writers' bytes.
    @pytest.mark.parametrize("model", sweep.MODELS)
    @pytest.mark.parametrize("var, drive", [
        ("delta", "s0"), ("delta", "s"), ("omega_n", "s0"), ("omega_n", "s"),
        ("eta", "s0"), ("eta", "s"), ("s0", None), ("s", None)])
    def test_baked_templates_match_per_row_writers(self, model, var, drive):
        coupling = (AsymmetricCoupling(0.94, 0.98, 0.88, 0.99, 0.97) if model == "asymmetric"
                    else MIRROR)
        start, stop = {"delta": (-3.0, 3.0), "s0": (0.0, 20.0), "s": (0.0, 2.0),
                       "omega_n": (0.0, 1.0), "eta": (0.0, 1.0)}[var]
        fixed = {} if var == "delta" else {"delta": -0.75}
        if drive is not None:
            fixed[drive] = 0.4
        spec = SweepSpec(model=model, coupling=coupling, var=var,
                         range=SweepRange(start, stop, 37), fixed=fixed)
        assert_streams_match_oracle(spec)

    @pytest.mark.parametrize("model", sweep.MODELS)
    @pytest.mark.parametrize("var, fixed", [
        ("omega_n", {"delta": 0.0, "s0": 0.0}),    # one boundary or pole row
        ("s0", {"delta": 0.0}),                     # kerr: every row on the pole
        ("delta", {"s0": 0.0}),
    ])
    def test_boundary_and_pole_rows_match_per_row_writers(self, model, var, fixed):
        coupling = (AsymmetricCoupling(0.5, 1.0, 0.5, 1.0, 1.0) if model == "asymmetric"
                    else SymmetricCoupling(0.5 if var != "omega_n" else 1.0, 1.0))
        start, stop = (-1.0, 1.0) if var == "delta" else (0.0, 1.0)
        spec = SweepSpec(model=model, coupling=coupling, var=var,
                         range=SweepRange(start, stop, 2 * sweep._CHUNK_ROWS + 1), fixed=fixed)
        rows = oracles.run_sweep(spec)
        assert any(row.branch == "boundary" for row in rows)
        assert_streams_match_oracle(spec)

    @settings(max_examples=200, deadline=None)
    @given(sweep_specs(), st.sampled_from([1, 2, 5, 4096]))
    def test_streamed_sweeps_match_per_row_writers(self, spec, chunk):
        with mock.patch.object(sweep, "_CHUNK_ROWS", chunk):
            assert_streams_match_oracle(spec)

    @pytest.mark.parametrize("writer, oracle", [
        (sweep._write_csv, oracles.rows_to_csv), (sweep._write_json, oracles.rows_to_json)])
    def test_each_chunk_is_rendered_from_its_own_layout(self, writer, oracle):
        # a fixed delta and swept s0 first, then a swept delta and a fixed
        # s0: no chunk may take another's layout
        def chunk(rows, single, shared):
            columns = [list(column) for column in zip(*map(sweep._row_values, rows))]
            columns[CSV_COLUMNS.index(single)] = columns[CSV_COLUMNS.index(single)][0]
            columns[CSV_COLUMNS.index(shared)] = columns[0]
            return columns

        first = [oracles.evaluate_point("kerr", FULL, -0.75, s0, swept_value=s0)
                 for s0 in (0.1, 0.2, 0.3)]
        second = [oracles.evaluate_point("kerr", FULL, delta, 0.4, swept_value=delta)
                  for delta in (-1.0, 0.25)]
        out = io.StringIO()
        writer(out.write, [chunk(first, "delta", "s0"), chunk(second, "s0", "delta")])
        assert out.getvalue() == oracle(first + second)

    def test_non_finite_json_raises_before_its_chunk(self):
        good = oracles.evaluate_point("symmetric", MIRROR, -1.0, 0.3)
        bad = ResultRow(**{**row_to_dict(good), "p_sc_over_p": math.nan})
        out = io.StringIO()
        with mock.patch.object(sweep, "_CHUNK_ROWS", 2):
            with pytest.raises(DomainError, match="nan"):
                sweep._write_json(out.write, sweep._row_chunks([good, good, good, bad]))
        assert out.getvalue() == oracles.rows_to_json([good, good])[:-len("\n]\n")]
        with pytest.raises(DomainError, match="nan"):
            rows_to_json([bad])

    @pytest.mark.parametrize("write", [sweep._write_csv, sweep._write_json])
    def test_memory_does_not_grow_with_the_grid(self, write):
        # only the float64 grid spans the sweep: 8 bytes a point, 1.44 MB
        # over the 180 000 extra points
        def peak(count):
            spec = SweepSpec(model="symmetric", coupling=FULL, var="omega_n",
                             range=SweepRange(0.0, 1.0, count),
                             fixed={"delta": -0.5, "s0": 0.3})
            tracemalloc.start()
            try:
                write(lambda text: None, sweep._sweep_rows(spec))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200_001) - peak(20_001) < 2_000_000


def test_fixed_s_conflicts_with_a_swept_s0():
    with pytest.raises(DomainError, match="conflict"):
        SweepSpec(model="symmetric", coupling=SymmetricCoupling(1.0, 1.0), var="s0",
                  range=SweepRange(0.0, 1.0, 3), fixed={"delta": 0.0, "s": 0.1})


def test_fixed_delta_conflicts_with_a_swept_delta():
    with pytest.raises(DomainError, match="^fixed 'delta' conflicts with sweeping delta$"):
        SweepSpec(model="symmetric", coupling=SymmetricCoupling(1.0, 1.0), var="delta",
                  range=SweepRange(0.0, 1.0, 3), fixed={"delta": 1.0, "s0": 0.1})
