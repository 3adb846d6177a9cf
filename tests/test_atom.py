"""Unit and property tests for the driven two-level-atom response."""

import cmath
import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c, epsilon_0, hbar
from scipy.optimize import minimize_scalar

from atomphase import atom as atom_module
from atomphase import (
    FULL_DIPOLE_SOLID_ANGLE,
    AsymmetricCoupling,
    AtomPhaseError,
    AtomTransition,
    DomainError,
    PhaseBranch,
    SweepRange,
    SweepSpec,
    SymmetricCoupling,
    coherent_fraction,
    critical_saturation,
    dispersive_phase_arctan,
    evaluate_point,
    excited_state_population,
    kerr_linear_phase,
    kerr_phase,
    kerr_relative_error,
    phase_asymmetric,
    phase_symmetric,
    physical_to_normalized,
    repeater_margin,
    resonance_branch,
    saturation_at_detuning,
    scattered_phase,
    scattered_power_ratio,
    steady_state_coherence,
    write_sweep,
)

OMEGA0 = 2.0 * math.pi * 384.23e12  # rad/s, optical-frequency scale
MU = 3.58e-29                       # C*m, typical strong dipole line


@pytest.fixture
def atom():
    return AtomTransition.from_dipole(OMEGA0, MU)


class TestAtomTransition:
    def test_linewidth_from_dipole(self, atom):
        expected = OMEGA0**3 * MU**2 / (3.0 * math.pi * epsilon_0 * hbar * c**3)
        np.testing.assert_allclose(atom.gamma, expected, rtol=1e-15)

    def test_from_linewidth_round_trip(self, atom):
        rebuilt = AtomTransition.from_linewidth(OMEGA0, atom.gamma)
        np.testing.assert_allclose(rebuilt.mu, MU, rtol=1e-12)

    def test_doubling_mu_quadruples_gamma(self, atom):
        doubled = AtomTransition.from_dipole(OMEGA0, 2.0 * MU)
        np.testing.assert_allclose(doubled.gamma, 4.0 * atom.gamma, rtol=1e-12)

    def test_wavelength(self, atom):
        np.testing.assert_allclose(atom.wavelength, 2.0 * math.pi * c / OMEGA0,
                                   rtol=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(omega0=-OMEGA0, gamma=1.0, mu=MU),
        dict(omega0=OMEGA0, gamma=0.0, mu=MU),
        dict(omega0=OMEGA0, gamma=1.0, mu=-MU),
        dict(omega0=OMEGA0, gamma=1.0, mu=complex(MU, 1e-31)),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(DomainError):
            AtomTransition(**kwargs)

    def test_rejects_complex_dipole_in_constructor(self):
        with pytest.raises(DomainError):
            AtomTransition.from_dipole(OMEGA0, complex(MU, 0.0))


class TestConstants:
    def test_literals_are_scipys_codata_values(self):
        assert (atom_module._C, atom_module._HBAR, atom_module._EPS0) == (c, hbar, epsilon_0)

    def test_conversions_are_bit_identical(self, atom):
        # the bits these calls gave while atom.py imported scipy.constants
        drive = physical_to_normalized(1e-9, atom, FULL_DIPOLE_SOLID_ANGLE / 2.0, 0.9)
        assert [x.hex() for x in (atom.gamma, atom.wavelength, *drive)] == [
            "0x1.221f5c9b506c4p+26", "0x1.a2e3aba79c7e3p-21", "0x1.0026e693bbb63p+11",
            "0x1.4bb6f1ad67d36p+29", "0x1.4ea976d266129p+7"]
        assert AtomTransition.from_linewidth(OMEGA0, 3.8e7).mu.hex() == "0x1.00a0b7b9d679cp-95"


class TestPhysicalToNormalized:
    def test_unit_saturation_power(self, atom):
        # P = hbar omega0 Gamma / 8 at full coverage and perfect overlap
        power = hbar * atom.omega0 * atom.gamma / 8.0
        result = physical_to_normalized(power, atom, FULL_DIPOLE_SOLID_ANGLE, 1.0)
        np.testing.assert_allclose(result.s0, 1.0, rtol=1e-12)

    def test_chain_matches_closed_form(self, atom):
        # the E0 -> Rabi -> s0 chain must agree with 8 P omega_n eta^2 /
        # (hbar omega0 Gamma) whenever gamma is consistent with mu
        rng = np.random.default_rng(7)
        for _ in range(50):
            power = float(rng.uniform(1e-15, 1e-9))
            omega_n = float(rng.uniform(0.0, 1.0))
            eta = float(rng.uniform(0.0, 1.0))
            result = physical_to_normalized(
                power, atom, omega_n * FULL_DIPOLE_SOLID_ANGLE, eta)
            closed = 8.0 * power * omega_n * eta**2 / (hbar * atom.omega0 * atom.gamma)
            np.testing.assert_allclose(result.s0, closed, rtol=1e-12)

    def test_rabi_is_field_times_dipole(self, atom):
        result = physical_to_normalized(1e-12, atom, 4.0, 0.7)
        np.testing.assert_allclose(result.rabi, result.e_field * atom.mu / hbar,
                                   rtol=1e-15)

    def test_mu_scaling_law(self, atom):
        # at fixed power, quadrupling gamma via 2 mu divides s0 by four
        doubled = AtomTransition.from_dipole(OMEGA0, 2.0 * MU)
        power = 1e-12
        s0_ref = physical_to_normalized(power, atom, 2.0, 1.0).s0
        s0_doubled = physical_to_normalized(power, doubled, 2.0, 1.0).s0
        np.testing.assert_allclose(s0_doubled, s0_ref / 4.0, rtol=1e-12)

    @pytest.mark.parametrize("power,solid_angle,eta", [
        (-1e-12, 1.0, 1.0),
        (1e-12, -0.1, 1.0),
        (1e-12, FULL_DIPOLE_SOLID_ANGLE * 1.001, 1.0),
        (1e-12, 1.0, -0.1),
        (1e-12, 1.0, 1.1),
    ])
    def test_domain_errors(self, atom, power, solid_angle, eta):
        with pytest.raises(DomainError):
            physical_to_normalized(power, atom, solid_angle, eta)


class TestSaturation:
    def test_on_resonance(self):
        assert saturation_at_detuning(1.0, 0.0) == 1.0

    @pytest.mark.parametrize("delta", [0.5, -0.5])
    def test_half_linewidth(self, delta):
        assert saturation_at_detuning(1.0, delta) == 0.5

    def test_far_detuned(self):
        np.testing.assert_allclose(saturation_at_detuning(0.1, -10.0),
                                   0.1 / 401.0, rtol=1e-15)

    def test_never_exceeds_s0(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s0 = float(rng.uniform(0.0, 100.0))
            delta = float(rng.uniform(-50.0, 50.0))
            assert saturation_at_detuning(s0, delta) <= s0

    def test_drive_type_consistency(self):
        row = evaluate_point("symmetric", SymmetricCoupling(1.0, 1.0), -2.0, 3.0)
        np.testing.assert_allclose(row.s, 3.0 / 17.0, rtol=1e-15)
        assert row.s <= row.s0
        with pytest.raises(DomainError):
            evaluate_point("kerr", SymmetricCoupling(1.0, 1.0), 0.0, -0.1)

    def test_drive_from_power(self):
        atom = AtomTransition.from_dipole(OMEGA0, MU)
        power = hbar * atom.omega0 * atom.gamma / 8.0
        s0 = physical_to_normalized(power, atom, FULL_DIPOLE_SOLID_ANGLE, 1.0).s0
        np.testing.assert_allclose(s0, 1.0, rtol=1e-12)
        np.testing.assert_allclose(saturation_at_detuning(s0, -1.0), s0 / 5.0,
                                   rtol=1e-12)


class TestExcitedStatePopulation:
    def test_dark_atom(self):
        assert excited_state_population(0.0) == 0.0

    def test_unit_saturation(self):
        assert excited_state_population(1.0) == 0.25

    def test_saturates_at_one_half(self):
        assert excited_state_population(1e12) > 0.4999
        assert excited_state_population(1e12) < 0.5

    def test_strictly_increasing_and_bounded(self):
        grid = np.logspace(-6, 6, 121)
        values = [excited_state_population(s) for s in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 < v < 0.5 for v in values)


class TestSteadyStateCoherence:
    GAMMA = 2.0 * math.pi * 6.07e6

    def test_weak_drive_limit(self):
        rabi = 1e-6 * self.GAMMA
        rho = steady_state_coherence(rabi, 0.0, self.GAMMA)
        expected = 1j * rabi / self.GAMMA
        assert abs(rho - expected) / abs(expected) < 1e-6

    def test_strong_drive_vanishes(self):
        rho = steady_state_coherence(1e9 * self.GAMMA, 0.0, self.GAMMA)
        assert abs(rho) < 1e-8

    def test_maximum_magnitude_oracle(self):
        # independent search over the drive strength at zero detuning
        result = minimize_scalar(
            lambda rabi: -abs(steady_state_coherence(rabi, 0.0, self.GAMMA)),
            bounds=(1e-4 * self.GAMMA, 1e2 * self.GAMMA),
            method="bounded",
            options={"xatol": 1e-6 * self.GAMMA},
        )
        np.testing.assert_allclose(-result.fun, 0.5 / math.sqrt(2.0), rtol=1e-9)
        np.testing.assert_allclose(result.x, self.GAMMA / math.sqrt(2.0), rtol=1e-6)

    def test_phase_independent_of_drive_strength(self):
        for delta in (-3.0, -0.2, 0.0, 0.7, 5.0):
            phases = [
                cmath.phase(steady_state_coherence(rabi, delta * self.GAMMA, self.GAMMA))
                for rabi in (1e-3 * self.GAMMA, self.GAMMA, 1e3 * self.GAMMA)
            ]
            assert max(phases) - min(phases) < 1e-12


class TestScatteredPhase:
    def test_on_resonance(self):
        assert scattered_phase(0.0) == math.pi / 2.0

    def test_on_resonance_with_gouy(self):
        assert scattered_phase(0.0, include_gouy=True) == math.pi

    def test_half_linewidth(self):
        np.testing.assert_allclose(scattered_phase(0.5), 0.75 * math.pi,
                                   rtol=1e-15)

    def test_odd_about_pi_half(self):
        for delta in np.linspace(0.0, 20.0, 101):
            plus = scattered_phase(delta) - math.pi / 2.0
            minus = scattered_phase(-delta) - math.pi / 2.0
            assert abs(plus + minus) < 1e-12


class TestScatteredPowerRatio:
    def test_half_solid_angle_reaches_two(self):
        assert scattered_power_ratio(0.5, 1.0, 0.0, 0.0) == 2.0

    def test_full_coverage_reaches_four(self):
        assert scattered_power_ratio(1.0, 1.0, 0.0, 0.0) == 4.0

    def test_unit_saturation(self):
        np.testing.assert_allclose(scattered_power_ratio(1.0, 1.0, 0.0, 1.0),
                                   1.0, rtol=1e-15)

    def test_even_in_detuning(self):
        for delta in np.linspace(0.1, 10.0, 25):
            for s0 in (0.0, 0.3, 5.0):
                a = scattered_power_ratio(0.8, 0.9, delta, s0)
                b = scattered_power_ratio(0.8, 0.9, -delta, s0)
                assert a == b

    def test_non_increasing_in_s0(self):
        s0_grid = np.linspace(0.0, 20.0, 50)
        for delta in (0.0, -1.0, 3.0):
            values = [scattered_power_ratio(0.7, 0.95, delta, s0) for s0 in s0_grid]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_composition_identity(self):
        # ratio == 4 omega_n eta^2 * coherent_fraction(s)^2 / (1 + 4 delta^2)
        for delta in np.linspace(-5.0, 5.0, 21):
            for s0 in (0.0, 0.1, 1.0, 10.0):
                s = saturation_at_detuning(s0, delta)
                direct = scattered_power_ratio(0.62, 0.87, delta, s0)
                composed = (4.0 * 0.62 * 0.87**2 * coherent_fraction(s) ** 2
                            / (1.0 + 4.0 * delta**2))
                np.testing.assert_allclose(direct, composed, rtol=1e-12)


class TestCoherentFraction:
    def test_values(self):
        assert coherent_fraction(0.0) == 1.0
        assert coherent_fraction(1.0) == 0.5
        np.testing.assert_allclose(coherent_fraction(9.0), 0.1, rtol=1e-15)


class TestRejectedInputs:
    # each returned a number or raised ZeroDivisionError or OverflowError
    # before these functions checked their inputs
    @pytest.mark.parametrize("func, args", [
        (excited_state_population, (-1.0,)),
        (excited_state_population, (math.nan,)),
        (coherent_fraction, (-1.0,)),
        (coherent_fraction, (math.nan,)),
        (coherent_fraction, (math.inf,)),
        (steady_state_coherence, (0.0, 0.0, 0.0)),
        (steady_state_coherence, (0.0, 0.0, -1.0)),
        (steady_state_coherence, (1e200, 0.0, 1.0)),      # rabi^2 overflows
        (steady_state_coherence, (0.0, 1e154, 1.0)),      # 4 delta^2 overflows
        (steady_state_coherence, (0.0, 0.0, 1e-200)),     # gamma^2 underflows to 0
        (steady_state_coherence, (math.nan, 0.0, 1.0)),
        (steady_state_coherence, (0.0, math.inf, 1.0)),
        (scattered_power_ratio, (2.0, 0.5, 0.0, 0.0)),
        (scattered_power_ratio, (math.nan, 0.5, 0.0, 0.0)),
        (scattered_power_ratio, (0.5, -0.1, 0.0, 0.0)),
    ])
    def test_raises_domain_error(self, func, args):
        with pytest.raises(DomainError):
            func(*args)

    # each returned 0, NaN or an infinity, or raised OverflowError, before
    # these functions checked their inputs and results
    @pytest.mark.parametrize("call", [
        lambda: AtomTransition(math.inf, 1.0, 1.0),
        lambda: AtomTransition.from_dipole(1e300, 1e-29),
        lambda: AtomTransition.from_linewidth(1e300, 1.0),
        lambda: physical_to_normalized(math.nan, AtomTransition(1.0, 1.0, 1.0), 1.0, 1.0),
        lambda: physical_to_normalized(math.inf, AtomTransition(1.0, 1.0, 1.0), 1.0, 1.0),
    ], ids=["inf-omega0", "dipole-overflow", "linewidth-overflow", "nan-power", "inf-power"])
    def test_non_finite_value_is_domain_error(self, call):
        with pytest.raises(DomainError):
            call()

    def test_unit_interval_message(self):
        with pytest.raises(DomainError, match=r"^omega_n must lie in \[0, 1\], got 2\.0$"):
            scattered_power_ratio(2.0, 0.5, 0.0, 0.0)


# every float, with the extremes hypothesis may not reach on its own, and
# the ints past the float range
anything = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-308, 1e308, -1e308, 0.0, -0.0,
     10**400, -10**400]))
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
unit = st.floats(0.0, 1.0)


def _transition(make, *args):
    atom = make(*args)
    return atom.wavelength, atom.gamma, atom.mu


def _phase(*args):
    return phase_symmetric(*args).phi


def _phase_asymmetric(*args):
    return phase_asymmetric(*args).phi


def _coupling(omega_n, eta):
    coupling = SymmetricCoupling(omega_n, eta)
    return coupling.omega_n, coupling.eta


def _coherence(*args):
    rho = steady_state_coherence(*args)
    return rho.real, rho.imag


def _branch(*args):
    return 0.0 if isinstance(resonance_branch(*args), PhaseBranch) else math.nan


def _critical(*args):
    # None: no drive reaches the pi branch
    s_star = critical_saturation(*args)
    return 0.0 if s_star is None else s_star


def _row(model, *args):
    # the numeric fields; the phase ones are None on a boundary row
    row = evaluate_point(model, *args)
    return tuple(v for v in (row.delta, row.s0, row.s, row.phi_rad, row.phi_deg,
                             row.p_sc_over_p, row.coherent_fraction) if v is not None)


symmetric = st.builds(SymmetricCoupling, unit, unit)


def _refuse_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def _written(model, coupling, var, start, stop, delta, drive, fmt):
    # a 5-point sweep written as CSV or strict JSON; the numbers in it
    fixed = {} if var == "delta" else {"delta": delta}
    if var not in ("s0", "s"):
        fixed["s0"] = drive
    spec = SweepSpec(model, coupling, var, SweepRange(start, stop, 5), fixed)
    chunks = []
    write_sweep(spec, chunks.append, fmt)
    text = "".join(chunks)
    if fmt == "json":
        rows = json.loads(text, parse_constant=_refuse_constant)
        assert len(rows) == 5
        return tuple(v for row in rows for v in row.values() if isinstance(v, float))
    lines = text.splitlines()[1:]
    assert len(lines) == 5
    cells = [cell for line in lines for cell in line.split(",")]
    # every cell but the branch and model names is a number or empty
    names = {branch.value for branch in PhaseBranch} | {model}
    return tuple(float(cell) for cell in cells if cell and cell not in names)


asymmetric = st.builds(AsymmetricCoupling, *(unit,) * 5)
# every float still, but weighted toward the values a sweep accepts
drives = st.one_of(anything, st.floats(-100.0, 100.0))


TOTAL = {
    "AtomTransition": (partial(_transition, AtomTransition), (anything,) * 3),
    "from_dipole": (partial(_transition, AtomTransition.from_dipole), (anything,) * 2),
    "from_linewidth": (partial(_transition, AtomTransition.from_linewidth), (anything,) * 2),
    "physical_to_normalized": (physical_to_normalized, (
        anything, st.builds(AtomTransition, positive, positive, positive), anything, anything)),
    "scattered_phase": (scattered_phase, (anything, st.booleans())),
    "kerr_phase": (kerr_phase, (anything, anything)),
    "repeater_margin": (repeater_margin, (anything, anything)),
    "phase_symmetric": (_phase, (st.builds(SymmetricCoupling, unit, unit), anything, anything)),
    "kerr_linear_phase": (kerr_linear_phase, (st.builds(SymmetricCoupling, unit, unit),
                                              anything)),
    "kerr_relative_error": (kerr_relative_error, (st.builds(SymmetricCoupling, unit, unit),
                                                  anything, anything)),
    "phase_asymmetric": (_phase_asymmetric, (st.builds(AsymmetricCoupling, *(unit,) * 5),
                                             anything, anything)),
    "dispersive_phase_arctan": (dispersive_phase_arctan, (
        st.builds(SymmetricCoupling, unit, unit), anything, anything)),
    "excited_state_population": (excited_state_population, (anything,)),
    "coherent_fraction": (coherent_fraction, (anything,)),
    "steady_state_coherence": (_coherence, (anything,) * 3),
    "SymmetricCoupling": (_coupling, (anything,) * 2),
    "resonance_branch": (_branch, (symmetric, anything)),
    "critical_saturation": (_critical, (symmetric,)),
    "scattered_power_ratio": (scattered_power_ratio, (anything,) * 4),
    "saturation_at_detuning": (saturation_at_detuning, (anything,) * 2),
    **{f"evaluate_point-{model}": (partial(_row, model), (
        coupling, anything, anything, st.booleans()))
       for model, coupling in (("symmetric", symmetric), ("kerr", symmetric),
                               ("asymmetric", asymmetric))},
    **{f"write_sweep-{model}": (partial(_written, model), (
        coupling, st.sampled_from(["delta", "s0", "s", "omega_n", "eta"]), *(drives,) * 4,
        st.sampled_from(["csv", "json"])))
       for model, coupling in (("symmetric", symmetric), ("kerr", symmetric),
                               ("asymmetric", asymmetric))},
}


@pytest.mark.parametrize("name", sorted(TOTAL))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_finite_or_refused(name, data):
    """A finite value, or an AtomPhaseError subclass, for every float."""
    func, strategies = TOTAL[name]
    args = [data.draw(strategy) for strategy in strategies]
    try:
        value = func(*args)
    except AtomPhaseError:
        return
    values = value if isinstance(value, tuple) else (value,)
    assert all(map(math.isfinite, values)), (args, value)
