"""Unit and property tests for the superposition phase model."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import atomphase
import oracles
from atomphase import (
    AsymmetricCoupling,
    AtomPhaseError,
    DegenerateResultError,
    DomainError,
    PhaseBranch,
    PoleError,
    SweepRange,
    SweepSpec,
    SymmetricCoupling,
    UndefinedRatioError,
    critical_saturation,
    dispersive_phase_arctan,
    evaluate_point,
    kerr_linear_phase,
    kerr_phase,
    kerr_relative_error,
    phase_asymmetric,
    phase_symmetric,
    repeater_margin,
    resonance_branch,
    run_sweep,
    saturation_at_detuning,
    scattered_phase,
    scattered_power_ratio,
)

FULL = SymmetricCoupling(omega_n=1.0, eta=1.0)
OBJECTIVE = SymmetricCoupling(omega_n=0.38, eta=1.0)
MIRROR = SymmetricCoupling(omega_n=0.94, eta=0.98)
MIRROR_ASYM = AsymmetricCoupling(omega_n=0.94, eta=0.98, omega_n_prime=0.88,
                                 eta_prime=0.99, p=0.97)
THRESHOLD = 4.0 ** (1.0 / 3.0) - 1.0


def random_symmetric(rng):
    return SymmetricCoupling(omega_n=float(rng.uniform(0.0, 1.0)),
                             eta=float(rng.uniform(0.0, 1.0)))


class TestPhaseSymmetric:
    def test_full_coupling_resonance_is_pi(self):
        result = phase_symmetric(FULL, 0.0, 0.0)
        assert result.phi == math.pi
        assert result.branch is PhaseBranch.PI

    def test_partial_coupling_resonance_is_zero(self):
        result = phase_symmetric(OBJECTIVE, 0.0, 0.0)
        assert result.phi == 0.0
        assert result.branch is PhaseBranch.ZERO

    def test_half_linewidth_is_pi_half(self):
        result = phase_symmetric(FULL, -0.5, 0.0)
        # the amplitude is 0 + 2i
        assert oracles.symmetric_parts(FULL, -0.5, 0.0) == (0.0, 2.0)
        assert result.phi == math.pi / 2.0
        assert result.branch is PhaseBranch.GENERIC

    def test_one_linewidth(self):
        # complex argument 3 + 4i
        result = phase_symmetric(FULL, -1.0, 0.0)
        np.testing.assert_allclose(result.phi, math.atan2(4.0, 3.0), rtol=1e-15)
        np.testing.assert_allclose(result.phi, 0.927295, atol=1e-6)

    def test_boundary_raises(self):
        # 2 omega_n eta^2 == (1 + s0)^(3/2) exactly, on resonance
        with pytest.raises(DegenerateResultError):
            phase_symmetric(SymmetricCoupling(0.5, 1.0), 0.0, 0.0)

    def test_phi_is_atan2_of_parts(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = random_symmetric(rng)
            delta = float(rng.uniform(-10.0, 10.0))
            s0 = float(rng.uniform(0.0, 10.0))
            r = phase_symmetric(c, delta, s0)
            real, imag = oracles.symmetric_parts(c, delta, s0)
            assert r.phi == math.atan2(imag, real)
            assert -math.pi < r.phi <= math.pi

    def test_negative_s0_rejected(self):
        with pytest.raises(DomainError):
            phase_symmetric(FULL, 0.0, -0.1)

    def test_coupling_validation(self):
        with pytest.raises(DomainError):
            SymmetricCoupling(omega_n=1.2, eta=1.0)
        with pytest.raises(DomainError):
            SymmetricCoupling(omega_n=0.5, eta=-0.1)

    @pytest.mark.parametrize("coupling_type, names", [
        (SymmetricCoupling, ["omega_n", "eta"]),
        (AsymmetricCoupling, ["omega_n", "eta", "omega_n_prime", "eta_prime", "p"]),
    ])
    def test_coupling_messages_in_field_order(self, coupling_type, names):
        # each parameter names itself, and the first bad one in field order wins
        for i, name in enumerate(names):
            values = [0.5] * i + [1.5] * (len(names) - i)
            with pytest.raises(DomainError) as info:
                coupling_type(*values)
            assert str(info.value) == f"{name} must lie in [0, 1], got 1.5"

    def test_odd_in_detuning(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            c = random_symmetric(rng)
            delta = float(rng.uniform(1e-3, 20.0))
            s0 = float(rng.uniform(0.0, 20.0))
            plus = phase_symmetric(c, delta, s0)
            minus = phase_symmetric(c, -delta, s0)
            # the same real part and opposite imaginary parts
            assert plus.phi == -minus.phi

    def test_real_part_increasing_in_s0_imag_constant(self):
        s0_grid = np.linspace(0.0, 10.0, 41)
        for delta in (-3.0, -0.5, 0.0, 1.0):
            parts = [oracles.symmetric_parts(MIRROR, delta, s0) for s0 in s0_grid]
            reals = [real for real, _ in parts]
            assert all(b > a for a, b in zip(reals, reals[1:]))
            imags = {imag for _, imag in parts}
            assert len(imags) == 1
            phis = [phase_symmetric(MIRROR, delta, s0).phi for s0 in s0_grid]
            assert phis == [math.atan2(imag + 0.0, real) for real, imag in parts]

    def test_at_most_pi_half_beyond_half_linewidth(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            c = random_symmetric(rng)
            delta = float(rng.uniform(0.5, 30.0)) * float(rng.choice([-1.0, 1.0]))
            s0 = float(rng.uniform(0.0, 30.0))
            assert abs(phase_symmetric(c, delta, s0).phi) <= math.pi / 2.0 + 1e-15


class TestPhaseAsymmetric:
    def test_collapses_to_symmetric(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            omega_n = float(rng.uniform(0.0, 1.0))
            eta = float(rng.uniform(0.0, 1.0))
            delta = float(rng.uniform(-10.0, 10.0))
            s0 = float(rng.uniform(0.0, 10.0))
            collapsed = AsymmetricCoupling(omega_n=omega_n, eta=eta,
                                           omega_n_prime=omega_n,
                                           eta_prime=eta, p=1.0)
            sym = SymmetricCoupling(omega_n=omega_n, eta=eta)
            a = phase_asymmetric(collapsed, delta, s0)
            b = phase_symmetric(sym, delta, s0)
            assert abs(a.phi - b.phi) < 1e-12

    def test_mirror_example_low_saturation(self):
        result = phase_asymmetric(MIRROR_ASYM, 0.0, 0.1)
        assert result.phi == math.pi
        assert result.branch is PhaseBranch.PI
        real, _ = oracles.asymmetric_parts(MIRROR_ASYM, 0.0, 0.1)
        np.testing.assert_allclose(real, -0.629, atol=1e-3)

    def test_mirror_example_high_saturation(self):
        result = phase_asymmetric(MIRROR_ASYM, 0.0, 10.0)
        assert result.phi == 0.0
        assert result.branch is PhaseBranch.ZERO
        real, _ = oracles.asymmetric_parts(MIRROR_ASYM, 0.0, 10.0)
        np.testing.assert_allclose(real, 34.2, atol=0.1)

    def test_zero_power_fraction_rejected(self):
        coupling = AsymmetricCoupling(omega_n=0.9, eta=0.9, omega_n_prime=0.8,
                                      eta_prime=0.9, p=0.0)
        with pytest.raises(DomainError):
            phase_asymmetric(coupling, -1.0, 0.0)

    def test_deviation_from_symmetric_small(self):
        # p = 1 collapse of the mirror example stays within a few percent
        deltas = np.linspace(-10.0, -0.01, 500)
        devs = []
        for delta in deltas:
            full = phase_asymmetric(MIRROR_ASYM, delta, 0.1).phi
            sym = phase_symmetric(MIRROR, delta, 0.1).phi
            devs.append(abs(full - sym) / abs(sym))
        assert 0.001 <= max(devs) <= 0.03


class TestResonanceBranch:
    def test_full_coupling(self):
        assert resonance_branch(FULL, 0.0) is PhaseBranch.PI

    def test_objective(self):
        assert resonance_branch(OBJECTIVE, 0.0) is PhaseBranch.ZERO

    def test_threshold_straddle(self):
        assert resonance_branch(FULL, THRESHOLD - 1e-5) is PhaseBranch.PI
        assert resonance_branch(FULL, THRESHOLD + 1e-5) is PhaseBranch.ZERO

    def test_exact_boundary(self):
        assert resonance_branch(SymmetricCoupling(0.5, 1.0), 0.0) is PhaseBranch.BOUNDARY

    def test_agrees_with_phase_real_part(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            c = random_symmetric(rng)
            s0 = float(rng.uniform(0.0, 5.0))
            branch = resonance_branch(c, s0)
            if branch is PhaseBranch.BOUNDARY:
                continue
            real, _ = oracles.symmetric_parts(c, 0.0, s0)
            expected = PhaseBranch.PI if real < 0 else PhaseBranch.ZERO
            assert branch is expected
            assert phase_symmetric(c, 0.0, s0).branch is expected


class TestCriticalSaturation:
    def test_full_coupling(self):
        np.testing.assert_allclose(critical_saturation(FULL), THRESHOLD, rtol=1e-12)
        np.testing.assert_allclose(critical_saturation(FULL), 0.587401, atol=1e-6)

    def test_half_coupling(self):
        assert critical_saturation(SymmetricCoupling(0.5, 1.0)) == 0.0

    def test_absent_below_half(self):
        assert critical_saturation(OBJECTIVE) is None

    def test_marks_the_branch_flip(self):
        s0_star = critical_saturation(MIRROR)
        assert resonance_branch(MIRROR, s0_star * (1 - 1e-9)) is PhaseBranch.PI
        assert resonance_branch(MIRROR, s0_star * (1 + 1e-9)) is PhaseBranch.ZERO

    def test_flip_within_two_ulp(self):
        # the documented contract: exact to within 2 ulp(1 + s*) on either side
        rng = np.random.default_rng(29)
        couplings = [SymmetricCoupling(0.9, 0.98), SymmetricCoupling(1.0, 1.0),
                     SymmetricCoupling(0.5, 1.0)]
        for _ in range(2000):
            omega_n = float(rng.uniform(0.5, 1.0))
            eta = float(rng.uniform(math.sqrt(0.5 / omega_n), 1.0))
            couplings.append(SymmetricCoupling(omega_n, eta))
        for coupling in couplings:
            s0_star = critical_saturation(coupling)
            margin = 2.0 * math.ulp(1.0 + s0_star)
            if s0_star - margin >= 0.0:
                assert resonance_branch(coupling, s0_star - margin) is PhaseBranch.PI
            assert resonance_branch(coupling, s0_star + margin) is PhaseBranch.ZERO


class TestDispersiveArctan:
    def test_matches_exact_phase(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            c = random_symmetric(rng)
            delta = float(rng.uniform(0.5, 30.0)) * float(rng.choice([-1.0, 1.0]))
            s0 = float(rng.uniform(0.0, 30.0))
            a = dispersive_phase_arctan(c, delta, s0)
            b = phase_symmetric(c, delta, s0).phi
            assert abs(a - b) < 1e-12

    def test_mirror_point(self):
        a = dispersive_phase_arctan(MIRROR, -10.0, 40.1)
        b = phase_symmetric(MIRROR, -10.0, 40.1).phi
        assert abs(a - b) < 1e-12

    def test_signed_limit_at_zero_denominator(self):
        np.testing.assert_allclose(dispersive_phase_arctan(FULL, -0.5, 0.0),
                                   math.pi / 2.0, rtol=1e-15)
        np.testing.assert_allclose(dispersive_phase_arctan(FULL, 0.5, 0.0),
                                   -math.pi / 2.0, rtol=1e-15)

    def test_objective_far_detuned(self):
        a = dispersive_phase_arctan(OBJECTIVE, -5.0, 0.0)
        b = phase_symmetric(OBJECTIVE, -5.0, 0.0).phi
        assert abs(a - b) < 1e-12

    def test_requires_half_linewidth(self):
        with pytest.raises(DomainError):
            dispersive_phase_arctan(FULL, -0.4, 0.0)


class TestKerr:
    def test_linear_phase_mirror_value(self):
        np.testing.assert_allclose(kerr_linear_phase(MIRROR, -10.0),
                                   0.090460, atol=1e-6)

    def test_linear_phase_full_coupling(self):
        np.testing.assert_allclose(kerr_linear_phase(FULL, -1.0), 4.0 / 3.0,
                                   rtol=1e-15)

    def test_linear_phase_vanishes_far_detuned(self):
        assert abs(kerr_linear_phase(MIRROR, -1e6)) < 1e-5

    def test_linear_phase_pole(self):
        # 1 + 4 delta^2 - 2 omega_n eta^2 = 0 at full coupling, half linewidth
        with pytest.raises(PoleError):
            kerr_linear_phase(FULL, 0.5)

    def test_kerr_phase_values(self):
        assert kerr_phase(0.3, 0.0) == 0.3
        np.testing.assert_allclose(kerr_phase(0.3, 2.0 / 3.0), 0.0, atol=1e-16)
        np.testing.assert_allclose(kerr_phase(0.090460, 0.2), 0.063322,
                                   atol=1e-6)

    @pytest.mark.parametrize("phi0, s", [
        (math.inf, 0.1), (math.nan, 0.1), (0.1, math.inf), (0.1, math.nan), (0.1, -1.0)])
    def test_kerr_phase_rejects(self, phi0, s):
        with pytest.raises(DomainError):
            kerr_phase(phi0, s)

    def test_relative_error_vanishes_at_zero_drive(self):
        assert kerr_relative_error(MIRROR, -10.0, 0.0) == 0.0

    def test_relative_error_values(self):
        assert kerr_relative_error(MIRROR, -10.0, 0.02) < 2e-3
        np.testing.assert_allclose(kerr_relative_error(MIRROR, -10.0, 0.1),
                                   1.7e-2, atol=2e-3)

    def test_relative_error_strictly_increasing(self):
        grid = np.linspace(0.01, 0.3, 60)
        errors = [kerr_relative_error(MIRROR, -10.0, s) for s in grid]
        assert all(b > a for a, b in zip(errors, errors[1:]))

    def test_relative_error_ordering(self):
        assert (kerr_relative_error(MIRROR, -10.0, 0.02)
                < kerr_relative_error(MIRROR, -10.0, 0.1))

    def test_relative_error_undefined_on_resonance(self):
        with pytest.raises(UndefinedRatioError):
            kerr_relative_error(MIRROR, 0.0, 0.1)

    def test_relative_error_negative_s_rejected(self):
        with pytest.raises(DomainError):
            kerr_relative_error(MIRROR, -10.0, -0.1)


class TestRepeaterMargin:
    def test_values(self):
        np.testing.assert_allclose(repeater_margin(0.1, 100.0), 1.0, rtol=1e-15)
        assert repeater_margin(0.0, 42.0) == 0.0
        np.testing.assert_allclose(repeater_margin(0.0157, 1e4), 1.57,
                                   rtol=1e-12)

    def test_sign_insensitive(self):
        assert repeater_margin(-0.1, 100.0) == repeater_margin(0.1, 100.0)

    def test_rejects_non_positive_amplitude(self):
        with pytest.raises(DomainError):
            repeater_margin(0.1, 0.0)
        with pytest.raises(DomainError):
            repeater_margin(0.1, -1.0)


C = SymmetricCoupling(0.9, 0.9)


def kernel_message(model, coupling, delta, s0):
    with pytest.raises(DomainError) as info:
        evaluate_point(model, coupling, delta, s0)
    return str(info.value)


class TestScalarTotality:
    """Scalar functions reject the drives a sweep rejects, with its messages."""

    @pytest.mark.parametrize("call, model, delta, s0", [
        (lambda: phase_symmetric(C, 0.0, 1e308), "symmetric", 0.0, 1e308),
        (lambda: phase_asymmetric(MIRROR_ASYM, 0.0, 1e308), "symmetric", 0.0, 1e308),
        (lambda: scattered_power_ratio(0.9, 0.9, 0.0, 1e308), "symmetric", 0.0, 1e308),
        (lambda: resonance_branch(C, 1e308), "symmetric", 0.0, 1e308),
        (lambda: phase_symmetric(C, 1e308, 0.1), "symmetric", 1e308, 0.1),
        (lambda: dispersive_phase_arctan(C, 1e308, 0.1), "symmetric", 1e308, 0.1),
        (lambda: kerr_linear_phase(C, 1e308), "kerr", 1e308, 0.0),
        (lambda: kerr_relative_error(C, -1e200, 0.1), "kerr", -1e200, 0.1),
        (lambda: saturation_at_detuning(0.1, 1e200), "symmetric", 1e200, 0.1),
        (lambda: resonance_branch(C, math.nan), "symmetric", 0.0, math.nan),
        (lambda: resonance_branch(C, math.inf), "symmetric", 0.0, math.inf),
    ], ids=["symmetric-s0", "asymmetric-s0", "ratio-s0", "branch-s0", "symmetric-delta",
            "arctan-delta", "kerr-delta", "kerr-error-delta", "saturation-delta",
            "branch-nan", "branch-inf"])
    def test_rejected_like_a_sweep(self, call, model, delta, s0):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == kernel_message(model, C, delta, s0)

    def test_kerr_relative_error_huge_s(self):
        # a sweep of fixed s converts it to s0 = s (1 + 4 delta^2), which overflows
        with pytest.raises(DomainError) as info:
            kerr_relative_error(C, 1.0, 1e308)
        spec = SweepSpec(model="kerr", coupling=C, var="s",
                         range=SweepRange(1e307, 1e308, 2), fixed={"delta": 1.0})
        with pytest.raises(DomainError) as swept:
            run_sweep(spec)
        assert str(info.value) == str(swept.value) == "s0 must be finite, got inf"

    @pytest.mark.parametrize("call", [
        lambda bad: phase_symmetric(C, bad, 0.1),
        lambda bad: phase_asymmetric(MIRROR_ASYM, bad, 0.1),
        lambda bad: dispersive_phase_arctan(C, bad, 0.1),
        lambda bad: kerr_linear_phase(C, bad),
        lambda bad: kerr_relative_error(C, bad, 0.1),
        lambda bad: scattered_power_ratio(0.9, 0.9, bad, 0.1),
        lambda bad: saturation_at_detuning(0.1, bad),
    ], ids=["symmetric", "asymmetric", "arctan", "kerr", "kerr-error", "ratio", "saturation"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta(self, call, bad):
        with pytest.raises(DomainError) as info:
            call(bad)
        assert str(info.value) == kernel_message("symmetric", C, bad, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_s(self, bad):
        with pytest.raises(DomainError):
            kerr_relative_error(C, 1.0, bad)

    # each returned a NaN or an infinity before these functions checked
    # their inputs and results
    @pytest.mark.parametrize("func, args", [
        (kerr_phase, (1e308, 1e308)),
        (scattered_phase, (math.nan,)),
        (repeater_margin, (math.nan, 1.0)),
        (repeater_margin, (1.0, math.inf)),
        (repeater_margin, (1e308, 1e308)),
        # the reference phase is ~1e-185 and the linear form ~1e123
        (kerr_relative_error, (SymmetricCoupling(1.0, 1.0), 1.0, 1.5e123)),
    ], ids=["kerr-overflow", "scattered-nan", "margin-nan", "margin-inf", "margin-overflow",
            "kerr-error-overflow"])
    def test_non_finite_value_is_domain_error(self, func, args):
        with pytest.raises(DomainError):
            func(*args)


# ------------------------------------------------- literal formulas
unit = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))
detunings = st.one_of(st.floats(-60.0, 60.0), st.floats(-0.01, 0.01),
                      st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0]))
drives = st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, THRESHOLD]))


def outcome(func, *args):
    """What a call gives, comparable bit for bit: its error class, or its
    floats by float.hex with their type, or its branch or None."""
    try:
        value = func(*args)
    except AtomPhaseError as exc:
        return type(exc)
    parts = (value.phi, value.branch) if hasattr(value, "phi") else (value,)
    return tuple((type(x), x.hex()) if isinstance(x, float) else x for x in parts)


class TestLiteralFormulas:
    """Every function whose arithmetic the sweep kernel shares gives the
    bits of tests/oracles.py's literal spelling, and a Python float."""

    @settings(max_examples=400, deadline=None)
    # omega_n eta = 0 off resonance: the arctan form's numerator is +0.0
    @example(omega_n=0.0, eta=1.0, primes=(1.0, 1.0, 1.0), delta=1.0, s0=0.0, s=0.0, phi0=0.0)
    @example(omega_n=1.0, eta=1.0, primes=(1.0, 1.0, 1.0), delta=0.0, s0=THRESHOLD, s=0.0,
             phi0=-0.0)
    @given(omega_n=unit, eta=unit, primes=st.tuples(unit, unit, st.floats(1e-3, 1.0)),
           delta=detunings, s0=drives, s=st.one_of(st.floats(0.0, 50.0), st.just(0.0)),
           phi0=st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0])))
    def test_bitwise(self, omega_n, eta, primes, delta, s0, s, phi0):
        sym = SymmetricCoupling(omega_n, eta)
        asym = AsymmetricCoupling(omega_n, eta, *primes)
        calls = [
            ("phase_symmetric", (sym, delta, s0)),
            ("phase_asymmetric", (asym, delta, s0)),
            ("resonance_branch", (sym, s0)),
            ("critical_saturation", (sym,)),
            ("dispersive_phase_arctan", (sym, delta, s0)),
            ("kerr_linear_phase", (sym, delta)),
            ("kerr_phase", (phi0, s)),
            ("kerr_relative_error", (sym, delta, s)),
            ("saturation_at_detuning", (s0, delta)),
            ("scattered_power_ratio", (omega_n, eta, delta, s0)),
            ("coherent_fraction", (s,)),
        ]
        for name, args in calls:
            assert (outcome(getattr(atomphase, name), *args)
                    == outcome(getattr(oracles, name), *args)), name


def test_kerr_relative_error_at_the_reference_pole():
    # 1 + 4 delta^2 = 2 = 2 omega_n eta^2 at delta = 1/2 and s = 0
    with pytest.raises(PoleError, match="reference phase has a pole"):
        kerr_relative_error(FULL, 0.5, 0.0)
