import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import adiabatic_oracle as oracle
from sta_coupler.schedules import (
    CalibrationDomainError,
    DiscontinuityError,
    GeometryCalibration,
    ModelParams,
    SchedulePoint,
    adiabatic_transport,
    diagnostics,
    effective_schedule,
    geometry_synthesis,
    schedule_grid,
)

FIG2 = ModelParams(omega0=1.5, delta0=0.1, half_length=12.5, sta=True)


class TestRawSchedule:
    def test_fig2_midpoint_left_side(self):
        sp = effective_schedule(FIG2, 0.0, side=-1)
        omega, delta = sp.omega, sp.delta
        assert omega == pytest.approx(1.5, abs=1e-15)
        assert delta == pytest.approx(+0.1, abs=1e-15)

    def test_fig2_midpoint_right_side(self):
        delta = effective_schedule(FIG2, 0.0, side=+1).delta
        assert delta == pytest.approx(-0.1, abs=1e-15)

    def test_sech_peak_is_omega0(self):
        # sech(0) = 1
        omega = effective_schedule(FIG2, 0.0, side=-1).omega
        assert omega == 1.5

    def test_edge_value_independent_sech(self):
        expected = 1.5 / math.cosh(2.0 * math.pi)
        for z in (-12.5, 12.5):
            omega = effective_schedule(FIG2, z).omega
            assert omega == pytest.approx(expected, rel=1e-14)

    def test_untagged_midpoint_raises(self):
        with pytest.raises(DiscontinuityError):
            effective_schedule(FIG2, 0.0)

    def test_outside_device_raises(self):
        with pytest.raises(ValueError):
            effective_schedule(FIG2, 13.0)

    def test_nan_position_raises(self):
        with pytest.raises(ValueError, match="outside the device"):
            effective_schedule(FIG2, math.nan)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            ModelParams(omega0=-1.0, delta0=0.1, half_length=1.0)
        with pytest.raises(ValueError):
            ModelParams(omega0=1.0, delta0=-0.1, half_length=1.0)
        with pytest.raises(ValueError):
            ModelParams(omega0=1.0, delta0=0.1, half_length=0.0)


class TestMixingAngle:
    """theta = atan2(omega, delta) as the closed form returns it."""

    @staticmethod
    def theta(omega: float, delta: float) -> float:
        # at z = 0, omega = omega0 and delta = +delta0 (left) or -delta0 (right)
        p = ModelParams(omega0=omega, delta0=abs(delta), half_length=1.0)
        return effective_schedule(p, 0.0, side=-1 if delta >= 0.0 else +1).theta

    def test_diagonal(self):
        assert self.theta(1.0, 1.0) == pytest.approx(math.pi / 4)

    def test_resonance(self):
        assert self.theta(1.0, 0.0) == pytest.approx(math.pi / 2)

    def test_negative_mismatch_branch(self):
        assert self.theta(1.0, -1.0) == pytest.approx(3 * math.pi / 4)

    @given(st.floats(1e-6, 1e6), st.floats(-1e6, 1e6, allow_nan=False))
    def test_branch_range(self, omega, delta):
        assert 0.0 < self.theta(omega, delta) < math.pi


def _fd_theta_dot(p: ModelParams, z: float, dz: float) -> float:
    a = effective_schedule(p, z - dz)
    b = effective_schedule(p, z + dz)
    return (math.atan2(b.omega, b.delta) - math.atan2(a.omega, a.delta)) / (2 * dz)


class TestCdCoupling:
    def test_vanishes_at_midpoint(self):
        eps = 1e-8 * FIG2.half_length
        for z in (-eps, eps):
            assert abs(effective_schedule(FIG2, z).omega_a) <= 1e-6 * FIG2.omega0

    def test_zero_mismatch_noop(self):
        p = ModelParams(omega0=1.5, delta0=0.0, half_length=12.5)
        for z in np.linspace(-12.5, 12.5, 7):
            assert effective_schedule(p, z, side=-1).omega_a == 0.0

    def test_finite_difference_oracle(self):
        # independent oracle: central difference of the mixing angle
        rng = np.random.default_rng(7)
        L = FIG2.half_length
        dz = 1e-6 * L
        count = 0
        while count < 100:
            z = rng.uniform(-L + 2 * dz, L - 2 * dz)
            if abs(z) < 1e-3 * L:
                continue
            count += 1
            oracle = _fd_theta_dot(FIG2, z, dz) / 2.0
            value = effective_schedule(FIG2, z).omega_a
            assert abs(value - oracle) / max(abs(oracle), 1e-12) <= 1e-6

    def test_quarter_point_against_oracle(self):
        z = -FIG2.half_length / 4
        oracle = _fd_theta_dot(FIG2, z, 1e-6 * FIG2.half_length) / 2.0
        assert effective_schedule(FIG2, z).omega_a == pytest.approx(oracle, rel=1e-6)

    def test_nonnegative_and_even(self):
        for z in np.linspace(0.05, FIG2.half_length, 40):
            left = effective_schedule(FIG2, -z).omega_a
            right = effective_schedule(FIG2, z).omega_a
            assert left >= 0.0
            assert abs(left - right) <= 1e-12


class TestEffectiveSchedule:
    def test_midpoint_coupling_unchanged(self):
        # the counterdiabatic schedule needs no extra coupling at maximum
        for side in (-1, +1):
            sp = effective_schedule(FIG2, 0.0, side=side)
            assert sp.omega_eff == pytest.approx(FIG2.omega0, abs=1e-12)

    def test_sta_noop_for_zero_mismatch(self):
        p = ModelParams(omega0=1.5, delta0=0.0, half_length=12.5, sta=True)
        for z in np.linspace(-12.5, 12.5, 11):
            sp = effective_schedule(p, z, side=-1)
            raw = effective_schedule(p, z, side=-1)
            omega, delta = raw.omega, raw.delta
            assert sp.omega_eff == omega
            assert sp.delta_eff == delta
            assert sp.omega_a == 0.0

    def test_symmetries(self):
        for z in np.linspace(1e-4, FIG2.half_length, 50):
            a = effective_schedule(FIG2, -z)
            b = effective_schedule(FIG2, +z)
            assert abs(a.omega - b.omega) <= 1e-12
            assert abs(a.omega_a - b.omega_a) <= 1e-12
            assert abs(a.delta + b.delta) <= 1e-12
            assert abs(a.delta_eff + b.delta_eff) <= 1e-12

    def test_phi_dot_finite_difference(self):
        # delta_eff = delta - phi_dot/2; check the analytic phi_dot via
        # central differences of atan2(omega_a, omega)
        rng = np.random.default_rng(11)
        L = FIG2.half_length
        dz = 1e-6 * L
        for _ in range(50):
            z = rng.uniform(1e-2 * L, L - 2 * dz) * rng.choice([-1, 1])
            sp = effective_schedule(FIG2, z)
            a = effective_schedule(FIG2, z - dz)
            b = effective_schedule(FIG2, z + dz)
            phi_dot_fd = (b.phi - a.phi) / (2 * dz)
            phi_dot = 2.0 * (sp.delta - sp.delta_eff)
            assert abs(phi_dot - phi_dot_fd) / max(abs(phi_dot_fd), 1e-12) <= 1e-6

    def test_untagged_midpoint_raises(self):
        with pytest.raises(DiscontinuityError):
            effective_schedule(FIG2, 0.0)


class TestScheduleGrid:
    @pytest.mark.parametrize("sta", [False, True])
    def test_fields_match_point_evaluation(self, sta):
        p = ModelParams(1.5, 0.1, 12.5, sta)
        zs = np.linspace(-12.5, 12.5, 9)
        grid = schedule_grid(p, zs)
        assert all(f.shape == (9,) for f in grid)
        for i, z in enumerate(zs):
            expected = effective_schedule(p, float(z), side=-1 if z == 0.0 else 0)
            assert tuple(f[i] for f in grid) == expected

    def test_midpoint_is_left_limit(self):
        grid = schedule_grid(FIG2, [-1.0, 0.0, 1.0])
        assert grid.delta.tolist() == [0.1, 0.1, -0.1]

    @pytest.mark.parametrize("z", [13.0, -13.0, math.nan])
    def test_positions_checked(self, z):
        with pytest.raises(ValueError, match="outside the device"):
            schedule_grid(FIG2, [0.0, z, 1.0])

    def test_non_finite_schedule_names_first_position(self):
        # k = 2*pi/L overflows to inf, so the derivatives and STA fields are nan
        p = ModelParams(1.5, 0.1, 5e-321, sta=True)
        with pytest.raises(FloatingPointError, match=r"z=-5e-321"):
            schedule_grid(p, np.linspace(-5e-321, 5e-321, 3))

    def test_diagnostics_non_finite_schedule(self):
        with pytest.raises(FloatingPointError, match="non-finite schedule"):
            diagnostics(ModelParams(1e200, 1e200, 5.0, sta=True), 11)


def _designs(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (float(rng.uniform(0.01, 10.0)), float(rng.uniform(-5.0, 5.0)),
               float(rng.uniform(0.01, 30.0)))


class TestAdiabaticTransport:
    """The closed form against the test oracle, which integrates the same
    dynamic phase with quad and imports nothing from the package."""

    def test_matches_oracle(self):
        # _designs draws the mismatch from both signs
        designs = [(1.5, 0.0, 12.5), (5.0, 0.0, 0.35), (1.5, 0.1, 12.5), (1.5, -0.1, 12.5),
                   *_designs(150, seed=11)]
        for omega0, delta_left, L in designs:
            got = adiabatic_transport(omega0, delta_left, L)
            want = oracle.sta_intensities(omega0, delta_left, L)
            assert np.max(np.abs(np.array(got) - want)) <= 1e-12, (omega0, delta_left, L)

    def test_reference_transfer(self):
        assert adiabatic_transport(1.5, 0.1, 12.5)[1] == pytest.approx(0.998770820857, abs=1e-12)

    def test_conserves_power(self):
        for omega0, delta_left, L in _designs(100, seed=13):
            assert abs(sum(adiabatic_transport(omega0, delta_left, L)) - 1.0) <= 1e-14

    def test_phase_overflow_is_numerical_failure(self):
        # Phi is about L * |delta| = 1e310; math.cos(inf) would raise
        # ValueError, which the CLI would take for a usage error
        with pytest.raises(FloatingPointError, match="dynamic phase overflows"):
            adiabatic_transport(1.0, 1e300, 1e10)

    def test_phase_bound(self):
        # Phi = omega0 * L * gd(2 pi) / (2 pi), about 1.25e100 here, is finite,
        # but its rounding error dwarfs 2 pi
        with pytest.raises(FloatingPointError, match=r"bound 9\.0e11: Phi=1\.2\d*e\+100$"):
            adiabatic_transport(1e100, 0.1, 5.0)
        # the bound 1e-4 / 2**-53 = 9.007e11 keeps that error within tol 1e-4
        assert sum(adiabatic_transport(1.0, 0.0, 3.6e12)) == pytest.approx(1.0)  # Phi 8.979e11
        with pytest.raises(FloatingPointError, match="dynamic phase overflows its bound"):
            adiabatic_transport(1.0, 0.0, 3.62e12)  # Phi 9.028e11


class TestDiagnostics:
    def test_zero_mismatch(self):
        p = ModelParams(omega0=1.5, delta0=0.0, half_length=12.5)
        d = diagnostics(p, 501)
        assert d.max_cd_ratio == 0.0
        assert d.bound_satisfied

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            diagnostics(FIG2, 1)

    def test_edge_ratio_closed_form(self):
        # |omega_a|/|omega| peaks at the device edges where it approaches
        # (2*pi/L)/(2*delta0) up to a finite-coupling correction; for the
        # reference parameters that exceeds 1, so the pointwise coupling
        # bound is violated there
        d = diagnostics(FIG2, 2001)
        k = 2 * math.pi / FIG2.half_length
        omega_edge = FIG2.omega0 / math.cosh(2 * math.pi)
        expected = (k / (2 * FIG2.delta0) * math.tanh(2 * math.pi)
                    * FIG2.delta0 ** 2 / (omega_edge ** 2 + FIG2.delta0 ** 2))
        assert d.max_cd_ratio == pytest.approx(expected, rel=1e-6)
        assert not d.bound_satisfied

    def test_short_device_violates_bound(self):
        p = ModelParams(omega0=1.5, delta0=0.1, half_length=0.25)
        assert diagnostics(p, 501).max_cd_ratio > 1.0

    def test_cd_ratio_monotone_in_length(self):
        ratios = [
            diagnostics(ModelParams(1.5, 0.1, L), 1001).max_cd_ratio
            for L in (1.0, 2.0, 5.0, 10.0, 25.0)
        ]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))


class TestGeometrySynthesis:
    CALIB = GeometryCalibration(coupling_scale=5.0, coupling_decay=2.0,
                                mismatch_per_width=0.5)

    def _point(self, omega_eff, delta_eff=0.0):
        return SchedulePoint(
            z=0.0, omega=omega_eff, delta=delta_eff, omega_a=0.0, phi=0.0,
            theta=math.pi / 2, omega_eff=omega_eff, delta_eff=delta_eff)

    def test_zero_separation_at_scale(self):
        d, _ = geometry_synthesis(self._point(5.0), self.CALIB)
        assert d == 0.0

    def test_zero_mismatch_zero_width_difference(self):
        _, dw = geometry_synthesis(self._point(1.0, 0.0), self.CALIB)
        assert dw == 0.0

    def test_exponential_inversion(self):
        # omega_eff = A*exp(-gamma*d) with A=5, gamma=2 gives d=1 mm
        d, _ = geometry_synthesis(self._point(5.0 * math.exp(-2.0)), self.CALIB)
        assert d == pytest.approx(1.0, rel=1e-12)

    def test_zero_coupling_rejected(self):
        with pytest.raises(CalibrationDomainError):
            geometry_synthesis(self._point(0.0), self.CALIB)

    def test_above_scale_rejected(self):
        with pytest.raises(CalibrationDomainError):
            geometry_synthesis(self._point(6.0), self.CALIB)

    def test_bad_calibration_rejected(self):
        with pytest.raises(ValueError):
            GeometryCalibration(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["coupling_scale", "coupling_decay",
                                       "mismatch_per_width"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_calibration_rejected(self, field, value):
        values = {"coupling_scale": 5.0, "coupling_decay": 2.0,
                  "mismatch_per_width": 0.5, field: value}
        with pytest.raises(ValueError, match=field):
            GeometryCalibration(**values)
