import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import adiabatic_oracle as oracle
from test_sweep import HALF_LENGTHS, LOG_DESIGNS, RATES, _bits
from sta_coupler.schedules import (
    ModelParams,
    adiabatic_transport,
    device_grid,
    diagnostics,
    drive,
    effective_schedule,
    schedule_grid,
    sta_transport,
    uniform_grid,
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
        with pytest.raises(ValueError, match=r"^evaluation at z = 0 requires side"):
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

    @pytest.mark.parametrize("field", ["omega0", "delta0", "half_length"])
    @pytest.mark.parametrize("value", ["0", None, math.nan, math.inf, True, np.True_])
    def test_non_number_params_rejected(self, field, value):
        # a ValueError naming the field, not a TypeError from math.isfinite,
        # nor a bool taken as 1, as check_sta rejects 1
        values = {"omega0": 1.0, "delta0": 0.1, "half_length": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value!r}"):
            ModelParams(**values)


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
        with pytest.raises(ValueError, match=r"^evaluation at z = 0 requires side"):
            effective_schedule(FIG2, 0.0)


def _fields(schedule, *args):
    try:
        return [*map(_bits, schedule(*args))]
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_sta_drive_is_effective_schedule():
    # drive's fields-only STA path against the full schedule point, bit for
    # bit, over a log-scale lattice with signed zero rates, at z = 0 on both
    # sides; a zero rate has no counterdiabatic term, so omega_a and phi are +0
    points = 0
    rates = [0.0, -0.0, *RATES]
    for omega0, delta0, L in itertools.product(rates, rates, HALF_LENGTHS):
        p = ModelParams(omega0, delta0, L, sta=True)
        for z, side in ((-L, 0), (-0.5 * L, 0), (0.0, -1), (0.0, +1), (0.5 * L, 0), (L, 0)):
            point = _fields(effective_schedule, p, z, side)
            want = point[-2:] if isinstance(point, list) else point
            assert _fields(drive, p, z, side) == want, (omega0, delta0, L, z, side)
            if isinstance(point, list) and 0.0 in (omega0, delta0):
                assert point[3:5] == [_bits(0.0)] * 2, (omega0, delta0, L, z, side)
            points += isinstance(point, list)
    assert points > 1000


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
        # the message names the offending sample, not max |z|
        with pytest.raises(ValueError, match=rf"^position z={z} outside the device"):
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
        # and, wherever Phi is in bound, each intensity lies in [0, 1] over the
        # log-scale lattice with signed mismatches and over the log-uniform set
        deltas = [sign * rate for rate in [0.0, *RATES] for sign in (1.0, -1.0)]
        checked = 0
        for design in [*itertools.product(RATES, deltas, HALF_LENGTHS), *LOG_DESIGNS]:
            try:
                i1, i2 = adiabatic_transport(*design)
            except FloatingPointError:  # Phi beyond its bound
                continue
            assert 0.0 <= i1 <= 1.0 and 0.0 <= i2 <= 1.0, design
            assert abs(i1 + i2 - 1.0) <= 1e-14, design
            checked += 1
        assert checked > 1000

    def test_ceiling(self):
        # I2 is A + B c + C c**2 in c = cos 2 Phi, with A, B and C set by the
        # edge and mid angles alone; its maximum over c in [-1, 1] is the
        # ceiling acceptance 1 pins at (5, 1), and no length passes it
        theta_e, theta_m = math.atan2(5.0 / math.cosh(2.0 * math.pi), 1.0), math.atan2(5.0, 1.0)
        ce, se, cm, sm = math.cos(theta_e), math.sin(theta_e), math.cos(theta_m), math.sin(theta_m)
        a, b, c = (se * cm) ** 2 + sm ** 2, -2.0 * ce * sm * se * cm, (ce * sm) ** 2 - sm ** 2
        top = max(a + b * x + c * x * x for x in (-1.0, 1.0, min(1.0, max(-1.0, -b / (2.0 * c)))))
        assert top == pytest.approx(0.968397, abs=5e-7)
        transfers = [adiabatic_transport(5.0, 1.0, L)[1] for L in np.linspace(5e-4, 1.0, 2000)]
        assert max(transfers) <= top + 1e-15
        assert max(transfers) >= top - 1e-6  # the lengths reach it

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

    # each value class of the boundary matrix in each slot of (0.5, 0.5, 0.5): FLOAT
    # is the design of float(value), bit for bit, a name a ValueError naming that
    # argument, and FloatingPointError a valid design whose phase overflows its bound
    FLOAT = "float"
    BOUNDARY_ROWS = [
        (True, "omega0", "delta_left", "half_length"),
        (np.float32(0.25), FLOAT, FLOAT, FLOAT),
        (Fraction(1, 3), FLOAT, FLOAT, FLOAT),
        (Decimal("0.3"), FLOAT, FLOAT, FLOAT),
        ("0.5", "omega0", "delta_left", "half_length"),
        (None, "omega0", "delta_left", "half_length"),
        (math.nan, "omega0", "delta_left", "half_length"),
        (math.inf, "omega0", "delta_left", "half_length"),
        (-0.0, FLOAT, FLOAT, "half_length"),
        (1e308, FloatingPointError, FloatingPointError, FloatingPointError),
        (5e-324, FLOAT, FLOAT, FLOAT),
        (0.5 + 0j, "omega0", "delta_left", "half_length"),
        (np.array(0.25), FLOAT, FLOAT, FLOAT),
        (np.array([0.25]), "omega0", "delta_left", "half_length"),
        (np.int64(2), FLOAT, FLOAT, FLOAT),
        (10 ** 400, "omega0", "delta_left", "half_length"),
    ]

    @pytest.mark.parametrize("row", BOUNDARY_ROWS, ids=[
        "bool", "float32", "Fraction", "Decimal", "str", "None", "nan", "inf", "-0.0", "1e308",
        "5e-324", "complex", "0-d array", "1-d array", "int64", "10**400"])
    def test_boundary_rows(self, row):
        value, *outcomes = row
        for slot, outcome in enumerate(outcomes):
            args = [0.5, 0.5, 0.5]
            args[slot] = value
            if outcome == self.FLOAT:
                floats = [float(arg) for arg in args]
                assert adiabatic_transport(*args) == sta_transport(*floats), (slot, value)
            elif outcome is FloatingPointError:
                with pytest.raises(FloatingPointError, match="dynamic phase overflows"):
                    adiabatic_transport(*args)
            else:
                with pytest.raises(ValueError, match=rf"^{outcome} must be "):
                    adiabatic_transport(*args)

    def test_negative_mismatch_is_signed(self):
        assert adiabatic_transport(0.5, -0.5, 0.5) == sta_transport(0.5, -0.5, 0.5)
        with pytest.raises(ValueError, match=r"^omega0 must be >= 0, got -0\.5$"):
            adiabatic_transport(-0.5, 0.5, 0.5)


def linspace(lo, hi, count):
    """np.linspace, or where hi - lo overflows, the grid of the bounds halved, doubled."""
    with np.errstate(over="ignore"):
        if math.isinf(hi - lo):
            return 2.0 * np.linspace(lo / 2.0, hi / 2.0, count)
        return np.linspace(lo, hi, count)


class TestUniformGrid:
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 300))
    @example(0.0, 5e-324, 3)  # the step underflows to 0
    @example(-5e-324, 5e-324, 300)
    @example(0.0, 1e-320, 300)  # a subnormal step
    @example(1.5, 1.5, 5)  # a zero span
    @example(-0.0, 0.0, 4)
    @example(-1.7976931348623157e308, 1.7976931348623157e308, 7)  # the span overflows
    @example(1e308, -1e308, 4)
    @example(-8.98e307, 8.98e307, 5)
    def test_equals_linspace(self, lo, hi, count):
        grid = uniform_grid(lo, hi, count)
        assert all(type(z) is float for z in grid) and len(grid) == count
        assert np.array(grid).tobytes() == linspace(lo, hi, count).tobytes()

    def test_count_beyond_an_index(self):
        # refused before any allocation, as a grid too large for memory is
        with pytest.raises(MemoryError, match=r"^Unable to allocate a grid of 10{30} samples$"):
            uniform_grid(0.0, 1.0, 10 ** 30)


class TestDiagnostics:
    def test_zero_mismatch(self):
        p = ModelParams(omega0=1.5, delta0=0.0, half_length=12.5)
        d = diagnostics(p, 501)
        assert d.max_cd_ratio == 0.0
        assert d.bound_satisfied

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            diagnostics(FIG2, 1)

    def test_samples_must_be_integer(self):
        with pytest.raises(ValueError, match=r"^samples must be an integer, got 10\.0$"):
            diagnostics(FIG2, 10.0)
        assert diagnostics(FIG2, np.int64(10)) == diagnostics(FIG2, 10)

    def test_half_length_past_half_the_float_maximum(self):
        # 2L overflows, and the grid is still finite and ordered from -L to L,
        # with linspace's bits wherever those are finite
        p = ModelParams(1.0, 0.1, 1e308)
        assert device_grid(p, 5).tolist() == [-1e308, -5e307, 0.0, 5e307, 1e308]
        assert diagnostics(p, 5).max_cd_ratio > 0.0
        zs = device_grid(ModelParams(1.0, 0.1, 1.7976931348623157e308), 4)
        assert np.all(np.isfinite(zs)) and np.all(np.diff(zs) > 0.0) and zs[-1] == -zs[0]
        L = 8.98e307
        zs = device_grid(ModelParams(1.0, 0.1, L), 7)
        assert zs.tobytes() == np.linspace(-L, L, 7).tobytes()

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

