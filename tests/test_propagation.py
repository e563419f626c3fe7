import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sta_coupler.coupler import build_h2
from sta_coupler.propagation import (
    HamiltonianSpec,
    StiffnessError,
    _rhs,
    propagate_adaptive,
    propagate_pwc,
)
from sta_coupler.schedules import ModelParams, drive, effective_schedule
from sta_coupler.splitter import SplitterParams, build_h3
from test_splitter import reduced_h2

UP = np.array([1.0, 0.0], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]])
SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_Z = np.array([[1, 0], [0, -1]])


def constant_h2(delta: float, omega: float) -> HamiltonianSpec:
    return HamiltonianSpec((SIGMA_X, SIGMA_Z), lambda z, side: (omega, delta))


class TestValidation:
    def test_dim_rejected(self):
        with pytest.raises(ValueError):
            HamiltonianSpec((np.eye(4),), lambda z, s: (1.0,))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            HamiltonianSpec((np.array([[0, 1], [2, 0]]),), lambda z, s: (1.0,))

    def test_unnormalized_state_rejected(self):
        for state in ([1.0, 1.0], [math.nan, 0.0], [math.inf, 0.0]):
            with pytest.raises(ValueError, match="not normalized"):
                propagate_adaptive(constant_h2(0, 1), np.array(state), 0, 1)
            with pytest.raises(ValueError, match="not normalized"):
                propagate_pwc(constant_h2(0, 1), np.array(state), 0, 1, 10)

    def test_wrong_shape_state_rejected(self):
        for state in ([1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]):
            with pytest.raises(ValueError, match=r"must have shape \(2,\)"):
                propagate_adaptive(constant_h2(0, 1), np.array(state), 0, 1)
            with pytest.raises(ValueError, match=r"must have shape \(2,\)"):
                propagate_pwc(constant_h2(0, 1), np.array(state), 0, 1, 10)

    def test_non_positive_steps_rejected(self):
        for steps in (0, -1):
            with pytest.raises(ValueError, match=f"steps must be >= 1, got {steps}"):
                propagate_pwc(constant_h2(0, 1), UP, 0, 1, steps)

    def test_tol_range(self):
        for tol in (1e-13, 1e-3, "1e-8", None):
            with pytest.raises(ValueError, match=r"tol must lie in \[1e-12, 1e-4\], got"):
                propagate_adaptive(constant_h2(0, 1), UP, 0, 1, tol=tol)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            propagate_adaptive(constant_h2(0, 1), UP, 1, 0)

    def test_unalignable_grid_rejected(self):
        # one cell cannot have a boundary at the sign flip z = 0
        h = HamiltonianSpec((np.eye(2),), lambda z, s: (1.0,))
        with pytest.raises(ValueError) as exc:
            propagate_pwc(h, UP, -1.0, 1.0, steps=1)
        assert str(exc.value) == ("grid not alignable: a cell boundary must fall on the "
                                  "sign flip z = 0, which needs at least 2 steps, got 1")


class TestSpecContract:
    """Terms are checked once at construction; each call checks only that
    the coefficients are real, finite and one per term."""

    @pytest.mark.parametrize("terms", [(SIGMA_X, np.eye(3)), (), (np.ones(2),)],
                             ids=["mixed", "none", "vector"])
    def test_malformed_terms_rejected(self, terms):
        with pytest.raises(ValueError, match="all"):
            HamiltonianSpec(terms, lambda z, s: (1.0,) * len(terms))

    def test_every_term_checked(self):
        with pytest.raises(ValueError, match="term 1 is not Hermitian"):
            HamiltonianSpec((SIGMA_X, np.array([[0, 1j], [1j, 0]])), lambda z, s: (1.0, 1.0))

    def test_complex_hermitian_term_accepted(self):
        h = HamiltonianSpec((SIGMA_Y,), lambda z, s: (0.5,))
        assert np.array_equal(h.matrix(0.0), 0.5 * SIGMA_Y)

    @pytest.mark.parametrize("bad", [0.5 + 0j, np.complex128(0.5)],
                             ids=["complex", "complex128"])
    def test_complex_coefficient_rejected(self, bad):
        h = HamiltonianSpec((SIGMA_X, SIGMA_Z), lambda z, s: (bad, 0.1))
        with pytest.raises(ValueError, match="real"):
            h.matrix(0.3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_is_numerical_failure(self, bad):
        h = HamiltonianSpec((SIGMA_X, SIGMA_Z), lambda z, s: (0.7, bad))
        with pytest.raises(FloatingPointError, match="z=0.3"):
            h.matrix(0.3)

    @pytest.mark.parametrize("big", [(1e308, 1e308), (-1e308, -1e308), (1e308, -1e308)])
    def test_finite_coefficients_with_overflowing_sum_accepted(self, big):
        h = HamiltonianSpec((SIGMA_X, SIGMA_Z), lambda z, s: big)
        assert np.array_equal(h.matrix(0.0), [[big[1], big[0]], [big[0], -big[1]]])
        assert np.all(np.isfinite(_rhs(h, 0.0, 1.0)(0.0, UP.tolist())))

    def test_coefficient_count_checked(self):
        h = HamiltonianSpec((SIGMA_X, SIGMA_Z), lambda z, s: (1.0,))
        with pytest.raises(ValueError, match="1 values for 2 terms"):
            h.matrix(0.3)

    def test_matrix_is_real_combination(self):
        h = HamiltonianSpec((SIGMA_X, SIGMA_Z), lambda z, s: (z, 2.0 * s))
        assert np.array_equal(h.matrix(0.25, side=1), [[2.0, 0.25], [0.25, -2.0]])
        assert h.matrix(0.25).dtype == complex
        assert h.dim == 2

    def test_terms_are_frozen(self):
        term = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = HamiltonianSpec((term,), lambda z, s: (1.0,))
        term[0, 1] = 5.0  # the spec holds its own copy
        assert h.matrix(0.0)[0, 1] == 1.0
        with pytest.raises(ValueError):
            h.terms[0][0, 1] = 5.0


STA_SPLIT = ModelParams(3.0, 0.2, 5.0, sta=True)
GENERATORS = {
    "h2-sta": build_h2(ModelParams(1.5, 0.1, 12.5, sta=True)),
    "h2-raw": build_h2(ModelParams(1.5, 0.1, 12.5, sta=False)),
    "h3-direct": build_h3(SplitterParams(STA_SPLIT, "direct")),
    "h3-reduced_cd": build_h3(SplitterParams(STA_SPLIT, "reduced_cd")),
    "reduced-h2": reduced_h2(SplitterParams(STA_SPLIT, "reduced_cd")),
    "sigma-y": HamiltonianSpec((SIGMA_X, SIGMA_Y, SIGMA_Z),
                               lambda z, s: (1.0 + z * z, math.sin(z), 0.3 * s - z)),
}


class TestRhs:
    """The integrator's right-hand side is -i H(z) y with H from matrix(),
    to rounding, and checks the coefficients as matrix() does."""

    @pytest.mark.parametrize("name", list(GENERATORS))
    def test_agrees_with_matrix(self, name):
        h = GENERATORS[name]
        L = 12.5 if name.startswith("h2") else 5.0
        rng = np.random.default_rng(7)
        left, right = _rhs(h, -L, 0.0), _rhs(h, 0.0, L)
        points = [(left, z, 0) for z in rng.uniform(-L, 0.0, 30)]
        points += [(right, z, 0) for z in rng.uniform(0.0, L, 30)]
        # z = 0 ends the left segment and starts the right one
        points += [(left, 0.0, -1), (right, 0.0, +1), (left, -L, 0), (right, L, 0)]
        for rhs, z, side in points:
            y = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
            y /= np.linalg.norm(y)
            H = h.matrix(float(z), side)
            got, want = rhs(np.float64(z), y.tolist()), -1j * (H @ y)
            assert len(got) == h.dim and all(type(v) is complex for v in got)
            bound = 4 * 2.0 ** -53 * np.linalg.norm(H) * np.linalg.norm(y)
            assert np.linalg.norm(np.array(got) - want) <= bound, (z, side)

    @pytest.mark.parametrize("coefficients, error", [
        (lambda z, s: (0.5 + 0j, 0.1), ValueError),
        (lambda z, s: (np.complex128(0.5), 0.1), ValueError),
        (lambda z, s: (1.0,), ValueError),
        (lambda z, s: (0.7, math.nan), FloatingPointError),
        (lambda z, s: (math.inf, 0.7), FloatingPointError),
    ], ids=["complex", "complex128", "count", "nan", "inf"])
    def test_errors_match_matrix(self, coefficients, error):
        h = HamiltonianSpec((SIGMA_X, SIGMA_Z), coefficients)
        with pytest.raises(error) as by_matrix:
            h.matrix(0.3)
        with pytest.raises(error) as by_rhs:
            _rhs(h, 0.0, 1.0)(np.float64(0.3), UP.tolist())
        assert str(by_rhs.value) == str(by_matrix.value)

    def test_raw_drive_is_the_schedules_raw_pair(self):
        # the raw drive skips the counterdiabatic terms but not a bit of
        # (omega, delta), nor the position and side checks
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = ModelParams(10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 3),
                            10 ** rng.uniform(-2, 2), sta=False)
            L = p.half_length
            points = [(z, 0) for z in rng.uniform(-L, L, 10)]
            points += [(0.0, -1), (0.0, +1), (-L, 0), (L, 0)]
            for z, side in points:
                sp = effective_schedule(p, z, side)
                got = drive(p, z, side)
                assert type(got) is tuple
                assert np.array(got).tobytes() == np.array((sp.omega, sp.delta)).tobytes()
        with pytest.raises(ValueError, match=r"^evaluation at z = 0 requires side"):
            drive(p, 0.0)
        with pytest.raises(ValueError, match="outside the device"):
            drive(p, 1.5 * L)


class TestAnalyticOracles:
    """Constant generators have closed-form propagators."""

    def test_rabi_flop(self):
        # resonant coupling: I2(z) = sin^2(omega z)
        omega = 1.3
        traj = propagate_adaptive(constant_h2(0.0, omega), UP, 0.0, 2.0, 1e-12)
        expected = np.sin(omega * traj.z) ** 2
        assert np.max(np.abs(traj.intensities[:, 1] - expected)) < 1e-10

    def test_detuned_rabi(self):
        # generalized flop: I2 = (omega/W)^2 sin^2(W z), W = sqrt(omega^2+delta^2)
        omega, delta = 0.8, 0.6
        weff = math.hypot(omega, delta)
        traj = propagate_pwc(constant_h2(delta, omega), UP, 0.0, 5.0, steps=4000)
        expected = (omega / weff) ** 2 * np.sin(weff * traj.z) ** 2
        assert np.max(np.abs(traj.intensities[:, 1] - expected)) < 1e-6

    def test_pure_phase(self):
        traj = propagate_adaptive(constant_h2(2.0, 0.0), UP, 0.0, 1.0, 1e-12)
        assert abs(traj.final_state[0] - np.exp(-2.0j)) < 1e-10
        assert abs(traj.final_state[1]) == 0.0

    def test_pwc_exact_for_constant_h(self):
        # a single midpoint-frozen cell is the exact propagator here
        omega = 0.9
        traj = propagate_pwc(constant_h2(0.0, omega), UP, 0.0, 1.0, steps=1)
        assert abs(traj.final_state[0] - math.cos(omega)) < 1e-14
        assert abs(traj.final_state[1] + 1j * math.sin(omega)) < 1e-14

    def test_three_level_oracle(self):
        # symmetric 3-guide resonant coupling: exact solution via the
        # bright/dark reduction with coupling sqrt(2)*w
        w = 0.7
        h = HamiltonianSpec((np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]),),
                            lambda z, side: (w,))
        c0 = np.array([0, 1, 0], dtype=complex)
        traj = propagate_adaptive(h, c0, 0.0, 3.0, 1e-12)
        wb = math.sqrt(2) * w
        i2 = np.cos(wb * traj.z) ** 2
        assert np.max(np.abs(traj.intensities[:, 1] - i2)) < 1e-10


FIG3 = ModelParams(omega0=1.5, delta0=0.1, half_length=12.5, sta=True)


class TestBackendCrossValidation:
    def test_agreement_on_sta_model(self):
        h = build_h2(FIG3)
        a = propagate_adaptive(h, UP, -12.5, 12.5, 1e-12)
        b = propagate_pwc(h, UP, -12.5, 12.5, steps=20000)
        assert np.max(np.abs(a.final_state - b.final_state)) < 1e-6

    def test_richardson_order(self):
        # second-order method: halving the step shrinks the error by ~4
        h = build_h2(FIG3)
        ref = propagate_adaptive(h, UP, -12.5, 12.5, 1e-12).final_state
        e1 = np.max(np.abs(propagate_pwc(h, UP, -12.5, 12.5, 2000).final_state - ref))
        e2 = np.max(np.abs(propagate_pwc(h, UP, -12.5, 12.5, 4000).final_state - ref))
        assert e1 / e2 == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("sta, mode", [(True, "reduced_cd"), (True, "direct"),
                                           (False, "direct")], ids=["reduced_cd", "direct", "raw"])
    def test_richardson_on_splitter(self, sta, mode):
        # 3x3 cells take the eigh branch of the cell unitary
        h = build_h3(SplitterParams(ModelParams(1.5, 0.1, 12.5, sta=sta), mode))
        c0 = np.array([0, 1, 0], dtype=complex)
        ref = propagate_adaptive(h, c0, -12.5, 12.5, 1e-12).final_state
        coarse, fine = (propagate_pwc(h, c0, -12.5, 12.5, n).final_state for n in (2000, 4000))
        ratio = np.max(np.abs(coarse - ref)) / np.max(np.abs(fine - ref))
        assert ratio == pytest.approx(4.0, abs=0.3)
        assert np.max(np.abs((4 * fine - coarse) / 3 - ref)) <= 1e-10

    @settings(max_examples=8, deadline=None)
    @given(st.floats(0.3, 4.0), st.floats(0.05, 1.5), st.floats(2.0, 20.0),
           st.booleans())
    def test_agreement_random_models(self, omega0, delta0, total, sta):
        p = ModelParams(omega0=omega0, delta0=delta0, half_length=total / 2, sta=sta)
        h = build_h2(p)
        a = propagate_adaptive(h, UP, -p.half_length, p.half_length, 1e-10)
        b = propagate_pwc(h, UP, -p.half_length, p.half_length, steps=12000)
        assert np.max(np.abs(a.final_state - b.final_state)) < 1e-5


class TestInvariants:
    def test_pwc_unitary_norm(self):
        h = build_h2(FIG3)
        traj = propagate_pwc(h, UP, -12.5, 12.5, steps=5000)
        assert traj.norm_drift < 1e-12

    def test_pwc_zero_generator_leaves_state_unchanged(self):
        traj = propagate_pwc(build_h2(ModelParams(0, 0, 5)), UP, -5.0, 5.0, steps=10)
        assert traj.states.tobytes() == np.tile(UP, (11, 1)).tobytes()

    def test_adaptive_norm_drift_small(self):
        h = build_h2(FIG3)
        traj = propagate_adaptive(h, UP, -12.5, 12.5, 1e-10)
        assert traj.norm_drift < 1e-8

    def test_z_grid_monotone_and_covers_interval(self):
        h = build_h2(FIG3)
        for traj in (propagate_adaptive(h, UP, -12.5, 12.5, 1e-8),
                     propagate_pwc(h, UP, -12.5, 12.5, 999)):
            assert traj.z[0] == -12.5
            assert traj.z[-1] == 12.5
            assert np.all(np.diff(traj.z) > 0)

    def test_pwc_places_boundary_at_discontinuity(self):
        h = build_h2(FIG3)
        traj = propagate_pwc(h, UP, -12.5, 12.5, steps=501)
        assert 0.0 in traj.z

    @pytest.mark.parametrize("z_from, z_to, sides_at_flip", [
        (-1.0, 1.0, {-1, +1}), (0.0, 1.0, {+1}), (-1.0, 0.0, {-1})])
    def test_side_tag_only_at_sign_flip(self, z_from, z_to, sides_at_flip):
        # a generic spec is split at z = 0 too: there its coefficients are
        # evaluated towards the segment's interior, -1 on a left segment and
        # +1 on a right one, and everywhere else untagged
        calls = []

        def coefficients(z, side):
            calls.append((z, side))
            return (1.0 + z * z, 0.3 - z)

        h = HamiltonianSpec((SIGMA_X, SIGMA_Z), coefficients)
        for traj in (propagate_adaptive(h, UP, z_from, z_to, 1e-8),
                     propagate_pwc(h, UP, z_from, z_to, 10)):
            assert 0.0 in traj.z
        assert {side for z, side in calls if z == 0.0} == sides_at_flip
        assert {side for z, side in calls if z != 0.0} == {0}

    def test_composition(self):
        # propagating [a, c] equals propagating [a, b] then [b, c]
        h = constant_h2(0.4, 1.1)
        whole = propagate_adaptive(h, UP, 0.0, 2.0, 1e-12).final_state
        mid = propagate_adaptive(h, UP, 0.0, 0.7, 1e-12).final_state
        mid = mid / np.linalg.norm(mid)
        part = propagate_adaptive(h, mid, 0.7, 2.0, 1e-12).final_state
        assert np.max(np.abs(whole - part)) < 1e-9

    def test_breakpoint_refinement_invariance(self):
        # stopping at a spurious (continuous) breakpoint must not change physics
        h = build_h2(FIG3)
        a = propagate_adaptive(h, UP, -12.5, 12.5, 1e-11).final_state
        mid = propagate_adaptive(h, UP, -12.5, 5.0, 1e-11).final_state
        b = propagate_adaptive(h, mid / np.linalg.norm(mid), 5.0, 12.5, 1e-11).final_state
        assert np.max(np.abs(a - b)) < 1e-8

    def test_schedule_sees_python_floats(self):
        # so that the schedule's own arithmetic, not numpy's, meets a
        # non-finite value and the coefficient check reports it
        p = ModelParams(1.5, 0.1, 2.0, sta=True)
        seen = []

        def coefficients(z, side):
            seen.append(effective_schedule(p, z, side).z)
            return drive(p, z, side)

        h = HamiltonianSpec(build_h2(p).terms, coefficients)
        propagate_adaptive(h, UP, -2.0, 2.0, 1e-6)
        assert seen and {type(z) for z in seen} == {float}

    def test_stats_recorded(self):
        h = build_h2(FIG3)
        assert propagate_adaptive(h, UP, -12.5, 12.5, 1e-8).stats["nfev"] > 0
        assert propagate_pwc(h, UP, -12.5, 12.5, 100).stats["steps"] == 100
