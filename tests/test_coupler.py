import re

import numpy as np
import pytest

from sta_coupler.coupler import adiabatic_projection, build_h2, simulate
from sta_coupler.schedules import ModelParams, effective_schedule

FIG3_STA = ModelParams(omega0=1.5, delta0=0.1, half_length=12.5, sta=True)
FIG3_RAW = ModelParams(omega0=1.5, delta0=0.1, half_length=12.5, sta=False)


class TestBuildH2:
    def test_structure_and_discontinuity(self):
        h = build_h2(FIG3_RAW)
        assert h.dim == 2
        m = h.matrix(-1.0)
        assert m[0, 1] == m[1, 0]
        assert m[0, 0] == -m[1, 1]

    def test_raw_matrix_values(self):
        m = build_h2(FIG3_RAW).matrix(0.0, side=-1)
        assert m[0, 0].real == pytest.approx(0.1)
        assert m[0, 1].real == pytest.approx(1.5)

    def test_sign_flip_across_midpoint(self):
        h = build_h2(FIG3_RAW)
        left = h.matrix(0.0, side=-1)
        right = h.matrix(0.0, side=+1)
        assert left[0, 0].real == pytest.approx(-right[0, 0].real)
        assert left[0, 1] == right[0, 1]

    def test_sta_midpoint_coupling_matches_raw(self):
        # the counterdiabatic schedule adds no coupling at the peak
        raw = build_h2(FIG3_RAW).matrix(0.0, side=-1)
        sta = build_h2(FIG3_STA).matrix(0.0, side=-1)
        assert sta[0, 1].real == pytest.approx(raw[0, 1].real, abs=1e-12)


    @pytest.mark.parametrize("p", [FIG3_STA, FIG3_RAW], ids=["sta", "raw"])
    @pytest.mark.parametrize("z, side", [(-7.3, 0), (4.1, 0), (0.0, -1), (0.0, +1)])
    def test_matrix_from_effective_schedule(self, p, z, side):
        sp = effective_schedule(p, z, side)
        w, d = (sp.omega_eff, sp.delta_eff) if p.sta else (sp.omega, sp.delta)
        assert np.array_equal(build_h2(p).matrix(z, side), [[d, w], [w, -d]])


class TestSimulate:
    def test_reference_sta_transfer(self):
        # frozen regression value, cross-validated between both backends
        r = simulate(FIG3_STA, tol=1e-10)
        assert r.final_intensities[1] == pytest.approx(0.998771, abs=5e-6)

    def test_reference_raw_transfer(self):
        r = simulate(FIG3_RAW, tol=1e-10)
        assert r.final_intensities[1] == pytest.approx(0.350714, abs=5e-6)

    def test_sta_beats_raw_at_reference_point(self):
        assert simulate(FIG3_STA).final_intensities[1] > simulate(FIG3_RAW).final_intensities[1]

    def test_zero_coupling_is_identity(self):
        p = ModelParams(omega0=0.0, delta0=0.1, half_length=5.0, sta=True)
        r = simulate(p, tol=1e-10)
        assert r.final_intensities[1] == pytest.approx(0.0, abs=1e-12)
        assert r.final_intensities[0] == pytest.approx(1.0, abs=1e-9)

    def test_input_guide_symmetry(self):
        # the generator is symmetric with delta -> -delta under guide swap;
        # transfer efficiency is the same from either input
        r1 = simulate(FIG3_STA, input_guide=1, tol=1e-11)
        r2 = simulate(FIG3_STA, input_guide=2, tol=1e-11)
        assert r2.final_intensities[0] == pytest.approx(
            r1.final_intensities[1], abs=1e-8)

    def test_invalid_input_guide(self):
        with pytest.raises(ValueError):
            simulate(FIG3_STA, input_guide=3)

    @pytest.mark.parametrize("guide", [2.0, np.float64(1.0), "1", None, True, np.True_],
                             ids=["float", "float64", "str", "None", "bool", "bool_"])
    def test_input_guide_not_an_integer(self, guide):
        # named here, not an IndexError from the state vector
        message = f"input_guide must be an integer, got {guide!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate(FIG3_STA, input_guide=guide)

    def test_numpy_integer_input_guide(self):
        for guide in (1, 2):
            a, b = simulate(FIG3_STA, input_guide=np.int64(guide)), simulate(FIG3_STA, guide)
            assert a.states.tobytes() == b.states.tobytes()

    def test_trajectory_conserves_norm(self):
        # the integrator's drift, before the mirror divides it out
        r = simulate(FIG3_STA, tol=1e-11)
        assert r.stats["norm_drift"] < 1e-9

    def test_endpoints(self):
        r = simulate(FIG3_STA)
        assert r.z[0] == -12.5
        assert r.z[-1] == 12.5
        assert r.intensities[0, 0] == pytest.approx(1.0)


class TestAdiabaticProjection:
    def test_populations_sum_to_one(self):
        r = simulate(FIG3_STA, tol=1e-11)
        sums = adiabatic_projection(FIG3_STA, r).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9

    def test_transitionless_following_within_each_half(self):
        # with the counterdiabatic terms the dressed-state population is
        # conserved exactly on each side of the sign flip
        r = simulate(FIG3_STA, tol=1e-12)
        z = r.z
        pops = adiabatic_projection(FIG3_STA, r)[:, 0]
        left = pops[z <= 0.0]
        right = pops[z > 0.0]
        assert np.max(np.abs(left - left[0])) < 1e-9
        assert np.max(np.abs(right - right[-1])) < 1e-9

    def test_raw_schedule_shows_diabatic_leakage(self):
        # without the correction the population is NOT conserved
        r = simulate(FIG3_RAW, tol=1e-11)
        pops = adiabatic_projection(FIG3_RAW, r)[:, 0]
        assert np.max(np.abs(pops - pops[0])) > 0.01

    def test_projection_requires_two_levels(self):
        from sta_coupler.propagation import Trajectory
        bad = Trajectory(z=np.array([0.0]), states=np.zeros((1, 3), dtype=complex),
                         backend="x")
        with pytest.raises(ValueError):
            adiabatic_projection(FIG3_STA, bad)
