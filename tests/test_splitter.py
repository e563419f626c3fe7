import math

import numpy as np
import pytest

from sta_coupler.propagation import propagate_adaptive
from sta_coupler.schedules import ModelParams, effective_schedule
from sta_coupler.splitter import (
    SplitterParams,
    build_h3,
    build_reduced_h2,
    reduce_bright_dark,
    simulate_splitter,
    splitter_schedule,
)

BASE = ModelParams(omega0=1.5, delta0=0.1, half_length=12.5, sta=True)
BASE_RAW = ModelParams(omega0=1.5, delta0=0.1, half_length=12.5, sta=False)


class TestConstruction:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SplitterParams(BASE, mode="bogus")

    def test_h3_structure(self):
        m = build_h3(SplitterParams(BASE_RAW)).matrix(-1.0)
        assert m[0, 0] == 0.0 and m[2, 2] == 0.0
        assert m[0, 1] == m[1, 0] == m[1, 2] == m[2, 1]
        assert m[0, 2] == 0.0

    @pytest.mark.parametrize("sp", [SplitterParams(BASE_RAW), SplitterParams(BASE, "direct")],
                             ids=["raw", "direct"])
    @pytest.mark.parametrize("z, side", [(-7.3, 0), (4.1, 0), (0.0, -1), (0.0, +1)])
    def test_matrices_from_effective_schedule(self, sp, z, side):
        pt = effective_schedule(sp.base, z, side)
        w, d = (pt.omega_eff, pt.delta_eff) if sp.base.sta else (pt.omega, pt.delta)
        assert np.array_equal(build_h3(sp).matrix(z, side),
                              [[0, w, 0], [w, d, w], [0, w, 0]])
        rw = math.sqrt(2.0) * w
        assert np.array_equal(build_reduced_h2(sp).matrix(z, side), [[0, rw], [rw, d]])

    def test_reduced_cd_matrices_from_schedule(self):
        sp = SplitterParams(BASE, "reduced_cd")
        w, d = splitter_schedule(sp, -5.0)
        assert np.array_equal(build_h3(sp).matrix(-5.0), [[0, w, 0], [w, d, w], [0, w, 0]])
        rw = math.sqrt(2.0) * w
        assert np.array_equal(build_reduced_h2(sp).matrix(-5.0), [[0, rw], [rw, d]])

    @pytest.mark.parametrize("z, side", [(-12.5, 0), (-7.3, 0), (0.0, -1), (0.0, +1), (4.1, 0),
                                         (12.5, 0)])
    def test_reduced_cd_is_reduced_effective_schedule(self, z, side):
        # the CD construction on the (middle, bright) system, whose traceless
        # form has coupling sqrt(2)*omega0 and left-half mismatch delta0/2
        reduced = ModelParams(math.sqrt(2.0) * BASE.omega0, 0.5 * BASE.delta0,
                              BASE.half_length, sta=True)
        pt = effective_schedule(reduced, z, side)
        w, d = splitter_schedule(SplitterParams(BASE, "reduced_cd"), z, side)
        assert (w, d) == (pt.omega_eff / math.sqrt(2.0), 2.0 * pt.delta_eff)

    @pytest.mark.parametrize("mode", ["direct", "reduced_cd"])
    def test_position_checked(self, mode):
        sp = SplitterParams(ModelParams(1.5, 0.1, 5.0, sta=True), mode)
        with pytest.raises(ValueError, match="outside the device"):
            splitter_schedule(sp, 100.0)
        with pytest.raises(ValueError, match="outside the device"):
            propagate_adaptive(build_h3(sp), np.array([0.0, 1.0, 0.0], dtype=complex),
                               -10.0, 10.0)

    def test_raw_schedule_passthrough(self):
        sp = SplitterParams(BASE_RAW)
        w, d = splitter_schedule(sp, 0.0, side=-1)
        assert w == pytest.approx(1.5)
        assert d == pytest.approx(0.1)

    def test_reduced_cd_midpoint_coupling(self):
        # the reduced construction also leaves the peak coupling unchanged
        sp = SplitterParams(BASE, mode="reduced_cd")
        for side in (-1, +1):
            w, _ = splitter_schedule(sp, 0.0, side=side)
            assert w == pytest.approx(BASE.omega0, abs=1e-12)

    def test_modes_differ_away_from_midpoint(self):
        direct = splitter_schedule(SplitterParams(BASE, "direct"), -5.0)
        reduced = splitter_schedule(SplitterParams(BASE, "reduced_cd"), -5.0)
        assert direct != reduced


class TestBrightDark:
    def test_roundtrip_norm(self):
        c = np.array([0.3 + 0.1j, 0.2j, -0.5 + 0.4j])
        c = c / np.linalg.norm(c)
        b, m, d = reduce_bright_dark(c)
        assert abs(b) ** 2 + abs(m) ** 2 + abs(d) ** 2 == pytest.approx(1.0)

    def test_symmetric_input_has_no_dark_component(self):
        _, _, d = reduce_bright_dark(np.array([0.5, 0.7071, 0.5]))
        assert d == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            reduce_bright_dark(np.array([1.0, 0.0]))


class TestSimulateSplitter:
    def test_dark_state_never_populated(self):
        # middle-guide input has no overlap with the dark state and the
        # generator cannot create one: the dark amplitude is exactly zero
        r = simulate_splitter(SplitterParams(BASE), tol=1e-10)
        darks = [abs(reduce_bright_dark(c)[2]) for c in r.trajectory.states]
        assert max(darks) == 0.0

    def test_outer_guides_identical(self):
        r = simulate_splitter(SplitterParams(BASE), tol=1e-10)
        i = r.trajectory.intensities
        assert np.max(np.abs(i[:, 0] - i[:, 2])) < 1e-12

    def test_reduction_residual_small(self):
        # the 3-level run must agree with the exact 2-level reduction
        for mode in ("direct", "reduced_cd"):
            r = simulate_splitter(SplitterParams(BASE, mode), tol=1e-10)
            assert r.reduction_residual < 1e-8

    def test_reference_reduced_cd_split(self):
        # frozen regression values
        r = simulate_splitter(SplitterParams(BASE, "reduced_cd"), tol=1e-10)
        i1, i2, i3 = r.final_intensities
        assert i1 == pytest.approx(0.494133, abs=5e-6)
        assert i3 == pytest.approx(0.494133, abs=5e-6)
        assert r.splitting_infidelity == pytest.approx(0.005867, abs=5e-6)

    def test_reference_direct_split(self):
        r = simulate_splitter(SplitterParams(BASE, "direct"), tol=1e-10)
        assert r.splitting_infidelity == pytest.approx(0.004101, abs=5e-6)

    def test_sta_beats_raw(self):
        sta = simulate_splitter(SplitterParams(BASE, "reduced_cd"), tol=1e-9)
        raw = simulate_splitter(SplitterParams(BASE_RAW), tol=1e-9)
        assert sta.splitting_infidelity < raw.splitting_infidelity

    def test_norm_conserved(self):
        r = simulate_splitter(SplitterParams(BASE), tol=1e-10)
        assert r.trajectory.norm_drift < 1e-8

    @pytest.mark.xfail(
        strict=True,
        reason="the reduced counterdiabatic construction scores slightly worse "
               "than the direct substitution at the reference point "
               "(0.005867 vs 0.004101), reversing the expected ordering; "
               "kept as a faithful record rather than silently inverting "
               "the assertion",
    )
    def test_reduced_cd_not_worse_than_direct(self):
        reduced = simulate_splitter(SplitterParams(BASE, "reduced_cd"), tol=1e-10)
        direct = simulate_splitter(SplitterParams(BASE, "direct"), tol=1e-10)
        assert reduced.splitting_infidelity <= direct.splitting_infidelity
