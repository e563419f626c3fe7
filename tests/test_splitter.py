import math

import numpy as np
import pytest

from sta_coupler import propagation
from sta_coupler.coupler import build_h2, simulate
from sta_coupler.propagation import HamiltonianSpec, Trajectory, propagate_adaptive
from sta_coupler.schedules import ModelParams, drive, effective_schedule
from sta_coupler.splitter import SplitterParams, build_h3, build_pair, simulate_splitter

BASE = ModelParams(omega0=1.5, delta0=0.1, half_length=12.5, sta=True)
BASE_RAW = ModelParams(omega0=1.5, delta0=0.1, half_length=12.5, sta=False)
ROBUST = ModelParams(omega0=3.0, delta0=0.2, half_length=5.0, sta=True)  # acceptance 8


def splitting_infidelity(traj: Trajectory) -> float:
    """max(|I1 - 1/2|, |I3 - 1/2|) of a whole-array run's final state: the
    splitting infidelity, which metric_value scores as |I_bright / 2 - 1/2|
    of the (middle, bright) pair without running the array."""
    i1, _, i3 = (float(x) for x in traj.final_intensities)
    return max(abs(i1 - 0.5), abs(i3 - 0.5))


def array_run(sp: SplitterParams, tol: float) -> Trajectory:
    """Middle-guide input through the whole 3x3 array, build_h3: the
    reference that simulate_splitter's (middle, bright) pair run is held to."""
    L = sp.base.half_length
    return propagate_adaptive(build_h3(sp), np.array([0.0, 1.0, 0.0], dtype=complex), -L, L, tol)


# rows: the bright state (guide 1 + guide 3) / sqrt(2) and the middle guide;
# the dark state (guide 1 - guide 3) / sqrt(2) is orthogonal to both
BRIGHT_MIDDLE = np.array([[math.sqrt(0.5), 0.0, math.sqrt(0.5)], [0.0, 1.0, 0.0]])


def reduced_h2(sp: SplitterParams) -> HamiltonianSpec:
    """Generator [[0, sqrt(2) W], [sqrt(2) W, D]] of the (bright, middle)
    system the array reduces to once the dark state decouples: build_h3's
    own terms projected onto that pair, with its own coefficients."""
    h3 = build_h3(sp)
    return HamiltonianSpec(tuple(BRIGHT_MIDDLE @ t @ BRIGHT_MIDDLE.T for t in h3.terms),
                           h3.coefficients)


def reduced_design(p: ModelParams) -> ModelParams:
    """The traceless (middle, bright) system of an STA array: coupling
    sqrt(2)*omega0 and left-half mismatch delta0/2."""
    return ModelParams(math.sqrt(2.0) * p.omega0, 0.5 * p.delta0, p.half_length, sta=True)


class TestConstruction:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SplitterParams(BASE, mode="bogus")

    @pytest.mark.parametrize("base", ["x", None, (1.5, 0.1, 12.5)], ids=["str", "None", "tuple"])
    def test_base_must_be_model_params(self, base):
        # named on construction, not an AttributeError when design is read
        with pytest.raises(ValueError, match="^base must be a ModelParams, got "):
            SplitterParams(base, "direct")

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
        assert drive(sp.design, z, side) == (w, d)
        assert np.array_equal(build_h3(sp).matrix(z, side),
                              [[0, w, 0], [w, d, w], [0, w, 0]])
        rw = math.sqrt(2.0) * w
        assert np.array_equal(reduced_h2(sp).matrix(z, side), [[0, rw], [rw, d]])
        # the pair simulate_splitter and metric_value integrate: the
        # projection, middle first, less its (D / 2) I term
        m = reduced_h2(sp).matrix(z, side)[::-1, ::-1]
        traceless = m - 0.5 * np.trace(m) * np.eye(2)
        pair = build_pair(sp).matrix(z, side)
        assert np.max(np.abs(pair - traceless)) <= 4 * np.spacing(np.max(np.abs(traceless)))

    def test_reduced_cd_matrices_from_schedule(self):
        # the reduced system's coupling sqrt(2) W is the design's own, up to
        # the one rounding of sqrt(0.5)**2 in the projected coupling term
        sp = SplitterParams(BASE, "reduced_cd")
        rw, d = drive(sp.design, -5.0)
        w = rw * math.sqrt(0.5)
        assert np.array_equal(build_h3(sp).matrix(-5.0),
                              [[0, w, 0], [w, 2 * d, w], [0, w, 0]])
        h2 = reduced_h2(sp)
        k = h2.terms[0][0, 1].real
        assert abs(k - 1.0) <= 2.0 ** -52
        assert np.array_equal(h2.matrix(-5.0), [[0, rw * k], [rw * k, 2 * d]])

    @pytest.mark.parametrize("z, side", [(-12.5, 0), (-7.3, 0), (0.0, -1), (0.0, +1), (4.1, 0),
                                         (12.5, 0)])
    def test_reduced_cd_is_reduced_effective_schedule(self, z, side):
        # the CD construction on the (middle, bright) system, whose traceless
        # form has coupling sqrt(2)*omega0 and left-half mismatch delta0/2
        sp = SplitterParams(BASE, "reduced_cd")
        assert sp.design == reduced_design(BASE)
        pt = effective_schedule(reduced_design(BASE), z, side)
        assert drive(sp.design, z, side) == (pt.omega_eff, pt.delta_eff)
        w, d = pt.omega_eff * math.sqrt(0.5), 2.0 * pt.delta_eff
        assert np.array_equal(build_h3(sp).matrix(z, side),
                              [[0, w, 0], [w, d, w], [0, w, 0]])

    @pytest.mark.parametrize("mode", ["direct", "reduced_cd"])
    def test_position_checked(self, mode):
        sp = SplitterParams(ModelParams(1.5, 0.1, 5.0, sta=True), mode)
        with pytest.raises(ValueError, match="outside the device"):
            drive(sp.design, 100.0)
        with pytest.raises(ValueError, match="outside the device"):
            build_h3(sp).matrix(100.0)
        with pytest.raises(ValueError, match="outside the device"):
            propagate_adaptive(build_h3(sp), np.array([0.0, 1.0, 0.0], dtype=complex),
                               -10.0, 10.0)

    def test_raw_schedule_passthrough(self):
        sp = SplitterParams(BASE_RAW)
        assert sp.design is BASE_RAW
        m = build_h3(sp).matrix(0.0, side=-1)
        assert m[0, 1] == pytest.approx(1.5)
        assert m[1, 1] == pytest.approx(0.1)

    def test_reduced_cd_midpoint_coupling(self):
        # the reduced construction also leaves the peak coupling unchanged
        sp = SplitterParams(BASE, mode="reduced_cd")
        for side in (-1, +1):
            w = build_h3(sp).matrix(0.0, side=side)[0, 1]
            assert w == pytest.approx(BASE.omega0, abs=1e-12)

    def test_modes_differ_away_from_midpoint(self):
        direct = build_h3(SplitterParams(BASE, "direct")).matrix(-5.0)
        reduced = build_h3(SplitterParams(BASE, "reduced_cd")).matrix(-5.0)
        assert not np.array_equal(direct, reduced)


class TestSimulateSplitter:
    def test_dark_state_never_populated(self):
        # middle-guide input has no overlap with the dark state and the
        # generator cannot create one: the dark amplitude is exactly zero,
        # in the whole array's run and so in the pair's
        for run in (simulate_splitter, array_run):
            c = run(SplitterParams(BASE), tol=1e-10).states
            assert np.max(np.abs((c[:, 0] - c[:, 2]) / math.sqrt(2.0))) == 0.0, run

    def test_outer_guides_identical(self):
        # the outer guides' amplitudes are equal bit for bit, so are their
        # intensities: in both modes, STA and raw, in the array's run too
        for base in (BASE, ROBUST):
            for sta in (True, False):
                p = ModelParams(base.omega0, base.delta0, base.half_length, sta=sta)
                for mode in ("direct", "reduced_cd"):
                    for run in (simulate_splitter, array_run):
                        i = run(SplitterParams(p, mode), tol=1e-10).intensities
                        assert i[:, 0].tobytes() == i[:, 2].tobytes(), (p, mode, run)

    def test_reduction_residual_small(self):
        # the 3-level run must agree with a 2-level propagation of the reduction
        for base in (BASE, ROBUST):
            L = base.half_length
            raw = ModelParams(base.omega0, base.delta0, L, sta=False)
            for sp in (SplitterParams(raw), SplitterParams(base, "direct"),
                       SplitterParams(base, "reduced_cd")):
                c = array_run(sp, tol=1e-10).final_state
                ref = propagate_adaptive(reduced_h2(sp), np.array([0.0, 1.0], dtype=complex),
                                         -L, L, 1e-10).final_state
                bright, middle = (c[0] + c[2]) / math.sqrt(2.0), c[1]
                assert max(abs(bright - ref[0]), abs(middle - ref[1])) < 1e-8, sp

    @pytest.mark.parametrize("sp", [SplitterParams(BASE_RAW), SplitterParams(BASE, "direct"),
                                    SplitterParams(BASE)], ids=["raw", "direct", "reduced_cd"])
    def test_matches_array_run(self, sp):
        # the pair's lift ends where the whole array's run ends: the phase
        # the pair drops is 1 at +L
        for base in (sp.base, ROBUST):
            q = SplitterParams(ModelParams(base.omega0, base.delta0, base.half_length,
                                           sta=sp.base.sta), sp.mode)
            pair, array = simulate_splitter(q, tol=1e-10), array_run(q, tol=1e-10)
            assert np.max(np.abs(pair.final_intensities - array.final_intensities)) <= 1e-8, q
            assert np.max(np.abs(pair.final_state - array.final_state)) <= 1e-8, q

    @pytest.mark.parametrize("sp", [SplitterParams(BASE_RAW), SplitterParams(BASE, "direct"),
                                    SplitterParams(BASE)], ids=["raw", "direct", "reduced_cd"])
    def test_integrates_once(self, sp, monkeypatch):
        # one run, of the (middle, bright) pair's left half, never of the 3x3 array
        runs = []

        def counting(h, c0, z_from, z_to, tol):
            runs.append((h.dim, z_from, z_to))
            return propagate_adaptive(h, c0, z_from, z_to, tol)

        monkeypatch.setattr(propagation, "propagate_adaptive", counting)
        simulate_splitter(sp, tol=1e-6)
        assert runs == [(2, -sp.base.half_length, 0.0)]

    def test_reference_reduced_cd_split(self):
        # frozen regression values
        r = simulate_splitter(SplitterParams(BASE, "reduced_cd"), tol=1e-10)
        i1, i2, i3 = r.final_intensities
        assert i1 == pytest.approx(0.494133, abs=5e-6)
        assert i3 == pytest.approx(0.494133, abs=5e-6)
        assert splitting_infidelity(r) == pytest.approx(0.005867, abs=5e-6)

    def test_reference_direct_split(self):
        r = simulate_splitter(SplitterParams(BASE, "direct"), tol=1e-10)
        assert splitting_infidelity(r) == pytest.approx(0.004101, abs=5e-6)

    def test_sta_beats_raw(self):
        sta = simulate_splitter(SplitterParams(BASE, "reduced_cd"), tol=1e-9)
        raw = simulate_splitter(SplitterParams(BASE_RAW), tol=1e-9)
        assert splitting_infidelity(sta) < splitting_infidelity(raw)

    def test_norm_conserved(self):
        # the integrator's drift, before the mirror divides it out
        r = simulate_splitter(SplitterParams(BASE), tol=1e-10)
        assert r.stats["norm_drift"] < 1e-8

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
        assert splitting_infidelity(reduced) <= splitting_infidelity(direct)


def pair_lift(state: np.ndarray) -> np.ndarray:
    """The array's amplitudes (c_bright / sqrt(2), c_middle, c_bright / sqrt(2))
    of a (middle, bright) pair state, as simulate_splitter lifts them."""
    outer = state[1] * math.sqrt(0.5)
    return np.array([outer, state[0], outer])


@pytest.mark.parametrize("design, tol", [((1.5, 0.1, 25.0), 1e-6), ((30.0, 1.0, 10.0), 1e-6),
                                         ((3.0, 0.2, 10.0), 1e-8)],
                         ids=["reference", "long", "robust"])
def test_rows_within_tol(design, tol):
    # a row on each half, the sign flip and the end, of simulate (both
    # guides, raw and STA) and of simulate_splitter (every mode), each
    # within tol of a tight run to its z; at (30, 1, 10) whole-device runs
    # at tol missed by 11.3 tol
    omega0, delta0, total = design
    rng = np.random.default_rng(37)
    runs = []
    for sta in (False, True):
        p = ModelParams(omega0, delta0, total / 2.0, sta=sta)
        for guide in (1, 2):
            runs.append((simulate(p, guide, tol), build_h2(p), np.eye(2)[guide - 1], None))
        for mode in ("direct", "reduced_cd") if sta else ("reduced_cd",):
            sp = SplitterParams(p, mode)
            runs.append((simulate_splitter(sp, tol), build_pair(sp), np.eye(2)[0], pair_lift))
    for run, h, c0, lift in runs:
        flip = int(np.flatnonzero(run.z == 0.0)[0])
        for i in (rng.integers(1, flip), flip, rng.integers(flip + 1, len(run.z)), -1):
            ref = propagate_adaptive(h, c0, run.z[0], float(run.z[i]), 1e-12).final_state
            error = np.max(np.abs(run.states[i] - (ref if lift is None else lift(ref))))
            assert error <= tol, (run.z[i], run.states.shape, error / tol)
