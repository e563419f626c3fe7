import itertools
import math
import pickle
import re
import struct
from functools import partial

import numpy as np
import pytest

import adiabatic_oracle as oracle
from test_splitter import splitting_infidelity
from sta_coupler.coupler import build_h2, simulate
from sta_coupler.propagation import HamiltonianSpec, _check_coefficients, propagate_adaptive
from sta_coupler.schedules import ModelParams, adiabatic_transport, check_finite, drive
from sta_coupler.splitter import SplitterParams, build_h3, simulate_splitter
from sta_coupler.sweep import (
    AxisSpec,
    SweepSpec,
    TargetNotReached,
    metric_value,
    run_sweep,
    threshold_length,
)


def small_spec(metric="final_i2", sta=True, tol=1e-8, omega0_lo=0.5, **kw):
    return SweepSpec(
        axis_x=AxisSpec("omega0", omega0_lo, 3.0, 4),
        axis_y=AxisSpec("delta0", 0.0, 0.5, 3),
        fixed={"total_length": 10.0},
        metric=metric,
        sta=sta,
        tol=tol,
        **kw,
    )


def cell_loop(spec):
    """spec's grid from a nested metric_value loop that shares no code with
    run_sweep: rows over the y axis, columns over the x axis."""
    xs = np.linspace(spec.axis_x.lo, spec.axis_x.hi, spec.axis_x.count)
    ys = np.linspace(spec.axis_y.lo, spec.axis_y.hi, spec.axis_y.count)
    grid = np.empty((len(ys), len(xs)))
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            point = dict(spec.fixed)
            point[spec.axis_x.name] = float(x)
            point[spec.axis_y.name] = float(y)
            grid[i, j] = metric_value(spec.metric, spec.sta, point["omega0"], point["delta0"],
                                      point["total_length"], tol=spec.tol,
                                      splitter_mode=spec.splitter_mode)
    return grid


# two closed-form and two integrated sweeps: STA final_i2, raw final_i2, the
# direct splitter's splitting_infidelity and the reduced_cd splitter's
LOOP_SPECS = [{}, {"sta": False}, {"metric": "splitting_infidelity", "splitter_mode": "direct"},
              {"metric": "splitting_infidelity"}]


class TestValidation:
    def test_axis_name(self):
        with pytest.raises(ValueError):
            AxisSpec("bogus", 0.0, 1.0, 5)

    def test_axis_count(self):
        with pytest.raises(ValueError):
            AxisSpec("omega0", 0.0, 1.0, 1)

    @pytest.mark.parametrize("count", [2.0, "3", None])
    def test_axis_count_integer(self, count):
        # checked here, not as a TypeError from the first sweep
        with pytest.raises(ValueError, match=f"axis count must be an integer, got {count!r}"):
            AxisSpec("omega0", 0.0, 1.0, count)

    def test_axis_count_numpy_integer(self):
        assert AxisSpec("omega0", 0.0, 1.0, np.int64(3)).values.tolist() == [0.0, 0.5, 1.0]

    def test_axis_ordering(self):
        with pytest.raises(ValueError):
            AxisSpec("omega0", 1.0, 1.0, 5)

    def test_axis_nonnegative(self):
        with pytest.raises(ValueError):
            AxisSpec("omega0", -1.0, 1.0, 5)

    def test_axis_finite(self):
        with pytest.raises(ValueError, match="hi must be finite"):
            AxisSpec("omega0", 0.0, float("inf"), 5)

    @pytest.mark.parametrize("bound", ["lo", "hi"])
    @pytest.mark.parametrize("value", ["0", None, math.nan])
    def test_axis_bound_not_a_number(self, bound, value):
        bounds = {"lo": 0.0, "hi": 1.0, bound: value}
        with pytest.raises(ValueError, match=f"axis {bound} must be finite, got {value!r}"):
            AxisSpec("omega0", count=3, **bounds)

    @pytest.mark.parametrize("value", ["10", None, math.nan, math.inf, -2.0])
    def test_fixed_values_checked(self, value):
        # named as given, before any cell runs
        match = "total_length must be >= 0" if value == -2.0 else "total_length must be finite"
        with pytest.raises(ValueError, match=match):
            SweepSpec(axis_x=AxisSpec("omega0", 0, 1, 2), axis_y=AxisSpec("delta0", 0, 1, 2),
                      fixed={"total_length": value})

    @pytest.mark.parametrize("sta", [True, False])
    def test_total_length_half_underflows(self, sta):
        # 5e-324 is positive, but the half a ModelParams receives is 0.0:
        # named as given, not as half_length
        match = "total_length must be > 0 when halved, got 5e-324"
        spec = SweepSpec(axis_x=AxisSpec("omega0", 0.0, 1.0, 2),
                         axis_y=AxisSpec("total_length", 0.0, 1e-323, 3),
                         fixed={"delta0": 0.1}, sta=sta)
        with pytest.raises(ValueError, match=match):
            run_sweep(spec)
        with pytest.raises(ValueError, match=match):
            threshold_length(1.0, 0.1, sta, 0.5, (0.0, 5e-323))

    def test_duplicate_axes(self):
        with pytest.raises(ValueError):
            SweepSpec(axis_x=AxisSpec("omega0", 0, 1, 2),
                      axis_y=AxisSpec("omega0", 0, 1, 2),
                      fixed={"delta0": 0.1, "total_length": 1.0})

    def test_fixed_must_cover_remaining(self):
        with pytest.raises(ValueError):
            SweepSpec(axis_x=AxisSpec("omega0", 0, 1, 2),
                      axis_y=AxisSpec("delta0", 0, 1, 2),
                      fixed={})

    def test_metric_name(self):
        with pytest.raises(ValueError):
            small_spec(metric="bogus")

    @pytest.mark.parametrize("total_length", [-2.0, math.nan, math.inf, "10", None, 5e-324])
    @pytest.mark.parametrize("omega0", [0.0, 1.5])
    def test_metric_value_total_length(self, total_length, omega0):
        # named as given, not as the half length a ModelParams receives,
        # which is 0.0 for 5e-324
        bound = {-2.0: ">= 0", 5e-324: "> 0 when halved"}.get(total_length, "finite")
        with pytest.raises(ValueError, match=f"total_length must be {bound}, got"):
            metric_value("final_i2", True, omega0, 0.1, total_length)

    def test_metric_value_rejects_unknown(self):
        with pytest.raises(ValueError):
            metric_value("bogus", True, 1.0, 0.1, 1.0)

    @pytest.mark.parametrize("metric", ["final_i2", "splitting_infidelity"])
    def test_splitter_mode_checked(self, metric):
        # even where no cell would build a splitter: with omega0 = 0 every
        # cell is degenerate
        with pytest.raises(ValueError, match=r"\('direct', 'reduced_cd'\), got 'bogus'"):
            SweepSpec(axis_x=AxisSpec("delta0", 0.0, 1.0, 2),
                      axis_y=AxisSpec("total_length", 0.0, 1.0, 2),
                      fixed={"omega0": 0.0}, metric=metric, splitter_mode="bogus")
        with pytest.raises(ValueError, match=r"\('direct', 'reduced_cd'\), got 'bogus'"):
            metric_value(metric, True, 0.0, 0.1, 1.0, splitter_mode="bogus")

    @pytest.mark.parametrize("tol", [1.0, 1e-13, math.nan, "1e-8", None, [1e-8]])
    @pytest.mark.parametrize("sta", [True, False])
    def test_tol_range(self, tol, sta):
        # checked when the spec is built, before any cell runs; a value
        # that does not compare is named too, not a TypeError
        with pytest.raises(ValueError, match=r"tol must lie in \[1e-12, 1e-4\], got "
                           + re.escape(repr(tol))):
            small_spec(sta=sta, tol=tol)

    def test_tol_range_degenerate_grid(self):
        # omega0 = 0 makes every cell the identity, which integrates nothing
        with pytest.raises(ValueError, match="tol must lie in"):
            SweepSpec(axis_x=AxisSpec("delta0", 0.0, 1.0, 2),
                      axis_y=AxisSpec("total_length", 1.0, 2.0, 2),
                      fixed={"omega0": 0.0}, tol=1.0)

    @pytest.mark.parametrize("tol", ["abc", 5.0, 1e-13])
    @pytest.mark.parametrize("sta, omega0", [(True, 1.5), (False, 1.5), (True, 0.0)],
                             ids=["closed-form", "integrated", "degenerate"])
    def test_metric_value_tol_range(self, tol, sta, omega0):
        # on every branch, also where no integrator would see tol
        with pytest.raises(ValueError, match=r"tol must lie in \[1e-12, 1e-4\], got "
                           + re.escape(repr(tol))):
            metric_value("final_i2", sta, omega0, 0.1, 25.0, tol=tol)


SEEDED = [tuple(float(v) for v in row) for row in np.random.default_rng(5).uniform(
    (0.1, 0.0, 0.5), (5.0, 3.0, 30.0), size=(6, 3))]
DESIGNS = [(1.5, 0.1, 25.0), (1.5, 0.0, 25.0), *SEEDED]  # (omega0, delta0, total_length)


# raw designs for the tol contract: Delta0 = 0, the sweep benchmark's anchor
# cell, a large Omega0*L design, and a seeded draw over
# Omega0, Delta0 in [0.05, 5] and 2L in {2, 10, 25}
_RNG = np.random.default_rng(11)
_RATES, _LENGTHS = _RNG.uniform(0.05, 5.0, size=(16, 2)), _RNG.choice([2.0, 10.0, 25.0], size=16)
MIRROR_DESIGNS = [(3.0, 0.2, 10.0), (1.5, 0.0, 25.0), (4.0, 0.0, 10.0), (30.0, 3.0, 10.0),
                  *((float(o), float(d), float(n)) for (o, d), n in zip(_RATES, _LENGTHS))]


def _reduced_cd_infidelity(omega0, delta0, total_length):
    # the (middle, bright) system: middle-guide input is its guide 1
    _, bright = adiabatic_transport(math.sqrt(2.0) * omega0, 0.5 * delta0, total_length / 2.0)
    return abs(0.5 * bright - 0.5)


def mirrored_cell(p, tol):
    """A raw final_i2 cell written out: guide 1 propagated over [-L, 0] at
    tol/16 (not below the integrator's 1e-12), then the right half as the
    left half's mirror, which sends U_L e1 = (a, b) to (|a|^2 - |b|^2, 2ab),
    with (a, b) divided by its norm."""
    a, b = propagate_adaptive(build_h2(p), np.array([1.0, 0.0], dtype=complex),
                              -p.half_length, 0.0, max(tol / 16, 1e-12)).final_state.tolist()
    pa, pb = abs(a) ** 2, abs(b) ** 2
    return 4.0 * pa * pb / (pa + pb) ** 2


def exact_i2(p):
    """I2 of a whole-device run at the tightest tolerance."""
    return float(simulate(p, tol=1e-12).final_intensities[1])


class TestMetricValue:
    def test_matches_direct_simulation(self):
        # a raw cell is the mirrored left-half run, within tol of a tight
        # whole-device run; an STA cell is the closed form, which a tight
        # integration reproduces
        for sta in (False, True):
            p = ModelParams(omega0=1.5, delta0=0.1, half_length=12.5, sta=sta)
            value = metric_value("final_i2", sta, 1.5, 0.1, 25.0)
            if sta:
                assert abs(value - simulate(p, tol=1e-10).final_intensities[1]) <= 1e-8
            else:
                assert value == mirrored_cell(p, 1e-8)
                assert abs(value - exact_i2(p)) <= 1e-8

    @pytest.mark.parametrize("design", DESIGNS)
    def test_sta_is_closed_form(self, design):
        omega0, delta0, total = design
        transfer = metric_value("final_i2", True, *design)
        assert transfer == adiabatic_transport(omega0, delta0, total / 2.0)[1]
        assert abs(transfer - oracle.sta_transfer(omega0, delta0, total)) <= 1e-12
        infidelity = metric_value("splitting_infidelity", True, *design)
        assert infidelity == _reduced_cd_infidelity(*design)
        i1, _, i3 = oracle.reduced_cd_splitter(omega0, delta0, total / 2.0)
        assert abs(infidelity - max(abs(i1 - 0.5), abs(i3 - 0.5))) <= 1e-12

    @pytest.mark.parametrize("design", DESIGNS[:4])
    def test_sta_matches_integration(self, design):
        p = ModelParams(design[0], design[1], design[2] / 2.0, sta=True)
        assert abs(metric_value("final_i2", True, *design)
                   - simulate(p, tol=1e-10).final_intensities[1]) <= 1e-8
        split = simulate_splitter(SplitterParams(p, "reduced_cd"), tol=1e-10)
        assert abs(metric_value("splitting_infidelity", True, *design)
                   - splitting_infidelity(split)) <= 1e-8

    @pytest.mark.parametrize("design", DESIGNS[:3])
    def test_integrated_cells_match_simulation(self, design):
        p = ModelParams(design[0], design[1], design[2] / 2.0, sta=False)
        value = metric_value("final_i2", False, *design)
        assert value == mirrored_cell(p, 1e-8)
        assert abs(value - exact_i2(p)) <= 1e-8
        direct = SplitterParams(ModelParams(p.omega0, p.delta0, p.half_length, True), "direct")
        assert (metric_value("splitting_infidelity", True, *design, splitter_mode="direct")
                == splitting_infidelity(simulate_splitter(direct, tol=1e-8)))

    @pytest.mark.parametrize("sta", [False, True])
    @pytest.mark.parametrize("design", [(3.0, 0.2, 10.0), (1.5, 0.0, 25.0), (5.0, 1.0, 2.0)])
    def test_mirror_identity(self, design, sta):
        # the right half is the left half's mirror: U_L has the form
        # [[a, -b*], [b, a*]], and sigma_x U_L^T sigma_x U_L is the whole run
        omega0, delta0, total = design
        p = ModelParams(omega0, delta0, total / 2.0, sta=sta)
        h, sx = build_h2(p), np.array([[0.0, 1.0], [1.0, 0.0]])
        u_left = np.column_stack([propagate_adaptive(h, e, -p.half_length, 0.0, 1e-12).final_state
                                  for e in np.eye(2, dtype=complex)])
        (a, minus_b_conj), (b, a_conj) = u_left
        assert abs(minus_b_conj + b.conjugate()) <= 1e-9
        assert abs(a_conj - a.conjugate()) <= 1e-9
        whole = propagate_adaptive(h, np.eye(2, dtype=complex)[0], -p.half_length,
                                   p.half_length, 1e-12).final_state
        assert np.max(np.abs(sx @ u_left.T @ sx @ u_left[:, 0] - whole)) <= 1e-9

    @pytest.mark.parametrize("design", MIRROR_DESIGNS)
    def test_raw_cell_within_tol_of_exact(self, design):
        omega0, delta0, total = design
        exact = exact_i2(ModelParams(omega0, delta0, total / 2.0))
        for tol in (1e-4, 1e-6, 1e-8):
            assert abs(metric_value("final_i2", False, *design, tol=tol) - exact) <= tol, tol

    def test_tol_floor(self):
        # below tol 1.6e-11 the left half runs at the integrator's floor 1e-12
        p = ModelParams(3.0, 0.2, 5.0)
        value = metric_value("final_i2", False, 3.0, 0.2, 10.0, tol=1e-12)
        assert value == mirrored_cell(p, 1e-12)
        assert value == metric_value("final_i2", False, 3.0, 0.2, 10.0, tol=1.5e-11)
        assert value != metric_value("final_i2", False, 3.0, 0.2, 10.0, tol=1.6e-10)
        assert abs(value - exact_i2(p)) <= 1e-11

    def test_raw_overflow_names_left_half(self):
        with pytest.raises(FloatingPointError,
                           match=r"^overflow encountered in \w+ on \[-5\.0, 0\.0\]$"):
            metric_value("final_i2", False, 1.7e308, 1.7e308, 10.0, tol=1e-6)

    def test_degenerate_zero_coupling(self):
        assert metric_value("final_i2", True, 0.0, 0.1, 10.0) == 0.0
        assert metric_value("splitting_infidelity", True, 0.0, 0.1, 10.0) == 0.5

    def test_degenerate_zero_length(self):
        assert metric_value("final_i2", False, 1.0, 0.1, 0.0) == 0.0

    @pytest.mark.parametrize("design", [(0.0, math.nan, 10.0), (0.0, math.inf, 0.0),
                                        (0.0, -1.0, 0.0), (math.nan, 0.1, 0.0),
                                        (-1.0, 0.1, 0.0), (0.0, 1.0, -5.0),
                                        (0.0, 1.0, math.inf)])
    def test_degenerate_checked(self, design):
        for metric in ("final_i2", "splitting_infidelity"):
            with pytest.raises(ValueError, match="must be"):
                metric_value(metric, True, *design)


# a log-scale lattice of designs from subnormal values to the float maximum
RATES = [5e-324, 1e-310, 1e-160, 1e-100, 1.0, 1e100, 1e154, 1e160, 1.7976931348623157e308]
HALF_LENGTHS = [5e-324, 1e-310, 1e-300, 1e-100, 1.0, 1e100, 1e300]


# a seeded log-uniform sample of designs over the same range
LOG_DESIGNS = (10.0 ** np.random.default_rng(16).uniform(-323.0, 308.0, size=(2000, 3))).tolist()


def _bits(x):
    # a NaN's sign bit follows no rule; that it is a NaN is what counts
    return "nan" if math.isnan(x) else struct.pack("d", x)


def _at(schedule, z, side):
    try:
        return schedule(z, side)
    except (ArithmeticError, ValueError) as exc:  # compared with the mirror's class
        return type(exc)


def reference_cell(metric, omega0, delta0, total_length):
    """An STA closed-form cell composed from the public pieces: a validated
    ModelParams, the splitter's reduced design SplitterParams(p).design, the
    integrator's coefficient check on drive at -L and 0-, and the closed form."""
    check_finite("total_length", total_length, 0.0)
    half = total_length / 2.0
    if half == 0.0 < total_length:
        raise ValueError(f"total_length must be > 0 when halved, got {total_length}")
    if omega0 == 0.0 or half == 0.0:
        ModelParams(omega0, delta0, half or 1.0)
        return 0.0 if metric == "final_i2" else 0.5
    p = ModelParams(omega0, delta0, half, sta=True)
    q = p if metric == "final_i2" else SplitterParams(p).design
    for z, side in ((-half, 0), (0.0, -1)):
        _check_coefficients(drive(q, z, side), z)
    transfer = adiabatic_transport(q.omega0, q.delta0, half)[1]
    return transfer if metric == "final_i2" else abs(0.5 * transfer - 0.5)


def _outcome(cell, *args):
    try:
        return _bits(cell(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("metric", ["final_i2", "splitting_infidelity"])
def test_closed_form_cell_matches_reference(metric):
    # the same value bits, or the same exception class and message, at every
    # design of both lattices (zero, subnormal and huge rates and lengths) and
    # at invalid ones
    designs = [*itertools.product(RATES, [0.0, *RATES], HALF_LENGTHS), *LOG_DESIGNS,
               *((0.0, delta0, L) for delta0 in [0.0, *RATES] for L in HALF_LENGTHS),
               *itertools.product([math.nan, -1.0, "1", None, 0.0, 1.0],
                                  [math.inf, -0.5, "0.1", None, 0.1], [0.0, 1.0, 1e308])]
    raised = 0
    for omega0, delta0, L in designs:
        want = _outcome(reference_cell, metric, omega0, delta0, 2.0 * L)
        got = _outcome(partial(metric_value, metric, True), omega0, delta0, 2.0 * L)
        assert got == want, (omega0, delta0, L)
        raised += isinstance(want, tuple)
    assert 0 < raised < len(designs)


class TestClosedFormGuard:
    """A closed-form cell fails where the integrator's generator would: the
    generator is evaluated at -L and 0- first, whose mirrors +L and 0+ are
    then finite too."""

    @pytest.mark.parametrize("mode", ["drive", "reduced_cd"])
    def test_mirror(self, mode):
        # Omega is even in z and the mismatch odd, bit for bit, on both STA
        # schedules the guard evaluates; a point raises where its mirror does
        designs = [*itertools.product(RATES, [0.0, *RATES], HALF_LENGTHS), *LOG_DESIGNS]
        raised = 0
        for omega0, delta0, L in designs:
            p = ModelParams(omega0, delta0, L, sta=True)
            # the reduced_cd array's design is built inside, where it may overflow
            schedule = partial(drive, p) if mode == "drive" else (
                lambda z, side: drive(SplitterParams(p).design, z, side))
            for left, right in (((-L, 0), (L, 0)), ((0.0, -1), (0.0, +1))):
                here, mirror = _at(schedule, *left), _at(schedule, *right)
                if isinstance(here, type):
                    assert mirror is here, (omega0, delta0, L, left)
                    raised += 1
                    continue
                w, d = here
                assert [*map(_bits, mirror)] == [_bits(w), _bits(-d)], (omega0, delta0, L, left)
        assert 0 < raised < len(designs)

    @pytest.mark.parametrize("metric", ["final_i2", "splitting_infidelity"])
    def test_integrator_messages(self, metric):
        with pytest.raises(FloatingPointError, match="non-finite coefficients"):
            metric_value(metric, True, 1.5, 0.1, 2e-300)
        with pytest.raises(FloatingPointError, match=r"omega\^2 \+ delta\^2 underflows"):
            metric_value(metric, True, 1e-320, 1e-320, 10.0)

    def test_builds_no_generator(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a closed-form cell built a generator")

        monkeypatch.setattr(HamiltonianSpec, "__post_init__", refuse)
        for design in DESIGNS[:3]:
            omega0, delta0, total = design
            assert (metric_value("final_i2", True, *design)
                    == adiabatic_transport(omega0, delta0, total / 2.0)[1])
            assert metric_value("splitting_infidelity", True, *design) == _reduced_cd_infidelity(*design)
        for metric in ("final_i2", "splitting_infidelity"):
            self.test_integrator_messages(metric)

    @pytest.mark.parametrize("metric", ["final_i2", "splitting_infidelity"])
    def test_phase_bound(self, metric):
        # the guard passes (omega0**2 = 1e200 is finite), but Phi is about
        # 1.25e100, where cos(Phi) carries no information
        with pytest.raises(FloatingPointError, match="dynamic phase overflows its bound"):
            metric_value(metric, True, 1e100, 0.1, 10.0)

    @pytest.mark.parametrize("metric,top", [("final_i2", 1.0), ("splitting_infidelity", 0.5)])
    def test_lattice(self, metric, top):
        # a design either fails with an ArithmeticError (exit 3) or has a
        # value in range and a generator that is finite over the whole device
        passed = 0
        for omega0, delta0, L in itertools.product(RATES, [0.0, *RATES], HALF_LENGTHS):
            try:
                value = metric_value(metric, True, omega0, delta0, 2.0 * L)
            except ArithmeticError:
                continue
            passed += 1
            assert 0.0 <= value <= top, (omega0, delta0, L)
            p = ModelParams(omega0, delta0, L, sta=True)
            h = build_h2(p) if metric == "final_i2" else build_h3(SplitterParams(p))
            for z in np.linspace(-L, L, 201).tolist():
                h.matrix(z, -1)
        assert passed > 100


class TestCallerErrorState:
    def test_results_ignore_numpy_error_state(self):
        # the integrator's smallest step is subnormal at z = 0, which must not
        # fail a run under a caller's np.errstate(all="raise")
        raw = ModelParams(3.0, 0.2, 5.0)
        sta = ModelParams(3.0, 0.2, 5.0, sta=True)
        runs = [
            lambda: propagate_adaptive(build_h2(raw), np.array([1.0, 0.0], dtype=complex),
                                       -5.0, 5.0, 1e-8),
            lambda: simulate(sta, tol=1e-8),
            lambda: simulate_splitter(SplitterParams(sta, "direct"), tol=1e-8),
            lambda: metric_value("final_i2", False, 3.0, 0.2, 10.0),
            lambda: run_sweep(small_spec(sta=False)),
            lambda: run_sweep(small_spec()),
            lambda: threshold_length(5.0, 1.0, sta=False, target=0.93),
        ]
        expected = [pickle.dumps(run()) for run in runs]
        with np.errstate(all="raise"):
            assert [pickle.dumps(run()) for run in runs] == expected


class TestRunSweep:
    def test_shape_and_orientation(self):
        res = run_sweep(small_spec())
        assert res.grid.shape == (3, 4)
        assert len(res.x_values) == 4
        assert len(res.y_values) == 3
        # corner check: grid[i, j] corresponds to (y_i, x_j)
        expected = metric_value("final_i2", True, float(res.x_values[-1]),
                                float(res.y_values[0]), 10.0)
        assert res.grid[0, -1] == expected

    def test_metric_range(self):
        res = run_sweep(small_spec())
        assert np.all(res.grid >= 0.0)
        assert np.all(res.grid <= 1.0 + 1e-9)

    @pytest.mark.parametrize("kw", LOOP_SPECS, ids=["sta", "raw", "direct-splitter", "reduced_cd"])
    def test_equals_cell_loop(self, kw):
        for omega0_lo in (0.5, 0.0):  # and with the degenerate omega0 = 0 column
            spec = small_spec(omega0_lo=omega0_lo, **kw)
            assert run_sweep(spec).grid.tobytes() == cell_loop(spec).tobytes()

    def test_workers_deprecated(self):
        spec = small_spec(sta=False)
        with pytest.warns(DeprecationWarning, match="serially") as record:
            grid = run_sweep(spec, workers=4).grid
        assert len(record) == 1
        assert grid.tobytes() == run_sweep(spec).grid.tobytes()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_sweep(small_spec(), workers=workers)

    def test_provenance(self):
        # the spec holds every other fact about the sweep
        for kw, backend in [
            ({}, "adiabatic-closed-form"),
            ({"metric": "splitting_infidelity"}, "adiabatic-closed-form"),
            ({"sta": False}, "adaptive-dop853-mirror"),
            ({"metric": "splitting_infidelity", "splitter_mode": "direct"}, "adaptive-dop853"),
        ]:
            assert run_sweep(small_spec(**kw)).backend == backend, kw

    def test_splitting_metric(self):
        spec = SweepSpec(axis_x=AxisSpec("omega0", 1.0, 2.0, 2),
                         axis_y=AxisSpec("total_length", 5.0, 25.0, 2),
                         fixed={"delta0": 0.1}, metric="splitting_infidelity",
                         sta=True, tol=1e-8)
        res = run_sweep(spec)
        assert np.all(res.grid >= 0.0)
        assert np.all(res.grid <= 0.5 + 1e-12)


class TestThreshold:
    def test_raw_reference_threshold(self):
        # without the counterdiabatic correction the reference coupler
        # needs roughly 1.3 mm to hit 99% transfer
        res = threshold_length(5.0, 1.0, sta=False, target=0.99,
                               length_range=(0.0, 2.0), tol=1e-8)
        assert 1.1 <= res.total_length <= 1.4
        assert res.achieved_metric >= 0.99

    def test_bisection_resolution(self):
        res = threshold_length(5.0, 1.0, sta=False, target=0.99)
        probe = metric_value("final_i2", False, 5.0, 1.0,
                             res.total_length - 0.02, tol=1e-8)
        # 0.02 mm below the reported threshold the target is already missed
        # somewhere, consistent with 0.01 mm resolution on a first crossing
        assert res.achieved_metric >= 0.99
        assert probe < 0.99 or res.total_length <= 0.02

    def test_unreachable_raises(self):
        with pytest.raises(TargetNotReached) as exc:
            threshold_length(0.5, 5.0, sta=False, target=0.99,
                             length_range=(0.0, 1.0), tol=1e-8)
        assert exc.value.best_metric < 0.99

    def test_target_validation(self):
        with pytest.raises(ValueError):
            threshold_length(1.0, 0.1, True, target=1.5)

    @pytest.mark.parametrize("value", ["0.9", None, math.nan])
    def test_target_not_a_number(self, value):
        with pytest.raises(ValueError, match=f"target must be finite, got {value!r}"):
            threshold_length(1.0, 0.1, True, target=value)

    @pytest.mark.parametrize("end", ["lo", "hi"])
    @pytest.mark.parametrize("value", ["1", None, math.nan, -1.0])
    def test_range_not_a_number(self, end, value):
        length_range = (value, 2.0) if end == "lo" else (0.0, value)
        bound = "must be >= 0" if value == -1.0 else "must be finite"
        with pytest.raises(ValueError, match=f"search range {end} {bound}"):
            threshold_length(1.0, 0.1, True, target=0.9, length_range=length_range)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            threshold_length(1.0, 0.1, True, target=0.9, length_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            threshold_length(1.0, 0.1, True, target=0.9,
                             length_range=(0.0, float("inf")))

    def test_scan_stops_at_first_crossing(self, monkeypatch):
        import sta_coupler.sweep as sweep
        lengths = []

        def counting(metric, sta, omega0, delta0, total_length, **kw):
            lengths.append(total_length)
            return metric_value(metric, sta, omega0, delta0, total_length, **kw)

        monkeypatch.setattr(sweep, "metric_value", counting)
        res = threshold_length(5.0, 1.0, sta=True, target=0.9, tol=1e-8)
        step = 2.0 / 99
        # the second coarse point (0.0202 mm) crosses 0.9; two bisection
        # steps then refine [0, 0.0202] to 0.01 mm, and the scan stops there
        assert lengths[:2] == [0.0, step]
        assert len(lengths) == 4
        assert all(0.0 < x < step for x in lengths[2:])
        assert res.achieved_metric >= 0.9

