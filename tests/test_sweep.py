import itertools
import math

import numpy as np
import pytest

import adiabatic_oracle as oracle
from sta_coupler.coupler import build_h2, simulate
from sta_coupler.propagation import HamiltonianSpec
from sta_coupler.schedules import ModelParams, adiabatic_transport
from sta_coupler.splitter import SplitterParams, build_h3, simulate_splitter
from sta_coupler.sweep import (
    AxisSpec,
    SweepSpec,
    TargetNotReached,
    metric_value,
    robust_region_fraction,
    run_sweep,
    threshold_length,
)


def small_spec(metric="final_i2", sta=True, tol=1e-8, **kw):
    return SweepSpec(
        axis_x=AxisSpec("omega0", 0.5, 3.0, 4),
        axis_y=AxisSpec("delta0", 0.0, 0.5, 3),
        fixed={"total_length": 10.0},
        metric=metric,
        sta=sta,
        tol=tol,
        **kw,
    )


class TestValidation:
    def test_axis_name(self):
        with pytest.raises(ValueError):
            AxisSpec("bogus", 0.0, 1.0, 5)

    def test_axis_count(self):
        with pytest.raises(ValueError):
            AxisSpec("omega0", 0.0, 1.0, 1)

    def test_axis_ordering(self):
        with pytest.raises(ValueError):
            AxisSpec("omega0", 1.0, 1.0, 5)

    def test_axis_nonnegative(self):
        with pytest.raises(ValueError):
            AxisSpec("omega0", -1.0, 1.0, 5)

    def test_axis_finite(self):
        with pytest.raises(ValueError, match="hi must be finite"):
            AxisSpec("omega0", 0.0, float("inf"), 5)

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

    def test_metric_value_rejects_unknown(self):
        with pytest.raises(ValueError):
            metric_value("bogus", True, 1.0, 0.1, 1.0)

    @pytest.mark.parametrize("tol", [1.0, 1e-13, math.nan])
    @pytest.mark.parametrize("sta", [True, False])
    def test_tol_range(self, tol, sta):
        # checked once here: closed-form cells never reach the integrator
        with pytest.raises(ValueError, match=r"tol must lie in \[1e-12, 1e-4\]"):
            small_spec(sta=sta, tol=tol)

    def test_tol_range_degenerate_grid(self):
        # omega0 = 0 makes every cell the identity, which integrates nothing
        with pytest.raises(ValueError, match="tol must lie in"):
            SweepSpec(axis_x=AxisSpec("delta0", 0.0, 1.0, 2),
                      axis_y=AxisSpec("total_length", 1.0, 2.0, 2),
                      fixed={"omega0": 0.0}, tol=1.0)


SEEDED = [tuple(float(v) for v in row) for row in np.random.default_rng(5).uniform(
    (0.1, 0.0, 0.5), (5.0, 3.0, 30.0), size=(6, 3))]
DESIGNS = [(1.5, 0.1, 25.0), (1.5, 0.0, 25.0), *SEEDED]  # (omega0, delta0, total_length)


def _reduced_cd_infidelity(omega0, delta0, total_length):
    # the (middle, bright) system: middle-guide input is its guide 1
    _, bright = adiabatic_transport(math.sqrt(2.0) * omega0, 0.5 * delta0, total_length / 2.0)
    return abs(0.5 * bright - 0.5)


class TestMetricValue:
    def test_matches_direct_simulation(self):
        # a raw cell is the simulation itself; an STA cell is the closed form,
        # which a tight integration reproduces
        for sta in (False, True):
            p = ModelParams(omega0=1.5, delta0=0.1, half_length=12.5, sta=sta)
            value = metric_value("final_i2", sta, 1.5, 0.1, 25.0)
            if sta:
                assert abs(value - simulate(p, tol=1e-10).final_i2) <= 1e-8
            else:
                assert value == simulate(p, tol=1e-8).final_i2

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
                   - simulate(p, tol=1e-10).final_i2) <= 1e-8
        split = simulate_splitter(SplitterParams(p, "reduced_cd"), tol=1e-10)
        assert abs(metric_value("splitting_infidelity", True, *design)
                   - split.splitting_infidelity) <= 1e-8

    @pytest.mark.parametrize("design", DESIGNS[:3])
    def test_integrated_cells_match_simulation(self, design):
        p = ModelParams(design[0], design[1], design[2] / 2.0, sta=False)
        assert metric_value("final_i2", False, *design) == simulate(p, tol=1e-8).final_i2
        direct = SplitterParams(ModelParams(p.omega0, p.delta0, p.half_length, True), "direct")
        assert (metric_value("splitting_infidelity", True, *design, splitter_mode="direct")
                == simulate_splitter(direct, tol=1e-8).splitting_infidelity)

    def test_degenerate_zero_coupling(self):
        assert metric_value("final_i2", True, 0.0, 0.1, 10.0) == 0.0
        assert metric_value("splitting_infidelity", True, 0.0, 0.1, 10.0) == 0.5

    def test_degenerate_zero_length(self):
        assert metric_value("final_i2", False, 1.0, 0.1, 0.0) == 0.0


# a log-scale lattice of designs from subnormal values to the float maximum
RATES = [5e-324, 1e-310, 1e-160, 1e-100, 1.0, 1e100, 1e154, 1e160, 1.7976931348623157e308]
HALF_LENGTHS = [5e-324, 1e-310, 1e-300, 1e-100, 1.0, 1e100, 1e300]


class TestClosedFormGuard:
    """A closed-form cell fails where the integrator's generator would: the
    generator is evaluated at -L, 0-, 0+ and +L first."""

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

    def test_parallel_determinism(self):
        # the raw spec runs the integrator in the pool, the STA one the closed form
        for spec in (small_spec(), small_spec(sta=False)):
            serial = run_sweep(spec, workers=1)
            parallel = run_sweep(spec, workers=4)
            assert np.array_equal(serial.grid, parallel.grid)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_sweep(small_spec(), workers=workers)

    def test_provenance(self):
        # the spec holds every other fact about the sweep
        for kw, backend in [
            ({}, "adiabatic-closed-form"),
            ({"metric": "splitting_infidelity"}, "adiabatic-closed-form"),
            ({"sta": False}, "adaptive-dop853"),
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


class TestRobustRegion:
    def test_fraction_bounds_and_value(self):
        res = run_sweep(small_spec())
        frac = robust_region_fraction(res, 0.9)
        assert 0.0 <= frac <= 1.0
        assert frac == np.mean(res.grid >= 0.9)

    def test_trivial_targets(self):
        res = run_sweep(small_spec())
        assert robust_region_fraction(res, -1.0) == 1.0
        assert robust_region_fraction(res, 2.0) == 0.0
