"""Parameter-sweep engine: efficiency grids, threshold lengths, robustness."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .coupler import simulate
from .propagation import _check_coefficients, _check_tol
from .schedules import ModelParams, adiabatic_transport, drive
from .splitter import SplitterParams, _reduced_design, simulate_splitter, splitter_schedule

__all__ = [
    "AxisSpec",
    "SweepSpec",
    "SweepResult",
    "ThresholdResult",
    "TargetNotReached",
    "metric_value",
    "run_sweep",
    "threshold_length",
    "robust_region_fraction",
]

PARAMETERS = ("omega0", "delta0", "total_length")
METRICS = ("final_i2", "splitting_infidelity")
_COARSE_POINTS = 100  # threshold_length's scan grid over the search range


class TargetNotReached(RuntimeError):
    """The target efficiency was not reached anywhere in the search range."""

    def __init__(self, target: float, best_metric: float):
        super().__init__(
            f"target {target} not reached; best metric found was {best_metric}"
        )
        self.target = target
        self.best_metric = best_metric


@dataclass(frozen=True)
class AxisSpec:
    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in PARAMETERS:
            raise ValueError(f"axis name must be one of {PARAMETERS}, got {self.name!r}")
        for bound in ("lo", "hi"):
            if not math.isfinite(getattr(self, bound)):
                raise ValueError(f"axis {bound} must be finite, got {getattr(self, bound)}")
        if self.count < 2:
            raise ValueError(f"axis count must be >= 2, got {self.count}")
        if not self.lo < self.hi:
            raise ValueError(f"axis needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.lo < 0:
            raise ValueError(f"axis lo must be >= 0, got {self.lo}")

    @property
    def values(self) -> np.ndarray:
        # as in schedules.diagnostics: near the float maximum, linspace
        # overflows only in its last sample, which it then sets to hi
        with np.errstate(over="ignore"):
            return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepSpec:
    axis_x: AxisSpec
    axis_y: AxisSpec
    fixed: dict
    metric: str = "final_i2"
    sta: bool = True
    tol: float = 1e-8
    splitter_mode: str = "reduced_cd"

    def __post_init__(self) -> None:
        if self.axis_x.name == self.axis_y.name:
            raise ValueError("the two sweep axes must differ")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        remaining = set(PARAMETERS) - {self.axis_x.name, self.axis_y.name}
        if set(self.fixed) != remaining:
            raise ValueError(f"fixed must provide exactly {sorted(remaining)}")
        _check_tol(self.tol)


@dataclass(frozen=True)
class SweepResult:
    grid: np.ndarray  # shape (ny, nx), row-major over the y axis
    x_values: np.ndarray
    y_values: np.ndarray
    backend: str


def _closed_form_applies(metric: str, sta: bool, splitter_mode: str) -> bool:
    """STA cells of the two-guide coupler and of the reduced_cd splitter
    follow their adiabatic states exactly (see adiabatic_transport)."""
    return sta and (metric == "final_i2" or splitter_mode == "reduced_cd")


def metric_value(metric: str, sta: bool, omega0: float, delta0: float,
                 total_length: float, tol: float = 1e-8,
                 splitter_mode: str = "reduced_cd") -> float:
    """Metric for one parameter point; degenerate points (zero coupling or
    zero length) reduce to identity propagation of the input state.

    STA final_i2 and STA reduced_cd splitting_infidelity are evaluated in
    closed form (:func:`adiabatic_transport`), after the integrator's
    coefficients are checked finite at -L, 0-, 0+ and +L; every other
    point is integrated adaptively with tolerance tol.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if omega0 == 0.0 or total_length == 0.0:
        # input stays put: I2 = 0 for guide-1 input, I1 = I3 = 0 for the splitter
        return 0.0 if metric == "final_i2" else 0.5
    p = ModelParams(omega0=omega0, delta0=delta0,
                    half_length=total_length / 2.0, sta=sta)
    if not _closed_form_applies(metric, sta, splitter_mode):
        if metric == "final_i2":
            return simulate(p, input_guide=1, tol=tol).final_i2
        return simulate_splitter(SplitterParams(p, splitter_mode),
                                 tol=tol).splitting_infidelity
    if metric == "final_i2":
        coefficients, design = partial(drive, p), (omega0, delta0)
    else:
        coefficients, design = partial(splitter_schedule, SplitterParams(p)), _reduced_design(p)
    L = p.half_length
    for z, side in ((-L, 0), (0.0, -1), (0.0, +1), (L, 0)):
        _check_coefficients(coefficients(z, side), z)  # fails as the integrator would
    transfer = adiabatic_transport(*design, L)[1]
    return transfer if metric == "final_i2" else abs(0.5 * transfer - 0.5)


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the metric over the rectangular grid.

    Cells are independent; with workers > 1 they are farmed out to a
    thread pool but each result lands in its own grid slot, so the output
    is bit-identical regardless of parallelism or execution order.  The
    result's backend names how the cells were evaluated (see
    :func:`metric_value`).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    xs = spec.axis_x.values
    ys = spec.axis_y.values
    grid = np.empty((len(ys), len(xs)))

    def cell(idx: tuple[int, int]) -> None:
        i, j = idx
        params = dict(spec.fixed)
        params[spec.axis_x.name] = float(xs[j])
        params[spec.axis_y.name] = float(ys[i])
        grid[i, j] = metric_value(spec.metric, spec.sta, tol=spec.tol,
                                  splitter_mode=spec.splitter_mode, **params)

    indices = [(i, j) for i in range(len(ys)) for j in range(len(xs))]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(cell, indices))
    else:
        for idx in indices:
            cell(idx)

    closed = _closed_form_applies(spec.metric, spec.sta, spec.splitter_mode)
    return SweepResult(grid=grid, x_values=xs, y_values=ys,
                       backend="adiabatic-closed-form" if closed else "adaptive-dop853")


@dataclass(frozen=True)
class ThresholdResult:
    total_length: float
    achieved_metric: float


def threshold_length(omega0: float, delta0: float, sta: bool, target: float,
                     length_range: tuple[float, float] = (0.0, 2.0),
                     tol: float = 1e-8) -> ThresholdResult:
    """Smallest total device length reaching the target transfer efficiency.

    A coarse scan stops at the first crossing (final_i2 need not be
    monotone in length); bisection then refines it to 0.01 mm.  Each
    length is scored by :func:`metric_value`, so STA scans integrate nothing.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    _check_tol(tol)
    lo_range, hi_range = length_range
    if not 0.0 <= lo_range < hi_range < math.inf:
        raise ValueError(f"invalid search range {length_range}")

    def metric(length: float) -> float:
        return metric_value("final_i2", sta, omega0, delta0, length, tol=tol)

    lengths = np.linspace(lo_range, hi_range, _COARSE_POINTS)
    missed = []
    for length in lengths:
        achieved = metric(float(length))
        if achieved >= target:
            break
        missed.append(achieved)
    else:
        raise TargetNotReached(target, max(missed))

    hit = len(missed)
    lo = lo_range if hit == 0 else float(lengths[hit - 1])
    hi = float(lengths[hit])
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        v = metric(mid)
        if v >= target:
            hi, achieved = mid, v
        else:
            lo = mid
    return ThresholdResult(total_length=hi, achieved_metric=achieved)


def robust_region_fraction(result: SweepResult, target: float) -> float:
    """Fraction of grid cells whose metric meets the target."""
    return float(np.mean(result.grid >= target))
