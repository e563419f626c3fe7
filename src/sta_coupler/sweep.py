"""Parameter-sweep engine: efficiency grids and threshold lengths."""

from __future__ import annotations

import operator
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from .schedules import (MODES, ModelParams, check_finite, check_int, check_sta, check_tol,
                        in_box, reduced_rates, sta_transport, uniform_grid)

if TYPE_CHECKING:  # numpy loads where an array is returned or a cell integrates
    import numpy as np

__all__ = [
    "AxisSpec",
    "SweepSpec",
    "SweepResult",
    "ThresholdResult",
    "TargetNotReached",
    "metric_value",
    "run_sweep",
    "threshold_length",
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
            value = check_finite(f"axis {bound}", getattr(self, bound), 0.0)
            object.__setattr__(self, bound, value)
        object.__setattr__(self, "count", check_int("axis count", self.count, 2))
        if not self.lo < self.hi:
            raise ValueError(f"axis needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def values(self) -> np.ndarray:
        import numpy as np
        return np.array(uniform_grid(self.lo, self.hi, self.count))


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
        _check_metric(self.metric, self.splitter_mode)
        remaining = set(PARAMETERS) - {self.axis_x.name, self.axis_y.name}
        if not isinstance(self.fixed, Mapping):
            raise ValueError(f"fixed must be a mapping, got {self.fixed!r}")
        if set(self.fixed) != remaining:
            raise ValueError(f"fixed must provide exactly {sorted(remaining)}")
        object.__setattr__(self, "fixed", {name: check_finite(name, value, 0.0)
                                           for name, value in self.fixed.items()})
        object.__setattr__(self, "sta", check_sta(self.sta))
        check_tol(self.tol)


@dataclass(frozen=True)
class SweepResult:
    grid: np.ndarray  # shape (ny, nx), row-major over the y axis
    x_values: np.ndarray
    y_values: np.ndarray
    backend: str


def _check_metric(metric: str, splitter_mode: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    # checked for every metric, so a typo fails before any cell runs
    if splitter_mode not in MODES:
        raise ValueError(f"splitter_mode must be one of {MODES}, got {splitter_mode!r}")


def _closed_form_applies(metric: str, sta: bool, splitter_mode: str) -> bool:
    """STA final_i2 and reduced_cd cells follow their adiabatic states exactly."""
    return sta and (metric == "final_i2" or splitter_mode == "reduced_cd")


def _mirrored_i2(h, half_length: float, tol: float) -> float:
    """I2 of h over [-L, L] for guide-1 input: with (a, b) the left half's final
    state, the mirror ends at (|a|^2 - |b|^2, 2ab) (see propagation.mirrored_run),
    so I2 = 4 |a|^2 |b|^2, here with the norm divided out, as mirrored_run does."""
    from .propagation import left_half
    a, b = left_half(h, half_length, tol).final_state.tolist()
    pa, pb = abs(a) ** 2, abs(b) ** 2
    return 4.0 * pa * pb / (pa + pb) ** 2


def _half_length(total_length: float) -> float:
    half = total_length / 2.0
    if half == 0.0 < total_length:  # the smallest subnormal length
        raise ValueError(f"total_length must be > 0 when halved, got {total_length}")
    return half


def _cell(metric: str, sta: bool, tol: float, splitter_mode: str,
          omega0: float, delta0: float, half: float) -> float:
    """metric_value on inputs its callers have checked, with half = L; outside
    schedules.in_box a closed-form cell first runs its generator's own check."""
    if omega0 == 0.0 or half == 0.0:
        # input stays put: I2 = 0 for guide-1 input, I1 = I3 = 0 for the splitter
        return 0.0 if metric == "final_i2" else 0.5
    if _closed_form_applies(metric, sta, splitter_mode):
        if metric == "splitting_infidelity":  # SplitterParams.design, as floats
            omega0, delta0 = reduced_rates(omega0, delta0)
        if not in_box(omega0, delta0, half):  # in the box no coefficient can fail
            from .coupler import build_h2
            # +L and 0+ mirror -L and 0-, D negated
            h = build_h2(ModelParams(omega0, delta0, half, sta=True))
            h.matrix(-half)
            h.matrix(0.0, -1)
        transfer = sta_transport(omega0, delta0, half)[1]
    else:
        from .coupler import build_h2
        from .splitter import SplitterParams, build_pair
        p = ModelParams(omega0=omega0, delta0=delta0, half_length=half, sta=sta)
        h = build_h2(p) if metric == "final_i2" else build_pair(SplitterParams(p, splitter_mode))
        transfer = _mirrored_i2(h, half, tol)
    return transfer if metric == "final_i2" else abs(0.5 * transfer - 0.5)


def metric_value(metric: str, sta: bool, omega0: float, delta0: float,
                 total_length: float, tol: float = 1e-8,
                 splitter_mode: str = "reduced_cd") -> float:
    """Metric for one parameter point: final_i2 is I2 for guide-1 input,
    splitting_infidelity is max(|I1 - 1/2|, |I3 - 1/2|) = |I_bright / 2 - 1/2|
    for middle-guide input.  Degenerate points (zero coupling or zero length)
    reduce to identity propagation of the input state.

    STA final_i2 and STA reduced_cd splitting_infidelity are evaluated in
    closed form (schedules.adiabatic_transport).  Outside a box of ordinary
    designs, where it provably passes (see schedules.in_box), the
    integrator's generator is first built and checked at -L and 0-.  Every
    other cell mirrors a left-half run (see _mirrored_i2) of the two-guide
    generator or of the array's (middle, bright) pair (see
    splitter.build_pair); inside the box that run checks no coefficient.
    The arguments are checked here; :func:`run_sweep` and
    :func:`threshold_length` check theirs once and score cells alike.
    """
    _check_metric(metric, splitter_mode)
    sta = check_sta(sta)
    check_tol(tol)
    total_length = check_finite("total_length", total_length, 0.0)  # as given, not as its half
    half = _half_length(total_length)
    omega0 = check_finite("omega0", omega0, 0.0)  # as ModelParams checks them
    delta0 = check_finite("delta0", delta0, 0.0)
    return _cell(metric, sta, tol, splitter_mode, omega0, delta0, half)


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the metric over the rectangular grid, one cell after another
    and row-major over the y axis.  Its backend, adiabatic-closed-form or
    adaptive-dop853-mirror, names how the cells ran (see :func:`metric_value`).
    SweepSpec and AxisSpec have checked every input, so each total length is
    halved once and the cells skip metric_value's checks; the grid is still
    the metric_value loop's, bit for bit.

    workers is deprecated and ignored: the cells are GIL-bound Python, so a
    thread pool never sped them up, and they always run serially.
    """
    if check_int("workers", workers, 1) > 1:
        warnings.warn("run_sweep evaluates its cells serially; workers is "
                      "deprecated and ignored", DeprecationWarning, stacklevel=2)
    import numpy as np
    xs, ys, rows, backend = sweep_rows(spec)
    return SweepResult(np.array(rows), np.array(xs), np.array(ys), backend)


def sweep_rows(spec: SweepSpec) -> tuple[list[float], list[float], list[list[float]], str]:
    """run_sweep's axis values, grid rows and backend, as lists of floats."""
    xs, ys = (uniform_grid(a.lo, a.hi, a.count) for a in (spec.axis_x, spec.axis_y))
    (fixed_name, fixed_value), = spec.fixed.items()
    names = (spec.axis_x.name, spec.axis_y.name, fixed_name)
    values = dict(zip(names, (xs, ys, [fixed_value])))
    # a length that fails to halve is preceded, in cell order, only by cells
    # of length 0, which raise nothing, so halving every length first fails
    # as the cell loop would
    values["total_length"] = [_half_length(length) for length in values["total_length"]]
    (fixed,) = values[fixed_name]
    # (omega0, delta0, L) from a cell's (x, y, fixed) values
    args = operator.itemgetter(*map(names.index, PARAMETERS))
    cell = partial(_cell, spec.metric, spec.sta, spec.tol, spec.splitter_mode)
    rows = [[cell(*args((x, y, fixed))) for x in values[names[0]]] for y in values[names[1]]]
    closed_form = _closed_form_applies(spec.metric, spec.sta, spec.splitter_mode)
    backend = "adiabatic-closed-form" if closed_form else "adaptive-dop853-mirror"
    return xs, ys, rows, backend


@dataclass(frozen=True)
class ThresholdResult:
    total_length: float
    achieved_metric: float


def threshold_length(omega0: float, delta0: float, sta: bool, target: float,
                     length_range: tuple[float, float] = (0.0, 2.0),
                     tol: float = 1e-8) -> ThresholdResult:
    """Smallest total device length reaching the target transfer efficiency.

    A coarse scan stops at the first crossing (final_i2 need not be
    monotone in length); bisection then refines it to 0.01 mm, or to
    adjacent floats where those lie farther apart.  The inputs are checked
    once, and each length is scored as :func:`metric_value` scores it, so
    STA scans integrate nothing and raw scans integrate half the device.
    """
    check_finite("target", target)
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    check_tol(tol)
    try:
        lo_range, hi_range = length_range
    except (TypeError, ValueError):  # not iterable, or not two items
        raise ValueError(f"length_range must be a (lo, hi) pair, got {length_range!r}") from None
    lo_range = check_finite("search range lo", lo_range, 0.0)
    hi_range = check_finite("search range hi", hi_range, 0.0)
    if not lo_range < hi_range:
        raise ValueError(f"invalid search range {length_range}")
    # checked once, as metric_value checks the first length scored, lo_range
    _half_length(lo_range)
    omega0 = check_finite("omega0", omega0, 0.0)
    delta0 = check_finite("delta0", delta0, 0.0)
    sta = check_sta(sta)

    def metric(length: float) -> float:
        return _cell("final_i2", sta, tol, "reduced_cd", omega0, delta0, _half_length(length))

    lengths = uniform_grid(lo_range, hi_range, _COARSE_POINTS)
    missed = []
    for length in lengths:
        achieved = metric(length)
        if achieved >= target:
            break
        missed.append(achieved)
    else:
        raise TargetNotReached(target, max(missed))

    hit = len(missed)
    lo = lo_range if hit == 0 else lengths[hit - 1]
    hi = lengths[hit]
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        check_finite("total_length", mid, 0.0)  # two huge lengths overflow their sum
        if not lo < mid < hi:  # no float lies between lo and hi
            break
        v = metric(mid)
        if v >= target:
            hi, achieved = mid, v
        else:
            lo = mid
    return ThresholdResult(total_length=hi, achieved_metric=achieved)
