"""Parameter-sweep engine: efficiency grids and threshold lengths."""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .coupler import build_h2
from .propagation import _check_coefficients, _check_tol, propagate_adaptive
from .schedules import ModelParams, adiabatic_transport, check_finite, sta_schedule
from .splitter import MODES, SplitterParams, reduced_rates, simulate_splitter

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
            check_finite(f"axis {bound}", getattr(self, bound), 0.0)
        try:
            operator.index(self.count)
        except TypeError:
            raise ValueError(f"axis count must be an integer, got {self.count!r}") from None
        if self.count < 2:
            raise ValueError(f"axis count must be >= 2, got {self.count}")
        if not self.lo < self.hi:
            raise ValueError(f"axis needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def values(self) -> np.ndarray:
        # as in schedules.device_grid: near the float maximum, linspace
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
        _check_metric(self.metric, self.splitter_mode)
        remaining = set(PARAMETERS) - {self.axis_x.name, self.axis_y.name}
        if set(self.fixed) != remaining:
            raise ValueError(f"fixed must provide exactly {sorted(remaining)}")
        for name, value in self.fixed.items():
            check_finite(name, value, 0.0)
        _check_tol(self.tol)


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
    """STA cells of the two-guide coupler and of the reduced_cd splitter
    follow their adiabatic states exactly (see adiabatic_transport)."""
    return sta and (metric == "final_i2" or splitter_mode == "reduced_cd")


def _mirrored_i2(p: ModelParams, tol: float) -> float:
    """I2 over [-L, L] for guide-1 input, from one run over [-L, 0].

    The coupling is even in z and the mismatch odd, so sigma_x H(-z) sigma_x
    = H(z) with H real, and the right half's propagator is the left half's
    mirror, U_R = sigma_x U_L^T sigma_x.  With U_L e1 = (a, b), H traceless
    gives U_L = [[a, -b*], [b, a*]], so the final state is
    (|a|^2 - |b|^2, 2ab) and I2 = 4 |a|^2 |b|^2.  The exact (a, b) has unit
    norm; dividing by the computed norm removes the integrator's norm
    drift, the larger part of its error.  The left half runs at tol / 16,
    the divisor at which a whole-device run meets tol over a seeded design
    set, but never below the integrator's floor of 1e-12.
    """
    left_tol = max(tol / 16, 1e-12)
    state = propagate_adaptive(build_h2(p), (1.0, 0.0), -p.half_length, 0.0, left_tol)
    a, b = state.final_state.tolist()
    pa, pb = abs(a) ** 2, abs(b) ** 2
    return 4.0 * pa * pb / (pa + pb) ** 2


def metric_value(metric: str, sta: bool, omega0: float, delta0: float,
                 total_length: float, tol: float = 1e-8,
                 splitter_mode: str = "reduced_cd") -> float:
    """Metric for one parameter point: final_i2 is I2 for guide-1 input,
    splitting_infidelity is max(|I1 - 1/2|, |I3 - 1/2|) for middle-guide
    input.  Degenerate points (zero coupling or zero length) reduce to
    identity propagation of the input state.

    STA final_i2 and STA reduced_cd splitting_infidelity are evaluated in
    closed form (:func:`adiabatic_transport`), after the integrator's
    coefficients are checked finite at -L and 0-.  Raw final_i2 integrates
    the left half only, at tol / 16, and mirrors it (see _mirrored_i2);
    direct splitting_infidelity integrates the whole array at tol.
    """
    _check_metric(metric, splitter_mode)
    _check_tol(tol)
    check_finite("total_length", total_length, 0.0)  # as given, not as its half
    half = total_length / 2.0
    if half == 0.0 < total_length:  # the smallest subnormal length
        raise ValueError(f"total_length must be > 0 when halved, got {total_length}")
    check_finite("omega0", omega0, 0.0)  # as ModelParams checks them
    check_finite("delta0", delta0, 0.0)
    if omega0 == 0.0 or half == 0.0:
        # input stays put: I2 = 0 for guide-1 input, I1 = I3 = 0 for the splitter
        return 0.0 if metric == "final_i2" else 0.5
    if not _closed_form_applies(metric, sta, splitter_mode):
        p = ModelParams(omega0=omega0, delta0=delta0, half_length=half, sta=sta)
        if metric == "final_i2":
            return _mirrored_i2(p, tol)
        traj = simulate_splitter(SplitterParams(p, splitter_mode), tol=tol)
        i1, _, i3 = (float(x) for x in traj.final_intensities)
        return max(abs(i1 - 0.5), abs(i3 - 0.5))
    if metric == "splitting_infidelity":  # SplitterParams.design, as floats
        omega0, delta0 = reduced_rates(omega0, delta0)
    # fail as the integrator would; +L and 0+ mirror -L and 0-, D negated
    for z, side in ((-half, 0), (0.0, -1)):
        _check_coefficients(sta_schedule(omega0, delta0, half, z, side)[3:], z)
    transfer = adiabatic_transport(omega0, delta0, half)[1]
    return transfer if metric == "final_i2" else abs(0.5 * transfer - 0.5)


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the metric over the rectangular grid, one cell after another
    and row-major over the y axis.  The result's backend names how the cells
    were evaluated (see :func:`metric_value`).

    workers is deprecated and ignored: the cells are GIL-bound Python, so a
    thread pool never sped them up, and they always run serially.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1:
        warnings.warn("run_sweep evaluates its cells serially; workers is "
                      "deprecated and ignored", DeprecationWarning, stacklevel=2)
    xs, ys = spec.axis_x.values, spec.axis_y.values
    (fixed_name, fixed_value), = spec.fixed.items()
    # (omega0, delta0, total_length) from a cell's (x, y, fixed) values
    cell = operator.itemgetter(*map((spec.axis_x.name, spec.axis_y.name, fixed_name).index,
                                    PARAMETERS))
    rows = [[metric_value(spec.metric, spec.sta, *cell((x, y, fixed_value)), spec.tol,
                          spec.splitter_mode) for x in xs.tolist()] for y in ys.tolist()]
    if _closed_form_applies(spec.metric, spec.sta, spec.splitter_mode):
        backend = "adiabatic-closed-form"
    elif spec.metric == "final_i2":
        backend = "adaptive-dop853-mirror"
    else:
        backend = "adaptive-dop853"
    return SweepResult(grid=np.array(rows), x_values=xs, y_values=ys, backend=backend)


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
    length is scored by :func:`metric_value`, so STA scans integrate nothing
    and raw scans integrate half the device.
    """
    check_finite("target", target)
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must lie in (0, 1), got {target}")
    _check_tol(tol)
    lo_range, hi_range = length_range
    for end, value in (("lo", lo_range), ("hi", hi_range)):
        check_finite(f"search range {end}", value, 0.0)
    if not lo_range < hi_range:
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
