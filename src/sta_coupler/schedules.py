"""Closed-form coupling schedules for the sign-flip phase-mismatch coupler.

The coupling between the two guides is a hyperbolic secant,
``omega(z) = omega0 * sech(2*pi*z / L)``, and the mismatch is piecewise
constant, ``+delta0`` for z < 0 and ``-delta0`` for z > 0, over a device
spanning z in [-L, +L] (total length 2L).  The counterdiabatic correction
adds a term ``omega_a = theta_dot / 2``, with ``theta = atan2(omega, delta)``
the mixing angle, which, after a diagonal phase rotation by
``phi = atan(r)`` with ``r = omega_a / omega``, yields the physical
effective schedules

    omega_eff = sqrt(omega**2 + omega_a**2)
    delta_eff = delta - phi_dot / 2 = delta - r_dot / (2 * (1 + r**2))

All positions are in mm, all rates in 1/mm.  Point evaluation exactly at
the sign-flip point z = 0 must be side-tagged (side = -1 or +1); untagged
evaluation there raises ValueError.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ModelParams",
    "SchedulePoint",
    "Diagnostics",
    "adiabatic_transport",
    "effective_schedule",
    "schedule_grid",
    "drive",
    "diagnostics",
]

_TWO_PI = 2.0 * math.pi  # the rate k times L, and the edge argument of sech
_SINH_TWO_PI = math.sinh(_TWO_PI)
_COSH_TWO_PI = math.cosh(_TWO_PI)
MODES = ("direct", "reduced_cd")  # the STA splitter constructions (see splitter)


class StiffnessError(RuntimeError):
    """Adaptive step size underflowed; the problem is effectively stiff."""


def _is_bool(value) -> bool:
    """Whether value is a bool or an np.bool_ (ints to math, never a number here),
    looking numpy up, not importing it: no np.bool_ exists before numpy does."""
    return isinstance(value, (bool, getattr(sys.modules.get("numpy"), "bool_", bool)))


def check_finite(name: str, value, minimum: float = -math.inf) -> float:
    """value as a Python float, the arithmetic in_box's proof holds for; ValueError
    naming the field unless value is a finite real non-bool of at least minimum."""
    try:
        finite = not _is_bool(value) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a real number, or an int beyond float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    number = float(value)
    if number < minimum:
        raise ValueError(f"{name} must be >= {minimum:g}, got {value}")
    return number


def check_sta(sta) -> bool:
    """sta as a Python bool; ValueError naming it unless it is a bool or np.bool_."""
    if not _is_bool(sta):
        raise ValueError(f"sta must be a bool, got {sta!r}")
    return bool(sta)


def check_int(name: str, value, minimum: int | None = None) -> int:
    """value as the Python int its __index__ gives; ValueError naming the
    field unless value is an integer of at least minimum, and not a bool."""
    try:
        number = operator.index(None if _is_bool(value) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return number


def check_tol(tol) -> None:
    """ValueError naming tol unless it lies in [1e-12, 1e-4], the integrators' range."""
    try:
        valid = 1e-12 <= tol <= 1e-4
    except TypeError:  # not a number: a string, None, a list
        valid = False
    if not valid:
        raise ValueError(f"tol must lie in [1e-12, 1e-4], got {tol!r}")


def check_half_length(value) -> float:
    """value as check_finite gives it; ValueError naming L unless it is > 0."""
    half_length = check_finite("half_length", value)
    if not half_length > 0.0:
        raise ValueError(f"half_length must be > 0, got {half_length}")
    return half_length


def uniform_grid(lo: float, hi: float, count: int) -> list[float]:
    """count >= 2 evenly spaced floats from lo to hi, np.linspace's bit for bit: i * step
    + lo, or (i / (count - 1)) * (hi - lo) + lo where the step underflows to 0, and hi
    last.  The list is allocated whole first, so a count too large fails at once."""
    try:
        samples = [hi] * count
    except (MemoryError, OverflowError):  # beyond memory, or beyond an index
        raise MemoryError(f"Unable to allocate a grid of {count} samples") from None
    # where hi - lo overflows, linspace gives nan samples; the grid of the bounds
    # halved, doubled, is the grid it means (halving floats this large is exact)
    scale = 2.0 if math.isinf(hi - lo) else 1.0
    lo, delta, div = lo / scale, hi / scale - lo / scale, count - 1
    step = delta / div
    for i in range(div):
        samples[i] = scale * ((i * step if step else i / div * delta) + lo)
    return samples


@dataclass(frozen=True)
class ModelParams:
    """Physical design point of the coupler, its three numbers stored as
    Python floats (see check_finite) and sta as a bool (see check_sta).

    omega0 : maximum coupling amplitude, 1/mm (>= 0)
    delta0 : phase-mismatch magnitude, 1/mm (>= 0)
    half_length : L, mm; the device spans z in [-L, +L]
    sta : select the counterdiabatic effective schedules instead of the
        raw sign-flip schedules
    """

    omega0: float
    delta0: float
    half_length: float
    sta: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega0", check_finite("omega0", self.omega0, 0.0))
        object.__setattr__(self, "delta0", check_finite("delta0", self.delta0, 0.0))
        object.__setattr__(self, "half_length", check_half_length(self.half_length))
        object.__setattr__(self, "sta", check_sta(self.sta))

    @property
    def total_length(self) -> float:
        return 2.0 * self.half_length


class SchedulePoint(NamedTuple):
    """Schedule values and derived STA quantities at one position."""

    z: float
    omega: float
    delta: float
    omega_a: float
    phi: float
    theta: float
    omega_eff: float
    delta_eff: float


@dataclass(frozen=True)
class Diagnostics:
    """Grid maxima of the adiabaticity and counterdiabatic ratios."""

    max_adiabaticity_ratio: float
    max_cd_ratio: float
    bound_satisfied: bool


def _resolve_side(z: float, side: int) -> int:
    """Return -1 for the left half, +1 for the right half.

    side is only consulted exactly at z = 0 and must then be -1 or +1.
    """
    if z < 0.0:
        return -1
    if z > 0.0:
        return +1
    if side in (-1, +1):
        return side
    raise ValueError(
        "evaluation at z = 0 requires side=-1 or side=+1 (mismatch sign flip)"
    )


def _raw(omega0: float, delta_left: float, half_length: float,
         z: float, side: int) -> tuple[float, float, float, float]:
    """Raw coupling and mismatch (omega, delta) at z, with the rate
    k = 2 pi / L and sech(k z) that the counterdiabatic terms reuse.

    The mismatch is ``delta_left`` for z < 0 and ``-delta_left`` for z > 0.
    """
    sgn = _resolve_side(z, side)
    k = _TWO_PI / half_length
    sech = 1.0 / math.cosh(k * z)
    return omega0 * sech, delta_left if sgn < 0 else -delta_left, k, sech


def sta_schedule(omega0: float, delta_left: float, half_length: float,
                 z: float, side: int) -> tuple[float, float, float, float, float]:
    """Raw and STA schedules (omega, delta, r, omega_eff, delta_eff) at z for
    a signed-mismatch model (see :func:`_raw`), with r = omega_a / omega =
    -(k/2) tanh(k z) delta / D and D = omega^2 + delta^2 its only divisor;
    z is not checked against the device."""
    omega, delta, k, sech = _raw(omega0, delta_left, half_length, z, side)
    if omega0 == 0.0 or delta_left == 0.0:
        # theta is constant on each half: the counterdiabatic correction
        # vanishes identically and the STA schedules reduce to the raw ones.
        return omega, delta, 0.0, omega, delta
    tanh = math.tanh(k * z)
    denom = omega * omega + delta * delta
    try:
        rate = -0.5 * k * (delta / denom)  # r / tanh(k z)
        r_dot = k * rate * (sech * sech + 2.0 * (omega * omega / denom) * tanh * tanh)
    except ZeroDivisionError:
        # a subnormal omega0 and delta0 underflow the sum to 0
        raise FloatingPointError(f"omega^2 + delta^2 underflows at z={z}") from None
    r = rate * tanh
    return omega, delta, r, math.hypot(omega, r * omega), delta - r_dot / (2.0 * (1.0 + r * r))


def _cos_sin(y: float, x: float) -> tuple[float, float]:
    """cos and sin of atan2(y, x), as Python floats: x and y over their
    hypot, or where that is zero, subnormal or overflows, of atan2 itself."""
    h = math.hypot(x, y)
    if not 1e-300 < h < 1e300:
        angle = math.atan2(y, x)
        return math.cos(angle), math.sin(angle)
    return float(x) / h, float(y) / h  # numpy's narrower floats would stay narrow


def adiabatic_transport(omega0: float, delta_left: float,
                        half_length: float) -> tuple[float, float]:
    """Final guide intensities (I1, I2) of the STA two-guide model for
    guide-1 input, in closed form.

    The counterdiabatic term makes each half follow the instantaneous
    eigenstates of [[delta, omega], [omega, -delta]] exactly (Berry 2009),
    and the phase rotation to the effective schedules vanishes at z = 0 and
    only rephases the guides at z = +-L.  So the run is: project the input
    onto the eigenbasis at -L, apply the dynamic phase -+Phi of the left
    half, rotate by the eigenbasis jump at the sign flip (theta_m to
    pi - theta_m), apply -+Phi again and return to the guides at +L.  With
    theta_e = atan2(omega0 sech 2 pi, delta) the edge angle, that product is

        I1 = (sin theta_e sin theta_m cos 2 Phi + cos theta_e cos theta_m)**2
        I2 = (cos theta_e sin theta_m cos 2 Phi - sin theta_e cos theta_m)**2
             + (sin theta_m sin 2 Phi)**2

    in real arithmetic, a sum of squares each, so neither is negative.
    Phi = integral_0^L sqrt(omega**2 + delta**2) dz is elementary; with
    s = sinh(2 pi), c = hypot(omega0, delta), alpha = omega0 / c and
    beta = |delta| / c it is

        (L / 2 pi) * (|delta| asinh(beta s) + omega0 atan2(alpha s, hypot(1, beta s)))

    As in :func:`sta_schedule`, delta_left is the signed left-half mismatch.
    Phi's rounding error is about Phi * 2**-53 = Phi * 1.1e-16, so Phi above
    1e-4 / 2**-53 = 9.0e11 raises FloatingPointError: there the error would
    pass 1e-4, the loosest tol the package accepts.  The arguments are
    checked as ModelParams checks a design, with delta_left signed.
    """
    return sta_transport(check_finite("omega0", omega0, 0.0),
                         check_finite("delta_left", delta_left), check_half_length(half_length))


def sta_transport(omega0: float, delta_left: float, half_length: float) -> tuple[float, float]:
    """adiabatic_transport on floats its caller has checked."""
    a, b = omega0, abs(delta_left)
    c = math.hypot(a, b)
    s = _SINH_TWO_PI
    alpha, beta = (a / c, b / c) if c else (0.0, 0.0)
    # both angles over 2 pi are at most 1, so no product overflows unless Phi does
    x = math.asinh(beta * s) / _TWO_PI
    y = math.atan2(alpha * s, math.hypot(1.0, beta * s)) / _TWO_PI
    phase = b * (half_length * x) + a * (half_length * y)
    if not phase <= 1e-4 / 2.0 ** -53:
        raise FloatingPointError(f"dynamic phase overflows its bound 9.0e11: Phi={phase}")
    cos_e, sin_e = _cos_sin(omega0 / _COSH_TWO_PI, delta_left)
    cos_m, sin_m = _cos_sin(omega0, delta_left)
    cos_2phi, sin_2phi = math.cos(2.0 * phase), math.sin(2.0 * phase)
    i1 = (sin_e * sin_m * cos_2phi + cos_e * cos_m) ** 2
    i2 = (cos_e * sin_m * cos_2phi - sin_e * cos_m) ** 2 + (sin_m * sin_2phi) ** 2
    return i1, i2


def _check_position(p: ModelParams, z: float) -> None:
    # written so that a NaN position fails too
    if not abs(z) <= p.half_length * (1.0 + 1e-12):
        raise ValueError(f"position z={z} outside the device [-L, L], L={p.half_length}")


def effective_schedule(p: ModelParams, z: float, side: int = 0) -> SchedulePoint:
    """Full schedule point at position z: the raw schedules (omega, delta),
    the counterdiabatic coupling omega_a = theta_dot / 2 (even in z,
    non-negative, vanishing as z -> 0) and the STA effective quantities."""
    _check_position(p, z)
    omega, delta, r, omega_eff, delta_eff = sta_schedule(
        p.omega0, p.delta0, p.half_length, z, side)
    # where r is 0, omega_a is r: a zero rate's +0.0 even where omega is -0.0
    # or nan, and elsewhere the zero r * omega gives, as omega >= 0
    return SchedulePoint(z, omega, delta, r * omega if r else r, math.atan(r),
                         math.atan2(omega, delta), omega_eff, delta_eff)


def drive(p: ModelParams, z: float, side: int = 0) -> tuple[float, float]:
    """Coupling and mismatch of the two-guide generator at position z:
    (omega_eff, delta_eff) when p.sta, else the raw (omega, delta), which
    need none of the counterdiabatic terms."""
    _check_position(p, z)
    if p.sta:
        return sta_schedule(p.omega0, p.delta0, p.half_length, z, side)[3:]
    return _raw(p.omega0, p.delta0, p.half_length, z, side)[:2]


# The box of ordinary designs: floats with omega0, L in [1e-50, 1e50] and
# delta0 in {0} U [1e-50, 1e50].  There the raw rates omega0 sech(k z) <=
# omega0 and +-delta0 are finite, and so are the STA ones (sta_schedule's last
# two fields) at every z in [-L, L]: with delta0 = 0 they are the raw ones.
# Otherwise k = 2 pi / L <= 6.3e50, and at every z, sech(k z) <= 1 and
# |tanh(k z)| <= 1: omega <= 1e50 and |delta| = delta0, so D = omega^2 +
# delta^2 is in [1e-100, 2e100], a normal float.  |delta / D| <= 1 / delta0 <=
# 1e50 gives |r| <= |rate| <= (k / 2) 1e50 <= 3.2e100 and |r_dot| <= k |rate|
# (sech^2 + 2 tanh^2) <= 6.1e151, so omega_eff = omega sqrt(1 + r^2) < 1e151
# and |delta_eff| <= delta0 + |r_dot| / 2 < 1e152: both are finite, and so is
# their sum, and propagation's coefficient check cannot fail.  The proof
# holds for float64 arithmetic, in which check_finite stores every design.
_BOX_LO, _BOX_HI = 1e-50, 1e50


def in_box(omega0: float, delta0: float, half_length: float) -> bool:
    """Whether the rates and L lie in the box where every coefficient the
    integrator can see is finite (see _BOX_LO)."""
    return (_BOX_LO <= omega0 <= _BOX_HI and _BOX_LO <= half_length <= _BOX_HI
            and (delta0 == 0.0 or _BOX_LO <= delta0 <= _BOX_HI))


def reduced_rates(omega0: float, delta0: float) -> tuple[float, float]:
    """(sqrt(2)*omega0, delta0/2), the STA reduced_cd array's (middle, bright) design."""
    coupling = math.sqrt(2.0) * omega0
    if math.isinf(coupling):  # a numerical failure, not a bad design
        raise FloatingPointError(f"sqrt(2)*omega0 overflows: omega0={omega0}")
    return coupling, 0.5 * delta0


def segment_rates(p: ModelParams, a: float, b: float):
    """A raw design's drive(p) with no check, for propagation._rhs to fuse,
    on a segment [a, b] of the device on one side of the sign flip, where
    its side is fixed and its checks cannot fail: (omega0, k, delta), _raw's
    coupling omega0 * (1.0 / cosh(k * z)) and constant mismatch.  None for
    an STA design, whose sweep and threshold cells mostly run in closed
    form, another segment, or a design outside the box (see in_box)."""
    omega0, delta0, L = p.omega0, p.delta0, p.half_length
    if p.sta or not (in_box(omega0, delta0, L) and -L <= a < b <= L) or a < 0.0 < b:
        return None
    return omega0, _TWO_PI / L, delta0 if b <= 0.0 else -delta0


def schedule_rows(p: ModelParams, zs: list[float]) -> list[SchedulePoint]:
    """effective_schedule at each of zs, z = 0 taking the left limit; ValueError names a
    position outside the device, then FloatingPointError the first non-finite point's."""
    points = [effective_schedule(p, z, -1) for z in zs]
    for point in points:
        if not all(map(math.isfinite, point)):
            raise FloatingPointError(f"non-finite schedule at z={point.z}")
    return points


def schedule_grid(p: ModelParams, zs: np.ndarray) -> SchedulePoint:
    """schedule_rows at positions zs, each field an array over zs."""
    import numpy as np
    points = schedule_rows(p, np.asarray(zs, dtype=float).tolist())
    return SchedulePoint(*np.array(points).reshape(-1, len(SchedulePoint._fields)).T)


def device_positions(p: ModelParams, samples: int) -> list[float]:
    """samples evenly spaced positions over the device [-L, L] (see uniform_grid)."""
    return uniform_grid(-p.half_length, p.half_length, check_int("samples", samples, 2))


def device_grid(p: ModelParams, samples: int) -> np.ndarray:
    """device_positions as an array."""
    import numpy as np
    return np.array(device_positions(p, samples))


def diagnostics(p: ModelParams, samples: int) -> Diagnostics:
    """Grid maxima of |theta_dot/2| / sqrt(omega^2 + delta^2) and
    |omega_a| / |omega| over [-L, L] (see :func:`schedule_rows`).

    omega_a vanishes at z = 0 on both sides, so the side taken there
    cannot change either maximum.
    """
    rows = schedule_rows(p, device_positions(p, samples))
    max_ad = max((abs(q.omega_a) / math.hypot(q.omega, q.delta)
                  for q in rows if q.omega or q.delta), default=0.0)  # where the gap is > 0
    max_cd = max((abs(q.omega_a) / q.omega for q in rows if q.omega > 0.0), default=0.0)
    return Diagnostics(
        max_adiabaticity_ratio=max_ad,
        max_cd_ratio=max_cd,
        bound_satisfied=max_cd <= 1.0 + 1e-12,
    )
