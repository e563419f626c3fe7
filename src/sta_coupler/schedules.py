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
evaluation there raises :class:`DiscontinuityError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelParams",
    "SchedulePoint",
    "Diagnostics",
    "GeometryCalibration",
    "DiscontinuityError",
    "CalibrationDomainError",
    "adiabatic_transport",
    "effective_schedule",
    "schedule_grid",
    "drive",
    "diagnostics",
    "geometry_synthesis",
]


class DiscontinuityError(ValueError):
    """Untagged evaluation at the sign-flip point z = 0."""


class CalibrationDomainError(ValueError):
    """Geometry synthesis outside the calibration's domain."""


@dataclass(frozen=True)
class ModelParams:
    """Physical design point of the coupler.

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
        for name in ("omega0", "delta0", "half_length"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.omega0 >= 0.0):
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")
        if not (self.delta0 >= 0.0):
            raise ValueError(f"delta0 must be >= 0, got {self.delta0}")
        if not (self.half_length > 0.0):
            raise ValueError(f"half_length must be > 0, got {self.half_length}")

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


@dataclass(frozen=True)
class GeometryCalibration:
    """User-supplied constants for the schedule-to-geometry mapping.

    coupling_scale (A) : coupling at zero separation, 1/mm
    coupling_decay (gamma) : exponential decay rate of the coupling with
        separation, 1/mm
    mismatch_per_width (k) : mismatch produced per unit width difference,
        1/(mm*um)
    """

    coupling_scale: float
    coupling_decay: float
    mismatch_per_width: float

    def __post_init__(self) -> None:
        for name in ("coupling_scale", "coupling_decay", "mismatch_per_width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.coupling_scale <= 0 or self.coupling_decay <= 0 or self.mismatch_per_width <= 0:
            raise ValueError("all calibration constants must be positive")


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
    raise DiscontinuityError(
        "evaluation at z = 0 requires side=-1 or side=+1 (mismatch sign flip)"
    )


def _closed_form(omega0: float, delta_left: float, half_length: float,
                 z: float, side: int = 0) -> SchedulePoint:
    """Evaluate all schedule quantities for a signed-mismatch model.

    The mismatch is ``delta_left`` for z < 0 and ``-delta_left`` for z > 0.
    """
    sgn = _resolve_side(z, side)
    k = 2.0 * math.pi / half_length
    u = k * z
    sech = 1.0 / math.cosh(u)
    tanh = math.tanh(u)

    omega = omega0 * sech
    delta = delta_left if sgn < 0 else -delta_left
    theta = math.atan2(omega, delta)

    if omega0 == 0.0 or delta_left == 0.0:
        # theta is constant on each half: the counterdiabatic correction
        # vanishes identically and the STA schedules reduce to the raw ones.
        return SchedulePoint(z, omega, delta, 0.0, 0.0, theta, omega, delta)

    # r = omega_a / omega = -(k/2) tanh(u) delta / D and its derivative,
    # with D = omega^2 + delta^2 the only divisor
    denom = omega * omega + delta * delta
    try:
        rate = -0.5 * k * (delta / denom)  # r / tanh(u)
        r_dot = k * rate * (sech * sech + 2.0 * (omega * omega / denom) * tanh * tanh)
    except ZeroDivisionError:
        # a subnormal omega0 and delta0 underflow the sum to 0
        raise FloatingPointError(f"omega^2 + delta^2 underflows at z={z}") from None
    r = rate * tanh
    omega_a = r * omega
    omega_eff = math.hypot(omega, omega_a)
    delta_eff = delta - r_dot / (2.0 * (1.0 + r * r))
    return SchedulePoint(z, omega, delta, omega_a, math.atan(r), theta, omega_eff, delta_eff)


def _rotate(angle: float, a: complex, b: complex) -> tuple[complex, complex]:
    c, s = math.cos(angle), math.sin(angle)
    return c * a - s * b, s * a + c * b


def adiabatic_transport(omega0: float, delta_left: float,
                        half_length: float) -> tuple[float, float]:
    """Final guide intensities (I1, I2) of the STA two-guide model for
    guide-1 input, in closed form.

    The counterdiabatic term makes each half follow the instantaneous
    eigenstates of [[delta, omega], [omega, -delta]] exactly (Berry 2009),
    and the phase rotation to the effective schedules vanishes at z = 0 and
    only rephases the guides at z = +-L.  So the run is: project the input
    onto the eigenbasis at -L, apply the dynamic phase -+Phi of the left
    half, rotate by the eigenbasis jump at the sign flip (theta_mid to
    pi - theta_mid), apply -+Phi again and return to the guides at +L.
    Phi = integral_0^L sqrt(omega**2 + delta**2) dz is elementary; with
    s = sinh(2 pi), c = hypot(omega0, delta), alpha = omega0 / c and
    beta = |delta| / c it is

        (L / 2 pi) * (|delta| asinh(beta s) + omega0 atan2(alpha s, hypot(1, beta s)))

    As in :func:`_closed_form`, delta_left is the signed left-half mismatch.
    Phi's rounding error is about Phi * 2**-53 = Phi * 1.1e-16, so Phi above
    1e-4 / 2**-53 = 9.0e11 raises FloatingPointError: there the error would
    pass 1e-4, the loosest tol the package accepts.
    """
    a, b = omega0, abs(delta_left)
    c = math.hypot(a, b)
    s = math.sinh(2.0 * math.pi)
    alpha, beta = (a / c, b / c) if c else (0.0, 0.0)
    # both angles over 2 pi are at most 1, so no product overflows unless Phi does
    x = math.asinh(beta * s) / (2.0 * math.pi)
    y = math.atan2(alpha * s, math.hypot(1.0, beta * s)) / (2.0 * math.pi)
    phase = b * (half_length * x) + a * (half_length * y)
    if not phase <= 1e-4 / 2.0 ** -53:
        raise FloatingPointError(f"dynamic phase overflows its bound 9.0e11: Phi={phase}")
    theta_edge = math.atan2(omega0 / math.cosh(2.0 * math.pi), delta_left)
    theta_mid = math.atan2(omega0, delta_left)
    rot = complex(math.cos(phase), -math.sin(phase))  # exp(-i Phi) on the +E state

    plus, minus = _rotate(-0.5 * theta_edge, 1.0, 0.0)
    plus, minus = _rotate(theta_mid - 0.5 * math.pi, plus * rot, minus * rot.conjugate())
    c1, c2 = _rotate(0.5 * (math.pi - theta_edge), plus * rot, minus * rot.conjugate())
    return abs(c1) ** 2, abs(c2) ** 2


def _check_position(p: ModelParams, z: float) -> None:
    # written so that a NaN position fails too
    if not abs(z) <= p.half_length * (1.0 + 1e-12):
        raise ValueError(f"position z={z} outside the device [-L, L], L={p.half_length}")


def effective_schedule(p: ModelParams, z: float, side: int = 0) -> SchedulePoint:
    """Full schedule point at position z: the raw schedules (omega, delta),
    the counterdiabatic coupling omega_a = theta_dot / 2 (even in z,
    non-negative, vanishing as z -> 0) and the STA effective quantities."""
    _check_position(p, z)
    return _closed_form(p.omega0, p.delta0, p.half_length, z, side)


def drive(p: ModelParams, z: float, side: int = 0) -> tuple[float, float]:
    """Coupling and mismatch of the two-guide generator at position z:
    (omega_eff, delta_eff) when p.sta, else the raw (omega, delta)."""
    sp = effective_schedule(p, z, side)
    return (sp.omega_eff, sp.delta_eff) if p.sta else (sp.omega, sp.delta)


def schedule_grid(p: ModelParams, zs: np.ndarray) -> SchedulePoint:
    """Schedule points over positions zs, each field an array over zs.

    A sample exactly at the sign flip z = 0 takes the left limit (side = -1).
    The positions are checked against the device once per grid; a non-finite
    field raises FloatingPointError naming the first position where it occurs.
    """
    zs = np.asarray(zs, dtype=float)
    _check_position(p, np.max(np.abs(zs), initial=0.0))
    points = [_closed_form(p.omega0, p.delta0, p.half_length, z, -1) for z in zs.tolist()]
    fields = np.array(points).reshape(-1, len(SchedulePoint._fields)).T
    bad = ~np.isfinite(fields).all(axis=0)
    if bad.any():
        raise FloatingPointError(f"non-finite schedule at z={zs[bad][0]}")
    return SchedulePoint(*fields)


def diagnostics(p: ModelParams, samples: int) -> Diagnostics:
    """Grid maxima of |theta_dot/2| / sqrt(omega^2 + delta^2) and
    |omega_a| / |omega| over [-L, L] (see :func:`schedule_grid`).

    omega_a vanishes at z = 0 on both sides, so the side taken there
    cannot change either maximum.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    # at 2L near the float maximum, linspace overflows computing its last
    # sample and then overwrites it with L, so the grid it returns is right
    with np.errstate(over="ignore"):
        zs = np.linspace(-p.half_length, p.half_length, samples)
    sp = schedule_grid(p, zs)
    omega_a, gap = np.abs(sp.omega_a), np.hypot(sp.omega, sp.delta)
    max_ad = float(np.max(omega_a[gap > 0.0] / gap[gap > 0.0], initial=0.0))
    max_cd = float(np.max(omega_a[sp.omega > 0.0] / sp.omega[sp.omega > 0.0], initial=0.0))
    return Diagnostics(
        max_adiabaticity_ratio=max_ad,
        max_cd_ratio=max_cd,
        bound_satisfied=max_cd <= 1.0 + 1e-12,
    )


def geometry_synthesis(point: SchedulePoint,
                       calib: GeometryCalibration) -> tuple[float, float]:
    """Map a schedule point to waveguide geometry.

    Returns (separation d in mm, width difference dW in um) using the
    exponential coupling-distance law ``omega_eff = A * exp(-gamma * d)``
    and the linear mismatch-width relation ``delta_eff = k * dW``.
    """
    if point.omega_eff == 0.0:
        raise CalibrationDomainError("omega_eff = 0 implies infinite separation")
    if point.omega_eff > calib.coupling_scale:
        raise CalibrationDomainError(
            f"omega_eff={point.omega_eff} exceeds the zero-separation coupling "
            f"A={calib.coupling_scale}"
        )
    separation = math.log(calib.coupling_scale / point.omega_eff) / calib.coupling_decay
    width_difference = point.delta_eff / calib.mismatch_per_width
    return separation, width_difference
