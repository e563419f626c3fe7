"""Three-waveguide equal-superposition beam splitter.

The middle guide couples symmetrically to the two outer guides; the
antisymmetric (dark) combination of the outer guides decouples, reducing
the array to a two-level system of the bright combination and the middle
guide with coupling sqrt(2)*omega.

Two STA construction modes are supported:

* ``direct`` -- substitute the two-guide effective schedules straight
  into the three-guide generator.
* ``reduced_cd`` -- apply the counterdiabatic construction to the exact
  reduced two-level system (which carries the sqrt(2) coupling factor and
  a trace offset) and map the result back to the array couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .propagation import HamiltonianSpec, Trajectory, propagate_adaptive
from .schedules import ModelParams, _check_position, _closed_form, drive

__all__ = [
    "SplitterParams",
    "SplitterResult",
    "build_h3",
    "reduce_bright_dark",
    "simulate_splitter",
]

_SQRT2 = math.sqrt(2.0)
MODES = ("direct", "reduced_cd")

# Constant terms of the generators; W and D from splitter_schedule weight them.
_OUTER_COUPLINGS = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
_MIDDLE_MISMATCH = np.diag([0.0, 1.0, 0.0])
_REDUCED_COUPLING = np.array([[0.0, _SQRT2], [_SQRT2, 0.0]])
_REDUCED_MISMATCH = np.diag([0.0, 1.0])


@dataclass(frozen=True)
class SplitterParams:
    base: ModelParams
    mode: str = "reduced_cd"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class SplitterResult:
    trajectory: Trajectory
    final_intensities: tuple[float, float, float]
    splitting_infidelity: float
    reduction_residual: float


def splitter_schedule(sp: SplitterParams, z: float, side: int = 0) -> tuple[float, float]:
    """Coupling and middle-guide mismatch (W, D) of the array generator."""
    p = sp.base
    if not p.sta or sp.mode == "direct":
        return drive(p, z, side)
    # reduced_cd: run the CD construction on the middle/bright system and map back
    _check_position(p, z)
    cf = _closed_form(*_reduced_design(p), p.half_length, z, side)
    return cf.omega_eff / _SQRT2, 2.0 * cf.delta_eff


def _reduced_design(p: ModelParams) -> tuple[float, float]:
    """Coupling and left-half mismatch of the traceless form of the
    (middle, bright) two-level system: sqrt(2)*omega0 and delta0/2.  With
    middle-guide input as its guide 1, its guide-2 output is the bright
    intensity, which splits equally, I1 = I3 = I_bright / 2."""
    return _SQRT2 * p.omega0, 0.5 * p.delta0


def build_h3(sp: SplitterParams) -> HamiltonianSpec:
    """3x3 generator [[0, W, 0], [W, D, W], [0, W, 0]]."""
    return HamiltonianSpec((_OUTER_COUPLINGS, _MIDDLE_MISMATCH),
                           partial(splitter_schedule, sp), discontinuities=(0.0,))


def build_reduced_h2(sp: SplitterParams) -> HamiltonianSpec:
    """Two-level generator [[0, sqrt(2) W], [sqrt(2) W, D]] of the
    (bright, middle) subsystem."""
    return HamiltonianSpec((_REDUCED_COUPLING, _REDUCED_MISMATCH),
                           partial(splitter_schedule, sp), discontinuities=(0.0,))


def reduce_bright_dark(c: np.ndarray) -> tuple[complex, complex, complex]:
    """Map (c1, c2, c3) to the bright / middle / dark amplitudes."""
    c = np.asarray(c)
    if c.shape != (3,):
        raise ValueError("expected a length-3 amplitude vector")
    bright = (c[0] + c[2]) / _SQRT2
    dark = (c[0] - c[2]) / _SQRT2
    return bright, c[1], dark


def simulate_splitter(sp: SplitterParams, tol: float = 1e-10) -> SplitterResult:
    """Propagate middle-guide input and score the 50/50 split.

    Also cross-checks the (bright, middle) dynamics against a direct
    two-level propagation of the reduced generator; the residual is the
    final-amplitude mismatch between the two.
    """
    L = sp.base.half_length
    c0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    traj = propagate_adaptive(build_h3(sp), c0, -L, L, tol)
    i1, i2, i3 = (float(x) for x in traj.final_intensities)

    bright, middle, _ = reduce_bright_dark(traj.final_state)
    ref = propagate_adaptive(build_reduced_h2(sp), np.array([0.0, 1.0], dtype=complex),
                             -L, L, tol)
    residual = float(max(abs(bright - ref.final_state[0]),
                         abs(middle - ref.final_state[1])))

    return SplitterResult(
        trajectory=traj,
        final_intensities=(i1, i2, i3),
        splitting_infidelity=max(abs(i1 - 0.5), abs(i3 - 0.5)),
        reduction_residual=residual,
    )
