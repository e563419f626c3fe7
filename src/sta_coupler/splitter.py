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

__all__ = ["SplitterParams", "build_h3", "simulate_splitter"]

_SQRT2 = math.sqrt(2.0)
MODES = ("direct", "reduced_cd")

# Constant terms of the generators; W and D from splitter_schedule weight them.
_OUTER_COUPLINGS = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
_MIDDLE_MISMATCH = np.diag([0.0, 1.0, 0.0])


@dataclass(frozen=True)
class SplitterParams:
    base: ModelParams
    mode: str = "reduced_cd"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


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


def simulate_splitter(sp: SplitterParams, tol: float = 1e-10) -> Trajectory:
    """Propagate middle-guide input; the outer guides should end at I1 = I3 = 1/2."""
    L = sp.base.half_length
    c0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    return propagate_adaptive(build_h3(sp), c0, -L, L, tol)
