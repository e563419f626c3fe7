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
from .schedules import ModelParams, drive

__all__ = ["SplitterParams", "build_h3", "simulate_splitter"]

MODES = ("direct", "reduced_cd")

# Constant terms of the generator [[0, W, 0], [W, D, W], [0, W, 0]]
_OUTER_COUPLINGS = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
_MIDDLE_MISMATCH = np.diag([0.0, 1.0, 0.0])


@dataclass(frozen=True)
class SplitterParams:
    base: ModelParams
    mode: str = "reduced_cd"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def design(self) -> ModelParams:
        """Two-guide design whose drive weights the array's terms: the base,
        or for an STA reduced_cd array the traceless (middle, bright) system,
        sqrt(2)*omega0 and delta0/2, whose guide-2 output is the bright
        intensity, which splits as I1 = I3 = I_bright / 2."""
        p = self.base
        if not p.sta or self.mode == "direct":
            return p
        return ModelParams(*reduced_rates(p.omega0, p.delta0), p.half_length, sta=True)


def reduced_rates(omega0: float, delta0: float) -> tuple[float, float]:
    """Coupling sqrt(2)*omega0 and left-half mismatch delta0/2 of the STA
    reduced_cd array's (middle, bright) system (see SplitterParams.design)."""
    coupling = math.sqrt(2.0) * omega0
    if math.isinf(coupling):  # a numerical failure, not a bad design
        raise FloatingPointError(f"sqrt(2)*omega0 overflows: omega0={omega0}")
    return coupling, 0.5 * delta0


def build_h3(sp: SplitterParams) -> HamiltonianSpec:
    """3x3 generator weighted by drive on sp.design; a reduced design's
    coupling sqrt(2)*W and mismatch D/2 fold 1/sqrt(2) and 2 into the terms."""
    q = sp.design
    w, d = (1.0, 1.0) if q is sp.base else (math.sqrt(0.5), 2.0)
    return HamiltonianSpec((w * _OUTER_COUPLINGS, d * _MIDDLE_MISMATCH), partial(drive, q))


def simulate_splitter(sp: SplitterParams, tol: float = 1e-10) -> Trajectory:
    """Propagate middle-guide input; the outer guides should end at I1 = I3 = 1/2."""
    L = sp.base.half_length
    c0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    return propagate_adaptive(build_h3(sp), c0, -L, L, tol)
