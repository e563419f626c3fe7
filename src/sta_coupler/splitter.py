"""Three-waveguide equal-superposition beam splitter.

The middle guide couples symmetrically to the outer two, whose dark
(antisymmetric) combination decouples: middle-guide input runs as the
(middle, bright) pair with coupling sqrt(2)*omega (Morris & Shore, Phys.
Rev. A 27, 906, 1983), see build_pair; build_h3, the whole array's
generator, is the reference it is checked against.  STA modes: ``direct``
puts the two-guide effective schedules into the array, ``reduced_cd`` the
counterdiabatic construction of the exact reduced pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .coupler import build_h2, drive_spec
from .propagation import HamiltonianSpec, Trajectory, mirrored_run
from .schedules import MODES, ModelParams, drive, reduced_rates

__all__ = ["SplitterParams", "build_h3", "simulate_splitter"]

# Constant terms of the generator [[0, W, 0], [W, D, W], [0, W, 0]]
_OUTER_COUPLINGS = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
_MIDDLE_MISMATCH = np.diag([0.0, 1.0, 0.0])
_PAIR_TERMS = (np.sqrt([[0.0, 2.0], [2.0, 0.0]]), np.diag([0.5, -0.5]))  # see build_pair


@dataclass(frozen=True)
class SplitterParams:
    base: ModelParams
    mode: str = "reduced_cd"

    def __post_init__(self) -> None:
        if not isinstance(self.base, ModelParams):
            raise ValueError(f"base must be a ModelParams, got {self.base!r}")
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


def build_h3(sp: SplitterParams) -> HamiltonianSpec:
    """3x3 generator weighted by drive on sp.design; a reduced design's
    coupling sqrt(2)*W and mismatch D/2 fold 1/sqrt(2) and 2 into the terms."""
    q = sp.design
    w, d = (1.0, 1.0) if q is sp.base else (math.sqrt(0.5), 2.0)
    return HamiltonianSpec((w * _OUTER_COUPLINGS, d * _MIDDLE_MISMATCH), partial(drive, q))


def build_pair(sp: SplitterParams) -> HamiltonianSpec:
    """The (middle, bright) pair less its (D / 2) I term: sqrt(2) W sigma_x
    + (D / 2) sigma_z on drive(sp.base), or for an STA reduced_cd array the
    traceless design's build_h2 (see SplitterParams.design).  A raw one
    runs unchecked on a design in the box, as build_h2 does."""
    q = sp.design
    return drive_spec(_PAIR_TERMS, q) if q is sp.base else build_h2(q)


def simulate_splitter(sp: SplitterParams, tol: float = 1e-10) -> Trajectory:
    """Propagate middle-guide input; the outer guides should end at I1 = I3 = 1/2.

    One mirrored run of the pair (see :func:`build_pair` and
    propagation.mirrored_run), whose states (c_bright / sqrt(2),
    c_middle, c_bright / sqrt(2)) are the array's amplitudes up to the common phase
    exp(-i int D / 2 dz): it leaves every intensity unchanged, and is 1 at +-L as D is odd."""
    run = mirrored_run(build_pair(sp), (1.0, 0.0), sp.base.half_length, tol)
    middle, outer = run.states.T * [[1.0], [math.sqrt(0.5)]]
    return replace(run, states=np.column_stack((outer, middle, outer)))
