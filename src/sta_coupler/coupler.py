"""Two-waveguide coupler simulations and adiabatic-basis diagnostics."""

from __future__ import annotations

from functools import partial

import numpy as np

from .propagation import HamiltonianSpec, Trajectory, mirrored_run
from .schedules import ModelParams, check_int, drive, schedule_grid, segment_rates

__all__ = ["build_h2", "simulate", "adiabatic_projection"]


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def drive_spec(terms: tuple[np.ndarray, np.ndarray], p: ModelParams) -> HamiltonianSpec:
    """The generator drive(p)[0] * terms[0] + drive(p)[1] * terms[1], of an
    off-diagonal and a diagonal 2x2 term, with drive's rates per segment
    (see schedules.segment_rates), which propagation._rhs fuses into a
    right-hand side that checks nothing on a raw design in schedules.in_box."""
    h = HamiltonianSpec(terms, partial(drive, p))
    object.__setattr__(h, "_rates", partial(segment_rates, p))
    return h


def build_h2(p: ModelParams) -> HamiltonianSpec:
    """2x2 generator omega*sigma_x + delta*sigma_z from the raw or
    STA-effective schedules (see :func:`drive`); the integrator checks them
    on every call unless the design is raw and in the box (see drive_spec)."""
    return drive_spec((_SIGMA_X, _SIGMA_Z), p)


def simulate(p: ModelParams, input_guide: int = 1, tol: float = 1e-10) -> Trajectory:
    """Propagate light injected in one guide across the device (see propagation.mirrored_run)."""
    if check_int("input_guide", input_guide) not in (1, 2):
        raise ValueError(f"input_guide must be 1 or 2, got {input_guide}")
    c0 = np.zeros(2, dtype=complex)
    c0[input_guide - 1] = 1.0
    return mirrored_run(build_h2(p), c0, p.half_length, tol)


def adiabatic_projection(p: ModelParams, traj: Trajectory) -> np.ndarray:
    """Populations of the instantaneous eigenstates of the raw generator.

    For STA trajectories the amplitudes live in the phase-rotated physical
    frame; the diagonal rotation by phi/2 is undone first so the
    projection happens in the frame where the counterdiabatic term acts.
    States are ordered by eigenvalue (ascending); returns shape (n, 2).

    The z = 0 sample, where the adiabatic labels swap, is assigned to the
    left half (see :func:`schedule_grid`).
    """
    if traj.states.shape[1] != 2:
        raise ValueError("adiabatic projection is defined for dim-2 trajectories")
    sp = schedule_grid(p, traj.z)
    c = traj.states
    if p.sta:
        c = c * np.exp(0.5j * np.outer(sp.phi, [-1.0, 1.0]))
    sin, cos = np.sin(0.5 * sp.theta), np.cos(0.5 * sp.theta)
    minus = -sin * c[:, 0] + cos * c[:, 1]  # eigenvalue -E
    plus = cos * c[:, 0] + sin * c[:, 1]    # eigenvalue +E
    return np.abs(np.column_stack((minus, plus))) ** 2
