"""Propagation backends for i dc/dz = H(z) c with a known discontinuity.

Two independent integrators are provided and used as mutual oracles:

* :func:`propagate_adaptive` -- adaptive embedded Runge-Kutta (DOP853)
  with the integration hard-split at every listed discontinuity, so no
  step straddles the sign-flip point.  The norm is never renormalized;
  its drift is a quality diagnostic.
* :func:`propagate_pwc` -- product of exact unitary exponentials of H
  frozen at cell midpoints.  Exactly norm-preserving up to roundoff and
  second-order accurate in the step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "HamiltonianSpec",
    "Trajectory",
    "StiffnessError",
    "propagate_adaptive",
    "propagate_pwc",
]

_HERMITICITY_TOL = 1e-14


class StiffnessError(RuntimeError):
    """Adaptive step size underflowed; the problem is effectively stiff."""


@dataclass(frozen=True)
class HamiltonianSpec:
    """Position-dependent Hermitian generator H(z) = sum_k f_k(z) * terms[k].

    terms are constant Hermitian (dim, dim) matrices, dim 2 or 3, checked
    once here; coefficients(z, side) returns the real rates f_k in 1/mm.  A
    real combination of Hermitian terms is Hermitian, so matrix() checks
    only that the coefficients are real, finite and one per term.  `side` is
    consulted only when z coincides with one of the listed discontinuities.
    """

    terms: tuple[np.ndarray, ...]
    coefficients: Callable[[float, int], Sequence[float]]
    discontinuities: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        terms = tuple(np.array(t, dtype=complex) for t in self.terms)
        shapes = [t.shape for t in terms]
        if not terms or set(shapes) not in ({(2, 2)}, {(3, 3)}):
            raise ValueError(f"terms must all be (2, 2) or all (3, 3), got {shapes}")
        for k, t in enumerate(terms):
            scale = max(np.max(np.abs(t)), 1.0)
            if np.max(np.abs(t - t.conj().T)) > _HERMITICITY_TOL * scale:
                raise ValueError(f"term {k} is not Hermitian")
            t.flags.writeable = False
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_flat", np.stack(terms).reshape(len(terms), -1))

    @property
    def dim(self) -> int:
        return self.terms[0].shape[0]

    def matrix(self, z: float, side: int = 0) -> np.ndarray:
        f = self.coefficients(z, side)
        if len(f) != len(self.terms):
            raise ValueError(f"coefficients gave {len(f)} values for {len(self.terms)} terms")
        _check_coefficients(f, z)
        return np.dot(f, self._flat).reshape(self.terms[0].shape)


def _check_coefficients(f: Sequence[float], z: float) -> None:
    s = sum(f)  # complex if any coefficient is, nan or inf if any is not finite
    if isinstance(s, complex):
        raise ValueError(f"coefficients must be real, got {f!r} at z={z}")
    if not math.isfinite(s):
        raise FloatingPointError(f"non-finite coefficients {f!r} at z={z}")


@dataclass(frozen=True)
class Trajectory:
    """Ordered propagation samples over [z_from, z_to]."""

    z: np.ndarray
    states: np.ndarray  # shape (n, dim), complex amplitudes
    backend: str
    stats: dict = field(default_factory=dict)

    @property
    def intensities(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_intensities(self) -> np.ndarray:
        return np.abs(self.states[-1]) ** 2

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(np.sum(self.intensities, axis=1) - 1.0)))


def _check_initial_state(c0: np.ndarray, dim: int) -> np.ndarray:
    c0 = np.asarray(c0, dtype=complex)
    if c0.shape != (dim,):
        raise ValueError(f"initial state must have shape ({dim},)")
    if abs(np.vdot(c0, c0).real - 1.0) > 1e-9:
        raise ValueError("initial state is not normalized")
    return c0


def _segments(h: HamiltonianSpec, z_from: float, z_to: float) -> list[tuple[float, float]]:
    if not z_from < z_to:
        raise ValueError(f"need z_from < z_to, got [{z_from}, {z_to}]")
    cuts = sorted(d for d in h.discontinuities if z_from < d < z_to)
    edges = [z_from, *cuts, z_to]
    return list(zip(edges[:-1], edges[1:]))


def _side_at(h: HamiltonianSpec, z: float, a: float, b: float) -> int:
    # Within the open segment the side tag is irrelevant; at a segment
    # endpoint that is a discontinuity, evaluate one-sided towards the
    # segment interior.
    if z == a and a in h.discontinuities:
        return +1
    if z == b and b in h.discontinuities:
        return -1
    return 0


def _check_tol(tol: float) -> None:
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError(f"tol must lie in [1e-12, 1e-4], got {tol}")


def propagate_adaptive(h: HamiltonianSpec, c0: np.ndarray, z_from: float,
                       z_to: float, tol: float = 1e-10) -> Trajectory:
    """Adaptive RK integration of i dc/dz = H(z) c, split at discontinuities."""
    # scipy.integrate takes about 0.6 s to import and only this backend needs it
    from scipy.integrate import solve_ivp

    _check_tol(tol)
    c = _check_initial_state(c0, h.dim)

    zs: list[np.ndarray] = []
    states: list[np.ndarray] = []
    nfev = 0
    for a, b in _segments(h, z_from, z_to):
        def rhs(z: float, y: np.ndarray, a: float = a, b: float = b) -> np.ndarray:
            # scipy's z is an np.float64, whose arithmetic raises under the
            # errstate below where Python floats give the inf or nan that
            # matrix() reports as a non-finite schedule
            return -1j * (h.matrix(float(z), _side_at(h, z, a, b)) @ y)

        try:
            # stop at an overflow, not when the step shrinks below the spacing
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                sol = solve_ivp(rhs, (a, b), c, method="DOP853", rtol=tol, atol=tol)
        except FloatingPointError as exc:
            raise FloatingPointError(f"{exc} on [{a}, {b}]") from exc
        if not sol.success:
            raise StiffnessError(f"integration failed on [{a}, {b}]: {sol.message}")
        nfev += sol.nfev
        seg_z = sol.t
        seg_states = sol.y.T
        if zs:  # drop the duplicated segment boundary
            seg_z = seg_z[1:]
            seg_states = seg_states[1:]
        zs.append(seg_z)
        states.append(seg_states)
        c = states[-1][-1]

    return Trajectory(
        z=np.concatenate(zs),
        states=np.concatenate(states),
        backend="adaptive-dop853",
        stats={"nfev": nfev, "tol": tol},
    )


def _allocate_steps(segments: list[tuple[float, float]], steps: int) -> list[int]:
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps < len(segments):
        raise ValueError(
            f"grid not alignable: {steps} steps cannot place a cell boundary "
            f"at every discontinuity ({len(segments)} segments needed)"
        )
    total = sum(b - a for a, b in segments)
    counts = [max(1, round(steps * (b - a) / total)) for a, b in segments]
    # Deterministically balance rounding so the total step count is honored.
    while sum(counts) > steps:
        counts[counts.index(max(counts))] -= 1
    while sum(counts) < steps:
        counts[counts.index(max(counts))] += 1
    return counts


def _cell_unitary(h: np.ndarray, dz: float) -> np.ndarray:
    """exp(-i h dz) for Hermitian h (analytic for 2x2, eigh for 3x3)."""
    if h.shape == (2, 2):
        tr = (h[0, 0] + h[1, 1]).real / 2.0
        a = (h[0, 0] - h[1, 1]).real / 2.0
        b = h[0, 1]
        w = math.sqrt(a * a + abs(b) ** 2)
        ang = w * dz
        if w == 0.0:
            core = np.eye(2, dtype=complex)
        else:
            h0 = np.array([[a, b], [np.conj(b), -a]], dtype=complex)
            core = math.cos(ang) * np.eye(2) - 1j * (math.sin(ang) / w) * h0
        return np.exp(-1j * tr * dz) * core
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dz)) @ v.conj().T


def propagate_pwc(h: HamiltonianSpec, c0: np.ndarray, z_from: float,
                  z_to: float, steps: int) -> Trajectory:
    """Piecewise-constant unitary-product propagation (midpoint rule)."""
    c = _check_initial_state(c0, h.dim)
    segments = _segments(h, z_from, z_to)
    counts = _allocate_steps(segments, steps)

    n_samples = sum(counts) + 1
    zs = np.empty(n_samples)
    states = np.empty((n_samples, h.dim), dtype=complex)
    zs[0] = z_from
    states[0] = c
    i = 1
    for (a, b), n in zip(segments, counts):
        dz = (b - a) / n
        for j in range(n):
            zm = a + (j + 0.5) * dz
            c = _cell_unitary(h.matrix(zm), dz) @ c
            zs[i] = b if j == n - 1 else a + (j + 1) * dz
            states[i] = c
            i += 1

    return Trajectory(
        z=zs,
        states=states,
        backend="pwc-unitary",
        stats={"steps": steps},
    )
