"""Propagation backends for i dc/dz = H(z) c, split at the sign flip z = 0.

Two independent integrators are provided and used as mutual oracles:

* :func:`propagate_adaptive` -- adaptive embedded Runge-Kutta (DOP853, a
  port of scipy's ``solve_ivp`` that takes the same steps), hard-split at
  z = 0 so no step straddles the sign flip.  The norm is never
  renormalized; its drift is a quality diagnostic.
* :func:`propagate_pwc` -- product of exact unitary exponentials of H
  frozen at cell midpoints.  Exactly norm-preserving up to roundoff and
  second-order accurate in the step size.
"""

from __future__ import annotations

import cmath
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
    only that the coefficients are real, finite and one per term.  The
    backends pass side = -1 (left limit) or +1 (right limit) at the sign
    flip z = 0, and 0 elsewhere.
    """

    terms: tuple[np.ndarray, ...]
    coefficients: Callable[[float, int], Sequence[float]]

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
        return np.dot(self._checked(z, side), self._flat).reshape(self.terms[0].shape)

    def _checked(self, z: float, side: int) -> Sequence[float]:
        f = self.coefficients(z, side)
        if len(f) != len(self.terms):
            raise ValueError(f"coefficients gave {len(f)} values for {len(self.terms)} terms")
        _check_coefficients(f, z)
        return f


def _check_coefficients(f: Sequence[float], z: float) -> None:
    s = sum(f)  # complex if any coefficient is; inf or nan if any is not finite
    if isinstance(s, complex):
        raise ValueError(f"coefficients must be real, got {f!r} at z={z}")
    # finite coefficients can still sum to inf, so look at each only then
    if not math.isfinite(s) and not all(map(math.isfinite, f)):
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
    if not abs(np.vdot(c0, c0).real - 1.0) <= 1e-9:  # nan too
        raise ValueError("initial state is not normalized")
    return c0


def _segments(z_from: float, z_to: float) -> list[tuple[float, float]]:
    if not z_from < z_to:
        raise ValueError(f"need z_from < z_to, got [{z_from}, {z_to}]")
    if z_from < 0.0 < z_to:
        return [(z_from, 0.0), (0.0, z_to)]
    return [(z_from, z_to)]


def _rhs(h: HamiltonianSpec, a: float, b: float) -> Callable[[float, list], list]:
    """The right-hand side -i H(z) y of i dy/dz = H(z) y on the segment [a, b].

    Each call takes y as a list of complex numbers, checks the coefficients
    as matrix() does, then returns the list of sums of
    f_k(z) * (-i T_k[r, c]) * y[c] over the terms' nonzero entries, in
    Python complex arithmetic, which is cheaper than numpy's on 2 or 3
    components.
    """
    coefficients_at, dim = h._checked, h.dim
    # the side tag matters only at the sign flip, which a segment can only
    # start or end at: evaluate one-sided towards the segment interior
    at_flip = +1 if a == 0.0 else -1 if b == 0.0 else 0
    # in column order, as a matrix-vector product adds them: where no two
    # terms share an entry, each product and sum is then the one that
    # -1j * (matrix(z) @ y) rounds, unless numpy's product fuses them
    rows = [[(k, c, complex(-1j * t[r, c])) for c in range(dim)
             for k, t in enumerate(h.terms) if t[r, c]] for r in range(dim)]

    def rhs(z: float, y: list) -> list:
        # the integrator's z is an np.float64, whose arithmetic raises under
        # propagate_adaptive's errstate where Python floats give the inf or
        # nan that the coefficient check reports as a non-finite schedule
        z = float(z)
        f = coefficients_at(z, at_flip if z == 0.0 else 0)
        out = []
        for row in rows:
            acc = 0j
            for k, c, m in row:
                acc += f[k] * m * y[c]
            out.append(acc)
        return out

    return rhs


def _check_tol(tol: float) -> None:
    try:
        valid = 1e-12 <= tol <= 1e-4
    except TypeError:  # not a number: a string, None, a list
        valid = False
    if not valid:
        raise ValueError(f"tol must lie in [1e-12, 1e-4], got {tol!r}")


# Dormand-Prince 8(5,3) tableau as published with DOP853 (Hairer, Norsett &
# Wanner, Solving Ordinary Differential Equations I, Sec. II.10, and their
# dop853.f): each stage's node and the nonzero entries of its row of A by
# column, up to the last stage, at node 1 with the weights B.
_TABLEAU: tuple[tuple[float, dict[int, float]], ...] = (
    (0.526001519587677318785587544488e-01, {0: 5.26001519587677318785587544488e-2}),
    (0.789002279381515978178381316732e-01, {0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2}),
    (0.118350341907227396726757197510, {0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2}),
    (0.281649658092772603273242802490, {0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1, 3: 9.24834003261792003115737966543e-1}),
    (0.333333333333333333333333333333, {0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1, 4: 1.25467687566822425016691814123e-1}),
    (0.25, {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2}),
    (0.307692307692307692307692307692, {0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1, 4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2, 6: 8.27378916381402288758473766002e-3}),
    (0.651282051282051282051282051282, {0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825, 4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1, 6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1}),
    (0.6, {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2}),
    (0.857142857142857142857142857142, {0: -9.3714243008598732571704021658e-1,
        3: 5.18637242884406370830023853209, 4: 1.09143734899672957818500254654,
        5: -8.14978701074692612513997267357, 6: -1.85200656599969598641566180701e1,
        7: 2.27394870993505042818970056734e1, 8: 2.49360555267965238987089396762,
        9: -3.0467644718982195003823669022}),
    (1.0, {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1}),
    (1.0, {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2}),
)
# error estimators on the 12 stages and f(z + h): the 5th-order one, and B
# minus the 3rd-order weights
_E5 = {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
       6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
       8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
       10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1}
_E3 = dict(_TABLEAU[-1][1])
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1


def _complex_row(weights: dict[int, float]) -> tuple[tuple[int, complex], ...]:
    return tuple((j, complex(w)) for j, w in weights.items())


# the rows that run, as (column, complex weight) in column order: numpy's
# dot casts the weights to complex, and the zero weights it would also add
# each add a signed zero to a sum that started at +0, which changes no bit.
# The last stage gives y_new and f_new: t + 1.0 * h is t + h, and y + h * dy
# rounds as y + dy * h.
_STAGES = tuple((c, _complex_row(row)) for c, row in _TABLEAU)
_E5_ROW, _E3_ROW = _complex_row(_E5), _complex_row(_E3)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / (7 + 1)  # the error estimator is of order 7


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _norm(x: np.ndarray) -> np.float64:
    # np.linalg.norm of a complex vector, by the same operations
    return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _combine(K: list[list[complex]], row: tuple[tuple[int, complex], ...]) -> list[complex]:
    """sum_j w_j K[j] over a sparse tableau row, added in column order from
    +0 as np.dot adds it."""
    out = []
    for i in range(len(K[0])):
        acc = 0j
        for j, w in row:
            acc += K[j][i] * w
        out.append(acc)
    return out


def _dop853(fun: Callable[[float, list], list], a: float, b: float,
            y0: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Accepted z, states and RHS count of DOP853 on [a, b], a < b.

    A step-for-step port of scipy's
    ``solve_ivp(fun, (a, b), y0, method="DOP853", rtol=tol, atol=tol)``,
    with the same bits given the same fun, which here takes and returns
    lists of complex numbers.  The stages, y_new and the error estimates
    are combined in Python complex arithmetic, which rounds each product
    and sum as numpy does; the step size, the scale and the error norms
    stay numpy's, since Python's abs and sums of squares round otherwise.
    Stepping is forward only, so scipy's direction, +1 here, is left out.
    """
    t0, t_bound = float(a), float(b)
    t, y = t0, y0
    fy = np.array(fun(t, y.tolist()))

    # initial step (Hairer, Norsett & Wanner, Sec. II.4)
    interval_length = abs(t_bound - t0)
    scale = tol + np.abs(y) * tol
    d0 = _rms(y / scale)
    d1 = _rms(fy / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = np.array(fun(t0 + h0, (y + h0 * fy).tolist()))
    d2 = _rms((f1 - fy) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    h_abs = min(100 * h0, h1, interval_length)

    abs_y, y, fy = np.abs(y), y.tolist(), fy.tolist()
    ts, ys = [t], [y]
    attempts = 0
    while t - t_bound < 0:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError(f"integration failed on [{a}, {b}]: Required step "
                                     "size is less than spacing between numbers.")
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            # an np.float64 from here on, so that the step arithmetic raises on
            # overflow as numpy's does; t + h_abs cannot pass b before it
            h_abs = np.abs(h)

            # numpy multiplies a complex array by h as complex(h, 0); from
            # CPython 3.14 on, a complex times a float is componentwise,
            # which can flip a signed zero
            hc = complex(h)
            K = [fy]
            # _combine, inlined: a call per stage costs a quarter of this loop
            for c, row in _STAGES:
                y_new = []
                for i, y_i in enumerate(y):
                    acc = 0j
                    for j, w in row:
                        acc += K[j][i] * w
                    y_new.append(y_i + acc * hc)
                K.append(fun(t + c * h, y_new))
            f_new = K[-1]
            err5, err3 = _combine(K, _E5_ROW), _combine(K, _E3_ROW)
            attempts += 1
            # Python arithmetic gives inf or nan where numpy's raises under
            # errstate; every stage feeds these, and finite ones hold the
            # bits numpy's would
            if not all(map(cmath.isfinite, y_new + err5 + err3)):
                raise FloatingPointError(f"overflow encountered in the step from z={t}")

            abs_new = np.abs(y_new)
            scale = tol + np.maximum(abs_y, abs_new) * tol
            err = np.array((err5, err3)) / scale
            err5_norm_2, err3_norm_2 = _norm(err[0]) ** 2, _norm(err[1]) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))

            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True

        t, y, fy, abs_y = t_new, y_new, f_new, abs_new
        ts.append(t)
        ys.append(y)
    # two evaluations choose the first step, then 12 per attempted step
    return np.array(ts), np.array(ys), 2 + 12 * attempts


def propagate_adaptive(h: HamiltonianSpec, c0: np.ndarray, z_from: float,
                       z_to: float, tol: float = 1e-10) -> Trajectory:
    """Adaptive RK integration of i dc/dz = H(z) c, split at the sign flip."""
    _check_tol(tol)
    c = _check_initial_state(c0, h.dim)

    zs: list[np.ndarray] = []
    states: list[np.ndarray] = []
    nfev = 0
    for a, b in _segments(z_from, z_to):
        try:
            # stop at an overflow, not when the step shrinks below the spacing;
            # underflow, as of min_step at z = 0, is no error in any caller's state
            with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
                seg_z, seg_states, seg_nfev = _dop853(_rhs(h, a, b), a, b, c, tol)
        except FloatingPointError as exc:
            raise FloatingPointError(f"{exc} on [{a}, {b}]") from exc
        nfev += seg_nfev
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
            f"grid not alignable: a cell boundary must fall on the sign flip "
            f"z = 0, which needs at least {len(segments)} steps, got {steps}"
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
    segments = _segments(z_from, z_to)
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
