"""The in-package DOP853 is scipy's solve_ivp(method="DOP853"), step for step.

scipy is a test dependency only: these tests run the reference integrator
per segment, as propagate_adaptive splits the run, on the package's own
right-hand side, and require the same bits, not agreement within tol.
tests/test_propagation.py::TestRhs checks that right-hand side against
HamiltonianSpec.matrix.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

from sta_coupler import propagation
from sta_coupler.coupler import build_h2
from sta_coupler.propagation import (
    HamiltonianSpec,
    StiffnessError,
    _rhs,
    _segments,
    propagate_adaptive,
)
from sta_coupler.schedules import ModelParams
from sta_coupler.splitter import SplitterParams, build_h3
from test_propagation import GENERATORS, SIGMA_X
from test_splitter import reduced_h2

DESIGN = ModelParams(3.0, 0.2, 5.0, sta=True)
RAW = ModelParams(3.0, 0.2, 5.0, sta=False)
GUIDE_1 = np.array([1.0, 0.0], dtype=complex)
GUIDE_2 = np.array([0.0, 1.0], dtype=complex)
MIDDLE = np.array([0.0, 1.0, 0.0], dtype=complex)
CASES = {
    "h2-sta-guide1": (build_h2(DESIGN), GUIDE_1),
    "h2-sta-guide2": (build_h2(DESIGN), GUIDE_2),
    "h2-raw-guide1": (build_h2(RAW), GUIDE_1),
    "h2-raw-guide2": (build_h2(RAW), GUIDE_2),
    "h3-direct": (build_h3(SplitterParams(DESIGN, "direct")), MIDDLE),
    "h3-reduced_cd": (build_h3(SplitterParams(DESIGN, "reduced_cd")), MIDDLE),
    "reduced-h2": (reduced_h2(SplitterParams(DESIGN, "reduced_cd")), GUIDE_2),
    # no coupling and no mismatch: the initial step sees d1 = d2 = 0, and
    # every error norm is 0
    "h2-zero-guide1": (build_h2(ModelParams(0, 0, 5)), GUIDE_1),
    # a complex term, and every component of the state off both axes
    "sigma-xyz": (GENERATORS["sigma-y"], np.array([0.6 - 0.48j, -0.36 + 0.53j]) / math.hypot(
        0.6, 0.48, 0.36, 0.53)),
}


def reference(h, c0, z_from, z_to, tol):
    """propagate_adaptive's loop with solve_ivp as the integrator, given the
    same right-hand side."""
    c = c0
    zs, states, nfev = [], [], 0
    for a, b in _segments(z_from, z_to):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rhs = _rhs(h, a, b)
            sol = solve_ivp(lambda z, y: rhs(z, y.tolist()), (a, b), c, method="DOP853",
                            rtol=tol, atol=tol)
        assert sol.success, sol.message
        nfev += sol.nfev
        z, y = (sol.t, sol.y.T) if not zs else (sol.t[1:], sol.y.T[1:])
        zs.append(z)
        states.append(y)
        c = states[-1][-1]
    return np.concatenate(zs), np.concatenate(states), nfev


def test_tableau_is_scipys():
    n = scipy_tableau.N_STAGES
    # the sparse Python rows hold every nonzero weight, in column order, as
    # complex(w), and nothing else; the last stage, at node 1, has weights B
    assert [c for c, _ in propagation._STAGES] == [*scipy_tableau.C[1:n], 1.0]
    rows = [(row, scipy_tableau.A[s, :s]) for s, (c, row) in enumerate(propagation._STAGES[:-1], 1)]
    rows += [(propagation._STAGES[-1][1], scipy_tableau.B),
             (propagation._E5_ROW, scipy_tableau.E5), (propagation._E3_ROW, scipy_tableau.E3)]
    for row, weights in rows:
        columns = [j for j, _ in row]
        assert columns == sorted(set(columns))
        assert all(type(w) is complex and w != 0 for _, w in row)
        dense = np.zeros(len(weights), dtype=complex)
        dense[columns] = [w for _, w in row]
        assert dense.tobytes() == weights.astype(complex).tobytes()


@pytest.mark.parametrize("tol", [1e-12, 1e-8, 1e-6, 1e-4])
@pytest.mark.parametrize("case", list(CASES))
def test_matches_solve_ivp(case, tol):
    h, c0 = CASES[case]
    L = DESIGN.half_length
    traj = propagate_adaptive(h, c0, -L, L, tol)
    z, states, nfev = reference(h, c0, -L, L, tol)
    assert traj.z.dtype == z.dtype and traj.z.tobytes() == z.tobytes()
    assert traj.states.dtype == states.dtype and traj.states.tobytes() == states.tobytes()
    assert traj.stats["nfev"] == nfev


def test_step_underflow_matches_scipy():
    # 10 /mm needs steps below 1 mm, where the spacing of floats is 2 mm
    h = HamiltonianSpec((np.array([[0, 1], [1, 0]]),), lambda z, side: (10.0,))
    a, b = 1e16, 1e16 + 1000
    with pytest.raises(StiffnessError) as exc:
        propagate_adaptive(h, GUIDE_1, a, b, 1e-8)
    sol = solve_ivp(lambda z, y: -1j * (h.matrix(float(z)) @ y), (a, b), GUIDE_1,
                    method="DOP853", rtol=1e-8, atol=1e-8)
    assert not sol.success
    assert str(exc.value) == f"integration failed on [{a}, {b}]: {sol.message}"
    assert sol.message == "Required step size is less than spacing between numbers."


def test_overflow_matches_scipy():
    h = build_h2(ModelParams(1e308, 0.1, 5.0, sta=False))
    with pytest.raises(FloatingPointError) as ours:
        propagate_adaptive(h, GUIDE_1, -5.0, 5.0, 1e-6)
    with pytest.raises(FloatingPointError) as theirs:
        reference(h, GUIDE_1, -5.0, 5.0, 1e-6)
    assert str(ours.value) == f"{theirs.value} on [-5.0, 0.0]"


@pytest.mark.parametrize("big", [1e150, 1e200, 1e300, 1e308])
def test_overflow_inside_a_step_matches_scipy(big):
    # past z = 0.5 the stages overflow in the middle of a step, where Python
    # arithmetic gives inf or nan rather than raise; neither a StiffnessError
    # nor a returned trajectory nor a warning may come out instead
    h = HamiltonianSpec((SIGMA_X,), lambda z, side: (big if z > 0.5 else 1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError) as ours:
            propagate_adaptive(h, GUIDE_1, 0.0, 1.0, 1e-6)
        with pytest.raises(FloatingPointError):
            reference(h, GUIDE_1, 0.0, 1.0, 1e-6)
    assert str(ours.value).endswith(" on [0.0, 1.0]")
