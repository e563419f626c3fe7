"""The three benchmark workloads: seeded inputs, operations, output checks
and oracles.

Every workload is a closed loop driven from one process: the caller waits for
each operation before sending the next, and the package only ever receives
the generated parameters.  An operation returns a payload; ``check`` turns it
into a list of failures right after the operation, outside its timing.
Oracles run after the measured phase.  ``ops()`` yields operations in groups
of fixed composition; a timed run only stops between groups, so every run
sends the same mix whatever its length.

Tolerance rules used by the checks (fixed here, never widened to pass a run):

* ``DRIFT_FACTOR * tol`` bounds trajectory norm drift and the deviation of an
  adaptive result from an independent backend; the package's own property
  suite uses the same factor (tol 1e-11, drift <= 1e-9).
* The reference transfer must equal ``REF_I2`` to within ``2 * (atol + rtol)``
  = ``4 * tol`` (``REF_I2_SLACK`` at tol 1e-10): the solver bounds each
  amplitude's local error by ``atol + rtol * |c|`` and the intensity
  ``|c|**2`` doubles a relative amplitude error.
* Splitter dark-state leakage ``max |c1 - c3|`` must stay <= 1e-10.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

REF = (1.5, 0.1, 25.0)  # omega0 [1/mm], delta0 [1/mm], total length 2L [mm]
REF_I2 = 0.998770820857
REF_I2_SLACK = 4e-10  # 2 * (atol + rtol) at the default tol 1e-10
DRIFT_FACTOR = 100.0
LEAKAGE_MAX = 1e-10
ROBUST_TARGET = 0.95
ORACLE_STEPS = 2000  # pwc oracle: Richardson extrapolation of 2000 and 4000 steps


@dataclass
class Op:
    """One benchmark operation: ``run`` is timed, ``check`` is not."""

    name: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Outcome:
    op: Op
    seconds: float
    failures: list[str] = field(default_factory=list)


def richardson_pwc(pkg, h, c0, half_length: float, steps: int = ORACLE_STEPS) -> np.ndarray:
    """Final intensities from the midpoint unitary product, extrapolated from
    ``steps`` and ``2 * steps`` cells; the scheme is symmetric, so its error
    expands in even powers of the step and this removes the leading term."""
    prop = pkg.propagation
    a = prop.propagate_pwc(h, c0, -half_length, half_length, steps).final_intensities
    b = prop.propagate_pwc(h, c0, -half_length, half_length, 2 * steps).final_intensities
    return (4.0 * b - a) / 3.0


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


# ---------------------------------------------------------------------------
# sweep_grid


class SweepGrid:
    """``run_sweep`` over an omega0 x delta0 plane at a fixed length.

    A round is one seeded plane evaluated three ways: STA and raw
    ``final_i2`` (the acceptance-8 pair, tol 1e-6) and STA
    ``splitting_infidelity``, all with ``workers=1``.  Each round is sent as
    tiles of two adjacent delta0 rows by the full omega0 axis.  A cell's cost
    grows about twofold from the first delta0 row to the last, so tile
    latencies spread smoothly and their median moves smoothly with machine
    speed.  A group pairs row block ``j`` with block ``N/2 - 1 - j``, for all
    three metrics, so groups cost about the same and a run that stops
    part-way through a round still sends the round's mix.  An operation is
    one cell; a tile's latency is divided over its cells.  Every run starts
    with a fixed anchor block whose acceptance-8 point is compared with the
    oracle, so that ``result_err`` does not depend on the seed.
    """

    name = "sweep_grid"
    unit = "cell"
    N = 12
    TOL = 1e-6
    VARIANTS = (("final_i2", True), ("final_i2", False), ("splitting_infidelity", True))
    ANCHOR = (("omega0", 0.0, 5.5, 12), ("delta0", 0.2, 1.0, 2), 10.0)
    ANCHOR_CELL = (0, 6)  # delta0 = 0.2, omega0 = 3.0

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.rng = np.random.default_rng(seed)
        self.rounds: list[dict] = []
        self.anchor: dict = {}

    def _plane(self) -> dict:
        # The jitter is small so that a round's cost barely depends on the seed.
        jitter = [float(x) for x in self.rng.uniform(-0.01, 0.01, size=3)]
        plane = {"x_hi": 5.0 * (1 + jitter[0]), "y_hi": 5.0 * (1 + jitter[1]),
                 "total_length": 10.0 * (1 + jitter[2]),
                 "grids": {v: np.full((self.N, self.N), np.nan) for v in self.VARIANTS},
                 "tiles_left": len(self.VARIANTS) * self.N // 2}
        plane["ys"] = np.linspace(0.0, plane["y_hi"], self.N)
        # one seeded non-degenerate cell per metric is checked against the oracle
        plane["spot"] = (int(self.rng.integers(0, self.N)), int(self.rng.integers(1, self.N)))
        self.rounds.append(plane)
        return plane

    def _spec(self, variant, axis_x, axis_y, total_length):
        sw = self.pkg.sweep
        metric, sta = variant
        return sw.SweepSpec(axis_x=sw.AxisSpec(*axis_x), axis_y=sw.AxisSpec(*axis_y),
                            fixed={"total_length": total_length}, metric=metric,
                            sta=sta, tol=self.TOL)

    def _tile_op(self, label, spec, on_result) -> Op:
        cells = spec.axis_x.count * spec.axis_y.count

        def run():
            return self.pkg.sweep.run_sweep(spec, workers=1)

        def check(result):
            failures = self._check_grid(spec, np.asarray(result.grid))
            if not failures:
                on_result(np.asarray(result.grid))
            return failures

        return Op(label, cells, run, check)

    def _check_grid(self, spec, grid) -> list[str]:
        slack = DRIFT_FACTOR * spec.tol
        shape = (spec.axis_y.count, spec.axis_x.count)
        if grid.shape != shape:
            return [f"grid shape {grid.shape} != {shape}"] * (shape[0] * shape[1])
        lo, hi = (0.0, 1.0) if spec.metric == "final_i2" else (0.0, 0.5)
        bad = ~np.isfinite(grid) | (grid < lo - slack) | (grid > hi + slack)
        # omega0 = 0 leaves the input where it is: I2 = 0, or infidelity 0.5
        degenerate = 0.0 if spec.metric == "final_i2" else 0.5
        bad[:, 0] |= ~(np.abs(grid[:, 0] - degenerate) <= slack)
        return [f"{spec.metric} sta={spec.sta} cell {idx} = {grid[idx]!r}"
                for idx in zip(*np.nonzero(bad))]

    def warm_up(self) -> None:
        spec = self._spec(self.VARIANTS[0], ("omega0", 0.0, 3.0, 2), ("delta0", 0.2, 0.4, 2), 10.0)
        self.pkg.sweep.run_sweep(spec, workers=1)

    def _anchor_ops(self) -> list[Op]:
        axis_x, axis_y, length = self.ANCHOR
        ops = []
        for variant in self.VARIANTS:
            def keep(grid, variant=variant):
                self.anchor[variant] = grid
            ops.append(self._tile_op(f"anchor {variant[0]} sta={variant[1]}",
                                     self._spec(variant, axis_x, axis_y, length), keep))
        return ops

    def _round_blocks(self) -> list[list[Op]]:
        """A new round: per block of two delta0 rows, one tile per metric."""
        plane = self._plane()
        ys = plane["ys"]
        blocks = []
        for k in range(0, self.N, 2):
            axis_y = ("delta0", float(ys[k]), float(ys[k + 1]), 2)
            block = []
            for variant in self.VARIANTS:
                def store(grid, variant=variant, k=k):
                    plane["grids"][variant][k:k + 2] = grid
                    plane["tiles_left"] -= 1
                block.append(self._tile_op(
                    f"round {len(self.rounds) - 1} rows {k}-{k + 1} {variant[0]} sta={variant[1]}",
                    self._spec(variant, ("omega0", 0.0, plane["x_hi"], self.N), axis_y,
                               plane["total_length"]), store))
            blocks.append(block)
        return blocks

    def ops(self) -> Iterator[list[Op]]:
        """The anchor block, then groups that pair a cheap row block of a
        round with a costly one."""
        yield self._anchor_ops()
        while True:
            blocks = self._round_blocks()
            for j in range(len(blocks) // 2):
                yield blocks[j] + blocks[-1 - j]

    def fixed_ops(self) -> list[Op]:
        return self._anchor_ops() + [op for block in self._round_blocks() for op in block]

    def pool_subgrid(self):
        axis_x, axis_y, length = self.ANCHOR
        return self._spec(self.VARIANTS[0], axis_x, axis_y, length)

    def finish(self) -> list[str]:
        """Acceptance-8 ordering on every complete round."""
        failures = []
        for r, plane in enumerate(self.rounds):
            if plane["tiles_left"]:
                continue
            frac_sta = float(np.mean(plane["grids"][("final_i2", True)] >= ROBUST_TARGET))
            frac_raw = float(np.mean(plane["grids"][("final_i2", False)] >= ROBUST_TARGET))
            if not frac_sta > frac_raw:
                failures.append(f"round {r}: STA robust fraction {frac_sta} <= raw {frac_raw}")
        return failures

    def _oracle_cell(self, variant, omega0, delta0, total_length) -> float:
        pkg = self.pkg
        metric, sta = variant
        p = pkg.schedules.ModelParams(omega0=omega0, delta0=delta0,
                                      half_length=total_length / 2.0, sta=sta)
        if metric == "final_i2":
            h = pkg.coupler.build_h2(p)
            return float(richardson_pwc(pkg, h, np.array([1, 0], complex), p.half_length)[1])
        h = pkg.splitter.build_h3(pkg.splitter.SplitterParams(p, "reduced_cd"))
        i1, _, i3 = richardson_pwc(pkg, h, np.array([0, 1, 0], complex), p.half_length)
        return float(max(abs(i1 - 0.5), abs(i3 - 0.5)))

    def oracle(self) -> tuple[float, list[str], dict]:
        """result_err from the anchor point; seeded spot cells must agree with
        the oracle to DRIFT_FACTOR * tol."""
        axis_x, axis_y, length = self.ANCHOR
        i, j = self.ANCHOR_CELL
        omega0 = float(np.linspace(*axis_x[1:])[j])
        delta0 = float(np.linspace(*axis_y[1:])[i])
        errs, failures, spots = [], [], []
        for variant in self.VARIANTS:
            if variant not in self.anchor:
                failures.append(f"anchor {variant} missing")
                continue
            errs.append(abs(self.anchor[variant][i, j]
                            - self._oracle_cell(variant, omega0, delta0, length)))
        plane = self.rounds[0] if self.rounds else None
        if plane is not None:
            si, sj = plane["spot"]
            xs = np.linspace(0.0, plane["x_hi"], self.N)
            for variant in self.VARIANTS:
                value = plane["grids"][variant][si, sj]
                if np.isnan(value):
                    continue
                dev = abs(value - self._oracle_cell(variant, float(xs[sj]),
                                                    float(plane["ys"][si]),
                                                    plane["total_length"]))
                spots.append(dev)
                if not dev <= DRIFT_FACTOR * self.TOL:
                    failures.append(f"spot cell {variant} deviates {dev:.3g} from the oracle")
        return (max(errs) if errs else math.nan), failures, {"spot_err_max": max(spots, default=None)}


# ---------------------------------------------------------------------------
# design_point


class DesignPoint:
    """The full set of single-design calls per seeded design point.

    The paper's reference point comes first in every run.  One operation is
    one design point: STA (projected) and raw ``simulate`` at tol 1e-10,
    ``simulate_splitter`` in both modes, the ``propagate_pwc`` convergence
    cross-check, ``diagnostics``, an ``effective_schedule`` profile, and the
    results written through ``serialize``.

    Device lengths are stratified: every cycle of eight points visits each
    length stratum once, in a seeded order and with seeded jitter.  The pwc
    cross-check keeps a fixed step, so its step count, like the adaptive
    runs' work, grows with the length.  Each run then spans the same broad,
    continuous spread of costs (about 3x), so the median latency moves
    smoothly with machine speed and barely with the seed.
    """

    name = "design_point"
    unit = "design point"
    TOL = 1e-10
    PWC_STEP_MM = 25.0 / 2000  # the cross-check's coarse step; 2000 steps at the reference length
    PROFILE_SAMPLES = 201
    DIAG_SAMPLES = 1000
    LENGTHS = (12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0, 40.0)  # stratum centres, mm

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.ref_outputs: dict | None = None
        self.count = 0

    def _points(self) -> Iterator[tuple[float, float, float]]:
        yield REF
        while True:
            for k in self.rng.permutation(len(self.LENGTHS)):
                u = [float(x) for x in self.rng.uniform(size=3)]
                yield (1.2 + 0.6 * u[0], 0.05 + 0.15 * u[1], self.LENGTHS[k] + 4.0 * (u[2] - 0.5))

    def _op(self, point) -> Op:
        pkg = self.pkg
        omega0, delta0, total = point
        index = self.count
        self.count += 1
        p_sta = pkg.schedules.ModelParams(omega0=omega0, delta0=delta0,
                                          half_length=total / 2.0, sta=True)
        p_raw = pkg.schedules.ModelParams(omega0=omega0, delta0=delta0,
                                          half_length=total / 2.0, sta=False)
        csv_path = self.workdir / "design_trajectory.csv"
        json_path = self.workdir / "design_summary.json"

        def run():
            co, sp, sc, prop, ser = pkg.coupler, pkg.splitter, pkg.schedules, pkg.propagation, pkg.serialize
            L = p_sta.half_length
            sta = co.simulate(p_sta, tol=self.TOL, project=True)
            raw = co.simulate(p_raw, tol=self.TOL)
            split = {mode: sp.simulate_splitter(sp.SplitterParams(p_sta, mode), tol=self.TOL)
                     for mode in ("direct", "reduced_cd")}
            h = co.build_h2(p_sta)
            up = np.array([1.0, 0.0], dtype=complex)
            steps = round(2 * L / self.PWC_STEP_MM)
            coarse = prop.propagate_pwc(h, up, -L, L, steps).final_state
            fine = prop.propagate_pwc(h, up, -L, L, 2 * steps).final_state
            diag = sc.diagnostics(p_sta, self.DIAG_SAMPLES)
            zs = np.linspace(-L, L, self.PROFILE_SAMPLES)
            profile = [sc.effective_schedule(p_sta, float(z), side=-1 if z == 0.0 else 0)
                       for z in zs]
            traj = sta.trajectory
            pops = sta.adiabatic_populations
            rows = [(z, i[0], i[1], q[0], q[1])
                    for z, i, q in zip(traj.z, traj.intensities, pops)]
            ser.write_csv(csv_path, ("z", "I1", "I2", "P_minus", "P_plus"), rows)
            summary = {
                "final_i2_sta": sta.final_i2, "final_i2_raw": raw.final_i2,
                "splitter": {m: list(r.final_intensities) for m, r in split.items()},
                "max_adiabaticity_ratio": diag.max_adiabaticity_ratio,
                "max_cd_ratio": diag.max_cd_ratio,
                "peak_omega_eff": max(s.omega_eff for s in profile),
            }
            ser.write_json(json_path, summary,
                           {"omega0": omega0, "delta0": delta0, "total_length": total})
            return {"sta": sta, "raw": raw, "split": split, "coarse": coarse, "fine": fine,
                    "diag": diag, "profile": profile, "rows": len(rows)}

        def check(out) -> list[str]:
            return self._check(index, point, out, csv_path, json_path)

        return Op(f"design point {index} {point}", 1, run, check)

    def _check(self, index, point, out, csv_path, json_path) -> list[str]:
        failures = []
        tol = self.TOL
        sta, raw, split = out["sta"], out["raw"], out["split"]
        for label, traj in [("sta", sta.trajectory), ("raw", raw.trajectory),
                            *((f"splitter {m}", r.trajectory) for m, r in split.items())]:
            if not traj.norm_drift <= DRIFT_FACTOR * tol:
                failures.append(f"{label} norm drift {traj.norm_drift:.3g}")
        for mode, r in split.items():
            states = r.trajectory.states
            leakage = float(np.max(np.abs(states[:, 0] - states[:, 2])))
            if not leakage <= LEAKAGE_MAX:
                failures.append(f"splitter {mode} dark leakage {leakage:.3g}")
            if not r.reduction_residual <= DRIFT_FACTOR * tol:
                failures.append(f"splitter {mode} reduction residual {r.reduction_residual:.3g}")
        pops = sta.adiabatic_populations
        if pops is None or pops.shape != (len(sta.trajectory.z), 2) \
                or not np.all(np.abs(pops.sum(axis=1) - 1.0) <= DRIFT_FACTOR * tol):
            failures.append("adiabatic populations do not sum to the norm")
        # pwc convergence cross-check against the adaptive result (acceptance 6)
        final = sta.trajectory.final_state
        e1 = float(np.max(np.abs(out["coarse"] - final)))
        e2 = float(np.max(np.abs(out["fine"] - final)))
        if not abs(e1 / e2 - 4.0) <= 0.3:
            failures.append(f"pwc convergence ratio {e1 / e2:.3f}, expected 4 +/- 0.3")
        pwc_i2 = float((4.0 * abs(out["fine"][1]) ** 2 - abs(out["coarse"][1]) ** 2) / 3.0)
        if not abs(pwc_i2 - sta.final_i2) <= DRIFT_FACTOR * tol:
            failures.append(f"adaptive and pwc I2 differ by {abs(pwc_i2 - sta.final_i2):.3g}")
        diag = out["diag"]
        if not (_finite([diag.max_adiabaticity_ratio, diag.max_cd_ratio])
                and diag.max_adiabaticity_ratio > 0):
            failures.append("diagnostics not finite")
        profile = out["profile"]
        if len(profile) != self.PROFILE_SAMPLES or not all(
                math.isfinite(s.omega_eff) and s.omega_eff >= s.omega for s in profile):
            failures.append("profile has non-finite or inconsistent points")
        failures += _check_csv(csv_path, ["z", "I1", "I2", "P_minus", "P_plus"], out["rows"],
                               last_value=(2, sta.final_i2))
        try:
            doc = json.loads(json_path.read_text())
            if doc["final_i2_sta"] != sta.final_i2 or "provenance" not in doc:
                failures.append("summary JSON does not round-trip")
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"summary JSON unreadable: {exc}")
        if point == REF:
            if not abs(sta.final_i2 - REF_I2) <= REF_I2_SLACK:
                failures.append(f"reference I2 {sta.final_i2!r} != {REF_I2} within {REF_I2_SLACK:g}")
            if self.ref_outputs is None:
                self.ref_outputs = {
                    "sta_i2": sta.final_i2, "raw_i2": raw.final_i2,
                    "split": {m: np.array(r.final_intensities) for m, r in split.items()},
                    "pwc_i2": pwc_i2,
                }
        return failures

    def warm_up(self) -> None:
        self._op((1.5, 0.1, 20.0)).run()

    def ops(self) -> Iterator[list[Op]]:
        """The reference point, then one group per cycle of length strata."""
        points = self._points()
        yield [self._op(next(points))]
        while True:
            yield [self._op(next(points)) for _ in self.LENGTHS]

    def fixed_ops(self, count: int = 9) -> list[Op]:
        points = self._points()
        return [self._op(next(points)) for _ in range(count)]

    def finish(self) -> list[str]:
        return []

    def oracle(self) -> tuple[float, list[str], dict]:
        if self.ref_outputs is None:
            return math.nan, ["reference point outputs missing"], {}
        pkg = self.pkg
        omega0, delta0, total = REF
        ref = self.ref_outputs
        errs = {}
        for sta_flag, key in ((True, "sta_i2"), (False, "raw_i2")):
            p = pkg.schedules.ModelParams(omega0, delta0, total / 2.0, sta_flag)
            oracle = richardson_pwc(pkg, pkg.coupler.build_h2(p), np.array([1, 0], complex),
                                    p.half_length)
            errs[key] = abs(ref[key] - oracle[1])
        p = pkg.schedules.ModelParams(omega0, delta0, total / 2.0, True)
        for mode, got in ref["split"].items():
            h = pkg.splitter.build_h3(pkg.splitter.SplitterParams(p, mode))
            oracle = richardson_pwc(pkg, h, np.array([0, 1, 0], complex), p.half_length)
            errs[f"splitter_{mode}"] = float(np.max(np.abs(got - oracle)))
        # the pwc result is checked against the adaptive backend at tol 1e-12
        fine = pkg.propagation.propagate_adaptive(pkg.coupler.build_h2(p), np.array([1, 0], complex),
                                                  -p.half_length, p.half_length, 1e-12)
        errs["pwc_i2"] = abs(ref["pwc_i2"] - float(fine.final_intensities[1]))
        return max(errs.values()), [], {"err_by_output": errs}


def _check_csv(path: Path, header: list[str] | int, rows: int | None,
               last_value: tuple[int, float] | None = None) -> list[str]:
    """A CSV file with the given header (or, for sweep grids whose header
    carries the x samples, the given column count) and numeric rows."""
    try:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        return [f"{path.name} unreadable: {exc}"]
    columns = header if isinstance(header, int) else len(header)
    if not table or (table[0] != header if isinstance(header, list) else len(table[0]) != columns):
        return [f"{path.name} header {table[0] if table else None} != {header}"]
    body = table[1:]
    if (rows is not None and len(body) != rows) or not body:
        return [f"{path.name} has {len(body)} rows, expected {rows}"]
    try:
        values = np.array([[float(v) for v in row] for row in body])
    except ValueError as exc:
        return [f"{path.name} has a non-numeric cell: {exc}"]
    if values.shape[1] != columns or not _finite(values):
        return [f"{path.name} has ragged or non-finite rows"]
    if last_value is not None and values[-1, last_value[0]] != last_value[1]:
        return [f"{path.name} last row does not round-trip {last_value[1]!r}"]
    return []


# ---------------------------------------------------------------------------
# cli_session


@dataclass
class CliResult:
    code: int
    out: str
    err: str


class CliSession:
    """A designer's session: sequential ``python -m sta_coupler.cli``
    commands covering all six subcommands, file outputs in CSV and JSON, a
    config file, the three threshold queries and one rejected input.  An
    operation is one command; its latency includes interpreter start."""

    name = "cli_session"
    unit = "command"
    TIMEOUT = 60.0
    SESSION_SECONDS = 20.0  # a timed run sends ceil(seconds / this) sessions: three at 50 s

    def __init__(self, pkg, seed: int, workdir: Path, env: dict | None = None):
        self.pkg = pkg
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.env = env
        self.sessions = 0
        self.ref_i2: float | None = None

    # one command: argv, expected exit code, checker(result) -> failures
    def _commands(self) -> list[tuple[str, list[str], int, Callable[[CliResult], list[str]]]]:
        s = self.sessions
        self.sessions += 1
        rng = self.rng
        u = [float(x) for x in rng.uniform(size=6)]
        omega0, delta0, total = 1.5 * (0.8 + 0.4 * u[0]), 0.05 + 0.15 * u[1], 25.0 * (0.8 + 0.4 * u[2])
        model = ["--omega0", repr(omega0), "--delta0", repr(delta0), "--total-length", repr(total)]
        ref = ["--omega0", repr(REF[0]), "--delta0", repr(REF[1]), "--total-length", repr(REF[2])]
        hi_x, hi_y, length = 5.0 * (0.96 + 0.08 * u[3]), 5.0 * (0.96 + 0.08 * u[4]), 10.0
        reach = 0.90 + 0.05 * u[5]
        d = self.workdir
        files = {k: d / f"s{s}_{k}" for k in ("profile.csv", "check.json", "simulate.csv",
                                               "splitter.json", "sweep_config.json",
                                               "sweep.json", "sweep.csv", "bad_config.json")}
        files["sweep_config.json"].write_text(json.dumps({"sweep": {
            "axis_x": f"omega0:0:{hi_x!r}:4", "axis_y": f"delta0:0:{hi_y!r}:4",
            "total_length": length, "sta": True, "tol": 1e-6, "metric": "final_i2"}}))
        files["bad_config.json"].write_text(json.dumps({"simulate": {
            "omega0": omega0, "delta0": delta0, "total_length": total, "steps": 100}}))
        acc = ["--omega0", "5", "--delta0", "1", "--tol", "1e-8"]
        return [
            # first, so that even the shortest run yields the result_err anchor
            ("simulate", ["simulate", *ref, "--sta", "--output", str(files["simulate.csv"])], 0,
             self._check_simulate(files["simulate.csv"])),
            ("profile", ["profile", *model, "--sta", "--samples", "400",
                         "--output", str(files["profile.csv"])], 0,
             lambda r: _check_csv(files["profile.csv"],
                                  ["z", "omega", "delta", "omega_a", "omega_eff", "delta_eff"], 400)),
            ("check", ["check", *model, "--sta", "--samples", "1000",
                       "--output", str(files["check.json"])], 0,
             lambda r: _check_json(files["check.json"], ["max_adiabaticity_ratio", "max_cd_ratio",
                                                         "bound_satisfied", "provenance"])),
            ("splitter", ["splitter", *model, "--sta", "--mode", "reduced_cd", "--format", "json",
                          "--output", str(files["splitter.json"])], 0,
             lambda r: _check_splitter_json(files["splitter.json"])),
            ("sweep json", ["sweep", "--config", str(files["sweep_config.json"]), "--format", "json",
                            "--output", str(files["sweep.json"])], 0,
             lambda r: _check_sweep_json(files["sweep.json"], 4, 4)),
            ("sweep csv", ["sweep", "--axis-x", f"omega0:0:{hi_x!r}:4", "--axis-y",
                           f"delta0:0:{hi_y!r}:4", "--total-length", repr(length), "--no-sta",
                           "--tol", "1e-6", "--output", str(files["sweep.csv"])], 0,
             lambda r: _check_csv(files["sweep.csv"], 5, 4)),
            ("threshold raw", ["threshold", *acc, "--no-sta", "--target", "0.99"], 0,
             lambda r: _check_threshold(r, 0.99, (1.15, 1.45))),
            ("threshold sta reachable", ["threshold", *acc, "--sta", "--target", repr(reach)], 0,
             lambda r: _check_threshold(r, reach, None)),
            ("threshold sta ceiling", ["threshold", *acc, "--sta", "--target", "0.99"], 3,
             lambda r: [] if "not reached" in r.err else [f"unexpected stderr {r.err!r}"]),
            ("rejected config", ["simulate", "--config", str(files["bad_config.json"])], 2,
             lambda r: [] if "unknown config keys" in r.err else [f"unexpected stderr {r.err!r}"]),
        ]

    def _check_simulate(self, path):
        def check(r):
            failures = _check_csv(path, ["z", "I1", "I2"], None)
            if failures:
                return failures
            with open(path, newline="") as fh:
                last = float(list(csv.reader(fh))[-1][2])
            if not abs(last - REF_I2) <= REF_I2_SLACK:
                return [f"reference I2 {last!r} != {REF_I2}"]
            self.ref_i2 = last
            return []
        return check

    def command_op(self, label, argv, expected, checker, runner) -> Op:
        def run():
            return runner(argv)

        def check(result: CliResult) -> list[str]:
            if result.code != expected:
                return [f"{label}: exit {result.code}, expected {expected}: {result.err.strip()[-300:]}"]
            return [f"{label}: {msg}" for msg in checker(result)]

        return Op(label, 1, run, check)

    def run_subprocess(self, argv) -> CliResult:
        proc = subprocess.run([sys.executable, "-m", "sta_coupler.cli", *argv],
                              cwd=self.workdir, env=self.env, capture_output=True, text=True,
                              timeout=self.TIMEOUT)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def run_in_process(self, argv) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.pkg.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects an argument
                code = exc.code if isinstance(exc.code, int) else 2
        return CliResult(code, out.getvalue(), err.getvalue())

    def session_ops(self, runner) -> list[Op]:
        return [self.command_op(label, argv, expected, checker, runner)
                for label, argv, expected, checker in self._commands()]

    def warm_up(self) -> None:
        self.run_subprocess(["check", "--omega0", "1.5", "--delta0", "0.1",
                             "--total-length", "25", "--sta"])

    def ops(self) -> Iterator[list[Op]]:
        """One group per session."""
        while True:
            yield self.session_ops(self.run_subprocess)

    def finish(self) -> list[str]:
        return []

    def oracle(self) -> tuple[float, list[str], dict]:
        if self.ref_i2 is None:
            return math.nan, ["reference simulate output missing"], {}
        pkg = self.pkg
        p = pkg.schedules.ModelParams(REF[0], REF[1], REF[2] / 2.0, True)
        oracle = richardson_pwc(pkg, pkg.coupler.build_h2(p), np.array([1, 0], complex),
                                p.half_length)
        return abs(self.ref_i2 - float(oracle[1])), [], {}


def _check_json(path: Path, keys: list[str]) -> list[str]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name} unreadable: {exc}"]
    missing = [k for k in keys if k not in doc]
    return [f"{path.name} lacks {missing}"] if missing else []


def _check_splitter_json(path: Path) -> list[str]:
    failures = _check_json(path, ["columns", "rows", "provenance"])
    if failures:
        return failures
    doc = json.loads(path.read_text())
    rows = np.array(doc["rows"], dtype=float)
    if doc["columns"] != ["z", "I1", "I2", "I3"] or rows.ndim != 2 or rows.shape[1] != 4 \
            or len(rows) < 2 or not _finite(rows):
        return [f"{path.name} malformed"]
    leak = float(np.max(np.abs(rows[:, 1] - rows[:, 3])))
    return [] if leak <= LEAKAGE_MAX else [f"outer-guide intensities differ by {leak:.3g}"]


def _check_sweep_json(path: Path, ny: int, nx: int) -> list[str]:
    failures = _check_json(path, ["axes", "grid", "provenance"])
    if failures:
        return failures
    grid = np.array(json.loads(path.read_text())["grid"], dtype=float)
    slack = DRIFT_FACTOR * 1e-6
    if grid.shape != (ny, nx) or not _finite(grid) or grid.min() < -slack or grid.max() > 1 + slack:
        return [f"{path.name} grid malformed"]
    return []


_THRESHOLD = re.compile(r"^([0-9.eE+-]+) mm \(metric ([0-9.eE+-]+)\)$")


def _check_threshold(r: CliResult, target: float, band) -> list[str]:
    m = _THRESHOLD.match(r.out.strip())
    if not m:
        return [f"unparsable threshold output {r.out!r}"]
    length, metric = float(m.group(1)), float(m.group(2))
    failures = []
    if not metric >= target:
        failures.append(f"metric {metric} below target {target}")
    if band is not None and not band[0] <= length <= band[1]:
        failures.append(f"threshold {length} mm outside {band}")
    return failures
