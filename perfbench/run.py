"""Benchmark for the sta_coupler package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs each operation of a fixed, seeded list twice in turn, plain
and with spans hooked into every layer, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit and record the run context.  Full results, including
spans, go to ``.bench_out/`` in the checkout.

The package is imported from ``src/`` of the checkout and nowhere else; when
it is missing the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One compute thread per process keeps the load within two cores; it must be
# set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import itertools
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from importlib import metadata
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep_grid", "design_point", "cli_session")
MODULES = ("schedules", "propagation", "coupler", "splitter", "sweep", "serialize", "cli")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB", "result_err": "abs",
}
PER_LAYER_UNITS = {
    "schedules.calls": "count", "schedules.us_per_call": "us", "schedules.self_s": "s",
    "schedules.diagnostics_s": "s",
    "propagation.adaptive_calls": "count", "propagation.nfev": "count",
    "propagation.us_per_rhs": "us", "propagation.matrix_calls": "count",
    "propagation.matrix_self_s": "s", "propagation.norm_drift_max": "abs",
    "propagation.pwc_steps": "count", "propagation.us_per_pwc_step": "us",
    "coupler.simulate_self_s": "s", "coupler.projection_s": "s",
    "splitter.calls": "count", "splitter.nfev_full": "count",
    "splitter.nfev_reduced": "count", "splitter.self_s": "s",
    "sweep.cells": "count", "sweep.degenerate_cells": "count", "sweep.cell_ms_p50": "ms",
    "sweep.run_sweep_self_s": "s", "sweep.pool_slowdown": "ratio",
    "sweep.threshold_evals": "count", "sweep.threshold_useful_ratio": "ratio",
    "serialize.bytes": "B", "serialize.write_s": "s",
    "cli.main_s": "s", "cli.startup_s": "s", "import.scipy_s": "s",
    "trace.overhead_ratio": "ratio", "trace.untraced_hooks": "count",
}


class PackageMissing(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_package():
    """Import sta_coupler from this checkout's src/ only."""
    if not (SRC / "sta_coupler" / "__init__.py").is_file():
        raise PackageMissing(f"no package at {SRC / 'sta_coupler'}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("sta_coupler")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise PackageMissing(f"sta_coupler imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"sta_coupler.{m}")
                                    for m in MODULES})


def make_workload(name: str, pkg, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "sweep_grid":
        return workloads.SweepGrid(pkg, seed, workdir)
    if name == "design_point":
        return workloads.DesignPoint(pkg, seed, workdir)
    return workloads.CliSession(pkg, seed, workdir, env=child_env())


# -- measuring ----------------------------------------------------------------

def run_ops(ops):
    """Closed loop: run each operation, time it, then check its output."""
    outcomes = []
    for op in ops:
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising operation is counted as failed
            outcomes.append(workloads.Outcome(op, perf_counter() - t0,
                                              [f"{op.name}: {type(exc).__name__}: {exc}"]))
            continue
        dt = perf_counter() - t0
        try:
            failures = op.check(result)
        except Exception as exc:
            failures = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
        outcomes.append(workloads.Outcome(op, dt, failures))
    return outcomes


def run_timed(groups, seconds: float):
    """Run whole groups of operations until ``seconds`` of operation time
    have been measured."""
    outcomes = []
    busy = 0.0
    for group in groups:
        if busy >= seconds:
            break
        done = run_ops(group)
        busy += sum(o.seconds for o in done)
        outcomes += done
    return outcomes


def failed_units(outcomes) -> int:
    return sum(min(len(o.failures), o.op.units) for o in outcomes)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh-interpreter set-up time: import, inputs and one warm-up op."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", workload, "--seed", str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        samples.append(ready - start)
    return samples


def setup_probe(workload: str, seed: int) -> None:
    pkg = None if workload == "cli_session" else load_package()
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    try:
        wl = make_workload(workload, pkg, seed, workdir)
        next(wl.ops())  # generates the first inputs
        wl.warm_up()
        ready = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ready": ready}))


def untraced_run(workload: str, seed: int, seconds: float, pkg, workdir: Path) -> dict:
    setup = measure_setup(workload, seed)
    wl = make_workload(workload, pkg, seed, workdir)
    wl.warm_up()
    groups = wl.ops()
    if workload == "cli_session":
        # A whole number of sessions keeps the command mix, and with it the
        # tail percentile's sample count, the same in every run.
        groups = itertools.islice(groups, math.ceil(seconds / wl.SESSION_SECONDS))
        seconds = math.inf
    outcomes = run_timed(groups, seconds)
    if workload == "cli_session":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finish_failures = wl.finish()
    result_err, oracle_failures, oracle_details = wl.oracle()

    units = sum(o.op.units for o in outcomes)
    busy = sum(o.seconds for o in outcomes)
    latencies = [1e3 * o.seconds / o.op.units for o in outcomes]
    tail_ms, tail_pct = tail(latencies)
    if not math.isfinite(result_err):
        # no anchor output: report the largest possible intensity deviation
        oracle_failures = oracle_failures or [f"result_err not computed ({result_err})"]
        result_err = 1.0
    failures = [f for o in outcomes for f in o.failures] + finish_failures + oracle_failures
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": units / busy,
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_kb / 1024.0,
        "result_err": result_err,
    }
    return {
        "metrics": metrics,
        "attempted": units,
        "failed": failed_units(outcomes) + len(finish_failures) + len(oracle_failures),
        "failures": failures,
        "details": {
            "operation": wl.unit, "operations": len(outcomes), "units": units,
            "measured_s": busy, "setup_samples_s": setup,
            "tail_percentile": tail_pct, "latency_samples": len(latencies),
            "oracle": oracle_details,
            "operations_ms": [[o.op.name, round(1e3 * o.seconds, 3)] for o in outcomes],
        },
        "correct": not failures,
    }


# -- tracing ------------------------------------------------------------------

def scipy_import_seconds() -> float:
    """Cumulative import time of the scipy modules ``import sta_coupler``
    pulls in, from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sta_coupler"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
    entries = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)), int(m.group(2)), m.group(4)))
    # Lines are printed children first; walk them backwards so each line's
    # ancestors are on the stack, and count scipy modules not under another.
    total_us, stack = 0, []
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(anc_is_scipy for _, anc_is_scipy in stack):
            total_us += cumulative
        stack.append((depth, is_scipy))
    return total_us / 1e6


def pool_slowdown(wl, pkg) -> float:
    """Wall time of one sub-grid at workers=2 over workers=1, alternating."""
    spec = wl.pool_subgrid()
    times = {1: [], 2: []}
    for workers in (1, 2, 1, 2):
        t0 = perf_counter()
        pkg.sweep.run_sweep(spec, workers=workers)
        times[workers].append(perf_counter() - t0)
    return statistics.median(times[2]) / statistics.median(times[1])


def layer_metrics(tr) -> dict:
    agg = tr.agg
    c = tr.counters

    def a(name, field):
        item = agg.get(name)
        return getattr(item, field) if item is not None else 0

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    sched_calls = tr.layer_calls.get("schedules", 0)
    adaptive_net = a("propagation.propagate_adaptive", "total") \
        - a("propagation.propagate_adaptive", "sched_below")
    evals = sum(t["evals"] for t in tr.thresholds)
    useful = sum(t["useful"] for t in tr.thresholds)
    cells = sorted(tr.cell_durations)
    return {
        "schedules.calls": sched_calls,
        "schedules.us_per_call": per(tr.layer_total.get("schedules", 0.0), sched_calls, 1e6),
        "schedules.self_s": tr.layer_self.get("schedules", 0.0),
        "schedules.diagnostics_s": a("schedules.diagnostics", "total"),
        "propagation.adaptive_calls": a("propagation.propagate_adaptive", "calls"),
        "propagation.nfev": c["nfev"],
        "propagation.us_per_rhs": per(adaptive_net, c["nfev"], 1e6),
        "propagation.matrix_calls": a("propagation.matrix", "calls"),
        "propagation.matrix_self_s": a("propagation.matrix", "self_time"),
        "propagation.norm_drift_max": c["norm_drift_max"],
        "propagation.pwc_steps": c["pwc_steps"],
        "propagation.us_per_pwc_step": per(a("propagation.propagate_pwc", "total"),
                                           c["pwc_steps"], 1e6),
        "coupler.simulate_self_s": a("coupler.simulate", "self_time"),
        "coupler.projection_s": a("coupler.adiabatic_projection", "total"),
        "splitter.calls": a("splitter.simulate_splitter", "calls"),
        "splitter.nfev_full": c["nfev_full"],
        "splitter.nfev_reduced": c["nfev_reduced"],
        "splitter.self_s": tr.layer_self.get("splitter", 0.0),
        "sweep.cells": c["cells"],
        "sweep.degenerate_cells": c["degenerate_cells"],
        "sweep.cell_ms_p50": 1e3 * statistics.median(cells) if cells else 0.0,
        "sweep.run_sweep_self_s": a("sweep.run_sweep", "self_time"),
        "sweep.threshold_evals": evals,
        "sweep.threshold_useful_ratio": per(useful, evals),
        "serialize.bytes": c["serialize_bytes"],
        "serialize.write_s": tr.layer_total.get("serialize", 0.0),
        "trace.untraced_hooks": len(tr.untraced),
    }


def traced_run(workload: str, seed: int, pkg, workdir: Path) -> dict:
    extra = {"sweep.pool_slowdown": 0.0, "cli.main_s": 0.0, "cli.startup_s": 0.0}
    plain = make_workload(workload, pkg, seed, workdir)
    traced = make_workload(workload, pkg, seed, workdir)
    plain.warm_up()
    outcomes = []
    if workload == "cli_session":
        sub = make_workload(workload, pkg, seed, workdir)
        sub_out = run_ops(sub.session_ops(sub.run_subprocess))
        outcomes += sub_out
        plain_ops = plain.session_ops(plain.run_in_process)
        traced_ops = traced.session_ops(traced.run_in_process)
    else:
        plain_ops, traced_ops = plain.fixed_ops(), traced.fixed_ops()

    # Plain and traced copies of each operation alternate, so that a change
    # in machine speed affects both sides of the overhead ratio alike.
    tr = Tracer()
    plain_out, traced_out = [], []
    for i, (plain_op, traced_op) in enumerate(zip(plain_ops, traced_ops)):
        plain_out += run_ops([plain_op])
        tr.op_id = i
        with tr:
            traced_out += run_ops([traced_op])
    outcomes += plain_out + traced_out
    finish_failures = plain.finish() + traced.finish()
    extra["trace.overhead_ratio"] = (sum(o.seconds for o in traced_out)
                                     / sum(o.seconds for o in plain_out))
    if workload == "cli_session":
        n = len(plain_out)
        extra["cli.main_s"] = sum(o.seconds for o in plain_out) / n
        extra["cli.startup_s"] = (sum(o.seconds for o in sub_out)
                                  - sum(o.seconds for o in plain_out)) / n
    if workload == "sweep_grid":
        extra["sweep.pool_slowdown"] = pool_slowdown(plain, pkg)
    extra["import.scipy_s"] = scipy_import_seconds()
    metrics = layer_metrics(tr) | extra
    metrics = {name: metrics[name] for name in PER_LAYER_UNITS}
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    tr.dump(trace_path)
    failures = [f for o in outcomes for f in o.failures] + finish_failures
    return {
        "metrics": metrics,
        "attempted": sum(o.op.units for o in outcomes),
        "failed": failed_units(outcomes) + len(finish_failures),
        "failures": failures,
        "details": {"untraced_hooks": tr.untraced, "trace_file": str(trace_path.relative_to(ROOT)),
                    "spans_kept": len(tr.spans), "spans_aggregated_only": tr.dropped_spans,
                    "thresholds": tr.thresholds},
        "correct": not failures,
    }


# -- context and output -------------------------------------------------------

def run_context(args) -> dict:
    ctx = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(), "cpu_model": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
        "git_commit": None, "git_dirty": None, "src_sha256": src_digest(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    ctx["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True)
        if head.returncode == 0:
            ctx["git_commit"] = head.stdout.strip()
            ctx["git_dirty"] = bool(status.stdout.strip())
    return ctx


def src_digest() -> str:
    """Content hash of the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sta_coupler").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def report(workload: str, result: dict, units: dict, context: dict) -> dict:
    for name, value in result["metrics"].items():
        print(f"# {workload} {name} = {value:.6g} {units[name]}")
    details = result["details"]
    if "tail_percentile" in details:
        print(f"# {workload} op_tail_ms is p{details['tail_percentile']:.1f} of "
              f"{details['latency_samples']} samples; one operation is one {details['operation']}")
    if details.get("untraced_hooks"):
        print(f"# {workload} untraced hooks: {', '.join(details['untraced_hooks'])}")
    for failure in result["failures"][:20]:
        print(f"# FAILED {failure}")
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{workload}-seed{context['seed']}-trace{context['trace']}.json"
    path.write_text(json.dumps({**final, "context": context, "details": details,
                                "failures": result["failures"]}, indent=2, default=str))
    return final


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="operation time measured by an untraced run; it ends "
                             "with the group of operations in progress")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.workload == "all":
            return run_all(args)
        pkg = load_package()
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    context = run_context(args)
    print(f"# context {json.dumps(context)}")
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, pkg, workdir)
            context["trace_overhead_ratio"] = result["metrics"]["trace.overhead_ratio"]
            units = PER_LAYER_UNITS
        else:
            result = untraced_run(args.workload, args.seed, args.seconds, pkg, workdir)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report(args.workload, result, units, context)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
