"""Smoke check for the benchmark itself; it measures nothing.

    python3 perfbench/smoke.py

It is named so that a bare ``pytest`` from the repository root does not
collect it.  It checks that:

* ``BENCHMARK.json`` declares the workloads and metrics that run.py reports;
* the tracer reports a hook whose target is gone as untraced and restores
  every original binding when it is removed;
* each workload runs briefly, reports every end-to-end metric and ends its
  output with the result object, with no failed operation;
* in a directory that holds only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import HOOKS, Tracer  # noqa: E402


def check_tracer() -> None:
    pkg = run.load_package()
    before = {name: dict(vars(getattr(pkg, name))) for name in run.MODULES}
    matrix = pkg.propagation.HamiltonianSpec.matrix
    tracer = Tracer(HOOKS + [("sta_coupler.schedules:no_such_function", "schedules", False),
                             ("sta_coupler.no_such_module:f", "schedules", False)])
    with tracer:
        assert pkg.coupler.simulate is not before["coupler"]["simulate"]
        pkg.coupler.simulate(pkg.schedules.ModelParams(1.5, 0.1, 2.0, True), tol=1e-6)
    assert tracer.untraced == ["sta_coupler.schedules:no_such_function",
                               "sta_coupler.no_such_module:f"], tracer.untraced
    assert tracer.counters["nfev"] > 0 and tracer.agg["propagation.matrix"].calls > 0
    for name in run.MODULES:
        module = vars(getattr(pkg, name))
        assert all(module[k] is v for k, v in before[name].items()), name
    assert pkg.propagation.HamiltonianSpec.matrix is matrix
    print("tracer: ok")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_declaration() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(w["name"] for w in doc["workloads"]) <= set(run.WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in doc[key]} == units, key
    print("BENCHMARK.json: ok")


def check_workloads() -> None:
    for workload in run.WORKLOADS:
        proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS), result["metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
        for name, unit in run.END_TO_END_UNITS.items():
            assert any(line.startswith(f"# {workload} {name} = ") and line.endswith(f" {unit}")
                       for line in lines), name
        print(f"{workload}: ok")


def check_without_package() -> None:
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = run_bench(bare, "--workload", "sweep_grid", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("without package: ok")


if __name__ == "__main__":
    check_declaration()
    check_tracer()
    check_without_package()
    check_workloads()
