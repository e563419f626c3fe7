"""The public surface: the names ``sta_coupler`` exports and each module's
``__all__``.  A change that adds or drops a public name edits these lists,
so the count of public names per change is read off this file.  The
README's "Python use" block is run as written, so the documented use
stays inside that surface."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import sta_coupler

PACKAGE = [
    "AxisSpec", "Diagnostics",
    "HamiltonianSpec", "ModelParams", "SchedulePoint", "SplitterParams",
    "SweepResult", "SweepSpec", "TargetNotReached",
    "ThresholdResult", "Trajectory", "adiabatic_projection", "adiabatic_transport",
    "build_h2",
    "build_h3", "diagnostics", "drive", "effective_schedule",
    "propagate_adaptive", "propagate_pwc", "run_sweep",
    "schedule_grid", "simulate", "simulate_splitter", "threshold_length",
]

# None: the module's interface is the command line, which test_cli pins
MODULES = {
    "cli": None,
    "coupler": ["adiabatic_projection", "build_h2", "simulate"],
    "propagation": ["HamiltonianSpec", "StiffnessError", "Trajectory",
                    "propagate_adaptive", "propagate_pwc"],
    "schedules": ["Diagnostics", "ModelParams", "SchedulePoint", "adiabatic_transport",
                  "diagnostics", "drive", "effective_schedule", "schedule_grid"],
    "serialize": ["format_float", "write_csv", "write_json"],
    "splitter": ["SplitterParams", "build_h3", "simulate_splitter"],
    "sweep": ["AxisSpec", "SweepResult", "SweepSpec", "TargetNotReached",
              "ThresholdResult", "metric_value", "run_sweep", "threshold_length"],
}


def test_package_exports():
    # the exports resolve on first access, so dir() lists them and getattr loads them
    names = [n for n in dir(sta_coupler)
             if not n.startswith("_") and not isinstance(getattr(sta_coupler, n), types.ModuleType)]
    assert names == PACKAGE


def test_modules():
    assert sorted(m.name for m in pkgutil.iter_modules(sta_coupler.__path__)) == list(MODULES)


@pytest.mark.parametrize("module", list(MODULES))
def test_module_all(module):
    names = getattr(importlib.import_module(f"sta_coupler.{module}"), "__all__", None)
    assert (names and sorted(names)) == MODULES[module]


def test_readme_python_use():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Python use\n+```python\n(.*?)^```$", readme, re.S | re.M)[1]
    names = {}
    exec(block, names)
    # the values the block's comments state
    assert round(names["i2"], 6) == 0.998771
    assert round(names["infidelity"], 6) == 0.005867
    assert names["pops"].shape == (len(names["traj"].z), 2) == (87, 2)
