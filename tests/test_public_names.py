"""The public surface: the names ``sta_coupler`` exports and each module's
``__all__``.  A change that adds or drops a public name edits these lists,
so the count of public names per change is read off this file."""

import importlib
import pkgutil
import types

import pytest

import sta_coupler

PACKAGE = [
    "AxisSpec", "CouplerResult", "Diagnostics", "GeometryCalibration",
    "HamiltonianSpec", "ModelParams", "SchedulePoint", "SplitterParams",
    "SplitterResult", "SweepResult", "SweepSpec", "TargetNotReached",
    "ThresholdResult", "Trajectory", "adiabatic_projection", "build_h2",
    "build_h3", "diagnostics", "drive", "effective_schedule",
    "geometry_synthesis", "propagate_adaptive", "propagate_pwc",
    "reduce_bright_dark", "robust_region_fraction", "run_sweep",
    "schedule_grid", "simulate", "simulate_splitter", "threshold_length",
]

# None: the module's interface is the command line, which test_cli pins
MODULES = {
    "cli": None,
    "coupler": ["CouplerResult", "adiabatic_projection", "build_h2", "simulate"],
    "propagation": ["HamiltonianSpec", "StiffnessError", "Trajectory",
                    "propagate_adaptive", "propagate_pwc"],
    "schedules": ["CalibrationDomainError", "Diagnostics", "DiscontinuityError",
                  "GeometryCalibration", "ModelParams", "SchedulePoint",
                  "diagnostics", "drive", "effective_schedule",
                  "geometry_synthesis", "schedule_grid"],
    "serialize": ["format_float", "write_csv", "write_json"],
    "splitter": ["SplitterParams", "SplitterResult", "build_h3",
                 "reduce_bright_dark", "simulate_splitter"],
    "sweep": ["AxisSpec", "SweepResult", "SweepSpec", "TargetNotReached",
              "ThresholdResult", "metric_value", "robust_region_fraction",
              "run_sweep", "threshold_length"],
}


def test_package_exports():
    names = [n for n, v in vars(sta_coupler).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert sorted(names) == PACKAGE


def test_modules():
    assert sorted(m.name for m in pkgutil.iter_modules(sta_coupler.__path__)) == list(MODULES)


@pytest.mark.parametrize("module", list(MODULES))
def test_module_all(module):
    names = getattr(importlib.import_module(f"sta_coupler.{module}"), "__all__", None)
    assert (names and sorted(names)) == MODULES[module]
