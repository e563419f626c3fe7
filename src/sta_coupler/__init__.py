"""Shortcut-to-adiabaticity waveguide coupler toolkit."""

import importlib

__version__ = "0.1.0"

# Each export is imported from its module on first access (PEP 562), so that
# importing the package, as every CLI command does, loads numpy only where a
# run integrates or returns an array.
_EXPORTS = {
    "schedules": ("Diagnostics", "ModelParams", "SchedulePoint", "adiabatic_transport",
                  "diagnostics", "drive", "effective_schedule", "schedule_grid"),
    "propagation": ("HamiltonianSpec", "Trajectory", "propagate_adaptive", "propagate_pwc"),
    "coupler": ("adiabatic_projection", "build_h2", "simulate"),
    "splitter": ("SplitterParams", "build_h3", "simulate_splitter"),
    "sweep": ("AxisSpec", "SweepSpec", "SweepResult", "ThresholdResult", "TargetNotReached",
              "run_sweep", "threshold_length"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
