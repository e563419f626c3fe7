"""Shortcut-to-adiabaticity waveguide coupler toolkit."""

__version__ = "0.1.0"

from .schedules import (  # noqa: F401
    Diagnostics,
    ModelParams,
    SchedulePoint,
    adiabatic_transport,
    diagnostics,
    drive,
    effective_schedule,
    schedule_grid,
)
from .propagation import (  # noqa: F401
    HamiltonianSpec,
    Trajectory,
    propagate_adaptive,
    propagate_pwc,
)
from .coupler import adiabatic_projection, build_h2, simulate  # noqa: F401
from .splitter import SplitterParams, build_h3, simulate_splitter  # noqa: F401
from .sweep import (  # noqa: F401
    AxisSpec,
    SweepSpec,
    SweepResult,
    ThresholdResult,
    TargetNotReached,
    run_sweep,
    threshold_length,
)
