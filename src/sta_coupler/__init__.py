"""Shortcut-to-adiabaticity waveguide coupler toolkit."""

__version__ = "0.1.0"

from .schedules import (  # noqa: F401
    Diagnostics,
    GeometryCalibration,
    ModelParams,
    SchedulePoint,
    diagnostics,
    drive,
    effective_schedule,
    geometry_synthesis,
    schedule_grid,
)
from .propagation import (  # noqa: F401
    HamiltonianSpec,
    Trajectory,
    propagate_adaptive,
    propagate_pwc,
)
from .coupler import CouplerResult, adiabatic_projection, build_h2, simulate  # noqa: F401
from .splitter import (  # noqa: F401
    SplitterParams,
    SplitterResult,
    build_h3,
    reduce_bright_dark,
    simulate_splitter,
)
from .sweep import (  # noqa: F401
    AxisSpec,
    SweepSpec,
    SweepResult,
    ThresholdResult,
    TargetNotReached,
    robust_region_fraction,
    run_sweep,
    threshold_length,
)
