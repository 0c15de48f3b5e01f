"""Monte Carlo sweep harness: declarative experiments, threshold
estimation, and packaged presets."""

from .presets import (
    PRESET_NAMES,
    PRESET_SLACKS,
    deterministic_lower_bound_check,
    geometric_grid,
    reference_formulas,
    theorem_preset,
)
from .sweep import (
    GENERATORS,
    PROPERTIES,
    GridPointResult,
    SweepConfig,
    SweepResult,
    run_sweep,
    wilson_interval,
)
from .threshold import ThresholdEstimate, estimate_threshold

__all__ = [
    "SweepConfig",
    "SweepResult",
    "GridPointResult",
    "run_sweep",
    "wilson_interval",
    "GENERATORS",
    "PROPERTIES",
    "ThresholdEstimate",
    "estimate_threshold",
    "theorem_preset",
    "reference_formulas",
    "deterministic_lower_bound_check",
    "geometric_grid",
    "PRESET_NAMES",
    "PRESET_SLACKS",
]
