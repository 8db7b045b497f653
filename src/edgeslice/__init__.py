"""Deterministic multi-region edge-computing simulator with prediction-assisted
slice rentals and a twin-critic offloading agent, plus baselines and exact
small-instance oracles."""

from .env import (AllocationAction, EconParams, RadioParams, RegionCatalog,
                  RegionState, ResourceCatalog, SliceDecision, TaskSpec,
                  TimingBreakdown, horizon_profit, rented_and_cost, settle,
                  step, task_timing, uplink_rate)
from .errors import (ConfigError, ConstraintViolation, DivergenceError,
                     EdgesliceError, InfeasibleSliceError, InfeasibleUploadError)

__all__ = [
    "AllocationAction", "EconParams", "RadioParams", "RegionCatalog",
    "RegionState", "ResourceCatalog", "SliceDecision", "TaskSpec",
    "TimingBreakdown", "horizon_profit", "rented_and_cost", "settle",
    "step", "task_timing", "uplink_rate",
    "ConfigError", "ConstraintViolation", "DivergenceError", "EdgesliceError",
    "InfeasibleSliceError", "InfeasibleUploadError",
]

__version__ = "0.1.0"
