"""Exception types shared across the package.

CLI exit-code mapping: ConfigError and CheckpointError -> 2,
InfeasibleSliceError -> 3, DivergenceError -> 4, OSError while writing
outputs -> 5, ConstraintViolation -> 6.
"""


class EdgesliceError(Exception):
    """Base class for package errors."""


class ConfigError(EdgesliceError):
    """Bad configuration file or field value."""


class CheckpointError(EdgesliceError, ValueError):
    """A checkpoint file is missing, unreadable, truncated or malformed."""


class ConstraintViolation(EdgesliceError):
    """A renting/allocation constraint (option index, budget, VM range) is broken."""


class InfeasibleSliceError(EdgesliceError):
    """No rentable option combination can cover the demanded resources."""

    def __init__(self, region: int, resource: str, demand: float, capacity: float):
        self.region = region
        self.resource = resource
        self.demand = demand
        self.capacity = capacity
        self.shortfall = demand - capacity
        super().__init__(
            f"region {region}: {resource} demand {demand:.6g} exceeds the largest "
            f"rentable capacity {capacity:.6g} (shortfall {self.shortfall:.6g})"
        )


class InfeasibleUploadError(EdgesliceError):
    """A task with data to upload was given zero bandwidth."""


class DivergenceError(EdgesliceError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, message: str, curves=None):
        super().__init__(message)
        self.curves = curves if curves is not None else []
