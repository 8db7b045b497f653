"""Small input-validation helpers used by the domain types."""

import math

import numpy as np


def require_positive(name: str, value) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def require_nonnegative(name: str, value) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite nonnegative number, got {value!r}")


def require_finite(name: str, value) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def require_positive_array(name: str, values) -> None:
    """require_positive for every entry of a numeric array, checked at once."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold finite positive numbers, "
                         f"got dtype {values.dtype}")
    bad = ~(np.isfinite(values) & (values > 0))
    if bad.any():
        raise ValueError(f"{name} must be a finite positive number, "
                         f"got {values[bad][0].item()!r}")
