"""Versioned text checkpoint format shared by all trainable models.

Layout (all lines UTF-8 text):

    EDGESLICE-CKPT-V1
    <one-line JSON metadata object>
    <array name> <dtype> <dim0> <dim1> ...
    <base64 of the array's C-order bytes>
    ... (one name/payload pair per array)

Readers must reject files whose first line is not the magic string.
"""

from __future__ import annotations

import base64
import json
import math
import os

import numpy as np

from .errors import CheckpointError

MAGIC = "EDGESLICE-CKPT-V1"


def save_arrays(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named float arrays plus a JSON metadata header atomically."""
    lines = [MAGIC, json.dumps(meta or {}, sort_keys=True)]
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        # Header carries the original shape; 0-d stays 0-d on reload.
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"{name} {arr.dtype.name} {dims}".rstrip())
        payload = np.ascontiguousarray(arr).tobytes()
        lines.append(base64.b64encode(payload).decode("ascii"))
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_arrays(path):
    """Read a checkpoint; returns (arrays dict, metadata dict).

    Raises CheckpointError naming the path for a missing or unreadable
    file, a bad magic line or JSON header, a name line without its payload
    line, and a payload whose byte count does not match its header."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"{path}: not an {MAGIC} checkpoint")
    try:
        meta = json.loads(lines[1]) if len(lines) > 1 else None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: bad JSON metadata header: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata header is missing or not a JSON object")
    arrays = {}
    i = 2
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        if i + 1 >= len(lines):
            raise CheckpointError(f"{path}: array line {lines[i]!r} has no "
                                  f"payload line (truncated file?)")
        header = lines[i].split()
        try:
            name, dtype = header[0], np.dtype(header[1])
            shape = tuple(int(d) for d in header[2:])
            raw = base64.b64decode(lines[i + 1], validate=True)
        except (IndexError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: bad array entry {lines[i]!r}: {exc}") from exc
        expected = dtype.itemsize * math.prod(shape)
        if len(raw) != expected:
            raise CheckpointError(
                f"{path}: array {name!r} has {len(raw)} payload bytes, "
                f"its header shape {shape} needs {expected}")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        i += 2
    return arrays, meta


def check_array(path, name: str, array: np.ndarray, shape: tuple) -> None:
    """Raise CheckpointError naming a loaded array whose dtype is not float32
    or float64, whose shape is not the one its checkpoint's own
    configuration builds, or which holds a non-finite value."""
    if array.dtype not in (np.float32, np.float64):
        raise CheckpointError(f"{path}: array {name!r} has dtype {array.dtype.name}, "
                              f"expected float32 or float64")
    if array.shape != tuple(shape):
        raise CheckpointError(f"{path}: array {name!r} has shape {array.shape}, "
                              f"its configuration builds {tuple(shape)}")
    if not np.isfinite(array).all():
        raise CheckpointError(f"{path}: array {name!r} holds a non-finite value")
