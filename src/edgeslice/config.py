"""JSON configuration: defaults, parsing and validation.

A config file may specify any subset of the keys below; omitted keys take
the defaults.  The ``radio``, ``econ``, ``forecaster`` and ``agent`` defaults
are those of ``RadioParams``, ``EconParams``, ``ForecastConfig`` (plus the
forecaster's training ``lr`` and ``epochs``) and ``AgentHyperparams``.

``_merge`` types every given value by its default: a number must be a finite
JSON number (not a boolean), an integer field needs an integral value, and a
list field needs a list whose entries follow the default's entries.  A value
that does not fit raises ``ConfigError`` naming its dotted path, for example
``agent.hidden[1]``.  The catalog template is replicated across regions.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import asdict, dataclass, fields

from .agent import AgentHyperparams
from .env import EconParams, RadioParams, RegionCatalog, ResourceCatalog
from .errors import ConfigError
from .forecasting import ForecastConfig

DEFAULT_CONFIG = {
    "horizon": 20,          # long slots per run
    "short_slots": 10,      # short slots per long slot
    "regions": 3,
    "n_max": 10,            # per-region user padding bound
    "slot_duration": 1.0,   # seconds per short slot
    "seed": 0,
    "kappa_up": 0.5,        # deadline share reserved for uploads when sizing demand
    "kappa_exe": 0.5,       # deadline share reserved for execution
    "radio": asdict(RadioParams()),
    "econ": asdict(EconParams()),
    "traffic": {
        "base": 6.0,
        "amplitude": 3.0,
        "period": 10.0,
        "noise_std": 1.0,
    },
    "tasks": {
        "data_size": [8e5, 2.4e6],        # bits
        "compute_density": [100.0, 300.0],  # cycles/bit
        "priorities": [1.0, 2.0, 3.0],
        "priority_probs": [0.5, 0.3, 0.2],
        "distance": [50.0, 200.0],        # meters
    },
    "catalog": {
        "vm_frequency": 2e9,
        # (capacity Hz, cost) and (VM count, cost); the cheapest pair cannot
        # serve peak load, the largest covers the n_max-user worst case.
        "bandwidth_options": [[2.0e6, 80.0], [6.0e6, 200.0], [14.0e6, 440.0]],
        "vm_options": [[1, 60.0], [2, 110.0], [4, 210.0]],
    },
    "forecaster": {**asdict(ForecastConfig()), "lr": 1e-3, "epochs": 30},
    "agent": asdict(AgentHyperparams()),
}


@dataclass
class Config:
    """Validated run configuration with constructed domain objects."""

    raw: dict
    horizon: int
    short_slots: int
    regions: int
    n_max: int
    slot_duration: float
    seed: int
    kappa_up: float
    kappa_exe: float
    radio: RadioParams
    econ: EconParams
    traffic: dict
    tasks: dict
    catalog: ResourceCatalog
    forecaster: ForecastConfig
    forecaster_lr: float
    forecaster_epochs: int
    agent: AgentHyperparams

    @property
    def vm_frequency(self) -> float:
        return self.catalog.regions[0].vm_frequency


def _merge(defaults: dict, overrides: dict, path="") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config field {where!r}")
        merged[key] = _typed(defaults[key], value, where)
    return merged


def _typed(default, value, where: str):
    """`value` cast to the type of `default`; ConfigError names `where`."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"field {where!r} must be an object")
        return _merge(default, value, where)
    if isinstance(default, (list, tuple)):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"field {where!r} must be a list")
        return [_typed(default[min(i, len(default) - 1)], v, f"{where}[{i}]")
                for i, v in enumerate(value)]
    # The bound rejects NaN, infinities and ints too large for a float.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"field {where!r} must be a finite number, got {value!r}")
    if isinstance(default, int):
        if value != int(value):
            raise ConfigError(f"field {where!r} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def require_seed(seed: int, label: str) -> None:
    """Seeds feed numpy's SeedSequence, which accepts only integers >= 0."""
    _require(seed >= 0, f"{label} must be >= 0, got {seed}")


def _ordered_range(name: str, pair) -> tuple:
    _require(len(pair) == 2, f"field {name!r} must be a [low, high] pair")
    lo, hi = pair
    _require(0 < lo <= hi, f"field {name!r} bounds must satisfy 0 < low <= high")
    return lo, hi


def build_config(document: dict) -> Config:
    """Validate a merged document and construct the domain objects."""
    doc = _merge(DEFAULT_CONFIG, document)
    for name in ("horizon", "short_slots", "regions", "n_max"):
        _require(doc[name] >= 1, f"field {name!r} must be >= 1")
    require_seed(doc["seed"], "field 'seed'")
    _require(doc["slot_duration"] > 0, "field 'slot_duration' must be positive")
    for name in ("kappa_up", "kappa_exe"):
        _require(0.0 < doc[name] < 1.0, f"field {name!r} must lie in (0, 1)")
    _require(doc["kappa_up"] + doc["kappa_exe"] <= 1.0,
             "fields 'kappa_up' + 'kappa_exe' must not exceed 1")

    tasks = doc["tasks"]
    task_spec = {name: _ordered_range(f"tasks.{name}", tasks[name])
                 for name in ("data_size", "compute_density", "distance")}
    task_spec["priorities"] = tuple(tasks["priorities"])
    task_spec["priority_probs"] = tuple(tasks["priority_probs"])
    _require(len(task_spec["priorities"]) == len(task_spec["priority_probs"]),
             "fields 'tasks.priorities' and 'tasks.priority_probs' must align")
    _require(all(p >= 0 for p in task_spec["priority_probs"]),
             "field 'tasks.priority_probs' entries must be >= 0")
    _require(abs(sum(task_spec["priority_probs"]) - 1.0) < 1e-9,
             "field 'tasks.priority_probs' must sum to 1")
    _require(all(p > 0 for p in task_spec["priorities"]),
             "field 'tasks.priorities' entries must be positive")

    traffic = doc["traffic"]
    for name in ("base", "amplitude", "noise_std"):
        _require(traffic[name] >= 0, f"field 'traffic.{name}' must be >= 0")
    _require(traffic["period"] > 0, "field 'traffic.period' must be positive")

    cat = doc["catalog"]
    for name in ("bandwidth_options", "vm_options"):
        _require(all(len(pair) == 2 for pair in cat[name]),
                 f"field 'catalog.{name}' entries must be [capacity, cost] pairs")
    try:
        region_catalog = RegionCatalog(
            bandwidth_options=tuple(map(tuple, cat["bandwidth_options"])),
            vm_options=tuple(map(tuple, cat["vm_options"])),
            vm_frequency=cat["vm_frequency"])
        radio = RadioParams(**doc["radio"])
        econ = EconParams(**doc["econ"])
        fc = doc["forecaster"]
        forecaster = ForecastConfig(**{f.name: fc[f.name] for f in fields(ForecastConfig)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    catalog = ResourceCatalog(regions=(region_catalog,) * doc["regions"])

    _require(fc["lr"] > 0, "field 'forecaster.lr' must be positive")
    _require(fc["epochs"] >= 0, "field 'forecaster.epochs' must be >= 0")

    ag = doc["agent"]
    agent = AgentHyperparams(**dict(ag, hidden=tuple(ag["hidden"])))
    _require(0.0 <= agent.gamma < 1.0, "field 'agent.gamma' must lie in [0, 1)")
    _require(0.0 < agent.tau <= 1.0, "field 'agent.tau' must lie in (0, 1]")
    for name in ("critic_lr", "actor_lr", "distill_lr"):
        _require(getattr(agent, name) > 0, f"field 'agent.{name}' must be positive")
    _require(agent.batch_size >= 1, "field 'agent.batch_size' must be >= 1")
    _require(agent.buffer_capacity >= agent.batch_size,
             "field 'agent.buffer_capacity' must be >= batch_size")
    for i, width in enumerate(agent.hidden):
        _require(width >= 1, f"field 'agent.hidden[{i}]' must be >= 1")
    for name in ("noise_start", "noise_end", "smooth_std", "smooth_clip"):
        _require(getattr(agent, name) >= 0, f"field 'agent.{name}' must be >= 0")

    top = {key: value for key, value in doc.items() if not isinstance(value, dict)}
    return Config(raw=doc, **top, radio=radio, econ=econ, traffic=traffic,
                  tasks=task_spec, catalog=catalog, forecaster=forecaster,
                  forecaster_lr=fc["lr"], forecaster_epochs=fc["epochs"],
                  agent=agent)


def load_config(path) -> Config:
    """Parse and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(document, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return build_config(document)
