"""JSON configuration: defaults, parsing and validation.

A config file may specify any subset of the keys below; omitted keys take
the documented defaults.  The catalog template is replicated across regions.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

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
    "radio": {
        "upload_power": 0.1,
        "noise_power": 1e-9,
        "pathloss_ref": 1e-3,
        "pathloss_exp": 2.0,
    },
    "econ": {
        "reward_per_task": 10.0,
        "deadline": 1.0,
    },
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
    "forecaster": {
        "width": 32,
        "encoder_layers": 2,
        "topu_factor": 5.0,
        "head_hidden": 32,
        "history_window": 64,
        "current_window": 8,
        "lr": 1e-3,
        "epochs": 30,
    },
    "agent": {
        "gamma": 0.99,
        "tau": 0.005,
        "critic_lr": 1e-3,
        "actor_lr": 1e-4,
        "distill_lr": 1e-4,
        "batch_size": 64,
        "buffer_capacity": 50000,
        "noise_start": 0.3,
        "noise_end": 0.05,
        "noise_decay_steps": 20000,
        "smooth_std": 0.2,
        "smooth_clip": 0.5,
        "distill_alpha": 1.0,
        "hidden": [64, 64],
        "epochs": 150,
        "warmup": 500,
    },
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
    agent: AgentHyperparams = field(default_factory=AgentHyperparams)

    @property
    def vm_frequency(self) -> float:
        return self.catalog.regions[0].vm_frequency


def _merge(defaults: dict, overrides: dict, path="") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config field {where!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"field {where!r} must be an object")
            merged[key] = _merge(defaults[key], value, where)
        else:
            merged[key] = value
    return merged


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def require_seed(seed: int, label: str) -> None:
    """Seeds feed numpy's SeedSequence, which accepts only integers >= 0."""
    _require(seed >= 0, f"{label} must be >= 0, got {seed}")


def _ordered_range(name: str, pair) -> tuple:
    _require(isinstance(pair, (list, tuple)) and len(pair) == 2,
             f"field {name!r} must be a [low, high] pair")
    lo, hi = float(pair[0]), float(pair[1])
    _require(0 < lo <= hi, f"field {name!r} bounds must satisfy 0 < low <= high")
    return lo, hi


def build_config(document: dict) -> Config:
    """Validate a merged document and construct the domain objects."""
    doc = _merge(DEFAULT_CONFIG, document)
    _require(int(doc["horizon"]) >= 1, "field 'horizon' must be >= 1")
    _require(int(doc["short_slots"]) >= 1, "field 'short_slots' must be >= 1")
    _require(int(doc["regions"]) >= 1, "field 'regions' must be >= 1")
    _require(int(doc["n_max"]) >= 1, "field 'n_max' must be >= 1")
    require_seed(int(doc["seed"]), "field 'seed'")
    _require(float(doc["slot_duration"]) > 0, "field 'slot_duration' must be positive")
    for name in ("kappa_up", "kappa_exe"):
        _require(0.0 < float(doc[name]) < 1.0, f"field {name!r} must lie in (0, 1)")
    _require(float(doc["kappa_up"]) + float(doc["kappa_exe"]) <= 1.0,
             "fields 'kappa_up' + 'kappa_exe' must not exceed 1")

    tasks = doc["tasks"]
    task_spec = {
        "data_size": _ordered_range("tasks.data_size", tasks["data_size"]),
        "compute_density": _ordered_range("tasks.compute_density", tasks["compute_density"]),
        "distance": _ordered_range("tasks.distance", tasks["distance"]),
        "priorities": tuple(float(p) for p in tasks["priorities"]),
        "priority_probs": tuple(float(p) for p in tasks["priority_probs"]),
    }
    _require(len(task_spec["priorities"]) == len(task_spec["priority_probs"]),
             "fields 'tasks.priorities' and 'tasks.priority_probs' must align")
    _require(all(p >= 0 for p in task_spec["priority_probs"]),
             "field 'tasks.priority_probs' entries must be >= 0")
    _require(abs(sum(task_spec["priority_probs"]) - 1.0) < 1e-9,
             "field 'tasks.priority_probs' must sum to 1")
    _require(all(p > 0 for p in task_spec["priorities"]),
             "field 'tasks.priorities' entries must be positive")

    traffic = doc["traffic"]
    _require(float(traffic["base"]) >= 0, "field 'traffic.base' must be >= 0")
    _require(float(traffic["amplitude"]) >= 0, "field 'traffic.amplitude' must be >= 0")
    _require(float(traffic["period"]) > 0, "field 'traffic.period' must be positive")
    _require(float(traffic["noise_std"]) >= 0, "field 'traffic.noise_std' must be >= 0")

    cat = doc["catalog"]
    try:
        region_catalog = RegionCatalog(
            bandwidth_options=tuple((float(c), float(z))
                                    for c, z in cat["bandwidth_options"]),
            vm_options=tuple((int(c), float(z)) for c, z in cat["vm_options"]),
            vm_frequency=float(cat["vm_frequency"]))
        catalog = ResourceCatalog(regions=(region_catalog,) * int(doc["regions"]))
        radio = RadioParams(**{k: float(v) for k, v in doc["radio"].items()})
        econ = EconParams(**{k: float(v) for k, v in doc["econ"].items()})
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    fc = doc["forecaster"]
    forecaster = ForecastConfig(
        width=int(fc["width"]), encoder_layers=int(fc["encoder_layers"]),
        topu_factor=float(fc["topu_factor"]), head_hidden=int(fc["head_hidden"]),
        history_window=int(fc["history_window"]),
        current_window=int(fc["current_window"]))
    _require(forecaster.width >= 2, "field 'forecaster.width' must be >= 2")
    _require(forecaster.encoder_layers >= 1,
             "field 'forecaster.encoder_layers' must be >= 1")

    ag = doc["agent"]
    agent = AgentHyperparams(
        gamma=float(ag["gamma"]), tau=float(ag["tau"]),
        critic_lr=float(ag["critic_lr"]), actor_lr=float(ag["actor_lr"]),
        distill_lr=float(ag["distill_lr"]), batch_size=int(ag["batch_size"]),
        buffer_capacity=int(ag["buffer_capacity"]),
        noise_start=float(ag["noise_start"]), noise_end=float(ag["noise_end"]),
        noise_decay_steps=int(ag["noise_decay_steps"]),
        smooth_std=float(ag["smooth_std"]), smooth_clip=float(ag["smooth_clip"]),
        distill_alpha=float(ag["distill_alpha"]),
        hidden=tuple(int(h) for h in ag["hidden"]),
        epochs=int(ag["epochs"]), warmup=int(ag["warmup"]))
    _require(0.0 <= agent.gamma < 1.0, "field 'agent.gamma' must lie in [0, 1)")
    _require(agent.batch_size >= 1, "field 'agent.batch_size' must be >= 1")
    _require(agent.buffer_capacity >= agent.batch_size,
             "field 'agent.buffer_capacity' must be >= batch_size")

    return Config(
        raw=doc,
        horizon=int(doc["horizon"]), short_slots=int(doc["short_slots"]),
        regions=int(doc["regions"]), n_max=int(doc["n_max"]),
        slot_duration=float(doc["slot_duration"]), seed=int(doc["seed"]),
        kappa_up=float(doc["kappa_up"]), kappa_exe=float(doc["kappa_exe"]),
        radio=radio, econ=econ, traffic=traffic, tasks=task_spec,
        catalog=catalog, forecaster=forecaster,
        forecaster_lr=float(fc["lr"]), forecaster_epochs=int(fc["epochs"]),
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
