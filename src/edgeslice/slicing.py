"""Per-long-slot slice adjustment.

Pipeline: forecast user counts -> convert deadline requirements into linear
bandwidth/compute demands -> solve the relaxed rental problem per region ->
round the fractional choice vectors to one feasible option per region.

Each region's relaxed problem has two constraints per resource kind (the
choice weights form a simplex and the chosen capacity must cover demand), so
an optimal vertex mixes at most two options and enumeration over option
pairs replaces a general LP solver.

A mix is admitted only beside the cheapest option that covers demand, and
a draw that under-provisions is repaired to that option, so every rounded
decision rents a cheapest cover: the cost ``brute_force_slicing`` finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .env import EconParams, RadioParams, ResourceCatalog, SliceDecision
from .errors import InfeasibleSliceError
from .forecasting import TrafficSeries


@dataclass(frozen=True)
class TaskProfile:
    """Mean task attributes used to size demand per predicted user.

    The uplink spectral efficiency at the mean distance is evaluated on
    first use and reused for the same `RadioParams` object, as
    `TaskSpec.spectral_efficiency` does per task."""

    mean_data_size: float       # bits
    mean_compute_density: float  # cycles/bit
    mean_distance: float        # meters
    _efficiency: tuple = field(default=(None, 0.0), init=False, compare=False,
                               repr=False)  # (radio, bits/s/Hz)

    def __post_init__(self):
        if min(self.mean_data_size, self.mean_compute_density, self.mean_distance) <= 0:
            raise ValueError("task profile statistics must be positive")

    def spectral_efficiency(self, radio: RadioParams) -> float:
        """``radio.spectral_efficiency(self.mean_distance)``, evaluated once
        per profile and radio object."""
        cached_radio, value = self._efficiency
        if cached_radio is not radio:
            value = radio.spectral_efficiency(self.mean_distance)
            object.__setattr__(self, "_efficiency", (radio, value))
        return value


@dataclass(frozen=True)
class DemandVector:
    """Per-region bandwidth (Hz) and compute (cycles/s) requirements."""

    bw_demand: np.ndarray
    compute_demand: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bw_demand", np.asarray(self.bw_demand, dtype=float))
        object.__setattr__(self, "compute_demand",
                           np.asarray(self.compute_demand, dtype=float))
        for name, arr in (("bw_demand", self.bw_demand),
                          ("compute_demand", self.compute_demand)):
            if np.any(~np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} must be finite and nonnegative")


@dataclass(frozen=True)
class FractionalSlice:
    """Relaxed per-region choice weights; each vector lies on the simplex."""

    bw_weights: tuple  # per region, np.ndarray summing to 1
    vm_weights: tuple

    def __post_init__(self):
        for label, vectors in (("bw_weights", self.bw_weights),
                               ("vm_weights", self.vm_weights)):
            for i, w in enumerate(vectors):
                if np.any(w < -1e-12) or np.any(w > 1 + 1e-12):
                    raise ValueError(f"{label}[{i}] entries outside [0, 1]: {w}")
                if abs(w.sum() - 1.0) > 1e-9:
                    raise ValueError(f"{label}[{i}] must sum to 1, sums to {w.sum()}")


def estimate_demand(forecast_counts, profile: TaskProfile, radio: RadioParams,
                    econ: EconParams, kappa_up: float = 0.5,
                    kappa_exe: float = 0.5) -> DemandVector:
    """Linear per-region demand for predicted user counts.

    The deadline is split into an upload share and an execution share; the
    bandwidth demand is what lets the predicted number of mean-profile
    uploads finish within the upload share, and the compute demand is what
    executes their cycles within the execution share.  Both scale linearly
    with the predicted count.
    """
    for name, kappa in (("kappa_up", kappa_up), ("kappa_exe", kappa_exe)):
        if not 0.0 < kappa < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {kappa}")
    if kappa_up + kappa_exe > 1.0 + 1e-12:
        raise ValueError("deadline shares kappa_up + kappa_exe exceed 1")
    counts = np.asarray(forecast_counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("forecast counts must be nonnegative")
    efficiency = profile.spectral_efficiency(radio)
    bw = counts * profile.mean_data_size / (econ.deadline * kappa_up * efficiency)
    compute = (counts * profile.mean_data_size * profile.mean_compute_density
               / (econ.deadline * kappa_exe))
    return DemandVector(bw_demand=bw, compute_demand=compute)


def _solve_one_resource(options, capacities, demand: float, region: int, resource: str):
    """Min-cost simplex weights whose chosen capacity covers the demand.

    Vertices of the two-constraint polytope are single options or tight
    two-option mixes.  A mix is admitted only when its covering option is
    the cheapest single option that covers demand, so every rounded draw
    lands on, or is repaired to, that optimum; the weights' cost still
    lower-bounds every feasible one-hot choice."""
    costs = np.array([cost for _, cost in options], dtype=float)
    caps = np.asarray(capacities, dtype=float)
    n = len(options)
    if demand > caps.max():
        raise InfeasibleSliceError(region=region, resource=resource,
                                   demand=demand, capacity=float(caps.max()))
    best_cost = np.inf
    best = None
    for k in range(n):
        if caps[k] >= demand and costs[k] < best_cost:
            w = np.zeros(n)
            w[k] = 1.0
            best_cost, best = costs[k], w
    cheapest_cover = best_cost
    for a in range(n):
        for b in range(n):
            if caps[a] < demand < caps[b] and costs[b] == cheapest_cover:
                lam = (caps[b] - demand) / (caps[b] - caps[a])
                cost = lam * costs[a] + (1.0 - lam) * costs[b]
                if cost < best_cost - 1e-12:
                    w = np.zeros(n)
                    w[a], w[b] = lam, 1.0 - lam
                    best_cost, best = cost, w
    return best, best_cost


def solve_relaxed(demand: DemandVector, catalog: ResourceCatalog) -> FractionalSlice:
    """Optimal fractional rental per region (relaxed choice variables)."""
    bw_weights, vm_weights = [], []
    for i, reg in enumerate(catalog.regions):
        bw_caps = [cap for cap, _ in reg.bandwidth_options]
        w, _ = _solve_one_resource(reg.bandwidth_options, bw_caps,
                                   float(demand.bw_demand[i]), i, "bandwidth")
        bw_weights.append(w)
        vm_caps = [cnt * reg.vm_frequency for cnt, _ in reg.vm_options]
        w, _ = _solve_one_resource(reg.vm_options, vm_caps,
                                   float(demand.compute_demand[i]), i, "compute")
        vm_weights.append(w)
    return FractionalSlice(bw_weights=tuple(bw_weights), vm_weights=tuple(vm_weights))


def relaxed_cost(frac: FractionalSlice, catalog: ResourceCatalog) -> float:
    """Objective value of a fractional slice."""
    total = 0.0
    for i, reg in enumerate(catalog.regions):
        total += sum(w * cost for w, (_, cost)
                     in zip(frac.bw_weights[i], reg.bandwidth_options))
        total += sum(w * cost for w, (_, cost)
                     in zip(frac.vm_weights[i], reg.vm_options))
    return total


def _round_one(weights, options, capacities, demand, rng):
    """Sample an option from the weights; repair infeasible draws to the
    cheapest option that covers the demand."""
    probs = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    probs = probs / probs.sum()
    k = int(rng.choice(len(options), p=probs))
    if capacities[k] >= demand:
        return k
    feasible = [(cost, j) for j, ((_, cost), cap)
                in enumerate(zip(options, capacities)) if cap >= demand]
    _, j = min(feasible)
    return j


def randomized_round(frac: FractionalSlice, demand: DemandVector,
                     catalog: ResourceCatalog, rng: np.random.Generator) -> SliceDecision:
    """Draw one option per region from the fractional weights, repairing any
    draw that would under-provision its region."""
    bw_idx, vm_idx = [], []
    for i, reg in enumerate(catalog.regions):
        bw_caps = [cap for cap, _ in reg.bandwidth_options]
        bw_idx.append(_round_one(frac.bw_weights[i], reg.bandwidth_options,
                                 bw_caps, float(demand.bw_demand[i]), rng))
        vm_caps = [cnt * reg.vm_frequency for cnt, _ in reg.vm_options]
        vm_idx.append(_round_one(frac.vm_weights[i], reg.vm_options,
                                 vm_caps, float(demand.compute_demand[i]), rng))
    return SliceDecision(bw=tuple(bw_idx), vm=tuple(vm_idx))


def cheapest_slice(catalog: ResourceCatalog) -> SliceDecision:
    """Minimum-cost rental ignoring demand; the empty-history fallback."""
    bw_idx = [min(range(len(reg.bandwidth_options)),
                  key=lambda k: (reg.bandwidth_options[k][1], k))
              for reg in catalog.regions]
    vm_idx = [min(range(len(reg.vm_options)),
                  key=lambda k: (reg.vm_options[k][1], k))
              for reg in catalog.regions]
    return SliceDecision(bw=tuple(bw_idx), vm=tuple(vm_idx))


def adjust_slices(history: TrafficSeries | None, catalog: ResourceCatalog,
                  predictor, rng: np.random.Generator, profile: TaskProfile,
                  radio: RadioParams, econ: EconParams,
                  kappa_up: float = 0.5, kappa_exe: float = 0.5) -> SliceDecision:
    """Full per-long-slot adjustment: predict, size demand, solve, round.

    ``predictor(history, horizon)`` must return a (regions, horizon) count
    matrix.  An empty or missing history falls back to the cheapest slice.
    """
    if history is None or history.num_slots == 0:
        return cheapest_slice(catalog)
    counts = np.asarray(predictor(history, 1), dtype=float)[:, 0]
    demand = estimate_demand(counts, profile, radio, econ,
                             kappa_up=kappa_up, kappa_exe=kappa_exe)
    frac = solve_relaxed(demand, catalog)
    return randomized_round(frac, demand, catalog, rng)
