"""Per-long-slot slice adjustment.

Pipeline: forecast user counts -> convert deadline requirements into linear
bandwidth/compute demands -> solve the relaxed rental problem per region ->
round the fractional choice vectors to one feasible option per region.

Each region's relaxed problem has two constraints per resource kind (the
choice weights form a simplex and the chosen capacity must cover demand), so
an optimal vertex mixes at most two options and enumeration over option
pairs replaces a general LP solver.

One rule, ``_cheapest_cover``, picks the lowest-cost option that covers a
demand.  It gives the relaxation's one-hot vertex and infeasibility check,
the cost an admitted mix's covering option must match, and the repair of a
draw that under-provisions, so each rounded decision is the cheapest cover
of the estimated demand: the cost ``brute_force_slicing`` finds.  At zero
demand it gives ``cheapest_slice``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import EconParams, RadioParams, RegionCatalog, ResourceCatalog, SliceDecision
from .errors import InfeasibleSliceError
from .forecasting import TrafficSeries

@dataclass(frozen=True)
class TaskProfile:
    """Mean task attributes used to size demand per predicted user."""

    mean_data_size: float       # bits
    mean_compute_density: float  # cycles/bit
    mean_distance: float        # meters

    def __post_init__(self):
        if min(self.mean_data_size, self.mean_compute_density, self.mean_distance) <= 0:
            raise ValueError("task profile statistics must be positive")


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
    efficiency = radio.spectral_efficiency(profile.mean_distance)
    bw = counts * profile.mean_data_size / (econ.deadline * kappa_up * efficiency)
    compute = (counts * profile.mean_data_size * profile.mean_compute_density
               / (econ.deadline * kappa_exe))
    return DemandVector(bw_demand=bw, compute_demand=compute)


def _resources(reg: RegionCatalog) -> tuple:
    """A region's resource kinds as ``(name, options, capacities)``: its
    bandwidth (capacities in Hz), then its compute (cycles/s)."""
    return (("bandwidth", reg.bandwidth_options, [cap for cap, _ in reg.bandwidth_options]),
            ("compute", reg.vm_options, [cnt * reg.vm_frequency for cnt, _ in reg.vm_options]))


def _cheapest_cover(options, capacities, demand: float) -> int | None:
    """Index of the lowest-cost option whose capacity covers ``demand`` (the
    lowest index on equal cost), or None when no option does."""
    covering = [k for k, cap in enumerate(capacities) if cap >= demand]
    return min(covering, key=lambda k: options[k][1], default=None)


def _require_cover(options, capacities, demand: float, region: int, resource: str) -> int:
    """``_cheapest_cover``, or InfeasibleSliceError when no option covers."""
    cover = _cheapest_cover(options, capacities, demand)
    if cover is None:
        raise InfeasibleSliceError(region=region, resource=resource,
                                   demand=demand, capacity=float(max(capacities)))
    return cover


def _solve_one_resource(options, capacities, demand: float, region: int,
                        resource: str) -> np.ndarray:
    """Min-cost simplex weights whose chosen capacity covers the demand.

    Vertices of the two-constraint polytope are single options or tight
    two-option mixes.  A mix is admitted only when its covering option costs
    what the cheapest cover does, so every rounded draw lands on, or is
    repaired to, that optimum; the weights' cost still lower-bounds every
    feasible one-hot choice."""
    cover = _require_cover(options, capacities, demand, region, resource)
    costs = np.array([cost for _, cost in options], dtype=float)
    caps = np.asarray(capacities, dtype=float)
    n = len(options)
    best = np.eye(n)[cover]
    best_cost = costs[cover]
    for a in range(n):
        for b in range(n):
            if caps[a] < demand < caps[b] and costs[b] == costs[cover]:
                lam = (caps[b] - demand) / (caps[b] - caps[a])
                cost = lam * costs[a] + (1.0 - lam) * costs[b]
                if cost < best_cost - 1e-12:
                    best = np.zeros(n)
                    best[a], best[b] = lam, 1.0 - lam
                    best_cost = cost
    return best


def solve_relaxed(demand: DemandVector, catalog: ResourceCatalog) -> FractionalSlice:
    """Optimal fractional rental per region (relaxed choice variables)."""
    needs = (demand.bw_demand, demand.compute_demand)
    weights = ([], [])
    for i, reg in enumerate(catalog.regions):
        for k, (name, options, caps) in enumerate(_resources(reg)):
            weights[k].append(_solve_one_resource(options, caps, float(needs[k][i]), i, name))
    return FractionalSlice(*map(tuple, weights))


def relaxed_cost(frac: FractionalSlice, catalog: ResourceCatalog) -> float:
    """Objective value of a fractional slice."""
    total = 0.0
    for i, reg in enumerate(catalog.regions):
        for w, (_, options, _) in zip((frac.bw_weights[i], frac.vm_weights[i]),
                                      _resources(reg)):
            total += sum(wk * cost for wk, (_, cost) in zip(w, options))
    return total


def randomized_round(frac: FractionalSlice, demand: DemandVector,
                     catalog: ResourceCatalog, rng: np.random.Generator) -> SliceDecision:
    """Draw one option per region from the fractional weights, repairing a
    draw that would under-provision its region to the cheapest cover."""
    needs = (demand.bw_demand, demand.compute_demand)
    picks = ([], [])
    for i, reg in enumerate(catalog.regions):
        weights = (frac.bw_weights[i], frac.vm_weights[i])
        for k, (name, options, caps) in enumerate(_resources(reg)):
            need = float(needs[k][i])
            probs = np.clip(np.asarray(weights[k], dtype=float), 0.0, None)
            pick = int(rng.choice(len(options), p=probs / probs.sum()))
            if caps[pick] < need:
                pick = _require_cover(options, caps, need, i, name)
            picks[k].append(pick)
    return SliceDecision(*map(tuple, picks))


def cheapest_slice(catalog: ResourceCatalog) -> SliceDecision:
    """Minimum-cost rental ignoring demand; the empty-history fallback."""
    picks = ([], [])
    for reg in catalog.regions:
        for k, (_, options, caps) in enumerate(_resources(reg)):
            picks[k].append(_cheapest_cover(options, caps, 0.0))
    return SliceDecision(*map(tuple, picks))


def adjust_slices(history: TrafficSeries, catalog: ResourceCatalog,
                  predictor, rng: np.random.Generator, profile: TaskProfile,
                  radio: RadioParams, econ: EconParams,
                  kappa_up: float = 0.5, kappa_exe: float = 0.5) -> SliceDecision:
    """Full per-long-slot adjustment: predict, size demand, solve, round.

    ``predictor(history, horizon)`` must return a (regions, horizon) count
    matrix.  An empty history (no slot observed yet) gets the cheapest
    slice.
    """
    if history.num_slots == 0:
        return cheapest_slice(catalog)
    counts = np.asarray(predictor(history, 1), dtype=float)[:, 0]
    demand = estimate_demand(counts, profile, radio, econ,
                             kappa_up=kappa_up, kappa_exe=kappa_exe)
    frac = solve_relaxed(demand, catalog)
    return randomized_round(frac, demand, catalog, rng)
