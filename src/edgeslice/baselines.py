"""Comparator allocation policies and exact small-instance oracles.

All policies share one bandwidth rule: a served task gets exactly the
minimal uplink bandwidth that meets its deadline given the backlog in front
of it, so comparisons isolate each policy's ordering strategy.  The
environment settles tasks in arrival-list order with same-slot queue
accumulation; every policy therefore finishes with an exact list-order
allocation pass, dropping its least-preferred picks if the tentative plan
turns out to overshoot the budget.

The recipes for greedy / max-transaction / auction orderings are declared
conventions of this simulator, not reconstructions of any external system.
"""

from __future__ import annotations

import math

import numpy as np

from .env import (AllocationAction, EconParams, RadioParams, RegionState,
                  ResourceCatalog, SliceDecision)
from .errors import InfeasibleSliceError
from .slicing import DemandVector

# Relative headroom on minimal bandwidths so float rounding cannot push a
# deadline-exact completion past the inclusive boundary.
_SAFETY = 1e-9

ENUMERATION_BOUND = 12


def minimal_bandwidth(task, queue_ahead: float, frequency: float,
                      radio: RadioParams, econ: EconParams) -> float:
    """Smallest uplink bandwidth (Hz) that completes the task on time given
    the cycles already queued ahead of it; inf when no bandwidth suffices."""
    budget = econ.deadline - (queue_ahead + task.work) / frequency
    if budget <= 0.0:
        return math.inf
    rate = task.data_size / budget
    return rate / task.spectral_efficiency(radio) * (1.0 + _SAFETY)


def _exact_allocation(region: RegionState, chosen: dict, radio, econ):
    """List-order bandwidths for a {task index: vm} plan.

    Returns (ok, fractions, vm_indices); ok is False when some chosen task
    cannot meet its deadline or the combined bandwidth exceeds the budget.
    """
    n = len(region.tasks)
    fractions = np.zeros(n)
    vms = np.zeros(n, dtype=int)
    pending = list(region.pending)
    used = 0.0
    for j in range(n):
        if j not in chosen:
            continue
        vm = chosen[j]
        bw = minimal_bandwidth(region.tasks[j], pending[vm], region.frequency,
                               radio, econ)
        if not math.isfinite(bw):
            return False, fractions, vms
        used += bw
        fractions[j] = bw / region.bandwidth
        vms[j] = vm
        pending[vm] += region.tasks[j].work
    if used > region.bandwidth * (1.0 + 1e-12):
        return False, fractions, vms
    return True, fractions, vms


def _pack_by_order(region: RegionState, order, radio, econ) -> AllocationAction:
    """Tentatively admit tasks in preference order onto least-loaded VMs
    (ties: lowest index), then finalize with the exact list-order pass."""
    n = len(region.tasks)
    frequency = region.frequency
    chosen: dict = {}
    rank: dict = {}
    pending = list(region.pending)
    used = 0.0
    for pos, j in enumerate(order):
        task = region.tasks[j]
        vm = pending.index(min(pending))
        bw = minimal_bandwidth(task, pending[vm], frequency, radio, econ)
        if math.isfinite(bw) and used + bw <= region.bandwidth * (1.0 + 1e-12):
            chosen[j] = vm
            rank[j] = pos
            used += bw
            pending[vm] += task.work
    while chosen:
        ok, fractions, vms = _exact_allocation(region, chosen, radio, econ)
        if ok:
            return AllocationAction(bw_fraction=fractions, vm_index=vms)
        del chosen[max(chosen, key=lambda j: rank[j])]
    return AllocationAction(bw_fraction=np.zeros(n), vm_index=np.zeros(n, dtype=int))


def _demand_score(task, frequency, radio, econ) -> float:
    """Normalized total resource demand: deadline-meeting bandwidth assuming
    an empty queue, plus the task's share of one deadline of CPU time."""
    bw = minimal_bandwidth(task, 0.0, frequency, radio, econ)
    if not math.isfinite(bw):
        return math.inf
    return bw + task.work / (frequency * econ.deadline)


def greedy_policy(region: RegionState, radio: RadioParams,
                  econ: EconParams) -> AllocationAction:
    """Serve by priority (ties: lighter work first, then task id)."""
    order = sorted(range(len(region.tasks)),
                   key=lambda j: (-region.tasks[j].priority, region.tasks[j].work, j))
    return _pack_by_order(region, order, radio, econ)


def max_transaction_policy(region: RegionState, radio: RadioParams,
                           econ: EconParams) -> AllocationAction:
    """Serve cheapest-demand first, maximizing the admitted count."""
    frequency = region.frequency
    order = sorted(range(len(region.tasks)),
                   key=lambda j: (_demand_score(region.tasks[j], frequency, radio, econ), j))
    return _pack_by_order(region, order, radio, econ)


def auction_policy(region: RegionState, radio: RadioParams,
                   econ: EconParams) -> AllocationAction:
    """Serve by bid = priority / resource demand, descending."""
    frequency = region.frequency

    def bid(j):
        score = _demand_score(region.tasks[j], frequency, radio, econ)
        return region.tasks[j].priority / score if math.isfinite(score) else 0.0
    order = sorted(range(len(region.tasks)),
                   key=lambda j: (-bid(j), -region.tasks[j].priority, j))
    return _pack_by_order(region, order, radio, econ)


def random_policy(region: RegionState, rng: np.random.Generator) -> AllocationAction:
    """Uniform fractions (budget-projected downstream) and uniform VMs."""
    n = len(region.tasks)
    return AllocationAction(
        bw_fraction=rng.uniform(0.0, 1.0, size=n),
        vm_index=rng.integers(0, region.vm_count, size=n))


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------

def oracle_policy(region: RegionState, radio: RadioParams,
                  econ: EconParams) -> AllocationAction:
    """Serve `brute_force_offload`'s best assignment with the shared
    list-order minimal bandwidths."""
    _, assignment = brute_force_offload(region, radio, econ)
    chosen = {j: vm for j, vm in enumerate(assignment) if vm is not None}
    _, fractions, vms = _exact_allocation(region, chosen, radio, econ)
    return AllocationAction(bw_fraction=fractions, vm_index=vms)


def brute_force_offload(region: RegionState, radio: RadioParams, econ: EconParams):
    """Exhaustive max-revenue subset selection and VM packing.

    Enumerates, in arrival-list order, every served-subset / VM-assignment
    combination of the region's tasks under the shared minimal-bandwidth
    rule, starting from the region's backlog, with branch-and-bound pruning
    and symmetry breaking over equally loaded VMs.  Instances above
    ENUMERATION_BOUND tasks are refused.

    Returns (best revenue, assignment) where assignment[j] is the serving VM
    or None for rejected tasks.
    """
    tasks, vm_count, frequency = region.tasks, region.vm_count, region.frequency
    n = len(tasks)
    if n > ENUMERATION_BOUND:
        raise ValueError(
            f"brute_force_offload enumerates at most {ENUMERATION_BOUND} tasks, got {n}")
    suffix = [0.0] * (n + 1)
    for j in reversed(range(n)):
        suffix[j] = suffix[j + 1] + econ.reward_per_task * tasks[j].priority

    best_rev = -1.0
    best_assign = [None] * n
    assign = [None] * n
    budget = region.bandwidth * (1.0 + 1e-12)

    def recurse(j, pending, used, revenue):
        nonlocal best_rev, best_assign
        if revenue + suffix[j] <= best_rev:
            return
        if j == n:
            if revenue > best_rev:
                best_rev = revenue
                best_assign = assign.copy()
            return
        task = tasks[j]
        seen = set()
        for vm in range(vm_count):
            if pending[vm] in seen:
                continue
            seen.add(pending[vm])
            bw = minimal_bandwidth(task, pending[vm], frequency, radio, econ)
            if math.isfinite(bw) and used + bw <= budget:
                assign[j] = vm
                old = pending[vm]
                pending[vm] += task.work
                recurse(j + 1, pending, used + bw,
                        revenue + econ.reward_per_task * task.priority)
                pending[vm] = old
                assign[j] = None
        recurse(j + 1, pending, used, revenue)

    recurse(0, list(region.pending), 0.0, 0.0)
    return max(best_rev, 0.0), best_assign


def brute_force_slicing(demand: DemandVector, catalog: ResourceCatalog):
    """Cheapest feasible rental per region by full enumeration.

    Regions are independent, so the global optimum is the sum of per-region
    optima.  Returns (total cost, SliceDecision)."""
    bw_idx, vm_idx = [], []
    total = 0.0
    for i, reg in enumerate(catalog.regions):
        if len(reg.bandwidth_options) > 8 or len(reg.vm_options) > 8:
            raise ValueError("brute_force_slicing enumerates at most 8 options per kind")
        best = None
        for b, (bw_cap, bw_cost) in enumerate(reg.bandwidth_options):
            if bw_cap < demand.bw_demand[i]:
                continue
            for v, (vm_cnt, vm_cost) in enumerate(reg.vm_options):
                if vm_cnt * reg.vm_frequency < demand.compute_demand[i]:
                    continue
                key = (bw_cost + vm_cost, b, v)
                if best is None or key < best:
                    best = key
        if best is None:
            bw_caps = [cap for cap, _ in reg.bandwidth_options]
            vm_caps = [cnt * reg.vm_frequency for cnt, _ in reg.vm_options]
            if demand.bw_demand[i] > max(bw_caps):
                raise InfeasibleSliceError(i, "bandwidth", float(demand.bw_demand[i]),
                                           max(bw_caps))
            raise InfeasibleSliceError(i, "compute", float(demand.compute_demand[i]),
                                       max(vm_caps))
        cost, b, v = best
        total += cost
        bw_idx.append(b)
        vm_idx.append(v)
    return total, SliceDecision(bw=tuple(bw_idx), vm=tuple(vm_idx))
