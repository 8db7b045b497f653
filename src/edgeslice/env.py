"""Physical and economic model of the multi-region edge system.

Covers the radio uplink, per-VM FIFO queues, revenue settlement against a
QoS deadline, rental accounting over discrete bandwidth/VM options, and the
short-slot state transition that every allocation policy drives.

Units are SI throughout: bits, Hz, cycles, seconds, watts.  Money is a plain
float "currency unit".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ConstraintViolation, InfeasibleUploadError
from .validation import (require_finite, require_nonnegative, require_positive,
                         require_positive_array)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class TaskSpec:
    """One user's offloading request: data size, computing density, priority,
    distance to the base station.

    ``work`` is derived once at construction.  The uplink spectral
    efficiency is evaluated on first use and reused for the same
    `RadioParams` object; frozen fields keep it valid.
    """

    data_size: float        # bits
    compute_density: float  # cycles per bit
    priority: float         # revenue weight
    distance: float         # meters to the BS
    work: float = field(init=False, compare=False, repr=False)  # CPU cycles
    _efficiency: tuple = field(init=False, compare=False, repr=False)  # (radio, bits/s/Hz)

    def __init__(self, data_size, compute_density, priority, distance):
        require_positive("data_size", data_size)
        require_positive("compute_density", compute_density)
        require_positive("priority", priority)
        require_positive("distance", distance)
        _fill_task(self, data_size, compute_density, priority, distance)

    @classmethod
    def from_columns(cls, data_size, compute_density, priority, distance) -> list:
        """One TaskSpec per row of four equal-length numeric arrays.

        Each column is checked once as a whole against the rule the
        constructor applies value by value: finite positive numbers."""
        columns = [np.asarray(c) for c in (data_size, compute_density, priority, distance)]
        if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
            raise ValueError("task attribute columns must be 1-D and of equal length")
        for name, column in zip(("data_size", "compute_density", "priority", "distance"),
                                columns):
            require_positive_array(name, column)
        tasks = []
        new = cls.__new__
        for d, e, p, l in zip(*(c.tolist() for c in columns)):
            task = new(cls)
            _fill_task(task, d, e, p, l)
            tasks.append(task)
        return tasks

    def spectral_efficiency(self, radio: "RadioParams") -> float:
        """``radio.spectral_efficiency(self.distance)``, evaluated once per
        task and radio object."""
        cached_radio, value = self._efficiency
        if cached_radio is not radio:
            value = radio.spectral_efficiency(self.distance)
            object.__setattr__(self, "_efficiency", (radio, value))
        return value


def _fill_task(task: TaskSpec, data_size, compute_density, priority, distance) -> None:
    """Set the fields of a TaskSpec whose values are already checked."""
    set_field = object.__setattr__
    set_field(task, "data_size", data_size)
    set_field(task, "compute_density", compute_density)
    set_field(task, "priority", priority)
    set_field(task, "distance", distance)
    set_field(task, "work", data_size * compute_density)
    set_field(task, "_efficiency", (None, 0.0))


@dataclass(frozen=True)
class RadioParams:
    """Uplink channel constants: transmit power, noise power and the
    distance-based path-loss model gain(l) = pathloss_ref * l^-pathloss_exp."""

    upload_power: float = 0.1      # W
    noise_power: float = 1e-9      # W
    pathloss_ref: float = 1e-3     # gain at 1 m
    pathloss_exp: float = 2.0

    def __post_init__(self):
        require_positive("upload_power", self.upload_power)
        require_positive("noise_power", self.noise_power)
        require_positive("pathloss_ref", self.pathloss_ref)
        require_positive("pathloss_exp", self.pathloss_exp)

    def channel_gain(self, distance: float) -> float:
        require_positive("distance", distance)
        return self.pathloss_ref * distance ** (-self.pathloss_exp)

    def snr(self, distance: float) -> float:
        return self.upload_power * self.channel_gain(distance) / self.noise_power

    def spectral_efficiency(self, distance: float) -> float:
        """bits/s per Hz of allocated uplink bandwidth at this distance."""
        return math.log2(1.0 + self.snr(distance))


@dataclass(frozen=True)
class EconParams:
    """Settlement constants: per-task reward and the completion deadline."""

    reward_per_task: float = 10.0  # currency on on-time completion
    deadline: float = 1.0          # seconds, inclusive

    def __post_init__(self):
        require_positive("reward_per_task", self.reward_per_task)
        require_positive("deadline", self.deadline)


@dataclass(frozen=True)
class RegionCatalog:
    """Rentable options in one region.

    bandwidth_options / vm_options are (capacity, cost) pairs sorted by
    strictly increasing capacity.  All VMs in a region run at vm_frequency.
    """

    bandwidth_options: tuple  # ((Hz, cost), ...)
    vm_options: tuple         # ((count, cost), ...)
    vm_frequency: float       # cycles/s

    def __post_init__(self):
        require_positive("vm_frequency", self.vm_frequency)
        for label, options in (("bandwidth_options", self.bandwidth_options),
                               ("vm_options", self.vm_options)):
            if not options:
                raise ValueError(f"{label} must be non-empty")
            caps = [cap for cap, _ in options]
            if any(c2 <= c1 for c1, c2 in zip(caps, caps[1:])):
                raise ValueError(f"{label} capacities must be strictly increasing")
            for cap, cost in options:
                require_positive(f"{label} capacity", cap)
                require_nonnegative(f"{label} cost", cost)


@dataclass(frozen=True)
class ResourceCatalog:
    """Per-region rentable bandwidth and VM options."""

    regions: tuple  # (RegionCatalog, ...)

    def __post_init__(self):
        if not self.regions:
            raise ValueError("catalog must cover at least one region")

    @property
    def num_regions(self) -> int:
        return len(self.regions)


@dataclass(frozen=True)
class SliceDecision:
    """Per-region rental choices as option indices into the catalog."""

    bw: tuple  # per region, index into RegionCatalog.bandwidth_options
    vm: tuple  # per region, index into RegionCatalog.vm_options


@dataclass
class RegionState:
    """Per-region snapshot between short slots: the rented service (uplink
    bandwidth, VMs and the rate they all run at) and each VM's backlog."""

    region: int
    bandwidth: float            # rented uplink Hz in this region
    vm_count: int               # rented VMs in this region
    frequency: float            # cycles/s of every VM (RegionCatalog.vm_frequency)
    tasks: list                 # TaskSpec batch for the current short slot
    pending: tuple              # per VM, CPU cycles queued in front of new arrivals
    long_slot: int = 1
    short_slot: int = 1

    def __post_init__(self):
        require_positive("frequency", self.frequency)
        if len(self.pending) != self.vm_count:
            raise ValueError(
                f"backlog length {len(self.pending)} != vm_count {self.vm_count}")
        for work in self.pending:
            require_nonnegative("pending", work)

    def copy(self) -> "RegionState":
        return replace(self, tasks=list(self.tasks))


@dataclass
class AllocationAction:
    """Per-task uplink shares and VM placements for one region and slot.

    bw_fraction[j] is user j's share of the region's rented bandwidth;
    vm_index[j] is the serving VM.  A zero share means the task is rejected
    (not uploaded, no revenue, no queue load).
    """

    bw_fraction: np.ndarray
    vm_index: np.ndarray

    def __post_init__(self):
        self.bw_fraction = np.asarray(self.bw_fraction, dtype=float)
        self.vm_index = np.asarray(self.vm_index, dtype=int)
        if self.bw_fraction.shape != self.vm_index.shape:
            raise ValueError("bw_fraction and vm_index must have equal length")
        if not np.isfinite(self.bw_fraction).all() or (self.bw_fraction < 0).any():
            raise ValueError("bw_fraction must be finite and nonnegative")

    def projected(self) -> "AllocationAction":
        """Scale shares down so they sum to at most 1 (budget constraint)."""
        total = float(self.bw_fraction.sum())
        if total <= 1.0:
            return self
        return AllocationAction(self.bw_fraction / total, self.vm_index.copy())


@dataclass(frozen=True)
class TimingBreakdown:
    """Completion-time decomposition of one offloaded task."""

    upload: float
    queue: float
    execute: float
    total: float


class SettlementRecord(NamedTuple):
    """One per-task settlement row of the simulation log; the fields head
    settlements.csv."""

    region: int
    long_slot: int
    short_slot: int
    task_id: int
    t_up: float
    t_que: float
    t_exe: float
    t_total: float
    revenue: float


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def uplink_rate(bw: float, radio: RadioParams, distance: float) -> float:
    """Shannon uplink rate in bits/s for the given bandwidth and distance."""
    require_finite("bw", bw)
    require_nonnegative("bw", bw)
    require_positive("distance", distance)
    return bw * radio.spectral_efficiency(distance)


def _require_share(task: TaskSpec, bw: float) -> None:
    """A task's uplink share must be positive (else it cannot upload) and
    finite."""
    if bw <= 0.0:
        raise InfeasibleUploadError(
            f"task with {task.data_size:.6g} bits cannot upload over zero bandwidth")
    require_finite("bw", bw)


def _timing(task: TaskSpec, bw: float, efficiency: float, pending: float,
            frequency: float) -> tuple:
    """(upload, queue, execute, total) seconds of one task with ``pending``
    cycles queued ahead of it; the single copy of the timing formula."""
    t_up = task.data_size / (bw * efficiency)
    t_que = pending / frequency
    t_exe = task.work / frequency
    return t_up, t_que, t_exe, t_up + t_que + t_exe


def _revenue(total: float, econ: EconParams, priority: float) -> float:
    """The settlement rule: the full priority-weighted reward when the total
    completion time meets the deadline (inclusive), otherwise zero."""
    if total <= econ.deadline:
        return econ.reward_per_task * priority
    return 0.0


def task_timing(task: TaskSpec, bw: float, pending: float,
                frequency: float, radio: RadioParams) -> TimingBreakdown:
    """Upload + queueing + execution time of one task on its assigned VM.

    Result-return time is zero by model.  The queue contribution is the
    ``pending`` cycles already in front of the task divided by the VM
    frequency.
    """
    require_nonnegative("pending", pending)
    require_positive("frequency", frequency)
    _require_share(task, bw)
    return TimingBreakdown(*_timing(task, bw, task.spectral_efficiency(radio),
                                    pending, frequency))


def settle(timing: TimingBreakdown, econ: EconParams, priority: float) -> float:
    """Revenue for one task: full priority-weighted reward when the total
    completion time meets the deadline (inclusive), otherwise zero."""
    return _revenue(timing.total, econ, priority)


def rented_and_cost(catalog: ResourceCatalog, slices: SliceDecision):
    """Total rented bandwidth, VM count and rental cost across regions.

    Raises ConstraintViolation unless the decision picks one in-range option
    of each kind for every region of the catalog.
    """
    if len(slices.bw) != catalog.num_regions or len(slices.vm) != catalog.num_regions:
        raise ConstraintViolation("slice decision does not cover every region")
    total_bw = 0.0
    total_vms = 0
    total_cost = 0.0
    for i, reg in enumerate(catalog.regions):
        if not (0 <= slices.bw[i] < len(reg.bandwidth_options)
                and 0 <= slices.vm[i] < len(reg.vm_options)):
            raise ConstraintViolation(
                f"slice indices ({slices.bw[i]}, {slices.vm[i]}) outside the "
                f"catalog options of region {i}")
        bw_cap, bw_cost = reg.bandwidth_options[slices.bw[i]]
        vm_cnt, vm_cost = reg.vm_options[slices.vm[i]]
        total_bw += bw_cap
        total_vms += vm_cnt
        total_cost += bw_cost + vm_cost
    return total_bw, total_vms, total_cost


def rented_in_region(catalog: ResourceCatalog, slices: SliceDecision, region: int):
    """Rented (bandwidth, vm_count) of a single region under a decision."""
    reg = catalog.regions[region]
    bw_cap, _ = reg.bandwidth_options[slices.bw[region]]
    vm_cnt, _ = reg.vm_options[slices.vm[region]]
    return bw_cap, vm_cnt


def step(state: RegionState, action: AllocationAction, econ: EconParams,
         radio: RadioParams, slot_duration: float = 1.0):
    """Advance one region by one short slot under an allocation action.

    Tasks are processed in arrival-list order; each sees the backlog of
    earlier same-slot arrivals on its VM.  Tasks that meet the deadline pay
    priority-weighted revenue and add their work to the VM queue; tasks that
    miss (or get zero bandwidth) pay nothing and are dropped.  Queues then
    drain by one slot of service.  The transition is deterministic.

    Returns (reward, next_state, settlement records).
    """
    n = len(state.tasks)
    if action.bw_fraction.shape[0] != n:
        raise ValueError(f"action covers {action.bw_fraction.shape[0]} tasks, state has {n}")
    action = action.projected()
    served = action.bw_fraction > 0
    outside = served & ((action.vm_index < 0) | (action.vm_index >= state.vm_count))
    if outside.any():
        j = int(outside.argmax())
        raise ConstraintViolation(
            f"task {j} assigned to VM {action.vm_index[j]} outside the "
            f"{state.vm_count} rented VMs")
    bandwidth = state.bandwidth
    if served.any() and bandwidth > 0.0:
        # task_timing's share check, once per slot.  Projected fractions lie
        # in [0, 1], so a positive share is infinite only when the rented
        # bandwidth is; shares that are not positive still raise per task.
        require_finite("bw", bandwidth)

    frequency = state.frequency
    pending = list(state.pending)
    region, long_slot, short_slot = state.region, state.long_slot, state.short_slot
    records = []
    reward = 0.0
    for j, (task, frac, vm) in enumerate(zip(state.tasks, action.bw_fraction.tolist(),
                                             action.vm_index.tolist())):
        if frac <= 0.0:
            records.append(SettlementRecord(region, long_slot, short_slot, j,
                                            math.inf, 0.0, 0.0, math.inf, 0.0))
            continue
        bw = frac * bandwidth
        if not bw > 0.0:
            _require_share(task, bw)
        t_up, t_que, t_exe, total = _timing(task, bw, task.spectral_efficiency(radio),
                                            pending[vm], frequency)
        revenue = _revenue(total, econ, task.priority)
        if revenue > 0.0:
            pending[vm] += task.work
        reward += revenue
        records.append(SettlementRecord(region, long_slot, short_slot, j,
                                        t_up, t_que, t_exe, total, revenue))

    # One slot of FIFO service drains each queue.
    drained = frequency * slot_duration
    next_state = RegionState(region, bandwidth, state.vm_count, frequency, [],
                             tuple(max(0.0, work - drained) for work in pending),
                             long_slot, short_slot + 1)
    return reward, next_state, records


def horizon_profit(trace) -> float:
    """Total profit over (revenue, cost) pairs, one per long slot."""
    total = 0.0
    for revenue, cost in trace:
        require_finite("revenue", revenue)
        require_finite("cost", cost)
        total += revenue - cost
    return total
