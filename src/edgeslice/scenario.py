"""Synthetic workload generation and the episodic training environment.

Traffic follows a per-region phase-shifted sinusoid with Gaussian noise,
floored at zero and rounded; task attributes are drawn i.i.d. from the
configured ranges.  Everything is reproducible from an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import agent as agent_mod
from .baselines import minimal_bandwidth
from .config import Config
from .env import EconParams, RadioParams, RegionState, TaskSpec, step


def sample_tasks(task_spec: dict, n: int, rng: np.random.Generator) -> list:
    """Draw n i.i.d. TaskSpec records from configured attribute ranges.

    Consumes the generator exactly as per-task ``uniform`` (data size,
    density), ``choice(p=...)`` (priority) and ``uniform`` (distance) calls
    would: four doubles per task, mapped the same way.  Raises ValueError
    when a drawn attribute is not a finite positive number."""
    lo_d, hi_d = task_spec["data_size"]
    lo_e, hi_e = task_spec["compute_density"]
    lo_l, hi_l = task_spec["distance"]
    priorities = task_spec["priorities"]
    probs = np.asarray(task_spec["priority_probs"], dtype=float)
    if n <= 0:
        return []
    # Generator.choice's checks: same length, non-negative, sums to 1.
    if (len(probs) != len(priorities) or np.any(probs < 0)
            or not abs(probs.sum() - 1.0) <= math.sqrt(np.finfo(float).eps)):
        raise ValueError(f"priority probabilities {probs.tolist()} do not form "
                         f"a distribution over {len(priorities)} priorities")
    u = rng.random((n, 4))
    # Generator.choice: the first index whose normalized cdf exceeds u.
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    picks = cdf.searchsorted(u[:, 2], side="right")
    values = np.array([float(p) for p in priorities])
    return TaskSpec.from_columns(lo_d + (hi_d - lo_d) * u[:, 0],
                                 lo_e + (hi_e - lo_e) * u[:, 1],
                                 values[picks],
                                 lo_l + (hi_l - lo_l) * u[:, 3])


def traffic_counts(traffic: dict, regions: int, horizon: int,
                   rng: np.random.Generator, n_max: int | None = None) -> np.ndarray:
    """Sinusoid-plus-noise user counts, one column per long slot."""
    base = float(traffic["base"])
    amplitude = float(traffic["amplitude"])
    period = float(traffic["period"])
    noise = float(traffic["noise_std"])
    counts = np.zeros((regions, horizon))
    for i in range(regions):
        phase = 2.0 * math.pi * i / max(regions, 1)
        for h in range(horizon):
            level = base + amplitude * math.sin(2.0 * math.pi * h / period + phase)
            level += noise * rng.normal()
            counts[i, h] = round(max(0.0, level))
    if n_max is not None:
        counts = np.minimum(counts, n_max)
    return counts


@dataclass
class Scenario:
    """Pre-sampled traffic and task batches for one simulation run."""

    counts: np.ndarray  # (regions, horizon) user counts
    tasks: list         # tasks[region][long_slot][short_slot] -> list[TaskSpec]


def generate_scenario(config: Config, seed: int) -> Scenario:
    """Deterministic workload for (config, seed): per-slot task batches whose
    sizes follow the traffic counts."""
    ss = np.random.SeedSequence([seed, 0x5ce])
    rng_counts, rng_tasks = (np.random.default_rng(s) for s in ss.spawn(2))
    counts = traffic_counts(config.traffic, config.regions,
                            config.horizon, rng_counts, n_max=config.n_max)
    # One draw for the whole scenario, in region, long-slot, short-slot
    # order: the same doubles per-slot draws would consume.
    slots = config.short_slots
    drawn = sample_tasks(config.tasks, slots * int(counts.sum()), rng_tasks)
    tasks = []
    start = 0
    for i in range(config.regions):
        per_region = []
        for h in range(config.horizon):
            size = int(counts[i, h])
            per_region.append([drawn[start + t * size:start + (t + 1) * size]
                               for t in range(slots)])
            start += slots * size
        tasks.append(per_region)
    return Scenario(counts=counts, tasks=tasks)


# ---------------------------------------------------------------------------
# Offloading instances and the episodic environment
# ---------------------------------------------------------------------------

@dataclass
class InstanceFamily:
    """Distribution over single-region offloading instances.

    Rented bandwidth is drawn as a headroom factor times the sum of the
    tasks' empty-queue minimal bandwidths, so instances range from
    comfortable to oversubscribed.  Unservable tasks add nothing; with no
    servable task the base is the total data over the deadline."""

    task_spec: dict
    radio: RadioParams
    econ: EconParams
    frequency: float
    n_range: tuple = (3, 10)
    vm_counts: tuple = (2, 3)
    headroom: tuple = (0.55, 1.3)

    def sample(self, rng: np.random.Generator) -> RegionState:
        n = int(rng.integers(self.n_range[0], self.n_range[1] + 1))
        tasks = sample_tasks(self.task_spec, n, rng)
        vm_count = int(self.vm_counts[rng.integers(0, len(self.vm_counts))])
        needs = [minimal_bandwidth(t, 0.0, self.frequency, self.radio, self.econ)
                 for t in tasks]
        base = sum(need for need in needs if math.isfinite(need))
        if base <= 0.0:
            base = sum(t.data_size for t in tasks) / self.econ.deadline
        bandwidth = float(rng.uniform(*self.headroom)) * base
        return RegionState(region=0, bandwidth=bandwidth, vm_count=vm_count,
                           frequency=self.frequency, tasks=tasks,
                           pending=(0.0,) * vm_count)

    @classmethod
    def from_config(cls, config: Config, **overrides) -> "InstanceFamily":
        kwargs = dict(task_spec=config.tasks, radio=config.radio,
                      econ=config.econ, frequency=config.vm_frequency,
                      n_range=(3, min(10, config.n_max)))
        kwargs.update(overrides)
        return cls(**kwargs)


class OffloadEnv:
    """Episodic single-region environment driving the allocation agent.

    Each episode samples an instance (rented resources plus a first task
    batch) and runs ``episode_slots`` short slots; fresh arrivals are drawn
    each slot from the instance family.  Queues carry backlog from slot to
    slot only when the family's deadline exceeds ``slot_duration``: with
    ``deadline <= slot_duration``, as shipped, every served task finishes
    within its slot and each slot starts with empty queues.
    Observations are encoded state vectors; actions are raw unit-box
    vectors.
    """

    def __init__(self, family: InstanceFamily, n_max: int, seed: int,
                 episode_slots: int = 1, slot_duration: float = 1.0):
        self.family = family
        self.n_max = n_max
        self.episode_slots = episode_slots
        self.slot_duration = slot_duration
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0ff]))
        self.state: RegionState | None = None
        self._obs: np.ndarray | None = None
        self._slot = 0

    @property
    def reward_scale(self) -> float:
        """Suggested training divisor: the rough per-slot revenue ceiling."""
        return self.family.econ.reward_per_task * self.n_max

    @property
    def vm_frequency(self) -> float:
        return self.family.frequency

    def spawn(self, seed: int) -> "OffloadEnv":
        """Independent copy with its own stream (for evaluation rollouts)."""
        return OffloadEnv(self.family, self.n_max, seed,
                          episode_slots=self.episode_slots,
                          slot_duration=self.slot_duration)

    def _truncate(self, tasks: list) -> list:
        return tasks[:self.n_max]

    def encode(self) -> np.ndarray:
        """The current observation; `step` decodes its action against it."""
        self._obs = agent_mod.encode_state(self.state, self.family.radio,
                                           self.family.econ, self.n_max)
        return self._obs

    def reset(self) -> np.ndarray:
        self.state = self.family.sample(self.rng)
        self.state.tasks = self._truncate(self.state.tasks)
        self._slot = 0
        return self.encode()

    def snapshot(self):
        return self.state.copy(), self._slot

    def restore(self, snap) -> np.ndarray:
        """Return to a snapshot; returns its observation."""
        self.state = snap[0].copy()
        self._slot = snap[1]
        return self.encode()

    def step(self, raw_action: np.ndarray):
        """Apply a raw action taken at the last observation returned;
        returns (reward, next observation, done)."""
        action = agent_mod.decode_action(raw_action, self._obs)
        reward, next_state, _ = step(self.state, action, self.family.econ,
                                     self.family.radio,
                                     slot_duration=self.slot_duration)
        self._slot += 1
        done = self._slot >= self.episode_slots
        n = int(self.rng.integers(self.family.n_range[0],
                                  self.family.n_range[1] + 1))
        next_state.tasks = self._truncate(
            sample_tasks(self.family.task_spec, n, self.rng))
        self.state = next_state
        return reward, self.encode(), done


def rollout_value(env: OffloadEnv, snap, policy, rollouts: int, seed: int,
                  horizon: int | None = None):
    """Monte-Carlo value of a policy from a saved env snapshot.

    ``policy(observation) -> raw action``.  Returns (mean, standard error)
    of the undiscounted return over ``rollouts`` independently re-seeded
    continuations capped at ``horizon`` slots."""
    returns = np.zeros(rollouts)
    ss = np.random.SeedSequence([seed, 0xa11])
    children = ss.spawn(rollouts)
    for k in range(rollouts):
        sim = env.spawn(0)
        sim.rng = np.random.default_rng(children[k])
        obs = sim.restore(snap)
        total = 0.0
        done = False
        steps = 0
        cap = horizon if horizon is not None else env.episode_slots
        while not done and steps < cap:
            r, obs, done = sim.step(policy(obs))
            total += r
            steps += 1
        returns[k] = total
    se = returns.std(ddof=1) / math.sqrt(rollouts) if rollouts > 1 else 0.0
    return float(returns.mean()), float(se)
