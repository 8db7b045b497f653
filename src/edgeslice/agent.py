"""Twin-critic offloading agent with delayed updates and dual distillation.

The observation carries what the settlement reward depends on: each task's
priority, its execution share of the deadline at the region's own VM rate,
and, under one fixed placement (least-loaded VM in list order, starting
from the region's per-VM backlog), its VM, the queue ahead of it and the
minimal bandwidth share that meets its deadline behind that queue.  It is
four region scalars followed by an ``(n_max, 8)`` slot table, one row per
task slot (`slot_table`); the first ``user count`` slots are occupied.  The
action is one bandwidth fraction per task slot; `decode_action` reads the
VMs from the observation the action was taken at.  The actor and critic
nets run on occupied task slots only: a padded slot gets no row, a zero
fraction and no score.

The six nets (actor, twin critics and their targets) hold float32
parameters and Adam moments, and their feature rows are float32; the
observations, actions, rewards and value estimates stay float64.  The
replay ring stores each observation's feature rows, featurised once when
the environment returned it.  A checkpoint's nets load from float32 or
float64 arrays and are cast to float32.

Two peer agents explore the allocation problem from differently seeded
environments.  Each runs clipped-noise target smoothing, a min-of-two-target
TD backup, critic regression every step, and actor / target / distillation
updates on even step counts.  Distillation regresses the actor toward the
peer's actions, weighted by the exponentiated advantage of the peer's
twin-critic value over one's own.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import checkpoint
from .baselines import minimal_bandwidth
from .env import AllocationAction, EconParams, RadioParams, RegionState
from .errors import CheckpointError, DivergenceError
from .nn import Network, soft_update

# ---------------------------------------------------------------------------
# State / action codecs
# ---------------------------------------------------------------------------

_SLOT_COLS = 8     # columns of the observation's slot table
_SHARE_CAP = 2.0   # shares of the deadline or of the bandwidth are clipped here


def state_dim(n_max: int) -> int:
    """Observation length: four region scalars, then the ``(n_max, 8)``
    slot table of `slot_table`."""
    return 4 + _SLOT_COLS * n_max


def slot_table(obs: np.ndarray, n_max: int) -> np.ndarray:
    """The ``(..., n_max, 8)`` slot table of an observation or a batch of
    them, as a view.  Row j describes task slot j and is zero when padded;
    its columns are rate, compute, need, selector, priority, exe, queue and
    cumulative (see `encode_state`)."""
    obs = np.asarray(obs)
    return obs[..., 4:].reshape(*obs.shape[:-1], n_max, _SLOT_COLS)


def encode_state(region: RegionState, radio: RadioParams, econ: EconParams,
                 n_max: int) -> np.ndarray:
    """Flat observation of one region and slot: the region scalars (rented
    bandwidth, VM count, user count, upload power), then the slot table,
    one row per task, zero rows padding it to ``n_max``.

    Per task: uplink-rate and compute demand, priority, and the execution
    share of the deadline at the region's own VM rate.

    It also fixes the VM placement: in list order, each task goes to the
    least-loaded VM (lowest index on ties), starting from the region's
    backlog with every earlier servable task assumed served.  Per task it
    records that VM as a selector ``(v + 0.5) / vm_count``, the queue ahead
    of it as a share of the deadline, the minimal bandwidth share that meets
    the deadline behind that queue (`baselines.minimal_bandwidth`), and the
    cumulative share of itself and every task preferred to it (higher
    priority, then smaller share).  A task whose minimal share exceeds the
    whole rented bandwidth cannot be served: it loads no VM, its share reads
    ``_SHARE_CAP`` and it adds to no other task's cumulative share."""
    n = len(region.tasks)
    if n > n_max:
        raise ValueError(f"{n} users exceed the padding bound {n_max}")
    deadline, frequency, bandwidth = econ.deadline, region.frequency, region.bandwidth
    cycles_per_deadline = frequency * deadline
    pending = list(region.pending)
    rows = []  # per task: its slot-table columns before "cumulative"
    for task in region.tasks:
        selector = queue = 0.0
        need = _SHARE_CAP
        if pending:
            vm = pending.index(min(pending))
            selector = (vm + 0.5) / region.vm_count
            queue = pending[vm] / cycles_per_deadline
            bw = minimal_bandwidth(task, pending[vm], frequency, radio, econ)
            if bw <= bandwidth:
                need = bw / bandwidth
                pending[vm] += task.work
        rows.append((task.data_size / (deadline * task.spectral_efficiency(radio)),
                     task.work / deadline, need, selector, task.priority,
                     task.work / cycles_per_deadline, queue))
    obs = np.zeros(state_dim(n_max))
    obs[:4] = bandwidth, region.vm_count, n, radio.upload_power
    table = slot_table(obs, n_max)
    if rows:
        table[:n, :-1] = rows
    served = 0.0
    for j in sorted(range(n), key=lambda j: (-rows[j][4], rows[j][2])):
        need = rows[j][2]
        table[j, -1] = served + need
        if need <= 1.0:
            served += need
    return obs


def decode_action(raw: np.ndarray, obs: np.ndarray) -> AllocationAction:
    """Map an [0,1]^n_max vector of bandwidth fractions, taken at observation
    ``obs``, to an allocation for the observation's users: their fractions
    (clipped, not rescaled: `env.step` projects them), and the VMs of its
    placement."""
    raw = np.clip(np.asarray(raw, dtype=float), 0.0, 1.0)
    obs = np.asarray(obs, dtype=float)
    n_max = raw.size
    if obs.size != state_dim(n_max):
        raise ValueError(f"observation of length {obs.size} does not fit "
                         f"{n_max} fractions (expected {state_dim(n_max)})")
    vm_count, n_users = int(obs[1]), int(obs[2])
    selectors = slot_table(obs, n_max)[:n_users, 3]
    vm = np.minimum((selectors * vm_count).astype(int), vm_count - 1)
    return AllocationAction(bw_fraction=raw[:n_users], vm_index=vm)


def feature_scale(n_max: int, bw_ref: float, rate_ref: float,
                  compute_ref: float, power_ref: float) -> np.ndarray:
    """Divisors that bring observations to unit scale: one per region
    scalar, then one per slot-table column.

    bw_ref sizes the rented-bandwidth feature, rate_ref the per-user uplink
    demands, compute_ref the per-user cycle demands; shares, priorities and
    selectors are left as they are."""
    return np.array([bw_ref, 2.0, n_max, power_ref,
                     rate_ref, compute_ref, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# Replay buffer
# ---------------------------------------------------------------------------

class ReplayBuffer:
    """Fixed-capacity ring of (s, a, r, s') transitions, sampled uniformly.

    Both observations of a transition are stored featurised, as pushed: a
    one-observation `_Features` holder's slot rows (the nets' dtype; slots
    past the user count are never read), its float64 need column and its
    user count.  At ``n_max`` 10 with float32 nets that is 1,544 bytes per
    transition, against 1,432 for two raw float64 observations.  `sample`
    gathers the occupied rows of each half into a `_Features` holder built
    for ``config`` (a block's `config`), so an update step featurises
    nothing; the holders carry no raw observations."""

    def __init__(self, capacity: int, config: tuple):
        n_max, _, dtype = config
        self.capacity = capacity
        self.config = config
        # Axis 0 is the half: 0 the observation acted on, 1 the next one.
        self.rows = np.zeros((2, capacity * n_max, _STATE_COLS), dtype)
        self.need = np.zeros((2, capacity * n_max))
        self.users = np.zeros((2, capacity), dtype=np.int64)
        self.actions = np.zeros((capacity, n_max))
        self.rewards = np.zeros(capacity)
        self._write = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, s: "_Features", a, r, s2: "_Features") -> None:
        i = self._write
        start = i * self.config[0]
        for half, feats in enumerate((s, s2)):
            users = feats.valid.size
            self.rows[half, start:start + users] = feats.rows
            self.need[half, start:start + users] = feats.need
            self.users[half, i] = users
        self.actions[i] = a
        self.rewards[i] = r
        self._write = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int):
        """(states, actions, rewards, next states) of ``batch_size`` uniform
        draws, each state half a `_Features` holder."""
        idx = rng.integers(0, self._size, size=batch_size)
        return (self._gather(0, idx), self.actions[idx], self.rewards[idx],
                self._gather(1, idx))

    def _gather(self, half: int, idx: np.ndarray) -> "_Features":
        n_max = self.config[0]
        users = self.users[half].take(idx)
        valid = np.flatnonzero(np.arange(n_max) < users[:, None])
        # Slot j of sample s is valid entry s * n_max + j; it is stored at
        # row idx[s] * n_max + j.
        stored = valid + np.repeat((idx - np.arange(idx.size)) * n_max, users)
        return _Features(valid, self.rows[half].take(stored, axis=0),
                         self.need[half].take(stored), idx.size, self.config)


# ---------------------------------------------------------------------------
# Agent bundle
# ---------------------------------------------------------------------------

@dataclass
class AgentHyperparams:
    gamma: float = 0.99
    tau: float = 0.005
    critic_lr: float = 1e-3
    actor_lr: float = 1e-4
    distill_lr: float = 1e-4
    batch_size: int = 64
    buffer_capacity: int = 50_000
    noise_start: float = 0.3
    noise_end: float = 0.05
    noise_decay_steps: int = 20_000
    smooth_std: float = 0.2
    smooth_clip: float = 0.5
    distill_alpha: float = 1.0
    hidden: tuple = (64, 64)
    epochs: int = 150
    warmup: int = 500


# ---------------------------------------------------------------------------
# Permutation-equivariant actor / critic blocks
#
# Rewards decompose per user, so both networks apply one shared dense block
# to every occupied user slot (its own demand features plus instance-level
# aggregates) instead of learning separate weights per slot position.  The
# critic's Q-value is the sum of its outputs over a sample's occupied slots.
# ---------------------------------------------------------------------------

_STATE_COLS = 16   # per-slot state features fed to both blocks
_MARGIN_CAP = 6.0  # allocated-over-needed ratio is clipped here
# Caps on the copied priority, execution share, queue ahead and share
# admitted before (features 12-15).
_TAIL_CAPS = np.array([np.inf, _SHARE_CAP, _SHARE_CAP, 4.0])


@dataclass(eq=False)
class _Features:
    """One batch of observations featurised for a block configuration.

    Built by `_TaskBlock._state_rows`, or gathered from stored rows by
    `ReplayBuffer.sample`, and shared by every actor and critic pass over
    the batch.  In training each observation is featurised once, when the
    environment returns it: `act` runs on that one-observation holder and
    the replay ring stores its rows.  Only occupied task slots get a row:
    the nets never see a padded slot.  ``valid`` lists the occupied slots
    as flat indices into the (K, n_max) slot grid, in row order.  The
    critic's action-dependent rows are memoised for the last ``actions``
    array (by identity), so twin critics scoring the same actions build
    them once."""

    valid: np.ndarray      # (V,) flat indices of the occupied slots
    rows: np.ndarray       # (V, _STATE_COLS) state features of occupied slots
    need: np.ndarray       # (V,) minimal bandwidth share at the placement
    k: int
    config: tuple          # (n_max, state_scale, rows' dtype) it was built for
    states: np.ndarray | None = None  # (K, state_dim) raw observations, if kept
    actions: np.ndarray | None = None
    critic_rows: tuple | None = None


class _TaskBlock:
    """Shared plumbing: split raw observations into per-slot feature rows.

    ``frequency`` is the VM rate of the deployment the agent was built for,
    recorded in its checkpoint.  Featurisation does not read it: each
    observation carries its region's own execution and queue shares."""

    def __init__(self, net: Network, n_max: int, state_scale: np.ndarray,
                 frequency: float):
        self.net = net
        self.n_max = n_max
        self.state_scale = np.asarray(state_scale, dtype=float)
        self.frequency = frequency

    @property
    def params(self) -> dict:
        return self.net.params

    def apply_gradients(self, grads: dict, lr: float) -> None:
        self.net.apply_gradients(grads, lr)

    def _state_rows(self, states: np.ndarray) -> _Features:
        """Featurise raw observations into rows shared by actor and critic.

        Per occupied slot: the region scalars and the slot's rate and
        compute demand, each divided by its divisor in the state scale
        (features 0-5; the other columns' divisors are 1 and not read); 1.0
        (6); the slot position (7); its need (8); the sample's total need
        (9) and compute demand per VM (10); the slot's cheapness rank (11);
        its priority, execution share, queue ahead and cumulative share
        (12-15).  They are computed in float64, then stored in the net's
        dtype."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        k, n, scale = states.shape[0], self.n_max, self.state_scale
        table = slot_table(states, n)
        need_grid = table[:, :, 2]
        occupied = np.arange(n) < states[:, 2:3]
        valid = np.flatnonzero(occupied)
        sample, slot = np.divmod(valid, n)
        own = table[sample, slot]
        rows = np.empty((valid.size, _STATE_COLS))
        rows[:, :4] = states[sample, :4]
        rows[:, 4:6] = own[:, :2]
        rows[:, :6] /= scale[:6]
        rows[:, 6] = 1.0
        rows[:, 7] = slot / n
        rows[:, 8] = own[:, 2]
        rows[:, 9] = np.minimum(need_grid.sum(axis=1), 4.0)[sample]
        rows[:, 10] = ((table[:, :, 1] / scale[5]).sum(axis=1)
                       / np.maximum(states[:, 1], 1.0))[sample]
        rank = np.argsort(np.argsort(np.where(occupied, need_grid, 99.0), axis=1,
                                     kind="stable"), axis=1, kind="stable")
        rows[:, 11] = rank.ravel()[valid] / n               # cheapness rank
        np.minimum(own[:, 4:], _TAIL_CAPS, out=rows[:, 12:])
        return _Features(valid, rows.astype(self.net.dtype), rows[:, 8], k,
                         self.config, states)

    @property
    def config(self) -> tuple:
        """(n_max, state scale, rows' dtype): what a `_Features` holder
        built for this block records."""
        return self.n_max, self.state_scale, self.net.dtype

    def _features(self, states) -> _Features:
        """``states`` as features for this block: a holder built for the same
        n_max, scale and dtype is reused, anything else featurised.  A
        replay sample keeps no raw observations, so it must fit the block."""
        if not isinstance(states, _Features):
            return self._state_rows(states)
        n_max, scale, dtype = states.config
        if (n_max == self.n_max and dtype == self.net.dtype
                and (scale is self.state_scale
                     or np.array_equal(scale, self.state_scale))):
            return states
        if states.states is None:
            raise ValueError("a replay sample built for another n_max, state "
                             "scale or dtype cannot be featurised again")
        return self._state_rows(states.states)


class TaskBlockActor(_TaskBlock):
    """Maps observations to [0,1]^n_max: one learned bandwidth fraction per
    occupied task slot, 0 on padded slots."""

    IN_COLS = _STATE_COLS

    def copy(self) -> "TaskBlockActor":
        return TaskBlockActor(self.net.copy(), self.n_max, self.state_scale,
                              self.frequency)

    def forward(self, states, return_cache: bool = False):
        """``states``: raw observations, (state_dim,) or (K, state_dim), or
        a `_Features` holder of K rows."""
        single = not isinstance(states, _Features) and np.asarray(states).ndim == 1
        feats = self._features(states)
        out, cache = self.net.forward(feats.rows, return_cache=True)
        actions = np.zeros((feats.k, self.n_max))
        actions.reshape(-1)[feats.valid] = out[:, 0]
        if single:
            actions = actions[0]
        if return_cache:
            return actions, {"net": cache, "valid": feats.valid}
        return actions

    def backward(self, cache, d_actions: np.ndarray) -> dict:
        """Parameter gradients for a (K, n_max) upstream; only the occupied
        slots' entries reach the net."""
        d_actions = np.atleast_2d(np.asarray(d_actions, dtype=float))
        d_out = d_actions.reshape(-1)[cache["valid"]]
        grads, _ = self.net.backward(cache["net"], d_out[:, None], input_grad=False)
        return grads


class TaskBlockCritic(_TaskBlock):
    """Q(s, a) as a sum of per-slot scores over the occupied slots.

    Each occupied slot sees the shared state features plus its own
    fraction, the total committed fraction, and its post-projection
    allocated-over-needed bandwidth margin.  Padded slots get no row, so
    their fractions, which `decode_action` drops, count for nothing."""

    IN_COLS = _STATE_COLS + 3

    def copy(self) -> "TaskBlockCritic":
        return TaskBlockCritic(self.net.copy(), self.n_max, self.state_scale,
                               self.frequency)

    def _rows(self, feats: _Features, actions):
        if feats.actions is actions:
            return feats.critic_rows
        action_arr = np.atleast_2d(np.asarray(actions, dtype=float))
        k, n = feats.k, self.n_max
        sample = feats.valid // n
        fractions = action_arr.reshape(-1)[feats.valid]
        total = np.bincount(sample, fractions, minlength=k)
        denom = np.maximum(total, 1.0)
        ratio = 1.0 / np.maximum(feats.need, 1e-9)
        margin_raw = fractions * ratio / denom[sample]
        clipped = margin_raw > _MARGIN_CAP
        margin = np.where(clipped, _MARGIN_CAP, margin_raw)
        rows = np.empty((feats.valid.size, self.IN_COLS), self.net.dtype)
        rows[:, :_STATE_COLS] = feats.rows
        rows[:, _STATE_COLS + 0] = fractions
        rows[:, _STATE_COLS + 1] = total[sample]
        rows[:, _STATE_COLS + 2] = margin
        aux = {"valid": feats.valid, "sample": sample, "fractions": fractions,
               "total": total, "denom": denom, "ratio": ratio,
               "clipped": clipped, "k": k}
        feats.actions, feats.critic_rows = actions, (rows, aux)
        return rows, aux

    def forward(self, states, actions, return_cache: bool = False):
        """``states``: raw observations or a `_Features` holder; ``actions``
        must not be changed in place while a holder memoises it."""
        rows, aux = self._rows(self._features(states), actions)
        out, cache = self.net.forward(rows, return_cache=True)
        values = np.bincount(aux["sample"], out[:, 0], minlength=aux["k"])
        if return_cache:
            return values, {"net": cache, "aux": aux}
        return values

    def backward(self, cache, d_values: np.ndarray, *, action_grad: bool = True):
        """Gradients of sum(d_values * Q) w.r.t. parameters and actions; the
        (K, n_max) action gradient is None, and not computed, when
        ``action_grad`` is false.  Padded fractions get a zero gradient."""
        aux = cache["aux"]
        k, n, sample = aux["k"], self.n_max, aux["sample"]
        d_values = np.asarray(d_values, dtype=float).reshape(k)
        grads, d_rows = self.net.backward(cache["net"], d_values[sample][:, None],
                                          input_grad=action_grad)
        if not action_grad:
            return grads, None
        d_frac = d_rows[:, _STATE_COLS + 0].astype(float)
        # Total-commitment column reaches every fraction of the sample.
        d_frac += np.bincount(sample, d_rows[:, _STATE_COLS + 1], minlength=k)[sample]
        # Margin column: m_j = f_j * ratio_j / max(1, sum f).
        d_margin = np.where(aux["clipped"], 0.0, d_rows[:, _STATE_COLS + 2])
        denom = aux["denom"]
        d_frac += d_margin * aux["ratio"] / denom[sample]
        over = aux["total"] > 1.0
        if np.any(over):
            # d m_j / d f_i = -f_j ratio_j / S^2 for every i when S > 1.
            coeff = np.bincount(sample, d_margin * aux["fractions"] * aux["ratio"],
                                minlength=k)
            correction = np.where(over, coeff / denom ** 2, 0.0)
            d_frac -= correction[sample]
        d_actions = np.zeros((k, n))
        d_actions.reshape(-1)[aux["valid"]] = d_frac
        return grads, d_actions


@dataclass
class AgentBundle:
    """One agent's actor, twin critics and their target copies."""

    actor: TaskBlockActor
    critic1: TaskBlockCritic
    critic2: TaskBlockCritic
    target_actor: TaskBlockActor
    target_critic1: TaskBlockCritic
    target_critic2: TaskBlockCritic
    state_scale: np.ndarray
    n_max: int
    noise_scale: float = 0.3
    step_count: int = 0
    distill_alpha: float = 1.0


_DTYPE = np.float32   # the agent nets' parameter dtype


def _single(params: dict) -> dict:
    """``params`` as `_DTYPE` arrays."""
    return {name: p.astype(_DTYPE) for name, p in params.items()}


def make_agent(n_max: int, state_scale: np.ndarray, frequency: float,
               hidden=(64, 64), rng: np.random.Generator | None = None,
               noise_scale: float = 0.3, distill_alpha: float = 1.0) -> AgentBundle:
    """Fresh agent: float64 uniform draws (`Network.initialize`), stored as
    float32."""
    rng = rng if rng is not None else np.random.default_rng(0)
    scale = np.asarray(state_scale, dtype=float)
    if scale.shape != (4 + _SLOT_COLS,):
        raise ValueError(f"state_scale must hold {4 + _SLOT_COLS} divisors "
                         f"(see feature_scale), got shape {scale.shape}")
    actor_acts = ("relu",) * len(hidden) + ("sigmoid",)
    critic_acts = ("relu",) * len(hidden) + ("identity",)

    def net(in_cols, acts):
        drawn = Network.initialize((in_cols, *hidden, 1), acts, rng)
        drawn.params = _single(drawn.params)
        return drawn

    actor = TaskBlockActor(net(_STATE_COLS, actor_acts), n_max, scale, frequency)
    critic1 = TaskBlockCritic(net(TaskBlockCritic.IN_COLS, critic_acts),
                              n_max, scale, frequency)
    critic2 = TaskBlockCritic(net(TaskBlockCritic.IN_COLS, critic_acts),
                              n_max, scale, frequency)
    return AgentBundle(
        actor=actor, critic1=critic1, critic2=critic2,
        target_actor=actor.copy(), target_critic1=critic1.copy(),
        target_critic2=critic2.copy(), state_scale=scale,
        n_max=n_max, noise_scale=noise_scale, distill_alpha=distill_alpha)


# ---------------------------------------------------------------------------
# Core update operations
# ---------------------------------------------------------------------------

def act(agent: AgentBundle, state, explore: bool,
        rng: np.random.Generator | None = None, clip: bool = True) -> np.ndarray:
    """Deterministic policy output, plus Gaussian exploration noise when
    exploring; clipped back to the unit box unless clip=False.  ``state``
    is one raw observation or a `_Features` holder of one."""
    a = agent.actor.forward(state)
    if isinstance(state, _Features):
        a = a[0]
    if explore:
        if rng is None:
            raise ValueError("exploration requires an rng")
        a += rng.normal(0.0, agent.noise_scale, size=a.shape)
    return np.clip(a, 0.0, 1.0) if clip else a


def td_target(agent: AgentBundle, batch, gamma: float, smooth_std: float,
              smooth_clip: float, rng: np.random.Generator) -> np.ndarray:
    """Backup values: reward plus the discounted minimum of the two target
    critics at the smoothed target action (clipped noise added to it).

    ``batch`` is (states, actions, rewards, next_states); either state half
    may be raw observations or a `_Features` holder."""
    _, _, rewards, next_states = batch
    next_states = agent.target_actor._features(next_states)
    a2 = agent.target_actor.forward(next_states)
    a2 += np.clip(rng.normal(0.0, smooth_std, size=a2.shape),
                  -smooth_clip, smooth_clip)
    a2 = np.clip(a2, 0.0, 1.0)
    q1 = agent.target_critic1.forward(next_states, a2)
    q2 = agent.target_critic2.forward(next_states, a2)
    return rewards + gamma * np.minimum(q1, q2)


def update_critics(agent: AgentBundle, batch, targets: np.ndarray,
                   lr: float) -> tuple:
    """One squared-error regression step per critic toward fixed targets."""
    states, actions, _, _ = batch
    states = agent.critic1._features(states)
    k = states.k
    losses = []
    for critic in (agent.critic1, agent.critic2):
        pred, cache = critic.forward(states, actions, return_cache=True)
        err = pred - targets
        loss = float(err @ err) / k
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite critic loss {loss}")
        grads, _ = critic.backward(cache, 2.0 * err / k, action_grad=False)
        critic.apply_gradients(grads, lr)
        losses.append(loss)
    return tuple(losses)


def update_actor(agent: AgentBundle, batch, actor_lr: float, tau: float) -> bool:
    """Deterministic policy-gradient ascent on the first critic, applied
    only on even step counts; target networks track on the same schedule.

    Returns whether the update was applied."""
    if agent.step_count % 2 != 0:
        return False
    states = agent.actor._features(batch[0])
    k = states.k
    actions, actor_cache = agent.actor.forward(states, return_cache=True)
    _, critic_cache = agent.critic1.forward(states, actions, return_cache=True)
    # Ascent on mean Q == descent on -mean Q; only the action-side gradient
    # of the critic reaches the actor.
    _, d_actions = agent.critic1.backward(critic_cache, -np.ones(k) / k)
    grads = agent.actor.backward(actor_cache, d_actions)
    agent.actor.apply_gradients(grads, actor_lr)
    soft_update(agent.target_actor.net, agent.actor.net, tau)
    soft_update(agent.target_critic1.net, agent.critic1.net, tau)
    soft_update(agent.target_critic2.net, agent.critic2.net, tau)
    return True


def _twin_value(agent: AgentBundle, feats: _Features, actions) -> np.ndarray:
    """Elementwise minimum of the two online critics at given actions."""
    q1 = agent.critic1.forward(feats, actions)
    q2 = agent.critic2.forward(feats, actions)
    return np.minimum(q1, q2)


def value_estimate(agent: AgentBundle, states) -> np.ndarray:
    """Twin-critic value of the agent's own deterministic action: the
    elementwise minimum of the two online critics."""
    feats = agent.actor._features(states)
    return _twin_value(agent, feats, agent.actor.forward(feats))


def distill_weight(alpha: float, xi) -> np.ndarray:
    """Confidence weight exp(alpha * advantage), exponent clipped to +-50
    so extreme value gaps stay finite."""
    return np.exp(np.clip(alpha * np.asarray(xi, dtype=float), -50.0, 50.0))


def distill(current: AgentBundle, peer: AgentBundle, batch,
            lr: float) -> float:
    """One plain gradient step on the advantage-weighted regression of the
    current actor toward the (frozen) peer actor over the batch states.

    A vanilla step (not adaptive moments) keeps the update magnitude
    proportional to the confidence weight, so near-zero weights leave the
    parameters essentially untouched.  Weights far above 1 are normalized
    batch-wide, preserving their relative ordering.

    The regression covers occupied task slots only: both actors output 0 on
    padded slots, so those entries add nothing to the loss or its
    gradient."""
    feats = current.actor._features(batch[0])
    k = feats.k
    # Each actor runs once: its action is both the one its twin critics
    # value and, for the peer, the regression target.
    target = peer.actor.forward(feats)
    out, cache = current.actor.forward(feats, return_cache=True)
    xi = _twin_value(peer, feats, target) - _twin_value(current, feats, out)
    w = distill_weight(current.distill_alpha, xi)
    w = w / max(1.0, float(w.mean()))
    diff = out - target
    loss = float(0.5 * ((diff ** 2).sum(axis=1) * w).mean())
    if not math.isfinite(loss):
        raise DivergenceError(f"non-finite distillation loss {loss}")
    grads = current.actor.backward(cache, diff * w[:, None] / k)
    for name, g in grads.items():
        current.actor.params[name] -= lr * g
    return loss


def hybrid_policy(current: AgentBundle, peer: AgentBundle,
                  state: np.ndarray) -> np.ndarray:
    """State-wise selector between the two deterministic policies: follow
    whichever agent's twin-critic value is higher (the peer on a strictly
    positive peer advantage).  One featurisation, one pass per actor."""
    feats = current.actor._features(state)
    a_peer, a_current = peer.actor.forward(feats), current.actor.forward(feats)
    xi = _twin_value(peer, feats, a_peer) - _twin_value(current, feats, a_current)
    return np.clip(a_peer[0] if xi[0] > 0 else a_current[0], 0.0, 1.0)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

_NETS = ("actor", "critic1", "critic2", "target_actor",
         "target_critic1", "target_critic2")


def save_agent(agent: AgentBundle, path) -> None:
    arrays = {"state_scale": agent.state_scale}
    meta = {
        "format": "agent",
        "n_max": agent.n_max,
        "noise_scale": agent.noise_scale,
        "step_count": agent.step_count,
        "distill_alpha": agent.distill_alpha,
        "frequency": agent.actor.frequency,
        "nets": {},
    }
    for net_name in _NETS:
        net: Network = getattr(agent, net_name).net
        meta["nets"][net_name] = {"dims": list(net.dims),
                                  "activations": list(net.activations)}
        for pname, arr in net.params.items():
            arrays[f"{net_name}.{pname}"] = arr
    checkpoint.save_arrays(path, arrays, meta)


def load_agent(path) -> AgentBundle:
    """Read an agent checkpoint.  Float32 or float64 arrays load (float64
    nets, as older checkpoints store them, are cast to float32); any other
    dtype, a non-finite value or a shape the checkpoint's own metadata does
    not build raises CheckpointError naming the array, and malformed
    metadata raises it naming the field."""
    arrays, meta = checkpoint.load_arrays(path)
    if meta.get("format") != "agent":
        raise CheckpointError(f"{path}: not an agent checkpoint")
    try:
        scale = arrays["state_scale"]
        n_max = meta["n_max"]
        if type(n_max) is not int or n_max < 1:
            raise CheckpointError(f"{path}: metadata field 'n_max' must be an "
                                  f"integer >= 1, got {n_max!r}")
        frequency = meta["frequency"]
        checkpoint.check_array(path, "state_scale", scale, (4 + _SLOT_COLS,))
        scale = scale.astype(float)
        if not isinstance(meta["nets"], dict):
            raise CheckpointError(f"{path}: metadata field 'nets' must be an object")
        wrappers = {}
        for net_name in _NETS:
            wrapper_cls = TaskBlockActor if "actor" in net_name else TaskBlockCritic
            spec = meta["nets"][net_name]
            params = {k.split(".", 1)[1]: v for k, v in arrays.items()
                      if k.startswith(f"{net_name}.")}
            try:
                dims = tuple(spec["dims"])
                for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
                    for key, shape in ((f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))):
                        if key not in params:
                            raise KeyError(f"{net_name}.{key}")
                        checkpoint.check_array(path, f"{net_name}.{key}", params[key], shape)
                net = Network(dims, tuple(spec["activations"]), _single(params))
                if (net.dims[0], net.dims[-1]) != (wrapper_cls.IN_COLS, 1):
                    raise ValueError(f"dims {list(dims)} do not run from "
                                     f"{wrapper_cls.IN_COLS} inputs to 1 output")
            except (TypeError, ValueError) as exc:
                raise CheckpointError(f"{path}: metadata field 'nets.{net_name}' is "
                                      f"malformed: {exc}") from exc
            wrappers[net_name] = wrapper_cls(net, n_max, scale, frequency)
        return AgentBundle(
            state_scale=scale, n_max=n_max,
            noise_scale=meta["noise_scale"], step_count=meta["step_count"],
            distill_alpha=meta["distill_alpha"], **wrappers)
    except KeyError as exc:
        raise CheckpointError(f"{path}: agent checkpoint lacks {exc}") from exc


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

class CurveRow(NamedTuple):
    """One learning-curve row; the fields head the curves CSVs."""

    epoch: int
    step: int
    critic_loss1: float
    critic_loss2: float
    actor_objective: float
    eval_reward: float

    def as_row(self) -> tuple:
        """The row as a plain tuple, as perfbench's train_dual fingerprints it."""
        return tuple(self)


def greedy_episode_reward(agent: AgentBundle, env) -> float:
    """Total reward of one deterministic episode on an evaluation env."""
    s = env.reset()
    total = 0.0
    done = False
    while not done:
        r, s, done = env.step(act(agent, s, explore=False))
        total += r
    return total


@dataclass
class _Side:
    agent: AgentBundle
    env: object
    buffer: ReplayBuffer
    noise_rng: np.random.Generator
    sample_rng: np.random.Generator
    smooth_rng: np.random.Generator
    state: _Features = None   # the last observation, featurised
    curves: list = field(default_factory=list)


# glibc's mallopt parameter number for the heap trim threshold, and the
# value `train` sets: freed memory at the top of the heap is handed back to
# the OS only beyond this many bytes.
_M_TRIM_THRESHOLD = -1
_HEAP_TRIM_THRESHOLD = 4 << 20


def _keep_heap_mapped() -> None:
    """Set the C allocator's heap trim threshold to `_HEAP_TRIM_THRESHOLD`
    where the C library has glibc's ``mallopt``; elsewhere do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_THRESHOLD)


def train(env_current, env_peer, hp: AgentHyperparams, n_max: int,
          state_scale: np.ndarray, seed: int = 0,
          eval_env_current=None, eval_env_peer=None, eval_every: int = 10):
    """Full dual-agent loop: explore, store, regress critics every step,
    update actor / targets / distillation on even steps, symmetrically for
    the peer.  Deterministic given the seed and the envs' own seeding.

    Each observation an environment returns is featurised once: the agent
    acts on that holder and the replay ring stores its rows, so no update
    step featurises a sampled batch.

    On glibc, `train` first sets the process's heap trim threshold to
    `_HEAP_TRIM_THRESHOLD` (4 MiB).  Each update step allocates and frees
    arrays of about 100 KB; under the default threshold glibc gave the
    freed top of the heap back to the OS and faulted it in again, some
    14k-27k minor page faults per 160-step call.  The cost: up to 4 MiB of
    freed heap stays mapped for the rest of the process, and setting the
    threshold switches off glibc's dynamic mmap threshold, which then stays
    where it is (128 KiB unless earlier frees raised it).  Other C
    libraries are left as they are.

    Returns (current agent, peer agent, current curves, peer curves).
    """
    _keep_heap_mapped()
    ss = np.random.SeedSequence(seed)
    keys = [np.random.default_rng(s) for s in ss.spawn(8)]
    frequency = env_current.vm_frequency
    sides = []
    for idx, env in enumerate((env_current, env_peer)):
        agent = make_agent(n_max, state_scale, hidden=tuple(hp.hidden),
                           rng=keys[idx], noise_scale=hp.noise_start,
                           distill_alpha=hp.distill_alpha, frequency=frequency)
        # A side pushes one transition per slot, at least one per episode.
        # A ring sized to hold them all never wraps, so it samples as a
        # larger one would.
        pushes = hp.epochs * max(1, env.episode_slots)
        buffer = ReplayBuffer(min(hp.buffer_capacity, pushes), agent.actor.config)
        sides.append(_Side(agent=agent, env=env, buffer=buffer,
                           noise_rng=keys[2 + idx], sample_rng=keys[4 + idx],
                           smooth_rng=keys[6 + idx]))
    eval_envs = (eval_env_current, eval_env_peer)
    # Rewards are normalized into the critics' O(1) operating range; the
    # env suggests the divisor (raw eval rewards are never rescaled).
    reward_scale = max(env_current.reward_scale, 1e-12)

    def freeze(side: _Side) -> AgentBundle:
        # Read-only snapshot for the peer's distillation pass this step.
        actor = side.agent.actor.copy()
        c1 = side.agent.critic1.copy()
        c2 = side.agent.critic2.copy()
        return AgentBundle(actor=actor, critic1=c1, critic2=c2,
                           target_actor=actor, target_critic1=c1, target_critic2=c2,
                           state_scale=side.agent.state_scale, n_max=n_max,
                           distill_alpha=side.agent.distill_alpha)

    total_steps = 0
    noise_span = max(1, hp.noise_decay_steps)
    try:
        for epoch in range(hp.epochs):
            for side in sides:
                side.state = side.agent.actor._state_rows(side.env.reset())
            dones = [False, False]
            while not all(dones):
                frac = min(1.0, total_steps / noise_span)
                sigma = hp.noise_start + (hp.noise_end - hp.noise_start) * frac
                for i, side in enumerate(sides):
                    if dones[i]:
                        continue
                    side.agent.noise_scale = sigma
                    a = act(side.agent, side.state, explore=True, rng=side.noise_rng)
                    r, s2, dones[i] = side.env.step(a)
                    s2 = side.agent.actor._state_rows(s2)
                    side.buffer.push(side.state, a, r / reward_scale, s2)
                    side.state = s2

                # Step counters advance in lockstep; distillation on even
                # steps reads parameters frozen before either side updates.
                even_step = sides[0].agent.step_count % 2 == 0
                frozen = [freeze(side) for side in sides] if even_step else None
                for i, side in enumerate(sides):
                    if len(side.buffer) < max(hp.warmup, hp.batch_size):
                        side.agent.step_count += 1
                        continue
                    # Both state halves come featurised; every pass below
                    # shares them.
                    batch = side.buffer.sample(side.sample_rng, hp.batch_size)
                    y = td_target(side.agent, batch, hp.gamma, hp.smooth_std,
                                  hp.smooth_clip, side.smooth_rng)
                    l1, l2 = update_critics(side.agent, batch, y, hp.critic_lr)
                    applied = update_actor(side.agent, batch, hp.actor_lr, hp.tau)
                    if applied:
                        distill(side.agent, frozen[1 - i], batch, hp.distill_lr)
                    side.agent.step_count += 1
                    if total_steps % eval_every == 0:
                        obj = float(value_estimate(side.agent, batch[0]).mean())
                        ev = (greedy_episode_reward(side.agent, eval_envs[i])
                              if eval_envs[i] is not None else math.nan)
                        side.curves.append(CurveRow(epoch, total_steps, l1, l2, obj, ev))
                total_steps += 1
    except DivergenceError as exc:
        raise DivergenceError(
            str(exc), curves=[row for side in sides for row in side.curves]) from exc
    return sides[0].agent, sides[1].agent, sides[0].curves, sides[1].curves
