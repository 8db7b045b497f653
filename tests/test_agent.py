"""Offloading-agent tests: codecs, replay, TD3 mechanics pinned on hand-built
fixtures, distillation behavior, the hybrid selector, and training smoke."""

import dataclasses
import hashlib
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from edgeslice import agent as A
from edgeslice.env import EconParams, RadioParams, RegionState, TaskSpec, step
from edgeslice.scenario import InstanceFamily, OffloadEnv

RADIO = RadioParams(upload_power=3e-6, noise_power=1e-9,
                    pathloss_ref=1e-3, pathloss_exp=2.0)  # snr=3 at 1 m
ECON = EconParams(reward_per_task=10.0, deadline=1.0)
N_MAX = 4
# Columns of the observation's slot table (`A.slot_table`).
RATE, COMPUTE, NEED, SELECTOR, PRIORITY, EXE, QUEUE, CUMULATIVE = range(8)


def region_of(tasks, bandwidth=4e6, vm_count=2):
    return RegionState(region=0, bandwidth=bandwidth, vm_count=vm_count,
                       frequency=1e9, tasks=tasks, pending=(0.0,) * vm_count)


def random_region(n, rng):
    """A region of n random tasks with random bandwidth and VM count."""
    return region_of([TaskSpec(rng.uniform(1e5, 8e5), rng.uniform(50, 300),
                               float(rng.choice([1, 2, 3])), rng.uniform(1, 3))
                      for _ in range(n)],
                     bandwidth=rng.uniform(1e6, 6e6),
                     vm_count=int(rng.integers(1, 4)))


def occupancy(states, n_max=N_MAX):
    """1.0 on the occupied slots of an observation batch, 0.0 on padded
    ones: the first ``user count`` slots of each sample are occupied."""
    return (np.arange(n_max) < states[:, [2]]).astype(float)


def make_states(k, rng, n_max=N_MAX):
    """Realistic raw observation batch."""
    states = np.zeros((k, A.state_dim(n_max)))
    for i in range(k):
        region = random_region(int(rng.integers(1, n_max + 1)), rng)
        states[i] = A.encode_state(region, RADIO, ECON, n_max)
    return states


def states_with_counts(counts, rng):
    """Observations whose samples hold the given numbers of tasks."""
    return np.array([A.encode_state(random_region(n, rng), RADIO, ECON, N_MAX)
                     for n in counts])


def make_batch(k, rng, n_max=N_MAX):
    states = make_states(k, rng, n_max)
    actions = rng.uniform(0, 1, size=(k, n_max))
    rewards = rng.uniform(0, 2, size=k)
    next_states = make_states(k, rng, n_max)
    return states, actions, rewards, next_states


def default_agent(rng=None, hidden=(16, 16)):
    rng = rng if rng is not None else np.random.default_rng(0)
    scale = A.feature_scale(N_MAX, bw_ref=3e6, rate_ref=5e5,
                            compute_ref=1e8, power_ref=RADIO.upload_power)
    return A.make_agent(N_MAX, scale, hidden=hidden, rng=rng, frequency=1e9)


def float64_copy(agent):
    """A copy of the agent whose six nets hold float64 parameters.  The
    block algebra does not depend on the dtype, so the exactness tests run
    on it at float64 precision."""
    blocks = {}
    for name in A._NETS:
        block = blocks[name] = getattr(agent, name).copy()
        block.net.params = {k: v.astype(np.float64)
                            for k, v in block.net.params.items()}
    return dataclasses.replace(agent, **blocks)


def set_constant_output(net, value):
    """Zero every weight so the network emits its output bias."""
    for name, p in net.params.items():
        p[:] = 0.0
    net.params[f"b{net.num_layers - 1}"][:] = value


def single_task_state(rho=1.0):
    region = region_of([TaskSpec(2e5, 100.0, rho, 1.0)])
    return A.encode_state(region, RADIO, ECON, N_MAX)


class TestEncodeState:
    def test_zero_users_all_zero_demands_and_mask(self):
        s = A.encode_state(region_of([]), RADIO, ECON, N_MAX)
        assert s.shape == (A.state_dim(N_MAX),)
        assert s[2] == 0                             # user count: no slot occupied
        assert np.all(A.slot_table(s, N_MAX) == 0)   # demands and every other column

    def test_demand_formulas(self):
        task = TaskSpec(1e6, 100.0, 1.0, 1.0)
        table = A.slot_table(A.encode_state(region_of([task]), RADIO, ECON, N_MAX),
                             N_MAX)
        assert table[0, COMPUTE] == pytest.approx(1e8)   # d*eta / deadline
        assert table[0, RATE] == pytest.approx(1e6 / (1.0 * 2.0))  # d / (T * log2(1+3))

    def test_dimension_independent_of_user_count(self):
        s1 = A.encode_state(region_of([TaskSpec(1e5, 10, 1, 1)]), RADIO, ECON, N_MAX)
        s4 = A.encode_state(region_of([TaskSpec(1e5, 10, 1, 1)] * N_MAX),
                            RADIO, ECON, N_MAX)
        assert s1.shape == s4.shape

    def test_slot_table_views_each_observation(self):
        states = make_states(3, np.random.default_rng(9))
        table = A.slot_table(states, N_MAX)
        assert table.shape == (3, N_MAX, 8) and np.shares_memory(table, states)
        for i in range(3):
            assert np.array_equal(table[i], A.slot_table(states[i], N_MAX))
            assert np.array_equal(table[i].ravel(), states[i, 4:])

    def test_too_many_users_rejected(self):
        with pytest.raises(ValueError):
            A.encode_state(region_of([TaskSpec(1e5, 10, 1, 1)] * (N_MAX + 1)),
                           RADIO, ECON, N_MAX)


class TestDecodeAction:
    TASK = TaskSpec(1e5, 10, 1, 1)

    def obs(self, n_users, vm_count=2, pending=None):
        region = region_of([self.TASK] * n_users, vm_count=vm_count)
        if pending is not None:
            region.pending = pending
        return A.encode_state(region, RADIO, ECON, N_MAX)

    def test_fraction_scaling(self):
        action = A.decode_action(np.array([0.25, 0.25, 0.7, 0.7]), self.obs(2))
        assert np.allclose(action.bw_fraction * 4e6, [1e6, 1e6])

    def test_vm_floor_and_clamp(self):
        # Least-loaded in list order from a backlog on VM 0: VM 1, 2, 1, 2,
        # whatever the fractions.
        obs = self.obs(N_MAX, vm_count=3, pending=(1e9, 0.0, 0.0))
        action = A.decode_action(np.zeros(N_MAX), obs)
        assert action.vm_index.tolist() == [1, 2, 1, 2]
        assert np.array_equal(A.decode_action(np.ones(N_MAX), obs).vm_index,
                              action.vm_index)
        A.slot_table(obs, N_MAX)[0, SELECTOR] = 1.0
        assert A.decode_action(np.zeros(N_MAX), obs).vm_index[0] == 2

    def test_overcommitment_rescaled(self):
        # Decoding keeps the over-committed fractions; `step` rescales them,
        # so it settles the decoded action exactly as its projected copy.
        region = region_of([self.TASK] * N_MAX)
        obs = A.encode_state(region, RADIO, ECON, N_MAX)
        action = A.decode_action(np.full(N_MAX, 0.5), obs)
        assert action.bw_fraction.sum() == 2.0
        settled = [step(region.copy(), a, ECON, RADIO)
                   for a in (action, action.projected())]
        assert repr(settled[0]) == repr(settled[1])

    def test_padded_entries_ignored(self):
        action = A.decode_action(np.ones(N_MAX), self.obs(2))
        assert action.bw_fraction.shape == action.vm_index.shape == (2,)

    def test_out_of_box_entries_clipped(self):
        action = A.decode_action(np.array([-0.5, 0.3, 9.0, 9.0]), self.obs(2))
        assert action.bw_fraction.tolist() == [0.0, 0.3]

    @pytest.mark.parametrize("width", [N_MAX - 1, 2 * N_MAX])
    def test_observation_of_another_width_refused(self, width):
        with pytest.raises(ValueError, match="observation"):
            A.decode_action(np.zeros(width), self.obs(2))


class TestAct:
    def test_deterministic_without_exploration(self):
        agent = default_agent()
        s = single_task_state()
        assert np.array_equal(A.act(agent, s, explore=False),
                              A.act(agent, s, explore=False))

    def test_zero_noise_equals_deterministic(self):
        agent = default_agent()
        agent.noise_scale = 0.0
        s = single_task_state()
        assert np.allclose(A.act(agent, s, True, np.random.default_rng(0)),
                           A.act(agent, s, False))

    def test_exploration_mean_matches_deterministic_preclamp(self):
        agent = default_agent()
        agent.noise_scale = 0.2
        s = single_task_state()
        det = A.act(agent, s, explore=False)
        rng = np.random.default_rng(1)
        draws = np.stack([A.act(agent, s, True, rng, clip=False)
                          for _ in range(1000)])
        se = 0.2 / np.sqrt(1000)
        assert np.all(np.abs(draws.mean(axis=0) - det) <= 3 * se)

    def test_clipped_to_unit_box(self):
        agent = default_agent()
        agent.noise_scale = 5.0
        s = single_task_state()
        out = A.act(agent, s, True, np.random.default_rng(2))
        assert np.all(out >= 0) and np.all(out <= 1)


class TestReplayBuffer:
    """The ring stores each observation featurised, as the one-observation
    holder the training loop acts on; transition i below has reward i."""

    def filled(self, capacity, pushes, n_max=N_MAX, counts=None, seed=0):
        """(ring, agent, observations, next observations) after ``pushes``
        transitions; ``counts`` cycles the observations' user counts."""
        rng = np.random.default_rng(seed)
        scale = A.feature_scale(n_max, bw_ref=3e6, rate_ref=5e5,
                                compute_ref=1e8, power_ref=RADIO.upload_power)
        agent = A.make_agent(n_max, scale, hidden=(8,), rng=rng, frequency=1e9)
        counts = counts or list(range(1, n_max + 1))
        obs = [A.encode_state(random_region(counts[i % len(counts)], rng),
                              RADIO, ECON, n_max) for i in range(pushes + 1)]
        states, next_states = np.array(obs[:-1]), np.array(obs[1:])
        buf = A.ReplayBuffer(capacity, agent.actor.config)
        for i in range(pushes):
            buf.push(agent.actor._state_rows(states[i]), np.full(n_max, i / pushes),
                     float(i), agent.actor._state_rows(next_states[i]))
        return buf, agent, states, next_states

    @staticmethod
    def same_bits(a, b):
        return (np.array_equal(a.valid, b.valid) and a.k == b.k
                and a.rows.dtype == b.rows.dtype and np.array_equal(a.rows, b.rows)
                and np.array_equal(a.need, b.need))

    def test_capacity_is_a_ring(self):
        buf, *_ = self.filled(3, 7)
        assert len(buf) == 3
        s, a, r, s2 = buf.sample(np.random.default_rng(0), 10)
        assert set(np.unique(r)).issubset({4.0, 5.0, 6.0})

    def test_sampling_deterministic_per_rng(self):
        buf, *_ = self.filled(10, 10)
        first = buf.sample(np.random.default_rng(5), 4)
        second = buf.sample(np.random.default_rng(5), 4)
        assert np.array_equal(first[2], second[2])
        assert self.same_bits(first[0], second[0])

    def test_unwrapped_ring_samples_like_a_larger_one(self):
        small, *_ = self.filled(6, 6)
        large, *_ = self.filled(60, 6)
        (s, a, r, s2), (ls, la, lr, ls2) = (
            buf.sample(np.random.default_rng(4), 32) for buf in (small, large))
        assert np.array_equal(a, la) and np.array_equal(r, lr)
        assert self.same_bits(s, ls) and self.same_bits(s2, ls2)

    @pytest.mark.parametrize("n_max", [N_MAX, 10])
    def test_sample_has_the_bits_of_featurised_observations(self, n_max):
        # Zero-user and full observations among partial ones; 20 pushes
        # into 12 slots overwrite rows of other user counts.
        buf, agent, states, next_states = self.filled(
            12, 20, n_max, counts=[0, n_max, 1, n_max - 1, 0, 2, n_max], seed=n_max)
        s, _, r, s2 = buf.sample(np.random.default_rng(6), 64)
        idx = r.astype(int)
        assert {0, n_max} <= set(states[idx, 2]) and set(idx) == set(range(8, 20))
        for sampled, raw in ((s, states[idx]), (s2, next_states[idx])):
            assert self.same_bits(sampled, agent.actor._state_rows(raw))
            padded = padded_state_rows(raw, n_max, agent.state_scale)
            assert np.array_equal(sampled.rows,
                                  padded[sampled.valid].astype(np.float32))
            assert agent.critic1._features(sampled) is sampled


class TestTdTarget:
    def test_gamma_zero_returns_rewards(self):
        agent = default_agent()
        batch = make_batch(8, np.random.default_rng(3))
        y = A.td_target(agent, batch, gamma=0.0, smooth_std=0.1,
                        smooth_clip=0.25, rng=np.random.default_rng(0))
        assert np.allclose(y, batch[2])

    def test_min_of_two_target_critics(self):
        # Fixture: single-task next states so a constant-bias critic emits
        # exactly its bias; Q'_1 = 3, Q'_2 = 5, r = 1, gamma = 0.9 -> 3.7.
        agent = default_agent()
        set_constant_output(agent.target_critic1.net, 3.0)
        set_constant_output(agent.target_critic2.net, 5.0)
        s = single_task_state()
        batch = (s[None, :], np.zeros((1, N_MAX)),
                 np.array([1.0]), s[None, :])
        y = A.td_target(agent, batch, gamma=0.9, smooth_std=0.1,
                        smooth_clip=0.25, rng=np.random.default_rng(0))
        assert y[0] == pytest.approx(3.7)
        # Swapped critics give the identical answer (min rule).
        set_constant_output(agent.target_critic1.net, 5.0)
        set_constant_output(agent.target_critic2.net, 3.0)
        y2 = A.td_target(agent, batch, gamma=0.9, smooth_std=0.1,
                         smooth_clip=0.25, rng=np.random.default_rng(0))
        assert y2[0] == pytest.approx(3.7)

    def test_smoothing_noise_is_clipped(self):
        # Enormous noise scale with a tight clip: the smoothed target action
        # stays within the clip band of the target policy's action.
        agent = default_agent()
        batch = make_batch(64, np.random.default_rng(4))
        a2 = agent.target_actor.forward(batch[3])
        clip = 0.05
        captured = {}

        class SpyCritic:
            def __init__(self, inner):
                self.inner = inner

            def forward(self, states, actions):
                captured.setdefault("actions", []).append(actions.copy())
                return self.inner.forward(states, actions)

        agent.target_critic1 = SpyCritic(agent.target_critic1)
        agent.target_critic2 = SpyCritic(agent.target_critic2)
        A.td_target(agent, batch, gamma=0.9, smooth_std=50.0, smooth_clip=clip,
                    rng=np.random.default_rng(1))
        smoothed = captured["actions"][0]
        # Interior coordinates move by at most the clip; box edges only pull in.
        assert np.all(smoothed <= np.clip(a2 + clip, 0, 1) + 1e-12)
        assert np.all(smoothed >= np.clip(a2 - clip, 0, 1) - 1e-12)


class TestUpdateCritics:
    def test_regression_converges_on_fixed_batch(self):
        agent = default_agent()
        rng = np.random.default_rng(5)
        batch = make_batch(4, rng)
        y = np.array([1.0, -0.5, 2.0, 0.25])
        for _ in range(3000):
            A.update_critics(agent, batch, y, lr=1e-3)
        pred = agent.critic1.forward(batch[0], batch[1])
        assert np.all(np.abs(pred - y) < 1e-2)

    def test_identical_twins_stay_identical(self):
        agent = default_agent()
        agent.critic2 = agent.critic1.copy()
        batch = make_batch(8, np.random.default_rng(6))
        y = np.zeros(8)
        A.update_critics(agent, batch, y, lr=1e-3)
        for k in agent.critic1.params:
            assert np.array_equal(agent.critic1.params[k], agent.critic2.params[k])

    def test_first_step_reduces_loss(self):
        agent = default_agent()
        batch = make_batch(16, np.random.default_rng(7))
        y = np.full(16, 3.0)
        before = A.update_critics(agent, batch, y, lr=1e-4)
        after = A.update_critics(agent, batch, y, lr=0.0)
        assert after[0] < before[0]


class TestUpdateActor:
    def test_odd_counter_is_a_no_op(self):
        agent = default_agent()
        agent.step_count = 3
        before = {k: v.copy() for k, v in agent.actor.params.items()}
        applied = A.update_actor(agent, make_batch(8, np.random.default_rng(8)),
                                 actor_lr=1e-3, tau=0.5)
        assert applied is False
        assert all(np.array_equal(before[k], agent.actor.params[k]) for k in before)

    def test_constant_critic_leaves_actor_unchanged(self):
        agent = default_agent()
        set_constant_output(agent.critic1.net, 2.0)
        agent.step_count = 0
        before = {k: v.copy() for k, v in agent.actor.params.items()}
        applied = A.update_actor(agent, make_batch(8, np.random.default_rng(9)),
                                 actor_lr=1e-3, tau=0.0)
        assert applied is True
        assert all(np.allclose(before[k], agent.actor.params[k]) for k in before)

    def test_small_step_does_not_decrease_value(self):
        agent = default_agent()
        rng = np.random.default_rng(10)
        batch = make_batch(32, rng)
        y = rng.normal(size=32)
        for _ in range(200):
            A.update_critics(agent, batch, y, lr=1e-3)
        states = batch[0]

        def mean_q():
            a = agent.actor.forward(states)
            return float(agent.critic1.forward(states, a).mean())

        before = mean_q()
        agent.step_count = 0
        A.update_actor(agent, batch, actor_lr=1e-6, tau=0.0)
        assert mean_q() >= before - 1e-9

    def test_targets_track_on_the_same_schedule(self):
        agent = default_agent()
        batch = make_batch(8, np.random.default_rng(11))
        target_before = {k: v.copy() for k, v in agent.target_actor.params.items()}
        agent.step_count = 1
        A.update_actor(agent, batch, actor_lr=1e-3, tau=0.5)
        assert all(np.array_equal(target_before[k], agent.target_actor.params[k])
                   for k in target_before)
        agent.step_count = 2
        A.update_actor(agent, batch, actor_lr=1e-3, tau=0.5)
        assert any(not np.array_equal(target_before[k], agent.target_actor.params[k])
                   for k in target_before)


class TestAdvantage:
    """The peer-minus-current value gap distillation weighs: a difference
    of two `value_estimate`s, each side judged by its own twin critics at
    its own action."""

    @staticmethod
    def gap(peer, current, state):
        return float(A.value_estimate(peer, state)[0]
                     - A.value_estimate(current, state)[0])

    def test_shared_parameters_zero_advantage(self):
        agent = default_agent()
        s = single_task_state()
        assert self.gap(agent, agent, s) == 0.0

    def test_hand_built_values(self):
        current = default_agent(np.random.default_rng(1))
        peer = default_agent(np.random.default_rng(2))
        for critic in (peer.critic1, peer.critic2):
            set_constant_output(critic.net, 5.0)
        for critic in (current.critic1, current.critic2):
            set_constant_output(critic.net, 3.0)
        s = single_task_state()
        assert self.gap(peer, current, s) == pytest.approx(2.0)

    def test_antisymmetric(self):
        a = default_agent(np.random.default_rng(3))
        b = default_agent(np.random.default_rng(4))
        s = single_task_state()
        assert self.gap(a, b, s) == pytest.approx(-self.gap(b, a, s))


class TestDistill:
    def test_identical_actors_zero_loss_and_no_motion(self):
        current = default_agent(np.random.default_rng(5))
        peer = default_agent(np.random.default_rng(6))
        peer.actor = current.actor.copy()
        batch = make_batch(8, np.random.default_rng(7))
        before = {k: v.copy() for k, v in current.actor.params.items()}
        loss = A.distill(current, peer, batch, lr=1e-2)
        assert loss == pytest.approx(0.0)
        assert all(np.array_equal(before[k], current.actor.params[k])
                   for k in before)

    def test_negative_advantage_freezes_parameters(self):
        current = default_agent(np.random.default_rng(8))
        peer = default_agent(np.random.default_rng(9))
        for critic in (current.critic1, current.critic2):
            set_constant_output(critic.net, 100.0)
        for critic in (peer.critic1, peer.critic2):
            set_constant_output(critic.net, -100.0)
        batch = make_batch(8, np.random.default_rng(10))
        before = {k: v.copy() for k, v in current.actor.params.items()}
        A.distill(current, peer, batch, lr=1e-2)
        worst = max(np.max(np.abs(before[k] - current.actor.params[k]))
                    for k in before)
        assert worst < 1e-8

    def test_positive_advantage_pulls_toward_peer(self):
        current = default_agent(np.random.default_rng(11))
        peer = default_agent(np.random.default_rng(12))
        for critic in (current.critic1, current.critic2):
            set_constant_output(critic.net, 0.0)
        for critic in (peer.critic1, peer.critic2):
            set_constant_output(critic.net, 2.0)
        batch = make_batch(16, np.random.default_rng(13))

        def distance():
            a = current.actor.forward(batch[0])
            b = peer.actor.forward(batch[0])
            return float(np.linalg.norm(a - b))

        before = distance()
        A.distill(current, peer, batch, lr=1e-2)
        assert distance() < before

    def test_weight_positive_and_monotone(self):
        xs = np.linspace(-8, 8, 101)
        w = A.distill_weight(1.0, xs)
        assert np.all(w > 0)
        assert np.all(np.diff(w) > 0)


class TestHybridPolicy:
    def test_selects_peer_on_positive_peer_advantage(self):
        current = default_agent(np.random.default_rng(14))
        peer = default_agent(np.random.default_rng(15))
        for critic in (peer.critic1, peer.critic2):
            set_constant_output(critic.net, 10.0)
        for critic in (current.critic1, current.critic2):
            set_constant_output(critic.net, 1.0)
        s = single_task_state()
        assert np.array_equal(A.hybrid_policy(current, peer, s),
                              A.act(peer, s, explore=False))

    def test_selects_current_on_nonpositive_advantage(self):
        current = default_agent(np.random.default_rng(16))
        peer = default_agent(np.random.default_rng(17))
        for critic in (peer.critic1, peer.critic2):
            set_constant_output(critic.net, -4.0)
        for critic in (current.critic1, current.critic2):
            set_constant_output(critic.net, -1.0)
        s = single_task_state()
        assert np.array_equal(A.hybrid_policy(current, peer, s),
                              A.act(current, s, explore=False))

    def test_always_bit_equal_to_a_constituent(self):
        rng = np.random.default_rng(18)
        current = default_agent(np.random.default_rng(19))
        peer = default_agent(np.random.default_rng(20))
        for _ in range(20):
            s = make_states(1, rng)[0]
            h = A.hybrid_policy(current, peer, s)
            a = A.act(current, s, explore=False)
            b = A.act(peer, s, explore=False)
            assert np.array_equal(h, a) or np.array_equal(h, b)

    def test_featurises_once_per_decision(self, monkeypatch):
        calls = []
        state_rows = A._TaskBlock._state_rows

        def counted(block, states):
            calls.append(1)
            return state_rows(block, states)
        monkeypatch.setattr(A._TaskBlock, "_state_rows", counted)
        current = default_agent(np.random.default_rng(21))
        peer = default_agent(np.random.default_rng(22))
        A.hybrid_policy(current, peer, single_task_state())
        assert len(calls) == 1


class TestSharedFeatures:
    """A batch featurised once gives the same bits as raw observations."""

    def featurised(self, agent, batch):
        states, actions, rewards, next_states = batch
        return (agent.actor._state_rows(states), actions, rewards,
                agent.actor._state_rows(next_states))

    def test_value_estimate_bits(self):
        agent = default_agent(np.random.default_rng(40))
        states = make_states(12, np.random.default_rng(41))
        feats = agent.actor._state_rows(states)
        assert np.array_equal(A.value_estimate(agent, states),
                              A.value_estimate(agent, feats))

    def test_td_target_bits(self):
        agent = default_agent(np.random.default_rng(42))
        batch = make_batch(12, np.random.default_rng(43))
        raw = A.td_target(agent, batch, 0.9, 0.2, 0.5, np.random.default_rng(44))
        shared = A.td_target(agent, self.featurised(agent, batch), 0.9, 0.2, 0.5,
                             np.random.default_rng(44))
        assert np.array_equal(raw, shared)

    def test_update_critics_step_bits(self):
        batch = make_batch(12, np.random.default_rng(45))
        targets = np.random.default_rng(46).normal(size=12)
        a = default_agent(np.random.default_rng(47))
        b = default_agent(np.random.default_rng(47))
        losses_raw = A.update_critics(a, batch, targets, lr=1e-3)
        losses_shared = A.update_critics(b, self.featurised(b, batch), targets,
                                         lr=1e-3)
        assert losses_raw == losses_shared
        for name in ("critic1", "critic2"):
            pa, pb = getattr(a, name).params, getattr(b, name).params
            assert all(np.array_equal(pa[k], pb[k]) for k in pa)

    def test_critic_backward_without_action_gradient(self):
        agent = default_agent(np.random.default_rng(56))
        batch = make_batch(12, np.random.default_rng(57))
        d_values = np.random.default_rng(58).normal(size=12)
        results = []
        for action_grad in (True, False):
            _, cache = agent.critic1.forward(batch[0], batch[1], return_cache=True)
            results.append(agent.critic1.backward(cache, d_values,
                                                  action_grad=action_grad))
        (grads, d_actions), (skipped, none) = results
        assert none is None and d_actions.shape == batch[1].shape
        assert all(np.array_equal(grads[k], skipped[k]) for k in grads)

    def test_distill_bits(self):
        batch = make_batch(12, np.random.default_rng(48))
        peer = default_agent(np.random.default_rng(49))
        a = default_agent(np.random.default_rng(50))
        b = default_agent(np.random.default_rng(50))
        loss_raw = A.distill(a, peer, batch, lr=1e-2)
        loss_shared = A.distill(b, peer, self.featurised(b, batch), lr=1e-2)
        assert loss_raw == loss_shared
        assert all(np.array_equal(a.actor.params[k], b.actor.params[k])
                   for k in a.actor.params)

    def test_holder_of_another_scale_is_refeaturised(self):
        current = default_agent(np.random.default_rng(53))
        peer = default_agent(np.random.default_rng(54))
        for block in (peer.actor, peer.critic1, peer.critic2):
            block.state_scale = block.state_scale * 2.0
        states = make_states(6, np.random.default_rng(55))
        feats = current.actor._state_rows(states)
        assert np.array_equal(A.value_estimate(peer, feats),
                              A.value_estimate(peer, states))

    def test_critic_rows_follow_new_actions(self):
        agent = default_agent(np.random.default_rng(51))
        rng = np.random.default_rng(52)
        states = make_states(6, rng)
        feats = agent.actor._state_rows(states)
        for _ in range(3):
            actions = rng.uniform(0, 1, size=(6, N_MAX))
            for critic in (agent.critic1, agent.critic2):
                assert np.array_equal(critic.forward(feats, actions),
                                      critic.forward(states, actions))


class TestGradientsThroughBlocks:
    def test_critic_action_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        agent = float64_copy(default_agent(rng, hidden=(8, 8)))
        states = make_states(3, rng)
        actions = rng.uniform(0.05, 0.45, size=(3, N_MAX))
        critic = agent.critic1
        dv = rng.normal(size=3)
        _, cache = critic.forward(states, actions, return_cache=True)
        _, d_actions = critic.backward(cache, dv)

        def loss():
            return float(critic.forward(states, actions) @ dv)

        h = 1e-6
        for k in range(3):
            for j in range(N_MAX):
                orig = actions[k, j]
                actions[k, j] = orig + h
                lp = loss()
                actions[k, j] = orig - h
                lm = loss()
                actions[k, j] = orig
                numeric = (lp - lm) / (2 * h)
                denom = max(abs(numeric), abs(d_actions[k, j]), 1e-6)
                assert abs(numeric - d_actions[k, j]) / denom < 1e-3

    def test_actor_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(22)
        agent = float64_copy(default_agent(rng, hidden=(6,)))
        states = make_states(4, rng)
        upstream = rng.normal(size=(4, N_MAX))
        out, cache = agent.actor.forward(states, return_cache=True)
        grads = agent.actor.backward(cache, upstream)

        def loss():
            return float((agent.actor.forward(states) * upstream).sum())

        h = 1e-6
        for name, p in agent.actor.params.items():
            flat = p.ravel()
            gflat = grads[name].ravel()
            for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                lp = loss()
                flat[idx] = orig - h
                lm = loss()
                flat[idx] = orig
                numeric = (lp - lm) / (2 * h)
                denom = max(abs(numeric), abs(gflat[idx]), 1e-6)
                assert abs(numeric - gflat[idx]) / denom < 1e-3


class TestCheckpointRoundTrip:
    def test_agent_save_load_preserves_policy(self, tmp_path):
        agent = default_agent(np.random.default_rng(23))
        agent.step_count = 17
        path = tmp_path / "agent.ckpt"
        A.save_agent(agent, path)
        loaded = A.load_agent(path)
        s = single_task_state()
        assert np.array_equal(A.act(agent, s, False), A.act(loaded, s, False))
        assert loaded.step_count == 17
        assert loaded.n_max == agent.n_max

    def test_nets_saved_and_loaded_as_float32(self, tmp_path):
        from edgeslice import checkpoint
        path = tmp_path / "agent.ckpt"
        A.save_agent(default_agent(np.random.default_rng(24)), path)
        arrays, _ = checkpoint.load_arrays(path)
        assert {a.dtype for k, a in arrays.items() if k != "state_scale"} \
            == {np.dtype(np.float32)}
        assert arrays["state_scale"].dtype == np.float64
        loaded = A.load_agent(path)
        assert all(p.dtype == np.float32 for name in A._NETS
                   for p in getattr(loaded, name).params.values())

    def test_legacy_float64_nets_cast_to_float32(self, tmp_path):
        from edgeslice import checkpoint
        path = tmp_path / "agent.ckpt"
        A.save_agent(float64_copy(default_agent(np.random.default_rng(25))), path)
        arrays, meta = checkpoint.load_arrays(path)
        # Float64 draws, as a checkpoint written before the nets were float32.
        drawn = np.random.default_rng(26)
        legacy = {k: a if k == "state_scale" else drawn.uniform(-1, 1, a.shape)
                  for k, a in arrays.items()}
        checkpoint.save_arrays(path, legacy, meta)
        loaded = A.load_agent(path)
        for name in A._NETS:
            for key, p in getattr(loaded, name).params.items():
                assert p.dtype == np.float32
                assert np.array_equal(p, legacy[f"{name}.{key}"].astype(np.float32))


def tiny_family():
    task_spec = {"data_size": (1e5, 6e5), "compute_density": (50.0, 200.0),
                 "priorities": (1.0, 2.0), "priority_probs": (0.5, 0.5),
                 "distance": (1.0, 3.0)}
    return InstanceFamily(task_spec=task_spec, radio=RADIO, econ=ECON,
                          frequency=1e9, n_range=(1, N_MAX), vm_counts=(2,),
                          headroom=(1.0, 1.5))


def tiny_hyperparams(epochs=30):
    return A.AgentHyperparams(batch_size=8, buffer_capacity=500, warmup=16,
                              epochs=epochs, hidden=(8, 8), gamma=0.5,
                              noise_decay_steps=100)


class TestTrain:
    def test_deterministic_curves_and_buffer_bound(self):
        def run_once():
            env_c = OffloadEnv(tiny_family(), N_MAX, seed=1, episode_slots=3)
            env_p = OffloadEnv(tiny_family(), N_MAX, seed=2, episode_slots=3)
            scale = A.feature_scale(N_MAX, 3e6, 5e5, 1e8, RADIO.upload_power)
            return A.train(env_c, env_p, tiny_hyperparams(), N_MAX, scale, seed=7)

        cur1, peer1, curves1, _ = run_once()
        cur2, peer2, curves2, _ = run_once()
        assert [c.as_row() for c in curves1] == [c.as_row() for c in curves2]
        for k in cur1.actor.params:
            assert np.array_equal(cur1.actor.params[k], cur2.actor.params[k])

    def test_buffer_never_exceeds_capacity(self):
        env_c = OffloadEnv(tiny_family(), N_MAX, seed=3, episode_slots=3)
        env_p = OffloadEnv(tiny_family(), N_MAX, seed=4, episode_slots=3)
        scale = A.feature_scale(N_MAX, 3e6, 5e5, 1e8, RADIO.upload_power)
        hp = tiny_hyperparams(epochs=10)
        hp.buffer_capacity = 20
        A.train(env_c, env_p, hp, N_MAX, scale, seed=8)

    def test_buffer_sized_to_the_pushes(self, monkeypatch):
        # A side pushes epochs x episode_slots transitions; the ring holds
        # no more rows than that, nor more than the configured capacity.
        asked = []

        class Spy(A.ReplayBuffer):
            def __init__(self, capacity, *args):
                asked.append(capacity)
                super().__init__(capacity, *args)

        monkeypatch.setattr(A, "ReplayBuffer", Spy)
        scale = A.feature_scale(N_MAX, 3e6, 5e5, 1e8, RADIO.upload_power)
        for capacity, expected in ((500, 30), (20, 20)):
            asked.clear()
            hp = tiny_hyperparams(epochs=10)
            hp.buffer_capacity = capacity
            env_c = OffloadEnv(tiny_family(), N_MAX, seed=3, episode_slots=3)
            env_p = OffloadEnv(tiny_family(), N_MAX, seed=4, episode_slots=3)
            A.train(env_c, env_p, hp, N_MAX, scale, seed=8)
            assert asked == [expected, expected]

    def test_capacity_beyond_the_pushes_changes_no_curve(self):
        def curves(capacity):
            hp = tiny_hyperparams(epochs=10)
            hp.buffer_capacity = capacity
            env_c = OffloadEnv(tiny_family(), N_MAX, seed=1, episode_slots=3)
            env_p = OffloadEnv(tiny_family(), N_MAX, seed=2, episode_slots=3)
            scale = A.feature_scale(N_MAX, 3e6, 5e5, 1e8, RADIO.upload_power)
            _, _, curves_c, curves_p = A.train(env_c, env_p, hp, N_MAX, scale,
                                               seed=7)
            return curves_c + curves_p

        pushes = 10 * 3
        assert curves(pushes) == curves(10 * pushes)

    def test_golden_training_bits(self):
        # sha256 over both agents' curves and their six nets' parameters and
        # Adam moments after a small seeded run, so a refactor that changes
        # any noise draw, replay sample or update shows.  Like the other
        # golden hashes, the last bits depend on the BLAS kernel.
        env_c = OffloadEnv(tiny_family(), N_MAX, seed=5, episode_slots=3)
        env_p = OffloadEnv(tiny_family(), N_MAX, seed=6, episode_slots=3)
        scale = A.feature_scale(N_MAX, 3e6, 5e5, 1e8, RADIO.upload_power)
        cur, peer, curves_c, curves_p = A.train(env_c, env_p, tiny_hyperparams(),
                                                N_MAX, scale, seed=9)
        digest = hashlib.sha256()
        for curves in (curves_c, curves_p):
            digest.update(repr([c.as_row() for c in curves]).encode())
        for agent in (cur, peer):
            digest.update(repr((agent.step_count, agent.noise_scale)).encode())
            for name in A._NETS:
                net = getattr(agent, name).net
                for key in sorted(net.params):
                    digest.update(key.encode() + net.params[key].tobytes())
                for key in sorted(net.adam.m):
                    digest.update(key.encode() + net.adam.m[key].tobytes()
                                  + net.adam.v[key].tobytes())
                digest.update(repr(net.adam.step).encode())
        assert digest.hexdigest() == \
            "0b7624879ad7d40c9370c2b73846f6f83aa41d2c4fe945e5aa045f6e0a12c966"


class TestHeapTrim:
    """On glibc `train` keeps up to 4 MiB of freed heap mapped, so its
    update steps stop faulting pages in; without ``mallopt`` it trains the
    same."""

    def curves(self):
        env_c = OffloadEnv(tiny_family(), N_MAX, seed=1, episode_slots=3)
        env_p = OffloadEnv(tiny_family(), N_MAX, seed=2, episode_slots=3)
        scale = A.feature_scale(N_MAX, 3e6, 5e5, 1e8, RADIO.upload_power)
        _, _, curves_c, curves_p = A.train(env_c, env_p, tiny_hyperparams(epochs=10),
                                           N_MAX, scale, seed=7)
        return curves_c + curves_p

    def test_trains_the_same_without_mallopt(self, monkeypatch):
        expected = self.curves()
        opened = []

        def libc_without_mallopt(name):
            opened.append(name)
            return types.SimpleNamespace()
        monkeypatch.setattr(A.ctypes, "CDLL", libc_without_mallopt)
        assert self.curves() == expected
        assert opened == [None]

    @pytest.mark.skipif(platform.system() != "Linux"
                        or platform.libc_ver()[0] != "glibc",
                        reason="the heap trim threshold is a glibc setting")
    def test_second_training_call_takes_few_page_faults(self):
        # A fresh process: the heap of this one depends on earlier tests.
        script = (
            "import resource\n"
            "from edgeslice import harness\n"
            "from edgeslice.config import build_config\n"
            "config = build_config({'agent': {'epochs': 16, 'warmup': 64}})\n"
            "harness.train_agents(config, 1)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "harness.train_agents(config, 2)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        src = str(Path(A.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=600, check=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert int(done.stdout) < 1000


class TestOffloadEnvDecoding:
    """`OffloadEnv.step` decodes an action against the observation it last
    returned, so each reset and step encodes the state once."""

    def counting_env(self, monkeypatch):
        calls = []
        encode = A.encode_state

        def counted(*args, **kwargs):
            calls.append(1)
            return encode(*args, **kwargs)
        monkeypatch.setattr(A, "encode_state", counted)
        return OffloadEnv(tiny_family(), N_MAX, seed=3, episode_slots=4), calls

    def test_one_encoding_per_reset_and_step(self, monkeypatch):
        env, calls = self.counting_env(monkeypatch)
        obs = env.reset()
        for _ in range(4):
            _, obs, _ = env.step(np.full(N_MAX, 0.2))
        assert len(calls) == 5

    def test_step_after_restore_uses_the_restored_state(self, monkeypatch):
        env, _ = self.counting_env(monkeypatch)
        obs = env.reset()
        snap = env.snapshot()
        expected = A.decode_action(np.full(N_MAX, 0.3), obs)
        env.step(np.full(N_MAX, 0.1))
        assert np.array_equal(env.restore(snap), obs)
        decoded = []
        decode = A.decode_action

        def recorded(raw, obs):
            decoded.append(decode(raw, obs))
            return decoded[-1]
        monkeypatch.setattr(A, "decode_action", recorded)
        env.step(np.full(N_MAX, 0.3))
        assert decoded[0].vm_index.tolist() == expected.vm_index.tolist()
        assert decoded[0].bw_fraction.tolist() == expected.bw_fraction.tolist()


class TestObservedService:
    """The observation carries what the reward depends on: the region's VM
    rate, each VM's backlog and each task's priority; an action's VMs are
    the observation's least-loaded list-order placement."""

    TASKS = [TaskSpec(4e5, 200.0, 1.0, 1.5), TaskSpec(3e5, 300.0, 3.0, 2.0),
             TaskSpec(2e5, 250.0, 2.0, 1.0)]

    def region(self, frequency=1e9, pending=(0.0, 0.0)):
        return RegionState(region=0, bandwidth=4e6, vm_count=len(pending),
                           frequency=frequency, tasks=list(self.TASKS),
                           pending=pending)

    def fractions(self, region):
        agent = default_agent(np.random.default_rng(60))
        obs = A.encode_state(region, RADIO, ECON, N_MAX)
        return obs, A.act(agent, obs, explore=False)

    @pytest.mark.parametrize("changed", [{"frequency": 2e9},
                                         {"pending": (3e8, 0.0)}])
    def test_rate_and_backlog_change_observation_and_fractions(self, changed):
        obs, fractions = self.fractions(self.region())
        obs2, fractions2 = self.fractions(self.region(**changed))
        assert not np.array_equal(obs, obs2)
        assert not np.array_equal(fractions[:len(self.TASKS)],
                                  fractions2[:len(self.TASKS)])

    def test_selectors_decode_to_least_loaded_list_order_placement(self):
        from edgeslice.baselines import minimal_bandwidth
        region = self.region(pending=(2e7, 0.0, 1e7))
        agent = default_agent(np.random.default_rng(61))
        obs = A.encode_state(region, RADIO, ECON, N_MAX)
        action = A.decode_action(A.act(agent, obs, explore=False), obs)
        pending = list(region.pending)
        expected, shares = [], []
        for task in region.tasks:
            vm = min(range(len(pending)), key=lambda v: (pending[v], v))
            expected.append(vm)
            shares.append(minimal_bandwidth(task, pending[vm], region.frequency,
                                            RADIO, ECON) / region.bandwidth)
            pending[vm] += task.work
        assert action.vm_index.tolist() == expected == [1, 2, 0]
        need = A.slot_table(obs, N_MAX)[:, NEED]
        assert np.allclose(need[:3], shares) and need[3] == 0.0

    def test_priority_and_cumulative_share(self):
        table = A.slot_table(A.encode_state(self.region(), RADIO, ECON, N_MAX), N_MAX)
        need = table[:, NEED]
        assert table[:, PRIORITY].tolist() == [1.0, 3.0, 2.0, 0.0]
        # Preference: priority 3 (task 1), then 2 (task 2), then 1 (task 0).
        expected = [need[1] + need[2] + need[0], need[1], need[1] + need[2], 0.0]
        assert np.allclose(table[:, CUMULATIVE], expected)

    def test_old_observation_checkpoint_refused(self, tmp_path):
        from edgeslice import checkpoint
        from edgeslice.errors import CheckpointError
        path = tmp_path / "agent.ckpt"
        A.save_agent(default_agent(), path)
        arrays, meta = checkpoint.load_arrays(path)
        # One divisor per observation entry: before the observation gained
        # priority, VM rate and backlog, and before the slot table.
        for length in (4 + 3 * N_MAX, 4 + 9 * N_MAX):
            arrays["state_scale"] = np.ones(length)
            checkpoint.save_arrays(path, arrays, meta)
            with pytest.raises(CheckpointError, match="state_scale"):
                A.load_agent(path)


    def test_scale_of_another_length_refused(self):
        # A scale with one divisor per observation entry would train, but
        # its checkpoint would not load.
        with pytest.raises(ValueError, match="state_scale"):
            A.make_agent(N_MAX, np.ones(A.state_dim(N_MAX)), frequency=1e9)


class TestOccupiedSlots:
    """The nets run on occupied task slots only.  A padded reference sends
    every (sample, slot) row through the same network, with arbitrary rows
    on padded slots, and masks the result; the compact path must agree."""

    BATCHES = {"empty": [0, 0, 0], "one_slot": [0, 1, 0],
               "full": [N_MAX] * 4, "mixed": [2, 0, N_MAX, 1, 3]}

    def padded(self, block, states, rng):
        """(mask, need, padded state rows) of a batch: occupied rows are the
        block's features, padded rows noise."""
        feats = block._state_rows(states)
        mask = occupancy(states)
        assert np.array_equal(feats.valid, np.flatnonzero(mask))
        rows = rng.normal(size=(mask.size, A._STATE_COLS))
        rows[mask.ravel() > 0] = feats.rows
        return mask, A.slot_table(states, N_MAX)[:, :, NEED], rows

    @pytest.mark.parametrize("counts", BATCHES.values(), ids=BATCHES.keys())
    def test_actor_matches_padded_reference(self, counts):
        rng = np.random.default_rng(70)
        actor = float64_copy(default_agent(rng)).actor
        states = states_with_counts(counts, rng)
        mask, _, rows = self.padded(actor, states, rng)
        actions, cache = actor.forward(states, return_cache=True)
        out, ref_cache = actor.net.forward(rows, return_cache=True)
        occupied = mask > 0
        assert actions.shape == mask.shape
        np.testing.assert_allclose(actions[occupied],
                                   out.reshape(mask.shape)[occupied], rtol=1e-12)
        assert np.all(actions[~occupied] == 0.0)
        upstream = rng.normal(size=actions.shape)
        ref_grads, _ = actor.net.backward(
            ref_cache, (upstream * mask).reshape(-1, 1), input_grad=False)
        grads = actor.backward(cache, upstream)
        for name in ref_grads:
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-10,
                                       atol=1e-15)

    @pytest.mark.parametrize("counts", BATCHES.values(), ids=BATCHES.keys())
    def test_critic_matches_padded_reference(self, counts):
        rng = np.random.default_rng(71)
        critic = float64_copy(default_agent(rng)).critic1
        states = states_with_counts(counts, rng)
        mask, need, state_rows = self.padded(critic, states, rng)
        k = len(counts)
        # Over-committed samples exercise the margin's 1/S^2 term.
        actions = rng.uniform(0.0, 0.8, size=(k, N_MAX))
        d_values = rng.normal(size=k)
        values, cache = critic.forward(states, actions, return_cache=True)
        grads, d_actions = critic.backward(cache, d_values)

        fractions = actions * mask
        total = fractions.sum(axis=1)
        denom = np.maximum(total, 1.0)
        ratio = 1.0 / np.maximum(need, 1e-9)
        margin = fractions * ratio / denom[:, None]
        clipped = margin > A._MARGIN_CAP
        rows = np.concatenate([
            state_rows.reshape(k, N_MAX, -1), fractions[..., None],
            np.broadcast_to(total[:, None, None], (k, N_MAX, 1)),
            np.minimum(margin, A._MARGIN_CAP)[..., None]], axis=2)
        out, ref_cache = critic.net.forward(rows.reshape(k * N_MAX, -1),
                                            return_cache=True)
        np.testing.assert_allclose(values, (out.reshape(k, N_MAX) * mask).sum(axis=1),
                                   rtol=1e-10)
        ref_grads, d_rows = critic.net.backward(
            ref_cache, (d_values[:, None] * mask).reshape(-1, 1))
        for name in ref_grads:
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-10,
                                       atol=1e-15)
        # Action gradient through the Jacobian of the three action columns:
        # d m_j / d f_i = ratio_j / D [i == j] - [S > 1] f_j ratio_j / S^2.
        d_rows = d_rows.reshape(k, N_MAX, -1)
        jac = np.eye(N_MAX) * (ratio / denom[:, None])[:, :, None]
        jac -= (np.where(total > 1.0, 1.0 / denom ** 2, 0.0)[:, None, None]
                * (fractions * ratio)[:, :, None])
        jac *= ~clipped[:, :, None]
        d_frac = (d_rows[:, :, -3] + d_rows[:, :, -2].sum(axis=1, keepdims=True)
                  + np.einsum("kj,kji->ki", d_rows[:, :, -1], jac))
        np.testing.assert_allclose(d_actions, d_frac * mask,
                                   rtol=1e-10, atol=1e-15)

    def test_act_on_a_region_without_tasks(self):
        agent = default_agent(np.random.default_rng(72))
        obs = A.encode_state(region_of([]), RADIO, ECON, N_MAX)
        assert np.all(A.act(agent, obs, explore=False) == 0.0)

    def test_distill_matches_occupied_slot_reference(self):
        rng = np.random.default_rng(73)
        current = float64_copy(default_agent(np.random.default_rng(74)))
        peer = float64_copy(default_agent(np.random.default_rng(75)))
        states = states_with_counts([2, 0, N_MAX, 1, 3, 1], rng)
        feats = current.actor._state_rows(states)
        sample = np.flatnonzero(occupancy(states)) // N_MAX
        k = len(states)
        ours, cache = current.actor.net.forward(feats.rows, return_cache=True)
        theirs = peer.actor.net.forward(feats.rows)
        xi = A.value_estimate(peer, feats) - A.value_estimate(current, feats)
        w = A.distill_weight(current.distill_alpha, xi)
        w = w / max(1.0, float(w.mean()))
        diff = (ours - theirs)[:, 0]
        ref_loss = 0.5 * (np.bincount(sample, diff ** 2, minlength=k) * w).mean()
        ref_grads, _ = current.actor.net.backward(
            cache, (diff * w[sample] / k)[:, None], input_grad=False)

        seen = {}
        backward = current.actor.backward

        def spy(actor_cache, d_actions):
            seen.update(backward(actor_cache, d_actions))
            return dict(seen)

        current.actor.backward = spy
        loss = A.distill(current, peer, (states, None, None, None), lr=1e-2)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for name in ref_grads:
            np.testing.assert_allclose(seen[name], ref_grads[name], rtol=1e-10,
                                       atol=1e-15)


def padded_state_rows(states, n_max, state_scale):
    """The featurisation of every (sample, slot) pair, padded slots included,
    in float64; its occupied rows are the reference for `_state_rows`."""
    k, n = states.shape[0], n_max
    table = A.slot_table(states, n)
    scaled = table / state_scale[4:]
    mask = occupancy(states, n)
    need = table[:, :, NEED]
    rows = np.empty((k, n, A._STATE_COLS))
    rows[:, :, 0:4] = (states[:, :4] / state_scale[:4])[:, None, :]
    rows[:, :, 4] = scaled[:, :, RATE]
    compute = scaled[:, :, COMPUTE]
    rows[:, :, 5] = compute
    rows[:, :, 6] = mask
    rows[:, :, 7] = np.arange(n) / n
    rows[:, :, 8] = need
    rows[:, :, 9] = np.minimum(need.sum(axis=1, keepdims=True), 4.0)
    rows[:, :, 10] = (compute.sum(axis=1, keepdims=True)
                      / np.maximum(states[:, [1]], 1.0))
    rank = np.argsort(np.argsort(need + (1 - mask) * 99.0, axis=1,
                                 kind="stable"), axis=1, kind="stable")
    rows[:, :, 11] = rank / n
    rows[:, :, 12] = table[:, :, PRIORITY]
    rows[:, :, 13] = np.minimum(table[:, :, EXE], A._SHARE_CAP)
    rows[:, :, 14] = np.minimum(table[:, :, QUEUE], A._SHARE_CAP)
    rows[:, :, 15] = np.minimum(table[:, :, CUMULATIVE], 4.0)
    return rows.reshape(k * n, A._STATE_COLS)


class TestSinglePrecision:
    """The agent's nets compute in float32; a float64 copy of the same
    agent agrees within a float32 tolerance."""

    TOL = 1e3 * np.finfo(np.float32).eps

    def assert_close(self, single, double):
        np.testing.assert_allclose(single, double, rtol=self.TOL,
                                   atol=self.TOL * np.abs(double).max())

    @pytest.mark.parametrize("counts", TestOccupiedSlots.BATCHES.values(),
                             ids=TestOccupiedSlots.BATCHES.keys())
    @pytest.mark.parametrize("n_max", [N_MAX, 10])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_state_rows_match_padded_construction(self, counts, n_max, dtype):
        rng = np.random.default_rng(80)
        scale = A.feature_scale(n_max, bw_ref=3e6, rate_ref=5e5,
                                compute_ref=1e8, power_ref=RADIO.upload_power)
        agent = A.make_agent(n_max, scale, hidden=(8,), rng=rng, frequency=1e9)
        if dtype == np.float64:
            agent = float64_copy(agent)
        counts = [n_max if c == N_MAX else c for c in counts]  # full stays full
        states = np.array([A.encode_state(random_region(c, rng), RADIO, ECON, n_max)
                           for c in counts])
        feats = agent.actor._state_rows(states)
        valid = np.flatnonzero(occupancy(states, n_max))
        assert feats.rows.dtype == dtype
        assert np.array_equal(feats.valid, valid)
        assert np.array_equal(
            feats.rows, padded_state_rows(states, n_max, scale)[valid].astype(dtype))
        assert np.array_equal(feats.need,
                              A.slot_table(states, n_max)[:, :, NEED].ravel()[valid])

    def test_holder_of_another_dtype_is_refeaturised(self):
        agent = default_agent(np.random.default_rng(81))
        double = float64_copy(agent)
        states = make_states(6, np.random.default_rng(82))
        feats = agent.actor._state_rows(states)
        assert double.actor._features(feats).rows.dtype == np.float64
        assert agent.actor._features(feats) is feats

    def test_agrees_with_float64_copy(self):
        rng = np.random.default_rng(83)
        single = default_agent(rng, hidden=(64, 64))
        double = float64_copy(single)
        assert all(p.dtype == np.float32 for name in A._NETS
                   for p in getattr(single, name).params.values())
        states = states_with_counts([2, 0, N_MAX, 1, 3, N_MAX, 1], rng)
        actions = rng.uniform(0.0, 0.6, size=(len(states), N_MAX))
        upstream = rng.normal(size=actions.shape)
        d_values = rng.normal(size=len(states))
        results = []
        for agent in (single, double):
            out, actor_cache = agent.actor.forward(states, return_cache=True)
            q, critic_cache = agent.critic1.forward(states, actions, return_cache=True)
            actor_grads = agent.actor.backward(actor_cache, upstream)
            critic_grads, d_actions = agent.critic1.backward(critic_cache, d_values)
            results.append((out, q, actor_grads, critic_grads, d_actions))
        (out, q, actor_grads, critic_grads, d_actions), ref = results[0], results[1]
        assert out.dtype == q.dtype == d_actions.dtype == np.float64
        self.assert_close(out, ref[0])
        self.assert_close(q, ref[1])
        for grads, ref_grads in ((actor_grads, ref[2]), (critic_grads, ref[3])):
            for name, g in grads.items():
                assert g.dtype == np.float32
                self.assert_close(g, ref_grads[name])
        self.assert_close(d_actions, ref[4])
