"""Comparator-policy and brute-force-oracle tests."""

from dataclasses import replace

import numpy as np
import pytest

from edgeslice.baselines import (ENUMERATION_BOUND, auction_policy,
                                 brute_force_offload, brute_force_slicing,
                                 greedy_policy, max_transaction_policy,
                                 minimal_bandwidth, oracle_policy, random_policy)
from edgeslice.env import (EconParams, RadioParams, RegionCatalog, RegionState,
                           ResourceCatalog, TaskSpec, step)
from edgeslice.errors import InfeasibleSliceError
from edgeslice.slicing import DemandVector

RADIO = RadioParams(upload_power=3e-6, noise_power=1e-9,
                    pathloss_ref=1e-3, pathloss_exp=2.0)  # snr=3 at 1 m
ECON = EconParams(reward_per_task=10.0, deadline=1.0)
FREQ = 1e9


def region_with(tasks, bandwidth, vm_count=2):
    return RegionState(region=0, bandwidth=bandwidth, vm_count=vm_count,
                       frequency=FREQ, tasks=tasks, pending=(0.0,) * vm_count)


def task(d=2e5, eta=100.0, rho=1.0, dist=1.0):
    return TaskSpec(data_size=d, compute_density=eta, priority=rho, distance=dist)


def served(action):
    return {j for j, f in enumerate(action.bw_fraction) if f > 0}


def random_region(rng, n=None, vm_count=None):
    n = n if n is not None else int(rng.integers(2, 9))
    vm_count = vm_count if vm_count is not None else int(rng.integers(1, 4))
    tasks = [task(d=rng.uniform(1e5, 8e5), eta=rng.uniform(50, 400),
                  rho=float(rng.choice([1.0, 2.0, 3.0])),
                  dist=rng.uniform(1, 3)) for _ in range(n)]
    need = sum(minimal_bandwidth(t, 0.0, FREQ, RADIO, ECON) for t in tasks)
    return region_with(tasks, bandwidth=rng.uniform(0.5, 1.5) * need,
                       vm_count=vm_count)


class TestMinimalBandwidth:
    def test_covers_deadline_exactly(self):
        t = task(d=2e5, eta=100.0)
        bw = minimal_bandwidth(t, 0.0, FREQ, RADIO, ECON)
        # At snr 3, rate = 2 bw; upload time must fit in 1 - 0.02 s.
        assert bw == pytest.approx(2e5 / 0.98 / 2.0, rel=1e-6)

    def test_impossible_task_is_infinite(self):
        t = task(d=1e5, eta=20_000.0)  # execute time alone is 2 s
        assert minimal_bandwidth(t, 0.0, FREQ, RADIO, ECON) == np.inf


class TestGreedy:
    def test_all_fit_all_served(self):
        tasks = [task(rho=r) for r in (1.0, 2.0, 3.0)]
        action = greedy_policy(region_with(tasks, bandwidth=2e6), RADIO, ECON)
        assert served(action) == {0, 1, 2}
        assert action.bw_fraction.sum() <= 1.0 + 1e-9

    def test_priority_order_wins_scarce_bandwidth(self):
        need = minimal_bandwidth(task(), 0.0, FREQ, RADIO, ECON)
        tasks = [task(rho=3.0), task(rho=1.0)]
        action = greedy_policy(region_with(tasks, bandwidth=1.2 * need),
                               RADIO, ECON)
        assert served(action) == {0}

    def test_tie_break_smaller_work_first(self):
        small = task(d=2e5, eta=100.0, rho=2.0)
        large = task(d=4e5, eta=100.0, rho=2.0)
        need_small = minimal_bandwidth(small, 0.0, FREQ, RADIO, ECON)
        tasks = [large, small]
        action = greedy_policy(region_with(tasks, bandwidth=1.1 * need_small),
                               RADIO, ECON)
        assert served(action) == {1}

    def test_revenue_matches_environment(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            region = random_region(rng)
            action = greedy_policy(region, RADIO, ECON)
            reward, _, recs = step(region, action, ECON, RADIO)
            planned = sum(ECON.reward_per_task * region.tasks[j].priority
                          for j in served(action))
            assert reward == pytest.approx(planned)


class TestMaxTransaction:
    def test_uniform_demands_match_greedy_count(self):
        tasks = [task(rho=r) for r in (3.0, 1.0, 2.0)]
        region = region_with(tasks, bandwidth=2e6)
        count_greedy = len(served(greedy_policy(region, RADIO, ECON)))
        count_max = len(served(max_transaction_policy(region, RADIO, ECON)))
        assert count_max == count_greedy

    def test_tiny_task_preferred_over_huge(self):
        tiny = task(d=1e5)
        huge = task(d=9e5)
        need_tiny = minimal_bandwidth(tiny, 0.0, FREQ, RADIO, ECON)
        action = max_transaction_policy(
            region_with([huge, tiny], bandwidth=1.2 * need_tiny), RADIO, ECON)
        assert served(action) == {1}

    def test_serves_at_least_greedy_count(self):
        # One VM per task removes queue coupling; packing is then a pure
        # knapsack where ascending-cost admission is cardinality-optimal,
        # so the pairwise count comparison is exact on every instance.
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            region = random_region(rng, n=n, vm_count=n)
            count_max = len(served(max_transaction_policy(region, RADIO, ECON)))
            count_greedy = len(served(greedy_policy(region, RADIO, ECON)))
            assert count_max >= count_greedy


class TestAuction:
    def test_equal_demands_reduce_to_priority_order(self):
        need = minimal_bandwidth(task(rho=1.0), 0.0, FREQ, RADIO, ECON)
        tasks = [task(rho=1.0), task(rho=3.0)]
        action = auction_policy(region_with(tasks, bandwidth=1.2 * need),
                                RADIO, ECON)
        assert served(action) == {1}

    def test_equal_priorities_reduce_to_demand_order(self):
        tiny = task(d=1e5, rho=2.0)
        huge = task(d=9e5, rho=2.0)
        need_tiny = minimal_bandwidth(tiny, 0.0, FREQ, RADIO, ECON)
        action = auction_policy(region_with([huge, tiny], bandwidth=1.2 * need_tiny),
                                RADIO, ECON)
        assert served(action) == {1}

    def test_three_task_bid_order(self):
        # Hand-evaluated bids: rho/demand ranks B > A > C.
        a = task(d=4e5, rho=2.0)
        b = task(d=2e5, rho=3.0)
        c = task(d=6e5, rho=1.0)
        region = region_with([a, b, c], bandwidth=1e6, vm_count=3)
        need = {j: minimal_bandwidth(t, 0.0, FREQ, RADIO, ECON)
                for j, t in enumerate(region.tasks)}
        bids = {j: region.tasks[j].priority / need[j] for j in need}
        assert bids[1] > bids[0] > bids[2]
        budget = need[1] + need[0]
        region = region_with([a, b, c], bandwidth=1.05 * budget, vm_count=3)
        action = auction_policy(region, RADIO, ECON)
        assert served(action) == {0, 1}


class TestRandomPolicy:
    def test_fractions_and_vms_within_bounds(self):
        rng = np.random.default_rng(2)
        region = random_region(rng, n=6, vm_count=3)
        action = random_policy(region, rng).projected()
        assert action.bw_fraction.sum() <= 1.0 + 1e-9
        assert np.all(action.vm_index >= 0) and np.all(action.vm_index < 3)


class TestBruteForceOffload:
    def test_empty_tasks_zero_revenue(self):
        revenue, assign = brute_force_offload(region_with([], 1e6), RADIO, ECON)
        assert revenue == 0.0 and assign == []

    def test_single_servable_task(self):
        t = task(rho=2.5)
        revenue, assign = brute_force_offload(region_with([t], 1e6), RADIO, ECON)
        assert revenue == pytest.approx(25.0)
        assert assign[0] is not None

    def test_unservable_task_skipped(self):
        t = task(d=1e5, eta=20_000.0)
        revenue, assign = brute_force_offload(region_with([t], 1e9), RADIO, ECON)
        assert revenue == 0.0 and assign == [None]

    def test_bound_refusal_names_limit(self):
        tasks = [task() for _ in range(ENUMERATION_BOUND + 1)]
        with pytest.raises(ValueError, match=str(ENUMERATION_BOUND)):
            brute_force_offload(region_with(tasks, 1e6), RADIO, ECON)

    def test_dominates_every_heuristic(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            region = random_region(rng, n=int(rng.integers(3, 7)))
            best, _ = brute_force_offload(region, RADIO, ECON)
            for policy in (greedy_policy, max_transaction_policy, auction_policy):
                action = policy(region, RADIO, ECON)
                reward, _, _ = step(region, action, ECON, RADIO)
                assert reward <= best + 1e-6

    def test_assignment_achieves_reported_revenue(self):
        rng = np.random.default_rng(4)
        region = random_region(rng, n=5)
        best, assign = brute_force_offload(region, RADIO, ECON)
        achieved = sum(ECON.reward_per_task * t.priority
                       for t, vm in zip(region.tasks, assign) if vm is not None)
        assert achieved == pytest.approx(best)

    def test_oracle_with_backlog_earns_best_and_dominates_heuristics(self):
        rng = np.random.default_rng(7)
        backlog_binds = 0
        for _ in range(60):
            empty = random_region(rng, n=int(rng.integers(3, 8)))
            region = replace(empty, pending=tuple(
                rng.uniform(0.0, 6e8) for _ in range(empty.vm_count)))
            best, _ = brute_force_offload(region, RADIO, ECON)
            reward, _, _ = step(region, oracle_policy(region, RADIO, ECON), ECON, RADIO)
            assert reward == best
            for policy in (greedy_policy, max_transaction_policy, auction_policy):
                heuristic, _, _ = step(region, policy(region, RADIO, ECON), ECON, RADIO)
                assert heuristic <= reward
            backlog_binds += best < brute_force_offload(empty, RADIO, ECON)[0]
        assert backlog_binds > 0


class TestBruteForceSlicing:
    def catalog(self):
        region = RegionCatalog(
            bandwidth_options=((5.0, 1.0), (10.0, 3.0)),
            vm_options=((1, 2.0), (2, 3.5)), vm_frequency=10.0)
        return ResourceCatalog(regions=(region,))

    def test_zero_demand_picks_cheapest_pair(self):
        cost, decision = brute_force_slicing(
            DemandVector(np.array([0.0]), np.array([0.0])), self.catalog())
        assert cost == pytest.approx(3.0)
        assert decision.bw[0] == 0 and decision.vm[0] == 0

    def test_demand_above_all_capacity_infeasible(self):
        with pytest.raises(InfeasibleSliceError):
            brute_force_slicing(
                DemandVector(np.array([99.0]), np.array([0.0])), self.catalog())

    def test_option_bound_enforced(self):
        region = RegionCatalog(
            bandwidth_options=tuple((float(i + 1), 1.0) for i in range(9)),
            vm_options=((1, 1.0),), vm_frequency=1.0)
        catalog = ResourceCatalog(regions=(region,))
        with pytest.raises(ValueError):
            brute_force_slicing(DemandVector(np.array([1.0]), np.array([0.0])),
                                catalog)


class TestConstraintConservation:
    def test_all_policies_satisfy_budget_and_vm_range(self):
        rng = np.random.default_rng(5)
        policies = [lambda r: greedy_policy(r, RADIO, ECON),
                    lambda r: max_transaction_policy(r, RADIO, ECON),
                    lambda r: auction_policy(r, RADIO, ECON),
                    lambda r: random_policy(r, rng)]
        for _ in range(500):
            region = random_region(rng)
            for policy in policies:
                action = policy(region).projected()
                assert action.bw_fraction.sum() <= 1.0 + 1e-9
                mask = action.bw_fraction > 0
                assert np.all(action.vm_index[mask] < region.vm_count)
                assert np.all(action.vm_index[mask] >= 0)

    def test_deterministic_heuristics(self):
        rng = np.random.default_rng(6)
        region = random_region(rng)
        for policy in (greedy_policy, max_transaction_policy, auction_policy):
            a1 = policy(region, RADIO, ECON)
            a2 = policy(region, RADIO, ECON)
            assert np.array_equal(a1.bw_fraction, a2.bw_fraction)
            assert np.array_equal(a1.vm_index, a2.vm_index)
