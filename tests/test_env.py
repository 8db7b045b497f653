"""Physical/economic model tests: rate law, timing decomposition, settlement,
rental accounting and the short-slot transition."""

import math

import numpy as np
import pytest

from edgeslice.env import (AllocationAction, EconParams, RadioParams,
                           RegionCatalog, RegionState, ResourceCatalog,
                           SliceDecision, TaskSpec, VmQueueState,
                           horizon_profit, rented_and_cost, rented_in_region,
                           settle, step, task_timing, uplink_rate)
from edgeslice.errors import ConstraintViolation, InfeasibleUploadError


def make_radio(**kw):
    return RadioParams(**kw)


class TestUplinkRate:
    def test_snr_three_gives_two_bits_per_hz(self):
        # p*g/sigma^2 == 3 -> log2(4) == 2 exactly
        radio = make_radio(upload_power=3e-6, noise_power=1e-9,
                           pathloss_ref=1e-3, pathloss_exp=2.0)
        assert radio.snr(1.0) == pytest.approx(3.0)
        assert uplink_rate(1e6, radio, 1.0) == pytest.approx(2e6)

    def test_zero_bandwidth_gives_zero_rate(self):
        assert uplink_rate(0.0, make_radio(), 10.0) == 0.0

    def test_against_scalar_reference(self):
        # Independent scalar evaluation: g = 1e-3 * 10^-2, snr = 0.1*g/1e-9 = 1e3.
        radio = make_radio(upload_power=0.1, noise_power=1e-9,
                           pathloss_ref=1e-3, pathloss_exp=2.0)
        snr = 0.1 * (1e-3 * 10.0 ** -2.0) / 1e-9
        assert snr == pytest.approx(1e3)
        expected = 1e6 * math.log2(1.0 + snr)
        assert uplink_rate(1e6, radio, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_bandwidth_and_distance(self):
        radio = make_radio()
        rng = np.random.default_rng(7)
        for _ in range(100):
            bw1, bw2 = sorted(rng.uniform(0, 1e7, size=2))
            d1, d2 = sorted(rng.uniform(10, 500, size=2))
            assert uplink_rate(bw1, radio, d1) <= uplink_rate(bw2, radio, d1)
            assert uplink_rate(bw2, radio, d2) <= uplink_rate(bw2, radio, d1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            uplink_rate(math.nan, make_radio(), 10.0)
        with pytest.raises(ValueError):
            uplink_rate(math.inf, make_radio(), 10.0)


class TestTaskTiming:
    def test_upload_time(self):
        # r = 1e6 bits/s via snr 3 over 0.5 MHz: 0.5e6 * 2 = 1e6
        radio = make_radio(upload_power=3e-6, noise_power=1e-9,
                           pathloss_ref=1e-3, pathloss_exp=2.0)
        task = TaskSpec(data_size=2e6, compute_density=1.0, priority=1.0, distance=1.0)
        timing = task_timing(task, 0.5e6, VmQueueState(0.0), 1e9, radio)
        assert timing.upload == pytest.approx(2.0)

    def test_empty_queue_no_wait(self):
        task = TaskSpec(data_size=1e6, compute_density=100, priority=1.0, distance=50)
        timing = task_timing(task, 1e6, VmQueueState(0.0), 1e9, make_radio())
        assert timing.queue == 0.0

    def test_hand_summed_components(self):
        radio = make_radio(upload_power=3e-6, noise_power=1e-9,
                           pathloss_ref=1e-3, pathloss_exp=2.0)
        task = TaskSpec(data_size=1e6, compute_density=500, priority=1.0, distance=1.0)
        timing = task_timing(task, 0.5e6, VmQueueState(5e8), 1e9, radio)
        # Hand sums: queue 5e8/1e9, execute 1e6*500/1e9.
        assert timing.queue == pytest.approx(0.5)
        assert timing.execute == pytest.approx(0.5)
        assert timing.total == pytest.approx(timing.upload + 1.0)

    def test_zero_bandwidth_is_infeasible_upload(self):
        task = TaskSpec(data_size=1e6, compute_density=10, priority=1.0, distance=50)
        with pytest.raises(InfeasibleUploadError):
            task_timing(task, 0.0, VmQueueState(0.0), 1e9, make_radio())

    def test_components_nonnegative_and_total_exact(self):
        rng = np.random.default_rng(3)
        radio = make_radio()
        for _ in range(200):
            task = TaskSpec(data_size=rng.uniform(1e5, 1e7),
                            compute_density=rng.uniform(10, 1000),
                            priority=1.0, distance=rng.uniform(10, 400))
            timing = task_timing(task, rng.uniform(1e4, 1e7),
                                 VmQueueState(rng.uniform(0, 1e10)),
                                 rng.uniform(1e8, 1e10), radio)
            assert timing.upload >= 0 and timing.queue >= 0 and timing.execute >= 0
            assert timing.total == timing.upload + timing.queue + timing.execute


class TestSettle:
    def test_on_time_pays_weighted_reward(self):
        from edgeslice.env import TimingBreakdown
        t = TimingBreakdown(1, 1, 2, 4)
        assert settle(t, EconParams(10.0, 5.0), 2.0) == 20.0

    def test_late_pays_nothing(self):
        from edgeslice.env import TimingBreakdown
        t = TimingBreakdown(2, 2, 2, 6)
        assert settle(t, EconParams(10.0, 5.0), 2.0) == 0.0

    def test_deadline_boundary_inclusive(self):
        from edgeslice.env import TimingBreakdown
        t = TimingBreakdown(2, 2, 1, 5)
        assert settle(t, EconParams(10.0, 5.0), 1.0) == 10.0

    def test_output_is_zero_or_full(self):
        from edgeslice.env import TimingBreakdown
        econ = EconParams(10.0, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(100):
            total = rng.uniform(0, 2)
            rho = rng.uniform(0.5, 3)
            out = settle(TimingBreakdown(total, 0, 0, total), econ, rho)
            assert out in (0.0, 10.0 * rho)


CATALOG_1 = ResourceCatalog(regions=(RegionCatalog(
    bandwidth_options=((5e6, 1.0), (10e6, 2.0), (20e6, 4.0)),
    vm_options=((2, 3.0), (4, 6.0)),
    vm_frequency=1e9),))


class TestRentedAndCost:
    def test_single_region_choice(self):
        slices = SliceDecision(bw=(1,), vm=(0,))
        bw, vms, cost = rented_and_cost(CATALOG_1, slices)
        assert (bw, vms, cost) == (10e6, 2, 5.0)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ConstraintViolation):
            rented_and_cost(CATALOG_1, SliceDecision(bw=(3,), vm=(0,)))

    def test_negative_index_rejected(self):
        with pytest.raises(ConstraintViolation):
            rented_and_cost(CATALOG_1, SliceDecision(bw=(0,), vm=(-1,)))

    def test_two_regions_hand_sum(self):
        catalog = ResourceCatalog(regions=CATALOG_1.regions * 2)
        slices = SliceDecision(bw=(1, 1), vm=(0, 0))
        bw, vms, cost = rented_and_cost(catalog, slices)
        # Hand-summed over two identical regions.
        assert (bw, vms, cost) == (20e6, 4, 10.0)
        assert rented_in_region(catalog, slices, 1) == (10e6, 2)


def make_region(tasks, bandwidth=5e6, vm_count=2):
    return RegionState(region=0, bandwidth=bandwidth, vm_count=vm_count,
                       tasks=tasks,
                       queues=[VmQueueState() for _ in range(vm_count)])


class TestStep:
    ECON = EconParams(reward_per_task=10.0, deadline=1.0)
    RADIO = make_radio(upload_power=3e-6, noise_power=1e-9,
                       pathloss_ref=1e-3, pathloss_exp=2.0)  # snr=3 at 1 m

    def test_no_tasks_advances_clock(self):
        state = make_region([])
        reward, nxt, records = step(state, AllocationAction(np.array([]), np.array([], dtype=int)),
                                    self.ECON, self.RADIO)
        assert reward == 0.0 and records == []
        assert nxt.short_slot == state.short_slot + 1

    def test_single_task_on_time_pays(self):
        # Composition oracle: rate = 1e6*2 b/s, upload 0.25s, execute 0.1s.
        task = TaskSpec(data_size=5e5, compute_density=200, priority=2.0, distance=1.0)
        state = make_region([task], bandwidth=2e6)
        action = AllocationAction(np.array([0.5]), np.array([0]))
        reward, nxt, records = step(state, action, self.ECON, self.RADIO,
                                    frequency=1e9)
        assert reward == pytest.approx(20.0)
        assert records[0].t_up == pytest.approx(0.25)
        assert records[0].t_exe == pytest.approx(0.1)

    def test_overcommitted_fractions_are_projected(self):
        tasks = [TaskSpec(1e5, 10, 1.0, 1.0), TaskSpec(1e5, 10, 1.0, 1.0)]
        state = make_region(tasks)
        action = AllocationAction(np.array([1.5, 0.5]), np.array([0, 1]))
        _, _, records = step(state, action, self.ECON, self.RADIO)
        implied = sum(r.t_up for r in records)
        # After projection the fractions are 0.75/0.25 of bandwidth.
        rate0 = 0.75 * 5e6 * 2
        rate1 = 0.25 * 5e6 * 2
        assert records[0].t_up == pytest.approx(1e5 / rate0)
        assert records[1].t_up == pytest.approx(1e5 / rate1)
        assert implied > 0

    def test_vm_out_of_range_rejected(self):
        state = make_region([TaskSpec(1e5, 10, 1.0, 1.0)])
        action = AllocationAction(np.array([0.5]), np.array([7]))
        with pytest.raises(ConstraintViolation):
            step(state, action, self.ECON, self.RADIO)

    def test_served_work_joins_queue_and_drains(self):
        task = TaskSpec(data_size=1e5, compute_density=5000, priority=1.0, distance=1.0)
        state = make_region([task], bandwidth=5e6)
        action = AllocationAction(np.array([1.0]), np.array([0]))
        _, nxt, _ = step(state, action, self.ECON, self.RADIO,
                         frequency=1e9, slot_duration=0.2)
        # 5e8 cycles joined, 2e8 drained in 0.2 s.
        assert nxt.queues[0].pending_work == pytest.approx(3e8)

    def test_missed_deadline_settles_zero_and_is_removed(self):
        task = TaskSpec(data_size=1e7, compute_density=5000, priority=3.0, distance=1.0)
        state = make_region([task])
        action = AllocationAction(np.array([1.0]), np.array([0]))
        reward, nxt, records = step(state, action, self.ECON, self.RADIO,
                                    frequency=1e9, slot_duration=0.0)
        assert reward == 0.0
        assert records[0].revenue == 0.0
        assert nxt.queues[0].pending_work == 0.0

    def test_deterministic_under_same_inputs(self):
        rng = np.random.default_rng(0)
        tasks = [TaskSpec(rng.uniform(1e5, 1e6), rng.uniform(10, 500), 1.0,
                          rng.uniform(10, 100)) for _ in range(5)]
        action = AllocationAction(rng.uniform(0, 0.3, 5), rng.integers(0, 2, 5))
        out1 = step(make_region(list(tasks)), action, self.ECON, self.RADIO)
        out2 = step(make_region(list(tasks)), action, self.ECON, self.RADIO)
        assert out1[0] == out2[0]
        assert all(q1.pending_work == q2.pending_work
                   for q1, q2 in zip(out1[1].queues, out2[1].queues))
        assert out1[2] == out2[2]


class TestHorizonProfit:
    def test_sum_of_differences(self):
        assert horizon_profit([(10, 3), (10, 3)]) == 14.0

    def test_empty_trace(self):
        assert horizon_profit([]) == 0.0

    def test_matches_event_log_resummation(self):
        # Simulate two slots by hand and re-sum the records independently.
        econ = EconParams(10.0, 1.0)
        radio = TestStep.RADIO
        state = make_region([TaskSpec(2e5, 100, 2.0, 1.0),
                             TaskSpec(2e5, 100, 1.0, 1.0)], bandwidth=5e6)
        action = AllocationAction(np.array([0.5, 0.5]), np.array([0, 1]))
        all_records = []
        revenue = 0.0
        for _ in range(2):
            r, state, recs = step(state, action, econ, radio)
            state.tasks = [TaskSpec(2e5, 100, 2.0, 1.0), TaskSpec(2e5, 100, 1.0, 1.0)]
            revenue += r
            all_records.extend(recs)
        rental = [(revenue / 2, 1.5), (revenue / 2, 1.5)]
        resummed = sum(rec.revenue for rec in all_records) - sum(c for _, c in rental)
        assert horizon_profit(rental) == pytest.approx(resummed)
