"""Physical/economic model tests: rate law, timing decomposition, settlement,
rental accounting and the short-slot transition."""

import math

import numpy as np
import pytest

from edgeslice import agent
from edgeslice.baselines import greedy_policy, minimal_bandwidth
from edgeslice.env import (AllocationAction, EconParams, RadioParams,
                           RegionCatalog, RegionState, ResourceCatalog,
                           SliceDecision, TaskSpec,
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
        timing = task_timing(task, 0.5e6, 0.0, 1e9, radio)
        assert timing.upload == pytest.approx(2.0)

    def test_empty_queue_no_wait(self):
        task = TaskSpec(data_size=1e6, compute_density=100, priority=1.0, distance=50)
        timing = task_timing(task, 1e6, 0.0, 1e9, make_radio())
        assert timing.queue == 0.0

    def test_hand_summed_components(self):
        radio = make_radio(upload_power=3e-6, noise_power=1e-9,
                           pathloss_ref=1e-3, pathloss_exp=2.0)
        task = TaskSpec(data_size=1e6, compute_density=500, priority=1.0, distance=1.0)
        timing = task_timing(task, 0.5e6, 5e8, 1e9, radio)
        # Hand sums: queue 5e8/1e9, execute 1e6*500/1e9.
        assert timing.queue == pytest.approx(0.5)
        assert timing.execute == pytest.approx(0.5)
        assert timing.total == pytest.approx(timing.upload + 1.0)

    def test_zero_bandwidth_is_infeasible_upload(self):
        task = TaskSpec(data_size=1e6, compute_density=10, priority=1.0, distance=50)
        with pytest.raises(InfeasibleUploadError):
            task_timing(task, 0.0, 0.0, 1e9, make_radio())

    def test_components_nonnegative_and_total_exact(self):
        rng = np.random.default_rng(3)
        radio = make_radio()
        for _ in range(200):
            task = TaskSpec(data_size=rng.uniform(1e5, 1e7),
                            compute_density=rng.uniform(10, 1000),
                            priority=1.0, distance=rng.uniform(10, 400))
            timing = task_timing(task, rng.uniform(1e4, 1e7),
                                 rng.uniform(0, 1e10),
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
                       frequency=1e9, tasks=tasks, pending=(0.0,) * vm_count)


class TestRegionState:
    def test_copy_is_equal_with_its_own_task_list(self):
        state = RegionState(region=1, bandwidth=5e6, vm_count=2, frequency=2e9,
                            tasks=[TaskSpec(1e5, 10, 1.0, 1.0)], pending=(0.0, 3e8))
        twin = state.copy()
        assert twin == state and twin.tasks is not state.tasks

    @pytest.mark.parametrize("pending", [(0.0, -1.0), (0.0, math.nan), (math.inf, 0.0),
                                         (0.0,), (0.0, 0.0, 0.0)])
    def test_bad_backlog_rejected(self, pending):
        with pytest.raises(ValueError):
            RegionState(region=0, bandwidth=5e6, vm_count=2, frequency=1e9,
                        tasks=[], pending=pending)

    @pytest.mark.parametrize("frequency", [0.0, -1e9, math.nan, math.inf])
    def test_bad_frequency_rejected(self, frequency):
        with pytest.raises(ValueError, match="frequency"):
            RegionState(region=0, bandwidth=5e6, vm_count=2, frequency=frequency,
                        tasks=[], pending=(0.0, 0.0))


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
        reward, nxt, records = step(state, action, self.ECON, self.RADIO)
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
        _, nxt, _ = step(state, action, self.ECON, self.RADIO, slot_duration=0.2)
        # 5e8 cycles joined, 2e8 drained in 0.2 s.
        assert nxt.pending[0] == pytest.approx(3e8)

    def test_missed_deadline_settles_zero_and_is_removed(self):
        task = TaskSpec(data_size=1e7, compute_density=5000, priority=3.0, distance=1.0)
        state = make_region([task])
        action = AllocationAction(np.array([1.0]), np.array([0]))
        reward, nxt, records = step(state, action, self.ECON, self.RADIO,
                                    slot_duration=0.0)
        assert reward == 0.0
        assert records[0].revenue == 0.0
        assert nxt.pending[0] == 0.0

    def test_deterministic_under_same_inputs(self):
        rng = np.random.default_rng(0)
        tasks = [TaskSpec(rng.uniform(1e5, 1e6), rng.uniform(10, 500), 1.0,
                          rng.uniform(10, 100)) for _ in range(5)]
        action = AllocationAction(rng.uniform(0, 0.3, 5), rng.integers(0, 2, 5))
        out1 = step(make_region(list(tasks)), action, self.ECON, self.RADIO)
        out2 = step(make_region(list(tasks)), action, self.ECON, self.RADIO)
        assert out1[0] == out2[0]
        assert out1[1].pending == out2[1].pending
        assert out1[2] == out2[2]


def reference_step(state, action, econ, radio, slot_duration):
    """Scalar settlement of one slot, task by task, through task_timing and
    settle on fresh copies of the tasks (no reused efficiencies)."""
    action = action.projected()
    queues = list(state.pending)
    records, reward = [], 0.0
    for j, task in enumerate(state.tasks):
        key = (state.region, state.long_slot, state.short_slot, j)
        frac = float(action.bw_fraction[j])
        if frac <= 0.0:
            records.append(key + (math.inf, 0.0, 0.0, math.inf, 0.0))
            continue
        vm = int(action.vm_index[j])
        fresh = TaskSpec(task.data_size, task.compute_density, task.priority,
                         task.distance)
        timing = task_timing(fresh, frac * state.bandwidth, queues[vm],
                             state.frequency, radio)
        revenue = settle(timing, econ, task.priority)
        if revenue > 0.0:
            queues[vm] += task.work
        reward += revenue
        records.append(key + (timing.upload, timing.queue, timing.execute,
                              timing.total, revenue))
    pending = tuple(max(0.0, work - state.frequency * slot_duration) for work in queues)
    return reward, pending, records


class TestStepBits:
    """step settles every task with the bits of task_timing + settle."""

    RADIO = RadioParams()

    def instance(self, rng):
        n = int(rng.integers(1, 13))
        vm_count = int(rng.integers(1, 4))
        tasks = [TaskSpec(rng.uniform(1e5, 1e6), rng.uniform(50, 500),
                          float(rng.choice([1.0, 2.0, 3.0])), rng.uniform(10, 100))
                 for _ in range(n)]
        state = RegionState(region=int(rng.integers(0, 3)),
                            bandwidth=rng.uniform(5e6, 2e7), vm_count=vm_count,
                            frequency=1e9, tasks=tasks,
                            pending=tuple(rng.uniform(0, 3e8) for _ in range(vm_count)),
                            long_slot=int(rng.integers(1, 5)),
                            short_slot=int(rng.integers(1, 5)))
        fractions = rng.uniform(0.0, 0.4, size=n)
        fractions[rng.uniform(size=n) < 0.3] = 0.0  # rejected tasks
        # Few VMs for many tasks: most VMs serve several tasks in one slot.
        action = AllocationAction(fractions, rng.integers(0, vm_count, size=n))
        return state, action

    def check(self, state, action, econ, slot_duration=0.5):
        ref_reward, ref_pending, ref_records = reference_step(
            state, action, econ, self.RADIO, slot_duration)
        reward, nxt, records = step(state, action, econ, self.RADIO,
                                    slot_duration=slot_duration)
        assert [tuple(r) for r in records] == ref_records
        assert reward == ref_reward
        assert nxt.pending == ref_pending
        assert nxt.short_slot == state.short_slot + 1 and nxt.tasks == []
        return records

    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        state, action = self.instance(rng)
        self.check(state, action, EconParams(10.0, float(rng.uniform(0.3, 1.5))))

    def test_completion_exactly_at_deadline_pays(self):
        rng = np.random.default_rng(99)
        state, action = self.instance(rng)
        fractions = action.bw_fraction
        fractions[0] = 0.2
        fractions[1:] *= 0.5 / max(fractions[1:].sum(), 1.0)  # no projection
        vm = int(action.vm_index[0])
        # The first task sees only its VM's initial backlog: use its exact
        # total as the deadline.
        timing = task_timing(state.tasks[0], 0.2 * state.bandwidth,
                             state.pending[vm], state.frequency, self.RADIO)
        records = self.check(state, action, EconParams(10.0, timing.total))
        assert records[0].t_total == timing.total
        assert records[0].revenue == 10.0 * state.tasks[0].priority


class TestSpectralEfficiencyReuse:
    def counting(self, monkeypatch):
        calls = []
        original = RadioParams.spectral_efficiency

        def counted(radio, distance):
            calls.append(distance)
            return original(radio, distance)
        monkeypatch.setattr(RadioParams, "spectral_efficiency", counted)
        return calls

    def test_reused_value_has_scalar_bits(self, monkeypatch):
        radio = RadioParams()
        tasks = [TaskSpec(2e5, 100.0, 1.0, d) for d in (3.0, 17.5, 250.0)]
        expected = [radio.spectral_efficiency(t.distance) for t in tasks]
        calls = self.counting(monkeypatch)
        for _ in range(3):
            assert [t.spectral_efficiency(radio) for t in tasks] == expected
        assert len(calls) == len(tasks)

    def test_recomputed_under_other_radio(self, monkeypatch):
        first, second = RadioParams(), RadioParams(upload_power=0.5)
        task = TaskSpec(2e5, 100.0, 1.0, 40.0)
        e1, e2 = first.spectral_efficiency(40.0), second.spectral_efficiency(40.0)
        assert e1 != e2
        calls = self.counting(monkeypatch)
        assert task.spectral_efficiency(first) == e1
        assert task.spectral_efficiency(first) == e1
        assert len(calls) == 1
        assert task.spectral_efficiency(second) == e2
        assert len(calls) == 2

    def test_policy_step_and_encoding_share_one_evaluation(self, monkeypatch):
        radio, econ = RadioParams(), EconParams(10.0, 1.0)
        rng = np.random.default_rng(5)
        tasks = [TaskSpec(rng.uniform(1e5, 5e5), rng.uniform(50, 200), 1.0,
                          rng.uniform(10, 100)) for _ in range(6)]
        state = make_region(tasks, bandwidth=2e7)
        calls = self.counting(monkeypatch)
        action = greedy_policy(state, radio, econ)
        step(state, action, econ, radio)
        agent.encode_state(state, radio, econ, n_max=8)
        minimal_bandwidth(tasks[0], 0.0, 1e9, radio, econ)
        assert len(calls) == len(tasks)


class TestTaskColumns:
    FIELDS = ("data_size", "compute_density", "priority", "distance")

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_batch_rejects_what_the_constructor_rejects(self, field, bad):
        values = dict.fromkeys(self.FIELDS, 2.0)
        values[field] = bad
        with pytest.raises(ValueError, match=field):
            TaskSpec(**values)
        columns = {name: np.array([2.0, value, 3.0]) for name, value in values.items()}
        with pytest.raises(ValueError, match=field):
            TaskSpec.from_columns(**columns)

    def test_batch_rejects_non_numbers(self):
        with pytest.raises(ValueError, match="data_size"):
            TaskSpec(data_size=2.0 + 1.0j, compute_density=1.0, priority=1.0,
                     distance=1.0)
        with pytest.raises(ValueError, match="data_size"):
            TaskSpec.from_columns(np.array([2.0 + 1.0j]), np.ones(1), np.ones(1),
                                  np.ones(1))

    def test_batch_equals_constructed_tasks(self):
        rng = np.random.default_rng(3)
        columns = [rng.uniform(1.0, 10.0, size=5) for _ in self.FIELDS]
        tasks = TaskSpec.from_columns(*columns)
        assert tasks == [TaskSpec(*row) for row in zip(*(c.tolist() for c in columns))]
        assert [t.work for t in tasks] == [d * e for d, e in zip(columns[0], columns[1])]


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
