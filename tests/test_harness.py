"""Configuration, scenario generation, the simulation loop, reports and CLI."""

import csv
import gc
import hashlib
import json
import math
import os
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from edgeslice import agent, baselines, checkpoint, harness, scenario, slicing
from edgeslice.baselines import minimal_bandwidth
from edgeslice.cli import main as cli_main
from edgeslice.config import DEFAULT_CONFIG, build_config, load_config
from edgeslice.env import SettlementRecord, TaskSpec, horizon_profit
from edgeslice.errors import CheckpointError, ConfigError, ConstraintViolation
from edgeslice.forecasting import ForecastModel
from edgeslice.scenario import generate_scenario, sample_tasks, traffic_counts


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tree_sha256(root) -> str:
    """sha256 over (relative path, bytes) of every file under root."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def report_rows(metrics):
    """Everything a run reports: metric rows, settlements, rentals."""
    return (list(metrics.rows),
            [tuple(rec) for rec in metrics.settlements],
            list(metrics.rental_log))


def small_doc(**overrides):
    doc = {"horizon": 3, "short_slots": 3, "regions": 2, "n_max": 6,
           "traffic": {"base": 3.0, "amplitude": 1.0, "noise_std": 0.5},
           "agent": {"epochs": 5, "warmup": 8, "batch_size": 4,
                     "buffer_capacity": 100, "hidden": [8, 8]},
           "forecaster": {"width": 8, "encoder_layers": 2, "head_hidden": 8,
                          "history_window": 16, "current_window": 4,
                          "epochs": 2, "lr": 1e-3}}
    doc.update(overrides)
    return doc


class TestLoadConfig:
    def test_minimal_file_fills_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"regions": 2}))
        assert cfg.regions == 2
        assert cfg.horizon == DEFAULT_CONFIG["horizon"]
        assert cfg.econ.deadline == DEFAULT_CONFIG["econ"]["deadline"]
        assert cfg.catalog.num_regions == 2

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"regions": 2,,}')
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path))

    def test_zero_horizon_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="horizon"):
            load_config(write_config(tmp_path, {"horizon": 0}))

    def test_unknown_field_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="wat"):
            load_config(write_config(tmp_path, {"wat": 1}))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_priority_probs_must_sum_to_one(self, tmp_path):
        doc = {"tasks": {"priority_probs": [0.9, 0.9, 0.9]}}
        with pytest.raises(ConfigError, match="priority_probs"):
            load_config(write_config(tmp_path, doc))

    def test_negative_priority_probs_rejected(self, tmp_path):
        # Sums to 1, so only the sign check can catch it.
        doc = {"tasks": {"priority_probs": [1.5, -0.3, -0.2]}}
        with pytest.raises(ConfigError, match="priority_probs"):
            load_config(write_config(tmp_path, doc))


    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path, {"seed": -1}))

    def test_integral_floats_and_tuples_accepted(self):
        cfg = build_config({"regions": 2.0, "agent": {"hidden": (16, 8.0)}})
        assert cfg.regions == 2 and isinstance(cfg.regions, int)
        assert cfg.agent.hidden == (16, 8)
        assert all(isinstance(h, int) for h in cfg.agent.hidden)

    def test_tau_of_one_accepted(self):
        assert build_config({"agent": {"tau": 1.0}}).agent.tau == 1.0


class TestSampleTasks:
    @staticmethod
    def scalar_reference(spec, n, rng):
        """Per-task draws in the order data size, density, priority, distance."""
        return [TaskSpec(
            data_size=float(rng.uniform(*spec["data_size"])),
            compute_density=float(rng.uniform(*spec["compute_density"])),
            priority=float(spec["priorities"][
                rng.choice(len(spec["priorities"]), p=spec["priority_probs"])]),
            distance=float(rng.uniform(*spec["distance"])))
            for _ in range(n)]

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 64])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_same_tasks_and_stream_as_scalar_draws(self, n, seed):
        spec = build_config({"tasks": {"priority_probs": [0.25, 0.45, 0.3]}}).tasks
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sample_tasks(spec, n, fast) == self.scalar_reference(spec, n, slow)
        assert fast.random() == slow.random()

    @pytest.mark.parametrize("override", [
        {"data_size": (0.0, 0.0)},
        {"compute_density": (-3.0, -1.0)},
        {"distance": (1.0, float("inf"))},
        {"data_size": (float("inf"), float("inf"))},
        {"data_size": (1.0 + 1.0j, 2.0 + 1.0j)},
        {"priorities": (1.0, -2.0, 3.0), "priority_probs": (0.0, 1.0, 0.0)},
        {"priorities": (0.0, 2.0, 3.0), "priority_probs": (1.0, 0.0, 0.0)},
    ])
    def test_bad_task_ranges_rejected(self, override):
        spec = dict(build_config({}).tasks, **override)
        with pytest.raises(ValueError):
            sample_tasks(spec, 8, np.random.default_rng(0))

    @pytest.mark.parametrize("probs", [(0.5, 0.6, -0.1), (0.2, 0.2, 0.2),
                                       (0.5, 0.5), (float("nan"), 0.5, 0.5)])
    def test_bad_probabilities_rejected(self, probs):
        spec = dict(build_config({}).tasks, priority_probs=probs)
        with pytest.raises(ValueError):
            sample_tasks(spec, 3, np.random.default_rng(0))


class TestInstanceFamily:
    @staticmethod
    def draws(density, seed=3, count=20):
        """Instances of a family whose headroom factor is exactly 0.8, each
        with its tasks' empty-queue minimal bandwidths."""
        cfg = build_config({"tasks": {"compute_density": density}})
        family = scenario.InstanceFamily.from_config(cfg, headroom=(0.8, 0.8))
        rng = np.random.default_rng(seed)
        for _ in range(count):
            region = family.sample(rng)
            yield region, [minimal_bandwidth(t, 0.0, family.frequency, family.radio,
                                             family.econ) for t in region.tasks]

    def test_unservable_tasks_add_nothing(self):
        # Dense tasks: some need longer than the deadline on an idle VM.
        mixed = 0
        for region, needs in self.draws([500.0, 2000.0]):
            finite = [need for need in needs if math.isfinite(need)]
            if 0 < len(finite) < len(needs):
                mixed += 1
                assert region.bandwidth == pytest.approx(0.8 * sum(finite), rel=1e-12)
        assert mixed > 0

    def test_no_servable_task_sizes_by_data_over_deadline(self):
        deadline = build_config({}).econ.deadline
        for region, needs in self.draws([5000.0, 6000.0], count=5):
            assert not any(math.isfinite(need) for need in needs)
            data = sum(t.data_size for t in region.tasks)
            assert region.bandwidth == pytest.approx(0.8 * data / deadline, rel=1e-12)


class TestGenerateScenario:
    def test_constant_when_flat(self):
        cfg = build_config(small_doc(traffic={"base": 4.0, "amplitude": 0.0,
                                              "noise_std": 0.0}))
        scenario = generate_scenario(cfg, seed=0)
        assert np.all(scenario.counts == 4.0)

    def test_same_seed_identical(self):
        cfg = build_config(small_doc())
        s1 = generate_scenario(cfg, seed=3)
        s2 = generate_scenario(cfg, seed=3)
        assert np.array_equal(s1.counts, s2.counts)
        t1 = s1.tasks[0][0][0]
        t2 = s2.tasks[0][0][0]
        assert [t.data_size for t in t1] == [t.data_size for t in t2]

    @pytest.mark.parametrize("doc,empty_slots", [
        (small_doc(), False),
        (small_doc(horizon=6, short_slots=4, regions=3,
                   traffic={"base": 1.0, "amplitude": 2.0, "noise_std": 1.0}), True),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_one_draw_equals_per_slot_draws(self, monkeypatch, doc, empty_slots, seed):
        cfg = build_config(doc)
        used = []
        draw = scenario.sample_tasks

        def recorded(spec, n, rng):
            used.append(rng)
            return draw(spec, n, rng)
        monkeypatch.setattr(scenario, "sample_tasks", recorded)
        batched = generate_scenario(cfg, seed)
        monkeypatch.undo()
        # The per-slot loop, with the generators generate_scenario makes.
        ss = np.random.SeedSequence([seed, 0x5ce])
        _, rng_tasks = (np.random.default_rng(s) for s in ss.spawn(2))
        assert np.any(batched.counts == 0) == empty_slots
        for i in range(cfg.regions):
            for h in range(cfg.horizon):
                for t in range(cfg.short_slots):
                    expected = sample_tasks(cfg.tasks, int(batched.counts[i, h]),
                                            rng_tasks)
                    assert batched.tasks[i][h][t] == expected
                    assert [task.work for task in batched.tasks[i][h][t]] == \
                        [task.work for task in expected]
        assert used[-1].bit_generator.state == rng_tasks.bit_generator.state

    def test_counts_match_batch_sizes(self):
        cfg = build_config(small_doc())
        scenario = generate_scenario(cfg, seed=1)
        for i in range(cfg.regions):
            for h in range(cfg.horizon):
                for t in range(cfg.short_slots):
                    assert len(scenario.tasks[i][h][t]) == int(scenario.counts[i, h])

    def test_mean_count_over_periods_near_base(self):
        # 1,000 periods of 10 slots; sinusoid and noise average out.
        traffic = {"base": 6.0, "amplitude": 3.0, "period": 10.0, "noise_std": 1.0}
        rng = np.random.default_rng(0)
        counts = traffic_counts(traffic, regions=1, horizon=10_000, rng=rng)
        # The floor-at-zero and rounding keep a small positive bias; stay
        # within 3 sigma of the continuous mean using the empirical spread.
        se = counts.std() / np.sqrt(counts.size)
        assert abs(counts.mean() - 6.0) <= 3 * se + 0.05


class TestRun:
    def test_zero_users_profit_is_minus_cost(self):
        cfg = build_config(small_doc(horizon=1, short_slots=1,
                                     traffic={"base": 0.0, "amplitude": 0.0,
                                              "noise_std": 0.0}))
        metrics = harness.run(cfg, "greedy", seed=0)
        assert metrics.total_revenue == 0.0
        assert metrics.total_cost > 0.0
        assert metrics.total_profit == -metrics.total_cost

    def test_fixed_seed_identical_reports(self):
        cfg = build_config(small_doc())
        m1 = harness.run(cfg, "greedy", seed=5)
        m2 = harness.run(cfg, "greedy", seed=5)
        assert m1.rows == m2.rows
        assert list(m1.settlements) == list(m2.settlements)
        assert m1 == m2

    def test_profit_equals_log_resummation(self):
        cfg = build_config(small_doc())
        metrics = harness.run(cfg, "auction", seed=2)
        resummed = (sum(rec.revenue for rec in metrics.settlements)
                    - sum(cost for _, cost in metrics.rental_log))
        assert metrics.total_profit == pytest.approx(resummed)
        trace = [(row.revenue, row.cost) for row in metrics.rows]
        assert horizon_profit(trace) == pytest.approx(metrics.total_profit)

    def test_per_row_profit_identity_and_utilization_bounds(self):
        cfg = build_config(small_doc())
        metrics = harness.run(cfg, "random", seed=4)
        for row in metrics.rows:
            assert row.profit == pytest.approx(row.revenue - row.cost)
            assert 0.0 <= row.bw_util <= 1.0
            assert 0.0 <= row.vm_util <= 1.0
            assert 0.0 <= row.hit_rate <= 1.0

    def test_each_region_served_at_its_own_vm_rate(self):
        cfg = build_config(small_doc())
        regions = cfg.catalog.regions
        cfg = replace(cfg, catalog=replace(cfg.catalog, regions=(
            regions[0], replace(regions[1], vm_frequency=4e9))))
        scenario_tasks = generate_scenario(cfg, 1).tasks
        served = {0: 0, 1: 0}
        for rec in harness.run(cfg, "greedy", seed=1).settlements:
            if math.isfinite(rec.t_total):
                task = scenario_tasks[rec.region][rec.long_slot - 1][
                    rec.short_slot - 1][rec.task_id]
                rate = 4e9 if rec.region == 1 else 2e9
                assert rec.t_exe == task.work / rate
                served[rec.region] += 1
        assert served[0] > 0 and served[1] > 0

    def test_log_iterates_the_stepped_records_in_order(self, monkeypatch):
        stepped = []
        step = harness.step

        def recording_step(*args, **kwargs):
            result = step(*args, **kwargs)
            stepped.extend(result[2])
            return result
        monkeypatch.setattr(harness, "step", recording_step)
        log = harness.run(build_config(small_doc()), "random", seed=3).settlements
        assert len(log) == len(stepped) > 0
        for _ in range(2):  # every pass yields the same records
            records = list(log)
            assert all(type(rec) is SettlementRecord for rec in records)
            assert [repr(rec) for rec in records] == [repr(rec) for rec in stepped]

    def test_log_keeps_no_object_per_record(self):
        # A footprint guard: nine 8-byte columns take 72 bytes per record
        # plus the arrays' growth slack; a list of record tuples with their
        # boxed floats kept about 240.
        cfg = build_config({})
        harness.run(cfg, "greedy", seed=0)  # warm-up: caches and imports
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = harness.run(cfg, "greedy", seed=0).settlements
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) > 1000
        assert kept <= 96 * len(log), f"{kept / len(log):.1f} bytes per record"

    def test_unknown_policy_rejected(self):
        cfg = build_config(small_doc())
        with pytest.raises(ConfigError):
            harness.run(cfg, "magic", seed=0)

    def test_sliceoff_requires_checkpoint(self):
        cfg = build_config(small_doc())
        with pytest.raises(ConfigError, match="sliceoff"):
            harness.run(cfg, "sliceoff", seed=0)

    @staticmethod
    def small_agent(cfg, seed, n_max=None, scale=1.0):
        """A fresh agent; ``scale`` multiplies the config's state scale."""
        return agent.make_agent(n_max or cfg.n_max,
                                harness.default_state_scale(cfg) * scale,
                                hidden=tuple(cfg.agent.hidden),
                                rng=np.random.default_rng(seed),
                                frequency=cfg.vm_frequency)

    def test_peer_bundle_selects_hybrid_policy(self):
        cfg = build_config(small_doc())
        current = self.small_agent(cfg, 1)
        peer = self.small_agent(cfg, 2)
        # Every slot score of the peer's critics rises by 1e6, so the peer's
        # value estimate wins on every non-empty state.
        for critic in (peer.critic1, peer.critic2):
            critic.net.params[f"b{critic.net.num_layers - 1}"] += 1e6

        def rows(**bundles):
            metrics = harness.run(cfg, "sliceoff", seed=3, **bundles)
            return list(metrics.settlements)

        hybrid = rows(agent_bundle=current, peer_bundle=peer)
        assert hybrid == rows(agent_bundle=peer)
        assert hybrid != rows(agent_bundle=current)

    def test_peer_with_other_n_max_rejected(self):
        # Both agents run on one featurisation, so the peer must match the
        # agent's n_max and state scale.
        cfg = build_config(small_doc())
        with pytest.raises(ConfigError, match="n_max"):
            harness.run(cfg, "sliceoff", seed=0,
                        agent_bundle=self.small_agent(cfg, 1),
                        peer_bundle=self.small_agent(cfg, 2, n_max=cfg.n_max + 1))
        with pytest.raises(ConfigError, match="state_scale"):
            harness.run(cfg, "sliceoff", seed=0,
                        agent_bundle=self.small_agent(cfg, 1),
                        peer_bundle=self.small_agent(cfg, 2, scale=2.0))

    # Every policy tag; sliceoff alone, with a forecaster and with a peer.
    SHARED_CASES = [(tag, ()) for tag in harness.POLICY_TAGS if tag != "sliceoff"] + [
        ("sliceoff", ("agent_bundle",)), ("sliceoff", ("agent_bundle", "forecaster")),
        ("sliceoff", ("agent_bundle", "peer_bundle"))]

    def learned_inputs(self, cfg, names, model):
        made = {"agent_bundle": self.small_agent(cfg, 1),
                "peer_bundle": self.small_agent(cfg, 2), "forecaster": model}
        return {name: made[name] for name in names}

    def test_shared_scenario_and_plan_give_the_same_report(self):
        cfg = build_config(small_doc())
        seed = 3
        shared = generate_scenario(cfg, seed)
        model = ForecastModel(cfg.forecaster, np.random.default_rng(5))
        plans = {None: harness.slice_plan(cfg, seed, shared),
                 model: harness.slice_plan(cfg, seed, shared, model)}
        # The forecaster case only checks something if its plan differs.
        assert plans[model] != plans[None]
        for tag, names in self.SHARED_CASES:
            kwargs = self.learned_inputs(cfg, names, model)
            alone = harness.run(cfg, tag, seed, **kwargs)
            together = harness.run(cfg, tag, seed, scenario=shared,
                                   plan=plans[kwargs.get("forecaster")], **kwargs)
            assert report_rows(together) == report_rows(alone), (tag, names)

    def test_runs_leave_the_shared_scenario_unchanged(self):
        cfg = build_config(small_doc())
        seed = 4
        shared = generate_scenario(cfg, seed)
        model = ForecastModel(cfg.forecaster, np.random.default_rng(5))

        def contents():
            return (shared.counts.copy(),
                    [[[(id(batch), list(batch)) for batch in slot] for slot in region]
                     for region in shared.tasks])
        before = contents()
        plan = harness.slice_plan(cfg, seed, shared)
        for tag, names in self.SHARED_CASES:
            harness.run(cfg, tag, seed, scenario=shared, plan=plan,
                        **self.learned_inputs(cfg, names, model))
        after = contents()
        np.testing.assert_array_equal(after[0], before[0])
        assert after[1] == before[1]

    def test_forecaster_checkpoint_brings_its_windows(self, tmp_path):
        # A forecaster trained at windows (16, 4) plans the same slices under
        # a config with the default windows (64, 8) as under its own.
        own = build_config(small_doc(horizon=20))
        path = tmp_path / "forecaster.ckpt"
        harness.train_forecaster(own, seed=0, history_slots=40)[0].save(path)
        model = ForecastModel.load(path)
        fc = {k: v for k, v in small_doc()["forecaster"].items()
              if k not in ("history_window", "current_window")}
        default_windows = build_config(small_doc(horizon=20, forecaster=fc))
        assert default_windows.forecaster.history_window == 64
        for seed in range(2):
            scenario_s = generate_scenario(own, seed)
            assert (harness.slice_plan(default_windows, seed, scenario_s, model)
                    == harness.slice_plan(own, seed, scenario_s, model))

    def test_plan_must_cover_the_horizon(self):
        cfg = build_config(small_doc())
        plan = harness.slice_plan(cfg, 0, generate_scenario(cfg, 0))
        with pytest.raises(ValueError, match="horizon"):
            harness.run(cfg, "greedy", 0, plan=plan[:-1])


class TestSlicePlan:
    @pytest.mark.parametrize("trained", [False, True])
    def test_every_long_slot_rents_the_cheapest_cover(self, trained):
        # Default config, seeds 0-9: the first slot rents the cheapest
        # slice, and every later slot the cheapest cover of the demand its
        # predictor implies (the persistence plan, or a 1-epoch forecaster
        # trained on 24 slots).
        cfg = build_config({})
        model = None
        if trained:
            short = build_config({"forecaster": {"epochs": 1}})
            model, _ = harness.train_forecaster(short, 0, history_slots=24)
        predictor = harness.make_predictor(model, cfg.n_max)
        profile = harness.task_profile(cfg)
        for seed in range(10):
            scenario_s = generate_scenario(cfg, seed)
            plan = harness.slice_plan(cfg, seed, scenario_s, model)
            assert len(plan) == cfg.horizon
            assert plan[0] == slicing.cheapest_slice(cfg.catalog)
            for h in range(2, cfg.horizon + 1):
                history = harness.TrafficSeries(scenario_s.counts[:, :h - 1])
                demand = slicing.estimate_demand(
                    predictor(history, 1)[:, 0], profile, cfg.radio, cfg.econ,
                    cfg.kappa_up, cfg.kappa_exe)
                assert plan[h - 1] == baselines.brute_force_slicing(
                    demand, cfg.catalog)[1], (seed, h)


class TestShortSlotBacklog:
    @pytest.mark.parametrize("deadline,backlog", [(1.0, False), (2.0, True)])
    def test_backlog_crosses_a_short_slot_only_past_its_length(
            self, monkeypatch, deadline, backlog):
        # A task is only served when it finishes by its deadline, so with
        # deadline <= slot_duration every VM queue drains within its slot.
        cfg = build_config({"econ": {"deadline": deadline}})
        assert cfg.slot_duration == 1.0
        starts = []
        real_step = harness.step

        def spy(state, *args, **kwargs):
            starts.append(any(state.pending))
            return real_step(state, *args, **kwargs)
        monkeypatch.setattr(harness, "step", spy)
        for tag in ("greedy", "auction", "max_transaction", "random"):
            for seed in range(3):
                harness.run(cfg, tag, seed)
        assert len(starts) == 12 * cfg.horizon * cfg.short_slots * cfg.regions
        assert any(starts) == backlog, sum(starts)


class TestReport:
    def test_csv_has_eight_columns(self, tmp_path):
        cfg = build_config(small_doc())
        metrics = harness.run(cfg, "greedy", seed=0)
        paths = harness.report(metrics, tmp_path / "out")
        with open(paths["metrics"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(harness.SlotMetrics._fields)
        assert all(len(r) == 8 for r in rows)
        assert len(rows) == cfg.horizon + 1

    def test_empty_run_header_only(self, tmp_path):
        metrics = harness.MetricsReport(policy="greedy", seed=0)
        paths = harness.report(metrics, tmp_path / "empty")
        with open(paths["metrics"]) as fh:
            rows = list(csv.reader(fh))
        assert rows == [list(harness.SlotMetrics._fields)]

    def test_summary_totals_equal_csv_sums(self, tmp_path):
        cfg = build_config(small_doc())
        metrics = harness.run(cfg, "max_transaction", seed=1)
        paths = harness.report(metrics, tmp_path / "sums")
        with open(paths["metrics"]) as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads(Path(paths["summary"]).read_bytes())
        assert summary["revenue"] == pytest.approx(
            sum(float(r["revenue"]) for r in rows))
        assert summary["profit"] == pytest.approx(
            sum(float(r["profit"]) for r in rows))
        assert summary["offloaded"] == sum(int(r["offloaded"]) for r in rows)


    def test_csv_text_pins_edge_value_bytes(self):
        # Ints as str, floats as repr (shortest round-trip), nothing quoted.
        header = SettlementRecord._fields
        rows = [SettlementRecord(0, 1, 1, 0, float("inf"), 0.0, 0.0, float("inf"), 0.0),
                SettlementRecord(2, 20, 10, 2 ** 40, 1e-05, 1.5e+20, 0.1 + 0.2,
                                 1.5e+20, 30.0),
                SettlementRecord(1, 3, 7, 12345678901234567890, 5e-324, -0.0,
                                 1.7976931348623157e+308, 0.30000000000000004, 10.0)]
        head = "region,long_slot,short_slot,task_id,t_up,t_que,t_exe,t_total,revenue\n"
        assert harness._csv_text(header, []) == head
        assert harness._csv_text(header, rows) == head + (
            "0,1,1,0,inf,0.0,0.0,inf,0.0\n"
            "2,20,10,1099511627776,1e-05,1.5e+20,0.30000000000000004,1.5e+20,30.0\n"
            "1,3,7,12345678901234567890,5e-324,-0.0,1.7976931348623157e+308,"
            "0.30000000000000004,10.0\n")
        assert harness._csv_text(("policy", "profit"), [("max_transaction", -0.5)]) \
            == "policy,profit\nmax_transaction,-0.5\n"

    def test_uncreatable_directory_raises_oserror(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        metrics = harness.MetricsReport(policy="greedy", seed=0)
        with pytest.raises(OSError, match="cannot write report"):
            harness.report(metrics, blocker / "sub")


class TestCheckpointErrors:
    """Every unreadable checkpoint is one CheckpointError naming the path."""

    def saved_lines(self, tmp_path):
        path = tmp_path / "good.ckpt"
        checkpoint.save_arrays(path, {"a": np.arange(3.0), "b": np.ones((2, 2))},
                               {"format": "test"})
        return path.read_text().splitlines()

    def load_text(self, tmp_path, text):
        path = tmp_path / "bad.ckpt"
        path.write_text(text)
        with pytest.raises(CheckpointError, match="bad.ckpt"):
            checkpoint.load_arrays(path)

    def test_round_trip_still_loads(self, tmp_path):
        self.saved_lines(tmp_path)
        arrays, meta = checkpoint.load_arrays(tmp_path / "good.ckpt")
        assert meta == {"format": "test"}
        assert np.array_equal(arrays["b"], np.ones((2, 2)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing.ckpt"):
            checkpoint.load_arrays(tmp_path / "missing.ckpt")

    def test_bad_magic(self, tmp_path):
        lines = self.saved_lines(tmp_path)
        self.load_text(tmp_path, "\n".join(["NOT-A-CKPT"] + lines[1:]) + "\n")

    def test_bad_json_header(self, tmp_path):
        lines = self.saved_lines(tmp_path)
        self.load_text(tmp_path, lines[0] + "\n" + lines[1][:5] + "\n")

    def test_name_line_without_payload(self, tmp_path):
        lines = self.saved_lines(tmp_path)
        self.load_text(tmp_path, "\n".join(lines[:5]) + "\n")

    def test_payload_shorter_than_header_shape(self, tmp_path):
        lines = self.saved_lines(tmp_path)
        lines[2] = "a float64 4"  # the payload holds 3 values
        self.load_text(tmp_path, "\n".join(lines) + "\n")

    def test_agent_checkpoint_cut_after_header(self, tmp_path):
        bundle = agent.make_agent(4, agent.feature_scale(4, 1.0, 1.0, 1.0, 1.0), 2e9,
                                  hidden=(4,), rng=np.random.default_rng(0))
        path = tmp_path / "agent.ckpt"
        agent.save_agent(bundle, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        with pytest.raises(CheckpointError, match="agent.ckpt"):
            agent.load_agent(path)


class TestCompare:
    def test_writes_comparison_and_summary(self, tmp_path):
        cfg = build_config(small_doc())
        out = tmp_path / "cmp"
        summary = harness.compare(cfg, ["greedy", "random"], [0, 1], out)
        assert (out / "comparison.csv").exists()
        assert (out / "greedy_seed0" / "metrics.csv").exists()
        assert set(summary["policies"]) == {"greedy", "random"}
        assert len(summary["runs"]) == 4

    def test_byte_identical_reruns(self, tmp_path):
        cfg = build_config(small_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        harness.compare(cfg, ["greedy", "random"], [0, 1], out1)
        harness.compare(cfg, ["greedy", "random"], [0, 1], out2)
        for sub in ("comparison.csv", "summary.json",
                    os.path.join("greedy_seed0", "metrics.csv"),
                    os.path.join("random_seed1", "metrics.csv"),
                    os.path.join("random_seed1", "settlements.csv")):
            b1 = (out1 / sub).read_bytes()
            b2 = (out2 / sub).read_bytes()
            assert b1 == b2, f"{sub} differs between reruns"

    def test_golden_output_bytes(self, tmp_path):
        # sha256 over (relative path, bytes) of every file in the output
        # tree.  A refactor must leave these bytes alone; change the hash only
        # with a stated reason for the new outputs.  sliceoff is left out: the
        # last bits of its matmuls depend on the BLAS kernel.
        cfg = build_config(small_doc())
        harness.compare(cfg, ["greedy", "auction", "max_transaction", "random",
                              "oracle"], [0, 1, 2], tmp_path)
        digest = hashlib.sha256()
        for base, dirs, files in os.walk(tmp_path):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, tmp_path).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        assert digest.hexdigest() == \
            "1415aa7699600da65dbd8295da6ea68a9c263e32ce6d7af9321df4673a1b4904"


    def test_repeated_policy_and_seed_keep_their_bytes(self, tmp_path):
        # The tree written when every (policy, seed) run drew its own
        # scenario and slice plan, listed policy-major with repeats.
        cfg = build_config(small_doc())
        policies, seeds = ["random", "greedy", "random"], [2, 0, 2]
        summary = harness.compare(cfg, policies, seeds, tmp_path)
        assert [(r["policy"], r["seed"]) for r in summary["runs"]] == \
            [(p, s) for p in policies for s in seeds]
        assert tree_sha256(tmp_path) == \
            "4ef93b35be6a92a66a906a32d712cb6c084e2b597b514cab70a889855189e142"

    def test_one_metric_list_for_summary_and_comparison(self, tmp_path):
        cfg = build_config(small_doc())
        summary = harness.compare(cfg, ["greedy"], [0], tmp_path)
        metrics = harness.SlotMetrics._fields[1:]
        run_summary = json.loads((tmp_path / "greedy_seed0" / "summary.json").read_bytes())
        assert set(run_summary) == {"policy", "seed"} | set(metrics)
        assert set(summary["policies"]["greedy"]) == set(metrics)
        with open(tmp_path / "comparison.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == ("policy",) + metrics

    @pytest.mark.parametrize("policies,peer", [
        (["greedy", "bogus"], None), (["greedy", "sliceoff"], None),
        (["greedy", "sliceoff"], {"n_max": 7}),
        (["greedy", "sliceoff"], {"scale": 0.5})],
        ids=["unknown_tag", "sliceoff_without_agent", "peer_of_other_n_max",
             "peer_of_other_state_scale"])
    def test_bad_grid_refused_before_writing(self, tmp_path, policies, peer):
        cfg = build_config(small_doc())
        bundles = {}
        if peer is not None:
            bundles = {"agent_bundle": TestRun.small_agent(cfg, 1),
                       "peer_bundle": TestRun.small_agent(cfg, 2, **peer)}
        out = tmp_path / "cmp"
        with pytest.raises(ConfigError):
            harness.compare(cfg, policies, [0], out, **bundles)
        assert not out.exists()

    @pytest.mark.parametrize("policies,with_forecaster,predictors", [
        (["greedy", "sliceoff", "random", "auction"], True, 2),
        (["greedy", "sliceoff", "random"], False, 1),
        (["sliceoff", "sliceoff"], True, 1),
    ])
    def test_one_scenario_per_seed_and_one_plan_per_predictor(
            self, tmp_path, monkeypatch, policies, with_forecaster, predictors):
        cfg = build_config(small_doc())
        seeds = [0, 1, 2]
        calls = Counter()

        def count(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(harness, "run")
        count(harness, "generate_scenario")
        count(slicing, "adjust_slices")
        model = (ForecastModel(cfg.forecaster, np.random.default_rng(5))
                 if with_forecaster else None)
        harness.compare(cfg, policies, seeds, tmp_path,
                        agent_bundle=TestRun.small_agent(cfg, 1), forecaster=model)
        assert calls["run"] == len(policies) * len(seeds)
        assert calls["generate_scenario"] == len(seeds)
        assert calls["adjust_slices"] == cfg.horizon * len(seeds) * predictors


class TestPipelineBytes:
    """The whole sliceoff pipeline at a small config: `train_all` (30 agent
    epochs, 3 forecaster epochs), then `compare` of the hybrid sliceoff
    policy on the forecaster's plan beside greedy on persistence's."""

    POLICIES, SEEDS = ["sliceoff", "greedy"], [0, 1]

    @staticmethod
    def config():
        doc = small_doc(horizon=8)
        doc["agent"] = dict(doc["agent"], epochs=30)
        doc["forecaster"] = dict(doc["forecaster"], epochs=3)
        return build_config(doc)

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("pipeline") / "train"
        harness.train_all(self.config(), out, seed=0)
        return out

    def compare_sha256(self, train_dir, out, flip=None):
        """sha256 of the compare tree under ``out``, run on the checkpoints
        under ``train_dir``; ``flip`` names one of (checkpoint name, array
        name) to run with one bit of that array's first entry flipped: its
        lowest exponent bit, which doubles or halves the value."""
        paths = {name: os.path.join(train_dir, f"{name}.ckpt")
                 for name in ("agent_current", "agent_peer", "forecaster")}
        if flip is not None:
            name, array = flip
            arrays, meta = checkpoint.load_arrays(paths[name])
            flat = arrays[array].reshape(-1)
            bits = flat.view(np.uint32 if flat.dtype == np.float32 else np.uint64)
            bits[0] ^= 1 << np.finfo(flat.dtype).nmant
            os.makedirs(out)
            paths[name] = os.path.join(out, f"{name}.ckpt")
            checkpoint.save_arrays(paths[name], arrays, meta)
        harness.compare(self.config(), self.POLICIES, self.SEEDS,
                        os.path.join(out, "compare"),
                        agent_bundle=agent.load_agent(paths["agent_current"]),
                        peer_bundle=agent.load_agent(paths["agent_peer"]),
                        forecaster=ForecastModel.load(paths["forecaster"]))
        return tree_sha256(os.path.join(out, "compare"))

    def test_golden_pipeline_bytes(self, trained, tmp_path):
        # sha256 of the training tree (checkpoints, curves, loss trace) and
        # of the compare tree.  Like the other golden hashes, the last bits
        # depend on the BLAS kernel; change them only with a stated reason.
        assert (tree_sha256(trained), self.compare_sha256(trained, tmp_path)) == (
            "5f10b66b3d54ce94a9fd4aeb3aa6d2434d1cb72ed313ba4a29a469f9024f2c06",
            "fb56311f3f0d7fa47ecb16d604473ede2e9c69f3ae08e03c68691b13a16d6c4b")

    def test_flipped_plan_bit_moves_the_bytes(self, trained, tmp_path, monkeypatch):
        expected = self.compare_sha256(trained, tmp_path / "a")
        planned = harness.slice_plan

        def flipped(config, seed, scenario, forecaster=None):
            plan = planned(config, seed, scenario, forecaster)
            if forecaster is None:
                return plan
            last = plan[-1]
            return plan[:-1] + (replace(last, bw=(last.bw[0] ^ 1,) + last.bw[1:]),)
        monkeypatch.setattr(harness, "slice_plan", flipped)
        assert self.compare_sha256(trained, tmp_path / "b") != expected

    @pytest.mark.parametrize("flip", [
        ("agent_current", "actor.w0"), ("agent_peer", "actor.w0"),
        ("forecaster", "norm_mean")], ids=["agent", "peer", "forecaster"])
    def test_flipped_checkpoint_bit_moves_the_bytes(self, trained, tmp_path, flip):
        assert (self.compare_sha256(trained, tmp_path / "b", flip)
                != self.compare_sha256(trained, tmp_path / "a"))


class TestOracleChecks:
    def test_all_checks_pass_on_defaults(self):
        cfg = build_config(small_doc())
        results = harness.oracle_checks(cfg, instances=10, seed=0)
        assert all(ok for _, ok, _ in results), results


class TestCli:
    def test_run_command(self, tmp_path):
        config_path = write_config(tmp_path, small_doc())
        runner = CliRunner()
        result = runner.invoke(cli_main, ["run", "--config", config_path,
                                          "--policy", "greedy", "--seed", "1",
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "metrics.csv").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_bytes())
        assert result.output.splitlines()[0] == (
            f"policy=greedy seed=1 profit={summary['profit']:.3f} "
            f"revenue={summary['revenue']:.3f}")

    def test_config_error_exit_code_2(self, tmp_path):
        config_path = write_config(tmp_path, {"horizon": 0})
        runner = CliRunner()
        result = runner.invoke(cli_main, ["run", "--config", config_path,
                                          "--policy", "greedy",
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_infeasible_exit_code_3(self, tmp_path):
        doc = small_doc()
        doc["catalog"] = {"vm_frequency": 2e9,
                          "bandwidth_options": [[1e4, 1.0]],
                          "vm_options": [[1, 1.0]]}
        doc["traffic"] = {"base": 5.0, "amplitude": 0.0, "noise_std": 0.0}
        config_path = write_config(tmp_path, doc)
        runner = CliRunner()
        result = runner.invoke(cli_main, ["run", "--config", config_path,
                                          "--policy", "greedy",
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    def test_compare_command(self, tmp_path):
        config_path = write_config(tmp_path, small_doc())
        runner = CliRunner()
        result = runner.invoke(cli_main, ["compare", "--config", config_path,
                                          "--policies", "greedy,random",
                                          "--seeds", "0,1",
                                          "--out", str(tmp_path / "cmp")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "cmp" / "comparison.csv").exists()

    def test_oracle_command(self, tmp_path):
        config_path = write_config(tmp_path, small_doc())
        runner = CliRunner()
        result = runner.invoke(cli_main, ["oracle", "--config", config_path,
                                          "--instances", "5"])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_oracle_without_instances_exit_code_2(self, tmp_path, instances):
        config_path = write_config(tmp_path, small_doc())
        result = CliRunner().invoke(cli_main, ["oracle", "--config", config_path,
                                               "--instances", instances])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "instances" in result.output
        assert "PASS" not in result.output

    @pytest.mark.parametrize("doc,field", [
        ({"horizon": "abc"}, "horizon"),
        ({"agent": {"gamma": "x"}}, "agent.gamma"),
        ({"agent": {"hidden": 64}}, "agent.hidden"),
        ({"agent": {"hidden": [64, "x"]}}, "agent.hidden[1]"),
        ({"traffic": {"base": None}}, "traffic.base"),
        ({"regions": 2.7}, "regions"),
        ({"agent": {"epochs": True}}, "agent.epochs"),
        ({"slot_duration": float("inf")}, "slot_duration"),
        ({"catalog": {"vm_options": [[1.5, 60.0]]}}, "catalog.vm_options[0][0]"),
        ({"catalog": {"vm_options": [[1, 60.0, 3]]}}, "catalog.vm_options"),
        ({"traffic": [1.0]}, "traffic"),
    ])
    def test_mistyped_field_exit_code_2(self, tmp_path, doc, field):
        config_path = write_config(tmp_path, doc)
        result = CliRunner().invoke(cli_main, ["oracle", "--config", config_path])
        assert result.exit_code == 2, result.output
        assert f"error: field {field!r}" in result.output

    def test_bad_policy_list_exit_code_2(self, tmp_path):
        config_path = write_config(tmp_path, small_doc())
        runner = CliRunner()
        result = runner.invoke(cli_main, ["compare", "--config", config_path,
                                          "--policies", "greedy,bogus",
                                          "--seeds", "0",
                                          "--out", str(tmp_path / "cmp")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("policies,seeds", [("greedy", ","), (",", "0")])
    def test_empty_grid_list_exit_code_2(self, tmp_path, policies, seeds):
        config_path = write_config(tmp_path, small_doc())
        runner = CliRunner()
        result = runner.invoke(cli_main, ["compare", "--config", config_path,
                                          "--policies", policies,
                                          "--seeds", seeds,
                                          "--out", str(tmp_path / "cmp")])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output

    def write_agent(self, tmp_path, cfg):
        bundle = agent.make_agent(cfg.n_max, harness.default_state_scale(cfg),
                                  cfg.vm_frequency, hidden=(4,),
                                  rng=np.random.default_rng(0))
        path = tmp_path / "agent.ckpt"
        agent.save_agent(bundle, path)
        return path

    @pytest.mark.parametrize("flag", ["--agent-checkpoint", "--peer-checkpoint"])
    def test_missing_checkpoint_exit_code_2(self, tmp_path, flag):
        config_path = write_config(tmp_path, small_doc())
        result = CliRunner().invoke(cli_main, [
            "compare", "--config", config_path, "--policies", "sliceoff",
            "--seeds", "0", "--out", str(tmp_path / "cmp"),
            "--agent-checkpoint", str(self.write_agent(tmp_path, build_config(small_doc()))),
            flag, str(tmp_path / "missing.ckpt")])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "missing.ckpt" in result.output

    def test_truncated_checkpoint_exit_code_2(self, tmp_path):
        config_path = write_config(tmp_path, small_doc())
        path = self.write_agent(tmp_path, build_config(small_doc()))
        magic, header = path.read_text().splitlines()[:2]
        path.write_text(f"{magic}\n{header[:len(header) // 2]}")  # cut mid-header
        result = CliRunner().invoke(cli_main, [
            "run", "--config", config_path, "--policy", "sliceoff",
            "--out", str(tmp_path / "out"), "--agent-checkpoint", str(path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "agent.ckpt" in result.output

    def test_checkpoint_without_frequency_exit_code_2(self, tmp_path):
        config_path = write_config(tmp_path, small_doc())
        path = self.write_agent(tmp_path, build_config(small_doc()))
        lines = path.read_text().splitlines()
        meta = json.loads(lines[1])
        del meta["frequency"]
        lines[1] = json.dumps(meta, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="frequency"):
            agent.load_agent(path)
        result = CliRunner().invoke(cli_main, [
            "run", "--config", config_path, "--policy", "sliceoff",
            "--out", str(tmp_path / "out"), "--agent-checkpoint", str(path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "frequency" in result.output

    def reshape_array(self, path, name, shape):
        """Rewrite one stored array with a new shape, metadata unchanged."""
        arrays, meta = checkpoint.load_arrays(path)
        arrays[name] = np.ones(shape)
        checkpoint.save_arrays(path, arrays, meta)

    @pytest.mark.parametrize("name,shape", [
        ("actor.w0", (12, 5)), ("critic2.b1", (2,)), ("state_scale", (3,))])
    def test_wrong_shape_agent_array_exit_code_2(self, tmp_path, name, shape):
        config_path = write_config(tmp_path, small_doc())
        path = self.write_agent(tmp_path, build_config(small_doc()))
        built = checkpoint.load_arrays(path)[0][name].shape
        self.reshape_array(path, name, shape)
        result = CliRunner().invoke(cli_main, [
            "compare", "--config", config_path, "--policies", "sliceoff",
            "--seeds", "0", "--out", str(tmp_path / "cmp"),
            "--agent-checkpoint", str(path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "agent.ckpt" in result.output
        assert repr(name) in result.output
        assert str(shape) in result.output and str(built) in result.output

    def rewrite_array(self, path, name, value):
        """Replace one stored array, metadata unchanged."""
        arrays, meta = checkpoint.load_arrays(path)
        arrays[name] = value(arrays[name])
        checkpoint.save_arrays(path, arrays, meta)

    def run_sliceoff(self, tmp_path, agent_path, *extra):
        return CliRunner().invoke(cli_main, [
            "run", "--config", write_config(tmp_path, small_doc()),
            "--policy", "sliceoff", "--out", str(tmp_path / "out"),
            "--agent-checkpoint", str(agent_path), *extra])

    @pytest.mark.parametrize("dtype", ["complex128", "int64", "float16"])
    def test_wrong_dtype_agent_array_exit_code_2(self, tmp_path, dtype):
        path = self.write_agent(tmp_path, build_config(small_doc()))
        self.rewrite_array(path, "actor.w1", lambda a: a.astype(dtype))
        result = self.run_sliceoff(tmp_path, path)
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "agent.ckpt" in result.output
        assert "'actor.w1'" in result.output and dtype in result.output

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_agent_array_exit_code_2(self, tmp_path, bad):
        path = self.write_agent(tmp_path, build_config(small_doc()))
        self.rewrite_array(path, "critic2.b0", lambda a: np.full_like(a, bad))
        result = self.run_sliceoff(tmp_path, path)
        assert result.exit_code == 2, result.output
        assert "'critic2.b0'" in result.output and "non-finite" in result.output

    @pytest.mark.parametrize("divisor", [0.0, -1.0])
    def test_nonpositive_state_scale_exit_code_2(self, tmp_path, divisor):
        # A zero divisor made every feature non-finite, and `run` crashed
        # in the environment with exit 1.
        path = self.write_agent(tmp_path, build_config(small_doc()))
        self.rewrite_array(path, "state_scale",
                           lambda a: np.concatenate([a[:4], [divisor], a[5:]]))
        result = self.run_sliceoff(tmp_path, path)
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "'state_scale'" in result.output
        assert "Traceback" not in result.output

    def test_peer_of_other_state_scale_exit_code_2(self, tmp_path):
        cfg = build_config(small_doc())
        path = self.write_agent(tmp_path, cfg)
        peer = tmp_path / "peer.ckpt"
        agent.save_agent(TestRun.small_agent(cfg, 2, scale=2.0), peer)
        result = CliRunner().invoke(cli_main, [
            "compare", "--config", write_config(tmp_path, small_doc()),
            "--policies", "sliceoff", "--seeds", "0", "--out", str(tmp_path / "cmp"),
            "--agent-checkpoint", str(path), "--peer-checkpoint", str(peer)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "state_scale" in result.output
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_nonpositive_norm_std_exit_code_2(self, tmp_path, std):
        # A zero norm_std made every forecast non-finite, and `run` crashed
        # in slicing with exit 1.
        cfg = build_config(small_doc())
        path = tmp_path / "forecaster.ckpt"
        ForecastModel(cfg.forecaster, np.random.default_rng(0)).save(path)
        self.rewrite_array(path, "norm_std", lambda a: np.full_like(a, std))
        result = self.run_sliceoff(tmp_path, self.write_agent(tmp_path, cfg),
                                   "--forecaster-checkpoint", str(path))
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "forecaster.ckpt" in result.output
        assert "'norm_std'" in result.output and "Traceback" not in result.output

    def test_wrong_dtype_forecaster_array_exit_code_2(self, tmp_path):
        cfg = build_config(small_doc())
        path = tmp_path / "forecaster.ckpt"
        ForecastModel(cfg.forecaster, np.random.default_rng(0)).save(path)
        self.rewrite_array(path, "head_w0", lambda a: a.astype(complex))
        result = self.run_sliceoff(tmp_path, self.write_agent(tmp_path, cfg),
                                   "--forecaster-checkpoint", str(path))
        assert result.exit_code == 2, result.output
        assert "forecaster.ckpt" in result.output
        assert "'head_w0'" in result.output and "complex128" in result.output

    def test_legacy_float64_agent_checkpoint_runs(self, tmp_path):
        # Agent checkpoints were written with float64 nets before the nets
        # became float32; they load, cast, and run like the float32 file.
        path = self.write_agent(tmp_path, build_config(small_doc()))
        expected = self.run_sliceoff(tmp_path, path)
        assert expected.exit_code == 0, expected.output
        metrics = (tmp_path / "out" / "metrics.csv").read_bytes()
        arrays, meta = checkpoint.load_arrays(path)
        checkpoint.save_arrays(path, {k: a.astype(np.float64)
                                      for k, a in arrays.items()}, meta)
        result = self.run_sliceoff(tmp_path, path)
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == metrics
        loaded = agent.load_agent(path)
        assert loaded.actor.params["w0"].dtype == np.float32

    def test_trained_nets_and_moments_stay_float32(self):
        current, peer, _, _ = harness.train_agents(build_config(small_doc()), seed=0)
        for bundle in (current, peer):
            for name in agent._NETS:
                net = getattr(bundle, name).net
                assert all(p.dtype == np.float32 for p in net.params.values()), name
                if not name.startswith("target"):
                    assert net.adam.step > 0, name
                    assert net.adam._m.dtype == net.adam._v.dtype == np.float32, name

    @pytest.mark.parametrize("name,shape", [
        ("head_w0", (8, 9)), ("dist0_kernel", (2, 8, 8)), ("norm_std", (1,))])
    def test_wrong_shape_forecaster_array_exit_code_2(self, tmp_path, name, shape):
        cfg = build_config(small_doc())
        config_path = write_config(tmp_path, small_doc())
        path = tmp_path / "forecaster.ckpt"
        ForecastModel(cfg.forecaster, np.random.default_rng(0)).save(path)
        built = checkpoint.load_arrays(path)[0][name].shape
        self.reshape_array(path, name, shape)
        result = CliRunner().invoke(cli_main, [
            "compare", "--config", config_path, "--policies", "sliceoff",
            "--seeds", "0", "--out", str(tmp_path / "cmp"),
            "--agent-checkpoint", str(self.write_agent(tmp_path, cfg)),
            "--forecaster-checkpoint", str(path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "forecaster.ckpt" in result.output
        assert repr(name) in result.output
        assert str(shape) in result.output and str(built) in result.output

    @pytest.mark.parametrize("args", [
        ["run", "--policy", "greedy", "--seed", "-1"],
        ["compare", "--policies", "greedy", "--seeds", "0,-1"],
        ["train", "--seed", "-1"],
        ["oracle", "--seed", "-1"],
    ])
    def test_negative_seed_exit_code_2(self, tmp_path, args):
        config_path = write_config(tmp_path, small_doc())
        out = [] if args[0] == "oracle" else ["--out", str(tmp_path / "out")]
        result = CliRunner().invoke(cli_main, args + ["--config", config_path] + out)
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "seed" in result.output

    @pytest.mark.parametrize("section,name,value", [
        ("forecaster", "history_window", 0),
        ("forecaster", "current_window", 0),
        ("forecaster", "lr", -1.0),
        ("forecaster", "lr", 0.0),
        ("agent", "critic_lr", -1.0),
        ("agent", "actor_lr", -1.0),
        ("agent", "distill_lr", -1.0),
        ("agent", "tau", -1.0),
        ("agent", "tau", 0.0),
        ("agent", "tau", 1.5),
    ])
    def test_bad_window_rate_or_tau_exit_code_2(self, tmp_path, section, name, value):
        doc = small_doc()
        doc[section] = dict(doc[section], **{name: value})
        config_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        result = CliRunner().invoke(cli_main, ["train", "--config", config_path,
                                               "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"error: field '{section}.{name}'" in result.output
        assert not out.exists()

    def test_current_window_beyond_training_history_exit_code_2(self, tmp_path):
        # train_all fits on 160 slots, cutting from current_window on.
        doc = small_doc()
        doc["forecaster"] = dict(doc["forecaster"], current_window=160)
        result = CliRunner().invoke(cli_main, [
            "train", "--config", write_config(tmp_path, doc),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "error: field 'forecaster.current_window'" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_agent_padded_below_config_n_max_exit_code_2(self, tmp_path, command):
        cfg = build_config(small_doc())
        bundle = agent.make_agent(cfg.n_max - 2, harness.default_state_scale(cfg),
                                  cfg.vm_frequency, hidden=(4,),
                                  rng=np.random.default_rng(0))
        path = tmp_path / "agent.ckpt"
        agent.save_agent(bundle, path)
        grid = (["--policy", "sliceoff"] if command == "run"
                else ["--policies", "greedy,sliceoff", "--seeds", "0"])
        out = tmp_path / "out"
        result = CliRunner().invoke(cli_main, [
            command, "--config", write_config(tmp_path, small_doc()), *grid,
            "--out", str(out), "--agent-checkpoint", str(path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "n_max=4" in result.output
        assert not out.exists()

    def test_oracle_policy_above_enumeration_bound_exit_code_2(self, tmp_path):
        n_max = baselines.ENUMERATION_BOUND + 2
        out = tmp_path / "out"
        result = CliRunner().invoke(cli_main, [
            "run", "--config", write_config(tmp_path, small_doc(n_max=n_max)),
            "--policy", "oracle", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "error: policy 'oracle'" in result.output
        assert str(n_max) in result.output
        assert not out.exists()

    @pytest.mark.parametrize("section,value,field", [
        ("forecaster", {"head_hidden": 0}, "forecaster.head_hidden"),
        ("forecaster", {"width": 1}, "forecaster.width"),
        ("forecaster", {"epochs": -1}, "forecaster.epochs"),
        ("agent", {"hidden": [0]}, "agent.hidden[0]"),
        ("agent", {"hidden": [8, -2]}, "agent.hidden[1]"),
        ("agent", {"noise_start": -0.1}, "agent.noise_start"),
        ("agent", {"noise_end": -0.1}, "agent.noise_end"),
        ("agent", {"smooth_std": -0.1}, "agent.smooth_std"),
        ("agent", {"smooth_clip": -0.1}, "agent.smooth_clip"),
        ("agent", {"epochs": -1}, "agent.epochs"),
    ])
    def test_out_of_range_field_exit_code_2(self, tmp_path, section, value, field):
        doc = small_doc()
        doc[section] = dict(doc[section], **value)
        out = tmp_path / "out"
        result = CliRunner().invoke(cli_main, [
            "train", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"error: field {field!r}" in result.output
        assert not out.exists()

    def rewrite_meta(self, path, **fields):
        """Replace metadata fields of a checkpoint, arrays unchanged."""
        arrays, meta = checkpoint.load_arrays(path)
        checkpoint.save_arrays(path, arrays, dict(meta, **fields))

    @pytest.mark.parametrize("fields,named", [
        ({"n_max": "x"}, "'n_max'"),
        ({"n_max": 0}, "'n_max'"),
        ({"n_max": 6.0}, "'n_max'"),
        ({"nets": []}, "'nets'"),
    ])
    def test_malformed_agent_metadata_exit_code_2(self, tmp_path, fields, named):
        path = self.write_agent(tmp_path, build_config(small_doc()))
        self.rewrite_meta(path, **fields)
        with pytest.raises(CheckpointError, match=named):
            agent.load_agent(path)
        result = self.run_sliceoff(tmp_path, path)
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "agent.ckpt" in result.output
        assert named in result.output

    @pytest.mark.parametrize("spec,named", [
        ({"activations": ["relu", "swish"]}, "'nets.critic1'"),
        ({"activations": ["relu"]}, "'nets.critic1'"),
        ({"activations": "relu"}, "'nets.critic1'"),
        ({"dims": 4}, "'nets.critic1'"),
        ({"dims": [19, "4", 1]}, "'critic1.w0'"),
    ])
    def test_malformed_net_metadata_exit_code_2(self, tmp_path, spec, named):
        path = self.write_agent(tmp_path, build_config(small_doc()))
        nets = checkpoint.load_arrays(path)[1]["nets"]
        nets["critic1"] = dict(nets["critic1"], **spec)
        self.rewrite_meta(path, nets=nets)
        result = self.run_sliceoff(tmp_path, path)
        assert result.exit_code == 2, result.output
        assert "agent.ckpt" in result.output and named in result.output

    def test_net_of_another_input_width_exit_code_2(self, tmp_path):
        # Arrays and dims agree with each other but not with the actor's
        # feature rows, which would fail only at the first forward pass.
        path = self.write_agent(tmp_path, build_config(small_doc()))
        arrays, meta = checkpoint.load_arrays(path)
        arrays["actor.w0"] = arrays["actor.w0"][1:]
        meta["nets"]["actor"]["dims"][0] -= 1
        checkpoint.save_arrays(path, arrays, meta)
        result = self.run_sliceoff(tmp_path, path)
        assert result.exit_code == 2, result.output
        assert "'nets.actor'" in result.output and "inputs" in result.output

    @pytest.mark.parametrize("fields", [{"width": "x"}, {"width": 32.5},
                                        {"head_hidden": 0}, {"topu_factor": "x"}])
    def test_malformed_forecaster_metadata_exit_code_2(self, tmp_path, fields):
        cfg = build_config(small_doc())
        path = tmp_path / "forecaster.ckpt"
        ForecastModel(cfg.forecaster, np.random.default_rng(0)).save(path)
        self.rewrite_meta(path, **fields)
        named = f"'forecaster.{next(iter(fields))}'"
        with pytest.raises(CheckpointError, match=named):
            ForecastModel.load(path)
        result = self.run_sliceoff(tmp_path, self.write_agent(tmp_path, cfg),
                                   "--forecaster-checkpoint", str(path))
        assert result.exit_code == 2, result.output
        assert "forecaster.ckpt" in result.output and named in result.output

    def test_constraint_violation_exit_code_6(self, tmp_path, monkeypatch):
        def broken_run(*args, **kwargs):
            raise ConstraintViolation("task 0 assigned to VM 7 outside the 2 rented VMs")
        monkeypatch.setattr(harness, "run", broken_run)
        config_path = write_config(tmp_path, small_doc())
        result = CliRunner().invoke(cli_main, [
            "run", "--config", config_path, "--policy", "greedy",
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 6, result.output
        assert ("error: constraint violated: task 0 assigned to VM 7"
                in result.output)
        assert "Traceback" not in result.output

    def test_uncreatable_out_exit_code_5(self, tmp_path):
        config_path = write_config(tmp_path, small_doc())
        blocker = tmp_path / "file"
        blocker.write_text("")
        result = CliRunner().invoke(cli_main, [
            "run", "--config", config_path, "--policy", "greedy",
            "--out", str(blocker / "sub")])
        assert result.exit_code == 5, result.output
        assert "error: cannot write output" in result.output
