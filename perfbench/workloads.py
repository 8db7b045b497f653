"""The benchmark's three workloads over the edgeslice package.

Each workload makes its inputs from the benchmark seed.  ``call(k)`` is the
timed part of operation ``k``: one call into `edgeslice.harness`.
``check(k, result, seconds)`` then checks the outputs with invariants that
any correct program satisfies and fingerprints them.  Operation ``k`` of
seed ``s`` draws its program seeds from ``1000 * s + k``: operation 0 is the
warm-up, so timed operations never reuse the warm-up's inputs.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from edgeslice import agent, harness
from edgeslice.config import build_config
from edgeslice.forecasting import ForecastModel

POLICIES = ("greedy", "auction", "max_transaction", "random", "sliceoff")


def program_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


@dataclass
class Outcome:
    """Checked result of one timed call."""

    seconds: float
    units: int = 0              # work done: records, steps or windows
    attempted: int = 0
    failures: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # per-operation seconds
    fingerprint: str = ""


def _sha256_rows(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(tuple(row)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _sha256_tree(root) -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


class CompareGrid:
    name = "compare_grid"
    unit = "settlement records"
    throughput_alias = "sim_tasks_per_s"
    latency_alias = "run_s"
    latency_unit = "(policy, seed) runs"
    seeds_per_op = 2
    attempts_per_op = len(POLICIES) * seeds_per_op  # one per (policy, seed) run
    trace_ops = 1
    expected_spans = ("harness.compare", "harness.run", "harness.report",
                      "scenario.generate", "env.step", "baselines.policy",
                      "slicing.adjust", "slicing.solve_relaxed", "slicing.round",
                      "forecasting.forecast", "forecasting.build_io",
                      "forecasting.forward", "agent.encode", "agent.act",
                      "agent.featurise", "nn.forward")
    expected_setup_spans = ("checkpoint.save", "checkpoint.load")
    bypassed_layers = ()

    def __init__(self, seed: int, workdir):
        """Default config plus a seeded agent and a briefly fitted forecaster,
        both loaded back through the checkpoint format."""
        self.seed = seed
        self.workdir = workdir
        self.config = build_config({})
        scale = harness.default_state_scale(self.config)
        bundle = agent.make_agent(
            self.config.n_max, scale, hidden=tuple(self.config.agent.hidden),
            rng=np.random.default_rng([seed, 1]),
            frequency=self.config.vm_frequency)
        short = build_config({"forecaster": {"epochs": 1}})
        model, _ = harness.train_forecaster(short, seed, history_slots=24)
        agent_path = os.path.join(workdir, "agent.ckpt")
        model_path = os.path.join(workdir, "forecaster.ckpt")
        agent.save_agent(bundle, agent_path)
        model.save(model_path)
        self.bundle = agent.load_agent(agent_path)
        self.model = ForecastModel.load(model_path)

    def seeds(self, k: int) -> list:
        return [program_seed(self.seed, k) * self.seeds_per_op + j
                for j in range(self.seeds_per_op)]

    def call(self, k: int):
        out = os.path.join(self.workdir, f"op{k}")
        runs = []
        run = harness.run

        def timed_run(*args, **kwargs):
            # compare looks run up in the harness module on every call.
            start = perf_counter()
            report = run(*args, **kwargs)
            runs.append((perf_counter() - start, report))
            return report
        harness.run = timed_run
        try:
            harness.compare(self.config, POLICIES, self.seeds(k), out,
                            agent_bundle=self.bundle, forecaster=self.model)
        finally:
            harness.run = run
        return out, runs

    def check(self, k: int, result, seconds: float) -> Outcome:
        out, runs = result
        outcome = Outcome(seconds, fingerprint=_sha256_tree(out))
        shutil.rmtree(out)
        if len(runs) != self.attempts_per_op:
            outcome.failures.append(f"{len(runs)} runs, expected {self.attempts_per_op}")
        tasks = {}
        for seed in self.seeds(k):
            scenario = harness.generate_scenario(self.config, seed)
            tasks[seed] = sum(min(len(batch), self.config.n_max)
                              for region in scenario.tasks
                              for slot in region for batch in slot)
        deadline = self.config.econ.deadline
        for run_seconds, report in runs:
            outcome.latencies.append(run_seconds)
            outcome.units += len(report.settlements)
            problem = _check_report(report, tasks[report.seed], deadline)
            if problem:
                outcome.failures.append(f"{report.policy} seed {report.seed}: {problem}")
        return outcome


def _check_report(report, tasks: int, deadline: float) -> str:
    resum = (sum(rec.revenue for rec in report.settlements)
             - sum(cost for _, cost in report.rental_log))
    if abs(resum - report.total_profit) > 1e-6 * max(1.0, abs(resum)):
        return f"profit {report.total_profit!r} != re-summed {resum!r}"
    if len(report.settlements) != tasks:
        return f"{len(report.settlements)} settlements for {tasks} tasks"
    keys = {(r.region, r.long_slot, r.short_slot, r.task_id)
            for r in report.settlements}
    if len(keys) != tasks:
        return "duplicate settlement records"
    for rec in report.settlements:
        if math.isfinite(rec.t_total):
            parts = rec.t_up + rec.t_que + rec.t_exe
            if abs(rec.t_total - parts) > 1e-12 * max(1.0, abs(parts)):
                return f"t_total {rec.t_total!r} != parts {parts!r}"
        if rec.revenue > 0.0 and not rec.t_total <= deadline:
            return f"paid task with t_total {rec.t_total!r} over deadline"
    return ""


class TrainDual:
    name = "train_dual"
    unit = "dual-agent steps"
    throughput_alias = "train_steps_per_s"
    latency_alias = "train_call_s"
    latency_unit = "train_agents calls"
    attempts_per_op = 1
    trace_ops = 1
    epochs = 16
    warmup = 64
    expected_spans = ("harness.train_agents", "scenario.env_step",
                      "scenario.env_reset", "env.step", "agent.encode",
                      "agent.act", "agent.td_target", "agent.update_critics",
                      "agent.update_actor", "agent.distill",
                      "agent.value_estimate", "agent.eval_episode",
                      "agent.snapshot", "agent.replay", "agent.featurise",
                      "nn.forward", "nn.backward", "nn.adam", "nn.soft_update",
                      "nn.copy")
    expected_setup_spans = ()
    bypassed_layers = ("slicing", "baselines", "forecasting", "checkpoint")

    def __init__(self, seed: int, workdir):
        """Default config (10-slot episodes, batch 64, 64x64 hidden layers)
        with fewer epochs and a warm-up of one batch."""
        self.seed = seed
        self.config = build_config({"agent": {"epochs": self.epochs,
                                              "warmup": self.warmup}})
        self.steps = self.epochs * self.config.short_slots

    def call(self, k: int):
        return harness.train_agents(self.config, program_seed(self.seed, k))

    def check(self, k: int, result, seconds: float) -> Outcome:
        current, peer, curves_c, curves_p = result
        rows = [("current",) + r.as_row() for r in curves_c]
        rows += [("peer",) + r.as_row() for r in curves_p]
        outcome = Outcome(seconds, units=current.step_count, latencies=[seconds],
                          fingerprint=_sha256_rows(rows))
        for side, bundle, curves in (("current", current, curves_c),
                                     ("peer", peer, curves_p)):
            if bundle.step_count != self.steps:
                outcome.failures.append(
                    f"{side} step_count {bundle.step_count} != {self.steps}")
            if not curves:
                outcome.failures.append(f"{side} wrote no curve rows")
            if not all(math.isfinite(v) for row in curves for v in row.as_row()):
                outcome.failures.append(f"{side} curves hold a non-finite value")
        return outcome


class FitForecaster:
    name = "fit_forecaster"
    unit = "training windows"
    throughput_alias = "fit_windows_per_s"
    latency_alias = "fit_call_s"
    latency_unit = "train_forecaster calls"
    attempts_per_op = 1
    trace_ops = 2
    epochs = 2
    history_slots = 160  # the harness default
    expected_spans = ("harness.train_forecaster", "forecasting.fit",
                      "forecasting.build_io", "forecasting.forward",
                      "forecasting.backward", "nn.adam")
    expected_setup_spans = ()
    bypassed_layers = ("env", "slicing", "baselines", "agent", "checkpoint")

    def __init__(self, seed: int, workdir):
        """Default config with fewer epochs."""
        self.seed = seed
        self.config = build_config({"forecaster": {"epochs": self.epochs}})
        # fit trains on every cut from max(2, current_window) to the end
        # (horizon 1); one window is every region's forward and backward
        # pass plus one Adam step.
        per_epoch = self.history_slots - max(2, self.config.forecaster.current_window)
        self.windows = self.epochs * per_epoch

    def call(self, k: int):
        return harness.train_forecaster(self.config, program_seed(self.seed, k),
                                        history_slots=self.history_slots)

    def check(self, k: int, result, seconds: float) -> Outcome:
        _, trace = result
        outcome = Outcome(seconds, units=self.windows, latencies=[seconds],
                          fingerprint=_sha256_rows([trace]))
        if len(trace) != self.epochs:
            outcome.failures.append(f"{len(trace)} loss values for {self.epochs} epochs")
        if not all(math.isfinite(v) for v in trace):
            outcome.failures.append("loss trace holds a non-finite value")
        return outcome


WORKLOADS = {cls.name: cls for cls in (CompareGrid, TrainDual, FitForecaster)}
