"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install` replaces the public entry points of the edgeslice modules
with timing wrappers, at the attribute where each caller looks the function
up (``from x import y`` binds ``y`` in the caller, so ``harness.step`` and
``scenario.step`` are wrapped separately from ``env.step``).  Each call
records a span: name, start, end, parent span and operation id.  Counters
record exact amounts of work at the same boundaries.  Nothing is written
until `write_spans`; `uninstall` restores every original attribute.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from edgeslice import (agent, baselines, checkpoint, env, forecasting, harness,
                       nn, scenario, slicing)

SETUP_OP = "setup"


def _forward_rows(counts, args, _result):
    x = np.asarray(args[1])
    counts["nn.forward_rows"] += x.shape[0] if x.ndim == 2 else 1


def _tasks_sampled(counts, _args, tasks):
    counts["scenario.tasks_sampled"] += len(tasks)


def _settled(counts, _args, result):
    uploaded = paid = 0
    records = result[2]
    for rec in records:
        if math.isfinite(rec.t_total):
            uploaded += 1
            if rec.revenue > 0.0:
                paid += 1
    counts["env.tasks_uploaded"] += uploaded
    counts["env.tasks_paid"] += paid
    counts["env.deadline_missed"] += uploaded - paid
    counts["env.rejected"] += len(records) - uploaded


def _report_bytes(counts, _args, paths):
    counts["harness.report_bytes"] += sum(os.path.getsize(p) for p in paths.values())


def _checkpoint_bytes(counts, args, _result):
    counts["checkpoint.bytes"] += os.path.getsize(args[0])


# (owner, attribute, span name, hook) for every timed entry point.  Span
# names start with the package layer.  A hook adds exact work counts:
# hook(counts, args, result).
_SPANS = [
    (harness, "compare", "harness.compare", None),
    (harness, "train_agents", "harness.train_agents", None),
    (harness, "train_forecaster", "harness.train_forecaster", None),
    (harness, "run", "harness.run", None),
    (harness, "report", "harness.report", _report_bytes),
    (harness, "generate_scenario", "scenario.generate", None),
    (scenario.OffloadEnv, "step", "scenario.env_step", None),
    (scenario.OffloadEnv, "reset", "scenario.env_reset", None),
    (harness, "step", "env.step", _settled),
    (scenario, "step", "env.step", _settled),
    (slicing, "adjust_slices", "slicing.adjust", None),
    (slicing, "solve_relaxed", "slicing.solve_relaxed", None),
    (slicing, "randomized_round", "slicing.round", None),
    (harness, "forecast", "forecasting.forecast", None),
    (harness, "fit", "forecasting.fit", None),
    (forecasting, "build_io", "forecasting.build_io", None),
    (forecasting.ForecastModel, "_forward_region", "forecasting.forward", None),
    (forecasting.ForecastModel, "_backward_region", "forecasting.backward", None),
    (agent, "encode_state", "agent.encode", None),
    (agent, "act", "agent.act", None),
    (agent, "td_target", "agent.td_target", None),
    (agent, "update_critics", "agent.update_critics", None),
    (agent, "update_actor", "agent.update_actor", None),
    (agent, "distill", "agent.distill", None),
    (agent, "value_estimate", "agent.value_estimate", None),
    (agent, "greedy_episode_reward", "agent.eval_episode", None),
    (agent.TaskBlockActor, "copy", "agent.snapshot", None),
    (agent.TaskBlockCritic, "copy", "agent.snapshot", None),
    (agent.ReplayBuffer, "push", "agent.replay", None),
    (agent.ReplayBuffer, "sample", "agent.replay", None),
    (agent._TaskBlock, "_state_rows", "agent.featurise", None),
    (agent, "soft_update", "nn.soft_update", None),
    (nn.Network, "forward", "nn.forward", _forward_rows),
    (nn.Network, "backward", "nn.backward", None),
    (nn.Network, "copy", "nn.copy", None),
    (nn.AdamState, "apply", "nn.adam", None),
    (checkpoint, "save_arrays", "checkpoint.save", _checkpoint_bytes),
    (checkpoint, "load_arrays", "checkpoint.load", None),
] + [(baselines, name, "baselines.policy", None)
     for name in ("greedy_policy", "max_transaction_policy", "auction_policy",
                  "random_policy")]


# Entry points too small to time: only ``<name>_calls`` and the hook's counts.
_COUNTED = [
    (scenario, "sample_tasks", "scenario.sample_tasks", _tasks_sampled),
    (env.RadioParams, "spectral_efficiency", "env.spectral_efficiency", None),
]


class Tracer:
    """Span and counter registry; spans are parallel lists indexed by span id."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.ops: list = []
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> name -> n
        self.op = SETUP_OP
        self._stack: list = []
        self._saved: list = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, hook):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack

        def wrapped(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts[self.op], args, result)
            return result
        return wrapped

    def _counter(self, name, fn, hook):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = self.counts[self.op]
            counts[f"{name}_calls"] += 1
            if hook is not None:
                hook(counts, args, result)
            return result
        return wrapped

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for make, targets in ((self._span, _SPANS), (self._counter, _COUNTED)):
            for owner, attr, name, hook in targets:
                fn = owner.__dict__[attr]
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, make(name, fn, hook))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- aggregation ---------------------------------------------------------

    def summary(self, ops) -> tuple:
        """(self seconds, calls, counters) per name over the given op ids.

        A span's self time is its duration minus its children's durations."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        wanted = set(ops)
        for i in range(n):
            if self.ops[i] in wanted:
                name = self.names[i]
                self_s[name] += self.ends[i] - self.starts[i] - child[i]
                calls[name] += 1
        counts = defaultdict(int)
        for op in wanted:
            for name, value in self.counts[op].items():
                counts[name] += value
        return self_s, calls, counts

    def write_spans(self, path) -> None:
        """One CSV row per span: id, parent, op, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{self.ops[i]},{name},"
                         f"{self.starts[i]!r},{self.ends[i]!r}\n")
