"""Experiment orchestration: the outer simulation loop, metrics emission,
policy comparison grids, and end-to-end training of the learned components.

Every run is a pure function of (config, policy, seed): all randomness flows
through seeded generators and output files carry no timestamps, so reruns
are byte-identical.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
from array import array
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import starmap
from typing import NamedTuple

import numpy as np

from . import agent as agent_mod
from . import baselines, slicing
from .config import Config
from .env import (RegionCatalog, RegionState, ResourceCatalog, SettlementRecord,
                  rented_and_cost, rented_in_region, step)
from .errors import ConfigError
from .forecasting import ForecastModel, TrafficSeries, baseline_forecast, fit, forecast
from .scenario import (InstanceFamily, OffloadEnv, Scenario, generate_scenario,
                       traffic_counts)

log = logging.getLogger("edgeslice")

POLICY_TAGS = ("sliceoff", "greedy", "max_transaction", "auction", "random", "oracle")


class SlotMetrics(NamedTuple):
    """Aggregates for one long slot; the fields head metrics.csv."""

    h: int
    revenue: float
    cost: float
    profit: float
    offloaded: int
    hit_rate: float
    bw_util: float
    vm_util: float


# The typecodes of the log's columns, in `SettlementRecord` field order.
_COLUMN_CODES = "qqqqddddd"


@lru_cache(maxsize=256)
def _column_packers(n: int) -> tuple:
    """Per column, the packer of ``n`` values into its machine format: one
    call converts a slot's values several times faster than
    `array.extend`, which converts them one at a time."""
    return tuple(struct.Struct(f"{n}{code}").pack for code in _COLUMN_CODES)


class Settlements:
    """A run's settlement log: the nine `SettlementRecord` fields in nine
    typed columns, 64-bit ints for the four keys and doubles for the five
    times and revenues, so the log holds no Python object per task.

    ``len()`` counts the records; iterating yields them as
    `SettlementRecord`s in settlement order, built afresh on every pass."""

    __slots__ = ("columns",)

    def __init__(self):
        self.columns = tuple(array(code) for code in _COLUMN_CODES)

    def extend(self, records) -> tuple:
        """Append a sequence of records, in order; returns their nine
        fields as tuples."""
        fields = tuple(zip(*records)) or ((),) * len(self.columns)
        for column, pack, values in zip(self.columns,
                                        _column_packers(len(records)), fields):
            column.frombytes(pack(*values))
        return fields

    def rows(self):
        """The records as plain 9-tuples, in settlement order."""
        return zip(*self.columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __eq__(self, other):
        if not isinstance(other, Settlements):
            return NotImplemented
        return self.columns == other.columns

    def __iter__(self):
        return starmap(SettlementRecord, self.rows())


@dataclass
class MetricsReport:
    """Per-long-slot rows plus run totals for one (config, policy, seed)."""

    policy: str
    seed: int
    rows: list = field(default_factory=list)
    settlements: Settlements = field(default_factory=Settlements)
    rental_log: list = field(default_factory=list)  # (h, cost)

    @property
    def total_revenue(self) -> float:
        return sum(r.revenue for r in self.rows)

    @property
    def total_cost(self) -> float:
        return sum(r.cost for r in self.rows)

    @property
    def total_profit(self) -> float:
        return sum(r.profit for r in self.rows)

    @property
    def total_offloaded(self) -> int:
        return sum(r.offloaded for r in self.rows)

    def totals(self) -> dict:
        rows = self.rows
        return {
            "policy": self.policy,
            "seed": self.seed,
            "revenue": self.total_revenue,
            "cost": self.total_cost,
            "profit": self.total_profit,
            "offloaded": self.total_offloaded,
            "hit_rate": (sum(r.hit_rate * r.offloaded for r in rows)
                         / max(1, self.total_offloaded)),
            "bw_util": sum(r.bw_util for r in rows) / max(1, len(rows)),
            "vm_util": sum(r.vm_util for r in rows) / max(1, len(rows)),
        }


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def make_policy(tag: str, config: Config, rng: np.random.Generator,
                agent_bundle=None, peer_bundle=None):
    """Bind a policy tag to a callable RegionState -> AllocationAction.

    With a peer bundle, ``sliceoff`` follows the hybrid policy: per state,
    the agent whose twin critics value its own action higher.  A policy that
    cannot serve the config's ``n_max`` users per region (an agent padded to
    fewer, or ``oracle`` above `baselines.ENUMERATION_BOUND`) is refused."""
    # Read at call time, not import time, so wrapped module attributes
    # (perfbench's tracer) take effect.
    packers = {"greedy": baselines.greedy_policy,
               "max_transaction": baselines.max_transaction_policy,
               "auction": baselines.auction_policy,
               "oracle": baselines.oracle_policy}
    if tag == "oracle" and config.n_max > baselines.ENUMERATION_BOUND:
        raise ConfigError(
            f"policy 'oracle' enumerates at most {baselines.ENUMERATION_BOUND} "
            f"tasks per region, field 'n_max' allows {config.n_max}")
    if tag in packers:
        return partial(packers[tag], radio=config.radio, econ=config.econ)
    if tag == "random":
        return partial(baselines.random_policy, rng=rng)
    if tag == "sliceoff":
        if agent_bundle is None:
            raise ConfigError("policy 'sliceoff' needs a trained agent checkpoint")
        if peer_bundle is not None and peer_bundle.n_max != agent_bundle.n_max:
            raise ConfigError(
                f"peer agent pads to n_max={peer_bundle.n_max}, "
                f"the agent to n_max={agent_bundle.n_max}")
        if agent_bundle.n_max < config.n_max:
            raise ConfigError(
                f"agent pads to n_max={agent_bundle.n_max}, below the "
                f"{config.n_max} users per region of field 'n_max'")

        def sliceoff_policy(region: RegionState):
            obs = agent_mod.encode_state(region, config.radio, config.econ,
                                         agent_bundle.n_max)
            if peer_bundle is None:
                raw = agent_mod.act(agent_bundle, obs, explore=False)
            else:
                raw = agent_mod.hybrid_policy(agent_bundle, peer_bundle, obs)
            return agent_mod.decode_action(raw, obs)
        return sliceoff_policy
    raise ConfigError(f"unknown policy tag {tag!r}; choose from {POLICY_TAGS}")


def default_state_scale(config: Config) -> np.ndarray:
    """Observation normalizers sized to the mean-task demand magnitudes."""
    profile = task_profile(config)
    efficiency = config.radio.spectral_efficiency(profile.mean_distance)
    rate_ref = profile.mean_data_size / (config.econ.deadline * efficiency)
    compute_ref = (profile.mean_data_size * profile.mean_compute_density
                   / config.econ.deadline)
    bw_ref = rate_ref * max(2, config.n_max / 2)
    return agent_mod.feature_scale(
        config.n_max, bw_ref=bw_ref, rate_ref=rate_ref,
        compute_ref=compute_ref, power_ref=config.radio.upload_power)


def task_profile(config: Config) -> slicing.TaskProfile:
    lo_d, hi_d = config.tasks["data_size"]
    lo_e, hi_e = config.tasks["compute_density"]
    lo_l, hi_l = config.tasks["distance"]
    return slicing.TaskProfile(mean_data_size=(lo_d + hi_d) / 2,
                               mean_compute_density=(lo_e + hi_e) / 2,
                               mean_distance=(lo_l + hi_l) / 2)


def make_predictor(model: ForecastModel | None, n_max: int):
    """Forecast callable: the trained model when given, else persistence.
    Predictions are capped at the physical per-region user bound."""
    def predict(series, horizon):
        if model is None:
            counts = baseline_forecast(series, horizon)
        else:
            counts = forecast(model, series, horizon)
        return np.minimum(counts, n_max)
    return predict


# ---------------------------------------------------------------------------
# Simulation loop
# ---------------------------------------------------------------------------

def _seed_streams(seed: int) -> tuple:
    """A run's (rounding, policy) generators: slice rounding draws from the
    first, the ``random`` policy from the second."""
    ss = np.random.SeedSequence([seed, 0x7a5])
    return tuple(np.random.default_rng(s) for s in ss.spawn(2))


def slice_plan(config: Config, seed: int, scenario: Scenario,
               forecaster: ForecastModel | None = None) -> tuple:
    """Every long slot's slice decision for a run of (config, seed).

    Entry h - 1 is long slot h's decision, adjusted from the traffic of
    slots 1..h-1 by the trained model when given, else by persistence.  No
    policy enters it, so all policies of a seed with the same predictor
    share one plan."""
    rng_round, _ = _seed_streams(seed)
    predictor = make_predictor(forecaster, n_max=config.n_max)
    profile = task_profile(config)
    plan = []
    for h in range(1, config.horizon + 1):
        history = TrafficSeries(scenario.counts[:, :h - 1])
        plan.append(slicing.adjust_slices(history, config.catalog, predictor,
                                          rng_round, profile, config.radio,
                                          config.econ, config.kappa_up,
                                          config.kappa_exe))
    return tuple(plan)


def run(config: Config, policy_tag: str, seed: int, agent_bundle=None,
        forecaster: ForecastModel | None = None, peer_bundle=None,
        scenario: Scenario | None = None, plan: tuple | None = None) -> MetricsReport:
    """Execute H long slots of slicing plus T short slots of allocation.

    Per long slot: rent the plan's slice, account rental cost, then serve
    the per-slot task batches under the chosen policy and settle revenues.
    Queues are cleared at every slice boundary.

    ``scenario`` and ``plan`` default to ``generate_scenario(config, seed)``
    and ``slice_plan(config, seed, scenario, forecaster)``; a caller that
    passes them (``compare``, once per seed) gets the same report.  The run
    reads them and changes neither.
    """
    _, rng_policy = _seed_streams(seed)
    policy = make_policy(policy_tag, config, rng_policy, agent_bundle=agent_bundle,
                         peer_bundle=peer_bundle)
    if scenario is None:
        scenario = generate_scenario(config, seed)
    if plan is None:
        plan = slice_plan(config, seed, scenario, forecaster)
    if len(plan) != config.horizon:
        raise ValueError(f"slice plan covers {len(plan)} long slots, "
                         f"horizon is {config.horizon}")

    report_out = MetricsReport(policy=policy_tag, seed=seed)
    for h, slices in enumerate(plan, start=1):
        _, _, cost_h = rented_and_cost(config.catalog, slices)
        report_out.rental_log.append((h, cost_h))

        states = []
        for i in range(config.regions):
            bw_i, vm_i = rented_in_region(config.catalog, slices, i)
            states.append(RegionState(
                region=i, bandwidth=bw_i, vm_count=vm_i,
                frequency=config.catalog.regions[i].vm_frequency, tasks=[],
                pending=(0.0,) * vm_i, long_slot=h, short_slot=1))

        revenue_h = 0.0
        bw_util_sum = vm_util_sum = 0.0
        cells = 0
        slot_records = []
        for t in range(1, config.short_slots + 1):
            for i in range(config.regions):
                state = states[i]
                state.tasks = scenario.tasks[i][h - 1][t - 1]
                action = policy(state).projected()
                pending_before = sum(state.pending)
                committed = float(action.bw_fraction.sum())
                reward, next_state, recs = step(
                    state, action, config.econ, config.radio,
                    slot_duration=config.slot_duration)
                revenue_h += reward
                slot_records += recs
                added = 0
                for rec in recs:
                    if rec.revenue > 0:
                        added += state.tasks[rec.task_id].work
                capacity = state.vm_count * state.frequency * config.slot_duration
                vm_util_sum += min(1.0, (pending_before + added) / capacity)
                bw_util_sum += min(1.0, committed)
                cells += 1
                states[i] = next_state
        fields = report_out.settlements.extend(slot_records)
        # A paid task met the (finite) deadline, so it was offloaded.
        offloaded = sum(map(math.isfinite, fields[7]))
        hits = sum(1 for revenue in fields[8] if revenue > 0)
        report_out.rows.append(SlotMetrics(
            h=h, revenue=revenue_h, cost=cost_h, profit=revenue_h - cost_h,
            offloaded=offloaded,
            hit_rate=hits / offloaded if offloaded else 1.0,
            bw_util=bw_util_sum / max(1, cells),
            vm_util=vm_util_sum / max(1, cells)))
    return report_out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _atomic_write(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(header, rows) -> str:
    """CSV text: the header line, then one line per row tuple.  ``%s`` of a
    float is its repr, and no value (a number or a policy tag) needs
    quoting."""
    line = ",".join(["%s"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join([line % row for row in rows])


def report(metrics: MetricsReport, out_dir) -> dict:
    """Write metrics.csv, summary.json and settlements.csv; returns paths."""
    paths = {
        "metrics": os.path.join(out_dir, "metrics.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
        "settlements": os.path.join(out_dir, "settlements.csv"),
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        _atomic_write(paths["metrics"], _csv_text(SlotMetrics._fields, metrics.rows))
        _atomic_write(paths["summary"],
                      json.dumps(metrics.totals(), sort_keys=True, indent=2) + "\n")
        _atomic_write(paths["settlements"],
                      _csv_text(SettlementRecord._fields, metrics.settlements.rows()))
    except OSError as exc:
        raise OSError(f"cannot write report under {out_dir}: {exc}") from exc
    return paths


def compare(config: Config, policies, seeds, out_dir, agent_bundle=None,
            peer_bundle=None, forecaster=None) -> dict:
    """Run a policy x seed grid; write per-run reports plus comparison.csv
    (one row per listed tag: the means over its runs of every metric of
    `SlotMetrics` after ``h``) and a combined summary.json.

    Every tag is checked before anything is written.  ``peer_bundle``
    switches ``sliceoff`` to the hybrid policy."""
    if not policies or not seeds:
        raise ConfigError("compare needs at least one policy and one seed")
    for tag in policies:
        make_policy(tag, config, None, agent_bundle=agent_bundle,
                    peer_bundle=peer_bundle)
    os.makedirs(out_dir, exist_ok=True)
    totals = {}  # (policy position, seed position) -> run totals
    for j, seed in enumerate(seeds):
        # One scenario, and one slice plan per predictor (the forecaster for
        # sliceoff when given, else persistence), shared by the seed's
        # policies and dropped before the next seed.
        scenario = generate_scenario(config, seed)
        plans = {}
        for i, tag in enumerate(policies):
            sliceoff = tag == "sliceoff"
            model = forecaster if sliceoff else None
            if model not in plans:
                plans[model] = slice_plan(config, seed, scenario, model)
            metrics = run(config, tag, seed,
                          agent_bundle=agent_bundle if sliceoff else None,
                          peer_bundle=peer_bundle if sliceoff else None,
                          scenario=scenario, plan=plans[model])
            sub = os.path.join(out_dir, f"{tag}_seed{seed}")
            report(metrics, sub)
            totals[i, j] = metrics.totals()
            log.info("run complete: policy=%s seed=%s profit=%.3f",
                     tag, seed, metrics.total_profit)
        del scenario, plans
    # Policy-major, as the grid is listed.
    all_totals = [totals[i, j] for i in range(len(policies))
                  for j in range(len(seeds))]
    keys = SlotMetrics._fields[1:]
    means = {}
    for tag in policies:
        runs = [t for t in all_totals if t["policy"] == tag]
        means[tag] = {k: sum(r[k] for r in runs) / len(runs) for k in keys}
    _atomic_write(os.path.join(out_dir, "comparison.csv"),
                  _csv_text(("policy",) + keys,
                            [(tag, *means[tag].values()) for tag in policies]))
    summary = {"runs": all_totals, "policies": means}
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


# ---------------------------------------------------------------------------
# Training orchestration
# ---------------------------------------------------------------------------

def make_training_envs(config: Config, seed: int):
    """Current/peer/eval environments over the configured scenario family,
    each episode one long slot's ``short_slots`` short slots.

    All four share one instance family; only their seeds differ."""
    family = InstanceFamily.from_config(config)
    env_current = OffloadEnv(family, config.n_max, seed=seed * 4 + 1,
                             episode_slots=config.short_slots,
                             slot_duration=config.slot_duration)
    env_peer = OffloadEnv(family, config.n_max, seed=seed * 4 + 2,
                          episode_slots=config.short_slots,
                          slot_duration=config.slot_duration)
    eval_current = env_current.spawn(seed * 4 + 3)
    eval_peer = env_peer.spawn(seed * 4 + 4)
    return env_current, env_peer, eval_current, eval_peer


def train_forecaster(config: Config, seed: int, history_slots: int = 160):
    """Fit the traffic model on a long synthetic history; returns
    (model, per-epoch loss trace).

    Training cuts start at ``max(2, current_window)`` slots of history, so a
    current window that leaves no cut in the history is refused."""
    window = config.forecaster.current_window
    if config.forecaster_epochs and max(2, window) >= history_slots:
        raise ConfigError(
            f"field 'forecaster.current_window' ({window}) leaves no training "
            f"cut in the {history_slots}-slot training history")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xf0]))
    counts = traffic_counts(config.traffic, config.regions,
                            history_slots, rng, n_max=config.n_max)
    series = TrafficSeries(counts)
    model = ForecastModel(config.forecaster,
                          np.random.default_rng(np.random.SeedSequence([seed, 0xf1])))
    trace = fit(model, series, epochs=config.forecaster_epochs,
                lr=config.forecaster_lr,
                rng=np.random.default_rng(np.random.SeedSequence([seed, 0xf2])))
    return model, trace


def train_agents(config: Config, seed: int):
    """Train the dual agents on the configured instance family."""
    env_c, env_p, eval_c, eval_p = make_training_envs(config, seed)
    scale = default_state_scale(config)
    return agent_mod.train(env_c, env_p, config.agent, config.n_max, scale,
                           seed=seed, eval_env_current=eval_c,
                           eval_env_peer=eval_p)


def train_all(config: Config, out_dir, seed: int | None = None) -> dict:
    """Train forecaster and both agents; write checkpoints and curves.  A
    config that `train_forecaster` refuses writes nothing."""
    seed = config.seed if seed is None else seed
    model, trace = train_forecaster(config, seed)
    os.makedirs(out_dir, exist_ok=True)
    model.save(os.path.join(out_dir, "forecaster.ckpt"))
    _atomic_write(os.path.join(out_dir, "forecaster_loss.csv"),
                  _csv_text(("epoch", "loss"), enumerate(trace)))
    current, peer, curves_c, curves_p = train_agents(config, seed)
    agent_mod.save_agent(current, os.path.join(out_dir, "agent_current.ckpt"))
    agent_mod.save_agent(peer, os.path.join(out_dir, "agent_peer.ckpt"))
    for name, curves in (("curves_current.csv", curves_c),
                         ("curves_peer.csv", curves_p)):
        _atomic_write(os.path.join(out_dir, name),
                      _csv_text(agent_mod.CurveRow._fields, curves))
    return {"out_dir": str(out_dir), "forecaster_epochs": len(trace),
            "agent_steps": current.step_count}


# ---------------------------------------------------------------------------
# Small-instance exactness checks (the `oracle` CLI command)
# ---------------------------------------------------------------------------

def oracle_checks(config: Config, instances: int = 25, seed: int = 0) -> list:
    """Exactness spot checks on small instances; returns (name, ok, detail)."""
    if instances < 1:
        raise ConfigError(f"oracle instances must be >= 1, got {instances}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0c]))
    family = InstanceFamily.from_config(config, n_range=(3, 8))
    results = []

    worst = None
    dominated = True
    for _ in range(instances):
        region = family.sample(rng)
        best, _ = baselines.brute_force_offload(region, config.radio, config.econ)
        for policy in (baselines.greedy_policy, baselines.max_transaction_policy,
                       baselines.auction_policy):
            action = policy(region, config.radio, config.econ)
            reward, _, _ = step(region, action, config.econ, config.radio,
                                slot_duration=config.slot_duration)
            if reward > best + 1e-6:
                dominated = False
                worst = (policy.__name__, reward, best)
    results.append(("offload_oracle_dominates_heuristics", dominated,
                    "ok" if dominated else f"violated by {worst}"))

    lp_bounded = True
    rounded_feasible = True
    detail = "ok"
    for _ in range(instances):
        caps = np.sort(rng.uniform(1e6, 1.2e7, size=4))
        costs = caps / 1e6 * rng.uniform(0.8, 1.2, size=4) * 10
        reg = config.catalog.regions[0]
        catalog = ResourceCatalog(regions=(RegionCatalog(
            bandwidth_options=tuple((float(c), float(z)) for c, z in zip(caps, costs)),
            vm_options=reg.vm_options, vm_frequency=reg.vm_frequency),))
        demand = slicing.DemandVector(
            bw_demand=np.array([rng.uniform(0.5e6, caps.max())]),
            compute_demand=np.array([rng.uniform(0.2, 0.9)
                                     * reg.vm_options[-1][0] * reg.vm_frequency]))
        frac = slicing.solve_relaxed(demand, catalog)
        lp_cost = slicing.relaxed_cost(frac, catalog)
        opt_cost, _ = baselines.brute_force_slicing(demand, catalog)
        if lp_cost > opt_cost + 1e-9:
            lp_bounded = False
            detail = f"LP {lp_cost} above enumeration {opt_cost}"
        decision = slicing.randomized_round(frac, demand, catalog, rng)
        bw_cap, vm_cnt = rented_in_region(catalog, decision, 0)
        vm_cap = vm_cnt * catalog.regions[0].vm_frequency
        if bw_cap < demand.bw_demand[0] or vm_cap < demand.compute_demand[0]:
            rounded_feasible = False
            detail = "rounded decision under-provisions demand"
    results.append(("relaxation_lower_bounds_enumeration", lp_bounded, detail))
    results.append(("rounded_slices_cover_demand", rounded_feasible,
                    "ok" if rounded_feasible else detail))

    profit_consistent = True
    metrics = run(config_small(config), "greedy", seed)
    resum = (sum(rec.revenue for rec in metrics.settlements)
             - sum(c for _, c in metrics.rental_log))
    if abs(resum - metrics.total_profit) > 1e-6:
        profit_consistent = False
    results.append(("profit_equals_settlement_resummation", profit_consistent,
                    f"profit {metrics.total_profit} vs re-summation {resum}"))
    return results


def config_small(config: Config) -> Config:
    """Shrunk copy of a config for quick exactness checks."""
    from .config import build_config
    doc = dict(config.raw)
    doc["horizon"] = min(4, config.horizon)
    doc["short_slots"] = min(4, config.short_slots)
    return build_config(doc)
