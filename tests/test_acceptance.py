"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Training-dependent criteria share session-scoped fixtures; the training
configurations used here are declared experiment choices (the package-wide
defaults stay at their documented values).
"""

import json
import math
import os
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from edgeslice import agent as A
from edgeslice import baselines, harness, slicing
from edgeslice.config import build_config
from edgeslice.env import EconParams, RadioParams, TaskSpec, TimingBreakdown, settle
from edgeslice.forecasting import (ForecastConfig, ForecastModel, TrafficSeries,
                                   baseline_forecast, distill_block, fit, forecast,
                                   probsparse_attention)
from edgeslice.nn import Network, soft_update
from edgeslice.scenario import (InstanceFamily, OffloadEnv, generate_scenario,
                                rollout_value, traffic_counts)
from edgeslice.env import step as env_step


def report(name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Shared configurations and trained artifacts
# ---------------------------------------------------------------------------

def desk_config(**agent_overrides):
    agent = {"gamma": 0.0, "critic_lr": 1e-3, "actor_lr": 3e-4,
             "warmup": 1000, "hidden": [48, 48], "epochs": 15000,
             "noise_start": 0.4, "noise_end": 0.05, "noise_decay_steps": 8000,
             "smooth_std": 0.1, "smooth_clip": 0.25}
    agent.update(agent_overrides)
    return build_config({"agent": agent})


def instance_family(cfg):
    """The seeded offloading-instance family used for oracle comparisons:
    rented bandwidth roughly matches to comfortably exceeds demand."""
    return InstanceFamily.from_config(cfg, headroom=(1.0, 1.8))


@pytest.fixture(scope="session")
def trained_instance_agents():
    """Agents trained on the single-slot instance family."""
    cfg = desk_config()
    fam = instance_family(cfg)
    env_c = OffloadEnv(fam, cfg.n_max, seed=11, episode_slots=1)
    env_p = OffloadEnv(fam, cfg.n_max, seed=22, episode_slots=1)
    scale = harness.default_state_scale(cfg)
    t0 = time.time()
    current, peer, _, _ = A.train(env_c, env_p, cfg.agent, cfg.n_max, scale, seed=0)
    print(f"\n[fixture] instance-family training took {time.time() - t0:.0f}s")
    return cfg, fam, current, peer


@pytest.fixture(scope="session")
def trained_episode_agents():
    """Agents trained on multi-slot episodes (``short_slots`` slots each,
    gamma 0.6).  The desk config's deadline does not exceed the slot
    duration, so every slot starts with empty queues: no backlog carries
    from one slot to the next."""
    cfg = desk_config(gamma=0.6, epochs=1500)
    fam = instance_family(cfg)
    env_c = OffloadEnv(fam, cfg.n_max, seed=31, episode_slots=cfg.short_slots)
    env_p = OffloadEnv(fam, cfg.n_max, seed=32, episode_slots=cfg.short_slots)
    scale = harness.default_state_scale(cfg)
    t0 = time.time()
    current, peer, _, _ = A.train(env_c, env_p, cfg.agent, cfg.n_max, scale, seed=1)
    print(f"\n[fixture] episode training took {time.time() - t0:.0f}s")
    return cfg, fam, current, peer


def agent_policy(bundle, cfg):
    def policy(region):
        obs = A.encode_state(region, cfg.radio, cfg.econ, bundle.n_max)
        raw = A.act(bundle, obs, explore=False)
        return A.decode_action(raw, obs)
    return policy


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_oracle_equivalence_offloading(trained_instance_agents):
    """200 seeded instances: oracle dominates every heuristic, and the
    trained agent reaches >= 85% of oracle revenue on >= 70% of them."""
    cfg, fam, current, _ = trained_instance_agents
    t0 = time.time()
    rng = np.random.default_rng(2024)
    dominance_failures = 0
    hits = 0
    total = 200
    ratios = []
    policy = agent_policy(current, cfg)
    for _ in range(total):
        region = fam.sample(rng)
        best, _ = baselines.brute_force_offload(region, cfg.radio, cfg.econ)
        for heuristic in (baselines.greedy_policy, baselines.max_transaction_policy,
                          baselines.auction_policy):
            action = heuristic(region, cfg.radio, cfg.econ)
            reward, _, _ = env_step(region, action, cfg.econ, cfg.radio)
            if reward > best + 1e-6:
                dominance_failures += 1
        reward, _, _ = env_step(region, policy(region), cfg.econ, cfg.radio)
        ratio = reward / best if best > 0 else 1.0
        ratios.append(ratio)
        if ratio >= 0.85:
            hits += 1
    elapsed = time.time() - t0
    frac = hits / total
    ok = dominance_failures == 0 and frac >= 0.70 and elapsed <= 300
    report("oracle equivalence (offloading)", ok,
           f"dominance failures={dominance_failures}, agent>=85% of oracle on "
           f"{frac:.0%} of {total} instances (mean ratio "
           f"{np.mean(ratios):.3f}), {elapsed:.0f}s")


def test_oracle_equivalence_slicing():
    """200 seeded small catalogs: expected rounded rental cost within 10%
    of the enumerated optimum, with the true future demand injected."""
    t0 = time.time()
    cfg = desk_config()
    rng = np.random.default_rng(7)
    profile = harness.task_profile(cfg)
    worst = 0.0
    draws = 10_000
    for i in range(200):
        n_bw = int(rng.integers(2, 5))
        n_vm = int(rng.integers(2, 5))
        bw_caps = np.sort(rng.uniform(1e6, 1.5e7, n_bw))
        bw_costs = np.sort(bw_caps / 1e6 * rng.uniform(8, 12, n_bw))
        vm_counts = np.sort(rng.choice(np.arange(1, 9), size=n_vm, replace=False))
        vm_costs = np.sort(vm_counts * rng.uniform(40, 60, n_vm))
        from edgeslice.env import RegionCatalog, ResourceCatalog
        catalog = ResourceCatalog(regions=(RegionCatalog(
            bandwidth_options=tuple((float(c), float(z))
                                    for c, z in zip(bw_caps, bw_costs)),
            vm_options=tuple((int(c), float(z))
                             for c, z in zip(vm_counts, vm_costs)),
            vm_frequency=cfg.vm_frequency),))
        true_future = float(rng.uniform(0, 10))
        demand = slicing.estimate_demand(
            np.array([true_future]), profile, cfg.radio, cfg.econ,
            cfg.kappa_up, cfg.kappa_exe)
        if demand.bw_demand[0] > bw_caps.max() or \
                demand.compute_demand[0] > vm_counts.max() * cfg.vm_frequency:
            continue
        opt_cost, _ = baselines.brute_force_slicing(demand, catalog)
        frac = slicing.solve_relaxed(demand, catalog)

        # Expected rounded cost over draws, vectorized per resource kind.
        def expected_cost(weights, options, capacities, need):
            weights = np.clip(np.asarray(weights, dtype=float), 0, None)
            weights = weights / weights.sum()
            costs = np.array([z for _, z in options])
            feasible = np.array([cap >= need for cap in capacities])
            repair_cost = costs[feasible].min()
            effective = np.where(feasible, costs, repair_cost)
            picks = rng.choice(len(options), size=draws, p=weights)
            return float(effective[picks].mean())

        reg = catalog.regions[0]
        mean_cost = (
            expected_cost(frac.bw_weights[0], reg.bandwidth_options,
                          [c for c, _ in reg.bandwidth_options],
                          demand.bw_demand[0])
            + expected_cost(frac.vm_weights[0], reg.vm_options,
                            [c * reg.vm_frequency for c, _ in reg.vm_options],
                            demand.compute_demand[0]))
        worst = max(worst, (mean_cost - opt_cost) / opt_cost)
    elapsed = time.time() - t0
    ok = worst <= 0.10 and elapsed <= 120
    report("oracle equivalence (slicing)", ok,
           f"worst expected-cost excess over optimum {worst:.2%}, {elapsed:.0f}s")


def test_fig3_qualitative_ordering(trained_episode_agents):
    """Desk scale, 5 seeds: mean profit of the full pipeline beats greedy
    and random; auction / max-transaction comparisons are reported."""
    cfg, _, current, _ = trained_episode_agents
    t0 = time.time()
    model, _ = harness.train_forecaster(cfg, seed=0)
    seeds = [0, 1, 2, 3, 4]
    profits = {tag: [] for tag in ("sliceoff", "greedy", "random", "auction",
                                   "max_transaction")}
    for seed in seeds:
        for tag in profits:
            metrics = harness.run(
                cfg, tag, seed,
                agent_bundle=current if tag == "sliceoff" else None,
                forecaster=model if tag == "sliceoff" else None)
            profits[tag].append(metrics.total_profit)
    means = {tag: float(np.mean(v)) for tag, v in profits.items()}
    elapsed = time.time() - t0
    gate = means["sliceoff"] > means["greedy"] and means["sliceoff"] > means["random"]
    detail = ", ".join(f"{tag}={means[tag]:.0f}" for tag in
                       ("sliceoff", "greedy", "auction", "max_transaction", "random"))
    report("qualitative profit ordering", gate and elapsed <= 1800,
           f"means over 5 seeds: {detail} ({elapsed:.0f}s; auction and "
           f"max-transaction reported, not gated)")


def test_hybrid_policy_dominance(trained_episode_agents):
    """On 100 evaluation states, the Monte-Carlo value of the hybrid policy
    is within one standard error of the better constituent in >= 90%."""
    cfg, fam, current, peer = trained_episode_agents
    t0 = time.time()
    env = OffloadEnv(fam, cfg.n_max, seed=77, episode_slots=5)
    rollouts = 50
    satisfied = 0
    total = 100
    policies = {
        "hybrid": lambda obs: A.hybrid_policy(current, peer, obs),
        "current": lambda obs: A.act(current, obs, explore=False),
        "peer": lambda obs: A.act(peer, obs, explore=False),
    }
    for i in range(total):
        env.reset()
        snap = env.snapshot()
        values = {}
        errors = {}
        for name, policy in policies.items():
            values[name], errors[name] = rollout_value(
                env, snap, policy, rollouts=rollouts, seed=1000 + i)
        best = max(("current", "peer"), key=lambda n: values[n])
        se = math.sqrt(errors["hybrid"] ** 2 + errors[best] ** 2)
        if values["hybrid"] >= values[best] - se:
            satisfied += 1
    elapsed = time.time() - t0
    frac = satisfied / total
    report("hybrid-policy dominance", frac >= 0.90,
           f"hybrid within one SE of the better constituent on {frac:.0%} "
           f"of {total} states ({elapsed:.0f}s)")


def test_gradient_fidelity():
    """Analytic vs central finite differences (step 1e-4): max relative
    error <= 1e-4 over 100 random dense networks and a down-scaled
    forecaster."""
    from test_nn import check_gradients, random_net
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        net = random_net(rng)
        x = rng.normal(size=net.dims[0])
        worst = max(worst, check_gradients(net, x, h=1e-4))
    forecaster_worst = _forecaster_gradient_error()
    ok = worst <= 1e-4 and forecaster_worst <= 1e-4
    report("gradient fidelity", ok,
           f"dense nets max rel err {worst:.2e}; "
           f"down-scaled forecaster {forecaster_worst:.2e}")


def _forecaster_gradient_error():
    config = ForecastConfig(width=4, encoder_layers=2, head_hidden=4,
                            history_window=16, current_window=4)
    model = ForecastModel(config, np.random.default_rng(202))
    rng = np.random.default_rng(17)
    x_en = rng.uniform(1, 9, size=10)
    x_de = np.concatenate([rng.uniform(1, 9, size=4), [0.0]])
    target = np.array([5.0])

    def loss():
        out = model._forward_region(x_en, x_de)
        err = out[-1:] - target
        return float(err @ err)

    out, cache = model._forward_region(x_en, x_de, want_cache=True)
    names = [n for n in model.params if n not in ("norm_mean", "norm_std")]
    grads = {n: np.zeros_like(model.params[n]) for n in names}
    d_out = np.zeros_like(out)
    d_out[-1:] = 2.0 * (out[-1:] - target)
    model._backward_region(cache, d_out, grads)
    h = 1e-4
    worst = 0.0
    for name in names:
        flat = model.params[name].ravel()
        gflat = grads[name].ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            lp = loss()
            flat[k] = orig - h
            lm = loss()
            flat[k] = orig
            numeric = (lp - lm) / (2 * h)
            denom = max(abs(numeric), abs(gflat[k]), 1e-8)
            worst = max(worst, abs(numeric - gflat[k]) / denom)
    return worst


def test_td3_mechanics():
    """Exact fixtures: min-target rule, clipped smoothing noise, the
    even-step delay, and soft-update algebra."""
    from test_agent import (default_agent, make_batch, set_constant_output,
                            single_task_state)
    ok = True
    details = []

    agent = default_agent()
    set_constant_output(agent.target_critic1.net, 3.0)
    set_constant_output(agent.target_critic2.net, 5.0)
    s = single_task_state()
    batch = (s[None, :], np.zeros((1, 4)), np.array([1.0]),
             s[None, :])
    y = A.td_target(agent, batch, gamma=0.9, smooth_std=0.1, smooth_clip=0.25,
                    rng=np.random.default_rng(0))
    min_ok = abs(y[0] - 3.7) < 1e-12
    ok &= min_ok
    details.append(f"min rule y={y[0]:.12g}")

    rng = np.random.default_rng(1)
    noise = np.clip(rng.normal(0.0, 50.0, size=10_000), -0.5, 0.5)
    clip_ok = np.max(np.abs(noise)) <= 0.5
    ok &= clip_ok
    details.append("noise clipped at 0.5")

    agent = default_agent()
    agent.step_count = 1
    before = {k: v.copy() for k, v in agent.actor.params.items()}
    applied = A.update_actor(agent, make_batch(4, np.random.default_rng(2)),
                             1e-3, 0.5)
    delay_ok = (applied is False and
                all(np.array_equal(before[k], agent.actor.params[k])
                    for k in before))
    ok &= delay_ok
    details.append("odd-step delay holds")

    target = Network((1, 1), ("identity",),
                     {"w0": np.array([[0.0]]), "b0": np.array([0.0])})
    online = Network((1, 1), ("identity",),
                     {"w0": np.array([[1.0]]), "b0": np.array([2.0])})
    soft_update(target, online, 0.25)
    soft_ok = (target.params["w0"][0, 0] == 0.25
               and target.params["b0"][0] == 0.5)
    ok &= soft_ok
    details.append("soft update exact")

    report("TD3 mechanics", bool(ok), "; ".join(details))


def test_attention_correctness():
    """Sparse attention reduces to dense at full budget; attention rows are
    stochastic; the distillation block halves every length 2..64."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        L, d = int(rng.integers(2, 12)), int(rng.integers(2, 8))
        Q, K, V = (rng.normal(size=(L, d)) for _ in range(3))
        scores = Q @ K.T / math.sqrt(d)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        dense = attn @ V
        sparse = probsparse_attention(Q, K, V, u=L)
        worst = max(worst, float(np.max(np.abs(sparse - dense))))
        row_err = float(np.max(np.abs(attn.sum(axis=1) - 1.0)))
        assert row_err <= 1e-6
    shape_ok = True
    kernel = np.zeros((3, 2, 2))
    kernel[1] = np.eye(2)
    for L in range(2, 65):
        out = distill_block(rng.normal(size=(L, 2)), kernel, np.zeros(2))
        shape_ok &= out.shape[0] == math.ceil(L / 2)
    ok = worst <= 1e-10 and shape_ok
    report("attention correctness", ok,
           f"max |sparse-dense| = {worst:.2e}; distill shape law holds for "
           f"L in 2..64")


def settlement_problems(metrics, scenario, deadline: float) -> list:
    """Every breach of the settlement invariants in one run's report, one
    line each, led by its kind: ``records`` (not exactly one record per
    scenario task), ``negative part``, ``t_total != parts``, ``paid late``
    or ``profit`` (not the re-summed revenue minus the rental log)."""
    problems = []
    expected = Counter((i, h, t, k) for i, region in enumerate(scenario.tasks)
                       for h, slot in enumerate(region, start=1)
                       for t, batch in enumerate(slot, start=1)
                       for k in range(len(batch)))
    seen = Counter((rec.region, rec.long_slot, rec.short_slot, rec.task_id)
                   for rec in metrics.settlements)
    if seen != expected:
        problems.append(f"records: {sum((expected - seen).values())} tasks "
                        f"without a record, {sum((seen - expected).values())} "
                        f"records without a task")
    for rec in metrics.settlements:
        if math.isfinite(rec.t_total):
            if min(rec.t_up, rec.t_que, rec.t_exe) < 0:
                problems.append(f"negative part: {rec}")
            parts = rec.t_up + rec.t_que + rec.t_exe
            if abs(rec.t_total - parts) > 1e-12 * abs(parts):
                problems.append(f"t_total != parts: {rec}")
        if rec.revenue > 0 and not rec.t_total <= deadline:
            problems.append(f"paid late: {rec}")
    resum = (sum(rec.revenue for rec in metrics.settlements)
             - sum(cost for _, cost in metrics.rental_log))
    if abs(metrics.total_profit - resum) > 1e-9 * max(1.0, abs(resum)):
        problems.append(f"profit: {metrics.total_profit!r} against re-summed "
                        f"{resum!r}")
    return problems


def test_constraint_conservation():
    """10,000 randomized simulated slots whose settlements all hold: one
    record per task, timing components nonnegative and summing to the
    total, no payment after the deadline, profit equal to the re-summed
    log; the deadline boundary pays.  An out-of-range VM raises inside the
    run; an over-committed action is projected onto the budget first."""
    t0 = time.time()
    slots = 0
    problems = []
    seed = 0
    cfg = build_config({"horizon": 5, "short_slots": 10, "regions": 4,
                        "traffic": {"base": 5.0, "amplitude": 3.0,
                                    "noise_std": 1.5}})
    while slots < 10_000:
        scenario = generate_scenario(cfg, seed)
        for tag in ("greedy", "random", "auction", "max_transaction"):
            metrics = harness.run(cfg, tag, seed)
            problems += [f"{tag} seed {seed}: {problem}" for problem in
                         settlement_problems(metrics, scenario, cfg.econ.deadline)]
            slots += cfg.horizon * cfg.short_slots * cfg.regions
        seed += 1
    boundary = settle(TimingBreakdown(1.0, 0.0, 0.5, 1.5),
                      EconParams(10.0, 1.5), 2.0)
    boundary_ok = boundary == 20.0
    ok = not problems and boundary_ok
    report("constraint conservation", ok,
           f"{slots} region-slots simulated, {len(problems)} settlement "
           f"problems {problems[:3]}; deadline-boundary settlement pays "
           f"{'exactly' if boundary_ok else boundary} ({time.time() - t0:.0f}s)")


def test_settlement_problems_names_each_breach():
    """The gate's invariants can fail: each planted breach is named."""
    cfg = build_config({"horizon": 2, "short_slots": 4, "regions": 2})
    scenario = generate_scenario(cfg, 0)
    metrics = harness.run(cfg, "random", 0, scenario=scenario)
    deadline = cfg.econ.deadline
    assert settlement_problems(metrics, scenario, deadline) == []
    records = list(metrics.settlements)
    paid = [j for j, rec in enumerate(records) if rec.revenue > 0]
    unpaid = [j for j, rec in enumerate(records) if rec.revenue == 0]
    late, mistimed = paid[:2]
    records[late] = records[late]._replace(t_up=deadline, t_que=0.0, t_exe=1.0,
                                           t_total=deadline + 1.0)
    rec = records[mistimed]
    records[mistimed] = rec._replace(t_total=rec.t_total * (1 + 1e-9))
    del records[unpaid[0]]
    row = metrics.rows[0]
    rows = [row._replace(revenue=row.revenue + 1.0, profit=row.profit + 1.0),
            *metrics.rows[1:]]
    broken = replace(metrics, settlements=records, rows=rows)
    problems = settlement_problems(broken, scenario, deadline)
    assert sorted(problem.split(":")[0] for problem in problems) == \
        ["paid late", "profit", "records", "t_total != parts"], problems


def test_compare_determinism(tmp_path):
    """Two compare invocations with identical inputs produce byte-identical
    CSV and JSON artifacts."""
    cfg = build_config({"horizon": 3, "short_slots": 4, "regions": 2})
    out1, out2 = tmp_path / "one", tmp_path / "two"
    harness.compare(cfg, ["greedy", "random", "auction"], [0, 1], out1)
    harness.compare(cfg, ["greedy", "random", "auction"], [0, 1], out2)
    identical = True
    checked = 0
    for root, _, files in os.walk(out1):
        for name in files:
            p1 = os.path.join(root, name)
            p2 = p1.replace(str(out1), str(out2), 1)
            checked += 1
            if Path(p1).read_bytes() != Path(p2).read_bytes():
                identical = False
    report("compare determinism", identical and checked > 0,
           f"{checked} artifacts byte-compared")


def test_forecaster_utility():
    """Sinusoid-plus-noise traffic: the trained forecaster beats the
    persistence baseline on held-out one-step MSE for >= 4 of 5 seeds."""
    t0 = time.time()
    wins = 0
    seeds = [0, 1, 2, 3, 4]
    for seed in seeds:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xfc]))
        traffic = {"base": 8.0, "amplitude": 4.0, "period": 12.0, "noise_std": 0.7}
        counts = traffic_counts(traffic, regions=3, horizon=140, rng=rng)
        split = 100
        train_series = TrafficSeries(counts[:, :split])
        config = ForecastConfig(width=16, encoder_layers=2, head_hidden=16,
                                history_window=48, current_window=8)
        model = ForecastModel(config, np.random.default_rng(
            np.random.SeedSequence([seed, 77])))
        fit(model, train_series, epochs=12, lr=1e-3,
            rng=np.random.default_rng(np.random.SeedSequence([seed, 3])))
        model_se = persist_se = 0.0
        n_eval = 0
        for t in range(split, counts.shape[1]):
            window = TrafficSeries(counts[:, :t])
            pred = forecast(model, window, 1)[:, 0]
            base = baseline_forecast(window, 1)[:, 0]
            truth = counts[:, t]
            model_se += float(((pred - truth) ** 2).sum())
            persist_se += float(((base - truth) ** 2).sum())
            n_eval += 1
        if model_se < persist_se:
            wins += 1
    elapsed = time.time() - t0
    report("forecaster utility", wins >= 4 and elapsed <= 300,
           f"beats persistence on {wins}/5 seeds ({elapsed:.0f}s)")
