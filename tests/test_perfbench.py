"""The benchmark tracer still finds every entry point it wraps.

The tracer replaces functions at the attribute where each caller looks them
up; a renamed or re-imported function would otherwise only surface when the
traced benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracer  # noqa: E402


def test_install_wraps_and_uninstall_restores_every_entry_point():
    targets = tracer._SPANS + tracer._COUNTED
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    t = tracer.Tracer()
    t.install()
    try:
        for (owner, attr, name, _), fn in zip(targets, originals):
            assert owner.__dict__[attr] is not fn, f"{name}: {attr} not wrapped"
    finally:
        t.uninstall()
    for (owner, attr, name, _), fn in zip(targets, originals):
        assert owner.__dict__[attr] is fn, f"{name}: {attr} not restored"


def _tiny_training_run():
    """A few dozen dual-agent update steps on small instances, with eval envs
    so every training span fires."""
    import numpy as np

    from edgeslice import agent
    from edgeslice.env import EconParams, RadioParams
    from edgeslice.scenario import InstanceFamily, OffloadEnv

    radio = RadioParams(upload_power=3e-6, noise_power=1e-9,
                        pathloss_ref=1e-3, pathloss_exp=2.0)
    task_spec = {"data_size": (1e5, 6e5), "compute_density": (50.0, 200.0),
                 "priorities": (1.0, 2.0), "priority_probs": (0.5, 0.5),
                 "distance": (1.0, 3.0)}
    family = InstanceFamily(task_spec=task_spec, radio=radio,
                            econ=EconParams(reward_per_task=10.0, deadline=1.0),
                            frequency=1e9, n_range=(1, 4), vm_counts=(2,),
                            headroom=(1.0, 1.5))
    envs = [OffloadEnv(family, 4, seed=s, episode_slots=3) for s in (1, 2, 3, 4)]
    hp = agent.AgentHyperparams(batch_size=8, buffer_capacity=200, warmup=16,
                                epochs=12, hidden=(8, 8), gamma=0.5,
                                noise_decay_steps=100)
    scale = agent.feature_scale(4, 3e6, 5e5, 1e8, radio.upload_power)
    agent.train(envs[0], envs[1], hp, 4, scale, seed=7,
                eval_env_current=envs[2], eval_env_peer=envs[3], eval_every=4)


def test_training_spans_fire_and_each_batch_is_featurised_once():
    from perfbench.workloads import TrainDual

    t = tracer.Tracer()
    t.install()
    try:
        _tiny_training_run()
    finally:
        t.uninstall()
    _, calls, _ = t.summary({tracer.SETUP_OP})
    for name in TrainDual.expected_spans:
        if name.startswith(("agent.", "nn.")):
            assert calls[name] > 0, f"{name} recorded no calls"

    def under(i, names):
        i = t.parents[i]
        while i >= 0:
            if t.names[i] in names:
                return True
            i = t.parents[i]
        return False

    # Every observation a training env returns is featurised once and
    # stored; an eval episode featurises, inside act, each observation it
    # acts on, one per eval step.  Nothing featurises a sampled batch.
    spans = list(enumerate(t.names))
    training_obs = sum(name in ("scenario.env_reset", "scenario.env_step")
                       and not under(i, ("agent.eval_episode",))
                       for i, name in spans)
    eval_steps = sum(name == "scenario.env_step"
                     and under(i, ("agent.eval_episode",)) for i, name in spans)
    featurised = [i for i, name in spans if name == "agent.featurise"]
    in_act = sum(under(i, ("agent.act",)) for i in featurised)
    assert len(featurised) - in_act == training_obs
    assert in_act == eval_steps
    updates = ("agent.td_target", "agent.update_critics", "agent.update_actor",
               "agent.distill", "agent.value_estimate")
    assert not any(under(i, updates) for i in featurised)
    assert calls["agent.update_critics"] > 20


def test_suite_runs_blas_on_one_thread():
    """conftest.py pins BLAS before numpy loads; the thread count is read
    from the loaded OpenBLAS the way the benchmark records it."""
    import numpy  # noqa: F401  (loads the BLAS whose count is read)
    import pytest

    from perfbench.run import _blas_threads

    threads = _blas_threads()
    if threads is None:
        pytest.skip("numpy did not load OpenBLAS")
    assert threads == 1


def test_settlement_readers_see_every_record():
    """What the benchmark reads of a run's log and of a step's records:
    ``_check_report`` iterates the log, the tracer's ``env.step`` hook
    iterates the step's list."""
    from collections import Counter

    import numpy as np

    from edgeslice import env, harness
    from edgeslice.config import build_config
    from perfbench import workloads

    cfg = build_config({"horizon": 3, "short_slots": 3, "regions": 2})
    seed = 4
    scenario = harness.generate_scenario(cfg, seed)
    tasks = sum(min(len(batch), cfg.n_max) for region in scenario.tasks
                for slot in region for batch in slot)
    report = harness.run(cfg, "greedy", seed, scenario=scenario)
    assert workloads._check_report(report, tasks, cfg.econ.deadline) == ""

    batch = next(batch for region in scenario.tasks for slot in region
                 for batch in slot if len(batch) >= 2)
    state = env.RegionState(region=0, bandwidth=1e7, vm_count=1,
                            frequency=cfg.vm_frequency, tasks=batch,
                            pending=(0.0,))
    # Every other task rejected, the rest sharing the bandwidth.
    fractions = np.where(np.arange(len(batch)) % 2 == 0, 1.0 / len(batch), 0.0)
    result = env.step(state, env.AllocationAction(fractions, np.zeros(len(batch))),
                      cfg.econ, cfg.radio)
    counts = Counter()
    tracer._settled(counts, None, result)
    records = result[2]
    assert counts["env.rejected"] == len(batch) // 2
    assert counts["env.tasks_uploaded"] + counts["env.rejected"] == len(records)
