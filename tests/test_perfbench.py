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

    def under_act(i):
        while i >= 0:
            if t.names[i] == "agent.act":
                return True
            i = t.parents[i]
        return False

    # Spans are recorded in call order.  Each side's update step featurises
    # its sampled batch once (states) and once (next states) before its
    # update_critics call; policy rollouts inside act are not counted.
    pending = updates = 0
    for i, name in enumerate(t.names):
        if name == "agent.featurise" and not under_act(i):
            pending += 1
        elif name == "agent.update_critics":
            assert pending <= 2, f"{pending} featurisations in one update step"
            pending = 0
            updates += 1
    assert pending == 0
    assert updates > 20


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
