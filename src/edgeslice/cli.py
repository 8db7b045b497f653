"""Batch command-line interface.

Exit codes: 0 success, 2 configuration error (bad config, flag value or
checkpoint file), 3 infeasible slicing demand, 4 numeric divergence during
training, 5 cannot write output, 6 allocation or rental constraint violated.
Set EDGESLICE_LOG=debug|info|warning to control stderr verbosity.
"""

from __future__ import annotations

import logging
import os
import sys

import click

from . import agent as agent_mod
from . import harness
from .config import load_config, require_seed
from .errors import (CheckpointError, ConfigError, ConstraintViolation,
                     DivergenceError, InfeasibleSliceError)
from .forecasting import ForecastModel

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGENCE = 4
EXIT_OUTPUT = 5
EXIT_CONSTRAINT = 6


def _setup_logging() -> None:
    level = os.environ.get("EDGESLICE_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    try:
        return fn()
    except (ConfigError, CheckpointError) as exc:
        _fail(EXIT_CONFIG, str(exc))
    except InfeasibleSliceError as exc:
        _fail(EXIT_INFEASIBLE, str(exc))
    except DivergenceError as exc:
        _fail(EXIT_DIVERGENCE, str(exc))
    except ConstraintViolation as exc:
        _fail(EXIT_CONSTRAINT, f"constraint violated: {exc}")
    except OSError as exc:
        _fail(EXIT_OUTPUT, f"cannot write output: {exc}")


def _load_bundles(agent_checkpoint, forecaster_checkpoint):
    bundle = agent_mod.load_agent(agent_checkpoint) if agent_checkpoint else None
    model = (ForecastModel.load(forecaster_checkpoint)
             if forecaster_checkpoint else None)
    return bundle, model


@click.group()
def main():
    """Edge-slicing simulator: slice rentals, offloading policies, metrics."""
    _setup_logging()


@main.command("run")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--policy", required=True,
              type=click.Choice(harness.POLICY_TAGS))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--agent-checkpoint", default=None, type=click.Path())
@click.option("--forecaster-checkpoint", default=None, type=click.Path())
def run_cmd(config_path, policy, seed, out_dir, agent_checkpoint,
            forecaster_checkpoint):
    """Simulate one policy over the configured horizon and write reports."""
    def body():
        require_seed(seed, "--seed")
        config = load_config(config_path)
        bundle, model = _load_bundles(agent_checkpoint, forecaster_checkpoint)
        metrics = harness.run(config, policy, seed, agent_bundle=bundle,
                              forecaster=model)
        paths = harness.report(metrics, out_dir)
        click.echo(f"policy={policy} seed={seed} profit={metrics.total_profit:.3f} "
                   f"revenue={metrics.total_revenue:.3f}")
        click.echo(f"wrote {paths['metrics']}")
    _guarded(body)


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=None, type=int,
              help="Override the config seed.")
def train_cmd(config_path, out_dir, seed):
    """Train the traffic forecaster and the dual offloading agents."""
    def body():
        if seed is not None:
            require_seed(seed, "--seed")
        config = load_config(config_path)
        info = harness.train_all(config, out_dir, seed=seed)
        click.echo(f"checkpoints written to {info['out_dir']} "
                   f"(agent steps: {info['agent_steps']})")
    _guarded(body)


@main.command("compare")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--policies", required=True,
              help="Comma-separated policy tags.")
@click.option("--seeds", required=True, help="Comma-separated integers.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--agent-checkpoint", default=None, type=click.Path())
@click.option("--peer-checkpoint", default=None, type=click.Path())
@click.option("--forecaster-checkpoint", default=None, type=click.Path())
def compare_cmd(config_path, policies, seeds, out_dir, agent_checkpoint,
                peer_checkpoint, forecaster_checkpoint):
    """Run a policy x seed grid and write per-policy comparison tables."""
    def body():
        config = load_config(config_path)
        tags = [p.strip() for p in policies.split(",") if p.strip()]
        try:
            seed_list = [int(s) for s in seeds.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --seeds list {seeds!r}") from exc
        for s in seed_list:
            require_seed(s, "--seeds entry")
        bundle, model = _load_bundles(agent_checkpoint, forecaster_checkpoint)
        peer = agent_mod.load_agent(peer_checkpoint) if peer_checkpoint else None
        summary = harness.compare(config, tags, seed_list, out_dir,
                                  agent_bundle=bundle, peer_bundle=peer,
                                  forecaster=model)
        for tag, row in summary["policies"].items():
            click.echo(f"{tag}: profit={row['profit']:.3f} "
                       f"revenue={row['revenue']:.3f} offloaded={row['offloaded']:.1f}")
    _guarded(body)


@main.command("oracle")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--instances", default=25, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
def oracle_cmd(config_path, instances, seed):
    """Small-instance exactness checks against the brute-force oracles."""
    def body():
        require_seed(seed, "--seed")
        config = load_config(config_path)
        results = harness.oracle_checks(config, instances=instances, seed=seed)
        failed = False
        for name, ok, detail in results:
            click.echo(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            failed = failed or not ok
        if failed:
            sys.exit(1)
    _guarded(body)


if __name__ == "__main__":
    main()
