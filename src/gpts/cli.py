"""Command-line entry points: run experiments, summarize results, and
serve the mock trainer.

``harness`` (and with it the GP stack and scipy) and ``yaml`` are imported
inside the commands that use them, so ``mock-trainer`` starts quickly;
``summarize`` needs only ``report``, which loads neither.

Exit codes: 0 success, 2 config error, 3 a failed run (environment, data
or bridge failure, a diverged run or a numerical breakdown of the GP) or
unreadable run CSVs.
"""

from __future__ import annotations

import json
import sys

import click

from . import bridge
from .environments import SyntheticPretrainSpec
from .errors import BridgeError, ConfigError, DataError

EXIT_CONFIG = 2
EXIT_ENVIRONMENT = 3


@click.group()
def main():
    """GP Thompson-sampling toolkit for online hyperparameter tuning."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--seed-override", default=None, help="Comma-separated seeds replacing the config's.")
@click.option("--out", "out_dir", default=None, type=click.Path(), help="Output directory override.")
def run(config_path, seed_override, out_dir):
    """Run every (policy, seed) pair of an experiment config."""
    from . import harness

    try:
        cfg = harness.load_config(config_path)
        seeds = None
        if seed_override:
            seeds = [int(s) for s in seed_override.split(",") if s.strip()]
            if not seeds:
                raise ConfigError("--seed-override produced no seeds")
    except (ConfigError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    try:
        result = harness.run_experiment(cfg, out_dir=out_dir, seeds=seeds)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    for r in result["runs"]:
        click.echo(f"wrote {r['path']}")
    click.echo(f"wrote {result['summary']}")
    if result["failures"]:
        for f in result["failures"]:
            click.echo(f"FAILED {f['policy']} seed {f['seed']}: {f['error']}", err=True)
        sys.exit(EXIT_ENVIRONMENT)


@main.command()
@click.option("--dir", "run_dir", required=True, type=click.Path())
def summarize(run_dir):
    """Summarize the run CSVs in a directory."""
    from . import report

    try:
        result = report.summarize(run_dir)
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(EXIT_ENVIRONMENT)
    click.echo(report.format_report(result))
    click.echo(json.dumps(result["policies"], indent=2))


@main.command("mock-trainer")
@click.option("--transport", default="stdio", help="stdio or tcp:<port>.")
@click.option("--seed", default=0, type=int, help="Environment seed unless the Init config sets one.")
@click.option("--initial-loss", default=10.0, type=float)
@click.option("--floor", default=1.5, type=float)
@click.option("--optimum", default="0.3", help="Comma-separated coordinates of the best arm.")
@click.option("--width", default="0.08", help="Comma-separated efficiency widths per dimension.")
@click.option("--rate", default=0.3, type=float)
@click.option("--noise-sd", default=0.05, type=float)
def mock_trainer(transport, seed, initial_loss, floor, optimum, width, rate, noise_sd):
    """Serve the trainer wire protocol backed by the synthetic simulator."""
    try:
        spec = SyntheticPretrainSpec(
            initial_loss=initial_loss,
            floor=floor,
            optimum=tuple(float(v) for v in optimum.split(",")),
            width=tuple(float(v) for v in width.split(",")),
            rate=rate,
            noise_sd=noise_sd,
        )
        code = bridge.mock_trainer_main(spec, transport=transport, seed=seed)
    except (ConfigError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except (OSError, BridgeError) as exc:
        click.echo(f"transport failure: {exc}", err=True)
        sys.exit(EXIT_ENVIRONMENT)
    sys.exit(code)


@main.command("print-default-config")
def print_default_config():
    """Print the default experiment configuration (YAML)."""
    import yaml

    from . import harness

    click.echo(yaml.safe_dump(harness.default_config_dict(), sort_keys=False))


if __name__ == "__main__":
    main()
