"""Command-line entry points: run experiments, summarize results, and
serve the mock trainer.

``harness`` (and with it the GP stack and scipy) and ``yaml`` are imported
inside the commands that use them, so ``mock-trainer`` starts quickly;
``summarize`` needs only ``report``, which loads neither.

Exit codes: 0 success; 2 a config error, found when the config is read,
when the output directory or a run's environment is made, or when an
output CSV cannot be written; 3 one or more runs ended by an
``errors.RUN_FAILURES`` failure (environment, data or bridge failure, a
diverged run or a numerical breakdown of the GP; the other runs still
complete), or unreadable run CSVs. A traceback means a bug in gpts.
"""

from __future__ import annotations

import json
import sys

import click

from . import bridge
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
def mock_trainer(transport):
    """Serve the trainer wire protocol backed by the synthetic simulator,
    set up by each Init message's config."""
    try:
        code = bridge.mock_trainer_main(transport=transport)
    except ValueError as exc:
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
