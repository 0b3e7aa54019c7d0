"""Command-line entry points: run experiments, summarize results, and
serve the mock trainer.

``harness`` (and with it the GP stack and scipy) and ``yaml`` are imported
inside the commands that use them, so ``mock-trainer`` starts quickly;
``summarize`` needs only ``report``, which loads neither.

Exit codes, as README details them: 0 success; 1 Ctrl-C (``Aborted!``)
or a closed stdout; 2 a usage or config error; 3 a run ended by one of
``errors.RUN_FAILURES`` (the other runs still complete) or unreadable run
CSVs. A traceback means a bug in gpts.
"""

import argparse
import json
import os
import sys

from . import bridge
from .errors import BridgeError, ConfigError, DataError

EXIT_CONFIG = 2
EXIT_ENVIRONMENT = 3


def run(config_path, seed_override, out_dir) -> int:
    """Run every (policy, seed) pair of an experiment config."""
    from . import harness

    cfg = harness.load_config(config_path)
    try:
        seeds = [int(s) for s in seed_override.split(",") if s.strip()] if seed_override else None
    except ValueError as exc:  # a seed that is not an integer
        raise ConfigError(exc) from exc
    result = harness.run_experiment(cfg, out_dir=out_dir, seeds=seeds)
    for r in result["runs"]:
        print(f"wrote {r['path']}")
    print(f"wrote {result['summary']}", flush=True)  # ahead of the failures in a shared file
    for f in result["failures"]:
        print(f"FAILED {f['policy']} seed {f['seed']}: {f['error']}", file=sys.stderr)
    return EXIT_ENVIRONMENT if result["failures"] else 0


def summarize(run_dir) -> int:
    """Summarize the run CSVs in a directory."""
    from . import report

    result = report.summarize(run_dir)
    print(report.format_report(result), json.dumps(result["policies"], indent=2), sep="\n")
    return 0


def mock_trainer(transport) -> int:
    """Serve the trainer wire protocol backed by the synthetic simulator,
    set up by each Init message's config."""
    try:
        return bridge.mock_trainer_main(transport=transport)
    except ValueError as exc:
        raise ConfigError(exc) from exc
    except (OSError, BridgeError) as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT


def print_default_config() -> int:
    """Print the default experiment configuration (YAML)."""
    import yaml

    from . import harness

    print(yaml.safe_dump(harness.default_config_dict(), sort_keys=False))
    return 0


def main(argv=None) -> int:
    """GP Thompson-sampling toolkit for online hyperparameter tuning."""
    parser = argparse.ArgumentParser(prog="gpts", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    sub = {}
    for command in (run, summarize, mock_trainer, print_default_config):
        name, doc = command.__name__.replace("_", "-"), command.__doc__
        sub[command] = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        sub[command].set_defaults(command=command)
    sub[run].add_argument("--config", dest="config_path", required=True)
    sub[run].add_argument("--seed-override", help="Comma-separated seeds replacing the config's.")
    sub[run].add_argument("--out", dest="out_dir", help="Output directory override.")
    sub[summarize].add_argument("--dir", dest="run_dir", required=True)
    sub[mock_trainer].add_argument("--transport", default="stdio", help="stdio or tcp:<port>.")
    args = vars(parser.parse_args(argv))
    try:
        code = args.pop("command")(**args)
        sys.stdout.flush()  # a closed stdout raises here, not when Python exits
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        return 1
    except BrokenPipeError:  # as in `gpts summarize | head`: nothing more is written
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit's flush
        return 1


if __name__ == "__main__":
    sys.exit(main())
