"""Fresh-interpreter tests: what the trainer side of the package imports,
and that every CLI command works when nothing has been imported yet.

In-process tests share one interpreter in which the whole package is
already loaded, so neither an import that drags in the GP stack nor a
broken deferred import would show there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

import gpts

SRC = str(Path(gpts.__file__).resolve().parents[1])
PATHS = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(PATHS)}
GP_STACK = ("gpts.gp", "gpts.bandit", "gpts.harness")


def python(*args, **kwargs):
    return subprocess.run(
        [sys.executable, *args], env=ENV, capture_output=True, text=True, timeout=120, **kwargs
    )


def gp_stack_modules(names):
    return sorted(m for m in names if m in GP_STACK or m == "scipy" or m.startswith("scipy."))


def test_trainer_side_imports_no_gp_stack():
    proc = python(
        "-c",
        "import json, sys\n"
        "import gpts.cli, gpts.bridge, gpts.environments\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "from gpts import bandit, bridge, environments, gp, harness\n"
        "# one definition, re-exported by bandit for perfbench\n"
        "assert bandit.make_grid is environments.make_grid\n"
        "assert 'make_grid' in bandit.__all__ and 'make_grid' in environments.__all__\n"
        "assert 'ArmSpace' not in bandit.__all__\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert gp_stack_modules(json.loads(proc.stdout)) == []


# runs the CLI and prints the modules it loaded as the last line of stderr
CLI_REPORTING_MODULES = (
    "import atexit, json, runpy, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
    "runpy.run_module('gpts.cli', run_name='__main__', alter_sys=True)\n"
)


def loaded_modules(proc):
    return json.loads(proc.stderr.splitlines()[-1])


def test_mock_trainer_session_loads_no_scipy():
    # serve init, one step and shutdown, then report what the process loaded
    session = [
        {"type": "init", "v": 1, "arm_names": ["rho"], "config": {}},
        {"type": "step", "v": 1, "interaction": 1, "arm": {"rho": 0.3}, "updates": 100},
        {"type": "shutdown", "v": 1},
    ]
    proc = python(
        "-c", CLI_REPORTING_MODULES, "mock-trainer", "--transport", "stdio",
        input="".join(json.dumps(m) + "\n" for m in session),
    )
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line)["type"] for line in proc.stdout.splitlines()] == [
        "init_ack",
        "step_ack",
    ]
    modules = loaded_modules(proc)
    assert gp_stack_modules(modules) == []
    assert "click" not in modules


def test_cli_commands_from_a_cold_start(tmp_path):
    printed = python("-m", "gpts.cli", "print-default-config")
    assert printed.returncode == 0, printed.stderr
    raw = yaml.safe_load(printed.stdout)
    raw.update(T=2, seeds=[0], output_dir=str(tmp_path / "runs"))
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))

    ran = python("-m", "gpts.cli", "run", "--config", str(config))
    assert ran.returncode == 0, ran.stderr
    assert len(list((tmp_path / "runs").glob("run_*.csv"))) == 11

    # reading CSVs needs neither the GP stack nor scipy
    summarized = python("-c", CLI_REPORTING_MODULES, "summarize", "--dir", str(tmp_path / "runs"))
    assert summarized.returncode == 0, summarized.stderr
    assert "telescoping identity verified on all runs" in summarized.stdout
    assert gp_stack_modules(loaded_modules(summarized)) == []


def test_gpts_run_loads_no_scipy_optimize(tmp_path):
    # the GP stack loads scipy's LAPACK extension from its file, not through
    # scipy.linalg, whose import loads numpy.f2py and numpy.testing; its
    # Nelder-Mead is its own, the arm space's distance table needs no
    # np.union1d, whose np.unique loads numpy.ma, and the CLI is argparse
    raw = yaml.safe_load(python("-m", "gpts.cli", "print-default-config").stdout)
    raw.update(T=3, seeds=[0], output_dir=str(tmp_path / "runs"), policies=[{"kind": "gp_ts"}])
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    ran = python("-c", CLI_REPORTING_MODULES, "run", "--config", str(config))
    assert ran.returncode == 0, ran.stderr
    modules = loaded_modules(ran)
    assert "gpts.gp" in modules
    unwanted = ("scipy.linalg", "scipy.optimize", "numpy.f2py", "numpy.testing", "numpy.ma",
                "click")
    assert [m for m in modules for u in unwanted if m == u or m.startswith(u + ".")] == []


def test_console_script_form():
    # what the `gpts` script of pyproject.toml's [project.scripts] runs
    script = python("-c", "import sys; from gpts.cli import main; sys.exit(main())",
                    "print-default-config")
    module = python("-m", "gpts.cli", "print-default-config")
    assert script.returncode == module.returncode == 0, script.stderr
    assert script.stdout == module.stdout != ""
