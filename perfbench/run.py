"""Benchmark of the gpts tuner's overhead per interaction.

Run from the repository root:

    python3 perfbench/run.py --workload regret_1d --seed 0 --seconds 20 --trace 0

Workloads: regret_1d (fit-bound), grid_3d (select-bound) and
bridge_baselines (no GP; stdio bridge to the mock trainer). Each run
generates the workload's experiment config from ``--seed``, measures for
``--seconds``, checks the outputs, and prints one JSON object as the last
line of standard output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports per-layer metrics from spans around each layer's
entry points. The exit code is 1 when a correctness check fails and 2
when the program cannot be found or the arguments are wrong.
``--workload all`` runs every workload in turn, each in its own process,
and exits with the highest of their exit codes.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads in this process and its children (default 1)")
    args = parser.parse_args(argv)
    if not (SRC / "gpts" / "__init__.py").is_file():
        print(f"perfbench: no gpts package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        # Each workload runs in a fresh process, which pins itself as below.
        from workloads import WORKLOADS

        common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--blas-threads", str(args.blas_threads)]
        return max(subprocess.call([sys.executable, __file__, "--workload", name, *common])
                   for name in WORKLOADS)
    # Pinned before numpy is first imported; children inherit the pins. The
    # bench is single-threaded apart from BLAS, so it keeps one CPU per BLAS
    # thread. The bridge's trainer answers each step while the bench waits;
    # on the CPUs left free, it does not evict the bench's caches between
    # two steps, which steadies the microsecond-scale bridge decisions.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    cpus = sorted(os.sched_getaffinity(0))
    bench_cpus = cpus[-args.blas_threads:]
    os.sched_setaffinity(0, bench_cpus)
    os.environ["PERFBENCH_TRAINER_CPUS"] = ",".join(str(c) for c in cpus if c not in bench_cpus)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    import measure

    return measure.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
