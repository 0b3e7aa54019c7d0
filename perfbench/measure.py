"""One benchmark run: set-up probes, timed repetitions, checks and the result.

A repetition is what ``gpts run`` does with a config followed by
``gpts summarize``: ``harness.load_config`` -> ``harness.run_experiment``
-> ``harness.summarize``, into a fresh output directory. Repetitions
cycle through the workload's configs until the time budget is spent, and
always rerun at least one config so reruns can be compared byte for byte.

The host's speed is sampled all through each untraced repetition by
calibration slices (see ``tracing.DecisionClock``). Its wall time, less
the slices, and its decision times are scaled by that repetition's
reference-over-measured slice time, so that ``wall_s`` and the decision
metrics are seconds on the reference machine; the unscaled seconds are
printed beside them. ``wall_s`` is the median over the untraced
repetitions. Each decision keeps its shortest scaled time over the first
``best_of`` untraced runs of its config, which make the same calls in the
same order, and the decision metrics are percentiles of those.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import scipy
import yaml

from gpts import bandit, harness

import tracing
from workloads import WORKLOADS, read_regrets

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def _blas_build(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _openblas_threads() -> dict[str, int]:
    """Threads each bundled OpenBLAS will use, asked of the library itself."""
    found = {}
    for module in (numpy, scipy):
        libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    found[f"{module.__name__}:{path.name}"] = int(getattr(lib, symbol)())
                    break
    return found


def machine_info(blas_threads: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "bench_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas_build(numpy), "scipy": _blas_build(scipy)},
        "blas_threads_pinned": blas_threads,
        "blas_threads": _openblas_threads(),
    }


def probe_setup(cfg_path: Path) -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter until it has imported
    numpy, scipy and gpts, loaded the config and built the arm grid."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(PROBE), str(cfg_path)], stdout=subprocess.PIPE, text=True
    ) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = perf_counter() - start
        if not ready:
            proc.kill()
    return elapsed, line.strip()


def run(args, root: Path) -> int:
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_root = root / ".perfbench-work"
    work = work_root / f"{workload.name}_seed{args.seed}_{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, workload, work, work_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, work: Path, work_root: Path) -> int:
    machine = machine_info(args.blas_threads)
    print("machine", json.dumps(machine))
    cfg_paths = []
    for k in range(workload.configs):
        path = work / f"config{k}.yaml"
        path.write_text(yaml.safe_dump(workload.make_config(args.seed, k), sort_keys=False))
        cfg_paths.append(path)
    cfg = harness.load_config(cfg_paths[0])
    space = bandit.make_grid(cfg.arm_dims)
    runs_per_rep = len(cfg.seeds) * sum(
        len(space) if p.kind == bandit.FIXED_ARM and p.arm_index == "all" else 1
        for p in cfg.policies
    )

    clock = tracing.DecisionClock()
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    scaled_walls, raw_gaps_ms, speeds = [], [], []
    best_gaps: dict[int, list[tuple[str, float]]] = {}
    untraced_runs = [0] * workload.configs
    same_calls = True
    setup = []
    reference: dict[int, dict[str, bytes]] = {}
    regrets: dict[str, list[list[float]]] = {}
    attempted = failed = violations = 0
    reruns_identical = True
    start = perf_counter()
    rep = 0
    # Config k runs at repetitions k, k + K, k + 2K, ... When tracing,
    # every other repetition is traced. With an even K the pattern flips
    # each cycle, so that every config's reruns compare traced CSVs with
    # untraced ones.
    K = workload.configs
    while rep <= max(K, K * workload.best_of - 1) or perf_counter() - start < args.seconds:
        k = rep % K
        traced = bool(args.trace) and (rep + (rep // K) * (1 - K % 2)) % 2 == 1
        if len(setup) < SETUP_PROBES:
            setup.append(probe_setup(cfg_paths[k]))
        out_dir = work / f"rep{rep}"
        tracer.run = rep
        attempted += runs_per_rep
        try:
            with tracing.patched(tracer.wrap if traced else clock.wrap):
                rep_cfg = harness.load_config(cfg_paths[k])
                t0 = perf_counter()
                if not traced:
                    clock.start()
                result = harness.run_experiment(rep_cfg, out_dir=out_dir)
                report = harness.summarize(out_dir)
                wall = perf_counter() - t0
        except Exception:  # the boundary that must report any failure of the program
            traceback.print_exc()
            failed += runs_per_rep
            break
        if traced:
            walls[True].append(wall)
        else:
            walls[False].append(wall - clock.sliced_s)
            speed = clock.speed()
            speeds.append(speed)
            scaled_walls.append(walls[False][-1] * speed)
            raw_gaps_ms.extend(g * 1e3 for kind, g in clock.decisions if kind == workload.timed_policy)
            scaled = [(kind, g * speed) for kind, g in clock.decisions]
            untraced_runs[k] += 1
            if k not in best_gaps:
                best_gaps[k] = scaled
            elif [kind for kind, _ in scaled] != [kind for kind, _ in best_gaps[k]]:
                same_calls = False
            elif untraced_runs[k] <= workload.best_of:
                best_gaps[k] = [(kind, min(g, b)) for (kind, g), (_, b) in zip(scaled, best_gaps[k])]
        failed += len(result["failures"])
        violations += len(report["telescoping_violations"])
        csvs = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
        if k not in reference:
            reference[k] = csvs
            for label, runs in read_regrets(workload, out_dir, space).items():
                regrets.setdefault(label, []).extend(runs)
        elif csvs != reference[k]:
            reruns_identical = False
        shutil.rmtree(out_dir)
        rep += 1
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(cfg_paths[len(setup) % workload.configs]))
    measured_s = perf_counter() - start

    lengths = [len(r) for runs in regrets.values() for r in runs]
    mean_regret = {label: statistics.fmean(x for r in runs for x in r) for label, runs in regrets.items()}
    checks = [
        ("setup probes build the arm grid", all(line == str(len(space)) for _, line in setup),
         f"{len(setup)} probes, {len(space)} arms"),
        ("error_rate is 0", failed == 0, f"{failed} of {attempted} runs failed"),
        ("summarize reports no telescoping violations", violations == 0,
         f"{violations} violations over {rep} repetitions"),
        ("every run wrote a CSV of T interactions",
         len(lengths) == runs_per_rep * workload.configs and set(lengths) == {cfg.T},
         f"{workload.configs} configs of {runs_per_rep} runs, T={cfg.T}"),
        ("repeated seeds give byte-identical CSVs", reruns_identical and rep > workload.configs,
         f"{rep} repetitions of {workload.configs} configs"),
        ("reruns make the same environment calls", same_calls,
         f"{sum(map(len, best_gaps.values()))} decisions over {len(best_gaps)} configs"),
    ]
    if workload.regret_order:
        better, worse = workload.regret_order
        ok = better in mean_regret and worse in mean_regret and mean_regret[better] < mean_regret[worse]
        checks.append((f"{better} regret below {worse} regret", ok,
                       f"{mean_regret.get(better)} vs {mean_regret.get(worse)}"))

    print(f"workload {workload.name} seed {args.seed}: {rep} repetitions in {measured_s:.1f} s, "
          f"{attempted} runs attempted, {failed} failed, error_rate {failed / attempted:g}")
    print(f"  mean regret per interaction by policy: {json.dumps(mean_regret)}")
    metrics = {}
    if walls[False]:
        gaps_ms = [g * 1e3 for decisions in best_gaps.values() for kind, g in decisions
                   if kind == workload.timed_policy]
        all_regrets = [x for runs in regrets.values() for run in runs for x in run]
        metrics = {
            "setup_s": (statistics.median(t for t, _ in setup), "s"),
            "wall_s": (statistics.median(scaled_walls), "s"),
            "decision_ms_p50": (statistics.median(gaps_ms), "ms"),
            "decision_ms_p95": (tracing.pct(gaps_ms, 0.95), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "regret_per_interaction": (statistics.fmean(all_regrets), "value"),
        }
        print(f"  {len(setup)} set-up probes; {len(walls[False])} untraced repetitions; "
              f"{len(gaps_ms)} decisions of {workload.timed_policy} runs, "
              f"each the best of the first {workload.best_of} untraced runs of its config")
        print(f"  host speed against the reference, per repetition: median {statistics.median(speeds):.3f}, "
              f"range {min(speeds):.3f}-{max(speeds):.3f}; {len(clock.slices)} slices in the last")
        print(f"  unscaled: wall {statistics.median(walls[False]):.6g} s, decision p50 "
              f"{statistics.median(raw_gaps_ms):.6g} ms, p95 {tracing.pct(raw_gaps_ms, 0.95):.6g} ms")
        _print_metrics(metrics)
    if args.trace:
        metrics = _trace_report(workload, args.seed, machine, tracer, walls, cfg.T, failed / rep,
                                statistics.fmean(sum(map(len, c.values())) for c in reference.values()),
                                work_root) if walls[True] else {}

    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _print_metrics(metrics, absent=()):
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}" + ("  (absent: no span on this workload)" if name in absent else ""))


def _trace_report(workload, seed, machine, tracer, walls, T, failures_per_rep, csv_bytes, work_root):
    """Per-layer metrics, tracing overhead and the predicted shares; writes the spans."""
    reps = len(walls[True])
    layer, absent = tracing.layer_metrics(tracer.spans, reps, T, sum(walls[True]), csv_bytes, failures_per_rep)
    traced = statistics.median(walls[True])
    untraced = statistics.median(walls[False])
    layer["trace.wall_s_traced"] = (traced, "s")
    layer["trace.wall_s_untraced"] = (untraced, "s")
    layer["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    print(f"  {reps} traced repetitions")
    _print_metrics(layer, absent)
    for name in workload.dominant:
        verdict = "agrees" if layer[name][0] > 0.5 else "DISAGREES"
        print(f"  prediction {name} > 0.5 on {workload.name}: {verdict} ({layer[name][0]:.3f})")
    if workload.gp_free:
        gp_spans = sum(1 for s in tracer.spans if s[0].startswith("gp."))
        verdict = "agrees" if gp_spans == 0 else "DISAGREES"
        print(f"  prediction no gp spans on {workload.name}: {verdict} ({gp_spans} spans)")
    path = work_root / f"trace_{workload.name}_seed{seed}.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"machine": machine, "workload": workload.name, "seed": seed}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(tracing.SPAN_FIELDS, span))) + "\n")
    print(f"  {len(tracer.spans)} spans written to {path}")
    return layer
