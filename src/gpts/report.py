"""The run-CSV format: one CSV per (policy, seed) run, a summary CSV of
the per-interaction mean and standard deviation of the validation loss
across seeds per policy, and the report ``gpts summarize`` reads back
from the run CSVs. Floats are written in shortest round-trip form, so
rerunning an identical config yields byte-identical files.

Imports neither the GP stack nor scipy, so ``summarize`` starts fast.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from collections import Counter
from pathlib import Path

from .errors import DataError

__all__ = [
    "RUN_CSV_PREFIX",
    "SUMMARY_CSV_NAME",
    "write_run_csv",
    "write_summary_csv",
    "summarize",
    "format_report",
]

RUN_CSV_PREFIX = "run_"
SUMMARY_CSV_NAME = "summary.csv"


def _fmt(x) -> str:
    return repr(float(x))


def _run_csv_columns(space) -> list[str]:
    return (
        ["seed", "policy", "interaction"]
        + [f"arm_{n}" for n in space.names]
        + [
            "val_loss",
            "reward",
            "cumulative_reward",
            "gp_lengthscales",
            "gp_output_scale",
            "gp_noise_variance",
            "gp_mean_constant",
        ]
    )


def write_run_csv(path, seed: int, label: str, hist, space) -> None:
    """Write one run's CSV from the columns of a ``bandit.History`` and
    its ``environments.ArmSpace`` (read for ``names`` and ``ndim``)."""
    ndim = space.ndim
    gp_columns = [
        [
            json.dumps([float(v) for v in theta.lengthscales]),
            _fmt(theta.output_scale),
            _fmt(theta.noise_variance),
            _fmt(theta.mean_constant),
        ]
        for theta in hist.gp_trace
    ] or [["", "", "", ""]] * len(hist)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_run_csv_columns(space))
        writer.writerow(
            [seed, label, 0] + [""] * ndim + [_fmt(hist.initial_loss), "", _fmt(0.0), "", "", "", ""]
        )
        cum = 0.0
        rows = zip(hist.arms, hist.losses_after, hist.rewards(), gp_columns, strict=True)
        for t, (arm, loss, reward, gp_cols) in enumerate(rows, 1):
            cum += reward
            writer.writerow(
                [seed, label, t]
                + [_fmt(c) for c in arm]
                + [_fmt(loss), _fmt(reward), _fmt(cum)]
                + gp_cols
            )


def write_summary_csv(path, curves: dict[str, list[list[float]]]) -> None:
    """Write the per-interaction mean and sd of the loss curves of each
    policy; ``curves`` maps a policy label to its runs' loss trajectories."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["policy", "interaction", "mean_val_loss", "sd_val_loss", "n"])
        for label in sorted(curves):
            series = curves[label]
            for t in range(len(series[0])):
                vals = [c[t] for c in series]
                mean = sum(vals) / len(vals)
                sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))
                writer.writerow([label, t, _fmt(mean), _fmt(sd), len(vals)])


def _read_run_csv(path: Path) -> dict:
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = []
            for fields in filter(None, reader):  # blank lines hold no row
                if len(fields) != len(header):
                    raise DataError(f"{path}: line {reader.line_num}: expected {len(header)}"
                                    f" fields, got {len(fields)}")
                rows.append(dict(zip(header, fields)))
    except OSError as exc:
        raise DataError(f"cannot read run CSV {path}: {exc}") from exc
    if not rows:
        raise DataError(f"run CSV {path} is empty")
    try:
        policy = rows[0]["policy"]
        seed = int(rows[0]["seed"])
        initial_loss = float(rows[0]["val_loss"])
        records = [
            {
                "interaction": int(row["interaction"]),
                "val_loss": float(row["val_loss"]),
                "reward": float(row["reward"]),
                "cumulative_reward": float(row["cumulative_reward"]),
                "arm": tuple(float(row[k]) for k in row if k.startswith("arm_") and row[k] != ""),
            }
            for row in rows[1:]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed run CSV {path}: {exc}") from exc
    return {
        "policy": policy,
        "seed": seed,
        "initial_loss": initial_loss,
        "records": records,
    }


def summarize(run_dir) -> dict:
    """Aggregate the run CSVs in a directory into a report.

    Reports per-policy final-loss and cumulative-reward statistics plus
    arm-selection frequencies, and verifies the telescoping identity
    (sum of rewards = initial loss - final loss) on every run; a run
    holding a non-finite value fails the check.
    """
    run_dir = Path(run_dir)
    paths = sorted(run_dir.glob(f"{RUN_CSV_PREFIX}*.csv"))
    if not paths:
        raise DataError(f"no run CSVs found in {run_dir}")

    by_policy: dict[str, list[dict]] = {}
    violations = []
    for path in paths:
        run = _read_run_csv(path)
        by_policy.setdefault(run["policy"], []).append(run)
        if run["records"]:
            total = sum(r["reward"] for r in run["records"])
            expected = run["initial_loss"] - run["records"][-1]["val_loss"]
            scale = max(abs(expected), 1.0)
            # written so that a NaN anywhere counts as a violation
            if not (abs(total - expected) <= 1e-9 * scale):
                violations.append(
                    {"path": str(path), "sum_rewards": total, "expected": expected}
                )
            running = 0.0
            for r in run["records"]:
                running += r["reward"]
                if not (abs(r["cumulative_reward"] - running) <= 1e-9 * max(abs(running), 1.0)):
                    violations.append(
                        {
                            "path": str(path),
                            "interaction": r["interaction"],
                            "column": r["cumulative_reward"],
                            "recomputed": running,
                        }
                    )
                    break

    policies = {}
    for label, runs in sorted(by_policy.items()):
        finals = [r["records"][-1]["val_loss"] for r in runs if r["records"]]
        cums = [r["records"][-1]["cumulative_reward"] for r in runs if r["records"]]
        arm_counts = Counter(rec["arm"] for r in runs for rec in r["records"])
        total_pulls = sum(arm_counts.values())
        freq = {
            str(list(arm)): count / total_pulls for arm, count in sorted(arm_counts.items())
        }
        policies[label] = {
            "runs": len(runs),
            "final_loss_mean": sum(finals) / len(finals) if finals else None,
            "final_loss_sd": statistics.pstdev(finals) if len(finals) > 1 else 0.0,
            "cumulative_reward_mean": sum(cums) / len(cums) if cums else None,
            "arm_frequencies": freq,
        }

    finals = {
        label: stats["final_loss_mean"]
        for label, stats in policies.items()
        if stats["final_loss_mean"] is not None
    }
    best_policy = min(finals, key=finals.get) if finals else None
    return {
        "policies": policies,
        "best_policy": best_policy,
        "telescoping_violations": violations,
    }


def format_report(report: dict) -> str:
    lines = ["policy                     runs  final_loss(mean±sd)   cum_reward(mean)"]
    for label, st in report["policies"].items():
        # a policy whose runs all ended before interaction 1 has no means
        final, cum = "n/a", "n/a"
        if st["final_loss_mean"] is not None:
            final = f"{st['final_loss_mean']:.6f}±{st['final_loss_sd']:.6f}"
            cum = f"{st['cumulative_reward_mean']:.6f}"
        lines.append(f"{label:<26} {st['runs']:>4}  {final}   {cum}")
    lines.append(f"best policy by final loss: {report['best_policy']}")
    if report["telescoping_violations"]:
        lines.append("TELESCOPING VIOLATIONS:")
        for v in report["telescoping_violations"]:
            lines.append(f"  {v}")
    else:
        lines.append("telescoping identity verified on all runs")
    return "\n".join(lines)
