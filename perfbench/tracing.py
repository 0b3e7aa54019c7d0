"""Spans and decision timing around the public entry points of each gpts layer.

The wrappers live here, in the benchmark, and are installed by replacing
module and class attributes for the duration of one repetition; the
program itself is not changed. Spans are kept in memory as lists of
``SPAN_FIELDS`` and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from gpts import bandit, bridge, environments, gp, harness
from gpts.errors import NumericalError

# (span name, owner, attribute). A target the program no longer has is
# skipped, and the metrics built on it are reported as absent.
TARGETS = [
    ("gp.fit", gp, "fit_type2_mle"),
    ("gp.lml", gp, "log_marginal_likelihood"),
    ("gp.posterior", gp.PosteriorGp, "__init__"),
    ("gp.kernel_matrix", gp, "kernel_matrix"),
    ("gp.predict", gp.PosteriorGp, "predict"),
    ("gp.sample_joint", gp.PosteriorGp, "sample_joint"),
    ("bandit.select", bandit, "ts_select_arm"),
    ("bandit.run_policy", bandit, "run_policy"),
    *(
        (f"environments.{method}", getattr(environments, cls), method)
        for cls in ("SyntheticPretrainEnv", "NoisyTestFunctionEnv", "ReplayEnv")
        for method in ("init", "step")
    ),
    ("bridge.connect", bridge, "bridge_connect"),
    ("bridge.init", bridge.BridgeEnvironment, "init"),
    ("bridge.step", bridge.BridgeEnvironment, "step"),
    ("bridge.close", bridge.BridgeEnvironment, "close"),
    ("harness.load_config", harness, "load_config"),
    ("harness.run_experiment", harness, "run_experiment"),
    ("harness.write_run_csv", harness, "write_run_csv"),
    ("harness.summarize", harness, "summarize"),
]
SPAN_FIELDS = ("name", "start", "end", "parent", "run", "error")
ENV_CALLS = {"environments.init", "environments.step", "bridge.init", "bridge.step"}


@contextmanager
def patched(wrap):
    """Replace every target attribute by ``wrap(name, original)`` until exit."""
    saved = []
    try:
        for name, owner, attr in TARGETS:
            original = vars(owner).get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# A calibration slice is fixed work that does not use gpts: a pure-Python
# loop and a small Cholesky factor. Its time tracks the speed the host
# grants this process, which on a shared VM changes by up to twofold within
# seconds. REFERENCE_SLICE_S is its time on the reference machine, to which
# the untraced timings are scaled.
CALIBRATE_EVERY_S = 0.01
REFERENCE_SLICE_S = 200e-6
_SPD = np.eye(48) * 48.0 + np.outer(np.arange(48.0), np.arange(48.0)) / 48.0**2


def calibration_slice() -> None:
    total = 0
    for i in range(2000):
        total += i * i
    np.linalg.cholesky(_SPD)


class DecisionClock:
    """Tuner overhead per interaction, and the host's speed meanwhile.

    A decision is the time from the return of one environment call
    (``init`` or ``step``) to the start of the next ``step`` of the same
    environment, while the trainer sits idle. ``decisions`` holds them in
    order, each with the policy kind of the ``run_policy`` call it happens
    in.

    On entry to any wrapped call, when ``CALIBRATE_EVERY_S`` have passed
    since the last one, the clock first runs and times a calibration
    slice, so the slices sample the host's speed all through a repetition.
    Their time is taken out of the decision samples, and ``sliced_s`` holds
    their total, to be taken out of the repetition's wall time.
    """

    def __init__(self):
        self.start()
        self._kind = None

    def start(self):
        """Forget the previous repetition and run a first slice."""
        self.decisions: list[tuple[str, float]] = []
        self.slices: list[float] = []
        self.sliced_s = 0.0
        self._last: dict[int, tuple[float, float]] = {}
        self._due = 0.0
        self._calibrate()

    def speed(self) -> float:
        """Reference slice time over this repetition's mean slice time,
        leaving out the slowest tenth of slices (interrupts, page faults)."""
        kept = sorted(self.slices)[: max(1, len(self.slices) * 9 // 10)]
        return REFERENCE_SLICE_S / statistics.fmean(kept)

    def _calibrate(self):
        now = perf_counter()
        if now >= self._due:
            calibration_slice()
            end = perf_counter()
            self.slices.append(end - now)
            self.sliced_s += end - now
            self._due = end + CALIBRATE_EVERY_S

    def wrap(self, name, fn):
        if name == "bandit.run_policy":

            @functools.wraps(fn)
            def tagged(space, cfg, *args, **kwargs):
                self._kind = cfg.kind
                return fn(space, cfg, *args, **kwargs)

            return tagged
        if name not in ENV_CALLS:

            @functools.wraps(fn)
            def calibrated(*args, **kwargs):
                self._calibrate()
                return fn(*args, **kwargs)

            return calibrated
        is_step = name.endswith(".step")

        @functools.wraps(fn)
        def timed(env, *args, **kwargs):
            self._calibrate()
            if is_step:
                returned, sliced = self._last[id(env)]
                gap = perf_counter() - returned - (self.sliced_s - sliced)
                self.decisions.append((self._kind, gap))
            out = fn(env, *args, **kwargs)
            self._last[id(env)] = (perf_counter(), self.sliced_s)
            return out

        return timed


class Tracer:
    """Records one span per call of a target; ``run`` tags the repetition."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[2] = perf_counter()

        return traced


def pct(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def layer_metrics(spans, reps: int, T: int, wall_s: float, csv_bytes: float, failures: float):
    """Per-layer metrics from the spans of ``reps`` traced repetitions.

    ``wall_s`` is their summed wall time (run_experiment plus summarize);
    shares are fractions of it. Counts are per repetition, as are the given
    ``csv_bytes`` and ``failures``. Returns the
    metrics as ``{name: (value, unit)}`` and the names of those that no
    span measured.
    """
    dur = [s[2] - s[1] for s in spans]
    self_time = list(dur)
    child_error = [False] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_time[s[3]] -= dur[i]
            child_error[s[3]] |= s[5] is not None
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    out: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def times(name, scale, use_self=False):
        src = self_time if use_self else dur
        return [src[i] * scale for i in by_name.get(name, [])]

    def put(metric, values, stat, unit):
        if values:
            out[metric] = (stat(values), unit)
        else:
            out[metric] = (0.0, unit)
            absent.append(metric)

    def calls(metric, name):
        out[metric] = (len(by_name.get(name, [])) / reps, "count")

    def share(metric, *names):
        out[metric] = (sum(sum(times(n, 1.0)) for n in names) / wall_s, "fraction")

    def origin_errors(prefix, kind=None):
        # Count an exception once, at the innermost span it left.
        n = sum(
            1
            for i, s in enumerate(spans)
            if s[5] is not None and not child_error[i] and s[0].startswith(prefix)
            and (kind is None or s[5] == kind)
        )
        return n / reps

    med = statistics.median
    # gp
    calls("gp.fit.calls", "gp.fit")
    put("gp.fit.ms_p50", times("gp.fit", 1e3), med, "ms")
    # The k-th fit of a run (k from 0) follows interaction k + 2.
    first, last = [], []
    fit_order: dict[int, int] = {}
    for i in by_name.get("gp.fit", []):
        k = fit_order[spans[i][3]] = fit_order.get(spans[i][3], -1) + 1
        t = k + 2
        if t <= T / 4:
            first.append(dur[i] * 1e3)
        elif t > 3 * T / 4:
            last.append(dur[i] * 1e3)
    put("gp.fit.ms_first_quarter", first, med, "ms")
    put("gp.fit.ms_last_quarter", last, med, "ms")
    share("gp.fit.share", "gp.fit")
    for layer in ("gp.lml", "gp.posterior", "gp.kernel_matrix"):
        calls(f"{layer}.calls", layer)
        put(f"{layer}.ms_p50", times(layer, 1e3), med, "ms")
    put("gp.predict.ms_p50", times("gp.predict", 1e3), med, "ms")
    put("gp.sample_joint.ms_p50", times("gp.sample_joint", 1e3, use_self=True), med, "ms")
    out["gp.numerical_errors"] = (origin_errors("gp.", NumericalError.__name__), "count")
    # bandit
    calls("bandit.select.calls", "bandit.select")
    put("bandit.select.ms_p50", times("bandit.select", 1e3), med, "ms")
    put("bandit.select.ms_p95", times("bandit.select", 1e3), lambda v: pct(v, 0.95), "ms")
    share("bandit.select.share", "bandit.select")
    interactions = len(by_name.get("environments.step", [])) + len(by_name.get("bridge.step", []))
    put(
        "bandit.run_policy.self_us_per_interaction",
        times("bandit.run_policy", 1e6, use_self=True),
        lambda v: sum(v) / interactions,
        "us",
    )
    # environments
    calls("environments.step.calls", "environments.step")
    put("environments.step.us_p50", times("environments.step", 1e6), med, "us")
    # bridge
    put("bridge.connect.ms_p50", times("bridge.connect", 1e3), med, "ms")
    put("bridge.init.ms_p50", times("bridge.init", 1e3), med, "ms")
    calls("bridge.step.calls", "bridge.step")
    put("bridge.step.us_p50", times("bridge.step", 1e6), med, "us")
    put("bridge.step.us_p95", times("bridge.step", 1e6), lambda v: pct(v, 0.95), "us")
    share("bridge.step.share", "bridge.step")
    share("bridge.share", "bridge.connect", "bridge.init", "bridge.step", "bridge.close")
    put("bridge.close.ms_p50", times("bridge.close", 1e3), med, "ms")
    out["bridge.errors"] = (origin_errors("bridge."), "count")
    # harness
    calls("harness.write_run_csv.calls", "harness.write_run_csv")
    put("harness.write_run_csv.ms_p50", times("harness.write_run_csv", 1e3), med, "ms")
    out["harness.csv_bytes"] = (csv_bytes, "bytes")
    put("harness.summarize.ms", times("harness.summarize", 1e3), med, "ms")
    put(
        "harness.run_experiment.self_ms",
        times("harness.run_experiment", 1e3, use_self=True),
        med,
        "ms",
    )
    put("harness.load_config.ms", times("harness.load_config", 1e3), med, "ms")
    out["harness.failures"] = (failures, "count")
    return out, absent

