"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS/FAIL line.

The guarantees cover the reward algebra, exact-GP posterior math, the
hyperparameter fit contract, Thompson-sampling behaviour from the prior,
end-to-end policy quality on the synthetic benchmarks, stationary
regret, wire-protocol equivalence, and byte-level reproducibility.
"""

import dataclasses
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml
from helpers import PartialArmEnv, run_cli

from gpts import bandit, bridge, environments as envs, gp, harness

GRID_1D = [dict(lower=0.0, upper=0.5, step=0.05, name="rho")]
GRID_3D = [
    dict(lower=0.0, upper=0.25, step=0.05, name=n) for n in ("rho", "gamma", "lambda")
]


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def run_one(space, kind, policy_seed, env, T, u, arm_index=None, fit_budget=None):
    return bandit.run_policy(
        space, bandit.PolicySpec(kind, arm_index), env, T=T, u=u, seed=policy_seed,
        fit_budget=fit_budget or gp.FitBudget(restarts=2, max_evals=60),
    )


def test_criterion_1_telescoping_identity():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        losses = rng.uniform(0.0, 20.0, 1001)
        total = losses[0] - losses[-1]
        cum = bandit.cumulative_reward(
            bandit.History(initial_loss=losses[0], arms=[(0.1,)] * 1000,
                           losses_after=list(losses[1:]))
        )
        worst = max(worst, abs(cum - total) / max(abs(total), 1.0))
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1e-9 and elapsed < 1.0,
        f"1000x1000 telescoping, max relative error {worst:.2e}, {elapsed:.2f}s",
    )


def dense_posterior(hp, data, queries):
    """Independent textbook posterior: explicit inverse of K + sigma^2 I."""
    X, y = np.asarray(data.inputs), np.asarray(data.targets)
    Q = np.asarray(queries)
    m = hp.mean_constant
    K = gp.kernel_matrix(hp, X) + hp.noise_variance * np.eye(len(X))
    Kxq = np.array([[gp.kernel_matrix(hp, [x], [q])[0, 0] for q in Q] for x in X])
    Kqq = gp.kernel_matrix(hp, Q)
    Kinv = np.linalg.inv(K)
    mu = m + Kxq.T @ Kinv @ (y - m)
    cov = Kqq - Kxq.T @ Kinv @ Kxq
    return mu, cov


def test_criterion_2_posterior_matches_dense_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 9))
        hp = gp.GpHyperparams(
            mean_constant=float(rng.normal()),
            kernel=gp.MATERN52 if rng.random() < 0.5 else gp.SQUARED_EXPONENTIAL,
            lengthscales=tuple(rng.uniform(0.1, 1.0, d)),
            output_scale=float(rng.uniform(0.2, 3.0)),
            noise_variance=float(rng.uniform(1e-4, 0.5)),
        )
        data = gp.RegressionData(rng.uniform(0, 1, (n, d)), rng.normal(0, 2, n))
        queries = rng.uniform(0, 1, (10, d))
        mu, cov = gp.PosteriorGp(hp, data).predict(queries)
        mu_o, cov_o = dense_posterior(hp, data, queries)
        worst = max(worst, float(np.max(np.abs(mu - mu_o))), float(np.max(np.abs(cov - cov_o))))
    elapsed = time.monotonic() - start
    report(
        2,
        worst <= 1e-8 and elapsed < 10.0,
        f"100 datasets, max |posterior - oracle| {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_fit_contract_and_lengthscale_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    # (a) fitted log marginal likelihood never drops below the init's
    worst_drop = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(3, 12))
        data = gp.RegressionData(rng.uniform(0, 1, (n, d)), rng.normal(0, 1, n))
        init = bandit.default_gp_hyperparams(d)
        fitted = gp.fit_type2_mle(data, init, gp.FitBudget(restarts=2, max_evals=60))
        drop = gp.log_marginal_likelihood(init, data) - gp.log_marginal_likelihood(
            fitted, data
        )
        worst_drop = max(worst_drop, drop)
    # (b) recover a known lengthscale within factor 2 in the median
    true_ls = 0.2
    truth = gp.GpHyperparams((true_ls,), gp.MATERN52, 1.0, noise_variance=0.01)
    ratios = []
    for seed in range(20):
        r = np.random.default_rng(1000 + seed)
        X = np.sort(r.uniform(0, 1, 40)).reshape(-1, 1)
        K = gp.kernel_matrix(truth, X) + truth.noise_variance * np.eye(40)
        y = np.linalg.cholesky(K) @ r.standard_normal(40)
        fitted = gp.fit_type2_mle(
            gp.RegressionData(X, y),
            bandit.default_gp_hyperparams(1),
            gp.FitBudget(restarts=4, max_evals=200, seed=seed),
        )
        ratios.append(fitted.lengthscales[0] / true_ls)
    med = statistics.median(ratios)
    elapsed = time.monotonic() - start
    report(
        3,
        worst_drop <= 1e-9 and 0.5 <= med <= 2.0 and elapsed < 120.0,
        f"max LML drop {worst_drop:.2e}, median lengthscale ratio {med:.3f}, {elapsed:.1f}s",
    )


def test_criterion_4_prior_thompson_uniformity():
    start = time.monotonic()
    space = envs.make_grid(GRID_1D)
    hp = gp.GpHyperparams((0.01,), gp.MATERN52, 1.0, noise_variance=1e-4)
    post = gp.PosteriorGp(hp, gp.RegressionData.empty(1))
    counts = np.zeros(9, int)
    n = 10_000
    for s in range(n):
        idx = bandit.ts_select_arm(space, post, np.random.default_rng(123456 + s))
        counts[idx] += 1
    maxdev = float(np.max(np.abs(counts / n - 1 / 9)))
    elapsed = time.monotonic() - start
    report(
        4,
        maxdev <= 0.01 and elapsed < 30.0,
        f"10000 prior draws over 9 arms, max |freq - 1/9| = {maxdev:.4f}, {elapsed:.1f}s",
    )


BENCH_SPEC = envs.SyntheticPretrainSpec(rate=0.15)
N_SEEDS = 20
ENV_OFFSET = harness.DEFAULT_ENV_SEED_OFFSET


def mean_final(space, kind, env_factory, T=100, u=100, arm_index=None):
    finals = []
    for seed in range(N_SEEDS):
        hist = run_one(
            space, kind, seed, env_factory(ENV_OFFSET + seed), T, u, arm_index=arm_index
        )
        assert hist.error is None
        finals.append(hist.final_loss)
    return sum(finals) / len(finals)


def test_criterion_5_gp_ts_beats_baselines_on_benchmark():
    start = time.monotonic()
    space = envs.make_grid(GRID_1D)

    def env(seed):
        return envs.SyntheticPretrainEnv(BENCH_SPEC, seed=seed)

    gp_ts = mean_final(space, bandit.GP_TS, env)
    uniform = mean_final(space, bandit.UNIFORM_RANDOM, env)
    best_fixed = min(
        mean_final(space, bandit.FIXED_ARM, env, arm_index=i) for i in range(len(space))
    )
    elapsed = time.monotonic() - start
    report(
        5,
        gp_ts <= best_fixed + 0.05 and gp_ts < uniform and elapsed < 300.0,
        f"mean final loss: gp_ts {gp_ts:.4f}, best fixed {best_fixed:.4f}, "
        f"uniform {uniform:.4f}, {elapsed:.0f}s",
    )


def test_criterion_6_three_dim_search_beats_restricted_one_dim():
    start = time.monotonic()
    spec = envs.SyntheticPretrainSpec(
        optimum=(0.15, 0.2, 0.05), width=(0.08, 0.08, 0.08), rate=0.15
    )
    space3 = envs.make_grid(GRID_3D)
    mean3 = mean_final(
        space3, bandit.GP_TS, lambda s: envs.SyntheticPretrainEnv(spec, seed=s)
    )
    # 1-D search over rho only, with gamma and lambda pinned to defaults
    # that miss the optimum
    space1 = envs.make_grid(GRID_1D)
    mean1 = mean_final(
        space1,
        bandit.GP_TS,
        lambda s: PartialArmEnv(
            envs.SyntheticPretrainEnv(spec, seed=s), (None, 0.1, 0.1)
        ),
    )
    elapsed = time.monotonic() - start
    report(
        6,
        mean3 <= mean1 and elapsed < 600.0,
        f"mean final loss: 3-D gp_ts {mean3:.4f} vs 1-D restricted {mean1:.4f}, {elapsed:.0f}s",
    )


def test_criterion_7_stationary_regret_halves_uniform():
    start = time.monotonic()
    space = envs.make_grid(GRID_1D)
    h_vals = {arm: envs.test_function(arm[0]) for arm in space.arms}
    best = min(h_vals.values())

    def regret(hist):
        return sum(h_vals[arm] - best for arm in hist.arms)

    budget = gp.FitBudget(restarts=2, max_evals=40)
    wins = 0
    ratios = []
    for seed in range(N_SEEDS):
        gp_hist = run_one(
            space,
            bandit.GP_TS,
            seed,
            envs.NoisyTestFunctionEnv(noise_sd=0.1, seed=ENV_OFFSET + seed),
            T=200,
            u=1,
            fit_budget=budget,
        )
        un_hist = run_one(
            space,
            bandit.UNIFORM_RANDOM,
            seed,
            envs.NoisyTestFunctionEnv(noise_sd=0.1, seed=ENV_OFFSET + seed),
            T=200,
            u=1,
        )
        ratio = regret(gp_hist) / regret(un_hist)
        ratios.append(ratio)
        wins += ratio < 0.5
    elapsed = time.monotonic() - start
    report(
        7,
        wins >= 18 and elapsed < 120.0,
        f"regret(gp_ts) < 0.5 * regret(uniform) in {wins}/20 seeds "
        f"(median ratio {statistics.median(ratios):.3f}), {elapsed:.0f}s",
    )


def test_criterion_8_bridge_runs_match_in_process_bit_exactly():
    start = time.monotonic()
    space = envs.make_grid(GRID_1D)
    spec = BENCH_SPEC
    env_seed, policy_seed, T = ENV_OFFSET, 0, 20

    ref = run_one(
        space, bandit.GP_TS, policy_seed, envs.SyntheticPretrainEnv(spec, seed=env_seed), T, 100
    )
    config = {"synthetic": dataclasses.asdict(spec), "seed": env_seed}

    stdio_env = bridge.bridge_connect(
        [sys.executable, "-m", "gpts.cli", "mock-trainer", "--transport", "stdio"],
        space.names,
        config=config,
    )
    stdio_hist = run_one(space, bandit.GP_TS, policy_seed, stdio_env, T, 100)
    stdio_env.close()

    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    server = subprocess.Popen(
        [sys.executable, "-m", "gpts.cli", "mock-trainer", "--transport", f"tcp:{port}"]
    )
    try:
        tcp_env = bridge.bridge_connect(f"tcp:127.0.0.1:{port}", space.names, config=config)
        tcp_hist = run_one(space, bandit.GP_TS, policy_seed, tcp_env, T, 100)
        tcp_env.close()
        server.wait(timeout=10)
    finally:
        if server.poll() is None:
            server.kill()

    same = (
        stdio_hist == ref
        and tcp_hist == ref
        and stdio_hist.initial_loss == ref.initial_loss == tcp_hist.initial_loss
    )
    elapsed = time.monotonic() - start
    report(
        8,
        same and elapsed < 30.0,
        f"stdio and tcp GP-TS runs (T=20) bit-identical to in-process, {elapsed:.1f}s",
    )


def test_criterion_9_cli_reruns_byte_identical(tmp_path):
    raw = harness.default_config_dict()
    raw["T"] = 10
    raw["seeds"] = [0, 1]
    raw["policies"] = [
        {"kind": "gp_ts"},
        {"kind": "fixed_arm", "arm_index": 5},
        {"kind": "uniform_random"},
    ]
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, err = run_cli(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0, err
        outputs.append({p.name: p.read_bytes() for p in Path(out).glob("*.csv")})
    same = outputs[0] == outputs[1] and len(outputs[0]) == 7
    report(9, same, f"{len(outputs[0])} CSVs byte-identical across repeated runs")
