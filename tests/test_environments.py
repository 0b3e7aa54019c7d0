"""Environment tests: the protocol every environment keeps, synthetic
pre-training dynamics, the stationary test function, and CSV replay."""

import csv
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from helpers import PartialArmEnv

from gpts import bandit, bridge, environments as envs, gp, report
from gpts.errors import DataError, InvalidArgumentError

MOCK_CMD = [sys.executable, "-m", "gpts.cli", "mock-trainer", "--transport", "stdio"]


def noiseless_spec(**kw):
    kw.setdefault("noise_sd", 0.0)
    return envs.SyntheticPretrainSpec(**kw)


class TestSyntheticPretrain:
    def test_first_step_at_optimum_matches_recurrence(self):
        # default spec: 1.5 + 8.5 * (1 - 0.3 * 100/101)
        env = envs.SyntheticPretrainEnv(noiseless_spec(), seed=0)
        env.init()
        loss = env.step((0.3,), 100)
        assert loss == pytest.approx(7.475247524752475, abs=1e-12)

    def test_loss_decreases_to_floor_at_optimum(self):
        env = envs.SyntheticPretrainEnv(noiseless_spec(), seed=0)
        prev = env.init()
        for _ in range(300):
            loss = env.step((0.3,), 100)
            assert loss < prev or loss == pytest.approx(1.5, abs=1e-9)
            prev = loss
        assert prev == pytest.approx(1.5, abs=1e-3)

    def test_zero_efficiency_leaves_loss_unchanged(self):
        # ((1e300 - 0.3) / 0.08) ** 2 overflows a float; exp(-inf) is 0
        for far in (1e6, 1e300):
            env = envs.SyntheticPretrainEnv(noiseless_spec(), seed=0)
            y0 = env.init()
            loss = env.step((far,), 100)
            assert loss == pytest.approx(y0, abs=1e-9)

    def test_noiseless_monotone(self):
        env = envs.SyntheticPretrainEnv(noiseless_spec(), seed=0)
        rng = np.random.default_rng(0)
        prev = env.init()
        for _ in range(50):
            arm = (float(rng.uniform(0, 0.5)),)
            loss = env.step(arm, 20)
            assert loss <= prev
            prev = loss

    def test_deterministic_given_seed(self):
        a = envs.SyntheticPretrainEnv(envs.SyntheticPretrainSpec(), seed=42)
        b = envs.SyntheticPretrainEnv(envs.SyntheticPretrainSpec(), seed=42)
        a.init(), b.init()
        for _ in range(10):
            assert a.step((0.2,), 10) == b.step((0.2,), 10)

    def test_integer_settings_give_float_losses(self):
        # rate 2 overshoots, so the first step is clamped to the floor
        spec = noiseless_spec(initial_loss=10, floor=1, rate=2)
        env = envs.SyntheticPretrainEnv(spec, seed=0)
        losses = [env.init(), env.step((0.3,), 100)]
        assert losses == [10.0, 1.0]
        assert [type(loss) for loss in losses] == [float, float]

    def test_init_only_once(self):
        env = envs.SyntheticPretrainEnv(envs.SyntheticPretrainSpec(), seed=0)
        env.init()
        with pytest.raises(InvalidArgumentError):
            env.init()

    def test_efficiency_bounds(self):
        spec = envs.SyntheticPretrainSpec(optimum=(0.1, 0.2), width=(0.05, 0.05))
        assert envs.efficiency(spec, (0.1, 0.2)) == 1.0
        assert 0.0 < envs.efficiency(spec, (0.4, 0.4)) < 1.0


# the test function's minimizer, as its definition documents it
TEST_FUNCTION_MINIMIZER = 0.35


class TestNoisyTestFunction:
    def test_minimum_at_documented_minimizer(self):
        h = envs.test_function
        xs = np.linspace(0.001, 0.499, 4999)
        vals = [h(x) for x in xs]
        assert min(vals) >= h(TEST_FUNCTION_MINIMIZER) - 1e-9

    def test_point_whose_square_overflows_is_at_the_baseline(self):
        # each well is 0 there, as exp(-inf) is
        assert envs.test_function(1e300) == envs.TEST_FUNCTION_BASELINE
        assert envs.test_function(-2e200) == envs.TEST_FUNCTION_BASELINE

    def test_noiseless_env_returns_h(self):
        env = envs.NoisyTestFunctionEnv(noise_sd=0.0, seed=0)
        env.init()
        loss = env.step((TEST_FUNCTION_MINIMIZER,), 1)
        assert loss == envs.test_function(TEST_FUNCTION_MINIMIZER)

    def test_expected_ordering_matches_h(self):
        good, bad = (0.35,), (0.2,)
        env = envs.NoisyTestFunctionEnv(noise_sd=0.1, seed=1)
        env.init()
        diffs = []
        for _ in range(10_000):
            diffs.append(
                env.step(bad, 1) - env.step(good, 1)
            )
        assert np.mean(diffs) > 0  # matches h(0.2) > h(0.35)

    def test_fixed_seed_identical_sequence(self):
        seqs = []
        for _ in range(2):
            env = envs.NoisyTestFunctionEnv(noise_sd=0.1, seed=9)
            env.init()
            seqs.append([env.step((0.3,), 1) for _ in range(20)])
        assert seqs[0] == seqs[1]


class TestReplay:
    def space(self):
        return envs.make_grid([dict(lower=0.0, upper=0.5, step=0.05, name="rho")])

    def test_lookup_verbatim(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "arm_index,interaction,val_loss\n-1,0,10.0\n3,1,2.31\n"
        )
        spec = envs.load_replay_csv(path)
        env = envs.ReplayEnv(spec, self.space())
        assert env.init() == 10.0
        assert env.step((0.2,), 5) == 2.31

    def test_missing_entry_errors(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("arm_index,interaction,val_loss\n-1,0,10.0\n")
        env = envs.ReplayEnv(envs.load_replay_csv(path), self.space())
        env.init()
        with pytest.raises(DataError, match="arm 0 at interaction 1"):
            env.step((0.05,), 5)

    def test_missing_initial_loss_errors(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("arm_index,interaction,val_loss\n0,1,2.0\n")
        with pytest.raises(DataError, match="initial-loss"):
            envs.load_replay_csv(path)

    @pytest.mark.parametrize(
        "rows,line",
        [
            ("-1,0,10.0\n3,1,5.0\n-1,0,99.0\n", "line 4: second initial-loss row"),
            ("-1,0,10.0\n3,1,2.0\n3,1,5.0\n", "line 4: second row for arm 3 at interaction 1"),
        ],
        ids=["initial_loss", "arm_and_interaction"],
    )
    def test_duplicate_row_errors(self, tmp_path, rows, line):
        # the last duplicate no longer wins: the log is ambiguous
        path = tmp_path / "log.csv"
        path.write_text("arm_index,interaction,val_loss\n" + rows)
        with pytest.raises(DataError, match=line):
            envs.load_replay_csv(path)

    @pytest.mark.parametrize(
        "loss,message",
        [(b"\xff", "cannot decode replay CSV"),
         (b"1" * 200_000, "line 3: field larger than field limit")],
        ids=["not_utf8", "field_over_limit"],
    )
    def test_unreadable_field_errors(self, tmp_path, loss, message):
        path = tmp_path / "log.csv"
        path.write_bytes(b"arm_index,interaction,val_loss\n-1,0,10.0\n3,1," + loss + b"\n")
        with pytest.raises(DataError, match=message) as info:
            envs.load_replay_csv(path)
        assert str(path) in str(info.value)

    def test_bad_header_errors(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            envs.load_replay_csv(path)

    def test_round_trip_reproduces_history(self, tmp_path):
        spec = envs.SyntheticPretrainSpec()
        self.check_round_trip(tmp_path, self.space(), spec, bandit.PolicySpec(bandit.FIXED_ARM, 4))

    def test_round_trip_reproduces_history_on_3d_grid(self, tmp_path):
        # every arm index a uniform policy plays goes through the CSV
        space = envs.make_grid([dict(lower=0.0, upper=0.5, step=0.1)] * 3)
        spec = envs.SyntheticPretrainSpec(optimum=(0.3,) * 3, width=(0.2,) * 3)
        self.check_round_trip(tmp_path, space, spec, bandit.PolicySpec(bandit.UNIFORM_RANDOM))

    @staticmethod
    def check_round_trip(tmp_path, space, spec, cfg):
        env = envs.SyntheticPretrainEnv(spec, seed=21)
        original = bandit.run_policy(space, cfg, env, T=15, u=30)

        path = tmp_path / "log.csv"
        envs.write_replay_csv(path, original, space)
        replay_env = envs.ReplayEnv(envs.load_replay_csv(path), space)
        replayed = bandit.run_policy(space, cfg, replay_env, T=15, u=30)
        assert replayed == original
        assert replayed.initial_loss == original.initial_loss


# make_grid specs in 1, 2, 3 and 5 dimensions, with inexact steps and
# negative bounds
LATTICES = {
    "1d": [dict(lower=-0.3, upper=0.5, step=0.07)],
    "2d": [dict(lower=-2.0, upper=0.0, step=0.07), dict(lower=-2.0, upper=1.0, step=0.3)],
    "3d": [dict(lower=0.0, upper=1.0, step=0.1)] * 3,
    "5d": [dict(lower=-1.0, upper=0.7, step=0.45)] * 5,
}


def build_peak(space):
    """The tracemalloc peak of building the space's distance table."""
    tracemalloc.start()
    try:
        gp._SpaceRecord(space)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def distances(space):
    """The space's distance table and index, as GP-TS's record of it holds them."""
    record = gp._space_record(space)
    return record.table, record.index


class TestArmSpaceDistances:
    # gp keeps the table per arm space, from which it gathers the prior
    # Gram matrix; the arm space itself holds no GP state
    @pytest.mark.parametrize("shape", LATTICES)
    def test_table_gathers_every_pair_distance_exactly(self, shape):
        space = envs.make_grid(LATTICES[shape])
        table, index = distances(space)
        A = space.array
        assert table.shape[0] == space.ndim and index.shape == (len(space),) * 2
        for j in range(space.ndim):
            assert np.array_equal(table[j][index], np.abs(A[:, j, None] - A[None, :, j]))
        # each combination appears once, in product order, last dimension fastest
        assert len(set(map(tuple, table.T.tolist()))) == table.shape[1]
        assert np.array_equal(table, table[:, np.lexsort(table[::-1])])
        assert not (table.flags.writeable or index.flags.writeable)

    def test_nine_value_dimensions_have_21_distances(self):
        # equal index lags differ in the last bits: 21 distances, not 17
        table, index = distances(envs.make_grid(LATTICES["3d"]))
        assert table.shape == (3, 21**3)

    def test_index_dtype_is_the_smallest_that_holds_the_combinations(self):
        assert distances(envs.make_grid([dict(lower=0.0, upper=1.0, step=0.1)]))[1].dtype == np.uint8
        assert distances(envs.make_grid(LATTICES["3d"]))[1].dtype == np.uint16
        # 256 combinations, all of them the second dimension's, after a
        # one-value first dimension: the largest, 255, still fits in uint8
        space = envs.ArmSpace((envs.GridDim(0.0, 1.0, 1.0), envs.GridDim(0.0, 1.0, 1 / 512)),
                              ((0.5,), tuple(k / 512 for k in range(1, 257))))
        table, index = distances(space)
        assert index.dtype == np.uint8 and table.shape == (2, 256)
        assert np.array_equal(table[1][index], np.abs(space.array[:, 1, None] - space.array[:, 1]))

    def test_build_memory_is_the_index(self):
        space = envs.make_grid(LATTICES["3d"])
        space.array
        peak = build_peak(space)
        assert peak <= distances(space)[1].nbytes + 2**20
        line = envs.make_grid([dict(lower=0.0, upper=1.0, step=0.0005)])
        assert len(line) == 1999
        peak = build_peak(line)
        assert peak <= 2 * distances(line)[1].nbytes + 2**20

    def test_one_value_dimensions(self):
        # a dimension of one value has the one distance 0
        space = envs.make_grid([dict(lower=0.0, upper=1.0, step=0.6), dict(lower=0.0, upper=0.4, step=0.1),
                                dict(lower=-1.0, upper=0.0, step=0.9)])
        table, index = distances(space)
        assert len(space) == 3 and set(table[0].tolist()) == set(table[2].tolist()) == {0.0}
        for j in range(3):
            assert np.array_equal(table[j][index], np.abs(space.array[:, j, None] - space.array[:, j]))

    def test_built_on_first_use_only(self, monkeypatch):
        monkeypatch.setattr(gp, "_SPACE_RECORDS", weakref.WeakKeyDictionary())
        space = envs.make_grid(LATTICES["2d"])
        space.arms, space.array, space.index_of(space.arms[-1])
        assert not gp._SPACE_RECORDS
        assert gp._space_record(space) is gp._space_record(space)


class Recorder:
    """Passes calls through to an environment and keeps what it returned."""

    def __init__(self, env):
        self.env = env
        self.returned = []

    def init(self):
        self.returned.append(self.env.init())
        return self.returned[-1]

    def step(self, arm, u):
        self.returned.append(self.env.step(arm, u))
        return self.returned[-1]


def contract_env(kind, space, T):
    if kind == "synthetic":
        return envs.SyntheticPretrainEnv(envs.SyntheticPretrainSpec(), seed=3)
    if kind == "test_function":
        return envs.NoisyTestFunctionEnv(noise_sd=0.1, seed=3)
    if kind == "replay":
        table = {(i, t): 10.0 - t - 0.01 * i for i in range(len(space)) for t in range(1, T + 1)}
        return envs.ReplayEnv(envs.ReplaySpec(table=table, initial_loss=10.0), space)
    if kind == "bridge":
        return bridge.bridge_connect(MOCK_CMD, space.names, config={"seed": 3}, timeout_s=60.0)
    spec = envs.SyntheticPretrainSpec(optimum=(0.2, 0.1, 0.1), width=(0.05,) * 3)
    return PartialArmEnv(envs.SyntheticPretrainEnv(spec, seed=3), (None, 0.1, 0.1))


@pytest.mark.parametrize("kind", ["synthetic", "test_function", "replay", "bridge", "partial_arm"])
def test_environment_contract(kind, tmp_path):
    # init and step return bare float losses; the run loop alone numbers
    # the interactions, so both CSVs of a run read 1..T and its replay
    # CSV plays the run back
    T = 4
    space = envs.make_grid([dict(lower=0.0, upper=0.5, step=0.05, name="rho")])
    cfg = bandit.PolicySpec(bandit.GP_TS)
    env = contract_env(kind, space, T)
    try:
        rec = Recorder(env)
        hist = bandit.run_policy(space, cfg, rec, T=T, u=10)
    finally:
        if hasattr(env, "close"):
            env.close()
    assert hist.error is None
    assert [type(loss) for loss in rec.returned] == [float] * (T + 1)

    run_csv, replay_csv = tmp_path / "run.csv", tmp_path / "replay.csv"
    report.write_run_csv(run_csv, 0, "gp_ts", hist, space)
    envs.write_replay_csv(replay_csv, hist, space)
    for path in (run_csv, replay_csv):
        with path.open(newline="") as fh:
            interactions = [row["interaction"] for row in csv.DictReader(fh)]
        assert interactions == [str(t) for t in range(T + 1)]  # the initial loss, then 1..T
    replay = envs.ReplayEnv(envs.load_replay_csv(replay_csv), space)
    assert bandit.run_policy(space, cfg, replay, T=T, u=10) == hist
