"""Wire-protocol tests: the line transport and transport specs,
handshake, interaction matching, error replies, misbehaving trainers,
and in-process vs out-of-process equivalence over both transports."""

import dataclasses
import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from gpts import bandit, bridge, environments as envs
from gpts.errors import BridgeError, InvalidArgumentError, ProtocolError

MOCK_CMD = [sys.executable, "-m", "gpts.cli", "mock-trainer", "--transport", "stdio"]

INIT_ACK = (json.dumps({"type": "init_ack", "v": 1, "initial_val_loss": 10.0}) + "\n").encode()
STEP_ACK = (json.dumps({"type": "step_ack", "v": 1, "interaction": 1, "val_loss": 9.0}) + "\n").encode()
NOT_UTF8 = b"\xff\xfe not utf-8\n"


def spec_config(spec, seed):
    return {"synthetic": dataclasses.asdict(spec), "seed": seed}


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def fake_trainer(body):
    """argv of a trainer running ``body`` with ``recv()`` (one stdin line)
    and ``send(data)`` (raw bytes to stdout); it exits within 5 s."""
    prelude = (
        "import signal, sys, time\n"
        "signal.alarm(5)\n"
        "def recv(): return sys.stdin.buffer.readline()\n"
        "def send(data): sys.stdout.buffer.write(data); sys.stdout.buffer.flush()\n"
    )
    return [sys.executable, "-c", prelude + body]


class ScriptedTransport:
    """Feeds canned reply lines to the client."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.sent = []

    def send_line(self, line):
        self.sent.append(json.loads(line))

    def recv_line(self, timeout_s):
        return self.replies.pop(0)

    def close(self):
        pass


class LineRecorder(ScriptedTransport):
    """Feeds canned lines and records the lines sent as they are on the
    wire; runs out like a closed connection."""

    def send_line(self, line):
        self.sent.append(line)

    def recv_line(self, timeout_s):
        if not self.replies:
            raise BridgeError("bridge peer closed the connection")
        return super().recv_line(timeout_s)


GOLDEN_INIT = '{"type": "init", "v": 1, "arm_names": ["rho"], "config": {"seed": 3}}'
GOLDEN_STEP = '{"type": "step", "v": 1, "interaction": 1, "arm": {"rho": 0.2}, "updates": 100}'
STEP_2 = GOLDEN_STEP.replace('"interaction": 1', '"interaction": 2')
BAD_STEP = GOLDEN_STEP.replace('"updates": 100', '"updates": 0')
# Python parses no integer of more than 4300 digits
HUGE_INTEGER = "9" * 5000
HUGE_STEP = GOLDEN_STEP.replace('"interaction": 1', f'"interaction": {HUGE_INTEGER}')

# Every error code the mock trainer sends: (code, lines served before,
# the refused line, its detail, the next line, which is served).
REFUSALS = [
    ("version_mismatch", [], GOLDEN_INIT.replace('"v": 1', '"v": 2'), "server speaks v1",
     GOLDEN_INIT),
    # the simulator set up before a refused init keeps serving
    ("bad_config", [GOLDEN_INIT, GOLDEN_STEP], GOLDEN_INIT.replace('["rho"]', '["rho", "gamma"]'),
     "2 arm names for a 1-D simulator", STEP_2),
    ("not_initialized", [], GOLDEN_STEP, "step before init", GOLDEN_INIT),
    ("malformed", [], "not json", "malformed message: 'not json'", GOLDEN_INIT),
    ("malformed", [GOLDEN_INIT], BAD_STEP, f"bad step message: {BAD_STEP!r}", GOLDEN_STEP),
    ("duplicate_interaction", [GOLDEN_INIT, GOLDEN_STEP], GOLDEN_STEP,
     "interaction 1 already served", STEP_2),
    ("bad_interaction", [GOLDEN_INIT], STEP_2, "expected interaction 1, got 2", GOLDEN_STEP),
    ("unknown_type", [], '{"type": "ping", "v": 1}', "unknown message type 'ping'", GOLDEN_INIT),
    ("malformed", [GOLDEN_INIT], HUGE_STEP, f"malformed message: {HUGE_STEP[:200]!r}", GOLDEN_STEP),
]


class TestWireFormat:
    """The exact line of each message type, key order included."""

    def test_client_lines(self):
        t = LineRecorder([INIT_ACK.decode(), STEP_ACK.decode()])
        env = bridge.BridgeEnvironment(t, ["rho"], config={"seed": 3})
        env.init()
        env.step((0.2,), 100)
        env.close()
        assert t.sent == [GOLDEN_INIT, GOLDEN_STEP, '{"type": "shutdown", "v": 1}']

    def test_mock_trainer_lines(self):
        ref = envs.SyntheticPretrainEnv(envs.SyntheticPretrainSpec(), seed=3)
        ref.init()
        loss = ref.step((0.2,), 100)
        channel = LineRecorder([GOLDEN_INIT + "\n", GOLDEN_STEP + "\n", GOLDEN_STEP + "\n"])
        assert bridge._serve(channel) == 0
        assert channel.sent == [
            '{"type": "init_ack", "v": 1, "initial_val_loss": 10.0}',
            f'{{"type": "step_ack", "v": 1, "interaction": 1, "val_loss": {loss!r}}}',
            '{"type": "error", "v": 1, "code": "duplicate_interaction",'
            ' "detail": "interaction 1 already served"}',
        ]


class TestMockTrainerRejects:
    """An init or step the mock trainer cannot serve gets an error reply,
    and the trainer serves the next message."""

    def serve(self, *messages):
        channel = LineRecorder([json.dumps(m) + "\n" for m in messages])
        assert bridge._serve(channel) == 0
        return [(m["type"], m.get("code")) for m in map(json.loads, channel.sent)]

    @pytest.mark.parametrize(
        "code, before, bad, detail, after",
        REFUSALS,
        ids=[f"{code}-{i}" for i, (code, *_) in enumerate(REFUSALS)],
    )
    def test_each_refusal_on_the_wire(self, code, before, bad, detail, after):
        channel = LineRecorder([line + "\n" for line in [*before, bad, after]])
        assert bridge._serve(channel) == 0
        assert len(channel.sent) == len(before) + 2
        *_, error, reply = channel.sent
        assert error == (
            f'{{"type": "error", "v": 1, "code": "{code}", "detail": {json.dumps(detail)}}}'
        )
        assert json.loads(reply)["type"] == json.loads(after)["type"] + "_ack"

    def test_readme_and_docstring_name_every_code(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Driving a real trainer")[1].split("\n## ")[0]
        for code, *_ in REFUSALS:
            assert f"`{code}`" in section
            assert f"``{code}``" in bridge.__doc__

    @pytest.mark.parametrize(
        "fields",
        [
            {"config": [1]},
            {"config": {"seed": "3"}},
            {"config": {"seed": 1.7}},
            {"config": {"seed": -1}},
            {"arm_names": 5},
            {"arm_names": "rho"},
            {"arm_names": [1]},
            {"arm_names": ["rho", "gamma"]},
            {"arm_names": None},
            {"config": {"seed": True}},
            {"config": {"synthetic": {"rate": True}}},
            {"config": {"synthetic": {"noise_sd": math.nan}}},
        ],
        ids=["config_list", "seed_str", "seed_float", "seed_negative", "names_int", "names_str",
             "names_of_int", "names_2d", "names_missing", "seed_bool", "synthetic_bool",
             "synthetic_nan"],
    )
    def test_bad_init_is_bad_config(self, fields):
        init = {**json.loads(GOLDEN_INIT), **fields}
        replies = self.serve(init, json.loads(GOLDEN_INIT), json.loads(GOLDEN_STEP))
        assert replies == [("error", "bad_config"), ("init_ack", None), ("step_ack", None)]

    @pytest.mark.parametrize(
        "fields",
        [{"interaction": 1.7}, {"interaction": "1"}, {"updates": 2.9}, {"updates": 0},
         {"updates": -1}, {"interaction": True}, {"updates": True}],
        ids=["interaction_float", "interaction_str", "updates_float", "updates_zero",
             "updates_negative", "interaction_bool", "updates_bool"],
    )
    def test_non_integer_step_field_is_malformed(self, fields):
        step = json.loads(GOLDEN_STEP)
        replies = self.serve(json.loads(GOLDEN_INIT), {**step, **fields}, step)
        assert replies == [("init_ack", None), ("error", "malformed"), ("step_ack", None)]

    def test_arm_value_not_a_finite_number_is_malformed(self):
        # float() takes each of these values, or overflows on the integers
        huge = "1" + "0" * 400
        bad = [GOLDEN_STEP.replace('"rho": 0.2', f'"rho": {v}')
               for v in ('"0.3"', "true", '"nan"', "NaN", "Infinity", huge)]
        bad.append(GOLDEN_STEP.replace('"updates": 100', f'"updates": {huge}'))
        channel = LineRecorder([line + "\n" for line in [GOLDEN_INIT, *bad, GOLDEN_STEP]])
        assert bridge._serve(channel) == 0
        replies = [(m["type"], m.get("code")) for m in map(json.loads, channel.sent)]
        assert replies == [("init_ack", None), *[("error", "malformed")] * 7, ("step_ack", None)]


    def test_arm_far_from_the_optimum_is_served(self):
        # its efficiency is 0 where the float square overflows
        ref = envs.SyntheticPretrainEnv(envs.SyntheticPretrainSpec(), seed=3)
        ref.init()
        loss = ref.step((1e300,), 100)
        far = GOLDEN_STEP.replace('"rho": 0.2', '"rho": 1e300')
        channel = LineRecorder([GOLDEN_INIT + "\n", far + "\n"])
        assert bridge._serve(channel) == 0
        assert channel.sent[1] == (
            f'{{"type": "step_ack", "v": 1, "interaction": 1, "val_loss": {loss!r}}}'
        )


class TestClientProtocol:
    def test_init_echoes_initial_loss(self):
        t = ScriptedTransport([json.dumps({"type": "init_ack", "v": 1, "initial_val_loss": 10.0})])
        env = bridge.BridgeEnvironment(t, ["rho"])
        assert env.init() == 10.0
        assert t.sent[0]["type"] == "init" and t.sent[0]["v"] == 1

    def test_mismatched_ack_interaction_is_protocol_error(self):
        t = ScriptedTransport(
            [
                json.dumps({"type": "init_ack", "v": 1, "initial_val_loss": 10.0}),
                json.dumps({"type": "step_ack", "v": 1, "interaction": 4, "val_loss": 1.0}),
            ]
        )
        env = bridge.BridgeEnvironment(t, ["rho"])
        env.init()
        with pytest.raises(ProtocolError, match="does not match"):
            env.step((0.2,), 10)

    def test_error_reply_raises_bridge_error(self):
        t = ScriptedTransport(
            [json.dumps({"type": "error", "v": 1, "code": "boom", "detail": "gpu on fire"})]
        )
        env = bridge.BridgeEnvironment(t, ["rho"])
        with pytest.raises(BridgeError, match="boom"):
            env.init()

    def test_malformed_reply_is_protocol_error(self):
        t = ScriptedTransport(["this is not json\n"])
        env = bridge.BridgeEnvironment(t, ["rho"])
        with pytest.raises(ProtocolError, match="malformed"):
            env.init()

    def test_deeply_nested_reply_is_protocol_error(self):
        t = ScriptedTransport(["[" * 100_000 + "\n"])
        env = bridge.BridgeEnvironment(t, ["rho"])
        with pytest.raises(ProtocolError, match="malformed"):
            env.init()

    def test_step_message_shape(self):
        t = ScriptedTransport(
            [
                json.dumps({"type": "init_ack", "v": 1, "initial_val_loss": 10.0}),
                json.dumps({"type": "step_ack", "v": 1, "interaction": 1, "val_loss": 9.0}),
            ]
        )
        env = bridge.BridgeEnvironment(t, ["rho"])
        env.init()
        env.step((0.2,), 1000)
        msg = t.sent[1]
        assert msg == {
            "type": "step",
            "v": 1,
            "interaction": 1,
            "arm": {"rho": 0.2},
            "updates": 1000,
        }


MISSING = object()
# ack loss fields that are not JSON numbers
NOT_A_NUMBER = {
    "missing": MISSING,
    "null": None,
    "string": "abc",
    "list": [1],
    "numeric_string": "9.5",
    "bool": True,
}
NOT_A_NUMBER_CASES = pytest.mark.parametrize(
    "value", NOT_A_NUMBER.values(), ids=NOT_A_NUMBER.keys()
)


def ack(kind, field, value, **fields):
    msg = {"type": kind, "v": 1, **fields}
    if value is not MISSING:
        msg[field] = value
    return json.dumps(msg)


class TestAckLoss:
    @NOT_A_NUMBER_CASES
    def test_init_ack_without_number_is_protocol_error(self, value):
        t = ScriptedTransport([ack("init_ack", "initial_val_loss", value)])
        env = bridge.BridgeEnvironment(t, ["rho"])
        with pytest.raises(ProtocolError, match="initial_val_loss is not a number"):
            env.init()

    @NOT_A_NUMBER_CASES
    def test_step_ack_without_number_gives_partial_history(self, value):
        space = envs.make_grid([dict(lower=0.0, upper=0.5, step=0.05, name="rho")])
        t = ScriptedTransport(
            [
                json.dumps({"type": "init_ack", "v": 1, "initial_val_loss": 10.0}),
                json.dumps({"type": "step_ack", "v": 1, "interaction": 1, "val_loss": 9.0}),
                ack("step_ack", "val_loss", value, interaction=2),
            ]
        )
        env = bridge.BridgeEnvironment(t, space.names)
        cfg = bandit.PolicySpec(bandit.GP_TS)
        hist = bandit.run_policy(space, cfg, env, T=5, u=10)
        assert hist.losses_after == [9.0]
        assert hist.error.startswith("interaction 2: step_ack val_loss is not a number")

    def test_integer_loss_is_a_number(self):
        t = ScriptedTransport([json.dumps({"type": "init_ack", "v": 1, "initial_val_loss": 10})])
        loss = bridge.BridgeEnvironment(t, ["rho"]).init()
        assert loss == 10.0 and type(loss) is float

    @pytest.mark.parametrize(
        "loss,shown", [(float("nan"), "nan"), (-(10**400), "-inf")], ids=["nan", "huge_int"]
    )
    def test_non_finite_loss_is_diverged_run(self, loss, shown):
        space = envs.make_grid([dict(lower=0.0, upper=0.5, step=0.05, name="rho")])
        t = ScriptedTransport(
            [
                json.dumps({"type": "init_ack", "v": 1, "initial_val_loss": 10.0}),
                json.dumps({"type": "step_ack", "v": 1, "interaction": 1, "val_loss": loss}),
            ]
        )
        env = bridge.BridgeEnvironment(t, space.names)
        cfg = bandit.PolicySpec(bandit.GP_TS)
        hist = bandit.run_policy(space, cfg, env, T=5, u=10)
        assert len(hist) == 0
        assert hist.error == f"interaction 1: diverged (validation loss {shown})"


class TestLineTransport:
    @pytest.mark.parametrize("kind", ["pipe", "socketpair"])
    def test_lines_partial_lines_bad_bytes_and_eof(self, kind):
        # The transport reads back what it writes: the write fd feeds the read fd.
        if kind == "pipe":
            read_fd, write_fd = os.pipe()
            close_read, close_write = (lambda: os.close(read_fd)), (lambda: os.close(write_fd))
        else:
            reader, writer = socket.socketpair()
            read_fd, write_fd = reader.fileno(), writer.fileno()
            close_read, close_write = reader.close, writer.close
        closed = []

        def closer():
            closed.append(True)
            close_read()

        t = bridge._LineTransport(read_fd, write_fd, closer)
        t.send_line('{"rho": "\u00fc"}')
        os.write(write_fd, b"one\ntwo\npar")
        assert t.recv_line(0) == '{"rho": "\u00fc"}\n'
        assert t.recv_line(0.5) == "one\n"
        assert t.recv_line(0.5) == "two\n"
        with pytest.raises(BridgeError, match="timed out"):
            t.recv_line(0.2)
        os.write(write_fd, b"tial\n" + NOT_UTF8 + b"after\n")
        assert t.recv_line(0.5) == "partial\n"
        with pytest.raises(ProtocolError, match="UTF-8"):
            t.recv_line(0.5)
        assert t.recv_line(0.5) == "after\n"
        close_write()
        with pytest.raises(BridgeError, match="closed"):
            t.recv_line(0)
        t.close()
        assert closed == [True]

    def test_timeout_covers_the_whole_line(self):
        read_fd, write_fd = os.pipe()
        t = bridge._LineTransport(read_fd, write_fd, lambda: None)

        def trickle():
            for _ in range(20):
                os.write(write_fd, b"x")
                time.sleep(0.05)

        writer = threading.Thread(target=trickle)
        writer.start()
        start = time.monotonic()
        try:
            with pytest.raises(BridgeError, match="timed out"):
                t.recv_line(0.3)
            elapsed = time.monotonic() - start
        finally:
            writer.join(timeout=5)
            os.close(read_fd)
            os.close(write_fd)
        assert not writer.is_alive()
        assert elapsed < 0.8


class TestSpawnedTrainerReplies:
    def test_second_line_of_one_write_needs_no_wait(self):
        argv = fake_trainer(f"recv(); send({INIT_ACK + STEP_ACK!r}); recv(); recv()")
        env = bridge.bridge_connect(argv, ["rho"], timeout_s=0.5)
        try:
            env.init()
            start = time.monotonic()
            assert env.step((0.2,), 10) == 9.0
            assert time.monotonic() - start < 0.4
        finally:
            env.close()

    def test_partial_line_then_stall_times_out(self):
        argv = fake_trainer("recv(); send(b'{\"type\": \"init_ack\"'); time.sleep(3)")
        env = bridge.bridge_connect(argv, ["rho"], timeout_s=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(BridgeError, match="timed out"):
                env.init()
            assert time.monotonic() - start < 2.0
        finally:
            env.close()

    def test_non_utf8_reply_gives_partial_history(self):
        space = envs.make_grid([dict(lower=0.0, upper=0.5, step=0.05, name="rho")])
        argv = fake_trainer(f"recv(); send({INIT_ACK!r}); recv(); send({NOT_UTF8!r}); recv()")
        env = bridge.bridge_connect(argv, space.names, timeout_s=5.0)
        cfg = bandit.PolicySpec(bandit.FIXED_ARM, 0)
        try:
            hist = bandit.run_policy(space, cfg, env, T=3, u=10)
        finally:
            env.close()
        assert len(hist) == 0
        assert "UTF-8" in hist.error

    def test_oversized_integer_reply_gives_partial_history(self):
        space = envs.make_grid([dict(lower=0.0, upper=0.5, step=0.05, name="rho")])
        huge_ack = STEP_ACK.replace(b"9.0", HUGE_INTEGER.encode())
        argv = fake_trainer(f"recv(); send({INIT_ACK!r}); recv(); send({huge_ack!r}); recv()")
        env = bridge.bridge_connect(argv, space.names, timeout_s=5.0)
        cfg = bandit.PolicySpec(bandit.FIXED_ARM, 0)
        try:
            hist = bandit.run_policy(space, cfg, env, T=3, u=10)
        finally:
            env.close()
        assert len(hist) == 0
        assert hist.error.startswith("interaction 1: malformed message")


class TestTransportSpec:
    @pytest.mark.parametrize("spec", ["tcp:[::1]:9000", "tcp:::1:9000"])
    def test_ipv6_host(self, monkeypatch, spec):
        ours, theirs = socket.socketpair()
        addresses = []

        def fake_connect(address, timeout):
            addresses.append(address)
            return ours

        monkeypatch.setattr(bridge.socket, "create_connection", fake_connect)
        env = bridge.bridge_connect(spec, ["rho"])
        env.close()
        with theirs:
            assert theirs.recv(1024) == b'{"type": "shutdown", "v": 1}\n'
        assert addresses == [("::1", 9000)]

    @pytest.mark.parametrize(
        "spec", ["tcp:9000", "tcp:[::1]", "tcp:host:port", "tcp:host:70000", [], 9000, None]
    )
    def test_bad_spec_is_invalid_argument(self, spec):
        with pytest.raises(InvalidArgumentError):
            bridge.bridge_connect(spec, ["rho"])

    @pytest.mark.parametrize("timeout_s", [math.inf, -1.0, math.nan, 1e10, "5", True])
    def test_bad_timeout_is_invalid_argument(self, timeout_s):
        # checked before the trainer is spawned
        with pytest.raises(InvalidArgumentError, match="timeout_s"):
            bridge.bridge_connect(MOCK_CMD, ["rho"], timeout_s=timeout_s)

    @pytest.mark.parametrize(
        "arm_names,config,message",
        [(["rho"], [1, 2], "config must be a mapping"),
         (5, None, "arm_names must be a sequence of strings"),
         ("rho", None, "arm_names must be a sequence of strings"),
         (["rho", 3], None, "arm_names must be a sequence of strings")],
        ids=["config_list", "arm_names_int", "arm_names_str", "arm_name_int"],
    )
    def test_bad_arguments_spawn_no_trainer(self, arm_names, config, message, monkeypatch):
        spawned = []
        monkeypatch.setattr(bridge.subprocess, "Popen", lambda *a, **k: spawned.append(a))
        with pytest.raises(InvalidArgumentError, match=message):
            bridge.bridge_connect(MOCK_CMD, arm_names, config=config)
        assert spawned == []

    def test_longest_timeout_is_accepted_by_select(self):
        read_fd, write_fd = os.pipe()
        t = bridge._LineTransport(read_fd, write_fd, lambda: None)
        try:
            t.send_line("ready")
            assert t.recv_line(threading.TIMEOUT_MAX) == "ready\n"
        finally:
            os.close(read_fd)
            os.close(write_fd)


class TestMockTrainerOverStdio:
    def talk(self, messages, timeout=30):
        proc = subprocess.run(
            MOCK_CMD,
            input="\n".join(json.dumps(m) for m in messages) + "\n",
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        replies = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
        return proc.returncode, replies

    def test_shutdown_after_init_exits_zero(self):
        code, replies = self.talk(
            [
                {"type": "init", "v": 1, "arm_names": ["rho"], "config": {"seed": 0}},
                {"type": "shutdown", "v": 1},
            ]
        )
        assert code == 0
        assert replies[0]["type"] == "init_ack"
        assert replies[0]["initial_val_loss"] == 10.0

    def test_steps_acked_with_increasing_interactions(self):
        steps = [
            {"type": "step", "v": 1, "interaction": t, "arm": {"rho": 0.3}, "updates": 10}
            for t in (1, 2, 3)
        ]
        code, replies = self.talk(
            [{"type": "init", "v": 1, "arm_names": ["rho"], "config": {}}]
            + steps
            + [{"type": "shutdown", "v": 1}]
        )
        assert code == 0
        acks = [m for m in replies if m["type"] == "step_ack"]
        assert [m["interaction"] for m in acks] == [1, 2, 3]

    def test_duplicate_interaction_rejected(self):
        step = {"type": "step", "v": 1, "interaction": 1, "arm": {"rho": 0.3}, "updates": 10}
        code, replies = self.talk(
            [{"type": "init", "v": 1, "arm_names": ["rho"], "config": {}}, step, step,
             {"type": "shutdown", "v": 1}]
        )
        assert code == 0
        assert replies[1]["type"] == "step_ack"
        assert replies[2]["type"] == "error"
        assert replies[2]["code"] == "duplicate_interaction"

    def test_malformed_line_gets_error_then_continues(self):
        proc = subprocess.run(
            MOCK_CMD,
            input='not json\n{"type": "shutdown", "v": 1}\n',
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0
        reply = json.loads(proc.stdout.splitlines()[0])
        assert reply["type"] == "error" and reply["code"] == "malformed"

    def test_non_utf8_line_gets_error_then_continues(self):
        init = {"type": "init", "v": 1, "arm_names": ["rho"], "config": {}}
        proc = subprocess.run(
            MOCK_CMD,
            input=NOT_UTF8 + (json.dumps(init) + '\n{"type": "shutdown", "v": 1}\n').encode(),
            capture_output=True,
            timeout=30,
        )
        assert proc.returncode == 0
        replies = [json.loads(line) for line in proc.stdout.splitlines()]
        assert replies[0]["type"] == "error" and replies[0]["code"] == "malformed"
        assert replies[1]["type"] == "init_ack"

    def test_blank_line_gets_no_reply(self):
        init = {"type": "init", "v": 1, "arm_names": ["rho"], "config": {}}
        proc = subprocess.run(
            MOCK_CMD,
            input="\n \t\n" + json.dumps(init) + '\n{"type": "shutdown", "v": 1}\n',
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0
        assert [json.loads(line)["type"] for line in proc.stdout.splitlines()] == ["init_ack"]

    def test_version_mismatch_rejected(self):
        code, replies = self.talk(
            [
                {"type": "init", "v": 2, "arm_names": ["rho"], "config": {}},
                {"type": "shutdown", "v": 1},
            ]
        )
        assert code == 0
        assert replies[0]["type"] == "error"
        assert replies[0]["code"] == "version_mismatch"

    def test_bad_synthetic_settings_rejected_then_init_served(self):
        bad = [{"no_such_field": 1.0}, {"optimum": 0.3}, {"width": [-1.0]}]
        code, replies = self.talk(
            [
                {"type": "init", "v": 1, "arm_names": ["rho"], "config": {"synthetic": settings}}
                for settings in bad
            ]
            + [
                {"type": "init", "v": 1, "arm_names": ["rho"],
                 "config": {"synthetic": {"optimum": [0.2], "width": [0.1]}}},
                {"type": "shutdown", "v": 1},
            ]
        )
        assert code == 0
        assert [(m["type"], m.get("code")) for m in replies] == [
            ("error", "bad_config")
        ] * 3 + [("init_ack", None)]


class TestEquivalence:
    def run_in_process(self, space, spec, policy_seed, env_seed, T):
        env = envs.SyntheticPretrainEnv(spec, seed=env_seed)
        cfg = bandit.PolicySpec(bandit.GP_TS)
        return bandit.run_policy(space, cfg, env, T=T, u=100, seed=policy_seed)

    def test_stdio_matches_in_process(self):
        space = envs.make_grid([dict(lower=0.0, upper=0.5, step=0.05, name="rho")])
        spec = envs.SyntheticPretrainSpec(rate=0.15)
        ref = self.run_in_process(space, spec, policy_seed=1, env_seed=77, T=10)

        env = bridge.bridge_connect(MOCK_CMD, space.names, config=spec_config(spec, 77))
        cfg = bandit.PolicySpec(bandit.GP_TS)
        hist = bandit.run_policy(space, cfg, env, T=10, u=100, seed=1)
        env.close()
        assert hist == ref
        assert hist.initial_loss == ref.initial_loss

    def test_tcp_matches_in_process(self):
        space = envs.make_grid([dict(lower=0.0, upper=0.5, step=0.05, name="rho")])
        spec = envs.SyntheticPretrainSpec(rate=0.15)
        ref = self.run_in_process(space, spec, policy_seed=2, env_seed=78, T=10)

        port = free_port()
        server = subprocess.Popen(
            [sys.executable, "-m", "gpts.cli", "mock-trainer", "--transport", f"tcp:{port}"]
        )
        try:
            env = bridge.bridge_connect(
                f"tcp:127.0.0.1:{port}", space.names, config=spec_config(spec, 78)
            )
            cfg = bandit.PolicySpec(bandit.GP_TS)
            hist = bandit.run_policy(space, cfg, env, T=10, u=100, seed=2)
            env.close()
            assert server.wait(timeout=10) == 0
        finally:
            if server.poll() is None:
                server.kill()
        assert hist == ref

    def test_trainer_crash_surfaces_as_partial_history(self):
        space = envs.make_grid([dict(lower=0.0, upper=0.5, step=0.05, name="rho")])

        class DyingTransport(ScriptedTransport):
            def recv_line(self, timeout_s):
                if not self.replies:
                    raise BridgeError("trainer process closed the connection")
                return super().recv_line(timeout_s)

        t = DyingTransport(
            [
                json.dumps({"type": "init_ack", "v": 1, "initial_val_loss": 10.0}),
                json.dumps({"type": "step_ack", "v": 1, "interaction": 1, "val_loss": 9.0}),
            ]
        )
        env = bridge.BridgeEnvironment(t, ["rho"])
        cfg = bandit.PolicySpec(bandit.FIXED_ARM, 0)
        hist = bandit.run_policy(space, cfg, env, T=5, u=10)
        assert hist.error is not None
        assert len(hist) == 1
