"""Wire protocol for driving an external trainer process as an environment.

Messages are UTF-8, line-delimited JSON, one per line, discriminated by
a ``type`` field; the handshake carries protocol version ``v = 1``:

    -> {"type": "init", "v": 1, "arm_names": ["rho"], "config": {...}}
    <- {"type": "init_ack", "v": 1, "initial_val_loss": 10.0}
    -> {"type": "step", "v": 1, "interaction": 3, "arm": {"rho": 0.2}, "updates": 1000}
    <- {"type": "step_ack", "v": 1, "interaction": 3, "val_loss": 7.4}
    <- {"type": "error", "v": 1, "code": "...", "detail": "..."}
    -> {"type": "shutdown", "v": 1}

Arm values travel as a name-to-value map so trainers bind
hyperparameters by name. One step is in flight at a time; interactions
increase strictly by one and duplicates are rejected. A trainer is
spawned from an argv list and spoken to over its stdio, or reached at
``"tcp:HOST:PORT"`` (IPv6: ``"tcp:[::1]:9000"``). Both ends move lines
through one transport over a read fd and a write fd. The reply timeout
bounds the wait for a whole line, up to ``threading.TIMEOUT_MAX``; the
default 0 blocks forever, as real pre-training steps can take hours. A
reply that is not valid UTF-8 is a ``ProtocolError``, as is an ack whose
loss is missing or not a JSON number. Both ends build each line with
``_encode`` and parse it with ``_decode``.

``mock_trainer_main`` serves the protocol backed by the synthetic
pre-training simulator, for tests and offline development; over
``tcp:PORT`` it listens on ``127.0.0.1`` only, out of an IPv6 client's
reach. A request it cannot serve gets one error line, then it serves
the next:

- ``version_mismatch``: an Init whose ``v`` is not 1;
- ``bad_config``: an Init whose ``arm_names`` (strings, one per
  dimension) or config cannot set up a simulator; the last one stays;
- ``not_initialized``: a Step before any Init was acknowledged;
- ``malformed``: a line not UTF-8 or not a JSON object with a ``type``,
  or a Step with a field missing, a non-integer ``interaction`` or
  ``updates`` (at least 1), or an arm value that is not a finite number;
- ``duplicate_interaction``: a Step at or below the last interaction;
- ``bad_interaction``: a Step that skips an interaction;
- ``unknown_type``: any other message type.
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import subprocess
import threading
import time
from collections.abc import Mapping, Sequence

from .environments import Arm, SyntheticPretrainEnv, SyntheticPretrainSpec
from .errors import BridgeError, InvalidArgumentError, ProtocolError, is_finite, is_integer

__all__ = [
    "PROTOCOL_VERSION",
    "BridgeEnvironment",
    "bridge_connect",
    "mock_trainer_main",
]

PROTOCOL_VERSION = 1


def _encode(mtype: str, **fields) -> str:
    """One message line (without its newline): type, version, then fields."""
    return json.dumps({"type": mtype, "v": PROTOCOL_VERSION, **fields})


def _decode(line: str) -> dict:
    """The message on one line; ``ProtocolError`` unless it is a JSON
    object with a ``type``."""
    try:
        msg = json.loads(line)
    except (ValueError, RecursionError) as exc:  # not JSON, too long an integer, too deep
        raise ProtocolError(f"malformed message: {line[:200]!r}") from exc
    if not isinstance(msg, dict) or "type" not in msg:
        raise ProtocolError(f"message has no type: {line[:200]!r}")
    return msg


class _LineTransport:
    """Newline-terminated UTF-8 lines over a read fd and a write fd.

    Bytes read past a newline stay buffered, so a line that arrived with
    an earlier one is returned without waiting. A positive ``timeout_s``
    bounds the wait for the whole line; 0 waits forever. ``close`` is the
    closer passed in by the owner of the fds.
    """

    def __init__(self, read_fd: int, write_fd: int, closer):
        self._read_fd = read_fd
        self._write_fd = write_fd
        self._buf = bytearray()
        self.close = closer

    def send_line(self, line: str) -> None:
        data = memoryview((line + "\n").encode("utf-8"))
        try:
            while data:
                data = data[os.write(self._write_fd, data):]
        except OSError as exc:
            raise BridgeError(f"bridge connection closed: {exc}") from exc

    def recv_line(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        while (end := self._buf.find(b"\n")) < 0:
            if timeout_s > 0:
                left = max(deadline - time.monotonic(), 0.0)
                if not select.select([self._read_fd], [], [], left)[0]:
                    raise BridgeError(f"trainer reply timed out after {timeout_s}s")
            try:
                chunk = os.read(self._read_fd, 65536)
            except OSError as exc:
                raise BridgeError(f"bridge connection error: {exc}") from exc
            if not chunk:
                raise BridgeError("bridge peer closed the connection")
            self._buf += chunk
        line = bytes(self._buf[: end + 1])
        del self._buf[: end + 1]
        try:
            return line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"line is not valid UTF-8: {line[:200]!r}") from exc


class BridgeEnvironment:
    """Environment driving a remote trainer over the wire protocol."""

    def __init__(self, transport, arm_names, config=None, timeout_s: float = 0.0):
        self._transport = transport
        self.arm_names = tuple(arm_names)
        self._config = dict(config or {})
        self.timeout_s = timeout_s
        self._t = 0
        self._started = False

    def _send(self, mtype: str, **fields) -> None:
        self._transport.send_line(_encode(mtype, **fields))

    def _recv(self, expected: str) -> dict:
        msg = _decode(self._transport.recv_line(self.timeout_s))
        if msg["type"] == "error":
            raise BridgeError(
                f"trainer error {msg.get('code', '?')}: {msg.get('detail', '')}"
            )
        if msg["type"] != expected:
            raise ProtocolError(f"expected {expected}, got {msg['type']!r}")
        return msg

    @staticmethod
    def _loss(msg: dict, key: str) -> float:
        value = msg.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(f"{msg['type']} {key} is not a number: {value!r}")
        try:
            return float(value)
        except OverflowError:  # an integer beyond the range of a double
            return math.inf if value > 0 else -math.inf

    def init(self) -> float:
        if self._started:
            raise InvalidArgumentError("init() may be called only once")
        self._send("init", arm_names=list(self.arm_names), config=self._config)
        msg = self._recv("init_ack")
        self._started = True
        return self._loss(msg, "initial_val_loss")

    def step(self, arm: Arm, u: int) -> float:
        if not self._started:
            raise InvalidArgumentError("init() must be called before step()")
        if len(arm) != len(self.arm_names):
            raise InvalidArgumentError(
                f"arm has {len(arm)} coordinates, expected {len(self.arm_names)}"
            )
        t = self._t + 1  # the wire's interaction number
        self._send("step", interaction=t, arm=dict(zip(self.arm_names, arm)), updates=u)
        msg = self._recv("step_ack")
        if msg.get("interaction") != t:
            raise ProtocolError(
                f"step_ack interaction {msg.get('interaction')} does not match request {t}"
            )
        self._t = t
        return self._loss(msg, "val_loss")

    def close(self) -> None:
        try:
            self._send("shutdown")
        except BridgeError:
            pass
        self._transport.close()


def _tcp_port(port: str, spec) -> int:
    """The PORT of a ``tcp:`` transport spec, as both ends read it."""
    if not port.isdecimal() or int(port) > 65535:
        raise InvalidArgumentError(f"transport spec {spec!r} has no port in [0, 65535]")
    return int(port)


def bridge_connect(transport, arm_names, config=None, timeout_s: float = 0.0) -> BridgeEnvironment:
    """Open a bridge to a trainer.

    ``transport`` is either an argv list (the trainer is spawned and
    spoken to over stdio) or a string ``"tcp:HOST:PORT"``, with an IPv6
    host in brackets (``"tcp:[::1]:9000"``); anything else, or a
    ``timeout_s`` outside [0, ``threading.TIMEOUT_MAX``], a ``config``
    that is neither None nor a mapping JSON can encode, or ``arm_names``
    that are not a sequence of strings, raises ``InvalidArgumentError``
    before a trainer is spawned or reached. The Init handshake is
    performed lazily by the returned environment's ``init()``.
    """
    # select() overflows past Python's longest blocking timeout; NaN fails too
    if isinstance(timeout_s, bool) or not (
        isinstance(timeout_s, (int, float)) and 0 <= timeout_s <= threading.TIMEOUT_MAX
    ):
        raise InvalidArgumentError(
            f"timeout_s must be a number of seconds in [0, {threading.TIMEOUT_MAX}],"
            f" got {timeout_s!r}"
        )
    if not (config is None or isinstance(config, Mapping)):
        raise InvalidArgumentError(f"the trainer config must be a mapping, got {config!r:.200}")
    try:
        json.dumps(config)
    except (TypeError, ValueError) as exc:  # a type JSON lacks, or a cycle
        raise InvalidArgumentError(f"the trainer config cannot be sent as JSON: {exc}") from exc
    if isinstance(arm_names, str) or not (
        isinstance(arm_names, Sequence) and all(isinstance(n, str) for n in arm_names)
    ):
        raise InvalidArgumentError(
            f"arm_names must be a sequence of strings, got {arm_names!r:.200}"
        )
    if isinstance(transport, list) and transport and all(isinstance(a, str) for a in transport):
        try:
            proc = subprocess.Popen(transport, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise BridgeError(f"cannot spawn trainer {transport!r}: {exc}") from exc

        def close() -> None:
            proc.stdin.close()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

        channel = _LineTransport(proc.stdout.fileno(), proc.stdin.fileno(), close)
    elif isinstance(transport, str) and transport.startswith("tcp:"):
        host, _, port = transport[len("tcp:"):].rpartition(":")
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]
        if not host:
            raise InvalidArgumentError(f"transport spec {transport!r} is not tcp:HOST:PORT")
        address = (host, _tcp_port(port, transport))
        deadline = time.monotonic() + 10.0
        while True:
            try:
                sock = socket.create_connection(address, timeout=2.0)
                break
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise BridgeError(f"cannot connect to trainer at {transport}: {exc}") from exc
                time.sleep(0.05)
        sock.settimeout(None)
        channel = _LineTransport(sock.fileno(), sock.fileno(), sock.close)
    else:
        raise InvalidArgumentError(
            f"transport must be an argv list or 'tcp:HOST:PORT', got {transport!r}"
        )
    return BridgeEnvironment(channel, arm_names, config=config, timeout_s=timeout_s)


# ---------------------------------------------------------------------------
# mock trainer


class _Refusal(Exception):
    """A request the mock trainer answers with an error line; its args are
    the reply's code and detail."""


def _serve(channel: _LineTransport) -> int:
    env: SyntheticPretrainEnv | None = None
    arm_names: tuple[str, ...] = ()
    last_t = 0
    while True:
        try:
            line = channel.recv_line(0).strip()
            if not line:
                continue
            msg = _decode(line)
            mtype = msg["type"]
            if mtype == "shutdown":
                return 0
            if mtype == "init":
                if msg.get("v") != PROTOCOL_VERSION:
                    raise _Refusal("version_mismatch", f"server speaks v{PROTOCOL_VERSION}")
                config = msg.get("config") or {}
                names = msg.get("arm_names")
                try:
                    if not isinstance(config, dict):
                        raise TypeError(f"config must be an object, got {config!r:.200}")
                    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                        raise TypeError(f"arm_names must be a list of strings, got {names!r:.200}")
                    env_spec = SyntheticPretrainSpec(**config.get("synthetic", {}))
                    if len(names) != len(env_spec.optimum):
                        raise ValueError(
                            f"{len(names)} arm names for a {len(env_spec.optimum)}-D simulator"
                        )
                    # numpy's generator rejects a negative seed
                    seed = config.get("seed", 0)
                    if not is_integer(seed):
                        raise TypeError(f"seed must be an integer, got {seed!r:.200}")
                    new_env = SyntheticPretrainEnv(env_spec, seed=seed)
                except (TypeError, ValueError) as exc:
                    raise _Refusal("bad_config", str(exc))
                env, arm_names, last_t = new_env, tuple(names), 0
                reply = _encode("init_ack", initial_val_loss=env.init())
            elif mtype == "step":
                if env is None:
                    raise _Refusal("not_initialized", "step before init")
                try:
                    t, arm_map, updates = msg["interaction"], msg["arm"], msg["updates"]
                    values = [arm_map[name] for name in arm_names]
                    if not (all(map(is_finite, values)) and is_integer(t) and is_integer(updates)
                            and updates >= 1):
                        raise ValueError("bad arm, interaction or updates")
                    # float() raises OverflowError on an integer past the float range
                    arm = tuple(map(float, values))
                    float(updates)
                except (KeyError, TypeError, ValueError, OverflowError):
                    raise _Refusal("malformed", f"bad step message: {line[:200]!r}")
                if t <= last_t:
                    raise _Refusal("duplicate_interaction", f"interaction {t} already served")
                if t != last_t + 1:
                    raise _Refusal(
                        "bad_interaction", f"expected interaction {last_t + 1}, got {t}"
                    )
                reply = _encode("step_ack", interaction=t, val_loss=env.step(arm, updates))
                last_t = t
            else:
                raise _Refusal("unknown_type", f"unknown message type {mtype!r}")
        except ProtocolError as exc:  # a line that is not UTF-8 or not a message
            reply = _encode("error", code="malformed", detail=str(exc))
        except _Refusal as exc:
            reply = _encode("error", code=exc.args[0], detail=exc.args[1])
        except BridgeError:  # the peer closed the connection
            return 0
        channel.send_line(reply)


def mock_trainer_main(transport: str = "stdio") -> int:
    """Serve the wire protocol backed by the synthetic simulator, set up
    from each Init message's config: its ``synthetic`` section over the
    ``SyntheticPretrainSpec`` defaults, and its ``seed`` (default 0). The
    module docstring lists its error replies.

    ``transport`` is ``"stdio"`` or ``"tcp:PORT"`` (listen on 127.0.0.1,
    single connection; PORT is read as by ``bridge_connect``). Returns
    the process exit code.
    """
    if transport == "stdio":
        channel = _LineTransport(0, 1, lambda: None)
    elif transport.startswith("tcp:"):
        port = _tcp_port(transport[len("tcp:"):], transport)
        with socket.create_server(("127.0.0.1", port)) as server:
            conn, _ = server.accept()
        channel = _LineTransport(conn.fileno(), conn.fileno(), conn.close)
    else:
        raise InvalidArgumentError(f"unknown transport: {transport!r}")
    try:
        return _serve(channel)
    finally:
        channel.close()
