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
bounds the wait for a whole line; the default 0 blocks forever, as real
pre-training steps can take hours. A reply that is not valid UTF-8 is a
``ProtocolError``, as is an ack whose loss is missing or not a JSON
number.

``mock_trainer_main`` serves the protocol backed by the synthetic
pre-training simulator, for tests and offline development.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import select
import socket
import subprocess
import time

from .environments import Arm, LossObservation, SyntheticPretrainEnv, SyntheticPretrainSpec
from .errors import BridgeError, InvalidArgumentError, ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "BridgeEnvironment",
    "bridge_connect",
    "mock_trainer_main",
]

PROTOCOL_VERSION = 1


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

    def _send(self, msg: dict) -> None:
        self._transport.send_line(json.dumps(msg))

    def _recv(self) -> dict:
        line = self._transport.recv_line(self.timeout_s)
        try:
            msg = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"malformed trainer message: {line!r}") from exc
        if not isinstance(msg, dict) or "type" not in msg:
            raise ProtocolError(f"trainer message has no type: {line!r}")
        if msg["type"] == "error":
            raise BridgeError(
                f"trainer error {msg.get('code', '?')}: {msg.get('detail', '')}"
            )
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

    def init(self) -> LossObservation:
        if self._started:
            raise InvalidArgumentError("init() may be called only once")
        self._send(
            {
                "type": "init",
                "v": PROTOCOL_VERSION,
                "arm_names": list(self.arm_names),
                "config": self._config,
            }
        )
        msg = self._recv()
        if msg["type"] != "init_ack":
            raise ProtocolError(f"expected init_ack, got {msg['type']!r}")
        self._started = True
        return LossObservation(interaction=0, validation_loss=self._loss(msg, "initial_val_loss"))

    def step(self, arm: Arm, u: int) -> LossObservation:
        if not self._started:
            raise InvalidArgumentError("init() must be called before step()")
        if len(arm) != len(self.arm_names):
            raise InvalidArgumentError(
                f"arm has {len(arm)} coordinates, expected {len(self.arm_names)}"
            )
        t = self._t + 1
        self._send(
            {
                "type": "step",
                "v": PROTOCOL_VERSION,
                "interaction": t,
                "arm": dict(zip(self.arm_names, arm)),
                "updates": u,
            }
        )
        msg = self._recv()
        if msg["type"] != "step_ack":
            raise ProtocolError(f"expected step_ack, got {msg['type']!r}")
        if msg.get("interaction") != t:
            raise ProtocolError(
                f"step_ack interaction {msg.get('interaction')} does not match request {t}"
            )
        self._t = t
        return LossObservation(interaction=t, validation_loss=self._loss(msg, "val_loss"))

    def close(self) -> None:
        try:
            self._send({"type": "shutdown", "v": PROTOCOL_VERSION})
        except BridgeError:
            pass
        self._transport.close()


def bridge_connect(transport, arm_names, config=None, timeout_s: float = 0.0) -> BridgeEnvironment:
    """Open a bridge to a trainer.

    ``transport`` is either an argv list (the trainer is spawned and
    spoken to over stdio) or a string ``"tcp:HOST:PORT"``, with an IPv6
    host in brackets (``"tcp:[::1]:9000"``); anything else raises
    ``InvalidArgumentError``. The Init handshake is performed lazily by
    the returned environment's ``init()``.
    """
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
        if not host or not port.isdecimal() or int(port) > 65535:
            raise InvalidArgumentError(f"transport spec {transport!r} is not tcp:HOST:PORT")
        deadline = time.monotonic() + 10.0
        while True:
            try:
                sock = socket.create_connection((host, int(port)), timeout=2.0)
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


def _serve(channel: _LineTransport, spec: SyntheticPretrainSpec, default_seed: int) -> int:
    env: SyntheticPretrainEnv | None = None
    arm_names: tuple[str, ...] = ()
    last_t = 0

    def send(msg: dict) -> None:
        channel.send_line(json.dumps(msg))

    def error(code: str, detail: str) -> None:
        send({"type": "error", "v": PROTOCOL_VERSION, "code": code, "detail": detail})

    while True:
        try:
            line = channel.recv_line(0).strip()
        except ProtocolError as exc:
            error("malformed", str(exc))
            continue
        except BridgeError:
            return 0
        if not line:
            continue
        try:
            msg = json.loads(line)
            mtype = msg["type"]
        except (json.JSONDecodeError, TypeError, KeyError):
            error("malformed", f"unparseable message: {line[:200]!r}")
            continue

        if mtype == "shutdown":
            return 0

        if mtype == "init":
            if msg.get("v") != PROTOCOL_VERSION:
                error("version_mismatch", f"server speaks v{PROTOCOL_VERSION}")
                continue
            config = msg.get("config") or {}
            try:
                env_spec = dataclasses.replace(spec, **config.get("synthetic", {}))
            except (InvalidArgumentError, TypeError) as exc:
                error("bad_config", str(exc))
                continue
            arm_names = tuple(msg.get("arm_names") or ())
            env = SyntheticPretrainEnv(env_spec, seed=int(config.get("seed", default_seed)))
            obs = env.init()
            last_t = 0
            send(
                {
                    "type": "init_ack",
                    "v": PROTOCOL_VERSION,
                    "initial_val_loss": obs.validation_loss,
                }
            )
            continue

        if mtype == "step":
            if env is None:
                error("not_initialized", "step before init")
                continue
            try:
                t = int(msg["interaction"])
                arm_map = msg["arm"]
                updates = int(msg["updates"])
                arm = tuple(float(arm_map[name]) for name in arm_names)
            except (KeyError, TypeError, ValueError):
                error("malformed", f"bad step message: {line[:200]!r}")
                continue
            if t <= last_t:
                error("duplicate_interaction", f"interaction {t} already served")
                continue
            if t != last_t + 1:
                error("bad_interaction", f"expected interaction {last_t + 1}, got {t}")
                continue
            obs = env.step(arm, updates)
            last_t = t
            send(
                {
                    "type": "step_ack",
                    "v": PROTOCOL_VERSION,
                    "interaction": t,
                    "val_loss": obs.validation_loss,
                }
            )
            continue

        error("unknown_type", f"unknown message type {mtype!r}")


def mock_trainer_main(
    spec: SyntheticPretrainSpec | None = None,
    transport: str = "stdio",
    seed: int = 0,
) -> int:
    """Serve the wire protocol backed by the synthetic simulator.

    ``transport`` is ``"stdio"`` or ``"tcp:PORT"`` (listen on localhost,
    single connection). Returns the process exit code.
    """
    spec = spec or SyntheticPretrainSpec()
    if transport == "stdio":
        channel = _LineTransport(0, 1, lambda: None)
    elif transport.startswith("tcp:"):
        port = int(transport.split(":", 1)[1])
        with socket.create_server(("127.0.0.1", port)) as server:
            conn, _ = server.accept()
        channel = _LineTransport(conn.fileno(), conn.fileno(), conn.close)
    else:
        raise InvalidArgumentError(f"unknown transport: {transport!r}")
    try:
        return _serve(channel, spec, seed)
    finally:
        channel.close()
