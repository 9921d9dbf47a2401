"""JSON-lines wire protocol between the coordinator and its peers.

One TCP connection per peer, newline-delimited JSON objects, every
object carrying a ``"type"`` field.  Two peer roles connect to the
coordinator's loopback socket:

* **workers** (spawned processes) -- ``hello`` then a stream of
  ``heartbeat`` and ``done`` messages; the coordinator sends them
  ``dispatch`` and ``shutdown``;
* **control clients** -- ``hello`` then request/response verbs
  (``stats``, ``dispatch``, ``drain``, ``rebind``, ``kill``); the
  coordinator answers each with exactly one ``ok`` or ``error``.

The framing is deliberately boring: length is bounded by
:data:`MAX_LINE` (a malformed or hostile peer cannot balloon memory),
payloads are plain JSON scalars/objects (no pickling across the process
boundary), and the encoder sorts keys so byte streams are reproducible
in tests.  Every reader -- coordinator, worker and control client --
splits what it reads with one :class:`LineParser`.
"""

from __future__ import annotations

import json
import socket
from typing import Any

#: Upper bound on one encoded message (framing sanity, not a protocol
#: limit anyone should approach -- jobs carry ids, not data).
MAX_LINE = 1 << 20

# Message types, worker <-> coordinator.
HELLO = "hello"
HEARTBEAT = "heartbeat"
DISPATCH = "dispatch"
DONE = "done"
SHUTDOWN = "shutdown"

# Message types, control <-> coordinator.
STATS = "stats"
DRAIN = "drain"
REBIND = "rebind"
KILL = "kill"
OK = "ok"
ERROR = "error"

# Roles announced in ``hello``.
ROLE_WORKER = "worker"
ROLE_CONTROL = "control"

#: One encoder and one decoder for every message of the process: what
#: ``json.dumps(..., separators=(",", ":"), sort_keys=True)`` writes,
#: without building an encoder per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
_DECODER = json.JSONDecoder()


class ProtocolError(RuntimeError):
    """A peer violated the framing or message schema."""


def encode(message: dict[str, Any]) -> bytes:
    """One message -> one newline-terminated JSON line."""
    if "type" not in message:
        raise ProtocolError(f"message without a type: {message!r}")
    line = _ENCODER.encode(message).encode("utf-8")
    if len(line) >= MAX_LINE:
        raise ProtocolError(f"message of {len(line)} bytes exceeds MAX_LINE")
    return line + b"\n"


def decode(line: bytes) -> dict[str, Any]:
    """One wire line -> message dict (validating type presence)."""
    if len(line) > MAX_LINE:
        raise ProtocolError(f"line of {len(line)} bytes exceeds MAX_LINE")
    try:
        message = _DECODER.decode(line.decode("utf-8"))
    except ValueError as err:
        raise ProtocolError(f"undecodable line {line[:80]!r}: {err}") from err
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"message without a type: {message!r}")
    return message


class LineParser:
    """Split a peer's byte stream into messages, whatever the reads' sizes.

    Each :meth:`feed` takes one read and returns every message it
    completed, in order; an unterminated tail waits for the next read.
    Any line up to :data:`MAX_LINE` is served, and a line -- or a tail
    still without its newline -- longer than that raises
    :class:`ProtocolError`, so a peer cannot balloon the buffer.
    """

    __slots__ = ("_tail",)

    def __init__(self) -> None:
        self._tail = b""

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        if self._tail:
            data = self._tail + data
        *lines, self._tail = data.split(b"\n")
        if len(self._tail) > MAX_LINE:
            raise ProtocolError(f"unterminated line of {len(self._tail)} bytes exceeds MAX_LINE")
        return [decode(line) for line in lines]


class ControlClient:
    """Blocking control-plane client (CLI- and test-facing).

    Speaks the same JSON-lines protocol over a plain socket; each
    :meth:`request` sends one verb and waits for the coordinator's
    single ``ok``/``error`` reply.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._parser = LineParser()
        self._replies: list[dict[str, Any]] = []
        self._sock.sendall(encode({"type": HELLO, "role": ROLE_CONTROL}))

    def request(self, verb: str, **fields: Any) -> dict[str, Any]:
        """Send one control verb; return the coordinator's reply payload.

        Raises :class:`ProtocolError` when the coordinator answers
        ``error`` (the reply's ``detail`` becomes the message).
        """
        self._sock.sendall(encode({"type": verb, **fields}))
        while not self._replies:
            data = self._sock.recv(1 << 16)
            if not data:
                raise ProtocolError("coordinator closed the control connection")
            self._replies.extend(self._parser.feed(data))
        reply = self._replies.pop(0)
        if reply["type"] == ERROR:
            raise ProtocolError(reply.get("detail", "control request failed"))
        if reply["type"] != OK:
            raise ProtocolError(f"unexpected control reply {reply!r}")
        return reply

    def stats(self) -> dict[str, Any]:
        """Coordinator state snapshot (fleet, queues, counters)."""
        return self.request(STATS)["stats"]

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ControlClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
