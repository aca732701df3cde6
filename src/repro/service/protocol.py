"""Wire protocol of the experiment service: newline-delimited JSON messages.

Every message is one JSON object on one line (``\\n``-terminated, UTF-8),
with a mandatory ``"type"`` field -- the same framing the litex rowhammer
tooling uses between its remote client and the board server, chosen here so
a scheduler can be driven by anything that can write a line to a socket
(including ``nc`` for the ``status`` endpoint).

Python payloads that are not JSON-representable -- pickled
:class:`~repro.experiments.executors.StudyTask` items travelling to workers
and :class:`~repro.experiments.executors.TaskOutcome` items travelling
back -- ride inside JSON strings as base64-encoded pickle *blobs* (see
:func:`pack_blob` / :func:`unpack_blob`).  Everything the scheduler itself
must understand (keys, indexes, counters, lease ids, status) is plain JSON,
so the scheduler never unpickles task blobs except to checkpoint results
into a :class:`~repro.experiments.store.ResultStore`.

Message reference
-----------------
Handshake (both directions of every connection)::

    {"type": "hello", "role": "client"|"worker", "name": str, "protocol": 2}
    {"type": "hello_ack", "protocol": 2, "lease_ttl": float}
    {"type": "error", "error": str}          # fatal; sender closes after

Client -> scheduler::

    {"type": "submit", "submission_id": str, "label": str,
     "units": [{"key": str, "index": int, "unit_digest": str,
                "task": blob, "cache": {...}|null}]}
    {"type": "status_request"}

Scheduler -> client::

    {"type": "submit_ack", "submission_id": str, "units": int}
    {"type": "error", "error": str, "client_id": str}   # submit refused
    {"type": "unit_complete", "submission_id": str, "key": str, "index": int,
     "attempts": int, "requeues": int, "elapsed_s": float, "outcome": blob}
    {"type": "unit_quarantined", "submission_id": str, "key": str,
     "index": int, "attempts": int, "errors": [str]}
    {"type": "submission_done", "submission_id": str, "completed": int,
     "quarantined": [str]}
    {"type": "status_reply", "status": {...}}

A submit whose units repeat a key or lack a field is refused with an
``error`` reply, and the connection stays open.  The scheduler scopes unit
keys by submission: the keys it reports back and leases to workers are
``"<submission_id>/<client key>"``, so a client may resubmit a study whose
keys match an earlier submission's.

Worker -> scheduler::

    {"type": "lease_request", "capacity": int}
    {"type": "heartbeat", "lease_id": str}   # fire-and-forget, no reply
    {"type": "unit_result", "lease_id": str, "key": str,
     "elapsed_s": float, "outcome": blob}
    {"type": "unit_failed", "lease_id": str, "key": str, "error": str}
    {"type": "goodbye"}

Scheduler -> worker::

    {"type": "lease_grant", "lease_id": str, "expires_in": float,
     "units": [{"key": str, "task": blob}]}
    {"type": "no_work", "retry_in": float}
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import threading
from typing import Any, Dict, Optional

#: Bump when a message's meaning or a blob's pickled layout changes
#: incompatibly; scheduler and workers refuse mismatched peers at hello
#: time.  Version 2: the tuple-backed :class:`~repro.core.hammer.BitFlip`.
PROTOCOL_VERSION = 2

#: Upper bound on one framed line.  A full-scale Figure 10 submission
#: (2304 pickled work units) is tens of MB; 256 MB leaves headroom without
#: letting a corrupt peer allocate unbounded memory.
MAX_LINE_BYTES = 256 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A peer sent a malformed or unexpected message."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """Frame one message as a newline-terminated JSON line."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Decode one framed line; raises :class:`ProtocolError` on bad input."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message line: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"message is not a typed object: {message!r}")
    return message


def pack_blob(obj: Any) -> str:
    """Encode an arbitrary picklable object as a JSON-safe base64 string."""
    return base64.b64encode(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode(
        "ascii"
    )


def unpack_blob(text: str) -> Any:
    """Inverse of :func:`pack_blob`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


class MessageStream:
    """Blocking newline-delimited-JSON channel over one TCP socket.

    Used by the synchronous peers (workers and clients); the scheduler
    speaks the same framing through asyncio streams.  ``send`` is
    thread-safe (a worker's heartbeat thread shares the socket with its
    execution loop); ``recv`` must only be called from one thread.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._send_lock = threading.Lock()

    def send(self, message: Dict[str, Any]) -> None:
        data = encode_message(message)
        with self._send_lock:
            self._sock.sendall(data)

    def recv(self) -> Optional[Dict[str, Any]]:
        """Read one message; ``None`` means the peer closed the connection."""
        line = self._reader.readline(MAX_LINE_BYTES)
        if not line:
            return None
        if not line.endswith(b"\n"):
            raise ProtocolError("truncated message line (peer died mid-send?)")
        return decode_message(line)

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "MessageStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def connect_stream(host: str, port: int, timeout: Optional[float] = None) -> MessageStream:
    """Open a :class:`MessageStream` to a scheduler endpoint."""
    sock = socket.create_connection((host, port), timeout=timeout)
    # The service exchanges many small messages (heartbeats, single-unit
    # results); disable Nagle so they are not batched behind each other.
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(None)
    return MessageStream(sock)


def hello(role: str, name: str) -> Dict[str, Any]:
    """Build the handshake message every connection opens with."""
    return {"type": "hello", "role": role, "name": name, "protocol": PROTOCOL_VERSION}


def check_hello(message: Optional[Dict[str, Any]], expected_roles: tuple) -> Dict[str, Any]:
    """Validate a received hello; raises :class:`ProtocolError` if unfit."""
    if message is None:
        raise ProtocolError("peer closed the connection before hello")
    if message.get("type") != "hello":
        raise ProtocolError(f"expected hello, got {message.get('type')!r}")
    if message.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol mismatch: peer speaks {message.get('protocol')!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    if message.get("role") not in expected_roles:
        raise ProtocolError(f"unexpected role {message.get('role')!r}")
    return message
