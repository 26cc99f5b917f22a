"""Single-threaded socket load generator, run as its own process.

    python loadgen.py HOST PORT FRAMES MODE

``FRAMES`` holds protocol ``events`` messages the harness pre-encoded in
set-up (8-byte index length, JSON index ``[[due_s, events, bytes], ...]``,
then the messages back to back), so the generator's own work per frame is
one ``send``.  One connection, one thread: a non-blocking socket both sends
frames and reads the ``credit`` messages that come back.

``MODE`` ``paced`` is the open loop: every frame is sent when it is due,
whether or not earlier ones were acknowledged, and is timed from its *due*
time — to the moment it left (send lag, how late the generator ran) and to
the ``credit`` covering its last event (ack latency).  A frame whose credits
have not come back yet has to wait; that wait is part of its latency, not
hidden by delaying the schedule.  ``unpaced`` sends as fast as credits allow.

Prints one JSON object.  Clock values are ``time.monotonic()`` readings,
comparable with the harness process on the same host.
"""

from __future__ import annotations

import json
import selectors
import socket
import statistics
import struct
import sys
import time
from collections import deque

HEADER = struct.Struct(">I")


def _message(message: dict) -> bytes:
    payload = json.dumps(message, separators=(",", ":")).encode()
    return HEADER.pack(len(payload)) + payload


def _percentiles(values: list) -> tuple:
    """(p50, p99) of a sample; zeros when it is too small to have them."""
    if len(values) < 2:
        return 0.0, 0.0
    return statistics.median(values), statistics.quantiles(values, n=100)[98]


class Connection:
    """Non-blocking framed connection: buffered reads, credit accounting."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(_message({"type": "hello", "client": "ledger"}))
        self.buffer = bytearray()
        welcome = self._read_blocking()
        if welcome.get("type") != "welcome":
            raise RuntimeError(f"expected welcome, got {welcome!r}")
        self.credits = int(welcome["window"])
        self.credited = 0  # events acknowledged so far
        self.accepted = None  # the goodbye's count
        self.sock.setblocking(False)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.sock, selectors.EVENT_READ)
        #: (cumulative events sent, due time) of frames awaiting their credit
        self.unacked: deque = deque()
        self.ack_ms: list = []

    def _read_blocking(self) -> dict:
        while True:
            message = self._next_message()
            if message is not None:
                return message
            chunk = self.sock.recv(65536)
            if not chunk:
                raise RuntimeError("server closed the connection")
            self.buffer += chunk

    def _next_message(self):
        if len(self.buffer) < HEADER.size:
            return None
        (length,) = HEADER.unpack_from(self.buffer)
        end = HEADER.size + length
        if len(self.buffer) < end:
            return None
        message = json.loads(bytes(self.buffer[HEADER.size:end]))
        del self.buffer[:end]
        return message

    def pump(self, timeout: float) -> None:
        """Wait up to ``timeout`` for server messages and absorb them."""
        if not self.selector.select(max(0.0, timeout)):
            return
        try:
            chunk = self.sock.recv(65536)
        except BlockingIOError:
            return
        if not chunk:
            raise RuntimeError("server closed the connection")
        now = time.monotonic()
        self.buffer += chunk
        while True:
            message = self._next_message()
            if message is None:
                return
            kind = message.get("type")
            if kind == "credit":
                n = int(message["n"])
                self.credits += n
                self.credited += n
                while self.unacked and self.unacked[0][0] <= self.credited:
                    __, due = self.unacked.popleft()
                    self.ack_ms.append((now - due) * 1000.0)
            elif kind == "goodbye":
                self.accepted = int(message.get("accepted", 0))
            else:
                raise RuntimeError(f"unexpected server message {message!r}")

    def send(self, blob: bytes) -> None:
        view = memoryview(blob)
        while view:
            try:
                sent = self.sock.send(view)
            except BlockingIOError:
                # Kernel buffer full: the server is not reading.  Keep
                # absorbing credits while waiting for room.
                self.pump(0.0005)
                continue
            view = view[sent:]


def main(argv: list) -> int:
    host, port, frames_path, mode = argv[1], int(argv[2]), argv[3], argv[4]
    with open(frames_path, "rb") as handle:
        index_length = int.from_bytes(handle.read(8), "big")
        index = json.loads(handle.read(index_length))
        blobs = [handle.read(length) for __, __count, length in index]
    paced = mode == "paced"
    connection = Connection(host, port)
    lags_ms: list = []
    credit_waits = 0
    sent_events = 0
    origin = index[0][0] if index else 0.0
    started = time.monotonic()
    first_send = None
    for (due_offset, count, __), blob in zip(index, blobs):
        due = started + (due_offset - origin) if paced else time.monotonic()
        while paced:
            remaining = due - time.monotonic()
            if remaining <= 0:
                break
            connection.pump(remaining)
        if connection.credits < count:
            credit_waits += 1
            while connection.credits < count:
                connection.pump(0.05)
        if first_send is None:
            first_send = time.monotonic()
        connection.credits -= count
        connection.send(blob)
        sent_events += count
        lags_ms.append((time.monotonic() - due) * 1000.0)
        connection.unacked.append((sent_events, due))
    last_send = time.monotonic()
    connection.send(_message({"type": "bye"}))
    deadline = time.monotonic() + 60.0
    while connection.accepted is None:
        if time.monotonic() > deadline:
            raise RuntimeError("no goodbye from the server within 60 s")
        connection.pump(0.05)
    connection.sock.close()
    duration = max(last_send - (first_send or last_send), 1e-9)
    lag_p50, lag_p99 = _percentiles(lags_ms)
    ack_p50, ack_p99 = _percentiles(connection.ack_ms)
    print(
        json.dumps(
            {
                "mode": mode,
                "offered_events": sum(count for __, count, __len in index),
                "sent_events": sent_events,
                "accepted_events": connection.accepted,
                "frames": len(index),
                "first_send": first_send,
                "last_send": last_send,
                "offered_events_per_s": sent_events / duration,
                "credit_waits": credit_waits,
                "send_lag_p50_ms": lag_p50,
                "send_lag_p99_ms": lag_p99,
                "ack_samples": len(connection.ack_ms),
                "ack_p50_ms": ack_p50,
                "ack_p99_ms": ack_p99,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
