"""The process coordinator's command table: one reply path for every RPC.

Each command the coordinator ships to a worker — a synchronous RPC, a
pipelined register/unregister, a checkpoint round's snapshot request —
stays in one table, keyed by ``(shard, seq)``, until its reply arrives.
One pump reads the workers' reply queues, routes each reply to its command
and applies one retry policy; see :class:`_CommandTable`.  Workers are
touched only through their handle's ``commands.put``, ``replies.get`` and
``process.exitcode``, so the table runs against in-memory fakes without
forking.
"""

from __future__ import annotations

import queue as queue_module
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Optional

from repro.errors import LifecycleError, RumorError, WorkerUnreachableError
from repro.shard.wire import OK, decode_reply


class WorkerCrashError(RumorError):
    """A worker process died before acknowledging a command."""


class WorkerCommandError(LifecycleError):
    """A worker rejected a command (it is alive and rolled back cleanly)."""


@dataclass(eq=False)
class _Command:
    """One command shipped to a worker and not yet answered.

    ``on_reply(command, status, result)`` runs when the worker answers and
    ``on_death(command)`` when recovery buries the worker.  A synchronous
    RPC has no ``on_reply``: its caller blocks in :meth:`_CommandTable.wait`
    and gets the reply from there (on the worker's death, a
    :class:`WorkerCrashError`).
    """

    shard: int
    seq: int
    kind: str
    frame: tuple
    #: Ships past the frame-fault harness (its queue position is its
    #: meaning, see :class:`~repro.shard.proc.FrameFaults`).
    reliable: bool = False
    on_reply: Optional[Callable] = None
    on_death: Optional[Callable] = None
    #: What the command is, for error messages (defaults to its kind).
    label: str = ""
    #: Caller-owned facts the reply is checked against (a checkpoint's cut).
    context: Optional[dict] = None
    retries: int = 0
    timeout: float = 0.0
    started: float = field(default_factory=time.monotonic)
    #: ``(status, result)`` once a synchronous RPC is answered.
    reply: Optional[tuple] = None


class _CommandTable:
    """Every command in flight to a worker, keyed by ``(shard, seq)``, and
    the one pump that reads worker replies.

    Replies are routed by seq to their command; a reply whose command is no
    longer outstanding is a stale duplicate (a retransmission or an
    injected copy answered from the worker's reply cache) and is dropped.
    One retry policy covers every command: a timed-out wait retransmits
    under exponential backoff with seq-seeded jitter, and gives up with
    :class:`~repro.errors.WorkerUnreachableError` after ``max_retries``.
    A worker is touched only through its handle's ``commands.put``,
    ``replies.get`` and ``process.exitcode``.
    """

    def __init__(
        self, handles: dict, command_timeout: float, max_retries: int,
        faults=None,
    ):
        self.handles = handles
        self.command_timeout = command_timeout
        self.max_retries = max_retries
        self.faults = faults
        self.entries: dict[tuple[int, int], _Command] = {}
        #: Retransmissions sent / waits abandoned after the retry budget.
        self.retransmissions = 0
        self.unreachable = 0

    def submit(self, command: _Command) -> _Command:
        """Enter a command in the table and ship it."""
        command.label = command.label or command.kind
        command.timeout = self.command_timeout
        self.entries[command.shard, command.seq] = command
        self._ship(command)
        return command

    def _ship(self, command: _Command) -> None:
        copies = (
            1 if command.reliable or self.faults is None
            else self.faults.copies_of(command.frame)
        )
        for __ in range(copies):
            self.handles[command.shard].commands.put(command.frame)

    def outstanding(self, *kinds: str) -> list[_Command]:
        """Pipelined commands (those with an ``on_reply``) of ``kinds``."""
        return [
            command for command in self.entries.values()
            if command.on_reply is not None and command.kind in kinds
        ]

    def discard(self, command: _Command) -> None:
        self.entries.pop((command.shard, command.seq), None)

    def bury(self, shard: int) -> None:
        """Resolve a dead worker's commands: each one's ``on_death`` runs."""
        for key in [key for key in self.entries if key[0] == shard]:
            command = self.entries.pop(key)
            if command.on_death is not None:
                command.on_death(command)

    def _read(self, shard: int, timeout: Optional[float]) -> bool:
        """Route one reply from ``shard`` (``timeout=None``: without
        blocking); False when none arrived."""
        try:
            reply = self.handles[shard].replies.get(timeout is not None, timeout)
        except queue_module.Empty:
            return False
        seq, status, result = decode_reply(reply)
        command = self.entries.pop((shard, seq), None)
        if command is None:
            return True  # stale duplicate
        if command.on_reply is None:
            command.reply = (status, result)
        else:
            command.on_reply(command, status, result)
        return True

    def poll(self) -> None:
        """Route every reply already queued; O(1) with nothing outstanding."""
        for shard in {shard for shard, __ in self.entries}:
            while self._read(shard, None):
                pass

    def wait(self, command: _Command):
        """Block until ``command`` is answered, routing whatever arrives
        before it.  Returns a synchronous RPC's result (an error reply
        raises :class:`WorkerCommandError`); raises
        :class:`WorkerCrashError` if the worker exits first."""
        shard, handle = command.shard, self.handles[command.shard]
        jitter = Random(command.seq)
        while (shard, command.seq) in self.entries:
            if self._read(shard, command.timeout):
                continue
            if handle.process.exitcode is not None:
                raise WorkerCrashError(
                    f"shard {shard} worker exited with code "
                    f"{handle.process.exitcode} during {command.kind}"
                )
            command.retries += 1
            if command.retries > self.max_retries:
                self.unreachable += 1
                elapsed = time.monotonic() - command.started
                raise WorkerUnreachableError(
                    f"shard {shard} did not acknowledge {command.label} "
                    f"after {command.retries} attempts ({elapsed:.1f}s; "
                    f"max_retries={self.max_retries})",
                    shard=shard,
                    kind=command.kind,
                    attempts=command.retries,
                    elapsed_seconds=elapsed,
                )
            self.retransmissions += 1
            self._ship(command)
            # Each timeout doubles (capped at 8x) and is scaled by a
            # seq-seeded factor in [0.5, 1.5), so retransmission storms
            # de-synchronize while tests stay reproducible.
            command.timeout = min(
                self.command_timeout * (2 ** command.retries),
                self.command_timeout * 8,
            ) * jitter.uniform(0.5, 1.5)
        if command.reply is None:
            return None
        status, result = command.reply
        if status != OK:
            raise WorkerCommandError(
                f"shard {shard} {command.kind} failed: {result}"
            )
        return result
