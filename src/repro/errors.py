"""Exception hierarchy for the RUMOR reproduction.

Every error raised by the library derives from :class:`RumorError`, so
applications can catch a single base class.  Subclasses are grouped by the
subsystem that raises them: schema/stream construction, plan construction and
rewriting, operator evaluation, and the query language front end.
"""

from __future__ import annotations


class RumorError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(RumorError):
    """Raised for invalid schemas or schema-incompatible operations.

    Examples: duplicate attribute names, accessing an attribute that does not
    exist, or encoding streams with union-incompatible schemas into one
    channel.
    """


class ChannelError(RumorError):
    """Raised for invalid channel construction or membership handling."""


class PlanError(RumorError):
    """Raised for malformed query plans.

    Examples: wiring an m-op to a channel that is not in the plan, cycles in
    the plan graph, or merging m-ops that do not belong to the same plan.
    """


class RuleError(RumorError):
    """Raised when an m-rule is misapplied.

    The optimizer only applies a rule action after its condition holds, so
    user code normally never sees this; it guards against rule implementations
    whose condition and action disagree.
    """


class OperatorError(RumorError):
    """Raised for invalid operator definitions or evaluation failures."""


class ExpressionError(OperatorError):
    """Raised for invalid predicate or schema-map expressions."""


class QueryLanguageError(RumorError):
    """Raised by the query-language front end (parser / builder / compiler)."""


class ParseError(QueryLanguageError):
    """Raised when query text cannot be parsed.

    Carries the offending position so callers can point at the error.
    """

    def __init__(self, message: str, position: int = -1, text: str = ""):
        self.position = position
        self.text = text
        if position >= 0 and text:
            snippet = text[max(0, position - 20):position + 20]
            message = f"{message} (at position {position}: ...{snippet!r}...)"
        super().__init__(message)


class AutomatonError(RumorError):
    """Raised for malformed Cayuga-style automata."""


class LifecycleError(RumorError):
    """Raised by the online query runtime for invalid lifecycle transitions.

    Examples: registering a query id that is already live, unregistering a
    query that was never registered, or feeding an unknown source stream.
    """


class WorkloadError(RumorError):
    """Raised for invalid workload or dataset generator parameters."""


class WorkerUnreachableError(LifecycleError):
    """Raised when a worker exhausts its RPC retransmissions without replying.

    The worker process is still alive (a dead worker raises
    ``WorkerCrashError`` and is recovered instead) but never acknowledged
    the command within ``max_retries`` retransmissions — the structured
    alternative to retrying forever.  Carries the shard, command kind, attempt count and elapsed
    wall-clock so operators can tell a wedged worker from a slow one.
    """

    def __init__(
        self,
        message: str,
        shard: int = -1,
        kind: str = "",
        attempts: int = 0,
        elapsed_seconds: float = 0.0,
    ):
        super().__init__(message)
        self.shard = shard
        self.kind = kind
        self.attempts = attempts
        self.elapsed_seconds = elapsed_seconds


class CheckpointError(RumorError):
    """Raised by the durable checkpoint/restore subsystem.

    Examples: storing a checkpoint version that does not supersede the
    latest, a checkpoint manifest whose stream cursor disagrees with the
    coordinator's shipped counts, or replaying a corrupt write-ahead-log
    entry.
    """


class StaleCheckpointError(CheckpointError):
    """Raised when a restore requests a superseded checkpoint version.

    Once a newer version is stored, the replay log before its cut has been
    truncated — restoring an older version could not be completed to the
    present, so the request is rejected rather than silently serving stale
    state.
    """


class JournalError(CheckpointError):
    """Raised by the coordinator journal (:mod:`repro.shard.coordlog`).

    Examples: opening a runtime over a directory that already holds a
    previous serve's journal without resuming it, or replaying a journal
    record of an unknown kind.
    """


class ServeError(RumorError):
    """Raised by the live serving front door (:mod:`repro.serve`).

    Examples: a client overrunning its flow-control credits, an oversized
    or malformed protocol message, or submitting work to a serve session
    whose pump thread has died.
    """


class CoordinatorCrashError(RumorError):
    """A simulated coordinator death (fault injection only).

    Raised by :class:`~repro.shard.coordlog.CoordinatorFaults` at an armed
    crash point.  The runtime that raised it is dead from that moment on —
    tests either :meth:`~repro.shard.proc.ProcessShardedRuntime.abandon`
    it (cold-start path) or :meth:`~repro.shard.proc.ProcessShardedRuntime.detach`
    its workers for re-adoption.
    """
