"""The process-mode sharded lifecycle runtime.

:class:`ProcessShardedRuntime` is the cross-process sibling of
:class:`~repro.shard.runtime.ShardedRuntime`: the same API (register /
unregister / reoptimize / process / process_batch / rebalance), but every
shard's :class:`~repro.runtime.QueryRuntime` lives on a forked **worker
process**, driven by a command protocol layered on the
:mod:`~repro.shard.wire` frame format.

Protocol
--------

Each worker owns one command queue (coordinator → worker) and one reply
queue (worker → coordinator).  Two traffic classes share the command queue,
so their relative order — which is what makes lifecycle changes land on
batch boundaries — is preserved by construction:

- **data frames** (:mod:`~repro.shard.wire`) are fire-and-forget: the
  coordinator packs each source run once into columns and ships it to
  every shard whose queries read that stream — a record in the worker's
  shared-memory ring announced by a ``ring`` marker, a ``crun`` frame when
  the ring is full, the pickle ``run`` frame for a run that cannot pack
  (schema frames are broadcast to all workers);
- **command frames** (``register`` / ``unregister`` / ``reoptimize`` /
  ``rebalance`` / ``stats`` / ``snapshot`` / ``checkpoint`` …) carry a
  sequence number and sit in one **outstanding-command table**, keyed by
  ``(shard, seq)``, until answered.  One pump reads the reply queues: it
  routes each reply to its command by seq, drops stale duplicates,
  retransmits a command whose wait times out (one policy: exponential
  backoff with seq-seeded jitter, up to ``max_retries``) and notices dead
  workers.  A synchronous RPC blocks in the pump for its own reply;
  pipelined lifecycle commands and checkpoint rounds are collected by
  whichever caller pumps next.  Workers deduplicate by sequence number and
  answer duplicates from a reply cache, so commands apply exactly once even
  when the fault harness drops or duplicates frames.

Cross-process rebalance decomposes into two commands: ``rebalance("out")``
on the donor exports the component and serializes it
(:func:`~repro.shard.wire.encode_transfer` — plan subgraph + executor state
snapshots + captured histories), ``rebalance("in")`` on the receiver
deserializes and imports it, re-seeding freshly built executors with the
donor's window/sequence state.  If the import fails — including the
receiver dying mid-import — the coordinator re-imports the still-held blob
into the donor, so the component is never lost and never duplicated.

Durability and checkpoints
--------------------------

With ``durable=True`` the coordinator keeps a per-shard **write-ahead log**
(:class:`~repro.shard.checkpoint.ShardLog`): every data run and every
applied lifecycle command shipped to a worker, in order.  With
``checkpoint_every=N`` it additionally initiates a **checkpoint round**
every ``N`` batches: a ``checkpoint`` command is enqueued to every worker
(so each worker snapshots at an exact point in its own frame order — the
consistency cut), and the replies are collected **pipelined**: the
coordinator keeps serving data and lifecycle traffic while snapshots are
in flight, and whichever caller pumps next — another RPC, a batch
boundary, a heartbeat — stores the manifests that have arrived.  A
collected manifest becomes a versioned
:class:`~repro.shard.checkpoint.ShardCheckpoint` in the
:class:`~repro.shard.checkpoint.CheckpointStore` (per-component transfer
blobs + stream cursors), and the shard's log is truncated to the cut — the
log suffix past the newest checkpoint is exactly the recovery replay
window.

Failure semantics
-----------------

A worker that dies (detected via its exit code when a wait in the pump
times out, or when :meth:`ProcessShardedRuntime.heartbeat` scans it) is
respawned with a **fresh incarnation**: a new id range
(:mod:`repro.core.idspace`) and a replay of all schema frames.  Its
outstanding commands resolve at recovery: a synchronous RPC raises
:class:`WorkerCrashError` to its caller, a pipelined lifecycle command
counts as done (the replay re-applies it), and an in-flight checkpoint is
cancelled and counted in ``checkpoint_failures``.  What happens next
depends on durability:

- **durable**: the worker is restored from its latest stored checkpoint
  (``restore`` command — components re-imported with executor state
  re-seeded, captured histories re-homed, stream cursor reset to the cut),
  then the write-ahead-log suffix is replayed — lifecycle commands
  re-applied and source runs re-shipped in their original order — so the
  respawned worker's outputs are **byte-identical** to a never-crashed
  serve.  Without a completed checkpoint the replay starts from the log's
  origin (blank re-registration + full replay).
- **non-durable** (the PR-4 default): every catalog query is re-registered
  blank; operator state accumulated by the dead incarnation is lost
  (at-least-serving semantics).

Either way the recovery emits a structured
:class:`~repro.shard.checkpoint.RecoveryReport` (``recovery_log``,
``logging`` warning on state loss) — state is never dropped silently.
Components in flight during the crash roll back to their donor with state
intact.

Coordinator durability and elasticity
-------------------------------------

With ``journal=<dir>`` the coordinator's own durable state — write-ahead
logs, checkpoint-store index, shard→component placement, logical-query
catalog, input cursors — lives in an on-disk
:class:`~repro.shard.coordlog.CoordinatorLog` (append-only journal +
atomic-rename snapshot, sharing the checkpoint directory).  A restarted
coordinator either **re-adopts** still-live workers
(:meth:`ProcessShardedRuntime.readopt` — a ``hello`` handshake per worker
reports incarnation, highest applied command seq and stream cursors; the
coordinator reconciles each against its journal, rolling back unjournaled
effects and re-shipping journaled-but-unshipped data, then resumes RPCs
with no replay) or **cold-starts** the whole fleet from disk
(:meth:`ProcessShardedRuntime.from_journal` — every worker respawned from
its latest checkpoint + journaled log suffix), byte-identical to a
never-crashed serve either way.  The ordering disciplines that make this
sound (data journal-before-ship, lifecycle RPC-then-journal, checkpoints
store-then-journal) are documented in :mod:`repro.shard.coordlog`.

Checkpoints can ship **differentially** (``differential=True``): the
coordinator sends each worker the captured-history offsets of its last
stored checkpoint and the worker ships only the suffixes past them; the
coordinator splices the deltas onto its cached previous version before
storing, so the store stays self-contained while the wire carries a
fraction of the bytes (bounded by a periodic forced full round every
:data:`FULL_CHECKPOINT_EVERY` versions).

The fleet also resizes mid-serve: :meth:`ProcessShardedRuntime.add_worker`
spawns a fresh shard (ids are sparse and never reused), and
:meth:`ProcessShardedRuntime.remove_worker` drains a departing worker by
non-destructive component copy (``rebalance("copy")`` — snapshot + import
on a survivor, then unregister-with-purge on the donor) before stopping
it, with zero query loss and policy hooks
(:meth:`~repro.shard.policy.RebalancePolicy.on_grow` /
:meth:`~repro.shard.policy.RebalancePolicy.on_shrink`) choosing what
moves.

Determinism
-----------

With no injected faults, a process-mode serve is event-for-event identical
to the in-process :class:`ShardedRuntime` over the same schedule: placement
uses the same least-loaded heuristic, routing the same query→source
catalog, and each worker's ``QueryRuntime`` sees the exact per-shard
subsequence of events and lifecycle calls.  The property suite
(``tests/test_shardproc_equivalence.py``) asserts byte-identical captured
outputs across random churn schedules with mid-stream rebalances.
"""

from __future__ import annotations

import functools
import inspect
import logging
import multiprocessing
import os
import pickle
import queue as queue_module
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from random import Random
from typing import Optional, Sequence, Union

from contextlib import contextmanager

from repro.core.idspace import reseed_identifiers, worker_id_base
from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.engine.metrics import RunStats
from repro.obs.events import EventLog
from repro.obs.trace import SpanRecorder
from repro.errors import (
    ChannelError,
    CheckpointError,
    CoordinatorCrashError,
    JournalError,
    LifecycleError,
    QueryLanguageError,
    RumorError,
)
from repro.lang.ast import LogicalQuery
from repro.lang.compiler import as_logical, compile_into
from repro.runtime.runtime import QueryRuntime
from repro.shard.checkpoint import (
    CheckpointStore,
    ComponentCheckpoint,
    RecoveryReport,
    ShardCheckpoint,
    ShardLog,
    apply_restore,
    capture_manifest,
)
from repro.shard.coordlog import CoordinatorFaults, CoordinatorLog
from repro.shard.engine import fork_available
from repro.shard.ring import RingBuffer
from repro.shard.relay import decode_local_frames, relay_rows
from repro.shard.rpc import (
    WorkerCommandError,
    WorkerCrashError,
    _Command,
    _CommandTable,
)
from repro.shard.wire import (
    CHECKPOINT,
    COLLECT_RELAY,
    CRUN,
    ERR,
    HELLO,
    OK,
    PING,
    REBALANCE,
    REGISTER,
    RELAY_TAP,
    REOPTIMIZE,
    RESTORE,
    RING,
    RUN,
    RelayCodec,
    SCHEMA,
    SCHEMA_RETIRE,
    SNAPSHOT,
    STATS,
    STOP,
    STOP_FRAME,
    UNREGISTER,
    WireDecoder,
    WireEncoder,
    decode_command,
    decode_manifest,
    decode_transfer,
    encode_command,
    encode_reply,
    encode_transfer,
    frame_trace,
    pack_run_record,
)
from repro.streams.channel import Channel, ChannelTuple
from repro.streams.columns import ColumnBatch
from repro.streams.schema import Schema
from repro.streams.stream import StreamDef
from repro.streams.tuples import StreamTuple

logger = logging.getLogger(__name__)


def _locked(method):
    """Serialize a public entry point on the coordinator's re-entrant lock.

    The serve tier drives one runtime from several threads — the session's
    pump thread shipping data, a heartbeat timer, callers sampling stats —
    and every RPC conversation must own the worker reply queues exclusively
    or replies interleave across conversations.  Re-entrant so locked
    methods can compose (``collect_stats`` → ``shard_stats``)."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


@dataclass
class CoordinatorHandoff:
    """Live worker handles surrendered by a dead coordinator.

    Produced by :meth:`ProcessShardedRuntime.detach` after a (simulated)
    coordinator crash: the worker processes keep running with their full
    in-memory state, and a successor coordinator built with
    :meth:`ProcessShardedRuntime.readopt` adopts them through the ``hello``
    handshake instead of cold-starting from checkpoints.
    """

    #: shard id → :class:`_WorkerHandle` of the still-running worker.
    workers: dict


@dataclass
class WorkerFaults:
    """Deterministic crash injection for one worker's command loop.

    ``crash_on`` names the command kind and its 1-based occurrence count at
    which the worker hard-exits (``os._exit``) — rebalance commands are
    split into ``"rebalance-out"`` and ``"rebalance-in"`` so the two phases
    are injectable independently, and the pseudo-kind ``"data"`` counts
    data deliveries over every transport (``run`` and ``crun`` frames plus
    ``ring`` markers), so a crash can land *mid-stream* between two data
    batches where no RPC is watching.  ``when`` selects whether the crash
    fires before the command (or run frame) is applied or after it is
    applied but before the reply is sent (the nastier window: the
    coordinator cannot tell the two apart; for ``"checkpoint"`` this is a
    crash during the snapshot reply).  Faults are armed only for a shard's
    first incarnation unless ``rearm`` is set, so crash recovery does not
    immediately re-crash.
    """

    crash_on: Optional[tuple[str, int]] = None
    when: str = "before"
    exit_code: int = 32
    rearm: bool = False

    def __post_init__(self):
        if self.when not in ("before", "after"):
            raise LifecycleError(f"WorkerFaults.when must be before/after, got {self.when!r}")

    def matches(self, kind: str, count: int) -> bool:
        return self.crash_on is not None and (kind, count) == self.crash_on


@dataclass
class FrameFaults:
    """Seed-driven drop/duplicate injection for command frames.

    Applied on the coordinator's send path.  Three frame classes are exempt
    by design, because their position in the worker's queue is part of
    their meaning: **data frames** (loss would silently change outputs,
    which must fail loudly instead), **checkpoint frames** (the position
    *is* the consistency cut — a dropped-then-retransmitted checkpoint
    command would snapshot at a later cut than the coordinator recorded,
    which the cursor cross-check rejects as protocol corruption) and
    **pipelined lifecycle frames** (the position is the apply order the
    write-ahead log recorded at submit time).  Every other command recovers
    via retransmission plus sequence-number deduplication.  Counters record
    what the harness actually did so tests can assert the chaos really
    happened.
    """

    seed: int = 0
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    dropped: int = 0
    duplicated: int = 0
    _rng: Random = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not 0.0 <= self.drop_rate + self.dup_rate <= 1.0:
            raise LifecycleError("drop_rate + dup_rate must be within [0, 1]")
        self._rng = Random(self.seed)

    def copies_of(self, frame: tuple) -> int:
        """How many copies of this command frame to actually send."""
        roll = self._rng.random()
        if roll < self.drop_rate:
            self.dropped += 1
            return 0
        if roll < self.drop_rate + self.dup_rate:
            self.duplicated += 1
            return 2
        return 1


@dataclass
class _WorkerOptions:
    """Per-worker runtime configuration (pickled once at spawn)."""

    capture_outputs: bool = False
    track_latency: bool = False
    incremental: bool = True
    observe: bool = False


@dataclass
class _WorkerHandle:
    process: multiprocessing.process.BaseProcess
    commands: object
    replies: object
    incarnation: int
    #: Shared-memory data ring, fork-inherited by the worker.  Rides the
    #: handle so re-adoption hands the live ring to the successor
    #: coordinator with the queues.
    ring: RingBuffer


#: Worker-side reply cache size (duplicate commands beyond this window would
#: require the coordinator to have abandoned >128 in-flight commands, which
#: the synchronous RPC discipline makes impossible).
_REPLY_CACHE = 128

#: Source events per shipped run: longer runs are cut into chunks of this
#: size, each journaled, logged and shipped on its own.
_MAX_BATCH = 1024

#: Differential checkpointing forces a full round every this many versions,
#: bounding how many splices any restore chain depends on.
FULL_CHECKPOINT_EVERY = 8


def _resume_options(
    cls, journal: Union[str, CoordinatorLog], options: dict
) -> tuple[CoordinatorLog, dict]:
    """Open a prior serve's journal; returns it with the construction
    options to resume under — the journaled ones ``cls`` still takes (a
    journal written by an older version may carry retired options),
    overridden by ``options``."""
    log = (
        journal
        if isinstance(journal, CoordinatorLog)
        else CoordinatorLog(journal)
    )
    if log.is_fresh:
        raise JournalError(
            f"no coordinator journal found under {log.path!r}; nothing "
            f"to resume"
        )
    accepted = inspect.signature(cls).parameters
    merged = {
        key: value
        for key, value in log.state.options.items()
        if key in accepted
    }
    merged.update(options)
    merged.pop("n_shards", None)  # topology comes from the journal
    return log, merged


def _apply_command(runtime: QueryRuntime, kind: str, payload, recorder=None):
    """Execute one command against the worker's runtime; returns the reply
    payload.  Raises to signal an ``err`` reply (the runtime's own rollback
    discipline — registration rollback, import rollback — has already run
    by the time the exception surfaces).  ``recorder`` is the worker's span
    recorder (observing workers only); the telemetry ``stats`` variant
    drains it into the reply."""
    if kind == REGISTER:
        report = runtime.register(payload)
        return {
            "query_id": payload.query_id,
            "mops": len(runtime.plan.mops),
            "mops_considered": report.mops_considered,
        }
    if kind == UNREGISTER:
        query_id, purge = payload, False
        if isinstance(payload, dict):
            # Extended form used by re-adopt reconciliation and copy-drain:
            # the query's captured history must not survive as a retired
            # orphan, because the journal says it lives elsewhere (or never
            # existed) — keeping it would double it at the next snapshot.
            query_id = payload["query_id"]
            purge = bool(payload.get("purge_captured"))
        removed = runtime.unregister(query_id)
        if purge:
            runtime.engine.captured.pop(query_id, None)
        return {"removed_mops": len(removed)}
    if kind == REOPTIMIZE:
        report = runtime.reoptimize()
        return {"mops_considered": report.mops_considered}
    if kind == REBALANCE:
        action, value = payload
        if action == "out":
            transfer = runtime.export_component(value)
            try:
                blob = encode_transfer(transfer)
            except Exception:
                # Serialization failed after the export detached the
                # component: put it straight back (lossless — the transfer
                # still holds the live executors) before reporting the
                # error, so the donor keeps serving.
                runtime.import_component(transfer)
                raise
            # Exports fed by moved queries leave with them: the coordinator
            # re-installs the tap on the recipient at the collected cursor.
            moved = set(transfer.query_ids)
            for alias in [
                alias
                for alias, entry in runtime.relay_exports.items()
                if entry.get("query_id") in moved
            ]:
                runtime.remove_export(alias)
            return {"blob": blob, "queries": transfer.query_ids}
        if action == "in":
            transfer = decode_transfer(value)
            runtime.import_component(transfer)
            return {"queries": transfer.query_ids}
        if action == "copy":
            # Non-destructive export (elastic drain transport): snapshot
            # the component exactly like a checkpoint would, leaving the
            # live copy serving until the coordinator retires it.
            transfer = runtime.checkpoint_component(value)
            return {
                "blob": encode_transfer(transfer),
                "queries": sorted(transfer.query_ids),
            }
        raise LifecycleError(f"unknown rebalance action {action!r}")
    if kind == RELAY_TAP:
        alias = payload["alias"]
        if payload.get("remove"):
            runtime.remove_export(alias)
            return {"alias": alias}
        stream, channel = payload.get("stream"), payload.get("channel")
        if payload.get("make"):
            # Owner-side creation: mint the alias stream/channel in this
            # worker's id-space (collision-free by reseed_identifiers) and
            # hand them back for coordinator registration + broadcast
            # adoption on the other shards.
            from repro.shard.relay import sink_channel_of

            sink = sink_channel_of(runtime.plan, payload["query_id"])
            stream = StreamDef(
                alias,
                sink.streams[0].schema,
                sharable_label=payload.get("sharable_label"),
            )
            channel = Channel.singleton(stream)
        runtime.export_stream(
            alias,
            payload.get("query_id"),
            stream,
            channel,
            cursor=payload.get("cursor", 0),
        )
        return {"alias": alias, "stream": stream, "channel": channel}
    if kind == COLLECT_RELAY:
        alias = payload["alias"]
        start, runs, produced = runtime.collect_relay(alias, payload["ack"])
        codec = RelayCodec(
            payload["edge"], runtime.relay_exports[alias]["alias_channel"]
        )
        frames = []
        for run in runs:
            frames.extend(codec.encode(run))
        frames.append(codec.encode_eof())
        return {"start": start, "frames": frames, "produced": produced}
    if kind == CHECKPOINT:
        return capture_manifest(
            runtime, payload["version"], payload.get("base")
        )
    if kind == RESTORE:
        return apply_restore(runtime, payload)
    if kind == STATS:
        if isinstance(payload, dict) and payload.get("telemetry"):
            observer = runtime.engine.observer
            return {
                "stats": runtime.stats,
                "mop_stats": runtime.mop_stats(),
                "query_heat": runtime.query_heat(),
                "peak_state": observer.peak_state if observer is not None else 0,
                "spans": recorder.drain() if recorder is not None else [],
                "state_size": runtime.state_size,
            }
        return runtime.stats
    if kind == SNAPSHOT:
        if isinstance(payload, dict) and "component_of" in payload:
            # Focused snapshot: just the component membership of one query
            # (the rebalance policies' oversized pre-check).
            return {
                "component": runtime.component_query_ids(payload["component_of"])
            }
        return {
            "captured": {
                query_id: list(history)
                for query_id, history in runtime.captured.items()
            },
            "state_size": runtime.state_size,
            "active_queries": list(runtime.active_queries),
            "migrations": runtime.stats.migrations,
            "mops": len(runtime.plan.mops),
        }
    raise LifecycleError(f"unknown command kind {kind!r}")


def _worker_main(
    shard: int,
    incarnation: int,
    streams: list[StreamDef],
    channels: dict[str, Channel],
    commands,
    replies,
    options: _WorkerOptions,
    faults: Optional[WorkerFaults],
    ring: RingBuffer,
) -> None:
    """Worker body: one QueryRuntime served by the command/data loop."""
    reseed_identifiers(worker_id_base(incarnation))
    runtime = QueryRuntime(
        capture_outputs=options.capture_outputs,
        track_latency=options.track_latency,
        incremental=options.incremental,
        observe=options.observe,
    )
    for stream in streams:
        runtime.adopt_source(stream, channels[stream.name])
    recorder = (
        SpanRecorder(f"w{shard}.{incarnation}") if options.observe else None
    )
    decoder = WireDecoder(channels.values())
    counts: dict[str, int] = {}
    cache: OrderedDict[int, tuple] = OrderedDict()
    max_seq = 0
    while True:
        try:
            frame = commands.get()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        kind = frame[0]
        if kind == STOP:
            return
        if (
            kind == SCHEMA
            or kind == RUN
            or kind == CRUN
            or kind == RING
            or kind == SCHEMA_RETIRE
        ):
            crashing = False
            is_data = kind == RUN or kind == CRUN or kind == RING
            if is_data and faults is not None:
                count = counts.get("data", 0) + 1
                counts["data"] = count
                crashing = faults.matches("data", count)
                if crashing and faults.when == "before":
                    os._exit(faults.exit_code)
            trace = frame_trace(frame) if recorder is not None else None
            if kind == RING:
                # The marker announces one packed record already resident
                # in the shared ring; the queue put that delivered the
                # marker is the memory barrier, so the bytes are present.
                decoded = decoder.decode_ring(ring.read(frame[1]))
            else:
                decoded = decoder.decode(frame)
            if decoded is not None:
                channel, batch = decoded
                # Source channels are singletons in the lifecycle runtime,
                # so the run maps 1:1 onto the stream's own batch path.
                stream = channel.streams[0]
                if isinstance(batch, ColumnBatch):
                    if trace is not None:
                        with recorder.span(
                            "data:apply",
                            trace[0],
                            parent_id=trace[1],
                            shard=shard,
                            stream=stream.name,
                            count=batch.count,
                        ):
                            runtime.process_columns(stream.name, batch)
                    else:
                        runtime.process_columns(stream.name, batch)
                else:
                    tuples = [
                        channel_tuple.tuple for channel_tuple in batch
                    ]
                    if trace is not None:
                        with recorder.span(
                            "data:apply",
                            trace[0],
                            parent_id=trace[1],
                            shard=shard,
                            stream=stream.name,
                            count=len(tuples),
                        ):
                            runtime.process_batch(stream.name, tuples)
                    else:
                        runtime.process_batch(stream.name, tuples)
            if crashing and faults.when == "after":
                os._exit(faults.exit_code)
            continue
        trace = frame_trace(frame) if recorder is not None else None
        kind, seq, payload = decode_command(frame)
        if kind == HELLO or kind == PING:
            # ``hello``: a restarted coordinator's adoption handshake.
            # ``ping``: the coordinator's liveness probe.  Both answered
            # outside the reply cache and the fault counters: a hello's seq
            # comes from a *new* coordinator's numbering (which restarts
            # below the old one's, so a cached reply keyed by a recycled
            # seq must never answer it), and injected crash schedules count
            # real commands only.  The reply is a pure read — repeats are
            # safe, and a hung runtime (not a dead process) simply never
            # gets here, which is exactly what the ping probe detects.
            replies.put(
                encode_reply(
                    seq,
                    OK,
                    {
                        "shard": shard,
                        "incarnation": incarnation,
                        "max_seq": max_seq,
                        "cursor": dict(runtime.cursor),
                        "active_queries": sorted(runtime.active_queries),
                        "exports": sorted(runtime.relay_exports),
                    },
                )
            )
            continue
        if seq > max_seq:
            max_seq = seq
        fault_kind = kind if kind != REBALANCE else f"rebalance-{payload[0]}"
        count = counts.get(fault_kind, 0) + 1
        counts[fault_kind] = count
        crashing = faults is not None and faults.matches(fault_kind, count)
        if crashing and faults.when == "before":
            os._exit(faults.exit_code)
        cached = cache.get(seq)
        if cached is not None:
            # Duplicate (retransmitted or fault-injected) command: answer
            # from the cache, never re-apply.
            replies.put(cached)
            continue
        try:
            if trace is not None:
                with recorder.span(
                    f"apply:{fault_kind}",
                    trace[0],
                    parent_id=trace[1],
                    shard=shard,
                ):
                    result = _apply_command(runtime, kind, payload, recorder)
            else:
                result = _apply_command(runtime, kind, payload, recorder)
            if kind == RELAY_TAP and isinstance(result, dict):
                # Adopting an alias must also teach the wire decoder its
                # channel, or relayed runs shipped on it cannot decode.
                adopted = result.get("channel")
                if adopted is not None:
                    decoder.add_channel(adopted)
            status = OK
        except RumorError as error:
            status, result = ERR, f"{type(error).__name__}: {error}"
        except Exception:  # noqa: BLE001 - must cross the process boundary
            status, result = ERR, traceback.format_exc()
        if crashing and faults.when == "after":
            os._exit(faults.exit_code)
        reply = encode_reply(seq, status, result)
        cache[seq] = reply
        while len(cache) > _REPLY_CACHE:
            cache.popitem(last=False)
        replies.put(reply)


class ProcessShardedRuntime:
    """``n`` worker-process QueryRuntimes serving one changing population.

    Mirrors the :class:`~repro.shard.runtime.ShardedRuntime` API; see the
    module docstring for the protocol and failure semantics.  Sources must
    all be declared before the first lifecycle or event call — workers fork
    with the source stream/channel objects, which is what keeps ids and
    wiring signatures consistent across every process.
    """

    def __init__(
        self,
        sources: Optional[dict[str, Schema]] = None,
        n_shards: int = 2,
        capture_outputs: bool = False,
        track_latency: bool = False,
        incremental: bool = True,
        command_timeout: float = 2.0,
        max_retries: int = 30,
        faults: Optional[FrameFaults] = None,
        worker_faults: Optional[dict[int, WorkerFaults]] = None,
        durable: bool = False,
        checkpoint_every: int = 0,
        store: Optional[CheckpointStore] = None,
        observe: bool = False,
        journal: Union[str, CoordinatorLog, None] = None,
        differential: bool = True,
        coordinator_faults: Optional[CoordinatorFaults] = None,
        _resume: bool = False,
        _handoff: Optional[CoordinatorHandoff] = None,
    ):
        if not fork_available():
            raise LifecycleError(
                "ProcessShardedRuntime requires the fork start method; "
                "use ShardedRuntime on this platform"
            )
        if checkpoint_every < 0:
            raise LifecycleError(
                f"checkpoint_every must be non-negative, got {checkpoint_every}"
            )
        self._journal = (
            journal
            if isinstance(journal, CoordinatorLog) or journal is None
            else CoordinatorLog(journal)
        )
        self._resume = bool(_resume)
        self._handoff = _handoff
        if self._resume and self._journal is None:
            raise JournalError("resuming requires a coordinator journal")
        if (
            self._journal is not None
            and not self._resume
            and not self._journal.is_fresh
        ):
            path = self._journal.path
            self._journal.close()
            raise JournalError(
                f"{path!r} already holds a previous serve's coordinator "
                f"journal; resume it with ProcessShardedRuntime.from_journal"
                f"(...) / .readopt(...), or point journal= at a fresh "
                f"directory"
            )
        self.command_timeout = command_timeout
        self.max_retries = max_retries
        self.faults = faults
        self._worker_faults = dict(worker_faults or {})
        self._coordinator_faults = coordinator_faults
        # Checkpointing (and a coordinator journal) implies durability: a
        # checkpoint without the log suffix behind it could not be replayed
        # to the present.
        self.durable = (
            durable
            or checkpoint_every > 0
            or store is not None
            or self._journal is not None
        )
        self.checkpoint_every = checkpoint_every
        self.differential = bool(differential)
        if store is None and self._journal is not None:
            # The journal directory doubles as the checkpoint directory —
            # one place on disk holds everything a cold start needs.
            store = CheckpointStore(self._journal.path)
        self.store = (
            store if store is not None
            else (CheckpointStore() if self.durable else None)
        )
        #: Per-shard checkpoints stored / rounds that lost a shard.
        self.checkpoints_stored = 0
        self.checkpoint_failures = 0
        #: Manifest bytes received over the wire by checkpoint rounds
        #: (differential rounds shrink this, not what lands in the store).
        self.checkpoint_wire_bytes = 0
        #: Final counters of workers retired by elastic shrink (their
        #: outputs would otherwise vanish from :meth:`collect_stats`).
        self._retired_stats = RunStats()
        #: Structured per-recovery accounts, in order (silent-loss fix).
        self.recovery_log: list[RecoveryReport] = []
        self.observe = bool(observe)
        #: One trace covers the whole serve; spans on both sides carry it.
        self.trace_id = f"serve-{os.getpid()}-{id(self) & 0xFFFFFF:x}"
        self.recorder = SpanRecorder("c") if self.observe else None
        #: Structured event log, mirrored onto this module's logger (so the
        #: existing log-capture contracts — recovery warnings on
        #: ``repro.shard.proc`` — keep holding).
        self.events = EventLog(logger)
        self._span_stack: list[str] = []
        self._options = _WorkerOptions(
            capture_outputs=capture_outputs,
            track_latency=track_latency,
            incremental=incremental,
            observe=self.observe,
        )
        self._context = multiprocessing.get_context("fork")
        self.streams: dict[str, StreamDef] = {}
        self._channels: dict[str, Channel] = {}
        self._source_labels: dict[str, Optional[str]] = {}
        #: query_id -> LogicalQuery (the recovery catalog), insertion order.
        self._queries: dict[str, LogicalQuery] = {}
        #: query_id -> owning shard, insertion order (mirrors ShardedRuntime).
        self._query_shard: dict[str, int] = {}
        #: Live shard ids, in creation order.  Sparse after an elastic
        #: shrink: ids are never reused, so checkpoints, logs and journal
        #: records always refer to exactly one worker lineage.
        self._shards: list[int] = []
        self._workers: dict[int, _WorkerHandle] = {}
        self._spawned: dict[int, int] = {}
        self._wal: Optional[dict[int, ShardLog]] = {} if self.durable else None
        #: Per-shard, per-stream shipped-event counts — the coordinator's
        #: view of each worker's stream cursor, cross-checked against every
        #: checkpoint manifest.
        self._shipped: dict[int, dict[str, int]] = {}
        self._next_shard = 0
        self._batches = 0
        #: Re-entrant coordinator lock: every public entry point runs under
        #: it (see :func:`_locked`), making the runtime safe to drive from
        #: a serve session's pump thread + heartbeat timer + sampling
        #: callers concurrently.
        self._lock = threading.RLock()
        #: Every command shipped and not yet answered (see _CommandTable).
        self._table = _CommandTable(
            self._workers, command_timeout, max_retries, faults
        )
        #: shard → (version, {query_id: full captured history}) cache of the
        #: latest stored checkpoint's materialized histories — the splice
        #: base for differential rounds (rebuilt lazily from store blobs).
        self._ckpt_captured: dict[int, tuple[int, dict]] = {}
        self._encoder = WireEncoder()
        self._schema_frames: list[tuple] = []
        self._route_cache: dict[str, tuple[int, ...]] = {}
        self._seq = 0
        self._started = False
        self._closed = False
        #: Coordinator-side input accounting (each source event once,
        #: however many shards consume it — the single-runtime convention).
        self.input_stats = RunStats()
        self.rebalances = 0
        self.crash_recoveries = 0
        #: alias → ``{"query_id", "edge", "collected"}`` — cross-shard
        #: relay exports (see :meth:`export_stream`).  ``collected`` is the
        #: journal-backed exactly-once watermark for relayed tuples.
        self._relays: dict[str, dict] = {}
        #: Monotone relay edge-id seed (frames the per-collect codecs).
        self._next_relay_edge = 1
        #: Relayed (derived) tuples re-emitted across shards — volume
        #: counter only; relay traffic never counts as source input.
        self.relayed_events = 0
        incarnation_start = 1
        if self._resume:
            state = self._journal.state
            self._shards = list(state.shards)
            self._next_shard = state.next_shard
            self._spawned = dict(state.spawned)
            self._wal = {
                shard: log.clone() for shard, log in state.wal.items()
            }
            self._shipped = {
                shard: dict(counts) for shard, counts in state.shipped.items()
            }
            self._queries = dict(state.queries)
            self._query_shard = dict(state.query_shard)
            self._batches = state.batches
            self._ckpt_version = state.ckpt_version
            # Unlike a foreign reopened store, the journaled checkpoints
            # ARE this serve's restore points — the floor stays at zero and
            # anything the journal never acknowledged is pruned so restores
            # only ever use journaled cuts (store-then-journal ordering).
            self._ckpt_floor = 0
            for shard in list(self.store.shards()):
                self.store.prune_above(shard, state.ckpt_valid.get(shard, 0))
            incarnation_start = state.next_incarnation
            for name, (stream, channel, label) in state.sources.items():
                self.streams[name] = stream
                self._channels[name] = channel
                self._source_labels[name] = label
            for alias, info in state.relays.items():
                self._relays[alias] = dict(info)
                if info["edge"] >= self._next_relay_edge:
                    self._next_relay_edge = info["edge"] + 1
            self.input_stats.input_events = state.input_events
            self.input_stats.physical_input_events = state.input_events
            if state.retired_stats is not None:
                self._retired_stats.absorb(state.retired_stats)
        else:
            if n_shards < 1:
                raise LifecycleError(
                    f"n_shards must be at least 1, got {n_shards}"
                )
            # A reopened on-disk store may hold a *previous run's*
            # checkpoints.  Those are foreign to this serve: their versions
            # seed ours (so new rounds supersede instead of colliding) but
            # they are never restorable — this run's recovery floor starts
            # above them.
            self._ckpt_floor = (
                max(
                    (
                        self.store.latest_version(shard) or 0
                        for shard in self.store.shards()
                    ),
                    default=0,
                )
                if self.store is not None
                else 0
            )
            self._ckpt_version = self._ckpt_floor
            if self._journal is not None:
                self._journal.append(
                    "options",
                    {
                        "capture_outputs": capture_outputs,
                        "track_latency": track_latency,
                        "incremental": incremental,
                        "checkpoint_every": checkpoint_every,
                        "observe": self.observe,
                        "differential": self.differential,
                    },
                )
            for __ in range(n_shards):
                shard = self._next_shard
                self._next_shard += 1
                self._shards.append(shard)
                self._shipped[shard] = {}
                if self._wal is not None:
                    self._wal[shard] = ShardLog()
                if self._journal is not None:
                    self._journal.append("add_worker", shard)
        self._incarnations = iter(range(incarnation_start, 1 << 20)).__next__
        if sources:
            for name, schema in sources.items():
                self.add_source(name, schema)

    # -- resume constructors -----------------------------------------------------------

    @classmethod
    def from_journal(
        cls, journal: Union[str, CoordinatorLog], **options
    ) -> "ProcessShardedRuntime":
        """Cold-start a runtime from a prior serve's coordinator journal.

        The journal's folded state supplies the topology, source catalog,
        query placement, input cursors and runtime options (keyword
        arguments override the journaled options); the fleet is respawned
        lazily on the first lifecycle or data call, each worker restored
        from its latest journaled checkpoint plus its journaled
        write-ahead-log suffix — byte-identical to a never-crashed serve.
        """
        log, merged = _resume_options(cls, journal, options)
        return cls(journal=log, _resume=True, **merged)

    @classmethod
    def readopt(
        cls,
        journal: Union[str, CoordinatorLog],
        handoff: CoordinatorHandoff,
        **options,
    ) -> "ProcessShardedRuntime":
        """Resume a serve by re-adopting a dead coordinator's live workers.

        Like :meth:`from_journal`, but instead of respawning the fleet the
        new coordinator handshakes every still-running worker in
        ``handoff`` (``hello`` → incarnation, applied seq, stream cursors,
        active queries), reconciles each against the journal — unjournaled
        effects rolled back, journaled-but-unshipped data re-shipped, dead
        or diverged workers respawned from checkpoints — and resumes RPCs
        without replaying the fleet.
        """
        log, merged = _resume_options(cls, journal, options)
        return cls(journal=log, _resume=True, _handoff=handoff, **merged)

    # -- sources ---------------------------------------------------------------------

    def add_source(
        self,
        name: str,
        schema: Schema,
        sharable_label: Optional[str] = None,
    ) -> StreamDef:
        """Declare a source; must happen before the workers fork."""
        if self._started:
            raise LifecycleError(
                "sources must be declared before the first lifecycle call "
                "(workers inherit them at fork)"
            )
        if name in self.streams:
            raise LifecycleError(f"source {name!r} is already declared")
        stream = StreamDef(name, schema, sharable_label=sharable_label)
        self.streams[name] = stream
        self._channels[name] = Channel.singleton(stream)
        self._source_labels[name] = sharable_label
        if self._journal is not None:
            # The stream and channel objects are journaled whole: their
            # pickled identities (stream/channel ids) are what a resumed
            # coordinator needs to keep talking to workers — and to spawn
            # workers — that inherited these exact objects.
            self._journal.append("source", name, stream, self._channels[name], sharable_label)
        return stream

    # -- topology --------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Live worker count (elastic: changes mid-serve)."""
        return len(self._shards)

    def shard_ids(self) -> list[int]:
        """Live shard ids in creation order (sparse after a shrink)."""
        return list(self._shards)

    # -- worker management -----------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._closed:
            raise LifecycleError("runtime is closed")
        if self._started:
            return
        self._started = True
        if self._resume and self._handoff is not None:
            handoff, self._handoff = self._handoff, None
            self._adopt(handoff)
            return
        for shard in list(self._shards):
            self._spawn(shard)
        if self._resume:
            self._cold_start()

    def _spawn(self, shard: int) -> _WorkerHandle:
        self._spawned[shard] = self._spawned.get(shard, 0) + 1
        faults = self._worker_faults.get(shard)
        if faults is not None and self._spawned[shard] > 1 and not faults.rearm:
            faults = None
        incarnation = self._incarnations()
        if self._journal is not None:
            # Journaled before the fork: the journal's next_incarnation is
            # then always >= any incarnation that ever ran, so a resumed
            # coordinator can never alias a live worker's id range.
            self._journal.append("spawn", shard, incarnation)
        commands = self._context.Queue()
        replies = self._context.Queue()
        # The data ring is allocated before the fork so the child inherits
        # the shared arena; a respawn gets a fresh ring (the dead
        # incarnation's unread bytes die with it — every announced record
        # was matched by a queue marker the new queue no longer holds).
        ring = RingBuffer()
        process = self._context.Process(
            target=_worker_main,
            name=f"shard{shard}.{incarnation}",
            args=(
                shard,
                incarnation,
                list(self.streams.values()),
                dict(self._channels),
                commands,
                replies,
                self._options,
                faults,
                ring,
            ),
            daemon=True,
        )
        process.start()
        handle = self._workers[shard] = _WorkerHandle(
            process=process,
            commands=commands,
            replies=replies,
            incarnation=incarnation,
            ring=ring,
        )
        # Respawns and new shards decode in-flight streams immediately.
        for frame in self._schema_frames:
            commands.put(frame)
        return handle

    @_locked
    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers.values():
            try:
                handle.commands.put(STOP_FRAME)
            except (OSError, ValueError):
                pass
        for handle in self._workers.values():
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        if self._journal is not None:
            self._journal.close()

    def _stop_handle(self, handle: _WorkerHandle) -> None:
        """Stop one worker gracefully, escalating to terminate."""
        try:
            handle.commands.put(STOP_FRAME)
        except (OSError, ValueError):
            pass
        handle.process.join(timeout=2.0)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=1.0)

    def detach(self) -> CoordinatorHandoff:
        """Surrender the live worker handles without stopping the workers.

        Models a coordinator crash whose workers survive (they are separate
        processes; losing the coordinator does not kill them): the runtime
        object is dead afterwards (``close`` becomes a no-op and no further
        calls are valid), and the returned handoff feeds
        :meth:`readopt` on a successor coordinator.
        """
        handoff = CoordinatorHandoff(workers=dict(self._workers))
        self._workers.clear()
        self._closed = True
        if self._journal is not None:
            self._journal.close()
        return handoff

    def abandon(self) -> None:
        """Hard-kill the fleet and drop the runtime (simulated total loss).

        No STOP commands, no draining — the workers are terminated the way
        a machine failure would take them, leaving only the on-disk journal
        and checkpoint store for :meth:`from_journal` to cold-start from.
        """
        self._closed = True
        for handle in self._workers.values():
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(timeout=1.0)
        self._workers.clear()
        if self._journal is not None:
            self._journal.close()

    def _crash_point(self, point: str, phase: str) -> None:
        """Fire an armed coordinator fault (no-op without injection)."""
        if self._coordinator_faults is None:
            return
        try:
            self._coordinator_faults.check(point, phase)
        except CoordinatorCrashError:
            # The coordinator is dead from here on; the test harness
            # catches the error and either abandons or detaches the fleet.
            self.events.emit(
                "coordinator_crash",
                message=f"injected coordinator crash at {point} ({phase})",
                level=logging.WARNING,
                point=point,
                phase=phase,
            )
            raise

    def __enter__(self) -> "ProcessShardedRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- tracing ---------------------------------------------------------------------

    def _trace_ctx(self) -> Optional[tuple]:
        """The ``(trace_id, parent_span_id)`` pair to piggyback on a frame:
        the innermost open coordinator span, or the serve root."""
        if self.recorder is None:
            return None
        parent = self._span_stack[-1] if self._span_stack else None
        return (self.trace_id, parent)

    @contextmanager
    def _traced(self, name: str, **attrs):
        """Coordinator span covering a structural operation (rebalance,
        recovery, checkpoint round); RPCs and shipped runs issued inside it
        nest under it via :meth:`_trace_ctx`.  No-op when not observing."""
        if self.recorder is None:
            yield None
            return
        parent = self._span_stack[-1] if self._span_stack else None
        span = self.recorder.start(name, self.trace_id, parent, **attrs)
        self._span_stack.append(span.span_id)
        try:
            yield span
        except BaseException:
            span.attrs["error"] = True
            raise
        finally:
            self._span_stack.pop()
            span.finish()
            self.recorder.record(span)

    # -- RPC -------------------------------------------------------------------------
    #
    # Every command rides the outstanding-command table.  Synchronous RPCs
    # block in its pump for their own reply; pipelined lifecycle commands
    # and checkpoint rounds are collected whenever any caller pumps —
    # another RPC, a per-batch poll, a heartbeat or an explicit collect.

    @property
    def rpc_retransmissions(self) -> int:
        """Command retransmissions sent after a timed-out wait."""
        return self._table.retransmissions

    @property
    def rpc_unreachable(self) -> int:
        """Waits abandoned after the retry budget."""
        return self._table.unreachable

    def _send(self, shard: int, kind: str, payload=None, **options):
        """Ship a command under the next sequence number; returns
        ``(command, span)`` — the span (when observing) is the caller's to
        finish.  ``options`` are :class:`_Command` fields."""
        self._seq += 1
        span = trace = None
        if self.recorder is not None:
            span = self.recorder.start(
                f"rpc:{kind}",
                self.trace_id,
                self._span_stack[-1] if self._span_stack else None,
                shard=shard,
            )
            trace = (self.trace_id, span.span_id)
        frame = encode_command(kind, self._seq, payload, trace=trace)
        command = _Command(shard, self._seq, kind, frame, **options)
        return self._table.submit(command), span

    def _collect(self, command: _Command, span=None):
        """Block for a synchronous command's reply (raw, no recovery)."""
        try:
            return self._table.wait(command)
        except BaseException:
            if span is not None:
                span.attrs["error"] = True
            raise
        finally:
            self._table.discard(command)
            if span is not None:
                span.finish()
                self.recorder.record(span)

    def _rpc(self, shard: int, kind: str, payload=None):
        """Send one command and block for its reply (raw, no recovery)."""
        return self._collect(*self._send(shard, kind, payload))

    def _rpc_fanout(self, kind: str, payloads: dict) -> dict:
        """Ship one command per shard (``payloads``: shard → payload), then
        collect shard → result.  The workers answer concurrently, so the
        barrier costs the slowest round trip rather than the sum.  A shard
        that dies mid-fan is recovered and its command retried once (the
        :meth:`_rpc_recovering` discipline, per shard)."""
        sent = {
            shard: self._send(shard, kind, payload)
            for shard, payload in payloads.items()
        }
        results = {}
        try:
            for shard, (command, span) in sent.items():
                try:
                    results[shard] = self._collect(command, span)
                except WorkerCrashError:
                    # Recovery buries only this shard's commands, so the
                    # other in-flight fan replies are untouched; the
                    # respawned worker never saw the fan frame.
                    self._recover(shard)
                    results[shard] = self._rpc(shard, kind, payloads[shard])
        finally:
            for command, __ in sent.values():
                self._table.discard(command)
        return results

    def _rpc_recovering(self, shard: int, kind: str, payload=None):
        """RPC that survives one worker crash: recover, then retry once."""
        try:
            return self._rpc(shard, kind, payload)
        except WorkerCrashError:
            self._recover(shard)
            return self._rpc(shard, kind, payload)

    def _settle(self, *kinds: str) -> int:
        """Block until no pipelined command of ``kinds`` is outstanding.

        A worker found dead is recovered, which resolves its commands (see
        :meth:`_recover`).  Returns how many commands were settled."""
        settled = len(self._table.outstanding(*kinds))
        while True:
            pending = self._table.outstanding(*kinds)
            if not pending:
                return settled
            try:
                self._table.wait(pending[0])
            except WorkerCrashError:
                self._recover(pending[0].shard)

    def _recover(self, shard: int, event: str = "recovery") -> RecoveryReport:
        """Respawn a dead worker and bring it back to the present.

        Durable mode restores the shard's latest checkpoint (executor state
        re-seeded, captured histories re-homed, cursor reset to the cut) and
        replays the write-ahead-log suffix — lifecycle commands and source
        runs in their original order — so the respawned worker is
        byte-identical to one that never crashed.  Non-durable mode blank
        re-registers the catalog queries, dropping the dead incarnation's
        operator state.  Either way a structured :class:`RecoveryReport` is
        appended to :attr:`recovery_log` and emitted through ``logging`` as
        ``event``.  Re-adoption replaces a live but journal-diverged worker
        the same way (``event="readopt_respawn"``).
        """
        with self._traced("recovery", shard=shard):
            return self._recover_inner(shard, event)

    def _recover_inner(self, shard: int, event: str) -> RecoveryReport:
        old = self._workers.pop(shard, None)
        if old is not None:  # absent when re-adoption found no live worker
            self._stop_handle(old)
        started = time.perf_counter()
        # The dead worker's commands resolve here: a snapshot in flight can
        # never complete (its round proceeds without this shard, older
        # version retained), and pipelined lifecycle submissions were
        # recorded at submit time, so the replay (or the blank
        # re-registration) re-applies them.
        self._table.bury(shard)
        handle = self._spawn(shard)
        self._shipped[shard] = {}
        report = RecoveryReport(
            shard=shard,
            incarnation=handle.incarnation,
            durable=self.durable,
            checkpoint_version=None,
        )
        if self.durable:
            self._restore_worker(shard, report)
        else:
            for query_id, owner in self._query_shard.items():
                if owner == shard:
                    self._rpc(shard, REGISTER, self._queries[query_id])
                    report.queries_lost_state.append(query_id)
            # Re-tap exported sinks at the collected watermark so relay
            # numbering stays aligned (the operator state behind them is
            # gone either way — that's the documented non-durable loss).
            for alias, info in self._relays.items():
                if self._query_shard.get(info["query_id"]) == shard:
                    self._install_relay_tap(shard, alias, info["collected"])
        report.elapsed_seconds = time.perf_counter() - started
        self.recovery_log.append(report)
        # str(report) carries the full account (including the DROPPED
        # state-loss marker the log-capture tests assert on).
        self.events.emit(
            event,
            message=str(report),
            level=logging.WARNING if report.state_lost else logging.INFO,
            shard=shard,
            incarnation=handle.incarnation,
            state_lost=report.state_lost,
        )
        self.crash_recoveries += 1
        self._route_cache.clear()
        return report

    def _restore_worker(self, shard: int, report: RecoveryReport) -> None:
        """Bring a freshly spawned worker to the present: restore its
        latest restorable checkpoint, then replay its write-ahead-log
        suffix.  Shared by crash recovery, journal cold start and re-adopt
        respawns — the log may be the live one or a clone of the journal's
        folded mirror; the replay discipline is identical."""
        checkpoint = self.store.latest(shard)
        if checkpoint is not None and checkpoint.version <= self._ckpt_floor:
            # A previous run's checkpoint: foreign state, never restored
            # into this serve (this run's write-ahead log starts empty,
            # so replay-from-origin is the correct recovery).
            checkpoint = None
        if checkpoint is not None:
            report.checkpoint_version = checkpoint.version
            restored = self._rpc(
                shard,
                RESTORE,
                {
                    "components": [
                        component.blob
                        for component in checkpoint.components
                    ],
                    "captured_extra": checkpoint.captured_extra,
                    "stats": checkpoint.stats,
                    "cursor": dict(checkpoint.cursor),
                },
            )
            report.queries_restored = restored["queries"]
            report.state_restored = restored["state_restored"]
            self._shipped[shard] = dict(checkpoint.cursor)
            position = checkpoint.position
            # Taps live at the cut re-install at their manifest cursors
            # (== the journaled collected watermark, because relays drain
            # before every cut); taps created after the cut replay from
            # the log suffix below.
            for alias, cursor in checkpoint.relays.items():
                if alias in self._relays:
                    self._install_relay_tap(shard, alias, cursor)
        else:
            position = self._wal[shard].start
        for entry in self._wal[shard].entries_from(position):
            kind = entry[0]
            if kind == "data":
                __, stream_name, chunk = entry
                self._ship_run(stream_name, chunk, (shard,))
                report.tuples_replayed += len(chunk)
            elif kind == "register":
                self._rpc(shard, REGISTER, entry[1])
                report.queries_replayed.append(entry[1].query_id)
                report.lifecycle_replayed += 1
            elif kind == "unregister":
                self._rpc(shard, UNREGISTER, entry[1])
                report.lifecycle_replayed += 1
            elif kind == "reoptimize":
                self._rpc(shard, REOPTIMIZE)
                report.lifecycle_replayed += 1
            elif kind == "import":
                self._rpc(shard, REBALANCE, ("in", entry[1]))
                report.lifecycle_replayed += 1
            elif kind == "export":
                # Replayed components leave again; the live copy is on
                # the shard the original rebalance moved it to.
                self._rpc(shard, REBALANCE, ("out", entry[1]))
                report.lifecycle_replayed += 1
            elif kind == "relay-tap":
                __, alias, cursor = entry
                if alias in self._relays:
                    self._install_relay_tap(shard, alias, cursor)
                    report.lifecycle_replayed += 1
            elif kind == "relay-untap":
                self._rpc(shard, RELAY_TAP, {"alias": entry[1], "remove": True})
                report.lifecycle_replayed += 1
            else:
                raise CheckpointError(
                    f"unknown write-ahead-log entry kind {kind!r}"
                )

    # -- resume: cold start and re-adoption --------------------------------------------

    def _cold_start(self) -> None:
        """Restore the whole fleet from the journal (total-loss recovery).

        Every shard in the journaled topology has just been respawned
        blank; each is restored from its latest journaled checkpoint plus
        the journal's folded write-ahead-log suffix.  Schema frames re-emit
        naturally — the fresh encoder interns each journaled channel on its
        first replayed run.
        """
        with self._traced("cold_start", shards=len(self._shards)):
            for shard in self._shards:
                started = time.perf_counter()
                self._shipped[shard] = {}
                report = RecoveryReport(
                    shard=shard,
                    incarnation=self._workers[shard].incarnation,
                    durable=True,
                    checkpoint_version=None,
                )
                self._restore_worker(shard, report)
                report.elapsed_seconds = time.perf_counter() - started
                self.recovery_log.append(report)
                self.events.emit(
                    "cold_start_shard",
                    message=str(report),
                    shard=shard,
                    incarnation=report.incarnation,
                )
        self.events.emit(
            "cold_start",
            message=(
                f"cold-started {len(self._shards)} workers from journal "
                f"{self._journal.path!r}"
            ),
            shards=len(self._shards),
        )

    def _adopt(self, handoff: CoordinatorHandoff) -> None:
        """Re-adopt a dead coordinator's still-live workers.

        Per worker: drain stale replies, ``hello`` (incarnation, highest
        applied command seq, stream cursors, active queries), then
        reconcile against the journal.  Reconciliation order matters:
        first every *unjournaled* effect is rolled back on every live
        worker (extra queries unregistered with their captured history
        purged — the journal says they live elsewhere or nowhere), then
        workers *missing* journaled queries are respawned from checkpoints
        (the respawn may re-import a component whose live copy was just
        purged — purging first prevents duplication), and finally
        journaled-but-unshipped data (the journal-before-ship window) is
        re-shipped from the folded log tails.  The coordinator's sequence
        numbering resumes above every worker's applied seq, so reply
        caches keyed by the old numbering can never answer a new command.
        """
        with self._traced("readopt", shards=len(self._shards)):
            for shard, handle in handoff.workers.items():
                if shard not in self._shards:
                    # Journaled as removed before the crash; the handoff
                    # raced the topology change.  Retire it.
                    self._stop_handle(handle)
            hello: dict[int, dict] = {}
            for shard in self._shards:
                handle = handoff.workers.get(shard)
                if handle is None or handle.process.exitcode is not None:
                    continue
                while True:  # stale replies of the dead coordinator's RPCs
                    try:
                        handle.replies.get_nowait()
                    except queue_module.Empty:
                        break
                self._workers[shard] = handle
                try:
                    hello[shard] = self._rpc(shard, HELLO)
                except (WorkerCrashError, LifecycleError):
                    self._workers.pop(shard, None)
            self._seq = max(
                [self._seq] + [info["max_seq"] for info in hello.values()]
            )
            for shard, info in hello.items():
                journaled = {
                    query_id
                    for query_id, owner in self._query_shard.items()
                    if owner == shard
                }
                for query_id in info["active_queries"]:
                    if query_id not in journaled:
                        self._rpc(
                            shard,
                            UNREGISTER,
                            {"query_id": query_id, "purge_captured": True},
                        )
                # Same rollback for relay exports the journal never
                # committed (the dead coordinator crashed between the tap
                # RPC and the "relay" record).
                for alias in info.get("exports", ()):
                    owner_info = self._relays.get(alias)
                    if (
                        owner_info is None
                        or self._query_shard.get(owner_info["query_id"])
                        != shard
                    ):
                        self._rpc(shard, RELAY_TAP, {"alias": alias, "remove": True})
            adopted = 0
            for shard in self._shards:
                info = hello.get(shard)
                journaled = {
                    query_id
                    for query_id, owner in self._query_shard.items()
                    if owner == shard
                }
                if info is None:
                    self._recover(shard, "readopt_respawn")
                    continue
                missing = journaled - set(info["active_queries"])
                if missing:
                    self._recover(shard, "readopt_respawn")
                    continue
                self._reship_deficit(shard, info["cursor"])
                adopted += 1
        self._route_cache.clear()
        self.events.emit(
            "readopt",
            message=(
                f"re-adopted {adopted}/{len(self._shards)} workers from "
                f"handoff (journal {self._journal.path!r})"
            ),
            adopted=adopted,
            shards=len(self._shards),
        )

    def _reship_deficit(self, shard: int, worker_cursor: dict) -> None:
        """Re-ship journaled-but-unshipped data to an adopted worker.

        Data is journaled before it is shipped, so a worker's cursor can
        only be at or behind the journal, and the unshipped events are
        always a clean suffix of the folded log.  The suffix is matched
        exactly (chunk boundaries and all); any misalignment — a cursor
        ahead of the journal, a lifecycle entry inside the deficit window —
        means the worker's timeline diverged from the journal's, and the
        worker is respawned from its checkpoint instead.
        """
        shipped = self._shipped[shard]
        for stream_name, count in worker_cursor.items():
            if count > shipped.get(stream_name, 0):
                raise CheckpointError(
                    f"shard {shard} processed {count} events of "
                    f"{stream_name!r} but the journal shipped only "
                    f"{shipped.get(stream_name, 0)} — data was shipped "
                    f"without being journaled; the journal-before-ship "
                    f"discipline is broken"
                )
        deficits = {
            stream_name: count - worker_cursor.get(stream_name, 0)
            for stream_name, count in shipped.items()
            if count - worker_cursor.get(stream_name, 0) > 0
        }
        if not deficits:
            return
        log = self._wal[shard]
        entries = log.entries_from(log.start)
        suffix: list[tuple] = []
        need = dict(deficits)
        for entry in reversed(entries):
            if not any(count > 0 for count in need.values()):
                break
            if entry[0] != "data":
                self._recover(shard, "readopt_respawn")
                return
            __, stream_name, chunk = entry
            remaining = need.get(stream_name, 0)
            if len(chunk) > remaining:
                self._recover(shard, "readopt_respawn")
                return
            need[stream_name] = remaining - len(chunk)
            suffix.append(entry)
        if any(count != 0 for count in need.values()):
            self._recover(shard, "readopt_respawn")
            return
        for __, stream_name, chunk in reversed(suffix):
            # count=False: the journal already counted these events as
            # shipped — re-shipping closes the gap, it does not extend it.
            self._ship_run(stream_name, chunk, (shard,), count=False)
        self.events.emit(
            "readopt_reship",
            level=logging.DEBUG,
            shard=shard,
            deficits=deficits,
        )

    # -- checkpoints -----------------------------------------------------------------

    @_locked
    def checkpoint(self, wait: bool = True) -> int:
        """Initiate a checkpoint round across every worker.

        Enqueues one ``checkpoint`` command per worker (the command's
        position in each worker's frame order is the consistency cut) and
        returns the round's version.  With ``wait=False`` the snapshots are
        collected pipelined — on later batch boundaries, during other RPCs,
        or by :meth:`collect_checkpoints` — so serving never stalls on
        checkpoint capture.
        """
        if not self.durable:
            raise CheckpointError(
                "checkpointing requires a durable runtime "
                "(durable=True / checkpoint_every > 0)"
            )
        self._ensure_started()
        version = self._initiate_checkpoint()
        if wait:
            self._settle(CHECKPOINT)
        return version

    @_locked
    def collect_checkpoints(self) -> None:
        """Block until no checkpoint round is pending (crash-recovering)."""
        self._settle(CHECKPOINT)

    def _initiate_checkpoint(self) -> int:
        # One round in flight at a time: a new cut only makes sense once
        # the previous one has fully landed (or its shard died).
        self._settle(CHECKPOINT)
        # Relays must be quiescent at the cut: with every produced tuple
        # journaled as collected, each manifest's relay cursor equals the
        # journaled watermark — otherwise tuples retained at the cut would
        # be restored over (the tap resumes past them) yet never shipped.
        self._drain_relays()
        self._ckpt_version += 1
        version = self._ckpt_version
        # Differential cadence: deltas by default, a forced full round
        # every ``FULL_CHECKPOINT_EVERY`` versions bounding how many
        # splices any restore chain depends on (the store itself is always
        # materialized full, so the bound is about blast radius of a bad
        # splice base, not about restore cost).
        differential = (
            self.differential and version % FULL_CHECKPOINT_EVERY != 0
        )
        with self._traced("checkpoint:round", version=version):
            # Worker-side apply:checkpoint spans parent to this round span
            # even though the snapshots land later, pipelined — the span
            # marks the initiation cut, not the collection.
            trace = self._trace_ctx()
            for shard in self._shards:
                base = self._ckpt_base(shard) if differential else None
                self._seq += 1
                cut = {
                    "version": version,
                    "position": self._wal[shard].end,
                    "expected_cursor": dict(self._shipped[shard]),
                    "expected_relays": {
                        alias: info["collected"]
                        for alias, info in self._relays.items()
                        if self._query_shard[info["query_id"]] == shard
                    },
                    "base": base,
                }
                # Reliable: a checkpoint command's queue position IS the
                # cut it records, like the data frames it cuts between.
                self._table.submit(
                    _Command(
                        shard,
                        self._seq,
                        CHECKPOINT,
                        encode_command(
                            CHECKPOINT,
                            self._seq,
                            {"version": version, "base": base},
                            trace=trace,
                        ),
                        reliable=True,
                        on_reply=self._store_checkpoint,
                        on_death=self._checkpoint_lost,
                        label=f"checkpoint v{version}",
                        context=cut,
                    )
                )
        self._crash_point("ckpt-round", "before")
        self.events.emit(
            "checkpoint_initiated", level=logging.DEBUG, version=version
        )
        return version

    def _ckpt_base(self, shard: int) -> Optional[dict]:
        """Captured-history offsets of the shard's last stored checkpoint —
        the delta base a differential round sends the worker.  ``None``
        (→ full manifest) when no restorable checkpoint exists."""
        checkpoint = self.store.latest(shard)
        if checkpoint is None or checkpoint.version <= self._ckpt_floor:
            return None
        offsets: dict = {}
        for component in checkpoint.components:
            offsets.update(component.captured_offsets)
        for query_id, history in pickle.loads(
            checkpoint.captured_extra
        ).items():
            offsets.setdefault(query_id, len(history))
        return offsets

    def _captured_cache(self, shard: int) -> dict:
        """The latest stored checkpoint's materialized captured histories
        (query id → full history) — the splice base for differential
        manifests.  Cached per shard; rebuilt from the store's blobs when
        the cached version is stale (e.g. after a resume)."""
        checkpoint = self.store.latest(shard)
        cached = self._ckpt_captured.get(shard)
        if cached is not None and cached[0] == checkpoint.version:
            return cached[1]
        full: dict = {}
        for component in checkpoint.components:
            transfer = decode_transfer(component.blob)
            for query_id, history in transfer.captured.items():
                full[query_id] = list(history)
        for query_id, history in pickle.loads(
            checkpoint.captured_extra
        ).items():
            full[query_id] = list(history)
        self._ckpt_captured[shard] = (checkpoint.version, full)
        return full

    def _checkpoint_lost(self, command: _Command) -> None:
        self.checkpoint_failures += 1

    def _store_checkpoint(self, command: _Command, status: str, result) -> None:
        """A checkpoint reply: check the manifest against the cut recorded
        at initiation, store it, truncate the log, journal the cut."""
        shard, cut = command.shard, command.context
        version = cut["version"]
        if status != OK:
            # The worker is alive but could not snapshot; it keeps serving
            # on its previous checkpoint (recovery replays a longer suffix).
            self.checkpoint_failures += 1
            self.events.emit(
                "checkpoint_failed",
                message=(
                    f"shard {shard} failed checkpoint "
                    f"v{version}: {result}"
                ),
                level=logging.WARNING,
                shard=shard,
                version=version,
            )
            return
        manifest = decode_manifest(result)
        if manifest["cursor"] != cut["expected_cursor"]:
            raise CheckpointError(
                f"shard {shard} checkpoint v{version} cursor "
                f"mismatch: worker processed {manifest['cursor']}, "
                f"coordinator shipped {cut['expected_cursor']} before the "
                f"cut — the protocol's ordering guarantee is broken"
            )
        expected_relays = cut["expected_relays"]
        if manifest.get("relays", {}) != expected_relays:
            raise CheckpointError(
                f"shard {shard} checkpoint v{version} relay "
                f"cursor mismatch: worker produced "
                f"{manifest.get('relays', {})}, coordinator collected "
                f"{expected_relays} before the cut — relays were not "
                f"quiescent at initiation"
            )
        # Account what actually crossed the wire (differential rounds trim
        # the captured histories to deltas before this point).
        wire_bytes = len(manifest["captured_extra"]) + sum(
            len(component["blob"]) for component in manifest["components"]
        )
        self.checkpoint_wire_bytes += wire_bytes
        base = cut["base"]
        if base is not None:
            self._materialize_differential(shard, manifest, base)
        checkpoint = ShardCheckpoint(
            shard=shard,
            version=version,
            position=cut["position"],
            cursor=manifest["cursor"],
            components=tuple(
                ComponentCheckpoint(
                    query_ids=tuple(component["queries"]),
                    blob=component["blob"],
                    state_carried=component["state_carried"],
                    captured_offsets=component["captured_offsets"],
                )
                for component in manifest["components"]
            ),
            captured_extra=manifest["captured_extra"],
            stats=manifest["stats"],
            relays=dict(expected_relays),
        )
        self.store.put(checkpoint)
        # Invalidate the splice cache; the next differential round rebuilds
        # it lazily from the version just stored.
        self._ckpt_captured.pop(shard, None)
        # Everything before the cut is now redundant: restore + suffix
        # replay reconstructs the present without it.
        self._wal[shard].truncate_to(cut["position"])
        if self._journal is not None:
            # Store-then-journal: the .ckpt file exists before this record
            # commits it.  A crash in between leaves an unjournaled file,
            # pruned on resume (prune_above) — never a journaled cut whose
            # file is missing.
            self._journal.append(
                "ckpt",
                shard,
                checkpoint.version,
                cut["position"],
                dict(manifest["cursor"]),
            )
        self.checkpoints_stored += 1
        self.events.emit(
            "checkpoint_stored",
            level=logging.DEBUG,
            shard=shard,
            version=checkpoint.version,
            wire_bytes=wire_bytes,
            differential=base is not None,
        )

    def _materialize_differential(
        self, shard: int, manifest: dict, base: dict
    ) -> None:
        """Splice a differential manifest into a self-contained one.

        The worker shipped captured-history *suffixes* past the offsets in
        ``base``; the coordinator owns the previous version's materialized
        histories (:meth:`_captured_cache`, whose lengths equal those
        offsets by construction) and prepends them, re-encoding each
        component blob — so what lands in the store restores without any
        delta chain.
        """
        cache = self._captured_cache(shard)
        for component in manifest["components"]:
            transfer = decode_transfer(component["blob"])
            transfer.captured = {
                query_id: list(cache.get(query_id, ())) + list(delta)
                for query_id, delta in transfer.captured.items()
            }
            component["blob"] = encode_transfer(transfer)
        extra = pickle.loads(manifest["captured_extra"])
        manifest["captured_extra"] = pickle.dumps(
            {
                query_id: list(cache.get(query_id, ())) + list(delta)
                for query_id, delta in extra.items()
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def wal_span(self, shard: int) -> tuple[int, int]:
        """Retained write-ahead-log window ``(start, end)`` for a shard."""
        if not self.durable:
            raise CheckpointError("runtime is not durable: no write-ahead log")
        log = self._wal[shard]
        return log.start, log.end

    @_locked
    def heartbeat(self) -> None:
        """Non-blocking health pass: collect pipelined checkpoint and
        lifecycle replies and recover any dead worker.

        Data frames are fire-and-forget, so a worker that dies mid-stream
        is otherwise only noticed at the next synchronous RPC; drivers call
        this on batch boundaries — and, under wall-clock pacing, on a timer
        independent of data arrival (:class:`~repro.serve.drive.HeartbeatTimer`),
        so a dead worker is found during quiet periods too.
        """
        if not self._started or self._closed:
            return
        self._table.poll()
        self._recover_dead()

    def _recover_dead(self) -> None:
        for shard, handle in list(self._workers.items()):
            if handle.process.exitcode is not None:
                self._recover(shard)

    # -- lifecycle -------------------------------------------------------------------

    @property
    def active_queries(self) -> list[str]:
        return list(self._query_shard)

    def shard_of(self, query_id: str) -> int:
        try:
            return self._query_shard[query_id]
        except KeyError:
            raise LifecycleError(
                f"query {query_id!r} is not registered"
            ) from None

    def shard_loads(self) -> list[int]:
        """Query counts in :meth:`shard_ids` order (positional while the
        fleet is dense; consumers that need ids use ``shard_ids``)."""
        loads = {shard: 0 for shard in self._shards}
        for shard in self._query_shard.values():
            loads[shard] += 1
        return [loads[shard] for shard in self._shards]

    def queries_on(self, shard: int) -> list[str]:
        return [
            query_id
            for query_id, owner in self._query_shard.items()
            if owner == shard
        ]

    def place(self, logical: LogicalQuery) -> int:
        """Least-loaded placement, identical to ShardedRuntime.place."""
        loads = {shard: 0 for shard in self._shards}
        for owner in self._query_shard.values():
            loads[owner] += 1
        return min(self._shards, key=lambda shard: (loads[shard], shard))

    def _admit(
        self, kind: str, query, query_id=None, shard=None, compiles=False
    ) -> tuple:
        """The admission check every register and unregister passes before
        anything is recorded; returns ``(payload, shard)``.

        Registration parses ``query`` (text or :class:`LogicalQuery`),
        refuses a duplicate id or an unknown source, and places the query
        (or range-checks ``shard``).  With ``compiles`` it also builds the
        query's executors on a scratch plan over the coordinator's source
        streams — the compile path the worker runs — so a pipelined submit
        never records a query its worker would refuse.  Unregistration
        (``query`` is the id) refuses a query feeding an export and looks
        up its owner.
        """
        self._ensure_started()
        if kind == UNREGISTER:
            for alias, info in self._relays.items():
                if info["query_id"] == query:
                    raise LifecycleError(
                        f"query {query!r} feeds exported stream {alias!r}; "
                        f"remove the export before unregistering"
                    )
            return query, self.shard_of(query)
        try:
            logical = as_logical(query, query_id)
        except QueryLanguageError as error:
            raise LifecycleError(str(error)) from error
        if logical.query_id in self._query_shard:
            raise LifecycleError(
                f"query {logical.query_id!r} is already registered"
            )
        for name in logical.sources():
            if name not in self.streams:
                raise LifecycleError(
                    f"query {logical.query_id!r} reads unknown source {name!r}"
                )
        if compiles:
            plan = QueryPlan()
            streams = {name: self.streams[name] for name in logical.sources()}
            for name, stream in streams.items():
                plan.adopt_source(stream, self._channels[name])
            try:
                compile_into(logical, plan, streams)
                StreamEngine(plan)
            except RumorError as error:
                raise LifecycleError(
                    f"query {logical.query_id!r} does not compile: {error}"
                ) from error
        if shard is None:
            shard = self.place(logical)
        elif shard not in self._shards:
            raise LifecycleError(
                f"shard {shard} out of range (live shards: {self._shards})"
            )
        return logical, shard

    def _lifecycle(self, kind: str, payload, shard: int, pipelined=False):
        """Ship one admitted register/unregister, then record it: the
        write-ahead log, the journal (synchronous only), the catalog and
        the routing.  Returns the worker's reply, or the shard when
        pipelined."""
        query_id = payload.query_id if kind == REGISTER else payload
        if pipelined:
            self._submit_lifecycle(shard, kind, payload, query_id)
            result = shard
        else:
            result = self._rpc_recovering(shard, kind, payload)
        if self.durable:
            self._wal[shard].append((kind, payload))
        if not pipelined:
            self._crash_point(kind, "before")
            if self._journal is not None:
                self._journal.append(kind, shard, payload)
            self._crash_point(kind, "after")
        if kind == REGISTER:
            self._queries[query_id] = payload
            self._query_shard[query_id] = shard
        else:
            del self._query_shard[query_id]
            del self._queries[query_id]
            self._retire_schemas()
        self._route_cache.clear()
        self.events.emit(
            kind,
            level=logging.DEBUG,
            query=query_id,
            shard=shard,
            **({"pipelined": True} if pipelined else {}),
        )
        return result

    @_locked
    def register(
        self,
        query: Union[str, LogicalQuery],
        query_id: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> dict:
        """Register a query on a worker; returns the worker's summary."""
        return self._lifecycle(
            REGISTER, *self._admit(REGISTER, query, query_id, shard)
        )

    @_locked
    def unregister(self, query_id: str) -> dict:
        return self._lifecycle(UNREGISTER, *self._admit(UNREGISTER, query_id))

    def _retire_schemas(self) -> None:
        """Release wire schema tokens no remaining query's sources need.

        The bugfix for the encoder pinning every schema it ever interned:
        the schemas that can still appear on the data wire are exactly the
        schemas of streams some registered query consumes (a run with no
        consumer never ships).  Tokens are monotonic and never reused, so
        a retire frame cannot alias a token still riding an earlier queued
        frame — and because the retire frame follows those frames on each
        worker's ordered queue, every in-flight run decodes before its
        token is dropped.  The respawn replay prefix is regenerated from
        the surviving internings, which is what keeps it (and the decoder
        tables) bounded under query churn instead of growing forever.
        """
        live = [
            self.streams[name].schema
            for name in {
                source
                for query in self._queries.values()
                for source in query.sources()
            }
            if name in self.streams
        ]
        frame = self._encoder.retire_schemas(live)
        if frame is None:
            return
        for handle in self._workers.values():
            handle.commands.put(frame)
        self._schema_frames = self._encoder.schema_frames()

    # -- pipelined lifecycle -----------------------------------------------------------
    #
    # The synchronous register/unregister block the coordinator for one full
    # round trip each — and on a fleet with deep data queues, "one round
    # trip" means draining everything queued in front of the command.  The
    # pipelined variants pass the same admission check, record the effects
    # (catalog, routing, write-ahead log) at *submit* time — which preserves
    # queue-order = log-order, the invariant recovery replay depends on —
    # ship the frame on the reliable path, and leave the command in the
    # outstanding-command table, where any later pump collects its
    # acknowledgement: another RPC, a per-batch poll, a heartbeat, or the
    # ``collect_lifecycle`` barrier.  Workers dedupe by seq exactly as for
    # synchronous commands.  A worker that dies with submissions
    # outstanding is recovered normally and its submissions count as done:
    # the recovery replay re-applies them from the log (or the blank
    # re-registration re-creates them from the catalog).  Journaled
    # runtimes take the synchronous path: the journal's lifecycle
    # discipline is RPC-then-journal, which pipelining would invert.

    def _submit_lifecycle(self, shard: int, kind: str, payload, query_id) -> None:
        command, span = self._send(
            shard,
            kind,
            payload,
            reliable=True,
            on_reply=self._lifecycle_acked,
            label=f"pipelined {kind} {query_id!r}",
        )
        if span is not None:
            span.attrs["pipelined"] = True
            span.finish()  # marks the submission; the ack lands later
            self.recorder.record(span)

    def _lifecycle_acked(self, command: _Command, status: str, result) -> None:
        if status != OK:
            # Admission compiled the query and recorded its effects at
            # submit time: a worker-side rejection means the two sides
            # disagree about the plan state, which is a protocol bug, not a
            # rollbackable user error.
            raise WorkerCommandError(
                f"shard {command.shard} rejected {command.label}: {result}"
            )

    @_locked
    def submit_register(
        self,
        query: Union[str, LogicalQuery],
        query_id: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> int:
        """Pipelined :meth:`register`: validate, place, ship — no waiting.

        Returns the owning shard immediately; the worker's acknowledgement
        is collected later (:meth:`collect_lifecycle`, :meth:`heartbeat`,
        or in passing during any other RPC or batch).  All user-facing
        validation (parse, duplicate id, unknown source, compile against
        the source schemas, shard range) happens here, so a worker-side
        rejection of a submitted command is a protocol bug and raises
        :class:`WorkerCommandError` at collection.
        """
        logical, shard = self._admit(
            REGISTER, query, query_id, shard, compiles=True
        )
        self._lifecycle(REGISTER, logical, shard, self._journal is None)
        return shard

    @_locked
    def submit_unregister(self, query_id: str) -> int:
        """Pipelined :meth:`unregister`; returns the shard it left."""
        query_id, shard = self._admit(UNREGISTER, query_id)
        self._lifecycle(UNREGISTER, query_id, shard, self._journal is None)
        return shard

    @property
    def pending_lifecycle(self) -> int:
        """Pipelined lifecycle commands shipped but not yet acknowledged."""
        return len(self._table.outstanding(REGISTER, UNREGISTER))

    @_locked
    def collect_lifecycle(self) -> int:
        """Block until every pipelined lifecycle command is acknowledged.

        Returns the number of commands resolved (acknowledged, or absorbed
        by a crash recovery whose replay re-applied them).  Timeouts
        retransmit (duplicates are answered from the worker reply cache);
        a dead worker is recovered and its commands resolve through the
        replay.
        """
        return self._settle(REGISTER, UNREGISTER)

    @_locked
    def reoptimize(self, shard: Optional[int] = None) -> list[dict]:
        self._ensure_started()
        if shard is not None:
            results = [self._rpc_recovering(shard, REOPTIMIZE)]
            shards = [shard]
        else:
            fanned = self._rpc_fanout(
                REOPTIMIZE, {index: None for index in self._shards}
            )
            shards = list(self._shards)
            results = [fanned[index] for index in shards]
        for index in shards:
            if self.durable:
                self._wal[index].append(("reoptimize", None))
            if self._journal is not None:
                self._journal.append("reoptimize", index)
        return results

    @_locked
    def ping(self) -> dict[int, dict]:
        """Probe every worker's command loop (pipelined ``ping`` fan-out).

        Unlike :meth:`heartbeat`, which only notices a worker whose
        *process* exited, a ping round also detects a hung worker — alive
        but no longer serving its queue — surfacing it as
        :class:`~repro.errors.WorkerUnreachableError` once the retry budget
        is exhausted.  A dead worker found by the probe is recovered like
        any other RPC crash.  Returns shard → worker info (the ``hello``
        reply shape: incarnation, applied seq, cursor, active queries).
        """
        self._ensure_started()
        return self._rpc_fanout(PING, {shard: None for shard in self._shards})

    # -- rebalance -------------------------------------------------------------------

    @_locked
    def rebalance(self, query_id: str, to_shard: int) -> list[str]:
        """Move ``query_id``'s component to ``to_shard``, state intact.

        Returns the moved query ids.  On *any* import failure — a worker
        error reply or the receiver dying mid-import — the component is
        restored onto the donor (state included) before the error is
        re-raised, so the runtime never stops serving a registered query.
        """
        self._ensure_started()
        if to_shard not in self._shards:
            raise LifecycleError(
                f"shard {to_shard} out of range (live shards: {self._shards})"
            )
        from_shard = self.shard_of(query_id)
        if from_shard == to_shard:
            raise LifecycleError(
                f"query {query_id!r} already lives on shard {to_shard}"
            )
        with self._traced(
            "rebalance", query=query_id, source=from_shard, target=to_shard
        ):
            # Flush bridge traffic first: the export drops the donor's
            # relay taps, and dropped runs are only safe once collected
            # and journaled.
            self._drain_relays()
            try:
                exported = self._rpc(from_shard, REBALANCE, ("out", query_id))
            except WorkerCrashError:
                # The donor died exporting.  No export entry was logged (the
                # reply never arrived), so durable recovery restores the
                # component onto the donor with state intact; without
                # durability the respawn re-registers its queries blank.
                report = self._recover(from_shard)
                detail = (
                    "its queries were re-registered in place (state lost)"
                    if report.state_lost
                    else "its component was restored in place from checkpoint "
                    "+ log replay, state intact"
                )
                raise LifecycleError(
                    f"shard {from_shard} crashed during export; {detail}"
                ) from None
            blob = exported["blob"]
            moved_relays = {
                alias: info
                for alias, info in self._relays.items()
                if info["query_id"] in set(exported["queries"])
            }
            self._crash_point("rebalance-mid", "before")
            try:
                self._rpc(to_shard, REBALANCE, ("in", blob))
            except (WorkerCrashError, WorkerCommandError) as error:
                crashed = isinstance(error, WorkerCrashError)
                if crashed:
                    self._recover(to_shard)
                self._rpc(from_shard, REBALANCE, ("in", blob))
                for alias, info in moved_relays.items():
                    self._install_relay_tap(
                        from_shard, alias, info["collected"]
                    )
                self._route_cache.clear()
                if crashed:
                    raise LifecycleError(
                        f"shard {to_shard} crashed during rebalance import; "
                        f"component restored on shard {from_shard}"
                    ) from None
                raise
            # Exports ride with their producers: re-tap on the recipient at
            # the collected watermark (the drain above made it exact).
            for alias, info in moved_relays.items():
                self._install_relay_tap(to_shard, alias, info["collected"])
            if self.durable:
                # A rolled-back rebalance is a net no-op and records nothing;
                # a successful one is two log entries: the component leaves
                # the donor's timeline and enters the receiver's, blob
                # included — replaying either shard reproduces the move
                # exactly.
                self._wal[from_shard].append(("export", query_id))
                self._wal[to_shard].append(("import", blob))
                for alias, info in moved_relays.items():
                    self._wal[from_shard].append(("relay-untap", alias))
                    self._wal[to_shard].append(
                        ("relay-tap", alias, info["collected"])
                    )
            if self._journal is not None:
                self._journal.append(
                    "rebalance",
                    query_id,
                    from_shard,
                    to_shard,
                    list(exported["queries"]),
                    blob,
                    {
                        alias: info["collected"]
                        for alias, info in moved_relays.items()
                    },
                )
            for moved_id in exported["queries"]:
                self._query_shard[moved_id] = to_shard
            self._route_cache.clear()
            self.rebalances += 1
            self.events.emit(
                "rebalance",
                query=query_id,
                source=from_shard,
                target=to_shard,
                moved=len(exported["queries"]),
            )
            return list(exported["queries"])

    # -- elastic scale-out -------------------------------------------------------------

    @_locked
    def add_worker(self, policy=None) -> int:
        """Grow the fleet by one worker mid-serve; returns its shard id.

        The new shard spawns with the full schema-frame history replayed
        (so in-flight streams decode immediately) and starts empty; pass a
        :class:`~repro.shard.policy.RebalancePolicy` to let its
        :meth:`~repro.shard.policy.RebalancePolicy.on_grow` hook move
        components onto the newcomer in the same call.
        """
        self._ensure_started()
        shard = self._next_shard
        self._next_shard += 1
        with self._traced("scale_up", shard=shard):
            self._shards.append(shard)
            self._shipped[shard] = {}
            if self._wal is not None:
                self._wal[shard] = ShardLog()
            if self._journal is not None:
                # Journal-then-spawn: a crash in between leaves a journaled
                # shard with no live worker, which resume respawns (empty
                # log → empty worker) — never a live worker the journal
                # does not know about.
                self._journal.append("add_worker", shard)
            self._spawn(shard)
            self._route_cache.clear()
            self.events.emit(
                "scale_up",
                message=(
                    f"shard {shard} joined (fleet now {self.n_shards} "
                    f"workers)"
                ),
                shard=shard,
                n_shards=self.n_shards,
            )
            if policy is not None:
                for query_id, target in policy.on_grow(self, shard):
                    if self.shard_of(query_id) != target:
                        self.rebalance(query_id, target)
        return shard

    @_locked
    def remove_worker(self, shard: int, policy=None) -> dict:
        """Retire a worker mid-serve with zero query loss.

        Every component on the departing shard is drained first — copied
        non-destructively (``rebalance("copy")``), imported on a surviving
        shard (the policy's
        :meth:`~repro.shard.policy.RebalancePolicy.on_shrink` chooses the
        target, defaulting to least-loaded), then retired on the donor —
        before the worker is stopped and its id removed from the fleet
        (ids are never reused).  Returns ``{"shard", "moved"}``.
        """
        self._ensure_started()
        if shard not in self._shards:
            raise LifecycleError(
                f"shard {shard} out of range (live shards: {self._shards})"
            )
        if self.n_shards <= 1:
            raise LifecycleError("cannot remove the last worker")
        for alias, info in self._relays.items():
            if self._query_shard.get(info["query_id"]) == shard:
                raise LifecycleError(
                    f"shard {shard} owns the producer of exported stream "
                    f"{alias!r}; rebalance {info['query_id']!r} away before "
                    f"removing the worker"
                )
        moved: list[str] = []
        with self._traced("scale_down", shard=shard):
            while True:
                resident = [
                    query_id
                    for query_id, owner in self._query_shard.items()
                    if owner == shard
                ]
                if not resident:
                    break
                query_id = resident[0]
                target = None
                if policy is not None:
                    target = policy.on_shrink(self, shard, query_id)
                if target is None or target == shard or target not in self._shards:
                    survivors = [s for s in self._shards if s != shard]
                    loads = {s: 0 for s in survivors}
                    for owner in self._query_shard.values():
                        if owner in loads:
                            loads[owner] += 1
                    target = min(survivors, key=lambda s: (loads[s], s))
                moved.extend(self._migrate_copy(query_id, target))
            # A snapshot in flight on the departing worker will never be
            # collected; its round proceeds without it.
            self._table.bury(shard)
            # The retiring worker's cumulative counters (it owned the
            # drained queries' whole output history) fold into the
            # coordinator's accumulator — and into the journal, so they
            # also survive a coordinator restart.
            departing_stats = self._rpc_recovering(shard, STATS)
            self._retired_stats.absorb(departing_stats)
            if self._journal is not None:
                self._journal.append("remove_worker", shard, departing_stats)
            handle = self._workers.pop(shard)
            self._stop_handle(handle)
            self._shards.remove(shard)
            self._shipped.pop(shard, None)
            if self._wal is not None:
                self._wal.pop(shard, None)
            self._spawned.pop(shard, None)
            self._worker_faults.pop(shard, None)
            self._ckpt_captured.pop(shard, None)
            self._route_cache.clear()
            self.events.emit(
                "scale_down",
                message=(
                    f"shard {shard} retired, {len(moved)} queries drained "
                    f"(fleet now {self.n_shards} workers)"
                ),
                shard=shard,
                moved=len(moved),
                n_shards=self.n_shards,
            )
        return {"shard": shard, "moved": moved}

    def _migrate_copy(self, query_id: str, to_shard: int) -> list[str]:
        """Move a component by non-destructive copy (the drain transport).

        Copy is side-effect-free on the donor, so a worker crash on either
        side mid-migration is recovered and the whole migration retried
        from scratch — the component is never in a half-moved state.
        """
        for attempt in (0, 1):
            try:
                return self._migrate_copy_once(query_id, to_shard)
            except WorkerCrashError:
                if attempt:
                    raise
                self._recover_dead()  # whichever side died
        raise AssertionError("unreachable")

    def _migrate_copy_once(self, query_id: str, to_shard: int) -> list[str]:
        from_shard = self.shard_of(query_id)
        with self._traced(
            "rebalance:copy", query=query_id, source=from_shard,
            target=to_shard,
        ):
            copied = self._rpc(from_shard, REBALANCE, ("copy", query_id))
            blob = copied["blob"]
            self._crash_point("rebalance-mid", "before")
            self._rpc(to_shard, REBALANCE, ("in", blob))
            # The donor's live copy retires query by query, history purged:
            # the receiver's imported copy owns the captured histories now.
            for moved_id in copied["queries"]:
                self._rpc(
                    from_shard,
                    UNREGISTER,
                    {"query_id": moved_id, "purge_captured": True},
                )
            if self.durable:
                # The write-ahead effect of a completed drain is identical
                # to a destructive rebalance: the component leaves the
                # donor's timeline and enters the receiver's.
                self._wal[from_shard].append(("export", query_id))
                self._wal[to_shard].append(("import", blob))
            if self._journal is not None:
                self._journal.append(
                    "rebalance",
                    query_id,
                    from_shard,
                    to_shard,
                    list(copied["queries"]),
                    blob,
                )
            for moved_id in copied["queries"]:
                self._query_shard[moved_id] = to_shard
            self._route_cache.clear()
            self.rebalances += 1
            self.events.emit(
                "rebalance",
                query=query_id,
                source=from_shard,
                target=to_shard,
                moved=len(copied["queries"]),
                mode="copy",
            )
            return list(copied["queries"])

    # -- cross-shard derived channels (relay exports) ----------------------------------

    @_locked
    def export_stream(
        self,
        query_id: str,
        alias: str,
        sharable_label: Optional[str] = None,
    ) -> StreamDef:
        """Re-emit ``query_id``'s output channel as derived source ``alias``.

        The owning worker mints the alias stream/channel in its id-space
        and taps the query's sink; every other worker adopts the alias as
        a plain source.  From then on each batch boundary collects the
        tap's pending runs over the relay wire and re-emits them to the
        alias's consuming shards — queries on *any* shard can read the
        exported query's output, which is what lets the planner split an
        entry-channel connected component across workers.

        RPC-then-journal, like register: a coordinator crash in between
        leaves a tap the journal never committed, rolled back by re-adopt
        reconciliation.
        """
        self._ensure_started()
        if alias in self.streams:
            raise LifecycleError(f"stream name {alias!r} is already in use")
        owner = self.shard_of(query_id)
        edge = self._next_relay_edge
        made = self._rpc_recovering(
            owner,
            RELAY_TAP,
            {
                "alias": alias,
                "query_id": query_id,
                "make": True,
                "sharable_label": sharable_label,
                "cursor": 0,
            },
        )
        stream, channel = made["stream"], made["channel"]
        adopt = {
            "alias": alias,
            "query_id": None,
            "stream": stream,
            "channel": channel,
            "cursor": 0,
        }
        self._rpc_fanout(
            RELAY_TAP, {shard: adopt for shard in self._shards if shard != owner}
        )
        if self.durable:
            self._wal[owner].append(("relay-tap", alias, 0))
        self._crash_point("relay", "before")
        if self._journal is not None:
            self._journal.append(
                "relay", alias, query_id, owner, stream, channel, edge
            )
        self._crash_point("relay", "after")
        self._next_relay_edge = edge + 1
        self.streams[alias] = stream
        self._channels[alias] = channel
        self._source_labels[alias] = sharable_label
        self._relays[alias] = {
            "query_id": query_id,
            "edge": edge,
            "collected": 0,
        }
        self._route_cache.clear()
        self.events.emit(
            "export_stream",
            level=logging.DEBUG,
            alias=alias,
            query=query_id,
            shard=owner,
        )
        return stream

    def exported_streams(self) -> dict[str, str]:
        """Live exports: alias → producing query id."""
        return {
            alias: info["query_id"] for alias, info in self._relays.items()
        }

    def _install_relay_tap(self, shard: int, alias: str, cursor: int) -> None:
        """(Re)install an export's tap on a respawned or recipient worker."""
        info = self._relays.get(alias)
        self._rpc(
            shard,
            RELAY_TAP,
            {
                "alias": alias,
                "query_id": info["query_id"] if info is not None else None,
                "stream": self.streams[alias],
                "channel": self._channels[alias],
                "cursor": cursor,
            },
        )

    def _drain_relays(self) -> None:
        """Collect every export's pending runs and re-emit them downstream.

        Loops until quiescent: a relayed run can itself drive an exported
        query on another shard (chained bridges), whose new output must
        flow in the same drain.  Each collect acknowledges the journaled
        ``collected`` watermark — the worker prunes runs at or below it and
        returns the unacknowledged suffix, so a coordinator that crashed
        after journaling but before shipping re-collects exactly the runs
        it already owns (the skip below discards the journaled prefix).
        """
        if not self._relays:
            return
        progress = True
        while progress:
            progress = False
            for alias, info in list(self._relays.items()):
                owner = self._query_shard[info["query_id"]]
                reply = self._rpc_recovering(
                    owner,
                    COLLECT_RELAY,
                    {
                        "alias": alias,
                        "edge": info["edge"],
                        "ack": info["collected"],
                    },
                )
                skip = info["collected"] - reply["start"]
                if skip < 0:
                    raise ChannelError(
                        f"relay {alias!r} cursor regressed: worker retained "
                        f"from {reply['start']} but coordinator already "
                        f"collected {info['collected']}"
                    )
                codec = RelayCodec(info["edge"], self._channels[alias])
                rows: list[StreamTuple] = []
                for __, batch in decode_local_frames(reply["frames"], codec):
                    batch_rows = relay_rows(batch)
                    if skip:
                        if skip >= len(batch_rows):
                            skip -= len(batch_rows)
                            continue
                        batch_rows = batch_rows[skip:]
                        skip = 0
                    rows.extend(batch_rows)
                if rows:
                    progress = True
                    self._emit_relay(alias, rows)

    def _emit_relay(self, alias: str, rows: list) -> None:
        """Journal-then-ship one alias's collected rows to its consumers.

        Mirrors :meth:`process_batch`'s chunk loop, except relayed tuples
        are derived traffic: they advance the export's ``collected``
        watermark and the consumer WALs, never ``input_positions`` or the
        coordinator's input accounting.
        """
        info = self._relays[alias]
        shards = self._consumers_of(alias)
        start = 0
        while start < len(rows):
            chunk = rows[start : start + _MAX_BATCH]
            start += _MAX_BATCH
            self._crash_point("rbatch", "before")
            if self._journal is not None:
                self._journal.append("rbatch", alias, chunk, list(shards))
            self._crash_point("rbatch", "after")
            if self.durable:
                for shard in shards:
                    self._wal[shard].append(("data", alias, chunk))
            info["collected"] += len(chunk)
            if shards:
                self._ship_run(alias, chunk, shards)
        self.relayed_events += len(rows)

    # -- event processing ------------------------------------------------------------

    def _consumers_of(self, stream_name: str) -> tuple[int, ...]:
        shards = self._route_cache.get(stream_name)
        if shards is None:
            if stream_name not in self.streams:
                raise LifecycleError(f"unknown source stream {stream_name!r}")
            consuming: set[int] = set()
            for query_id, shard in self._query_shard.items():
                if stream_name in self._queries[query_id].sources():
                    consuming.add(shard)
            shards = tuple(sorted(consuming))
            self._route_cache[stream_name] = shards
        return shards

    def process(self, stream_name: str, tuple_: StreamTuple) -> RunStats:
        return self.process_batch(stream_name, [tuple_])

    @_locked
    def process_batch(
        self, stream_name: str, tuples: Sequence[StreamTuple]
    ) -> RunStats:
        """Ship a run of source events to every consuming worker.

        Fire-and-forget: data frames pipeline behind earlier commands on
        each worker's queue, so lifecycle changes still land on batch
        boundaries.  The returned stats carry coordinator-side input
        accounting only — per-query outputs accumulate in the workers and
        surface through :meth:`collect_stats` / :attr:`captured`.

        Durable runtimes record each shipped run in the consuming shards'
        write-ahead logs, and batch boundaries double as the checkpoint
        schedule: every ``checkpoint_every`` batches a new round is
        initiated, with earlier rounds' snapshot replies collected
        non-blockingly along the way.
        """
        shards = self._consumers_of(stream_name)
        batch_stats = RunStats()
        batch_stats.input_events = len(tuples)
        batch_stats.physical_input_events = len(tuples)
        self.input_stats.absorb(batch_stats)
        if not tuples or not shards:
            if tuples and self._journal is not None:
                # No consumer yet, but the journal must still account the
                # input so a resumed driver skips the same prefix.
                self._journal.append("advance", stream_name, len(tuples))
            return batch_stats
        self._ensure_started()
        self._table.poll()
        start = 0
        while start < len(tuples):
            chunk = list(tuples[start : start + _MAX_BATCH])
            start += _MAX_BATCH
            final = start >= len(tuples)
            # Journal-before-ship: once a chunk is on any worker queue it
            # will be absorbed, so the journal must already own it.  A
            # crash between append and ship merely re-ships on resume.
            self._crash_point("batch", "before")
            if self._journal is not None:
                self._journal.append(
                    "batch", stream_name, chunk, list(shards), final
                )
            self._crash_point("batch", "after")
            if self.durable:
                for shard in shards:
                    self._wal[shard].append(("data", stream_name, chunk))
            self._ship_run(stream_name, chunk, shards)
        # Bridge traffic flows on batch boundaries: collect every export's
        # pending output and re-emit it to consuming shards before the
        # checkpoint trigger (cuts require quiescent relays).
        self._drain_relays()
        self._batches += 1
        if self.checkpoint_every and self._batches % self.checkpoint_every == 0:
            self._initiate_checkpoint()
        return batch_stats

    def _ship_run(
        self, stream_name: str, chunk: Sequence[StreamTuple], shards,
        count: bool = True,
    ) -> None:
        """Encode one run and put its frames on the target shards' queues.

        ``count=False`` re-ships without advancing the shipped counters —
        used by re-adoption to close a worker's delivery deficit whose
        events the journal already counted.

        The run is packed once into schema-interned columns and written
        into each consuming worker's shared-memory ring, announced by a
        ``ring`` marker on that worker's ordered queue (the marker is the
        ordering edge, so ring records interleave safely with lifecycle
        frames and queue fallbacks).  A shard whose ring is full or too
        small for the record receives the same columns as a ``crun`` queue
        frame; a run that cannot pack at all (mixed schema objects,
        oversized mask) ships as the pickle ``run`` frame.  All three
        transports are byte-identical at the sink.
        """
        stream = self.streams[stream_name]
        channel = self._channels[stream_name]
        bit = 1 << channel.position_of(stream)
        trace = None
        if self.recorder is not None:
            span = self.recorder.start(
                "ship:run",
                self.trace_id,
                self._span_stack[-1] if self._span_stack else None,
                stream=stream_name,
                count=len(chunk),
                shards=list(shards),
            )
            trace = (self.trace_id, span.span_id)
            span.finish()  # ship is enqueue-only; the span marks lineage
            self.recorder.record(span)
        batch = ColumnBatch.from_rows(stream.schema, chunk, bit)
        if batch is None:
            *schemas, run = self._encoder.encode_run(
                channel,
                [ChannelTuple(tuple_, bit) for tuple_ in chunk],
                trace=trace,
            )
        else:
            *schemas, run = self._encoder.encode_run_columns(
                channel, batch, trace=trace
            )
        for frame in schemas:
            # Broadcast + record, so respawned workers can replay the
            # interning state before their first run frame.
            self._schema_frames.append(frame)
            for handle in self._workers.values():
                handle.commands.put(frame)
        parts = total = None
        for shard in shards:
            handle = self._workers[shard]
            if batch is not None:
                if parts is None:
                    parts, total = pack_run_record(
                        channel.channel_id, run[2], batch
                    )
                if handle.ring.try_write(parts, total):
                    handle.commands.put(
                        (RING, total) if trace is None else (RING, total, trace)
                    )
                    continue
            handle.commands.put(run)
        if count:
            for shard in shards:
                counts = self._shipped[shard]
                counts[stream_name] = counts.get(stream_name, 0) + len(chunk)

    # -- introspection ---------------------------------------------------------------

    @_locked
    def shard_stats(self, pipelined: bool = True) -> list[RunStats]:
        """Per-worker cumulative RunStats (a batch barrier).

        The barrier is pipelined by default — all ``stats`` frames ship
        before any reply is awaited, so the fan costs the slowest worker's
        round trip, not the sum.  ``pipelined=False`` keeps the historical
        serial fan (one blocking RPC per shard, in order); the serve
        benchmark measures the two against each other.
        """
        self._ensure_started()
        if not pipelined:
            return [
                self._rpc_recovering(shard, STATS) for shard in self._shards
            ]
        results = self._rpc_fanout(STATS, {s: None for s in self._shards})
        return [results[shard] for shard in self._shards]

    def collect_stats(self) -> RunStats:
        """Aggregate statistics with single-counted inputs.

        Worker counters sum (queries are disjoint across shards); input
        events come from the coordinator's own accounting so replicated
        streams count once, matching ``ShardedRuntime.stats``.
        """
        merged = RunStats()
        for stats in self.shard_stats():
            merged.absorb(stats)
        # Workers retired by elastic shrink took their counters with them;
        # the coordinator keeps their final stats so aggregates match a
        # fleet that never resized.
        merged.absorb(self._retired_stats)
        merged.input_events = self.input_stats.input_events
        merged.physical_input_events = self.input_stats.physical_input_events
        return merged

    @_locked
    def shard_telemetry(self) -> list[dict]:
        """Per-worker telemetry view via the extended ``stats`` RPC:
        ``{"shard", "mop_stats", "query_heat", "peak_state", "stats",
        "state_size"}``, the same shape as
        :meth:`~repro.shard.runtime.ShardedRuntime.shard_telemetry`.  When
        observing, each worker's accumulated spans ride the reply and are
        merged into the coordinator's recorder, completing the trace tree."""
        self._ensure_started()
        views = []
        replies = self._rpc_fanout(
            STATS, {shard: {"telemetry": True} for shard in self._shards}
        )
        for shard in self._shards:
            reply = replies[shard]
            if self.recorder is not None and reply.get("spans"):
                self.recorder.add(reply["spans"])
            views.append(
                {
                    "shard": shard,
                    "mop_stats": reply["mop_stats"],
                    "query_heat": reply["query_heat"],
                    "peak_state": reply["peak_state"],
                    "stats": reply["stats"],
                    "state_size": reply["state_size"],
                }
            )
        return views

    def metrics_registry(self):
        """A fresh :class:`~repro.obs.metrics.MetricsRegistry` holding the
        cluster view: per-shard RunStats counters, per-m-op records (when
        observing), and the coordinator's own lifecycle counters."""
        from repro.obs.metrics import MetricsRegistry, publish_run_stats
        from repro.obs.mops import MOpObserver

        registry = MetricsRegistry()
        for view in self.shard_telemetry():
            shard = view["shard"]
            publish_run_stats(registry, view["stats"], shard=shard)
            if view["mop_stats"]:
                # Rebuild an observer-shaped view from the worker's exported
                # records; publishing it mirrors the in-process path.
                observer = MOpObserver()
                observer.absorb(view["mop_stats"])
                observer.peak_state = view["peak_state"]
                observer.publish(registry, shard=shard)
        registry.counter("rumor_rebalances_total").inc(self.rebalances)
        registry.counter("rumor_recoveries_total").inc(self.crash_recoveries)
        registry.counter("rumor_checkpoints_stored_total").inc(
            self.checkpoints_stored
        )
        registry.counter("rumor_checkpoint_failures_total").inc(
            self.checkpoint_failures
        )
        registry.counter("rumor_rpc_retransmissions_total").inc(
            self.rpc_retransmissions
        )
        registry.counter("rumor_rpc_unreachable_total").inc(
            self.rpc_unreachable
        )
        registry.counter("rumor_checkpoint_wire_bytes_total").inc(
            self.checkpoint_wire_bytes
        )
        return registry

    @_locked
    def snapshot(self) -> list[dict]:
        """Per-worker observability snapshot (captured outputs, state size,
        active queries, migrations, plan size).  Pipelined fan-out."""
        self._ensure_started()
        results = self._rpc_fanout(SNAPSHOT, {s: None for s in self._shards})
        return [results[shard] for shard in self._shards]

    @_locked
    def component_queries(self, query_id: str) -> list[str]:
        """Every query that would move with ``query_id`` (one worker RPC)."""
        self._ensure_started()
        shard = self.shard_of(query_id)
        result = self._rpc_recovering(
            shard, SNAPSHOT, {"component_of": query_id}
        )
        return result["component"]

    @property
    def captured(self) -> dict:
        """query_id -> captured outputs, merged across workers."""
        merged: dict = {}
        for entry in self.snapshot():
            merged.update(entry["captured"])
        return merged

    @property
    def state_size(self) -> int:
        return sum(entry["state_size"] for entry in self.snapshot())

    def input_positions(self) -> dict:
        """Per-stream journaled input positions (events absorbed so far).

        Resume drivers use this to skip the already-served prefix of each
        source stream; requires a coordinator journal.
        """
        if self._journal is None:
            raise JournalError(
                "input_positions requires a coordinator journal"
            )
        return dict(self._journal.state.input_positions)

    @property
    def lifecycle_ops(self) -> int:
        """Count of journaled lifecycle operations (register/unregister)."""
        if self._journal is None:
            return 0
        return self._journal.state.lifecycle_ops

    def describe(self) -> str:
        lines = [
            f"ProcessShardedRuntime: {len(self._query_shard)} active queries "
            f"over {self.n_shards} worker processes, "
            f"loads={self.shard_loads()}, rebalances={self.rebalances}, "
            f"recoveries={self.crash_recoveries}"
        ]
        if self.durable:
            spans = [self.wal_span(shard) for shard in self._shards]
            lines.append(
                f"   durable: checkpoint_every={self.checkpoint_every} "
                f"batches, {self.checkpoints_stored} checkpoints stored "
                f"({self.checkpoint_failures} failures), wal spans={spans}"
            )
        for shard, entry in zip(self.shard_ids(), self.snapshot()):
            handle = self._workers[shard]
            lines.append(
                f"-- shard {shard} (pid {handle.process.pid}, incarnation "
                f"{handle.incarnation}) --"
            )
            lines.append(
                f"   queries={entry['active_queries']} "
                f"mops={entry['mops']} state={entry['state_size']} "
                f"migrations={entry['migrations']}"
            )
        return "\n".join(lines)
