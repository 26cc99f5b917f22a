"""Serializable wire format for cross-process shard feeding and control.

When the sharded engine streams source runs to worker processes, channel
tuples must cross a process boundary.  Shipping the rich objects
(:class:`~repro.streams.tuples.StreamTuple` with its schema,
:class:`~repro.streams.channel.ChannelTuple`) through pickle per event is
wasteful: the schema is identical for every tuple of a stream and the
channel is identified by its id on both sides.  The wire format strips a
run down to plain Python primitives::

    ("run", channel_id, schema_token, [(ts, membership, values), ...])
    ("schema", schema_token, ((name, type), ...))          # once per schema

Schemas are interned: the encoder assigns a small integer token the first
time it sees a schema and emits one ``schema`` frame before the first run
using it; the decoder rebuilds the :class:`~repro.streams.schema.Schema`
once and reuses it for every later tuple.  Channels are resolved from the
decoder's registry — worker processes inherit the shard sub-plan (fork), so
the channel objects already exist on the far side and only the id crosses.

Mixed-schema runs are supported (a channel's member streams may carry
union-compatible but distinct schemas): the per-tuple entry then widens to
``(ts, membership, values, schema_token)``; the homogeneous fast path keeps
the 3-tuple.

**Command frames** layer the process-mode lifecycle protocol on the same
transport (:mod:`repro.shard.proc`)::

    (<kind>, seq, payload_bytes)          # coordinator -> worker
    ("reply", seq, "ok"|"err", bytes)     # worker -> coordinator

``kind`` is one of :data:`COMMAND_KINDS` (register / unregister /
reoptimize / rebalance / stats / snapshot / checkpoint / restore).
Payloads are explicit pickle
blobs, so a frame is always a flat tuple of primitives + bytes: the
fault-injection harness can drop or duplicate a command frame without
understanding its payload, and the sequence number gives workers exactly-
once apply semantics under retransmission (duplicates are answered from a
reply cache, never re-applied).

**Transfer blobs** (:func:`encode_transfer` / :func:`decode_transfer`)
serialize a :class:`~repro.runtime.runtime.ComponentTransfer` for
cross-process rebalance: the plan subgraph, logical queries and captured
histories pickle as-is, while live executors are reduced to their
``snapshot_state()`` payloads (window contents, instance stores, partial
aggregates) keyed by ``mop_id`` — the receiver rebuilds executors from the
plan and re-seeds them, because compiled predicate closures cannot cross a
process boundary.
"""

from __future__ import annotations

import pickle
import struct
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import ChannelError, CheckpointError
from repro.streams.channel import Channel, ChannelTuple
from repro.streams.columns import ColumnBatch
from repro.streams.schema import Attribute, Schema
from repro.streams.tuples import StreamTuple

#: Data frame kinds.
RUN = "run"
#: Columnar run frame: ``("crun", channel_id, token, (count, ts, membership,
#: columns)[, trace])``.  Arrays ride as numpy objects — a queue transport
#: pickles them natively, the ring transport never sees this frame (packed
#: records replace it; see :func:`pack_run_record`).
CRUN = "crun"
SCHEMA = "schema"
#: Token compaction: ``("schema-retire", (token, ...))`` tells decoders to
#: drop retired interning entries.  Tokens are monotonic and never reused,
#: so a late retire frame can never invalidate a token still in flight.
SCHEMA_RETIRE = "schema-retire"
#: Ring marker: ``("ring", nbytes[, trace])`` on the ordered queue announces
#: one packed record of ``nbytes`` in the shard's shared-memory ring.  The
#: marker, not the ring, carries ordering: data stays FIFO with lifecycle
#: frames because every record is announced in ship order.
RING = "ring"
#: Relay frame: ``("relay", edge_id, seq, inner_frame)`` re-emits one
#: shard's derived output channel into another shard's entry.  The inner
#: frame is any data frame of this module — ``crun`` for packable runs,
#: ``run`` as the pickle fallback, ``schema`` for interning state, or a
#: ``ring`` marker when the receiving shard has a shared-memory ring.
#: ``seq`` numbers every frame of one edge contiguously from 0 so the
#: receiver can detect dropped or reordered relay traffic, and the edge id
#: scopes schema tokens: each edge carries its own encoder/decoder pair
#: (:class:`RelayCodec`), so relay interning never collides with the
#: source feed's tokens.
RELAY = "relay"
#: End of one relay edge: ``("relay-eof", edge_id, final_seq)``.  The
#: receiver checks ``final_seq`` equals the frames it consumed — a cheap
#: end-to-end completeness proof per edge.
RELAY_EOF = "relay-eof"
STOP = "stop"

STOP_FRAME = (STOP,)

#: Command frame kinds (the process-mode lifecycle protocol).
REGISTER = "register"
UNREGISTER = "unregister"
REOPTIMIZE = "reoptimize"
REBALANCE = "rebalance"
STATS = "stats"
SNAPSHOT = "snapshot"
CHECKPOINT = "checkpoint"
RESTORE = "restore"
#: Re-adoption handshake: a restarted coordinator asks a still-live worker
#: for its incarnation, highest applied sequence number, stream cursor and
#: active queries, then reconciles them against its journal.  Workers
#: answer ``hello`` outside the reply cache (it is read-only and its seq
#: comes from the *new* coordinator's numbering, which must not collide
#: with cached replies to the old one).
HELLO = "hello"
#: Liveness probe: answered immediately (outside the reply cache, like
#: ``hello`` — it is read-only), so the coordinator can distinguish a hung
#: worker from a slow one without mutating any state.
PING = "ping"
#: Install (or re-home) a relay tap on a worker: the worker taps the named
#: query's sink channel and buffers ``(seq, run)`` pairs until collected.
RELAY_TAP = "relay-tap"
#: Drain a worker's relay tap buffers: the reply carries the buffered
#: ``(alias, seq, run)`` entries in emission order.  Sequence numbers are
#: per-edge and survive checkpoint/restore, so the coordinator's relay
#: cursor dedupes replayed runs exactly once.
COLLECT_RELAY = "collect-relay"
REPLY = "reply"

COMMAND_KINDS = frozenset(
    {
        REGISTER,
        UNREGISTER,
        REOPTIMIZE,
        REBALANCE,
        STATS,
        SNAPSHOT,
        CHECKPOINT,
        RESTORE,
        HELLO,
        PING,
        RELAY_TAP,
        COLLECT_RELAY,
    }
)

#: Reply statuses.
OK = "ok"
ERR = "err"


def encode_command(kind: str, seq: int, payload=None, trace=None) -> tuple:
    """Build a command frame: ``(kind, seq, payload_bytes[, trace])``.

    ``trace`` is an optional ``(trace_id, parent_span_id)`` pair carried as
    a trailing element — absent on untraced frames, so the wire format is
    byte-compatible with pre-telemetry peers when tracing is off.
    """
    if kind not in COMMAND_KINDS:
        raise ChannelError(f"unknown command kind {kind!r}")
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if trace is None:
        return (kind, seq, blob)
    return (kind, seq, blob, tuple(trace))


def decode_command(frame: tuple) -> tuple:
    """Decode a command frame into ``(kind, seq, payload)``.

    Any trailing trace element is ignored here; use :func:`frame_trace` to
    read it — keeping the common decode path oblivious to tracing.
    Malformed frames (too short, wrong shape) raise :class:`ChannelError`
    naming the offending frame — never a bare ``IndexError``.
    """
    if not isinstance(frame, tuple) or len(frame) < 3:
        raise ChannelError(
            f"malformed command frame {frame!r:.200}: expected "
            f"(kind, seq, payload_bytes[, trace])"
        )
    kind, seq, blob = frame[0], frame[1], frame[2]
    if kind not in COMMAND_KINDS:
        raise ChannelError(f"unknown command kind {kind!r}")
    return kind, seq, pickle.loads(blob)


def frame_trace(frame: tuple):
    """The ``(trace_id, parent_span_id)`` pair a frame carries, or None.

    Command frames carry it as element 3, run frames as element 4; schema,
    stop and reply frames are never traced.
    """
    kind = frame[0]
    if kind in COMMAND_KINDS:
        return frame[3] if len(frame) > 3 else None
    if kind == RUN or kind == CRUN:
        return frame[4] if len(frame) > 4 else None
    if kind == RING:
        return frame[2] if len(frame) > 2 else None
    return None


def encode_reply(seq: int, status: str, payload=None) -> tuple:
    """Build a reply frame: ``("reply", seq, status, payload_bytes)``."""
    if status not in (OK, ERR):
        raise ChannelError(f"unknown reply status {status!r}")
    return (
        REPLY,
        seq,
        status,
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
    )


def decode_reply(frame: tuple) -> tuple:
    """Decode a reply frame into ``(seq, status, payload)``."""
    kind, seq, status, blob = frame
    if kind != REPLY:
        raise ChannelError(f"expected a reply frame, got kind {kind!r}")
    return seq, status, pickle.loads(blob)


def encode_transfer(transfer) -> bytes:
    """Serialize a :class:`ComponentTransfer` for a process hop.

    Live executors (``transfer.entries``) are reduced to their state
    snapshots; everything else — plan subgraph, logical queries, captured
    output histories — pickles directly.  The donor must not keep serving
    the component after encoding (export semantics), so handing the live
    containers to pickle is safe.

    A transfer that already crossed a process boundary carries its state
    in ``transfer.state`` with no live executors; re-encoding such a
    transfer (the coordinator does this when splicing differential
    checkpoints) starts from that carried state so the round trip is
    lossless.
    """
    state = dict(getattr(transfer, "state", None) or {})
    for mop_id, (__signature, executor) in transfer.entries.items():
        snapshot = executor.snapshot_state()
        if snapshot is not None:
            state[mop_id] = snapshot
    return pickle.dumps(
        {
            "plan_transfer": transfer.plan_transfer,
            "queries": transfer.queries,
            "captured": transfer.captured,
            "state": state,
            "state_carried": transfer.state_carried,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def decode_transfer(data: bytes):
    """Rebuild a :class:`ComponentTransfer` from :func:`encode_transfer`.

    The result carries no live executors (``entries`` is empty);
    ``import_component`` builds fresh ones from the plan subgraph and
    re-seeds them from ``state``.
    """
    from repro.runtime.runtime import ComponentTransfer

    payload = pickle.loads(data)
    return ComponentTransfer(
        plan_transfer=payload["plan_transfer"],
        queries=payload["queries"],
        entries={},
        captured=payload["captured"],
        state_carried=payload["state_carried"],
        state=payload["state"],
    )


#: Required keys of a checkpoint manifest payload (the ``checkpoint``
#: command's reply), and of each of its component entries.
_MANIFEST_KEYS = frozenset(
    {"version", "cursor", "components", "captured_extra", "stats"}
)
_COMPONENT_KEYS = frozenset({"queries", "blob", "state_carried", "captured_offsets"})


def encode_manifest(
    version: int,
    cursor: dict,
    components: Sequence[dict],
    captured_extra: dict,
    stats=None,
    base: Optional[dict] = None,
    relays: Optional[dict] = None,
) -> dict:
    """Build a checkpoint manifest payload (flat primitives + bytes).

    A manifest is a worker's reply to a ``checkpoint`` command: the
    checkpoint round's ``version``, the worker's **stream cursor** (source
    stream name → events processed, the consistency cut the coordinator
    cross-checks against its own shipped counts), one entry per live
    component (its query ids, the :func:`encode_transfer` blob, the operator
    state it carries and per-query captured-history offsets at the cut), a
    pickled side-channel of captured histories owned by no live component
    (queries unregistered since their last output, whose histories must
    still survive a restore), and the worker's cumulative ``RunStats`` at
    the cut — restoring them keeps post-recovery aggregate counters
    identical to a never-crashed serve.

    ``base`` marks a **differential** manifest: ``{query_id: offset}``
    captured-history cuts the coordinator sent with the checkpoint
    command.  Component blobs and ``captured_extra`` then carry only the
    history *suffixes* past those offsets — the coordinator splices them
    onto its previous materialized checkpoint before storing, so what
    lands in the :class:`~repro.shard.checkpoint.CheckpointStore` is
    always self-contained.  ``base=None`` (absent on the wire) is a full
    manifest.

    ``relays`` — ``{alias: next_seq}`` relay-tap sequence counters at the
    cut — rides the manifest so a restored worker resumes numbering relay
    runs exactly where the checkpoint left off: the log-suffix replay then
    regenerates the same ``(alias, seq)`` pairs and the coordinator's
    relay cursors dedupe them (exactly-once relay replay).  Absent on the
    wire when the worker taps nothing, so manifests stay byte-compatible
    with pre-relay peers.
    """
    payload = {
        "version": int(version),
        "cursor": {str(name): int(count) for name, count in cursor.items()},
        "components": [
            {
                "queries": tuple(component["queries"]),
                "blob": component["blob"],
                "state_carried": int(component["state_carried"]),
                "captured_offsets": dict(component["captured_offsets"]),
            }
            for component in components
        ],
        "captured_extra": pickle.dumps(
            captured_extra, protocol=pickle.HIGHEST_PROTOCOL
        ),
        "stats": pickle.dumps(stats, protocol=pickle.HIGHEST_PROTOCOL),
    }
    if base is not None:
        payload["base"] = {str(qid): int(off) for qid, off in base.items()}
    if relays:
        payload["relays"] = {
            str(alias): int(seq) for alias, seq in relays.items()
        }
    return payload


def decode_manifest(payload: dict) -> dict:
    """Validate and normalize a checkpoint manifest payload.

    Raises :class:`~repro.errors.CheckpointError` on a malformed manifest —
    a corrupt checkpoint must fail loudly at capture time, never at restore
    time when the state it guards is already gone.  The ``captured_extra``
    and ``stats`` blobs stay pickled: the coordinator stores them opaquely
    (only the restoring worker unpickles them), so decoding here would
    deserialize entire captured histories on the serving path just to
    throw them away.
    """
    if not isinstance(payload, dict) or not _MANIFEST_KEYS <= set(payload):
        raise CheckpointError(
            f"malformed checkpoint manifest: expected keys "
            f"{sorted(_MANIFEST_KEYS)}, got {payload!r:.200}"
        )
    for key in ("captured_extra", "stats"):
        if not isinstance(payload[key], bytes):
            raise CheckpointError(f"manifest {key} must be pickled bytes")
    for component in payload["components"]:
        if not _COMPONENT_KEYS <= set(component):
            raise CheckpointError(
                f"malformed manifest component entry: expected keys "
                f"{sorted(_COMPONENT_KEYS)}, got {sorted(component)}"
            )
        if not isinstance(component["blob"], bytes):
            raise CheckpointError(
                "manifest component blob must be bytes (encode_transfer output)"
            )
    base = payload.get("base")
    return {
        "version": payload["version"],
        "cursor": dict(payload["cursor"]),
        "components": [dict(component) for component in payload["components"]],
        "captured_extra": payload["captured_extra"],
        "stats": payload["stats"],
        "base": dict(base) if base is not None else None,
        "relays": dict(payload.get("relays") or {}),
    }


# -- ring record codec ---------------------------------------------------------------
#
# A packed columnar run crosses the shared-memory ring as one flat record:
#
#     header  <qqqqBH   channel_id, token, count, uniform_mask, memb_mode, ncols
#     ts      count * 8 bytes (int64)
#     [membership  count * 8 bytes (int64), only when memb_mode == 1]
#     per column:  1-byte tag, then
#                  'q'/'d' -> count * 8 raw array bytes (no pickle)
#                  'o'     -> <q blob length + pickle blob
#
# The coder hands back a *parts list* (header bytes + array memoryviews), so
# the ring write copies each numeric column exactly once — straight from the
# array's buffer into shared memory.  The reader rebuilds columns with
# ``np.frombuffer`` over the received bytes: no per-value work either way.

_RING_HEADER = struct.Struct("<qqqqBH")
_RING_BLOB = struct.Struct("<q")


def _array_bytes(array) -> memoryview:
    if not array.flags["C_CONTIGUOUS"]:
        array = np.ascontiguousarray(array)
    return memoryview(array).cast("B")


def pack_run_record(
    channel_id: int, token: int, batch: ColumnBatch
) -> tuple[list, int]:
    """Flatten a columnar run into ``(parts, total_bytes)`` for a ring write."""
    count = batch.count
    membership = batch.membership
    if isinstance(membership, int):
        parts = [
            _RING_HEADER.pack(
                channel_id, token, count, membership, 0, len(batch.columns)
            ),
            _array_bytes(batch.ts),
        ]
    else:
        parts = [
            _RING_HEADER.pack(
                channel_id, token, count, 0, 1, len(batch.columns)
            ),
            _array_bytes(batch.ts),
            _array_bytes(membership),
        ]
    for tag, data in batch.columns:
        if tag == "o":
            blob = pickle.dumps(list(data), protocol=pickle.HIGHEST_PROTOCOL)
            parts.append(b"o")
            parts.append(_RING_BLOB.pack(len(blob)))
            parts.append(blob)
        else:
            parts.append(tag.encode("ascii"))
            parts.append(_array_bytes(data))
    total = sum(
        part.nbytes if isinstance(part, memoryview) else len(part)
        for part in parts
    )
    return parts, total


def unpack_run_record(record: bytes) -> tuple[int, int, int, object, object, tuple]:
    """Parse one ring record into raw columnar pieces.

    Returns ``(channel_id, token, count, ts, membership, columns)``; the
    caller (:meth:`WireDecoder.decode_ring`) resolves channel and schema.
    Raises :class:`ChannelError` on a malformed or truncated record.
    """
    view = memoryview(record)
    try:
        channel_id, token, count, uniform, memb_mode, ncols = (
            _RING_HEADER.unpack_from(view, 0)
        )
        offset = _RING_HEADER.size
        ts = np.frombuffer(view, dtype=np.int64, count=count, offset=offset)
        offset += count * 8
        if memb_mode:
            membership = np.frombuffer(
                view, dtype=np.int64, count=count, offset=offset
            )
            offset += count * 8
        else:
            membership = uniform
        columns = []
        for __ in range(ncols):
            tag = chr(view[offset])
            offset += 1
            if tag == "q" or tag == "d":
                dtype = np.int64 if tag == "q" else np.float64
                data = np.frombuffer(
                    view, dtype=dtype, count=count, offset=offset
                )
                offset += count * 8
            elif tag == "o":
                (blob_len,) = _RING_BLOB.unpack_from(view, offset)
                offset += _RING_BLOB.size
                data = pickle.loads(view[offset : offset + blob_len])
                offset += blob_len
            else:
                raise ChannelError(f"unknown ring column tag {tag!r}")
            columns.append((tag, data))
    except (struct.error, ValueError, IndexError) as exc:
        raise ChannelError(
            f"malformed ring record ({len(record)} bytes): {exc}"
        ) from None
    if offset != len(record):
        raise ChannelError(
            f"ring record length mismatch: parsed {offset} of "
            f"{len(record)} bytes"
        )
    return channel_id, token, count, ts, membership, tuple(columns)


class WireEncoder:
    """Encodes (channel, batch) runs into wire frames, interning schemas."""

    def __init__(self):
        # Keyed by id() for speed but holding the Schema itself: the
        # reference pins the object, so a collected schema can never hand
        # its address (and token) to a different schema.
        self._schema_tokens: dict[int, tuple[Schema, int]] = {}
        self._next_token = 0

    def _token_of(self, schema: Schema, frames: list) -> int:
        entry = self._schema_tokens.get(id(schema))
        if entry is not None:
            return entry[1]
        token = self._next_token
        self._next_token += 1
        self._schema_tokens[id(schema)] = (schema, token)
        frames.append(
            (
                SCHEMA,
                token,
                tuple((a.name, a.type) for a in schema.attributes),
            )
        )
        return token

    @property
    def interned_schemas(self) -> int:
        """Number of schemas currently interned (soak tests watch this)."""
        return len(self._schema_tokens)

    def retire_schemas(self, live_schemas: Iterable[Schema]) -> Optional[tuple]:
        """Drop interned schemas outside ``live_schemas``; returns the
        ``schema-retire`` frame to broadcast, or None when nothing retired.

        Tokens are monotonic and never reused, so retiring cannot alias a
        token still referenced by an in-flight frame; a retired schema that
        reappears simply re-interns under a fresh token (the decoder learns
        it from the schema frame preceding its next run, as on first use).
        """
        live_ids = {id(schema) for schema in live_schemas}
        retired = [
            token
            for key, (__, token) in self._schema_tokens.items()
            if key not in live_ids
        ]
        if not retired:
            return None
        self._schema_tokens = {
            key: entry
            for key, entry in self._schema_tokens.items()
            if key in live_ids
        }
        return (SCHEMA_RETIRE, tuple(sorted(retired)))

    def schema_frames(self) -> list[tuple]:
        """Schema frames for every live interned schema, in token order.

        This is the replay prefix a freshly (re)spawned decoder needs —
        regenerating it from the live table is what keeps the coordinator's
        recorded frame history bounded under query churn.
        """
        return [
            (
                SCHEMA,
                token,
                tuple((a.name, a.type) for a in schema.attributes),
            )
            for schema, token in sorted(
                self._schema_tokens.values(), key=lambda entry: entry[1]
            )
        ]

    def encode_run(
        self, channel: Channel, batch: Sequence[ChannelTuple], trace=None
    ) -> list[tuple]:
        """Encode one run; returns the frames to ship, in order.

        The last frame is always the ``run`` frame; any needed ``schema``
        frames precede it.  ``trace`` — an optional ``(trace_id,
        parent_span_id)`` pair — rides as a trailing element of the run
        frame only (schema frames are broadcast interning state, not work,
        so they are never traced).

        Single pass: entries are built on the homogeneous fast path (3-
        tuples, no per-tuple token lookup) until the first schema change,
        at which point the prefix is widened once and the rest of the
        batch continues on the mixed path.
        """
        frames: list[tuple] = []
        if not batch:
            return frames
        first_schema = batch[0].tuple.schema
        token = self._token_of(first_schema, frames)
        payload: list[tuple] = []
        append = payload.append
        mixed = False
        for channel_tuple in batch:
            tuple_ = channel_tuple.tuple
            schema = tuple_.schema
            if not mixed:
                if schema is first_schema:
                    append(
                        (tuple_.ts, channel_tuple.membership, tuple_.values)
                    )
                    continue
                # First schema change: widen the homogeneous prefix to
                # 4-tuples once, then stay on the mixed path.
                payload = [(ts, mem, values, token) for ts, mem, values in payload]
                append = payload.append
                mixed = True
            append(
                (
                    tuple_.ts,
                    channel_tuple.membership,
                    tuple_.values,
                    self._token_of(schema, frames),
                )
            )
        if trace is None:
            frames.append((RUN, channel.channel_id, token, payload))
        else:
            frames.append(
                (RUN, channel.channel_id, token, payload, tuple(trace))
            )
        return frames

    def encode_run_columns(
        self, channel: Channel, batch: ColumnBatch, trace=None
    ) -> list[tuple]:
        """Encode a packed columnar run as a ``crun`` frame (+ schema frames).

        The pipe/queue sibling of :func:`pack_run_record`: arrays ride the
        frame as numpy objects, used when a host has no ring (inline, relay
        edges) or a record does not fit the ring.
        """
        frames: list[tuple] = []
        token = self._token_of(batch.schema, frames)
        payload = (batch.count, batch.ts, batch.membership, batch.columns)
        if trace is None:
            frames.append((CRUN, channel.channel_id, token, payload))
        else:
            frames.append(
                (CRUN, channel.channel_id, token, payload, tuple(trace))
            )
        return frames

    def token_for(self, schema: Schema, frames: list) -> int:
        """Public interning hook for ring shipping: returns the schema's
        token, appending a schema frame to ``frames`` on first use."""
        return self._token_of(schema, frames)


class WireDecoder:
    """Decodes wire frames back into (channel, batch) runs."""

    def __init__(self, channels: Iterable[Channel]):
        self._channels: dict[int, Channel] = {
            channel.channel_id: channel for channel in channels
        }
        self._schemas: dict[int, Schema] = {}

    def add_channel(self, channel: Channel) -> None:
        self._channels[channel.channel_id] = channel

    def decode(self, frame: tuple):
        """Decode one frame.

        Returns ``None`` for bookkeeping frames (``schema``), the pair
        ``(channel, batch)`` for ``run`` frames, and raises on unknown
        channels/schemas/kinds — a malformed feed must fail loudly, not
        silently drop events.
        """
        kind = frame[0]
        if kind == SCHEMA:
            __, token, attributes = frame
            self._schemas[token] = Schema(
                [Attribute(name, type_) for name, type_ in attributes]
            )
            return None
        if kind == SCHEMA_RETIRE:
            for token in frame[1]:
                self._schemas.pop(token, None)
            return None
        if kind == RUN:
            channel_id, token, payload = frame[1], frame[2], frame[3]
            channel = self._channels.get(channel_id)
            if channel is None:
                raise ChannelError(
                    f"wire run for unknown channel id {channel_id}"
                )
            default_schema = self._schemas.get(token)
            if default_schema is None:
                raise ChannelError(f"wire run references unknown schema {token}")
            schemas = self._schemas
            batch = []
            for entry in payload:
                try:
                    width = len(entry)
                except TypeError:
                    width = -1
                if width == 3:
                    ts, membership, values = entry
                    schema = default_schema
                elif width == 4:
                    ts, membership, values, entry_token = entry
                    schema = schemas.get(entry_token)
                    if schema is None:
                        raise ChannelError(
                            f"wire tuple references unknown schema {entry_token}"
                        )
                else:
                    raise ChannelError(
                        f"malformed wire run entry {entry!r:.200}: expected "
                        f"(ts, membership, values[, schema_token])"
                    )
                batch.append(
                    ChannelTuple(StreamTuple(schema, values, ts), membership)
                )
            return channel, batch
        if kind == CRUN:
            channel_id, token, payload = frame[1], frame[2], frame[3]
            channel = self._channels.get(channel_id)
            if channel is None:
                raise ChannelError(
                    f"wire run for unknown channel id {channel_id}"
                )
            schema = self._schemas.get(token)
            if schema is None:
                raise ChannelError(f"wire run references unknown schema {token}")
            try:
                count, ts, membership, columns = payload
            except (TypeError, ValueError):
                raise ChannelError(
                    f"malformed columnar run payload {payload!r:.200}: "
                    f"expected (count, ts, membership, columns)"
                ) from None
            if len(columns) != len(schema):
                raise ChannelError(
                    f"columnar run width {len(columns)} does not match "
                    f"schema width {len(schema)}"
                )
            return channel, ColumnBatch(schema, count, ts, membership, columns)
        if kind == STOP:
            raise ChannelError("stop frame must be handled by the feed loop")
        raise ChannelError(f"unknown wire frame kind {kind!r}")

    def decode_ring(self, record: bytes):
        """Decode one packed ring record into ``(channel, ColumnBatch)``."""
        channel_id, token, count, ts, membership, columns = unpack_run_record(
            record
        )
        channel = self._channels.get(channel_id)
        if channel is None:
            raise ChannelError(f"ring record for unknown channel id {channel_id}")
        schema = self._schemas.get(token)
        if schema is None:
            raise ChannelError(f"ring record references unknown schema {token}")
        if len(columns) != len(schema):
            raise ChannelError(
                f"ring record width {len(columns)} does not match schema "
                f"width {len(schema)}"
            )
        return channel, ColumnBatch(schema, count, ts, membership, columns)


class RelayCodec:
    """Per-edge framing for cross-shard channel re-emission.

    One codec instance lives on each side of a relay edge: the producing
    shard encodes every tapped run of the bridge channel into ``relay``
    frames, the consuming shard decodes them back into batches.  The codec
    owns a private :class:`WireEncoder`/:class:`WireDecoder` pair, so relay
    schema tokens are interned per edge and can never collide with the
    tokens of the source feed (or of another edge) sharing the transport.

    Frames of one edge are numbered contiguously from 0; ``decode`` raises
    :class:`~repro.errors.ChannelError` on any gap or reorder, and the
    terminating ``relay-eof`` frame carries the final count so a silently
    truncated edge is detected rather than absorbed.

    Each run packs into a ``crun`` inner frame when its rows share one
    schema, falling back to the pickle ``run`` frame per run.
    """

    def __init__(self, edge_id: int, channel: Channel):
        self.edge_id = edge_id
        self.channel = channel
        self._encoder = WireEncoder()
        self._decoder = WireDecoder([channel])
        self._next_send = 0
        self._next_recv = 0

    @property
    def sent(self) -> int:
        return self._next_send

    @property
    def received(self) -> int:
        return self._next_recv

    def encode(self, batch) -> list[tuple]:
        """Encode one tapped run (channel tuples or a ``ColumnBatch``)."""
        packed = (
            batch
            if type(batch) is ColumnBatch
            else ColumnBatch.from_channel_tuples(batch)
        )
        if packed is not None:
            inner = self._encoder.encode_run_columns(self.channel, packed)
        else:
            inner = self._encoder.encode_run(self.channel, list(batch))
        frames = []
        for frame in inner:
            frames.append((RELAY, self.edge_id, self._next_send, frame))
            self._next_send += 1
        return frames

    def encode_eof(self) -> tuple:
        """The edge's terminating frame, carrying the final frame count."""
        return (RELAY_EOF, self.edge_id, self._next_send)

    def decode(self, frame: tuple):
        """Decode one relay frame; returns ``(channel, batch)`` or None.

        None means a bookkeeping inner frame (schema interning).  Raises
        :class:`ChannelError` on a frame for another edge, a sequence gap,
        or a malformed inner frame.
        """
        if not isinstance(frame, tuple) or len(frame) != 4 or frame[0] != RELAY:
            raise ChannelError(
                f"malformed relay frame {frame!r:.200}: expected "
                f"(relay, edge_id, seq, inner_frame)"
            )
        __, edge_id, seq, inner = frame
        if edge_id != self.edge_id:
            raise ChannelError(
                f"relay frame for edge {edge_id} on codec for edge "
                f"{self.edge_id}"
            )
        if seq != self._next_recv:
            raise ChannelError(
                f"relay edge {self.edge_id} sequence gap: expected "
                f"{self._next_recv}, got {seq}"
            )
        self._next_recv += 1
        return self._decoder.decode(inner)

    def decode_eof(self, frame: tuple) -> None:
        """Verify the edge's terminating frame against consumed frames."""
        if not isinstance(frame, tuple) or len(frame) != 3 or frame[0] != RELAY_EOF:
            raise ChannelError(
                f"malformed relay-eof frame {frame!r:.200}"
            )
        __, edge_id, final_seq = frame
        if edge_id != self.edge_id:
            raise ChannelError(
                f"relay-eof for edge {edge_id} on codec for edge "
                f"{self.edge_id}"
            )
        if final_seq != self._next_recv:
            raise ChannelError(
                f"relay edge {self.edge_id} truncated: sender reports "
                f"{final_seq} frames, receiver consumed {self._next_recv}"
            )
