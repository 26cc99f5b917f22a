"""Relay transport: re-emitting a derived channel into another shard's entry.

A :class:`~repro.shard.planner.RelayEdge` connects two fragments of a cut
component.  The producing fragment's engine gets a
:class:`~repro.engine.executor.RelayTap` on the bridge channel, so every run
dispatched on it is captured (or streamed) in emission order; the captured
runs cross the shard boundary as ``relay`` wire frames
(:class:`~repro.shard.wire.RelayCodec` — columnar ``crun`` payloads with
pickle fallback, per-edge sequence numbers) and re-enter the consuming
fragment as a *source*.

Ordering is the whole point.  A fragment's entry sources — its own share of
the driver's sources plus one relayed bridge — are merged by timestamp
exactly like the single engine merges the original sources, with the relay
source occupying the *producing fragment's* position in the driver order, so
timestamp ties break the same way they would have had the bridge tuples been
produced mid-dispatch.  Fragments execute in topological index order
(producers before consumers — the planner renumbers them that way), which
also makes the multi-worker exchange deadlock-free: a worker draining its
fragments in ascending global rank only ever waits for frames that a
lower-rank fragment (already running or finished elsewhere) will send.

Because the consuming engine counts relayed tuples as *entry* events while
the producing engine already counted the very same tuples flowing through
its dispatch, :func:`deduct_relay_inputs` subtracts the delivered tuples
from the consumer's input/physical counters — aggregate accounting stays
byte-identical to the single-engine run.
"""

from __future__ import annotations

from collections import deque
from queue import Empty
from typing import Iterator, Optional, Sequence

from repro.engine.metrics import RunStats
from repro.errors import ChannelError
from repro.shard.wire import RELAY, RELAY_EOF, RelayCodec
from repro.streams.channel import Channel, ChannelTuple
from repro.streams.columns import ColumnBatch


def _batch_length(batch) -> int:
    return batch.count if type(batch) is ColumnBatch else len(batch)


def _slice_batch(batch, start: int, stop: int):
    if type(batch) is ColumnBatch:
        return batch.slice(start, stop)
    return batch[start:stop]


class BufferedRunSource:
    """Replays captured ``(channel, batch)`` runs as a stream source.

    Used for relay edges whose producer already ran to completion (inline
    mode, or both fragments hosted by one worker) and for routed feeds
    buffered per fragment.  Batches may be row lists or ``ColumnBatch``es;
    ``iter_runs`` re-chunks to the engine's run cap, ``__iter__``
    materializes rows for the timestamp heap merge.
    """

    def __init__(
        self,
        runs: Sequence[tuple[Channel, object]],
        channel: Optional[Channel] = None,
    ):
        self.runs = list(runs)
        if channel is None and self.runs:
            channel = self.runs[0][0]
        self.channel = channel
        self._channels = tuple(
            {each.channel_id: each for each, __ in self.runs}.values()
        )
        #: Tuples handed to the consuming engine (drained sources deliver
        #: everything; the stats deduction reads this).
        self.delivered = 0

    def channels(self) -> Sequence[Channel]:
        """Every distinct channel the replay yields — a routed fragment
        feed spans several, so ``channel`` alone would misplace it."""
        return self._channels

    def __iter__(self) -> Iterator[tuple[Channel, ChannelTuple]]:
        for channel, batch in self.runs:
            if type(batch) is ColumnBatch:
                batch = batch.channel_tuples()
            for channel_tuple in batch:
                self.delivered += 1
                yield channel, channel_tuple

    def iter_runs(self, max_run: int):
        for channel, batch in self.runs:
            length = _batch_length(batch)
            for start in range(0, length, max_run):
                chunk = _slice_batch(batch, start, min(start + max_run, length))
                self.delivered += _batch_length(chunk)
                yield channel, chunk


class RelayInbox:
    """Demultiplexes ``relay`` frames from one inbound queue across edges.

    One inbox per worker: producers anywhere push frames for any of the
    worker's inbound edges onto the same queue (per-edge FIFO holds because
    each edge has exactly one producing fragment).  ``next_batch`` buffers
    frames for other edges while waiting for the requested one, and returns
    ``None`` once the edge's ``relay-eof`` arrived and its buffer drained.
    """

    def __init__(
        self, queue, codecs: dict[int, RelayCodec], timeout: float = 60.0
    ):
        self._queue = queue
        self._codecs = codecs
        #: Starvation bound: a producer worker that died before shipping the
        #: edge's EOF would otherwise hang this worker forever; timing out
        #: turns the deadlock into an error the coordinator can report.
        self._timeout = timeout
        self._buffers: dict[int, deque] = {
            edge_id: deque() for edge_id in codecs
        }
        self._done: set[int] = set()

    def next_batch(self, edge_id: int):
        buffer = self._buffers[edge_id]
        while True:
            if buffer:
                return buffer.popleft()
            if edge_id in self._done:
                return None
            try:
                frame = self._queue.get(timeout=self._timeout)
            except Empty:
                raise ChannelError(
                    f"relay edge {edge_id} starved: no frame within "
                    f"{self._timeout}s (producer worker dead?)"
                ) from None
            kind = frame[0]
            incoming = frame[1]
            codec = self._codecs.get(incoming)
            if codec is None:
                raise ChannelError(
                    f"relay frame for unknown edge {incoming!r}"
                )
            if kind == RELAY_EOF:
                codec.decode_eof(frame)
                self._done.add(incoming)
                continue
            if kind != RELAY:
                raise ChannelError(f"unexpected frame on relay inbox: {kind!r}")
            decoded = codec.decode(frame)
            if decoded is not None:
                self._buffers[incoming].append(decoded)


class StreamingRelaySource:
    """A relay entry fed live from a :class:`RelayInbox`.

    The consuming engine's merge pulls tuples (or runs) off this source
    while the producing fragment is still dispatching on another worker;
    pulls block on the inbox queue until the next frame or the edge's EOF.
    """

    def __init__(self, channel: Channel, edge_id: int, inbox: RelayInbox):
        self.channel = channel
        self.edge_id = edge_id
        self._inbox = inbox
        self.delivered = 0

    def channels(self) -> Sequence[Channel]:
        return (self.channel,)

    def __iter__(self) -> Iterator[tuple[Channel, ChannelTuple]]:
        while True:
            decoded = self._inbox.next_batch(self.edge_id)
            if decoded is None:
                return
            channel, batch = decoded
            if type(batch) is ColumnBatch:
                batch = batch.channel_tuples()
            for channel_tuple in batch:
                self.delivered += 1
                yield channel, channel_tuple

    def iter_runs(self, max_run: int):
        while True:
            decoded = self._inbox.next_batch(self.edge_id)
            if decoded is None:
                return
            channel, batch = decoded
            length = _batch_length(batch)
            for start in range(0, length, max_run):
                chunk = _slice_batch(batch, start, min(start + max_run, length))
                self.delivered += _batch_length(chunk)
                yield channel, chunk


class RelayOutbox:
    """Encodes one out-edge's runs and routes the frames to their consumer.

    ``sink`` is either a ``put``-able queue (consumer hosted elsewhere) or a
    plain list (consumer hosted by the same worker / the inline loop, which
    wraps the decoded buffer in a :class:`BufferedRunSource` afterwards).
    The tap's ``on_run`` callback plugs straight into :meth:`ship`, so
    frames leave mid-dispatch on the streaming path.
    """

    def __init__(self, edge_id: int, channel: Channel, sink):
        self.codec = RelayCodec(edge_id, channel)
        self._sink = sink
        self._put = getattr(sink, "put", None)

    def ship(self, batch) -> None:
        if not batch:
            return
        for frame in self.codec.encode(batch):
            if self._put is not None:
                self._put(frame)
            else:
                self._sink.append(frame)

    def finish(self) -> None:
        frame = self.codec.encode_eof()
        if self._put is not None:
            self._put(frame)
        else:
            self._sink.append(frame)


def decode_local_frames(
    frames: Sequence, codec: RelayCodec
) -> list[tuple[Channel, object]]:
    """Decode a worker-local edge's frame buffer into replayable runs."""
    runs: list[tuple[Channel, object]] = []
    for frame in frames:
        if frame[0] == RELAY_EOF:
            codec.decode_eof(frame)
            continue
        decoded = codec.decode(frame)
        if decoded is not None:
            runs.append(decoded)
    return runs


def deduct_relay_inputs(stats: RunStats, delivered: int) -> None:
    """Remove a relay entry's double-counted tuples from consumer stats.

    The producing engine already counted these tuples flowing through its
    dispatch (``physical_events``) and they were never *source* events, so
    the consumer's entry accounting of them — one logical event, one
    physical input and one physical event per tuple on a singleton bridge
    channel — is subtracted to keep the sharded aggregate identical to the
    single-engine run.
    """
    stats.input_events -= delivered
    stats.physical_input_events -= delivered
    stats.physical_events -= delivered


def build_fragment_schedule(shard_plan, sources: Sequence) -> list[dict]:
    """Plan the per-fragment execution order, sources and relay wiring.

    Returns ``(schedule, leftover)``: one descriptor per component in
    topological index order, plus the driver sources on channels no
    fragment consumes (the caller accounts those per owning shard)::

        {
          "component": int, "shard": int,
          "local_sources": [StreamSource, ...],  # driver order preserved
          "local_position": int,                 # min driver index (or big)
          "in_edges": [RelayEdge, ...], "out_edges": [RelayEdge, ...],
          "source_order": [("source", i) | ("relay", edge_id), ...],
          "entry_order": [("local", None) | ("relay", edge_id), ...],
        }

    The two order lists are the merge position contract: local sources
    keep their driver positions and a relayed bridge inherits its
    producing fragment's effective position (recursively, the earliest
    driver source that feeds it), so timestamp ties break exactly as in
    the single engine, where bridge tuples surfaced during their driving
    source's dispatch.  ``source_order`` interleaves individual local
    sources (local-feed mode); ``entry_order`` collapses them into one
    ``("local", None)`` entry for feeds that already merged the fragment's
    own channels into a single buffered stream (router mode).
    """
    by_component: dict[int, dict] = {}
    channel_component: dict[int, int] = {}
    for component in shard_plan.components:
        by_component[component.index] = {
            "component": component.index,
            "shard": shard_plan.assignment[component.index],
            "entry_channels": frozenset(component.entry_channel_ids),
            "local_sources": [],
            "local_positions": [],
            "local_position": len(sources),
            "in_edges": [],
            "out_edges": [],
            "source_order": [],
            "entry_order": [],
        }
        for channel_id in component.entry_channel_ids:
            channel_component[channel_id] = component.index
    leftover = []
    for position, source in enumerate(sources):
        owner = channel_component.get(source.channel.channel_id)
        if owner is None:
            leftover.append(source)
            continue
        descriptor = by_component[owner]
        descriptor["local_sources"].append(source)
        descriptor["local_positions"].append(position)
        descriptor["local_position"] = min(
            descriptor["local_position"], position
        )
    for edge in shard_plan.relays:
        by_component[edge.to_component]["in_edges"].append(edge)
        by_component[edge.from_component]["out_edges"].append(edge)
    schedule = [by_component[index] for index in sorted(by_component)]
    effective: dict[int, int] = {}
    for descriptor in schedule:
        position = descriptor["local_position"]
        for edge in descriptor["in_edges"]:
            position = min(position, effective[edge.from_component])
        effective[descriptor["component"]] = position
        # Fully interleaved per-source order (local feed) ...
        entries = [
            (local_position, 0, ("source", index))
            for index, local_position in enumerate(
                descriptor["local_positions"]
            )
        ]
        for edge in descriptor["in_edges"]:
            entries.append(
                (effective[edge.from_component], 1, ("relay", edge.edge_id))
            )
        entries.sort(key=lambda e: e[:2])
        descriptor["source_order"] = [entry for __, __tie, entry in entries]
        # ... and the collapsed variant for pre-merged feeds (router mode).
        grouped = (
            [(descriptor["local_position"], 0, ("local", None))]
            if descriptor["local_sources"]
            else []
        )
        for edge in descriptor["in_edges"]:
            grouped.append(
                (effective[edge.from_component], 1, ("relay", edge.edge_id))
            )
        grouped.sort(key=lambda e: e[:2])
        descriptor["entry_order"] = [entry for __, __tie, entry in grouped]
    return schedule, leftover


def relay_rows(run) -> list:
    """Materialize one tapped run as plain :class:`StreamTuple` rows.

    Taps capture whatever the dispatch path carried — a ``ColumnBatch`` on
    the vectorized path or a list of ``ChannelTuple`` on the row path —
    while the live relay re-emits *stream* events onto an alias source, so
    both shapes collapse to their underlying tuples here.
    """
    if type(run) is ColumnBatch:
        return [channel_tuple.tuple for channel_tuple in run.channel_tuples()]
    return [channel_tuple.tuple for channel_tuple in run]


def sink_channel_of(plan, query_id: str) -> Channel:
    """The channel carrying ``query_id``'s sink stream in a live plan.

    Re-resolved (not cached) because sharing merges can re-home a query's
    sink registration onto a representative m-op's output stream
    (``eliminate_duplicate``) — the relay tap must follow it.
    """
    for stream, query_ids in plan.sink_streams():
        if query_id in query_ids:
            return plan.channel_of(stream)
    raise ChannelError(
        f"query {query_id!r} has no sink stream to export"
    )
