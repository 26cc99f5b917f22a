"""The push-based stream engine.

``StreamEngine`` freezes a query plan into executors (one per m-op) and a
channel routing table, then drains its sources through the DAG in the order
:mod:`repro.streams.sources` defines (timestamp-ordered within a component).

Three dispatch regimes share the same executor tables:

- **per-tuple** — the reference interpreter and the oracle every other
  regime is checked against: breadth-first propagation per source event
  (every emitted channel tuple is enqueued and dispatched to the consumers
  of its channel);
- **per-channel batches** — the source merge is consumed as
  timestamp-ordered *runs* of same-channel events, each run flows through
  the DAG as one batch per channel (``MOpExecutor.process_batch``), routing
  and sink bookkeeping are flattened into one dense per-channel table, and
  stats/latency/capture branches are hoisted into per-channel closures
  built at table-rebuild time;
- **ranked windows** — for source groups whose channels interleave (two
  or more entry channels, as in every ``S ; T`` query), the merge is cut
  into windows of up to ``max_batch`` consecutive events spanning the
  group's channels.  An event's *rank* is its position in the window, and
  every tuple derived from it carries that rank.  Each executor runs once
  per window (``MOpExecutor.process_ranked``), in topological m-op order,
  over its inputs merged by rank; sinks and relay taps run last, over the
  rank-ordered tuples of their channels.

Both batched regimes preserve per-tuple semantics *exactly*; the engine
proves it per entry channel and falls back otherwise, so outputs stay
byte-identical to the reference path on every plan.

*The diamond test* (per-channel batches).  Processing a whole run through
one executor before the next reorders events only across channels, never
within one, so it is output-identical iff no executor consumes more than
one channel reachable from the entry channel (a "diamond": the same source
event reaching one executor via paths of different length, e.g. a µ-op
reading both α(CPU) and σ(α(CPU))) and no query sinks on two of them.

*The rank test* (ranked windows) generalises "at most one reachable input
channel" to "at most one reachable *producer*": for every entry channel,
each multi-input executor and each multi-sink query reads from at most one
producer, where a channel's producer is the entry itself (for the entry
channel) or the one m-op emitting on it.  It is exact because an
executor's behaviour depends only on the sequence of tuples it is handed.
Under per-tuple dispatch that sequence is event by event, and within one
event it is the FIFO order in which the breadth-first queue delivers the
executor's input tuples — which, when they all come from one producer, is
that producer's emission order.  Ranked dispatch hands the executor the
same sequence: ranks order the events, and within a rank only the one
producer contributes, in its emission order (a stable merge by rank keeps
it).  By induction over the topological order every executor sees, and so
emits, exactly what it would per tuple; the same argument orders each
query's captured outputs.  A group whose entry fails the rank test (the
§5.3 µ-op reads α(CPU) and σ(α(CPU)), two producers) keeps per-channel
runs with the per-tuple fallback; a single entry channel that passes the
diamond test keeps per-channel runs, which need no rank bookkeeping.
``rebuild_tables`` records the channel-consumption graph both tests read.

Executors read the plan wiring when they are built, so plan rewrites must not
happen behind a running engine's back.  They may, however, happen *between*
events — on a batch boundary: :mod:`repro.engine.migration` diffs the
engine's executor table against the (rewritten) plan, reuses executors whose
wiring is untouched — carrying their window/sequence state across — and
atomically swaps the routing and sink tables.  That is what lets the online
lifecycle runtime (:mod:`repro.runtime`) register and unregister queries
mid-stream without a stop-the-world rebuild.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from repro.core.mop import MOpExecutor
from repro.core.plan import QueryPlan
from repro.engine.metrics import RunStats
from repro.errors import PlanError
from repro.streams.channel import Channel, ChannelTuple
from repro.streams.columns import ColumnBatch
from repro.streams.sources import (
    StreamSource,
    group_sources,
    merge_source_runs,
    merge_sources,
)
from repro.streams.tuples import StreamTuple


class _TapRecord:
    """Telemetry stand-in for a relay tap under observed dispatch.

    The observed shadow tables pair every consumer with an m-op record;
    taps are not m-ops, so they get this sink-hole record — bumped like any
    other but never exported (``MOpObserver`` only reports its own
    records), keeping the ``physical_events`` reconciliation identity
    intact.
    """

    __slots__ = (
        "per_tuple_calls",
        "batches",
        "tuples_in",
        "tuples_out",
        "sampled_seconds",
        "sampled_calls",
    )

    def __init__(self):
        self.per_tuple_calls = 0
        self.batches = 0
        self.tuples_in = 0
        self.tuples_out = 0
        self.sampled_seconds = 0.0
        self.sampled_calls = 0


class RelayTap:
    """A pseudo-consumer recording every batch dispatched on one channel.

    Installed by :meth:`StreamEngine.install_relay_tap` on a derived
    channel whose consumers live on another shard: the tap sees exactly
    the batches those consumers would have seen, in emission order, and
    emits nothing itself.  Runs either buffer on the tap (drained with
    :meth:`StreamEngine.take_relay_runs`) or stream straight to ``on_run``
    when set — the live path process-mode workers use so downstream shards
    consume relays while the upstream drain is still running.
    """

    __slots__ = ("channel", "runs", "on_run", "record", "produced")

    def __init__(self, channel: Channel, on_run=None):
        self.channel = channel
        self.runs: list[list[ChannelTuple]] = []
        self.on_run = on_run
        self.record = _TapRecord()
        #: Cumulative tuples dispatched through the tap — the relay
        #: *cursor*.  It rides checkpoint manifests so a restored worker
        #: resumes numbering where the cut left off, letting the
        #: coordinator discard already-delivered relay tuples exactly once.
        self.produced = 0

    def process(self, channel, channel_tuple):
        self.produced += 1
        if self.on_run is not None:
            self.on_run([channel_tuple])
        else:
            self.runs.append([channel_tuple])
        return ()

    def process_batch(self, channel, tuples):
        # Columnar chunks pass through unmaterialized — the relay codec
        # ships them as ``crun`` payloads without a row round-trip.
        run = tuples if type(tuples) is ColumnBatch else list(tuples)
        self.produced += len(run)
        if self.on_run is not None:
            self.on_run(run)
        else:
            self.runs.append(run)
        return ()


_RANK = itemgetter(0)


def _gather(slots: list, parts: tuple) -> list:
    """The ``(rank, channel, tuple)`` items ``parts`` select, by rank.

    ``parts`` are ``(slot, wanted)`` pairs: a producer's output slot and the
    channel ids to keep from it (``None``: everything it emitted).  Within
    one rank only one producer feeds any one consumer (the rank test), so a
    stable sort of the concatenation by rank keeps each producer's emission
    order.
    """
    if len(parts) == 1:
        slot, wanted = parts[0]
        items = slots[slot]
        if wanted is None or not items:
            return items
        return [item for item in items if item[1].channel_id in wanted]
    pieces = []
    for slot, wanted in parts:
        items = slots[slot]
        if items and wanted is not None:
            items = [item for item in items if item[1].channel_id in wanted]
        if items:
            pieces.append(items)
    if len(pieces) == 1:
        return pieces[0]
    return sorted(chain.from_iterable(pieces), key=_RANK)


class _WindowSchedule:
    """Ranked dispatch of one source group, built once per entry set.

    A window's *slots* hold ``(rank, channel, tuple)`` lists: one per entry
    channel (``entry_slot``), then one per step, appended as the steps run.
    ``steps`` are ``(parts, process_ranked, record)`` in topological order
    over the executors reachable from the entries (``record`` is the m-op's
    telemetry record, or None when unobserved).  ``sinks`` maps each slot to
    the handlers of the sink channels it alone carries; channels sunk by a
    query with several reachable sink channels go to ``ordered_parts``
    instead, handled tuple by tuple in rank order.  ``taps`` pairs each
    reachable tapped channel with the parts carrying it.
    """

    __slots__ = (
        "entry_slot",
        "singleton",
        "steps",
        "sinks",
        "ordered_parts",
        "ordered_handlers",
        "taps",
    )

    def __init__(self, engine: "StreamEngine", entries: dict[int, Channel]):
        key = frozenset(entries)
        reach: set[int] = set()
        for channel_id in key:
            reach |= engine._reach(channel_id)
        self.entry_slot = {
            channel_id: slot for slot, channel_id in enumerate(sorted(key))
        }
        self.singleton = all(
            channel.capacity == 1 for channel in entries.values()
        )
        producer = engine._channel_producer
        output_channels = engine._exec_output_channels
        slot_of_exec: dict[int, int] = {}

        def parts_for(channels) -> tuple:
            parts = [
                (self.entry_slot[channel_id], None)
                for channel_id in sorted(channels & key)
            ]
            wanted_by_index: dict[int, set[int]] = {}
            for channel_id in channels:
                index = producer.get(channel_id)
                if index in slot_of_exec:
                    wanted_by_index.setdefault(index, set()).add(channel_id)
            for index in sorted(wanted_by_index, key=slot_of_exec.get):
                wanted = wanted_by_index[index]
                parts.append(
                    (
                        slot_of_exec[index],
                        None
                        if wanted >= set(output_channels[index])
                        else frozenset(wanted),
                    )
                )
            return tuple(parts)

        steps = []
        for index in engine._topological_order():
            inputs = engine._exec_input_channels[index] & reach
            if not inputs:
                continue
            steps.append(
                (
                    parts_for(inputs),
                    engine._executors[index].process_ranked,
                    engine._exec_records[index],
                )
            )
            slot_of_exec[index] = len(key) + len(steps) - 1
        self.steps = tuple(steps)
        ordered: set[int] = set()
        for sink_channels in engine._multi_sink_queries:
            reached = sink_channels & reach
            if len(reached) > 1:
                ordered |= reached
        handlers = {
            channel_id: entry[0]
            for channel_id, entry in engine._channel_table.items()
            if channel_id in reach and entry[0] is not None
        }
        # slot -> {channel_id: handler} for channels one slot carries whole.
        by_slot: dict[int, dict] = {}
        for channel_id in sorted(handlers):
            parts = parts_for({channel_id})
            if channel_id in ordered or len(parts) > 1:
                ordered.add(channel_id)
            else:
                by_slot.setdefault(parts[0][0], {})[channel_id] = handlers[
                    channel_id
                ]
        self.sinks = tuple(sorted(by_slot.items()))
        self.ordered_parts = parts_for(ordered) if ordered else ()
        self.ordered_handlers = {
            channel_id: handlers[channel_id] for channel_id in ordered
        }
        self.taps = tuple(
            (parts_for({channel_id}), tap)
            for channel_id, tap in engine._relay_taps.items()
            if channel_id in reach
        )


class StreamEngine:
    """Executes one query plan over a set of sources."""

    def __init__(
        self,
        plan: QueryPlan,
        capture_outputs: bool = False,
        track_latency: bool = False,
        batching: bool = True,
        max_batch: int = 1024,
        observe=False,
    ):
        plan.validate()
        self.plan = plan
        self.capture_outputs = capture_outputs
        #: Record per-output latency into RunStats (off by default: it costs
        #: one clock read per output event on the hot path).  Under batched
        #: dispatch the latency clock starts once per run, so per-output
        #: readings are coarser than per-tuple dispatch (a measurement
        #: difference only — outputs are identical).
        self.track_latency = track_latency
        #: Dispatch source runs as batches where provably output-identical
        #: (see module docstring); ``False`` forces the reference per-tuple
        #: interpreter everywhere — the baseline ``bench_throughput``
        #: compares against.
        self.batching = batching
        if max_batch < 1:
            raise PlanError(f"max_batch must be at least 1, got {max_batch}")
        self.max_batch = max_batch
        #: Per-m-op telemetry (:class:`repro.obs.mops.MOpObserver`), or None.
        #: ``observe=True`` builds a default observer; an observer instance
        #: is adopted as-is (the lifecycle runtime carries one across engine
        #: migrations so counters stay cumulative).  When None, dispatch
        #: runs the original tables — the hot loop is untouched.
        if observe is True:
            from repro.obs.mops import MOpObserver

            self.observer = MOpObserver()
        else:
            self.observer = observe or None
        #: query_id -> captured output tuples (only with capture_outputs).
        #: Created before the tables: the per-channel sink closures bind it.
        self.captured: dict[object, list[StreamTuple]] = {}
        #: mop_id -> (wiring signature, executor); the migration unit.
        self._entries: dict[int, tuple[tuple, MOpExecutor]] = {}
        self._executors: list[MOpExecutor] = []
        self._stateful_executors: list[MOpExecutor] = []
        # Channel routing: channel_id -> executors consuming that channel.
        self._routing: dict[int, list[MOpExecutor]] = {}
        # Sink accounting: channel_id -> [(bit, query_ids)].
        self._sink_table: dict[int, list[tuple[int, list]]] = {}
        # Flattened hot-path table: channel_id -> (sink handler | None,
        # prebound process_batch methods of the channel's consumers).
        self._channel_table: dict[int, tuple] = {}
        # Columnar entry table: channel_id -> ((can_process_columns,
        # process_columns) per consumer), present only when *every*
        # consumer of the channel implements the columnar protocol.
        self._columnar_table: dict[int, tuple] = {}
        # Observed shadow tables (only populated when ``observer`` is set):
        # same shape, but each method/executor is paired with its MOpRecord.
        self._observed_channel_table: dict[int, tuple] = {}
        self._observed_routing: dict[int, tuple] = {}
        # Channel-consumption graph for the batch-safety (diamond) analysis.
        self._consumer_indexes: dict[int, tuple[int, ...]] = {}
        self._exec_input_channels: list[frozenset[int]] = []
        self._exec_output_channels: list[tuple[int, ...]] = []
        self._multi_input_execs: tuple[int, ...] = ()
        self._multi_sink_queries: tuple[frozenset[int], ...] = ()
        # channel_id -> index of the executor emitting on it (source
        # channels have none); the "producer" of the rank test.
        self._channel_producer: dict[int, int] = {}
        # Per executor: its MOpRecord when observing, else None.
        self._exec_records: list = []
        self._batchable_cache: dict[int, bool] = {}
        self._rankable_cache: dict[int, bool] = {}
        # Executor indexes, producers before consumers; built lazily.
        self._topo_order: Optional[tuple[int, ...]] = None
        # frozenset(entry channel ids) -> _WindowSchedule, or None where the
        # group drains in per-channel runs; built lazily per source group.
        self._window_cache: dict[frozenset, Optional[_WindowSchedule]] = {}
        # channel_id -> component root; built by the first batched ``run``.
        self._component_cache: Optional[dict[int, int]] = None
        # channel_id -> RelayTap; re-installed after every table rebuild so
        # taps survive plan rewrites and engine migration.
        self._relay_taps: dict[int, RelayTap] = {}
        self.rebuild_tables(reuse=None)

    def rebuild_tables(
        self, reuse: Optional[dict[int, tuple[tuple, MOpExecutor]]]
    ) -> tuple[int, int]:
        """(Re)build executors, routing and sink tables from ``self.plan``.

        ``reuse`` maps mop_id to a previous (signature, executor) pair; an
        executor is carried over — keeping its operator state — iff its m-op
        is still in the plan with an identical wiring signature.  Returns
        ``(reused, built)`` counts.  The new tables are computed fully before
        being swapped in, so a raising rewrite cannot leave the engine with
        half-updated routing.
        """
        from repro.engine.migration import wiring_signature

        plan = self.plan
        entries: dict[int, tuple[tuple, MOpExecutor]] = {}
        executors: list[MOpExecutor] = []
        reused = built = 0
        for mop in plan.mops:
            signature = wiring_signature(plan, mop)
            previous = reuse.get(mop.mop_id) if reuse else None
            if previous is not None and previous[0] == signature:
                executor = previous[1]
                reused += 1
            else:
                executor = mop.make_executor(plan)
                built += 1
            entries[mop.mop_id] = (signature, executor)
            executors.append(executor)
        routing: dict[int, list[MOpExecutor]] = {}
        consumer_indexes: dict[int, list[int]] = {}
        exec_input_channels: list[frozenset[int]] = []
        exec_output_channels: list[tuple[int, ...]] = []
        for index, (mop, executor) in enumerate(zip(plan.mops, executors)):
            seen: set[int] = set()
            for stream in mop.input_streams:
                channel = plan.channel_of(stream)
                if channel.channel_id in seen:
                    continue
                seen.add(channel.channel_id)
                routing.setdefault(channel.channel_id, []).append(executor)
                consumer_indexes.setdefault(channel.channel_id, []).append(index)
            exec_input_channels.append(frozenset(seen))
            exec_output_channels.append(
                tuple(
                    {
                        plan.channel_of(stream).channel_id
                        for stream in mop.output_streams
                    }
                )
            )
        sink_table: dict[int, list[tuple[int, list]]] = {}
        sink_channels_by_query: dict[object, set[int]] = {}
        for stream, query_ids in plan.sink_streams():
            channel = plan.channel_of(stream)
            bit = 1 << channel.position_of(stream)
            sink_table.setdefault(channel.channel_id, []).append((bit, query_ids))
            for query_id in query_ids:
                sink_channels_by_query.setdefault(query_id, set()).add(
                    channel.channel_id
                )
        channel_table: dict[int, tuple] = {}
        for channel_id in set(routing) | set(sink_table):
            sinks = tuple(
                (bit, tuple(query_ids))
                for bit, query_ids in sink_table.get(channel_id, ())
            )
            handler = self._make_sink_handler(sinks) if sinks else None
            batch_methods = tuple(
                executor.process_batch
                for executor in routing.get(channel_id, ())
            )
            channel_table[channel_id] = (handler, batch_methods)
        # Columnar entry table: a channel is columnar-capable iff every
        # consumer exposes the (can_process_columns, process_columns)
        # protocol; capability is still re-checked per batch (it depends
        # on the arriving column layout).
        columnar_table: dict[int, tuple] = {}
        for channel_id, consumers in routing.items():
            pairs = []
            for executor in consumers:
                can = getattr(executor, "can_process_columns", None)
                method = getattr(executor, "process_columns", None)
                if can is None or method is None:
                    pairs = None
                    break
                pairs.append((can, method))
            if pairs:
                columnar_table[channel_id] = tuple(pairs)
        # Observed shadow tables: the same routing, with each prebound
        # method/executor paired with its m-op's telemetry record.  Built
        # only when observing, so the unobserved swap stays byte-for-byte
        # what it was.
        observer = self.observer
        observed_channel_table: dict[int, tuple] = {}
        observed_routing: dict[int, tuple] = {}
        exec_records: list = [None] * len(executors)
        if observer is not None:
            observer.refresh(plan)
            exec_records = [observer.record_for(mop.mop_id) for mop in plan.mops]
            observed_routing = {
                channel_id: tuple(
                    (executors[index], exec_records[index]) for index in indexes
                )
                for channel_id, indexes in consumer_indexes.items()
            }
            for channel_id, (handler, __) in channel_table.items():
                observed_channel_table[channel_id] = (
                    handler,
                    tuple(
                        (executors[index].process_batch, exec_records[index])
                        for index in consumer_indexes.get(channel_id, ())
                    ),
                )
        # Atomic swap: every table flips together.
        self._entries = entries
        self._executors = executors
        self._stateful_executors = [e for e in executors if e.is_stateful]
        self._routing = routing
        self._sink_table = sink_table
        self._channel_table = channel_table
        self._columnar_table = columnar_table
        self._observed_channel_table = observed_channel_table
        self._observed_routing = observed_routing
        self._consumer_indexes = {
            channel_id: tuple(indexes)
            for channel_id, indexes in consumer_indexes.items()
        }
        self._exec_input_channels = exec_input_channels
        self._exec_output_channels = exec_output_channels
        self._multi_input_execs = tuple(
            index
            for index, channels in enumerate(exec_input_channels)
            if len(channels) > 1
        )
        self._multi_sink_queries = tuple(
            frozenset(channels)
            for channels in sink_channels_by_query.values()
            if len(channels) > 1
        )
        self._channel_producer = {
            channel_id: index
            for index, channels in enumerate(exec_output_channels)
            for channel_id in channels
        }
        self._exec_records = exec_records
        self._batchable_cache = {}
        self._rankable_cache = {}
        self._topo_order = None
        self._component_cache = None
        self._apply_relay_taps()
        return reused, built

    # -- relay taps -----------------------------------------------------------------

    def install_relay_tap(self, channel: Channel, on_run=None) -> RelayTap:
        """Tap ``channel``: record (or stream) every batch dispatched on it.

        The tap rides the routing tables like a consumer — it fires on
        every dispatch path (per-tuple, batched, observed, columnar BFS) —
        and survives table rebuilds.  Installing a tap removes the channel
        from the columnar entry table (a tap has no columnar protocol), so
        tapped entries take the row path; outputs are identical.
        Re-installing on an already-tapped channel updates ``on_run`` and
        keeps the buffered runs.
        """
        tap = self._relay_taps.get(channel.channel_id)
        if tap is None:
            tap = RelayTap(channel, on_run)
            self._relay_taps[channel.channel_id] = tap
        else:
            tap.on_run = on_run
        self._apply_relay_taps()
        return tap

    def remove_relay_tap(self, channel_id: int) -> None:
        """Remove a tap; pending buffered runs are dropped."""
        if self._relay_taps.pop(channel_id, None) is not None:
            self.rebuild_tables(reuse=self.executor_entries())

    def relay_tap(self, channel_id: int):
        return self._relay_taps.get(channel_id)

    def take_relay_runs(self, channel_id: int) -> list[list[ChannelTuple]]:
        """Drain the tap's buffered runs (emission order)."""
        tap = self._relay_taps[channel_id]
        runs = tap.runs
        tap.runs = []
        return runs

    def _apply_relay_taps(self) -> None:
        """Splice taps into the freshly built dispatch tables (idempotent)."""
        self._window_cache = {}  # window schedules carry the tap set
        for channel_id, tap in self._relay_taps.items():
            consumers = self._routing.setdefault(channel_id, [])
            if tap not in consumers:
                consumers.append(tap)
            entry = self._channel_table.get(channel_id)
            handler, methods = entry if entry is not None else (None, ())
            if tap.process_batch not in methods:
                self._channel_table[channel_id] = (
                    handler, methods + (tap.process_batch,)
                )
            self._columnar_table.pop(channel_id, None)
            if self.observer is not None:
                observed = list(self._observed_routing.get(channel_id, ()))
                if all(consumer is not tap for consumer, __ in observed):
                    observed.append((tap, tap.record))
                    self._observed_routing[channel_id] = tuple(observed)
                o_entry = self._observed_channel_table.get(channel_id)
                o_handler, o_pairs = (
                    o_entry if o_entry is not None else (None, ())
                )
                if all(method != tap.process_batch for method, __ in o_pairs):
                    self._observed_channel_table[channel_id] = (
                        o_handler,
                        o_pairs + ((tap.process_batch, tap.record),),
                    )

    def _make_sink_handler(self, sinks: tuple):
        """Per-channel sink closure, specialized at rebuild time.

        The per-tuple interpreter re-tests ``stats is None``, latency and
        capture flags on every event; here each flag combination gets its
        own closure so the hot loop runs branch-free.  Handlers receive the
        batch, the (never-None) stats, and the run's entry clock reading.
        """
        capture = self.capture_outputs
        captured = self.captured
        if self.track_latency:

            def handle(tuples, stats, started):
                latency = time.perf_counter() - started
                outputs_by_query = stats.outputs_by_query
                latency_by_query = stats.latency_by_query
                output_events = 0
                for channel_tuple in tuples:
                    membership = channel_tuple.membership
                    for bit, query_ids in sinks:
                        if membership & bit:
                            for query_id in query_ids:
                                output_events += 1
                                outputs_by_query[query_id] = (
                                    outputs_by_query.get(query_id, 0) + 1
                                )
                                latency_by_query[query_id] = (
                                    latency_by_query.get(query_id, 0.0) + latency
                                )
                                if capture:
                                    captured.setdefault(query_id, []).append(
                                        channel_tuple.tuple
                                    )
                stats.output_events += output_events

            return handle
        if capture:

            def handle(tuples, stats, __started):
                outputs_by_query = stats.outputs_by_query
                output_events = 0
                for channel_tuple in tuples:
                    membership = channel_tuple.membership
                    for bit, query_ids in sinks:
                        if membership & bit:
                            for query_id in query_ids:
                                output_events += 1
                                outputs_by_query[query_id] = (
                                    outputs_by_query.get(query_id, 0) + 1
                                )
                                captured.setdefault(query_id, []).append(
                                    channel_tuple.tuple
                                )
                stats.output_events += output_events

            return handle
        if len(sinks) == 1 and len(sinks[0][1]) == 1:
            bit, (query_id,) = sinks[0]

            def handle(tuples, stats, __started):
                count = 0
                for channel_tuple in tuples:
                    if channel_tuple.membership & bit:
                        count += 1
                if count:
                    stats.output_events += count
                    stats.outputs_by_query[query_id] = (
                        stats.outputs_by_query.get(query_id, 0) + count
                    )

            return handle

        def handle(tuples, stats, __started):
            outputs_by_query = stats.outputs_by_query
            output_events = 0
            for channel_tuple in tuples:
                membership = channel_tuple.membership
                for bit, query_ids in sinks:
                    if membership & bit:
                        for query_id in query_ids:
                            output_events += 1
                            outputs_by_query[query_id] = (
                                outputs_by_query.get(query_id, 0) + 1
                            )
            stats.output_events += output_events

        return handle

    def executor_entries(self) -> dict[int, tuple[tuple, MOpExecutor]]:
        """Snapshot of mop_id -> (wiring signature, executor)."""
        return dict(self._entries)

    def stateful_mop_ids(self) -> set[int]:
        """m-ops whose executors currently hold operator state.

        The incremental optimizer freezes these: replacing or rewiring them
        would drop window contents and partial matches mid-stream.  An
        executor whose state has fully drained (``state_size == 0``) can be
        rebuilt without behavioural difference, so it is not frozen.
        """
        return {
            mop_id
            for mop_id, (__, executor) in self._entries.items()
            if executor.is_stateful and executor.state_size > 0
        }

    # -- batch safety ---------------------------------------------------------------

    def channel_batchable(self, channel_id: int) -> bool:
        """Whether runs entering on ``channel_id`` may be batch-dispatched.

        True iff (a) no executor consumes two or more channels reachable
        from the entry channel — the diamond test (module docstring) — and
        (b) no single query has sinks on two or more reachable channels
        (its captured-output order interleaves channels per event under
        per-tuple dispatch, which batch grouping would reorder).  Computed
        lazily per entry channel and cached until the next table rebuild.
        """
        cached = self._batchable_cache.get(channel_id)
        if cached is not None:
            return cached
        reach = self._reach(channel_id)
        input_channels = self._exec_input_channels
        safe = all(
            len(input_channels[index] & reach) <= 1
            for index in self._multi_input_execs
        ) and all(
            len(sink_channels & reach) <= 1
            for sink_channels in self._multi_sink_queries
        )
        self._batchable_cache[channel_id] = safe
        return safe

    def channel_rankable(self, channel_id: int) -> bool:
        """Whether events entering on ``channel_id`` may be window-dispatched.

        The rank test (module docstring): no executor and no query reads
        tuples from two or more *producers* reachable from the entry — the
        producer of a channel being the entry itself or the one executor
        emitting on it.  Cached until the next table rebuild.
        """
        cached = self._rankable_cache.get(channel_id)
        if cached is not None:
            return cached
        reach = self._reach(channel_id)
        producer = self._channel_producer

        def producers(channels: frozenset[int]) -> int:
            return len(
                {
                    producer[other] if other != channel_id else None
                    for other in channels & reach
                }
            )

        input_channels = self._exec_input_channels
        safe = all(
            producers(input_channels[index]) <= 1
            for index in self._multi_input_execs
        ) and all(
            producers(sink_channels) <= 1
            for sink_channels in self._multi_sink_queries
        )
        self._rankable_cache[channel_id] = safe
        return safe

    def _reach(self, channel_id: int) -> set[int]:
        """Every channel a tuple entering on ``channel_id`` can reach."""
        reach = {channel_id}
        stack = [channel_id]
        consumer_indexes = self._consumer_indexes
        output_channels = self._exec_output_channels
        while stack:
            current = stack.pop()
            for index in consumer_indexes.get(current, ()):
                for out in output_channels[index]:
                    if out not in reach:
                        reach.add(out)
                        stack.append(out)
        return reach

    def _topological_order(self) -> tuple[int, ...]:
        """Executor indexes, every producer before its consumers (ties in
        plan order); computed lazily and cached until the next rebuild."""
        if self._topo_order is not None:
            return self._topo_order
        producer = self._channel_producer
        dependents: list[list[int]] = [[] for __ in self._executors]
        waiting: list[int] = []
        for index, channels in enumerate(self._exec_input_channels):
            upstream = {producer[c] for c in channels if c in producer}
            waiting.append(len(upstream))
            for other in upstream:
                dependents[other].append(index)
        ready = [index for index, count in enumerate(waiting) if not count]
        order: list[int] = []
        while ready:
            index = heapq.heappop(ready)
            order.append(index)
            for dependent in dependents[index]:
                waiting[dependent] -= 1
                if not waiting[dependent]:
                    heapq.heappush(ready, dependent)
        if len(order) != len(waiting):
            raise PlanError("the m-op graph has a cycle")
        self._topo_order = tuple(order)
        return self._topo_order

    def _window_schedule(self, group) -> Optional["_WindowSchedule"]:
        """How the source ``group`` drains: ``None`` for per-channel runs,
        else the ranked-window schedule over the group's entry channels.

        A single entry channel that passes the diamond test keeps runs;
        anything else that interleaves drains in windows when every entry
        passes the rank test, and in runs (with the per-tuple fallback)
        when one does not.
        """
        entries = {
            channel.channel_id: channel
            for source in group
            for channel in source.channels()
        }
        key = frozenset(entries)
        if key in self._window_cache:
            return self._window_cache[key]
        if len(key) == 1 and self.channel_batchable(next(iter(key))):
            schedule = None
        elif all(self.channel_rankable(channel_id) for channel_id in key):
            schedule = _WindowSchedule(self, entries)
        else:
            schedule = None
        self._window_cache[key] = schedule
        return schedule

    def channel_components(self) -> dict[int, int]:
        """channel_id -> component, for every channel the tables know.

        Two channels share a component when one executor touches both (as
        input or output, transitively) or one query has sinks on both: those
        are the channels whose relative event order operator state or a
        captured-output list can observe.  Computed lazily and cached until
        the next table rebuild, so register/migrate never pay for it.
        """
        cached = self._component_cache
        if cached is not None:
            return cached
        parent = {channel_id: channel_id for channel_id in self._channel_table}

        def find(channel_id: int) -> int:
            parent.setdefault(channel_id, channel_id)
            while parent[channel_id] != channel_id:
                parent[channel_id] = parent[parent[channel_id]]
                channel_id = parent[channel_id]
            return channel_id

        touched = (
            (*inputs, *outputs)
            for inputs, outputs in zip(
                self._exec_input_channels, self._exec_output_channels
            )
        )
        for first, *others in chain(touched, self._multi_sink_queries):
            for other in others:
                parent[find(other)] = find(first)
        cached = {channel_id: find(channel_id) for channel_id in parent}
        self._component_cache = cached
        return cached

    # -- running -------------------------------------------------------------------

    def run(
        self,
        sources: Sequence[StreamSource],
        warmup_events: int = 0,
        sample_state_every: int = 0,
    ) -> RunStats:
        """Drain ``sources`` through the plan; returns run statistics.

        Batched dispatch follows the ordering contract of
        :mod:`repro.streams.sources`: global timestamp order within a
        component (:meth:`channel_components`); components are drained one
        after another, so a single-source component gets full-length runs
        and an interleaved one ranked windows (module docstring).  The
        per-tuple reference path and warm-up runs — whose warmed/measured
        split is defined on the global order — keep one global merge.

        ``warmup_events`` logical events are processed before the clock and
        the counters start — the paper warms the JIT the same way ("we first
        process the input stream for a few iterations", §5).  Warmup is
        always per-tuple so the warmed/measured split lands on the same
        event regardless of dispatch mode.

        ``sample_state_every`` > 0 records the peak total operator state
        (``RunStats.peak_state``), sampled every that many source events — a
        memory proxy for the window-length experiments.  State sampling is a
        per-event probe, so it forces the per-tuple path.
        """
        if not self.batching or sample_state_every:
            return self._run_per_tuple(sources, warmup_events, sample_state_every)
        if warmup_events:
            runs = merge_source_runs(sources, self.max_batch)
        else:
            runs = chain.from_iterable(
                self._group_runs(group)
                for group in group_sources(sources, self.channel_components())
            )
        pending: Optional[tuple[Channel, list[ChannelTuple]]] = None
        if warmup_events:
            consumed = 0
            for channel, batch in runs:
                if type(batch) is ColumnBatch:
                    # Warmup is per-tuple by contract; columnar runs
                    # materialize so the warmed/measured split still lands
                    # on the same event.
                    batch = batch.channel_tuples()
                index = 0
                while index < len(batch):
                    channel_tuple = batch[index]
                    index += 1
                    self._dispatch(channel, channel_tuple, stats=None)
                    consumed += channel_tuple.membership.bit_count()
                    if consumed >= warmup_events:
                        break
                if consumed >= warmup_events:
                    if index < len(batch):
                        pending = (channel, batch[index:])
                    break
        stats = RunStats()
        started = time.perf_counter()
        if pending is not None:
            self._run_batch(pending[0], pending[1], stats)
        for channel, batch in runs:
            if type(channel) is _WindowSchedule:
                self._run_window(channel, batch, stats)
            elif type(batch) is ColumnBatch:
                # Columnar-native source (ColumnRunSource): feed the packed
                # run straight to the vectorized entry; elapsed_seconds is
                # overwritten below by this run's own wall clock.
                stats.absorb(self.process_columns(channel, batch))
            else:
                self._run_batch(channel, batch, stats)
        stats.elapsed_seconds = time.perf_counter() - started
        if self.observer is not None:
            self.observer.sample_state_now(self)
        return stats

    def _group_runs(self, group):
        """One source group's merge: per-channel runs, or ranked windows
        headed by their schedule in place of a channel."""
        schedule = self._window_schedule(group)
        if schedule is None:
            return merge_source_runs(group, self.max_batch)
        return (
            (schedule, window)
            for __, window in merge_source_runs(
                group, self.max_batch, windows=True
            )
        )

    def _run_window(
        self,
        schedule: "_WindowSchedule",
        window: list[tuple[Channel, ChannelTuple]],
        stats: RunStats,
    ) -> None:
        """Ranked dispatch of one window (module docstring).

        Every event is tagged with its rank; each executor of the schedule
        runs once, in topological order, over its inputs gathered from
        their producers' outputs and merged by rank; sinks, then relay
        taps, run last over the rank-ordered tuples of their channels.
        """
        observer = self.observer
        if observer is not None:
            observer.maybe_sample_state(self)
            sample_every = observer.sample_every
        count = len(window)
        stats.physical_input_events += count
        if schedule.singleton:
            stats.input_events += count
        else:
            stats.input_events += sum(
                channel_tuple.membership.bit_count()
                for __, channel_tuple in window
            )
        started = time.perf_counter() if self.track_latency else 0.0
        entry_slot = schedule.entry_slot
        if len(entry_slot) == 1:
            slots = [
                [
                    (rank, channel, channel_tuple)
                    for rank, (channel, channel_tuple) in enumerate(window)
                ]
            ]
        else:
            slots = [[] for __ in entry_slot]
            appends = {
                channel_id: slots[slot].append
                for channel_id, slot in entry_slot.items()
            }
            for rank, (channel, channel_tuple) in enumerate(window):
                appends[channel.channel_id]((rank, channel, channel_tuple))
        physical = count
        for parts, method, record in schedule.steps:
            items = _gather(slots, parts)
            if not items:
                slots.append(items)
                continue
            if record is None:
                outputs = method(items)
            else:
                record.batches += 1
                record.tuples_in += len(items)
                if (record.batches + record.per_tuple_calls) % sample_every:
                    outputs = method(items)
                else:
                    sampled_at = time.perf_counter()
                    outputs = method(items)
                    record.sampled_seconds += time.perf_counter() - sampled_at
                    record.sampled_calls += 1
                record.tuples_out += len(outputs)
            slots.append(outputs)
            physical += len(outputs)
        stats.physical_events += physical
        for slot, handlers in schedule.sinks:
            # One pass buckets the slot's tuples per sink channel; each
            # channel has one producer, so its bucket is in rank order.
            buckets: dict[int, list[ChannelTuple]] = {}
            for __, channel, channel_tuple in slots[slot]:
                channel_id = channel.channel_id
                if channel_id in handlers:
                    bucket = buckets.get(channel_id)
                    if bucket is None:
                        buckets[channel_id] = [channel_tuple]
                    else:
                        bucket.append(channel_tuple)
            for channel_id, tuples in buckets.items():
                handlers[channel_id](tuples, stats, started)
        if schedule.ordered_parts:
            # Queries with sinks on several channels (and channels fed by
            # more than one slot): one handler call per tuple, in rank
            # order across those channels.
            handlers = schedule.ordered_handlers
            for __, channel, channel_tuple in _gather(
                slots, schedule.ordered_parts
            ):
                handlers[channel.channel_id]([channel_tuple], stats, started)
        for parts, tap in schedule.taps:
            items = _gather(slots, parts)
            if items:
                if observer is not None:
                    tap.record.batches += 1
                    tap.record.tuples_in += len(items)
                tap.process_batch(tap.channel, [item[2] for item in items])

    def _run_batch(
        self, channel: Channel, batch: list[ChannelTuple], stats: RunStats
    ) -> None:
        if channel.capacity == 1:
            # Singleton channels carry exactly one membership bit per tuple.
            logical = len(batch)
        else:
            logical = 0
            for channel_tuple in batch:
                logical += channel_tuple.membership.bit_count()
        stats.input_events += logical
        stats.physical_input_events += len(batch)
        observer = self.observer
        if observer is not None:
            observer.maybe_sample_state(self)
            if len(batch) == 1:
                self._dispatch_observed(channel, batch[0], stats)
            elif self.channel_batchable(channel.channel_id):
                self._dispatch_batch_observed(channel, batch, stats)
            else:
                dispatch = self._dispatch_observed
                for channel_tuple in batch:
                    dispatch(channel, channel_tuple, stats)
            return
        if len(batch) == 1:
            # A run of one has nothing to amortize; the per-tuple
            # interpreter is strictly cheaper (and trivially equivalent).
            self._dispatch(channel, batch[0], stats)
            return
        if self.channel_batchable(channel.channel_id):
            self._dispatch_batch(channel, batch, stats)
        else:
            dispatch = self._dispatch
            for channel_tuple in batch:
                dispatch(channel, channel_tuple, stats)

    def _run_per_tuple(
        self,
        sources: Sequence[StreamSource],
        warmup_events: int,
        sample_state_every: int,
    ) -> RunStats:
        """The reference interpreter loop (the seed engine's ``run``)."""
        events = merge_sources(sources)
        if warmup_events:
            consumed = 0
            for channel, channel_tuple in events:
                self._dispatch(channel, channel_tuple, stats=None)
                consumed += channel_tuple.membership.bit_count()
                if consumed >= warmup_events:
                    break
        stats = RunStats()
        since_sample = 0
        dispatch = (
            self._dispatch_observed if self.observer is not None else self._dispatch
        )
        started = time.perf_counter()
        for channel, channel_tuple in events:
            stats.input_events += channel_tuple.membership.bit_count()
            stats.physical_input_events += 1
            dispatch(channel, channel_tuple, stats)
            if sample_state_every:
                since_sample += 1
                if since_sample >= sample_state_every:
                    since_sample = 0
                    stats.peak_state = max(stats.peak_state, self.state_size)
        stats.elapsed_seconds = time.perf_counter() - started
        if sample_state_every:
            stats.peak_state = max(stats.peak_state, self.state_size)
        if self.observer is not None:
            self.observer.sample_state_now(self)
        return stats

    def process(self, channel: Channel, channel_tuple: ChannelTuple) -> RunStats:
        """Process a single source event (streaming / incremental use)."""
        stats = RunStats()
        stats.input_events = channel_tuple.membership.bit_count()
        stats.physical_input_events = 1
        observer = self.observer
        started = time.perf_counter()
        if observer is not None:
            observer.maybe_sample_state(self)
            self._dispatch_observed(channel, channel_tuple, stats)
        else:
            self._dispatch(channel, channel_tuple, stats)
        stats.elapsed_seconds = time.perf_counter() - started
        return stats

    def process_batch(
        self, channel: Channel, batch: Sequence[ChannelTuple]
    ) -> RunStats:
        """Process a run of source events arriving on one channel.

        The batch is dispatched through the vectorized path when the entry
        channel passes the diamond test (and batching is enabled), falling
        back to per-tuple dispatch otherwise — outputs are identical either
        way.  Caller-supplied runs are re-chunked to ``max_batch``, bounding
        the intermediate per-channel buffers exactly like ``run`` does.
        Plan rewrites + migration may happen between calls: a batch
        boundary is the engine's migration-safe point.
        """
        stats = RunStats()
        batch = list(batch)
        if not batch:
            return stats
        started = time.perf_counter()
        if self.batching:
            max_batch = self.max_batch
            if len(batch) <= max_batch:
                self._run_batch(channel, batch, stats)
            else:
                for start in range(0, len(batch), max_batch):
                    self._run_batch(
                        channel, batch[start : start + max_batch], stats
                    )
        else:
            dispatch = (
                self._dispatch_observed
                if self.observer is not None
                else self._dispatch
            )
            for channel_tuple in batch:
                stats.input_events += channel_tuple.membership.bit_count()
                stats.physical_input_events += 1
                dispatch(channel, channel_tuple, stats)
        stats.elapsed_seconds = time.perf_counter() - started
        return stats

    def process_columns(self, channel: Channel, batch) -> RunStats:
        """Process a packed columnar run (:class:`~repro.streams.columns.
        ColumnBatch`) arriving on one channel.

        The vectorized entry runs when batching is on, the channel passes
        the diamond test, no observer is attached, the entry channel has no
        sink, and **every** consumer accepts this batch's column layout
        (``can_process_columns``).  Consumers probe the packed columns
        directly and emit ordinary row buckets, which continue through the
        standard batched BFS — rows materialize only for the hit set.
        Anywhere outside that envelope the batch materializes once and
        takes the row path; outputs are identical either way.
        """
        if not batch.count:
            return RunStats()
        pairs = None
        if self.batching and self.observer is None and self.channel_batchable(
            channel.channel_id
        ):
            entry = self._channel_table.get(channel.channel_id)
            if entry is not None and entry[0] is None:
                pairs = self._columnar_table.get(channel.channel_id)
                if pairs is not None:
                    for can, __ in pairs:
                        if not can(channel, batch):
                            pairs = None
                            break
        if pairs is None:
            return self.process_batch(channel, batch.channel_tuples())
        stats = RunStats()
        started = time.perf_counter()
        table = self._channel_table
        max_batch = self.max_batch
        count = batch.count
        queue: deque = deque()
        for start in range(0, count, max_batch):
            if count <= max_batch:
                chunk = batch
            else:
                chunk = batch.slice(start, min(start + max_batch, count))
            stats.input_events += chunk.logical_events()
            stats.physical_input_events += chunk.count
            stats.physical_events += chunk.count
            for __, method in pairs:
                queue.extend(method(channel, chunk))
            while queue:
                current_channel, tuples = queue.popleft()
                stats.physical_events += len(tuples)
                entry = table.get(current_channel.channel_id)
                if entry is None:
                    continue
                handler, batch_methods = entry
                if handler is not None:
                    handler(tuples, stats, started)
                for method in batch_methods:
                    queue.extend(method(current_channel, tuples))
        stats.elapsed_seconds = time.perf_counter() - started
        return stats

    # -- internals -----------------------------------------------------------------

    def _dispatch(
        self,
        channel: Channel,
        channel_tuple: ChannelTuple,
        stats: Optional[RunStats],
    ) -> None:
        queue: deque[tuple[Channel, ChannelTuple]] = deque()
        queue.append((channel, channel_tuple))
        routing = self._routing
        sink_table = self._sink_table
        track_latency = self.track_latency and stats is not None
        event_started = time.perf_counter() if track_latency else 0.0
        while queue:
            current_channel, current_tuple = queue.popleft()
            if stats is not None:
                stats.physical_events += 1
                sinks = sink_table.get(current_channel.channel_id)
                if sinks:
                    membership = current_tuple.membership
                    latency = (
                        time.perf_counter() - event_started
                        if track_latency
                        else 0.0
                    )
                    for bit, query_ids in sinks:
                        if membership & bit:
                            for query_id in query_ids:
                                stats.output_events += 1
                                stats.outputs_by_query[query_id] = (
                                    stats.outputs_by_query.get(query_id, 0) + 1
                                )
                                if track_latency:
                                    stats.record_output_latency(
                                        query_id, latency
                                    )
                                if self.capture_outputs:
                                    self.captured.setdefault(query_id, []).append(
                                        current_tuple.tuple
                                    )
            consumers = routing.get(current_channel.channel_id)
            if not consumers:
                continue
            for executor in consumers:
                queue.extend(executor.process(current_channel, current_tuple))

    def _dispatch_batch(
        self,
        channel: Channel,
        batch: list[ChannelTuple],
        stats: RunStats,
    ) -> None:
        """Vectorized BFS: one queue entry per (channel, run) batch.

        Routing, sinks and the stats/latency/capture branches all live in
        the prebuilt ``_channel_table`` — the loop does one dict lookup per
        popped batch and calls prebound methods.
        """
        table = self._channel_table
        queue: deque[tuple[Channel, list[ChannelTuple]]] = deque()
        queue.append((channel, batch))
        started = time.perf_counter() if self.track_latency else 0.0
        while queue:
            current_channel, tuples = queue.popleft()
            stats.physical_events += len(tuples)
            entry = table.get(current_channel.channel_id)
            if entry is None:
                continue
            handler, batch_methods = entry
            if handler is not None:
                handler(tuples, stats, started)
            for method in batch_methods:
                queue.extend(method(current_channel, tuples))

    def _dispatch_observed(
        self,
        channel: Channel,
        channel_tuple: ChannelTuple,
        stats: Optional[RunStats],
    ) -> None:
        """Per-tuple BFS with per-m-op accounting (``_dispatch`` + records).

        Sink/stats handling is identical to the unobserved interpreter —
        only the consumer loop changes: each executor call bumps its
        record's fallback counters and every ``sample_every``-th call of
        that record is timed.
        """
        queue: deque[tuple[Channel, ChannelTuple]] = deque()
        queue.append((channel, channel_tuple))
        routing = self._observed_routing
        sink_table = self._sink_table
        sample_every = self.observer.sample_every
        track_latency = self.track_latency and stats is not None
        event_started = time.perf_counter() if track_latency else 0.0
        while queue:
            current_channel, current_tuple = queue.popleft()
            if stats is not None:
                stats.physical_events += 1
                sinks = sink_table.get(current_channel.channel_id)
                if sinks:
                    membership = current_tuple.membership
                    latency = (
                        time.perf_counter() - event_started
                        if track_latency
                        else 0.0
                    )
                    for bit, query_ids in sinks:
                        if membership & bit:
                            for query_id in query_ids:
                                stats.output_events += 1
                                stats.outputs_by_query[query_id] = (
                                    stats.outputs_by_query.get(query_id, 0) + 1
                                )
                                if track_latency:
                                    stats.record_output_latency(
                                        query_id, latency
                                    )
                                if self.capture_outputs:
                                    self.captured.setdefault(query_id, []).append(
                                        current_tuple.tuple
                                    )
            consumers = routing.get(current_channel.channel_id)
            if not consumers:
                continue
            for executor, record in consumers:
                record.per_tuple_calls += 1
                record.tuples_in += 1
                if (record.batches + record.per_tuple_calls) % sample_every:
                    outputs = executor.process(current_channel, current_tuple)
                else:
                    sampled_at = time.perf_counter()
                    outputs = executor.process(current_channel, current_tuple)
                    record.sampled_seconds += (
                        time.perf_counter() - sampled_at
                    )
                    record.sampled_calls += 1
                record.tuples_out += len(outputs)
                queue.extend(outputs)

    def _dispatch_batch_observed(
        self,
        channel: Channel,
        batch: list[ChannelTuple],
        stats: RunStats,
    ) -> None:
        """Vectorized BFS with per-m-op accounting (``_dispatch_batch`` over
        the observed shadow table)."""
        table = self._observed_channel_table
        sample_every = self.observer.sample_every
        queue: deque[tuple[Channel, list[ChannelTuple]]] = deque()
        queue.append((channel, batch))
        started = time.perf_counter() if self.track_latency else 0.0
        while queue:
            current_channel, tuples = queue.popleft()
            stats.physical_events += len(tuples)
            entry = table.get(current_channel.channel_id)
            if entry is None:
                continue
            handler, pairs = entry
            if handler is not None:
                handler(tuples, stats, started)
            for method, record in pairs:
                record.batches += 1
                record.tuples_in += len(tuples)
                if (record.batches + record.per_tuple_calls) % sample_every:
                    outputs = method(current_channel, tuples)
                else:
                    sampled_at = time.perf_counter()
                    outputs = method(current_channel, tuples)
                    record.sampled_seconds += (
                        time.perf_counter() - sampled_at
                    )
                    record.sampled_calls += 1
                for __, out_batch in outputs:
                    record.tuples_out += len(out_batch)
                queue.extend(outputs)

    def mop_stats(self) -> dict[int, dict]:
        """Per-m-op telemetry records (empty when not observing)."""
        observer = self.observer
        return observer.mop_stats() if observer is not None else {}

    @property
    def state_size(self) -> int:
        """Total operator state held across all (stateful) executors.

        Stateless executors are partitioned out at table-rebuild time, so
        per-sample cost scales with the number of stateful m-ops, not the
        plan size.
        """
        return sum(executor.state_size for executor in self._stateful_executors)
