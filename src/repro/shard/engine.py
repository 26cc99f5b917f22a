"""The sharded execution engine: one batched engine per plan component group.

:class:`ShardedEngine` partitions a (typically optimized) plan with
:class:`~repro.shard.planner.ShardPlanner` and runs one batched
:class:`~repro.engine.executor.StreamEngine` per shard.  Shards are unions of
plan components, which share no m-ops and no channels (bar the bridge
channels the planner cuts and relays): feeding each component exactly the
source events on its own entry channels reproduces the single-engine
outputs byte-for-byte, per query.

One drain core.  Every run is a **fragment schedule**
(:func:`~repro.shard.relay.build_fragment_schedule`): one descriptor per
component, in topological order, executed by :func:`_execute_fragments` —
inline, or on worker processes each hosting some of the shards.  A plan
without bridge cuts is simply the schedule with zero relay edges.

Two execution modes:

- **process** — ``multiprocessing`` workers (at most one per CPU, each
  hosting one or more shard engines), using the ``fork`` start method so
  workers inherit their sub-plan, engine, schedule and sources without
  pickling a single plan object; only results (RunStats and captured
  outputs) cross back.  Chosen automatically when the platform supports
  ``fork`` and has more than one CPU.
- **inline** — shards run sequentially in the calling process.  The fallback
  for ``n_shards=1``, for tests, and for platforms without ``fork``
  (Windows/macOS-spawn).  On one core it buys nothing over the single
  engine, which merges its sources per component as well.

Two feeds, orthogonal to the mode:

- **local** — each fragment drains its own share of the driver's sources.
  No per-event serialization.  The default.
- **router** — the coordinating process consumes the timestamp-ordered merge
  (per component), packs each run into columns and streams it to the owning
  shard: over raw pipes and shared-memory rings in process mode, straight
  into the decoder inline.  This is the path live feeds use and the one
  that exercises the wire protocol, at the cost of coordinator-side work
  per run.  Fragments without relay edges consume runs as they arrive;
  fragments with relay edges buffer theirs until the stop frame, because
  relay ordering needs the whole upstream feed.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from multiprocessing import connection as mp_connection
import traceback
from typing import Optional, Sequence

import numpy as np

from repro.engine.executor import StreamEngine
from repro.engine.metrics import RunStats
from repro.errors import PlanError
from repro.core.plan import QueryPlan
from repro.shard.planner import ShardPlan, ShardPlanner
from repro.shard.relay import (
    BufferedRunSource,
    RelayInbox,
    RelayOutbox,
    StreamingRelaySource,
    build_fragment_schedule,
    decode_local_frames,
    deduct_relay_inputs,
)
from repro.shard.ring import RingBuffer
from repro.shard.stats import ShardedRunStats
from repro.shard.wire import (
    RING,
    STOP,
    STOP_FRAME,
    RelayCodec,
    WireDecoder,
    WireEncoder,
    pack_run_record,
)
from repro.streams.columns import ColumnBatch
from repro.streams.sources import StreamSource, group_sources, merge_source_runs


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


class SourceRouter:
    """Routes sources (and runs) to the shard owning their entry channel.

    The routing table is a channel-id hash: ``channel_shard`` from the
    shard plan, with a stable modulo fallback for channels no m-op consumes
    (their events still need a home so input accounting matches the single
    engine, which counts them too).
    """

    def __init__(self, channel_shard: dict[int, int], n_shards: int):
        if n_shards < 1:
            raise PlanError(f"n_shards must be at least 1, got {n_shards}")
        self.channel_shard = dict(channel_shard)
        self.n_shards = n_shards

    def shard_of_channel(self, channel_id: int) -> int:
        shard = self.channel_shard.get(channel_id)
        if shard is None:
            shard = channel_id % self.n_shards
        return shard

    def split_sources(
        self, sources: Sequence[StreamSource]
    ) -> list[list[StreamSource]]:
        """Partition sources by their channel's owning shard."""
        split: list[list[StreamSource]] = [[] for __ in range(self.n_shards)]
        for source in sources:
            split[self.shard_of_channel(source.channel.channel_id)].append(source)
        return split


def _count_source_events(source: StreamSource) -> RunStats:
    """Input accounting for a source nothing consumes (no outputs possible):
    what the single engine counts when it dispatches such events."""
    stats = RunStats()
    for __channel, channel_tuple in source:
        stats.input_events += channel_tuple.membership.bit_count()
        stats.physical_input_events += 1
        stats.physical_events += 1
    return stats


def _await_ready(ready) -> None:
    """Join the spawn barrier; a broken barrier only degrades *timing*
    (spawn cost leaks into the measured wall), never correctness."""
    if ready is None:
        return
    try:
        ready.wait(timeout=30.0)
    except (threading.BrokenBarrierError, ValueError):
        pass


def _warm_numeric_kernels() -> None:
    """Touch the vectorized kernels a forked worker's drain path uses.

    First use of ``np.isin``/``np.frombuffer`` in a fresh child pays
    one-time dispatch/setup cost (milliseconds — comparable to a whole
    shard's drain on bench workloads); doing it before the ready barrier
    books that cost where it belongs, in ``spawn_seconds``.
    """
    probe = np.arange(8, dtype=np.int64)
    np.isin(probe, probe[:2])
    np.frombuffer(probe.tobytes(), dtype=np.int64)


def _send_frame(sender, frame) -> None:
    """Best-effort frame delivery to one worker's feed pipe.

    A worker that died mid-run closes its receive end; its failure is
    reported through the result pipe (or its exitcode), so the coordinator
    just stops feeding it rather than raising out of the pump.
    """
    try:
        sender.send(frame)
    except (BrokenPipeError, OSError):
        pass


class _RoutedRuns:
    """Where router-fed runs land on one host (a worker, or the inline loop).

    Runs for a fragment with relay edges buffer per fragment, in feed
    order, for :func:`_execute_fragments`; every other run dispatches
    straight into the engine owning its channel.
    """

    def __init__(self, descriptors, engine_of_shard, per_shard_stats):
        #: The hosted fragments that wait for the stop frame, rank order.
        self.relayed = [
            descriptor
            for descriptor in descriptors
            if descriptor["in_edges"] or descriptor["out_edges"]
        ]
        #: component -> buffered ``(channel, batch)`` runs.
        self.buffered = {
            descriptor["component"]: [] for descriptor in self.relayed
        }
        self._buffer_of = {
            channel_id: self.buffered[descriptor["component"]]
            for descriptor in self.relayed
            for channel_id in descriptor["entry_channels"]
        }
        #: Every channel a decoder on this host must know.
        self.channels: list = []
        self._target_of: dict = {}
        for shard, engine in engine_of_shard.items():
            for channel in engine.plan.channels():
                self.channels.append(channel)
                self._target_of[channel.channel_id] = (
                    engine, per_shard_stats[shard]
                )

    def accept(self, channel, batch) -> None:
        buffer = self._buffer_of.get(channel.channel_id)
        if buffer is not None:
            buffer.append((channel, batch))
            return
        engine, stats = self._target_of[channel.channel_id]
        if type(batch) is ColumnBatch:
            stats.absorb(engine.process_columns(channel, batch))
        else:
            stats.absorb(engine.process_batch(channel, batch))


def _execute_fragments(
    descriptors,
    engine_of_shard,
    slot_of_shard,
    slot_index,
    relay_queues,
    buffered,
    per_shard_stats,
) -> None:
    """Run fragments of the schedule in global topological order.

    The drain core of every mode and feed.  ``descriptors`` are the
    caller's fragments to run, in ascending global rank: executing them in
    that order guarantees a fragment only ever waits on relay frames from a
    strictly lower-rank fragment, which some worker is already draining
    (deadlock-freedom by rank induction).

    Relay edges route three ways:

    - producer and consumer hosted by the same caller — frames buffer in a
      plain list and replay through a :class:`BufferedRunSource`;
    - producer elsewhere — a :class:`StreamingRelaySource` pulls frames
      live off this caller's relay queue (``relay_queues[slot_index]``);
    - consumer elsewhere — the engine's relay tap ships frames straight to
      the consumer slot's queue mid-dispatch.

    ``buffered`` is ``None`` for the local feed (each fragment drains its
    own driver sources, merge-ordered by ``source_order``) or a
    ``component -> [(channel, batch), ...]`` map for router-fed runs that
    already crossed the wire (merged order, ``entry_order``).

    Relayed tuples are deducted from the consuming fragment's stats
    (:func:`deduct_relay_inputs`), so ``per_shard_stats`` aggregates to
    exactly the single-engine accounting.
    """
    stream_codecs: dict[int, RelayCodec] = {
        edge.edge_id: RelayCodec(edge.edge_id, edge.channel)
        for descriptor in descriptors
        for edge in descriptor["in_edges"]
        if slot_of_shard[edge.from_shard] != slot_index
    }
    inbox = (
        RelayInbox(relay_queues[slot_index], stream_codecs)
        if stream_codecs
        else None
    )
    local_frames: dict[int, list] = {}
    for descriptor in descriptors:
        engine = engine_of_shard[descriptor["shard"]]
        edge_of = {edge.edge_id: edge for edge in descriptor["in_edges"]}
        order = (
            descriptor["source_order"]
            if buffered is None
            else descriptor["entry_order"]
        )
        run_sources: list = []
        relay_sources: list = []
        for kind, ref in order:
            if kind == "source":
                run_sources.append(descriptor["local_sources"][ref])
            elif kind == "local":
                run_sources.append(
                    BufferedRunSource(buffered[descriptor["component"]])
                )
            else:
                edge = edge_of[ref]
                if edge.edge_id in stream_codecs:
                    source = StreamingRelaySource(
                        edge.channel, edge.edge_id, inbox
                    )
                else:
                    source = BufferedRunSource(
                        decode_local_frames(
                            local_frames.pop(edge.edge_id),
                            RelayCodec(edge.edge_id, edge.channel),
                        ),
                        channel=edge.channel,
                    )
                run_sources.append(source)
                relay_sources.append(source)
        outboxes = []
        for edge in descriptor["out_edges"]:
            target_slot = slot_of_shard[edge.to_shard]
            sink = (
                local_frames.setdefault(edge.edge_id, [])
                if target_slot == slot_index
                else relay_queues[target_slot]
            )
            outbox = RelayOutbox(edge.edge_id, edge.channel, sink)
            engine.install_relay_tap(edge.channel, on_run=outbox.ship)
            outboxes.append((edge, outbox))
        stats = engine.run(run_sources) if run_sources else RunStats()
        for source in relay_sources:
            deduct_relay_inputs(stats, source.delivered)
        per_shard_stats[descriptor["shard"]].absorb(stats)
        for edge, outbox in outboxes:
            outbox.finish()
            engine.remove_relay_tap(edge.channel.channel_id)


def _drain_worker(
    shards,
    engine_of_shard,
    schedule,
    slot_of_shard,
    slot_index,
    relay_queues,
    frames,
    ring,
    results,
    ready=None,
) -> None:
    """Worker body: drain the hosted shards' fragments, report once.

    ``frames`` is ``None`` for the local feed.  For the router feed it is
    the receive end of this worker's feed pipe: frames decode until the
    stop frame — ``ring`` markers announce one packed record in the
    worker's shared-memory ring (the marker's pipe position is the ordering
    edge, so ring records interleave exactly with pipe frames) — and the
    relay fragments run after it.  The coordinator broadcasts stop before
    any worker starts its relay fragments, so cross-worker relay waits are
    safe.  Every hosted shard's result travels in a single message.
    """
    try:
        per_shard_stats = {shard: RunStats() for shard in shards}
        hosted = [
            descriptor
            for descriptor in schedule
            if descriptor["shard"] in per_shard_stats
        ]
        buffered = None
        if frames is not None:
            routed = _RoutedRuns(hosted, engine_of_shard, per_shard_stats)
            decoder = WireDecoder(routed.channels)
            hosted, buffered = routed.relayed, routed.buffered
        _warm_numeric_kernels()
        _await_ready(ready)
        while frames is not None:
            frame = frames.recv()
            kind = frame[0]
            if kind == STOP:
                break
            if kind == RING:
                routed.accept(*decoder.decode_ring(ring.read(frame[1])))
                continue
            decoded = decoder.decode(frame)
            if decoded is not None:
                routed.accept(*decoded)
        _execute_fragments(
            hosted, engine_of_shard, slot_of_shard, slot_index,
            relay_queues, buffered, per_shard_stats,
        )
        payload = [
            (
                shard,
                per_shard_stats[shard],
                engine_of_shard[shard].captured,
                engine_of_shard[shard].mop_stats(),
            )
            for shard in shards
        ]
        results.send(("ok", payload))
    except BaseException:  # noqa: BLE001 - must cross the process boundary
        results.send(("error", traceback.format_exc()))


class ShardedEngine:
    """Executes one plan as ``n_shards`` independent batched engines."""

    def __init__(
        self,
        plan: QueryPlan,
        n_shards: int,
        parallel: object = "auto",
        feed: str = "auto",
        capture_outputs: bool = False,
        batching: bool = True,
        max_batch: int = 1024,
        planner: Optional[ShardPlanner] = None,
        observe: bool = False,
        data_plane: str = "columnar",
        split: bool = True,
        worker_cap: Optional[int] = None,
    ):
        if feed not in ("auto", "local", "router"):
            raise PlanError(f"unknown feed strategy {feed!r}")
        if parallel not in ("auto", True, False):
            raise PlanError(f"parallel must be 'auto', True or False")
        # Accepted for existing call sites; columns are the only data plane
        # (runs that cannot pack fall back to the pickle wire per run).
        if data_plane != "columnar":
            raise PlanError(
                f"data_plane must be 'columnar' (the only data plane), "
                f"got {data_plane!r}"
            )
        #: ``split=False`` forces whole-component placement (the pre-relay
        #: behavior); the bench uses it as the unsplit baseline.
        self.shard_plan: ShardPlan = (planner or ShardPlanner()).partition(
            plan, n_shards, split=split
        )
        self.n_shards = n_shards
        self.parallel = parallel
        self.feed = feed
        self.capture_outputs = capture_outputs
        self.max_batch = max_batch
        self.observe = bool(observe)
        #: Test hook: cap (or raise, on a small machine) the worker count
        #: independently of ``os.cpu_count()`` so multi-worker relay
        #: exchange is exercisable on a 1-CPU host.
        self.worker_cap = worker_cap
        self.engines = [
            StreamEngine(
                subplan,
                capture_outputs=capture_outputs,
                batching=batching,
                max_batch=max_batch,
                observe=observe,
            )
            for subplan in self.shard_plan.subplans
        ]
        self.router = SourceRouter(self.shard_plan.channel_shard, n_shards)
        #: query_id -> captured outputs, merged across shards after a run.
        self.captured: dict = {}
        #: shard index -> per-m-op telemetry from the last run (process-mode
        #: workers run on forked engine copies, so their records are shipped
        #: back with the results rather than read off ``self.engines``).
        self.shard_mop_stats: list[dict] = [
            {} for __ in self.shard_plan.subplans
        ]

    # -- mode/feed resolution --------------------------------------------------------

    def _resolve_mode(self) -> str:
        if self.parallel is False or self.n_shards == 1:
            return "inline"
        if self.parallel is True:
            if not fork_available():
                return "inline"  # same-process fallback (Windows/spawn)
            return "process"
        return (
            "process"
            if fork_available() and multiprocessing.cpu_count() > 1
            else "inline"
        )

    def _resolve_feed(self) -> str:
        return "local" if self.feed in ("auto", "local") else "router"

    # -- running ---------------------------------------------------------------------

    def run(self, sources: Sequence[StreamSource]) -> ShardedRunStats:
        """Drain ``sources`` through the shards; returns merged statistics.

        Source events are routed by entry channel — each component sees
        exactly the (timestamp-ordered) subsequence on its own channels, so
        per-query outputs are byte-identical to the single-engine run over
        the same sources.
        """
        mode = self._resolve_mode()
        feed = self._resolve_feed()
        started = time.perf_counter()
        schedule, leftover = build_fragment_schedule(self.shard_plan, sources)
        spawn = 0.0
        if mode == "process":
            # Worker lifecycle (fork + ready handshake before, join +
            # child interpreter teardown after) is excluded from the wall:
            # wall_seconds measures the drain a steady-state serve — whose
            # workers persist across runs — would see.  The drain ends when
            # the coordinator holds every shard's result.
            per_shard, captured, spawn, drained = self._run_process(
                sources, schedule, feed
            )
            wall = drained - started - spawn
        else:
            per_shard, captured = self._run_inline(sources, schedule, feed)
            wall = time.perf_counter() - started
        # Events on channels no component reads cannot produce outputs, but
        # the single engine counts them: account them on their home shard.
        for source in leftover:
            shard = self.router.shard_of_channel(source.channel.channel_id)
            per_shard[shard].absorb(_count_source_events(source))
        self.captured = captured
        return ShardedRunStats(
            per_shard=per_shard, wall_seconds=wall, mode=mode,
            spawn_seconds=spawn,
        )

    def _routed_frames(self, sources, rings=None, slot_of_shard=None):
        """Yield ``(shard, frame)`` for the merged run stream of ``sources``.

        Sources merge per plan component (components share no state, so
        only sources feeding the same one need tuple-level interleaving,
        and a single-source component ships full-length runs); sources on
        channels no component reads are skipped.  ``shard`` is ``None`` for
        schema frames, which every host's decoder needs.  Each run packs
        once into columns — a ``crun`` frame, or, given the workers'
        ``rings``, a record in the owning worker's ring announced by a
        ``ring`` marker (the ``crun`` frame stays the full-ring fallback).
        A run that cannot pack (mixed schema objects, an oversized mask)
        ships as the pickle ``run`` frame.
        """
        component_of = {
            channel_id: component.index
            for component in self.shard_plan.components
            for channel_id in component.entry_channel_ids
        }
        routable = [
            source
            for source in sources
            if source.channel.channel_id in component_of
        ]
        encoder = WireEncoder()
        for group in group_sources(routable, component_of):
            for channel, batch in merge_source_runs(group, self.max_batch):
                shard = self.router.shard_of_channel(channel.channel_id)
                packed = (
                    batch
                    if type(batch) is ColumnBatch
                    else ColumnBatch.from_channel_tuples(batch)
                )
                if packed is None:
                    *schemas, run = encoder.encode_run(channel, batch)
                else:
                    *schemas, run = encoder.encode_run_columns(channel, packed)
                    if rings is not None:
                        parts, total = pack_run_record(
                            channel.channel_id, run[2], packed
                        )
                        if rings[slot_of_shard[shard]].try_write(parts, total):
                            run = (RING, total)
                for frame in schemas:
                    yield None, frame
                yield shard, run

    # -- inline ----------------------------------------------------------------------

    def _run_inline(self, sources, schedule, feed):
        """Every fragment in this process, as one worker hosting all shards.

        The router feed still round-trips every run through the wire
        encoder and decoder, and relay edges through the
        :class:`~repro.shard.wire.RelayCodec`, byte-for-byte.
        """
        engine_of_shard = dict(enumerate(self.engines))
        per_shard_stats = {shard: RunStats() for shard in engine_of_shard}
        buffered = None
        if feed == "router":
            routed = _RoutedRuns(schedule, engine_of_shard, per_shard_stats)
            decoder = WireDecoder(routed.channels)
            for __, frame in self._routed_frames(sources):
                decoded = decoder.decode(frame)
                if decoded is not None:
                    routed.accept(*decoded)
            schedule, buffered = routed.relayed, routed.buffered
        _execute_fragments(
            schedule, engine_of_shard, dict.fromkeys(engine_of_shard, 0), 0,
            [None], buffered, per_shard_stats,
        )
        captured = {}
        for engine in self.engines:
            captured.update(engine.captured)
        self.shard_mop_stats = [engine.mop_stats() for engine in self.engines]
        return [per_shard_stats[shard] for shard in engine_of_shard], captured

    # -- process workers -------------------------------------------------------------

    def _worker_slots(self) -> list[list[int]]:
        """Group shard indexes into worker processes, at most one per CPU.

        Forking more workers than cores buys no parallelism — the extras
        just evict each other's caches and serialize through the scheduler
        — so a 1-CPU host gets a single worker hosting every shard engine
        (the process plane — wire, rings, result pipes — is exercised
        identically) and an N-CPU host gets ``min(shards, N)`` workers,
        shards distributed round-robin.
        """
        cpus = self.worker_cap or os.cpu_count() or 1
        slot_count = min(len(self.engines), max(1, cpus))
        slots: list[list[int]] = [[] for __ in range(slot_count)]
        for shard in range(len(self.engines)):
            slots[shard % slot_count].append(shard)
        return slots

    def _run_process(self, sources, schedule, feed):
        """Fork the worker slots, feed them (router), collect the results.

        Results and router frames travel over raw pipes: unlike
        ``mp.Queue`` there is no feeder thread, so a send lands in the
        kernel buffer immediately (workers start draining while the pump
        is still running), result latency is one context switch, and a dead
        worker surfaces as EOF on its pipe instead of a silent hang.  Relay
        frames use one ``mp.Queue`` per slot, allocated only when the plan
        has relay edges: an upstream fragment's tap ships frames to its
        consumer slot's queue mid-dispatch.
        """
        context = multiprocessing.get_context("fork")
        slots = self._worker_slots()
        slot_of_shard = {
            shard: slot_index
            for slot_index, slot in enumerate(slots)
            for shard in slot
        }
        # Queues and rings are allocated before the fork so every worker
        # inherits them — any fragment can ship to any slot.
        relay_queues = (
            [context.Queue() for __ in slots] if self.shard_plan.relays else None
        )
        result_connections: list = []
        feed_senders: list = []
        rings: list = []
        workers: list = []
        # Ready handshake: every worker joins the barrier once it is forked
        # and imported, the coordinator joins last — the time to that point
        # is startup, everything after is drain.
        ready = context.Barrier(len(slots) + 1)
        spawn_started = time.perf_counter()
        for slot_index, slot in enumerate(slots):
            frame_receiver = ring = None
            if feed == "router":
                frame_receiver, frame_sender = context.Pipe(duplex=False)
                feed_senders.append(frame_sender)
                ring = RingBuffer()
                rings.append(ring)
            receiver, sender = context.Pipe(duplex=False)
            result_connections.append(receiver)
            worker = context.Process(
                target=_drain_worker,
                args=(
                    slot,
                    {shard: self.engines[shard] for shard in slot},
                    schedule,
                    slot_of_shard,
                    slot_index,
                    relay_queues,
                    frame_receiver,
                    ring,
                    sender,
                    ready,
                ),
            )
            worker.start()
            # Drop the coordinator's copies of the worker-side ends so a
            # worker death closes the pipes and wait() sees EOF.
            sender.close()
            if frame_receiver is not None:
                frame_receiver.close()
            workers.append(worker)
        _await_ready(ready)
        spawn = time.perf_counter() - spawn_started
        if feed == "router":
            for shard, frame in self._routed_frames(
                sources, rings, slot_of_shard
            ):
                if shard is None:
                    for sender in feed_senders:
                        _send_frame(sender, frame)
                else:
                    _send_frame(feed_senders[slot_of_shard[shard]], frame)
            for sender in feed_senders:
                _send_frame(sender, STOP_FRAME)
        per_shard, captured, drained = self._collect_worker_results(
            slots, workers, result_connections
        )
        for queue in relay_queues or ():
            queue.close()
        return per_shard, captured, spawn, drained

    def _collect_worker_results(self, slots, workers, result_connections):
        """Drain every worker's single result message; join and validate.

        Returns ``(per_shard, captured, drained_timestamp)``; raises
        :class:`PlanError` if any worker died or reported an error.
        """
        per_shard = [RunStats() for __ in self.engines]
        captured: dict = {}
        failures: list[str] = []
        pending = {
            connection: index
            for index, connection in enumerate(result_connections)
        }
        self.shard_mop_stats = [{} for __ in self.engines]
        while pending:
            done = mp_connection.wait(list(pending), timeout=1.0)
            if not done:
                # Forked siblings inherit earlier workers' send ends, which
                # can hold a dead worker's pipe open past its exit — fall
                # back to exitcode polling so a kill never hangs us here.
                for connection, index in list(pending.items()):
                    if workers[index].exitcode is not None:
                        del pending[connection]
                        failures.append(
                            f"worker for shards {slots[index]}: exited "
                            f"with code {workers[index].exitcode} without "
                            f"reporting a result"
                        )
                continue
            for connection in done:
                index = pending.pop(connection)
                try:
                    status, payload = connection.recv()
                except EOFError:
                    failures.append(
                        f"worker for shards {slots[index]}: closed its "
                        f"result pipe without reporting a result"
                    )
                    continue
                if status != "ok":
                    failures.append(
                        f"worker for shards {slots[index]}:\n{payload}"
                    )
                    continue
                for shard, stats, shard_captured, shard_mops in payload:
                    per_shard[shard] = stats
                    if shard_captured:
                        captured.update(shard_captured)
                    if shard_mops:
                        self.shard_mop_stats[shard] = shard_mops
        drained = time.perf_counter()
        for worker in workers:
            worker.join()
        for connection in result_connections:
            connection.close()
        if failures:
            raise PlanError(
                "sharded run failed in worker(s):\n" + "\n".join(failures)
            )
        return per_shard, captured, drained

    # -- introspection ---------------------------------------------------------------

    @property
    def state_size(self) -> int:
        return sum(engine.state_size for engine in self.engines)

    def mop_stats(self) -> dict[int, dict]:
        """Per-m-op telemetry merged across shards from the last run (shards
        share no m-ops, so the merge is a disjoint union)."""
        merged: dict[int, dict] = {}
        for shard_mops in self.shard_mop_stats:
            merged.update(shard_mops)
        return merged

    def describe(self) -> str:
        lines = [
            f"ShardedEngine: {self.n_shards} shards "
            f"({self.shard_plan.effective_shards} active)",
            self.shard_plan.describe(),
        ]
        return "\n".join(lines)
