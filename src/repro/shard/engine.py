"""The sharded execution engine: one batched engine per plan component group.

:class:`ShardedEngine` partitions a (typically optimized) plan with
:class:`~repro.shard.planner.ShardPlanner` and runs one batched
:class:`~repro.engine.executor.StreamEngine` per shard.  Because shards are
unions of entry-channel connected components, the engines share no m-ops and
no channels: feeding each shard exactly the source events on its own entry
channels reproduces the single-engine outputs byte-for-byte, per query.

Two execution modes:

- **process** — ``multiprocessing`` workers (at most one per CPU, each
  hosting one or more shard engines), using the ``fork`` start method so
  workers inherit their sub-plan, engine and sources without pickling a
  single plan object; only results (RunStats and captured outputs) cross
  back.  Chosen automatically when the platform supports ``fork`` and has
  more than one CPU.
- **inline** — shards run sequentially in the calling process.  The fallback
  for ``n_shards=1``, for tests, and for platforms without ``fork``
  (Windows/macOS-spawn).  On one core it buys nothing over the single
  engine, which merges its sources per component as well.

Two feed strategies, orthogonal to the mode:

- **local** — the :class:`SourceRouter` splits the source list by entry
  channel up front; each shard iterates its own sources.  No per-event
  serialization.  The default whenever sources are statically routable
  (with entry-channel components they always are).
- **router** — the coordinating process consumes the timestamp-ordered merge
  (per component), encodes each run with the :mod:`~repro.shard.wire` format
  and streams it to the owning shard (via queues in process mode).  This is
  the path live feeds use and the one that exercises the wire protocol, at
  the cost of coordinator-side work per run.
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
    SCHEMA,
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

    def split_routable(
        self, sources: Sequence[StreamSource]
    ) -> tuple[list[StreamSource], list[StreamSource]]:
        """Split into (consumed-channel sources, unconsumed-channel sources).

        The wire feed only ships runs for channels some shard's decoder
        knows; events on channels no m-op consumes cannot produce outputs,
        but the single engine still *counts* them, so the caller must count
        the second list locally to keep aggregate accounting identical.
        """
        routable: list[StreamSource] = []
        unrouted: list[StreamSource] = []
        for source in sources:
            if source.channel.channel_id in self.channel_shard:
                routable.append(source)
            else:
                unrouted.append(source)
        return routable, unrouted

    def feed_frames(
        self, sources: Sequence[StreamSource], max_batch: int,
        columnar: bool = False, encoder: Optional[WireEncoder] = None,
    ):
        """Yield ``(shard, frame)`` pairs for the merged run stream.

        Schema frames are replicated to every shard (interning state is
        per-encoder, shared across shards; a shard may receive a schema
        frame it never uses — harmless).  Run frames go only to the owning
        shard.

        ``columnar`` packs each run into a ``crun`` frame when its rows
        share one schema (columnar-native runs pass through untouched);
        unpackable runs fall back to the pickle ``run`` frame, so the two
        planes interleave freely on one feed.  Callers feeding several
        source groups through one wire pass a shared ``encoder`` so schema
        tokens stay unique across the calls.
        """
        if encoder is None:
            encoder = WireEncoder()
        for channel, batch in merge_source_runs(sources, max_batch):
            shard = self.shard_of_channel(channel.channel_id)
            if columnar:
                packed = (
                    batch
                    if type(batch) is ColumnBatch
                    else ColumnBatch.from_channel_tuples(batch)
                )
                frames = (
                    encoder.encode_run_columns(channel, packed)
                    if packed is not None
                    else encoder.encode_run(channel, batch)
                )
            else:
                if type(batch) is ColumnBatch:
                    batch = batch.channel_tuples()
                frames = encoder.encode_run(channel, batch)
            for frame in frames:
                if frame[0] == SCHEMA:
                    for index in range(self.n_shards):
                        yield index, frame
                else:
                    yield shard, frame


def _count_source_events(source: StreamSource) -> RunStats:
    """Input accounting for a source nothing consumes (no outputs possible)."""
    stats = RunStats()
    for __channel, channel_tuple in source:
        stats.input_events += channel_tuple.membership.bit_count()
        stats.physical_input_events += 1
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


def _run_local(
    shards, engines, source_lists, results, ready=None
) -> None:
    """Worker body, local feed: drain each hosted shard's own sources.

    One worker process may host several shard engines (see
    :meth:`ShardedEngine._worker_slots`); it drains them sequentially and
    reports every shard's result in a single message.
    """
    try:
        _warm_numeric_kernels()
        _await_ready(ready)
        payload = []
        for shard, engine, sources in zip(shards, engines, source_lists):
            stats = engine.run(sources)
            payload.append(
                (shard, stats, engine.captured, engine.mop_stats())
            )
        results.send(("ok", payload))
    except BaseException:  # noqa: BLE001 - must cross the process boundary
        results.send(("error", traceback.format_exc()))


def _run_routed(
    shards, engines, frames, results, ready=None, ring=None
) -> None:
    """Worker body, router feed: decode wire frames until the stop frame.

    Frames arrive on a dedicated pipe (``frames`` is the receive end).
    Columnar-plane frames come two ways: ``crun`` frames decode like any
    frame, and ``ring`` markers announce one packed record in the
    shared-memory ring (the marker's pipe position is the ordering edge,
    so ring records interleave exactly with pipe frames).  A worker may
    host several shard engines; each decoded run dispatches to the engine
    owning its entry channel (shards share no channels, so the mapping is
    a disjoint union).
    """
    try:
        channel_engine: dict[int, int] = {}
        channels = []
        for local, engine in enumerate(engines):
            for channel in engine.plan.channels():
                channel_engine[channel.channel_id] = local
                channels.append(channel)
        decoder = WireDecoder(channels)
        stats = [RunStats() for __ in engines]
        _warm_numeric_kernels()
        _await_ready(ready)
        while True:
            frame = frames.recv()
            kind = frame[0]
            if kind == STOP:
                break
            if kind == RING:
                channel, batch = decoder.decode_ring(ring.read(frame[1]))
                local = channel_engine[channel.channel_id]
                stats[local].absorb(
                    engines[local].process_columns(channel, batch)
                )
                continue
            decoded = decoder.decode(frame)
            if decoded is not None:
                channel, batch = decoded
                local = channel_engine[channel.channel_id]
                if type(batch) is ColumnBatch:
                    stats[local].absorb(
                        engines[local].process_columns(channel, batch)
                    )
                else:
                    stats[local].absorb(
                        engines[local].process_batch(channel, batch)
                    )
        payload = [
            (
                shard,
                stats[local],
                engines[local].captured,
                engines[local].mop_stats(),
            )
            for local, shard in enumerate(shards)
        ]
        results.send(("ok", payload))
    except BaseException:  # noqa: BLE001 - must cross the process boundary
        results.send(("error", traceback.format_exc()))


def _execute_fragments(
    schedule,
    hosted,
    engine_of_shard,
    columnar,
    slot_of_shard,
    slot_index,
    relay_queues,
    buffered_locals,
    per_shard_stats,
) -> None:
    """Run the hosted fragments of a split plan in global topological order.

    The shared core of every relay execution path (inline and both
    process-mode worker bodies).  ``hosted`` is the set of shard indexes
    this caller owns; fragments on other shards are skipped — but their
    *rank* still matters: executing hosted fragments in ascending global
    component index guarantees a fragment only ever waits on relay frames
    from a strictly lower-rank fragment, which some worker is already
    draining (deadlock-freedom by rank induction).

    Relay edges route three ways:

    - producer and consumer hosted by the same caller — frames buffer in a
      plain list and replay through a :class:`BufferedRunSource`;
    - producer elsewhere — a :class:`StreamingRelaySource` pulls frames
      live off this caller's relay queue (``relay_queues[slot_index]``);
    - consumer elsewhere — the engine's relay tap ships frames straight to
      the consumer slot's queue mid-dispatch.

    ``buffered_locals`` is ``None`` for local feeds (each fragment drains
    its own driver sources, merge-ordered by ``source_order``) or a
    ``component -> [(channel, batch), ...]`` map for router feeds whose
    runs already crossed the wire (merged order, ``entry_order``).

    Relayed tuples are deducted from the consuming fragment's stats
    (:func:`deduct_relay_inputs`), so ``per_shard_stats`` aggregates to
    exactly the single-engine accounting.
    """
    stream_codecs: dict[int, RelayCodec] = {}
    for descriptor in schedule:
        if descriptor["shard"] not in hosted:
            continue
        for edge in descriptor["in_edges"]:
            if slot_of_shard[edge.from_shard] != slot_index:
                stream_codecs[edge.edge_id] = RelayCodec(
                    edge.edge_id, edge.channel, columnar=columnar
                )
    inbox = (
        RelayInbox(relay_queues[slot_index], stream_codecs)
        if stream_codecs
        else None
    )
    local_frames: dict[int, list] = {}
    for descriptor in schedule:
        if descriptor["shard"] not in hosted:
            continue
        shard = descriptor["shard"]
        engine = engine_of_shard[shard]
        edge_of = {edge.edge_id: edge for edge in descriptor["in_edges"]}
        order = (
            descriptor["source_order"]
            if buffered_locals is None
            else descriptor["entry_order"]
        )
        run_sources: list = []
        relay_sources: list = []
        for kind, ref in order:
            if kind == "source":
                run_sources.append(descriptor["local_sources"][ref])
            elif kind == "local":
                run_sources.append(
                    BufferedRunSource(
                        buffered_locals.get(descriptor["component"], [])
                    )
                )
            else:
                edge = edge_of[ref]
                if edge.edge_id in stream_codecs:
                    source = StreamingRelaySource(
                        edge.channel, edge.edge_id, inbox
                    )
                else:
                    codec = RelayCodec(
                        edge.edge_id, edge.channel, columnar=columnar
                    )
                    source = BufferedRunSource(
                        decode_local_frames(
                            local_frames.pop(edge.edge_id), codec
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
            outbox = RelayOutbox(edge.edge_id, edge.channel, sink, columnar)
            engine.install_relay_tap(edge.channel, on_run=outbox.ship)
            outboxes.append((edge, outbox))
        stats = engine.run(run_sources) if run_sources else RunStats()
        for source in relay_sources:
            deduct_relay_inputs(stats, source.delivered)
        per_shard_stats[shard].absorb(stats)
        for edge, outbox in outboxes:
            outbox.finish()
            engine.remove_relay_tap(edge.channel.channel_id)


def _run_local_fragments(
    shards,
    engine_of_shard,
    schedule,
    slot_of_shard,
    slot_index,
    relay_queues,
    columnar,
    leftover_lists,
    results,
    ready=None,
) -> None:
    """Worker body, local feed over a split plan (relay edges present)."""
    try:
        _warm_numeric_kernels()
        per_shard_stats = {shard: RunStats() for shard in shards}
        _await_ready(ready)
        _execute_fragments(
            schedule, set(shards), engine_of_shard, columnar,
            slot_of_shard, slot_index, relay_queues, None, per_shard_stats,
        )
        for shard, extra in zip(shards, leftover_lists):
            if extra:
                per_shard_stats[shard].absorb(
                    engine_of_shard[shard].run(extra)
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


def _run_routed_fragments(
    shards,
    engine_of_shard,
    schedule,
    slot_of_shard,
    slot_index,
    relay_queues,
    columnar,
    frames,
    results,
    ready=None,
    ring=None,
) -> None:
    """Worker body, router feed over a split plan (relay edges present).

    Wire frames for a hosted fragment's entry channels buffer per fragment
    until the stop frame (the merged order is preserved verbatim; relay
    ordering needs the whole upstream feed anyway).  Frames for hosted
    channels outside every fragment — pass-through queries, unconsumed
    channels with a sink — process immediately, exactly like the no-relay
    worker.  After the stop frame the buffered fragments execute through
    :func:`_execute_fragments`; the coordinator broadcasts stop before any
    worker starts its fragments, so cross-worker relay waits are safe.
    """
    try:
        hosted = set(shards)
        channel_owner: dict[int, int] = {}
        channels = []
        for shard in shards:
            for channel in engine_of_shard[shard].plan.channels():
                channel_owner[channel.channel_id] = shard
                channels.append(channel)
        fragment_of_channel: dict[int, int] = {}
        for descriptor in schedule:
            if descriptor["shard"] in hosted:
                for channel_id in descriptor["entry_channels"]:
                    fragment_of_channel[channel_id] = descriptor["component"]
        decoder = WireDecoder(channels)
        buffered: dict[int, list] = {}
        per_shard_stats = {shard: RunStats() for shard in shards}
        _warm_numeric_kernels()
        _await_ready(ready)
        while True:
            frame = frames.recv()
            kind = frame[0]
            if kind == STOP:
                break
            if kind == RING:
                channel, batch = decoder.decode_ring(ring.read(frame[1]))
            else:
                decoded = decoder.decode(frame)
                if decoded is None:
                    continue
                channel, batch = decoded
            fragment = fragment_of_channel.get(channel.channel_id)
            if fragment is not None:
                buffered.setdefault(fragment, []).append((channel, batch))
                continue
            shard = channel_owner[channel.channel_id]
            engine = engine_of_shard[shard]
            if type(batch) is ColumnBatch:
                per_shard_stats[shard].absorb(
                    engine.process_columns(channel, batch)
                )
            else:
                per_shard_stats[shard].absorb(
                    engine.process_batch(channel, batch)
                )
        _execute_fragments(
            schedule, hosted, engine_of_shard, columnar,
            slot_of_shard, slot_index, relay_queues, buffered,
            per_shard_stats,
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
        if data_plane not in ("columnar", "pickle"):
            raise PlanError(
                f"data_plane must be 'columnar' or 'pickle', "
                f"got {data_plane!r}"
            )
        #: Router-feed transport: ``"columnar"`` packs runs into schema-
        #: interned columns (shared-memory rings in process mode, ``crun``
        #: frames inline), ``"pickle"`` keeps the legacy per-tuple wire.
        #: Unpackable runs fall back per run; outputs are identical.
        self.data_plane = data_plane
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

    def _component_groups(self, routable):
        """Group routable sources by consuming plan component
        (:func:`~repro.streams.sources.group_sources` over the shard plan's
        entry channels): components share no m-ops and no state, so only
        sources feeding the same one need tuple-level interleaving, and a
        single-source component ships full-length runs.  Groups come in
        first-source order, not component-index order."""
        # Routable channels outside every component are pass-through sinks
        # (a query marked output on a source): their order is observable, so
        # they merge conservatively in one tuple-level group.
        component_of = dict.fromkeys(self.shard_plan.channel_shard, -1)
        for component in self.shard_plan.components:
            for channel_id in component.entry_channel_ids:
                component_of[channel_id] = component.index
        return group_sources(routable, component_of)

    # -- running ---------------------------------------------------------------------

    def run(self, sources: Sequence[StreamSource]) -> ShardedRunStats:
        """Drain ``sources`` through the shards; returns merged statistics.

        Source events are routed by entry channel — each shard sees exactly
        the (timestamp-ordered) subsequence on its own channels, so per-query
        outputs are byte-identical to the single-engine run over the same
        sources.
        """
        mode = self._resolve_mode()
        feed = self._resolve_feed()
        started = time.perf_counter()
        spawn = 0.0
        if mode == "process":
            # Worker lifecycle (fork + ready handshake before, join +
            # child interpreter teardown after) is excluded from the wall:
            # wall_seconds measures the drain a steady-state serve — whose
            # workers persist across runs — would see.  The drain ends when
            # the coordinator holds every shard's result.
            per_shard, captured, spawn, drained = self._run_process(
                sources, feed
            )
            wall = drained - started - spawn
        else:
            per_shard, captured = self._run_inline(sources, feed)
            wall = time.perf_counter() - started
        self.captured = captured
        return ShardedRunStats(
            per_shard=per_shard, wall_seconds=wall, mode=mode,
            spawn_seconds=spawn,
        )

    # -- inline ----------------------------------------------------------------------

    def _run_inline(self, sources, feed):
        if self.shard_plan.relays:
            return self._run_inline_fragments(sources, feed)
        per_shard: list[RunStats]
        if feed == "local":
            split = self.router.split_sources(sources)
            per_shard = [
                engine.run(shard_sources)
                for engine, shard_sources in zip(self.engines, split)
            ]
        else:
            per_shard = [RunStats() for __ in self.engines]
            decoders = [
                WireDecoder(engine.plan.channels()) for engine in self.engines
            ]
            routable, unrouted = self.router.split_routable(sources)
            encoder = WireEncoder()
            for group in self._component_groups(routable):
                for shard, frame in self.router.feed_frames(
                    group, self.max_batch,
                    columnar=self.data_plane == "columnar",
                    encoder=encoder,
                ):
                    decoded = decoders[shard].decode(frame)
                    if decoded is None:
                        continue
                    channel, batch = decoded
                    if type(batch) is ColumnBatch:
                        per_shard[shard].absorb(
                            self.engines[shard].process_columns(
                                channel, batch
                            )
                        )
                    else:
                        per_shard[shard].absorb(
                            self.engines[shard].process_batch(channel, batch)
                        )
            self._absorb_unrouted(per_shard, unrouted)
        captured = {}
        for engine in self.engines:
            captured.update(engine.captured)
        self.shard_mop_stats = [engine.mop_stats() for engine in self.engines]
        return per_shard, captured

    def _run_inline_fragments(self, sources, feed):
        """Inline execution when the plan has relay edges (split components).

        All fragments run in this process, in topological order, through
        the same :func:`_execute_fragments` core as process-mode workers —
        every relay edge still round-trips its runs through the
        :class:`~repro.shard.wire.RelayCodec`, so the inline path exercises
        the relay wire format byte-for-byte.  Router feeds additionally
        round-trip each fragment's own sources through the source wire
        first, exactly like the no-relay router path.
        """
        schedule, leftover = build_fragment_schedule(self.shard_plan, sources)
        columnar = self.data_plane == "columnar"
        engine_of_shard = dict(enumerate(self.engines))
        slot_of_shard = {shard: 0 for shard in engine_of_shard}
        per_shard_stats = {shard: RunStats() for shard in engine_of_shard}
        buffered_locals = None
        if feed == "router":
            decoders = [
                WireDecoder(engine.plan.channels()) for engine in self.engines
            ]
            encoder = WireEncoder()
            buffered_locals = {}
            for descriptor in schedule:
                if not descriptor["local_sources"]:
                    continue
                runs: list = []
                for shard, frame in self.router.feed_frames(
                    descriptor["local_sources"], self.max_batch,
                    columnar=columnar, encoder=encoder,
                ):
                    decoded = decoders[shard].decode(frame)
                    if decoded is not None:
                        runs.append(decoded)
                buffered_locals[descriptor["component"]] = runs
        _execute_fragments(
            schedule, set(engine_of_shard), engine_of_shard, columnar,
            slot_of_shard, 0, [None], buffered_locals, per_shard_stats,
        )
        if feed == "local":
            for shard, group in enumerate(self.router.split_sources(leftover)):
                if group:
                    per_shard_stats[shard].absorb(
                        self.engines[shard].run(group)
                    )
        else:
            routable, unrouted = self.router.split_routable(leftover)
            for group in self._component_groups(routable):
                for shard, frame in self.router.feed_frames(
                    group, self.max_batch, columnar=columnar, encoder=encoder,
                ):
                    decoded = decoders[shard].decode(frame)
                    if decoded is None:
                        continue
                    channel, batch = decoded
                    if type(batch) is ColumnBatch:
                        per_shard_stats[shard].absorb(
                            self.engines[shard].process_columns(channel, batch)
                        )
                    else:
                        per_shard_stats[shard].absorb(
                            self.engines[shard].process_batch(channel, batch)
                        )
            per_shard_list = [
                per_shard_stats[shard] for shard in range(len(self.engines))
            ]
            self._absorb_unrouted(per_shard_list, unrouted)
        per_shard = [
            per_shard_stats[shard] for shard in range(len(self.engines))
        ]
        captured = {}
        for engine in self.engines:
            captured.update(engine.captured)
        self.shard_mop_stats = [engine.mop_stats() for engine in self.engines]
        return per_shard, captured

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

    def _run_process(self, sources, feed):
        if self.shard_plan.relays:
            return self._run_process_fragments(sources, feed)
        context = multiprocessing.get_context("fork")
        slots = self._worker_slots()
        # One raw pipe per worker for the single result payload.  Unlike
        # mp.Queue there is no feeder thread: the worker's send completes
        # synchronously and the coordinator's wait() wakes on the first
        # ready pipe, so result latency is one context switch, and a dead
        # worker surfaces as EOF on its pipe instead of a silent hang.
        result_connections: list = []
        workers: list = []
        unrouted: list[StreamSource] = []
        # Ready handshake: every worker joins the barrier once it is forked
        # and imported, the coordinator joins last — the time to that point
        # is startup, everything after is drain.
        ready = context.Barrier(len(slots) + 1)
        spawn_started = time.perf_counter()
        if feed == "local":
            split = self.router.split_sources(sources)
            for slot in slots:
                receiver, sender = context.Pipe(duplex=False)
                result_connections.append(receiver)
                worker = context.Process(
                    target=_run_local,
                    args=(
                        slot,
                        [self.engines[shard] for shard in slot],
                        [split[shard] for shard in slot],
                        sender,
                        ready,
                    ),
                )
                worker.start()
                # Drop the coordinator's copy of the send end so a worker
                # death closes the pipe and wait() sees EOF.
                sender.close()
                workers.append(worker)
            _await_ready(ready)
            spawn = time.perf_counter() - spawn_started
        else:
            # Feed frames also travel over raw pipes: a send lands in the
            # kernel buffer immediately (no mp.Queue feeder thread holding
            # the GIL), so workers start draining while the pump is still
            # running.
            feed_senders: list = []
            rings: list = []
            slot_of_shard: dict[int, int] = {}
            use_rings = self.data_plane == "columnar"
            routable, unrouted = self.router.split_routable(sources)
            for slot_index, slot in enumerate(slots):
                for shard in slot:
                    slot_of_shard[shard] = slot_index
                frame_receiver, frame_sender = context.Pipe(duplex=False)
                feed_senders.append(frame_sender)
                # The ring is allocated before the fork so the worker
                # inherits the shared arena.
                ring = RingBuffer() if use_rings else None
                rings.append(ring)
                receiver, sender = context.Pipe(duplex=False)
                result_connections.append(receiver)
                worker = context.Process(
                    target=_run_routed,
                    args=(
                        slot,
                        [self.engines[shard] for shard in slot],
                        frame_receiver,
                        sender,
                        ready,
                        ring,
                    ),
                )
                worker.start()
                sender.close()
                frame_receiver.close()
                workers.append(worker)
            _await_ready(ready)
            spawn = time.perf_counter() - spawn_started
            if use_rings:
                self._pump_columnar(
                    routable, feed_senders, rings, slot_of_shard
                )
            else:
                encoder = WireEncoder()
                for group in self._component_groups(routable):
                    for shard, frame in self.router.feed_frames(
                        group, self.max_batch, encoder=encoder
                    ):
                        _send_frame(
                            feed_senders[slot_of_shard[shard]], frame
                        )
            for sender in feed_senders:
                _send_frame(sender, STOP_FRAME)
        per_shard, captured, drained = self._collect_worker_results(
            slots, workers, result_connections
        )
        self._absorb_unrouted(per_shard, unrouted)
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

    def _run_process_fragments(self, sources, feed):
        """Process execution when the plan has relay edges (split components).

        Same worker topology as the no-relay path, plus one ``mp.Queue``
        per worker slot for inbound relay frames: an upstream fragment's
        tap ships frames to its consumer slot's queue mid-dispatch, and
        the consumer's :class:`~repro.shard.relay.RelayInbox` demuxes them
        per edge.  Workers drain their hosted fragments in ascending global
        topological rank, so cross-worker waits always resolve (see
        :func:`_execute_fragments`).
        """
        context = multiprocessing.get_context("fork")
        slots = self._worker_slots()
        slot_of_shard = {
            shard: slot_index
            for slot_index, slot in enumerate(slots)
            for shard in slot
        }
        schedule, leftover = build_fragment_schedule(self.shard_plan, sources)
        columnar = self.data_plane == "columnar"
        # Allocated before the fork so every worker inherits every queue —
        # any fragment can ship to any slot.
        relay_queues = [context.Queue() for __ in slots]
        result_connections: list = []
        workers: list = []
        unrouted: list[StreamSource] = []
        ready = context.Barrier(len(slots) + 1)
        spawn_started = time.perf_counter()
        if feed == "local":
            leftover_split = self.router.split_sources(leftover)
            for slot_index, slot in enumerate(slots):
                receiver, sender = context.Pipe(duplex=False)
                result_connections.append(receiver)
                worker = context.Process(
                    target=_run_local_fragments,
                    args=(
                        slot,
                        {shard: self.engines[shard] for shard in slot},
                        schedule,
                        slot_of_shard,
                        slot_index,
                        relay_queues,
                        columnar,
                        [leftover_split[shard] for shard in slot],
                        sender,
                        ready,
                    ),
                )
                worker.start()
                sender.close()
                workers.append(worker)
            _await_ready(ready)
            spawn = time.perf_counter() - spawn_started
        else:
            feed_senders: list = []
            rings: list = []
            use_rings = columnar
            routable, unrouted = self.router.split_routable(sources)
            for slot_index, slot in enumerate(slots):
                frame_receiver, frame_sender = context.Pipe(duplex=False)
                feed_senders.append(frame_sender)
                ring = RingBuffer() if use_rings else None
                rings.append(ring)
                receiver, sender = context.Pipe(duplex=False)
                result_connections.append(receiver)
                worker = context.Process(
                    target=_run_routed_fragments,
                    args=(
                        slot,
                        {shard: self.engines[shard] for shard in slot},
                        schedule,
                        slot_of_shard,
                        slot_index,
                        relay_queues,
                        columnar,
                        frame_receiver,
                        sender,
                        ready,
                        ring,
                    ),
                )
                worker.start()
                sender.close()
                frame_receiver.close()
                workers.append(worker)
            _await_ready(ready)
            spawn = time.perf_counter() - spawn_started
            if use_rings:
                self._pump_columnar(
                    routable, feed_senders, rings, slot_of_shard
                )
            else:
                encoder = WireEncoder()
                for group in self._component_groups(routable):
                    for shard, frame in self.router.feed_frames(
                        group, self.max_batch, encoder=encoder
                    ):
                        _send_frame(
                            feed_senders[slot_of_shard[shard]], frame
                        )
            for sender in feed_senders:
                _send_frame(sender, STOP_FRAME)
        per_shard, captured, drained = self._collect_worker_results(
            slots, workers, result_connections
        )
        for queue in relay_queues:
            queue.close()
        self._absorb_unrouted(per_shard, unrouted)
        return per_shard, captured, spawn, drained

    def _pump_columnar(
        self, routable, feed_senders, rings, slot_of_shard
    ) -> None:
        """Feed the merged run stream over the zero-copy columnar plane.

        Each packable run is packed once; the ring of the worker hosting
        the owning shard gets the raw record (one copy in, announced by a
        ``ring`` marker on its ordered feed pipe), with a ``crun`` pipe
        frame as the full-ring / oversized-record fallback and the pickle
        wire for unpackable runs.  Schema frames broadcast to every
        worker, exactly like :meth:`SourceRouter.feed_frames`.  Sources
        merge per plan component (:meth:`_component_groups`), so
        independent components ship full-length packed runs instead of a
        per-tuple interleave.
        """
        encoder = WireEncoder()
        for group in self._component_groups(routable):
            for channel, batch in merge_source_runs(group, self.max_batch):
                shard = self.router.shard_of_channel(channel.channel_id)
                slot = slot_of_shard[shard]
                packed = (
                    batch
                    if type(batch) is ColumnBatch
                    else ColumnBatch.from_channel_tuples(batch)
                )
                if packed is None:
                    for frame in encoder.encode_run(channel, batch):
                        if frame[0] == SCHEMA:
                            for sender in feed_senders:
                                _send_frame(sender, frame)
                        else:
                            _send_frame(feed_senders[slot], frame)
                    continue
                frames_out = encoder.encode_run_columns(channel, packed)
                crun = frames_out[-1]
                for frame in frames_out[:-1]:
                    for sender in feed_senders:
                        _send_frame(sender, frame)
                ring = rings[slot]
                shipped = False
                if ring is not None:
                    parts, total = pack_run_record(
                        channel.channel_id, crun[2], packed
                    )
                    if ring.try_write(parts, total):
                        _send_frame(feed_senders[slot], (RING, total))
                        shipped = True
                if not shipped:
                    _send_frame(feed_senders[slot], crun)

    def _absorb_unrouted(
        self, per_shard: list[RunStats], unrouted: list[StreamSource]
    ) -> None:
        """Count events on channels no shard consumes (router feed only).

        The single engine counts every source event whether or not anything
        consumes it; the wire feed cannot ship runs for channels no decoder
        knows, so their input accounting happens here, attributed to the
        channel's fallback shard so the aggregate matches exactly.
        """
        for source in unrouted:
            shard = self.router.shard_of_channel(source.channel.channel_id)
            per_shard[shard].absorb(_count_source_events(source))

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
