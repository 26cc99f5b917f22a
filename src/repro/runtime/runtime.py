"""The online query lifecycle runtime: dynamic register / unregister.

``QueryRuntime`` keeps one *live* :class:`~repro.core.plan.QueryPlan` and one
:class:`~repro.engine.executor.StreamEngine` serving it, and treats query
arrival and departure as the common case rather than a rebuild:

``register(query)``
    compiles the query (text or :class:`~repro.lang.ast.LogicalQuery`) onto
    the live plan, runs a *scoped* rule fixpoint over just the new m-ops and
    their merge frontier (``Optimizer.optimize_incremental``), and migrates
    the engine — reusing every executor whose wiring is untouched, so
    surviving queries keep their window and partial-match state.

``unregister(query_id)``
    drops the query's sink registrations, garbage-collects m-ops no longer
    reachable from any sink (``QueryPlan.prune_unreachable``), and migrates,
    freeing the dead executors' state.

``process(stream_name, tuple)``
    pushes one source event through the engine, accumulating cumulative
    :class:`~repro.engine.metrics.RunStats` (including a ``migrations``
    counter and, optionally, per-query output latency).

The runtime also supports ``incremental=False``, the stop-the-world
baseline: every lifecycle change re-runs the full rule fixpoint and rebuilds
every executor from scratch (losing operator state) — this is what
``benchmarks/bench_churn.py`` compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from repro.core.mop import MOp
from repro.core.optimizer import OptimizationReport, Optimizer
from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.engine.metrics import RunStats
from repro.engine.migration import MigrationStats, migrate_engine
from repro.errors import LifecycleError, QueryLanguageError
from repro.lang.ast import LogicalQuery
from repro.lang.compiler import compile_into
from repro.streams.channel import Channel, ChannelTuple
from repro.streams.schema import Schema
from repro.streams.stream import StreamDef
from repro.streams.tuples import StreamTuple


@dataclass
class ComponentTransfer:
    """A connected component in transit between two runtimes (shards).

    Produced by :meth:`QueryRuntime.export_component`, consumed by
    :meth:`QueryRuntime.import_component`.  Carries the plan subgraph
    (m-ops, derived streams, channels, sink registrations), the logical
    queries it serves, and the *live executors* with their operator state —
    the re-seeding payload that makes a rebalance state-preserving.
    """

    plan_transfer: dict
    queries: dict[str, LogicalQuery]
    #: mop_id -> (wiring signature, executor) snapshot from the donor engine.
    #: Same-process transfers reuse these live executors directly; a transfer
    #: that crossed a process boundary carries :attr:`state` instead.
    entries: dict[int, tuple] = field(default_factory=dict)
    #: query_id -> output tuples captured so far on the donor engine (only
    #: when the donor captures outputs); re-homed so per-query capture
    #: histories stay contiguous across a move.
    captured: dict = field(default_factory=dict)
    #: total operator state captured at export time (accounting only).
    state_carried: int = 0
    #: mop_id -> executor state snapshot (plain picklable containers, see
    #: ``MOpExecutor.snapshot_state``).  Set by the wire codec when a
    #: transfer is serialized: the receiving runtime builds fresh executors
    #: and re-seeds them from these snapshots instead of reusing
    #: :attr:`entries` (live executors hold compiled closures and cannot
    #: cross a process boundary).
    state: Optional[dict] = None

    @property
    def query_ids(self) -> list[str]:
        return list(self.queries)


class QueryRuntime:
    """A live multi-query plan + engine serving a changing query population."""

    def __init__(
        self,
        sources: Optional[dict[str, Schema]] = None,
        optimizer: Optional[Optimizer] = None,
        capture_outputs: bool = False,
        track_latency: bool = False,
        incremental: bool = True,
        observe=False,
    ):
        self.plan = QueryPlan()
        self.optimizer = optimizer or Optimizer()
        self.incremental = incremental
        self.streams: dict[str, StreamDef] = {}
        if sources:
            for name, schema in sources.items():
                self.add_source(name, schema)
        self.engine = StreamEngine(
            self.plan,
            capture_outputs=capture_outputs,
            track_latency=track_latency,
            observe=observe,
        )
        #: Cumulative statistics across every processed event and migration.
        self.stats = RunStats()
        #: Per-lifecycle-change optimizer reports, in order.
        self.reports: list[OptimizationReport] = []
        #: Per-lifecycle-change migration statistics, in order.
        self.migration_log: list[MigrationStats] = []
        #: Per-source-stream processed-event counts (the runtime's **stream
        #: cursor**).  A checkpoint taken between two events records this
        #: cursor as its consistency cut: replaying the source suffix from
        #: the cursor onward reproduces the runtime's state exactly.
        self.cursor: dict[str, int] = {}
        self._active: dict[str, LogicalQuery] = {}
        #: alias → relay-export entry (see :meth:`export_stream`): the
        #: queries whose sink channels this runtime re-emits as derived
        #: source streams for consumers on other shards.
        self.relay_exports: dict[str, dict] = {}

    # -- sources -------------------------------------------------------------------

    def add_source(
        self,
        name: str,
        schema: Schema,
        sharable_label: Optional[str] = None,
    ) -> StreamDef:
        """Declare a source stream the runtime will accept events on."""
        if name in self.streams:
            raise LifecycleError(f"source {name!r} is already declared")
        stream = self.plan.add_source(name, schema, sharable_label=sharable_label)
        self.streams[name] = stream
        return stream

    def adopt_source(
        self, stream: StreamDef, channel: Optional[Channel] = None
    ) -> StreamDef:
        """Adopt an *existing* source stream (shared-object sharding contract).

        Shard runtimes created by :class:`~repro.shard.runtime.ShardedRuntime`
        all adopt the same source ``StreamDef``/``Channel`` objects, so a
        component's wiring signatures survive a move between shard plans and
        its executors can be reused, state intact.
        """
        if stream.name in self.streams:
            raise LifecycleError(f"source {stream.name!r} is already declared")
        self.plan.adopt_source(stream, channel)
        self.streams[stream.name] = stream
        return stream

    # -- lifecycle -----------------------------------------------------------------

    @property
    def active_queries(self) -> list[str]:
        return list(self._active)

    def register(
        self,
        query: Union[str, LogicalQuery],
        query_id: Optional[str] = None,
    ) -> OptimizationReport:
        """Add a query to the live plan without stopping the stream.

        ``query`` is pipeline-language text (then ``query_id`` is required)
        or a :class:`LogicalQuery`.  Compilation, scoped re-optimization and
        engine migration happen between two events; state held by untouched
        executors survives.  Returns the optimizer report.
        """
        from repro.lang.compiler import as_logical

        try:
            logical = as_logical(query, query_id)
        except QueryLanguageError as error:
            raise LifecycleError(str(error)) from error
        if logical.query_id in self._active:
            raise LifecycleError(
                f"query {logical.query_id!r} is already registered"
            )
        for name in logical.sources():
            if name not in self.streams:
                raise LifecycleError(
                    f"query {logical.query_id!r} reads unknown source {name!r}"
                )
        try:
            __, dirty = compile_into(logical, self.plan, self.streams)
            if self.incremental:
                report = self.optimizer.optimize_incremental(
                    self.plan, dirty, frozen=self.engine.stateful_mop_ids()
                )
            else:
                report = self.optimizer.optimize(self.plan)
            self._migrate()
        except Exception:
            # Roll the half-registered query back out: drop any sink it
            # already claimed, prune its orphan m-ops, and re-sync the
            # engine, so the live plan keeps serving the other queries and a
            # retry of the same query_id starts clean.  Cleanup is best
            # effort — the original failure must surface, not be masked.
            try:
                self.plan.unmark_output(logical.query_id)
                self.plan.prune_unreachable()
                migrate_engine(self.engine)
            except Exception:
                pass
            raise
        self._active[logical.query_id] = logical
        self.reports.append(report)
        self._refresh_relay_exports()
        return report

    def unregister(self, query_id: str) -> list[MOp]:
        """Retire a query: drop its sinks, GC unreachable m-ops, migrate.

        Returns the garbage-collected m-ops (empty when everything the query
        used is shared with still-active queries).
        """
        if query_id not in self._active:
            raise LifecycleError(f"query {query_id!r} is not registered")
        for alias, entry in self.relay_exports.items():
            if entry.get("query_id") == query_id:
                raise LifecycleError(
                    f"query {query_id!r} feeds exported stream {alias!r}; "
                    f"remove the export before unregistering"
                )
        self.plan.unmark_output(query_id)
        removed = self.plan.prune_unreachable()
        del self._active[query_id]
        self._migrate()
        self._refresh_relay_exports()
        return removed

    def reoptimize(self) -> OptimizationReport:
        """Maintenance sweep: re-run the rules over the *whole* live plan.

        Incremental registration skips merges that would disturb executors
        holding state, and never revisits them — under sustained churn,
        duplicate m-ops whose state has since drained can accumulate.  This
        runs a fixpoint scoped to every current m-op (still honouring the
        frozen set, so live state is still never dropped) and migrates;
        call it periodically, or when ``len(plan.mops)`` creeps up.
        """
        report = self.optimizer.optimize_incremental(
            self.plan, list(self.plan.mops),
            frozen=self.engine.stateful_mop_ids(),
        )
        self._migrate()
        self.reports.append(report)
        self._refresh_relay_exports()
        return report

    # -- relay exports (cross-shard derived channels) --------------------------------

    def export_stream(
        self,
        alias: str,
        query_id: Optional[str],
        stream: StreamDef,
        channel: Optional[Channel] = None,
        cursor: int = 0,
    ) -> None:
        """Adopt ``alias`` as a source and, when this runtime owns the
        producing query, tap its sink channel so every output run can be
        re-emitted onto ``alias`` by the coordinator.

        ``query_id=None`` is the consumer-side half: the alias becomes a
        plain source this runtime's queries may read.  ``cursor`` seeds the
        tap's produced count (checkpoint restore / tap re-homing), so the
        coordinator's collected cursor keeps lining up across recoveries —
        the exactly-once discipline for relayed runs.  Idempotent.
        """
        if stream.name != alias:
            raise LifecycleError(
                f"alias {alias!r} does not match stream {stream.name!r}"
            )
        if alias not in self.streams:
            self.adopt_source(stream, channel)
        if query_id is None:
            return
        if query_id not in self._active:
            raise LifecycleError(f"query {query_id!r} is not registered")
        from repro.shard.relay import sink_channel_of

        sink = sink_channel_of(self.plan, query_id)
        tap = self.engine.install_relay_tap(sink)
        entry = self.relay_exports.get(alias)
        if entry is None:
            tap.produced = cursor
            self.relay_exports[alias] = {
                "query_id": query_id,
                "channel": sink,
                "stream": stream,
                "alias_channel": channel or self.plan.channel_of(stream),
                #: ``(start_cursor, run)`` runs collected but not yet
                #: acknowledged — retained so a coordinator crash between
                #: collect and journal never loses relay tuples.
                "retained": [],
                #: Cursor of the next uncollected tuple.
                "next_start": cursor,
            }
        else:
            entry["query_id"] = query_id
            entry["channel"] = sink

    def remove_export(self, alias: str) -> Optional[dict]:
        """Drop a relay export (tap removed, retained runs discarded).

        The alias stays adopted as a plain source — consumers may still
        hold compiled plans against it; it simply stops producing.
        """
        entry = self.relay_exports.pop(alias, None)
        if entry is not None:
            self.engine.remove_relay_tap(entry["channel"].channel_id)
        return entry

    def collect_relay(self, alias: str, ack: int) -> tuple[int, list, int]:
        """Drain the export's tap into its retained window and return it.

        ``ack`` is the coordinator's durable collected cursor: retained
        runs entirely at or below it are dropped (delivered and journaled),
        everything after it is returned again — re-collection after a
        coordinator restart replays exactly the unacknowledged suffix.
        Returns ``(start_cursor, runs, produced)``.
        """
        entry = self.relay_exports[alias]
        retained = entry["retained"]
        while retained and retained[0][0] + len(retained[0][1]) <= ack:
            retained.pop(0)
        for run in self.engine.take_relay_runs(entry["channel"].channel_id):
            retained.append((entry["next_start"], run))
            entry["next_start"] += len(run)
        start = retained[0][0] if retained else entry["next_start"]
        return start, [run for __, run in retained], entry["next_start"]

    def _refresh_relay_exports(self) -> None:
        """Re-home taps whose sink channel moved under a sharing merge.

        ``eliminate_duplicate`` can transfer a query's sink registration to
        a representative m-op's output stream mid-churn; the tap follows,
        carrying its cursor and any buffered runs, so relay numbering never
        restarts."""
        if not self.relay_exports:
            return
        from repro.shard.relay import sink_channel_of

        for entry in self.relay_exports.values():
            sink = sink_channel_of(self.plan, entry["query_id"])
            if sink.channel_id == entry["channel"].channel_id:
                continue
            old = self.engine.relay_tap(entry["channel"].channel_id)
            self.engine.remove_relay_tap(entry["channel"].channel_id)
            tap = self.engine.install_relay_tap(sink)
            if old is not None:
                tap.produced = old.produced
                tap.runs = old.runs + tap.runs
            entry["channel"] = sink

    # -- component transfer (cross-shard rebalance) ----------------------------------

    def component_of(self, query_id: str) -> list[MOp]:
        """The m-ops of ``query_id``'s connected component (derived-channel
        closure: producers, consumers and co-consumers of derived streams).

        Source channels do not connect — they are shared infrastructure, so
        two queries reading the same source but sharing no m-op are separate
        components and can live on different shards.
        """
        if query_id not in self._active:
            raise LifecycleError(f"query {query_id!r} is not registered")
        plan = self.plan
        seeds: list[MOp] = []
        for mop in plan.mops:
            if any(instance.query_id == query_id for instance in mop.instances):
                seeds.append(mop)
        for stream, query_ids in plan.sink_streams():
            if query_id in query_ids:
                producer = plan.producer_mop_of(stream)
                if producer is not None and producer not in seeds:
                    seeds.append(producer)
        if not seeds:
            raise LifecycleError(
                f"query {query_id!r} has no m-ops in the live plan"
            )
        member_ids = {id(mop) for mop in seeds}
        component = list(seeds)
        frontier = list(seeds)
        while frontier:
            mop = frontier.pop()
            neighbours: list[MOp] = []
            for stream in mop.input_streams:
                producer = plan.producer_mop_of(stream)
                if producer is not None:
                    neighbours.append(producer)
                    for consumer, __, __index in plan.consumers_of(stream):
                        neighbours.append(consumer)
            for stream in mop.output_streams:
                for consumer, __, __index in plan.consumers_of(stream):
                    neighbours.append(consumer)
            for neighbour in neighbours:
                if id(neighbour) not in member_ids:
                    member_ids.add(id(neighbour))
                    component.append(neighbour)
                    frontier.append(neighbour)
        return component

    def _moved_query_ids(self, component: list[MOp]) -> set:
        """The queries a component carries: instance attributions plus the
        registrations on its sink streams.  Shared by the rebalance
        pre-flight view and the actual export, so the two can never
        disagree about which queries move."""
        moved: set = set()
        for mop in component:
            for instance in mop.instances:
                if instance.query_id is not None:
                    moved.add(instance.query_id)
        sinks = self.plan.sinks
        for mop in component:
            for stream in mop.output_streams:
                moved.update(sinks.get(stream.stream_id, ()))
        return moved

    def component_query_ids(self, query_id: str) -> list[str]:
        """Every query that would move with ``query_id`` in a rebalance.

        Sorted for determinism.  This is the pre-flight view rebalance
        policies use to judge whether a component is worth (or too big)
        to move.
        """
        return sorted(self._moved_query_ids(self.component_of(query_id)))

    def export_component(self, query_id: str) -> ComponentTransfer:
        """Drain ``query_id``'s component out of this runtime, state intact.

        Every query sharing any m-op with ``query_id`` (transitively) moves
        with it.  Must be called on a batch boundary — the same safe point
        every migration uses; the component's executors are snapshotted
        *with* their window/partial-match state, the plan subgraph is
        detached, and the engine migrates to serve the remaining queries.
        """
        return self._capture_component(query_id, detach=True)

    def checkpoint_component(self, query_id: str) -> ComponentTransfer:
        """Moment-in-time, **non-destructive** snapshot of a component.

        The same shape :meth:`export_component` produces — plan subgraph,
        logical queries, executor entries, captured histories — but nothing
        is detached: the runtime keeps serving the component, and the
        snapshot records its state at the current cursor
        (:attr:`cursor`, declared per source stream).  Because the returned
        transfer *references* the live plan subgraph and executors, it is
        only valid for immediate serialization
        (:func:`~repro.shard.wire.encode_transfer` deep-copies everything);
        importing it directly into another runtime would alias live m-ops
        and must never be done.  This is the capture primitive of the
        durable checkpoint subsystem (:mod:`repro.shard.checkpoint`).
        """
        return self._capture_component(query_id, detach=False)

    def _capture_component(self, query_id: str, detach: bool) -> ComponentTransfer:
        """One capture path behind export (detach) and checkpoint (view),
        so the two can never disagree about what a transfer carries."""
        component = self.component_of(query_id)
        component_ids = {mop.mop_id for mop in component}
        moved_query_ids = self._moved_query_ids(component)
        entries = {
            mop_id: entry
            for mop_id, entry in self.engine.executor_entries().items()
            if mop_id in component_ids
        }
        state_carried = sum(
            executor.state_size for __, executor in entries.values()
        )
        if detach:
            plan_transfer = self.plan.release_component(component)
        else:
            # Same shape, nothing detached (pickling in encode_transfer is
            # what turns the view into an independent copy).
            plan_transfer = self.plan.view_component(component)
        queries = {}
        captured = {}
        for moved_id in moved_query_ids:
            if detach:
                logical = self._active.pop(moved_id, None)
                history = self.engine.captured.pop(moved_id, None)
            else:
                logical = self._active.get(moved_id)
                history = self.engine.captured.get(moved_id)
                history = list(history) if history is not None else None
            if logical is not None:
                queries[moved_id] = logical
            if history is not None:
                captured[moved_id] = history
        if detach:
            self._migrate()
        return ComponentTransfer(
            plan_transfer=plan_transfer,
            queries=queries,
            entries=entries,
            captured=captured,
            state_carried=state_carried,
        )

    def import_component(self, transfer: ComponentTransfer) -> MigrationStats:
        """Graft an exported component into this runtime, re-seeding state.

        The component's streams keep their channels and its instances their
        identity, so the recomputed wiring signatures match the snapshot and
        the migration machinery reuses the donor's executors — window and
        sequence state arrive intact.  Requires this runtime to share the
        donor's source stream objects (:meth:`adopt_source`) — or, for a
        transfer that crossed a process boundary, stream objects with the
        same ids (the fork contract of the process-mode runtime).

        A deserialized transfer carries no live executors; instead its
        :attr:`ComponentTransfer.state` snapshots re-seed the freshly built
        executors, so window contents, sequence instance stores and
        captured-output histories survive the process hop.
        """
        for query_id in transfer.queries:
            if query_id in self._active:
                raise LifecycleError(
                    f"query {query_id!r} is already registered here"
                )
        self.plan.adopt_component(transfer.plan_transfer)
        self._active.update(transfer.queries)
        for query_id, history in transfer.captured.items():
            self.engine.captured.setdefault(query_id, []).extend(history)
        try:
            migration = migrate_engine(self.engine, extra_reuse=transfer.entries)
            if transfer.state:
                entries = self.engine.executor_entries()
                carried = 0
                for mop_id, snapshot in transfer.state.items():
                    executor = entries[mop_id][1]
                    executor.restore_state(snapshot)
                    carried += executor.state_size
                # Only the re-seeded executors' state was carried by this
                # migration; state already resident here is not attributed.
                migration.state_carried = carried
        except Exception:
            # Undo the adoption so the component lives in *no* plan rather
            # than half in this one: the caller still holds the transfer
            # (executors included) and can re-import it elsewhere.
            for query_id in transfer.queries:
                self._active.pop(query_id, None)
            for query_id in transfer.captured:
                self.engine.captured.pop(query_id, None)
            self.plan.release_component(transfer.plan_transfer["mops"])
            migrate_engine(self.engine)
            raise
        self.migration_log.append(migration)
        self.stats.migrations += 1
        self._refresh_relay_exports()
        return migration

    def _migrate(self) -> MigrationStats:
        if self.incremental:
            migration = migrate_engine(self.engine)
        else:
            import time

            started = time.perf_counter()
            previous = len(self.engine.executor_entries())
            __, built = self.engine.rebuild_tables(reuse=None)
            migration = MigrationStats(
                reused_executors=0,
                built_executors=built,
                dropped_executors=previous,
                state_carried=0,
                elapsed_seconds=time.perf_counter() - started,
            )
        self.migration_log.append(migration)
        self.stats.migrations += 1
        return migration

    # -- event processing ----------------------------------------------------------

    def process(self, stream_name: str, tuple_: StreamTuple) -> RunStats:
        """Push one source event through the live engine."""
        stream = self.streams.get(stream_name)
        if stream is None:
            raise LifecycleError(f"unknown source stream {stream_name!r}")
        channel = self.plan.channel_of(stream)
        channel_tuple = ChannelTuple(tuple_, 1 << channel.position_of(stream))
        event_stats = self.engine.process(channel, channel_tuple)
        self.cursor[stream_name] = self.cursor.get(stream_name, 0) + 1
        self.stats.absorb(event_stats)
        return event_stats

    def process_batch(
        self, stream_name: str, tuples: Sequence[StreamTuple]
    ) -> RunStats:
        """Push a run of source events (one stream, timestamp order) through
        the live engine's batched dispatch path.

        Lifecycle changes (register / unregister and their engine
        migrations) happen between calls — a batch boundary is the
        migration-safe point, so batching composes with the online
        lifecycle exactly like per-event processing does.
        """
        stream = self.streams.get(stream_name)
        if stream is None:
            raise LifecycleError(f"unknown source stream {stream_name!r}")
        if not tuples:
            return RunStats()
        channel = self.plan.channel_of(stream)
        bit = 1 << channel.position_of(stream)
        batch = [ChannelTuple(tuple_, bit) for tuple_ in tuples]
        event_stats = self.engine.process_batch(channel, batch)
        self.cursor[stream_name] = self.cursor.get(stream_name, 0) + len(tuples)
        self.stats.absorb(event_stats)
        return event_stats

    def process_columns(self, stream_name: str, batch) -> RunStats:
        """Push a packed columnar run (:class:`~repro.streams.columns.
        ColumnBatch`) through the engine's columnar entry.

        Accounting mirrors :meth:`process_batch` exactly — the stream
        cursor advances by the row count and the stats fold the same way —
        so checkpoint cuts and journal positions are transport-agnostic.
        """
        stream = self.streams.get(stream_name)
        if stream is None:
            raise LifecycleError(f"unknown source stream {stream_name!r}")
        if not batch.count:
            return RunStats()
        channel = self.plan.channel_of(stream)
        event_stats = self.engine.process_columns(channel, batch)
        self.cursor[stream_name] = self.cursor.get(stream_name, 0) + batch.count
        self.stats.absorb(event_stats)
        return event_stats

    def run(self, events: Iterable[tuple[str, StreamTuple]]) -> RunStats:
        """Process a batch of ``(stream name, tuple)`` events; returns the
        batch's statistics (also folded into :attr:`stats`)."""
        batch = RunStats()
        for stream_name, tuple_ in events:
            batch.absorb(self.process(stream_name, tuple_))
        return batch

    # -- introspection -------------------------------------------------------------

    @property
    def state_size(self) -> int:
        return self.engine.state_size

    @property
    def captured(self) -> dict:
        return self.engine.captured

    @property
    def observer(self):
        """The engine's :class:`~repro.obs.mops.MOpObserver`, or None.

        It lives on the engine (migrations mutate the engine in place and
        re-attribute records on every table rebuild), so cumulative per-m-op
        counters survive the whole lifecycle of this runtime.
        """
        return self.engine.observer

    def mop_stats(self) -> dict[int, dict]:
        """Per-m-op telemetry records (empty unless ``observe=`` was set)."""
        return self.engine.mop_stats()

    def query_heat(self) -> dict:
        """query_id -> extrapolated executor busy seconds (empty unless
        observing) — the heat signal :class:`~repro.shard.policy.
        ThroughputPolicy` can use instead of output counts."""
        observer = self.engine.observer
        return observer.query_heat() if observer is not None else {}

    def metrics_registry(self):
        """A fresh :class:`~repro.obs.metrics.MetricsRegistry` holding this
        runtime's RunStats counters plus (when observing) per-m-op records —
        the single-runtime face of the sharded runtimes' method of the same
        name."""
        from repro.obs.metrics import MetricsRegistry, publish_run_stats

        registry = MetricsRegistry()
        publish_run_stats(registry, self.stats)
        observer = self.engine.observer
        if observer is not None:
            observer.publish(registry)
        return registry

    def describe(self) -> str:
        """Plan rendering plus live-runtime counters."""
        return (
            f"QueryRuntime: {len(self._active)} active queries, "
            f"state={self.state_size}, migrations={self.stats.migrations}\n"
            f"{self.plan.describe()}"
        )
