"""The sharded online lifecycle runtime.

:class:`ShardedRuntime` extends the PR-1 lifecycle to ``n`` shards: one
:class:`~repro.runtime.QueryRuntime` (live plan + batched engine) per shard,
all sharing the *same* source ``StreamDef``/``Channel`` objects.

- ``register`` places the new query on a shard (least-loaded by active query
  count unless an explicit ``shard=`` is given) and routes the registration
  there; sharing happens *within* the owning shard's plan exactly as in the
  single-runtime case.
- ``unregister`` / ``reoptimize`` route to the owning shard.
- ``process`` / ``process_batch`` route each source event to every shard
  whose plan consumes that stream (a source read by queries on two shards is
  replicated to both; queries are disjoint across shards, so outputs never
  double).  The aggregate :attr:`stats` count each source event **once**,
  matching the single-runtime accounting.
- ``rebalance`` moves one connected component between shards mid-churn,
  state intact: the donor runtime drains the component
  (:meth:`~repro.runtime.QueryRuntime.export_component` — plan subgraph +
  live executors), the receiving runtime adopts it and re-seeds the
  executors through the migration machinery
  (:meth:`~repro.runtime.QueryRuntime.import_component`).  Because the
  shards share source channel objects, wiring signatures survive the move
  and window/sequence state rides across untouched.

The shard runtimes run in the coordinating process: lifecycle changes and
state transfer stay plain method calls, and every engine already uses the
batched dispatch hot path.  (Cross-process serving of a *static* plan is the
:class:`~repro.shard.engine.ShardedEngine`'s job.)
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.core.optimizer import OptimizationReport, Optimizer
from repro.engine.metrics import RunStats
from repro.errors import LifecycleError, QueryLanguageError
from repro.lang.ast import LogicalQuery
from repro.runtime.runtime import ComponentTransfer, QueryRuntime
from repro.streams.channel import Channel
from repro.streams.schema import Schema
from repro.streams.stream import StreamDef
from repro.streams.tuples import StreamTuple


class ShardedRuntime:
    """``n`` live plan+engine pairs serving one changing query population."""

    def __init__(
        self,
        sources: Optional[dict[str, Schema]] = None,
        n_shards: int = 2,
        optimizer: Optional[Optimizer] = None,
        capture_outputs: bool = False,
        track_latency: bool = False,
        incremental: bool = True,
        observe: bool = False,
    ):
        if n_shards < 1:
            raise LifecycleError(f"n_shards must be at least 1, got {n_shards}")
        self.n_shards = n_shards
        self.observe = bool(observe)
        self.streams: dict[str, StreamDef] = {}
        self._channels: dict[str, Channel] = {}
        self.runtimes: list[QueryRuntime] = [
            QueryRuntime(
                sources=None,
                optimizer=optimizer,
                capture_outputs=capture_outputs,
                track_latency=track_latency,
                incremental=incremental,
                observe=observe,
            )
            for __ in range(n_shards)
        ]
        #: Aggregate statistics; each source event is counted once, outputs
        #: are summed across shards (queries are disjoint across shards).
        self.stats = RunStats()
        #: Completed component rebalances (parity with the process runtime).
        self.rebalances = 0
        self._query_shard: dict[str, int] = {}
        #: stream name -> shards currently consuming it (rebuilt lazily
        #: after every lifecycle change).
        self._route_cache: dict[str, tuple[int, ...]] = {}
        #: alias -> {"query_id", "collected"}: derived streams re-emitted
        #: from one shard's query output into the others' entries
        #: (:meth:`export_stream`).
        self._relays: dict[str, dict] = {}
        #: Tuples re-emitted across shards through relay exports (derived
        #: traffic — never counted as fresh source input).
        self.relayed_events = 0
        if sources:
            for name, schema in sources.items():
                self.add_source(name, schema)

    # -- sources ---------------------------------------------------------------------

    def add_source(
        self,
        name: str,
        schema: Schema,
        sharable_label: Optional[str] = None,
    ) -> StreamDef:
        """Declare a source once; every shard adopts the same stream/channel."""
        if name in self.streams:
            raise LifecycleError(f"source {name!r} is already declared")
        stream = StreamDef(name, schema, sharable_label=sharable_label)
        channel = Channel.singleton(stream)
        for runtime in self.runtimes:
            runtime.adopt_source(stream, channel)
        self.streams[name] = stream
        self._channels[name] = channel
        return stream

    # -- lifecycle -------------------------------------------------------------------

    @property
    def active_queries(self) -> list[str]:
        return list(self._query_shard)

    def shard_of(self, query_id: str) -> int:
        """The shard currently owning ``query_id``."""
        try:
            return self._query_shard[query_id]
        except KeyError:
            raise LifecycleError(
                f"query {query_id!r} is not registered"
            ) from None

    def place(self, logical: LogicalQuery) -> int:
        """Placement heuristic for a new query: the least-loaded shard.

        Load is the active query count (cheap and churn-stable); ties break
        to the lowest shard index so placement is deterministic.  Placement
        trades cross-shard sharing for parallelism — queries that would have
        merged with an m-op on another shard run separately instead (see
        README "Scaling out" for when that trade wins).
        """
        return min(
            range(self.n_shards),
            key=lambda index: (len(self.runtimes[index].active_queries), index),
        )

    def register(
        self,
        query: Union[str, LogicalQuery],
        query_id: Optional[str] = None,
        shard: Optional[int] = None,
    ) -> OptimizationReport:
        """Register a query on a shard (explicit ``shard=`` or placement)."""
        from repro.lang.compiler import as_logical

        try:
            logical = as_logical(query, query_id)
        except QueryLanguageError as error:
            raise LifecycleError(str(error)) from error
        if logical.query_id in self._query_shard:
            raise LifecycleError(
                f"query {logical.query_id!r} is already registered"
            )
        if shard is None:
            shard = self.place(logical)
        elif not 0 <= shard < self.n_shards:
            raise LifecycleError(
                f"shard {shard} out of range (n_shards={self.n_shards})"
            )
        report = self.runtimes[shard].register(logical)
        self._query_shard[logical.query_id] = shard
        self._route_cache.clear()
        return report

    def unregister(self, query_id: str) -> list:
        """Retire a query on its owning shard."""
        shard = self.shard_of(query_id)
        removed = self.runtimes[shard].unregister(query_id)
        del self._query_shard[query_id]
        self._route_cache.clear()
        return removed

    def reoptimize(self, shard: Optional[int] = None) -> list[OptimizationReport]:
        """Maintenance sweep on one shard, or on all of them."""
        shards = range(self.n_shards) if shard is None else [shard]
        reports = [self.runtimes[index].reoptimize() for index in shards]
        self._route_cache.clear()
        return reports

    # -- rebalance -------------------------------------------------------------------

    def rebalance(self, query_id: str, to_shard: int) -> ComponentTransfer:
        """Move ``query_id``'s connected component to ``to_shard``, preserving
        executor state.

        Happens on a batch boundary (between ``process`` calls), like every
        migration.  All queries sharing m-ops with ``query_id`` move
        together — the component is the atomic placement unit.  Returns the
        transfer (moved queries, carried state) for observability.
        """
        if not 0 <= to_shard < self.n_shards:
            raise LifecycleError(
                f"shard {to_shard} out of range (n_shards={self.n_shards})"
            )
        from_shard = self.shard_of(query_id)
        if from_shard == to_shard:
            raise LifecycleError(
                f"query {query_id!r} already lives on shard {to_shard}"
            )
        # Flush pending bridge traffic first: a move discards the donor's
        # tap buffer, so everything produced must be delivered before it.
        self.stats.absorb(self._drain_relays())
        transfer = self.runtimes[from_shard].export_component(query_id)
        try:
            self.runtimes[to_shard].import_component(transfer)
        except Exception:
            # Put the component back where it came from; state is still in
            # the transfer's executors, so the restore is also lossless.
            self.runtimes[from_shard].import_component(transfer)
            raise
        for moved_id in transfer.queries:
            self._query_shard[moved_id] = to_shard
        # Re-home relay taps riding the moved component: the donor's
        # registry entry leaves with the component, the recipient re-taps
        # with the collected cursor so relay numbering continues unbroken.
        moved = set(transfer.queries)
        for alias, entry in self._relays.items():
            if entry["query_id"] not in moved:
                continue
            self.runtimes[from_shard].remove_export(alias)
            self.runtimes[to_shard].export_stream(
                alias,
                entry["query_id"],
                self.streams[alias],
                self._channels[alias],
                cursor=entry["collected"],
            )
        self._route_cache.clear()
        self.rebalances += 1
        return transfer

    def shard_ids(self) -> list[int]:
        """Live shard ids, in :meth:`shard_loads` order.  Contiguous here;
        the process-mode runtime's ids go sparse under elastic resize."""
        return list(range(self.n_shards))

    def shard_loads(self) -> list[int]:
        """Active query count per shard (the placement/rebalance signal)."""
        return [len(runtime.active_queries) for runtime in self.runtimes]

    def shard_stats(self) -> list[RunStats]:
        """Per-shard cumulative RunStats (the adaptive-rebalance signal)."""
        return [runtime.stats for runtime in self.runtimes]

    def component_queries(self, query_id: str) -> list[str]:
        """Every query that would move with ``query_id`` in a rebalance."""
        return self.runtimes[self.shard_of(query_id)].component_query_ids(
            query_id
        )

    def queries_on(self, shard: int) -> list[str]:
        """Query ids currently owned by ``shard``, in registration order."""
        return [
            query_id
            for query_id, owner in self._query_shard.items()
            if owner == shard
        ]

    # -- relay exports (cross-shard derived channels) --------------------------------

    def export_stream(
        self,
        query_id: str,
        alias: str,
        sharable_label: Optional[str] = None,
    ) -> StreamDef:
        """Re-emit ``query_id``'s output stream as the derived source
        ``alias``, consumable by queries on *any* shard.

        The owning shard's engine gets a relay tap on the query's sink
        channel; after every batch the coordinator drains the tap and
        re-emits the captured runs onto ``alias`` for every consuming
        shard, in emission order, on the batch boundary — so placements
        that split producer and consumer across shards serve byte-identical
        outputs to co-located ones.  Returns the alias stream.
        """
        if alias in self.streams:
            raise LifecycleError(f"source {alias!r} is already declared")
        owner = self.shard_of(query_id)
        from repro.shard.relay import sink_channel_of

        sink = sink_channel_of(self.runtimes[owner].plan, query_id)
        stream = StreamDef(
            alias, sink.streams[0].schema, sharable_label=sharable_label
        )
        channel = Channel.singleton(stream)
        for index, runtime in enumerate(self.runtimes):
            runtime.export_stream(
                alias,
                query_id if index == owner else None,
                stream,
                channel,
            )
        self.streams[alias] = stream
        self._channels[alias] = channel
        self._relays[alias] = {"query_id": query_id, "collected": 0}
        self._route_cache.clear()
        return stream

    def exported_streams(self) -> dict[str, str]:
        """alias → producing query id, in declaration order."""
        return {
            alias: entry["query_id"] for alias, entry in self._relays.items()
        }

    def _drain_relays(self) -> RunStats:
        """Pump every relay export until quiescent (aliases can chain:
        a consumer of one alias may itself feed another).  Relayed tuples
        are derived traffic — the returned stats carry their outputs and
        processing counters but zero *source* input events."""
        drained = RunStats()
        if not self._relays:
            return drained
        from repro.shard.relay import relay_rows

        progress = True
        while progress:
            progress = False
            for alias, entry in self._relays.items():
                owner = self._query_shard[entry["query_id"]]
                start, runs, __ = self.runtimes[owner].collect_relay(
                    alias, entry["collected"]
                )
                skip = entry["collected"] - start
                for run in runs:
                    rows = relay_rows(run)
                    if skip >= len(rows):
                        skip -= len(rows)
                        continue
                    if skip:
                        rows = rows[skip:]
                        skip = 0
                    for shard in self._consumers_of(alias):
                        drained.absorb(
                            self.runtimes[shard].process_batch(alias, rows)
                        )
                    entry["collected"] += len(rows)
                    self.relayed_events += len(rows)
                    progress = True
        drained.input_events = 0
        drained.physical_input_events = 0
        return drained

    # -- event processing ------------------------------------------------------------

    def _consumers_of(self, stream_name: str) -> tuple[int, ...]:
        shards = self._route_cache.get(stream_name)
        if shards is None:
            stream = self.streams.get(stream_name)
            if stream is None:
                raise LifecycleError(f"unknown source stream {stream_name!r}")
            shards = tuple(
                index
                for index, runtime in enumerate(self.runtimes)
                if runtime.plan.consumers_of(stream)
            )
            self._route_cache[stream_name] = shards
        return shards

    def process(self, stream_name: str, tuple_: StreamTuple) -> RunStats:
        """Push one source event to every shard consuming its stream."""
        shards = self._consumers_of(stream_name)
        merged = RunStats()
        for index in shards:
            merged.absorb(self.runtimes[index].process(stream_name, tuple_))
        merged.absorb(self._drain_relays())
        # Count the source event once, however many shards consumed it.
        merged.input_events = 1
        merged.physical_input_events = 1
        self.stats.absorb(merged)
        return merged

    def process_batch(
        self, stream_name: str, tuples: Sequence[StreamTuple]
    ) -> RunStats:
        """Push a run of source events (one stream, timestamp order) to every
        consuming shard's batched engine.  A batch boundary is the safe point
        for lifecycle changes and rebalances, exactly as in the single
        runtime."""
        shards = self._consumers_of(stream_name)
        merged = RunStats()
        for index in shards:
            merged.absorb(
                self.runtimes[index].process_batch(stream_name, tuples)
            )
        merged.absorb(self._drain_relays())
        merged.input_events = len(tuples)
        merged.physical_input_events = len(tuples)
        self.stats.absorb(merged)
        return merged

    # -- introspection ---------------------------------------------------------------

    @property
    def state_size(self) -> int:
        return sum(runtime.state_size for runtime in self.runtimes)

    @property
    def captured(self) -> dict:
        merged: dict = {}
        for runtime in self.runtimes:
            merged.update(runtime.captured)
        return merged

    @property
    def migration_log(self) -> list:
        log = []
        for runtime in self.runtimes:
            log.extend(runtime.migration_log)
        return log

    @property
    def reports(self) -> list[OptimizationReport]:
        reports = []
        for runtime in self.runtimes:
            reports.extend(runtime.reports)
        return reports

    @property
    def migrations(self) -> int:
        return sum(runtime.stats.migrations for runtime in self.runtimes)

    def shard_telemetry(self) -> list[dict]:
        """Per-shard telemetry view (empty sections unless ``observe=``):
        ``{"shard", "mop_stats", "query_heat", "peak_state"}`` — the same
        shape the process-mode runtime assembles from its ``stats`` RPC, so
        policies and exporters work against either runtime unchanged."""
        views = []
        for index, runtime in enumerate(self.runtimes):
            observer = runtime.observer
            views.append(
                {
                    "shard": index,
                    "mop_stats": runtime.mop_stats(),
                    "query_heat": runtime.query_heat(),
                    "peak_state": observer.peak_state if observer else 0,
                    "stats": runtime.stats,
                    "state_size": runtime.state_size,
                }
            )
        return views

    def metrics_registry(self):
        """A fresh :class:`~repro.obs.metrics.MetricsRegistry` holding the
        cluster view: per-shard RunStats counters plus (when observing)
        per-m-op records and the peak-state gauge."""
        from repro.obs.metrics import MetricsRegistry, publish_run_stats

        registry = MetricsRegistry()
        for index, runtime in enumerate(self.runtimes):
            publish_run_stats(registry, runtime.stats, shard=index)
            observer = runtime.observer
            if observer is not None:
                observer.publish(registry, shard=index)
        return registry

    def describe(self) -> str:
        lines = [
            f"ShardedRuntime: {len(self._query_shard)} active queries over "
            f"{self.n_shards} shards, loads={self.shard_loads()}, "
            f"state={self.state_size}"
        ]
        for index, runtime in enumerate(self.runtimes):
            lines.append(f"-- shard {index} --")
            lines.append(runtime.describe())
        return "\n".join(lines)
