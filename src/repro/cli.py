"""Command-line interface for the RUMOR engine.

Three subcommands cover the downstream-user loop:

``optimize``
    Read pipeline queries from a file (one per non-empty line, or ``---``
    separated blocks; ``name: query`` prefixes name them), print the naive
    plan, the optimized plan, the applied rules, and the cost-model estimate.

``run``
    Optimize and then execute the queries over a generated source — the
    synthetic S/T streams or the simulated performance-counter trace — and
    print per-query output counts and throughput.

``figures``
    Alias for :mod:`repro.bench.figures` (regenerate the paper's figures).

``churn``
    Serve a dynamic workload with the online lifecycle runtime: queries
    arrive and depart (Poisson churn) while the stream flows, each change
    handled by incremental re-optimization and state-preserving engine
    migration — or, with ``--full-rebuild``, by the stop-the-world baseline.
    ``--shards N`` serves over the sharded lifecycle runtime with periodic
    component rebalancing (``--policy count|throughput``); ``--process``
    pushes each shard onto a worker process behind the command protocol;
    ``--durable`` / ``--checkpoint-every N`` / ``--checkpoint-dir DIR``
    enable the durable checkpoint subsystem (crashed workers restore from
    their last checkpoint and replay the write-ahead-log suffix instead of
    losing operator state); ``--coordinator-journal DIR`` journals the
    coordinator's own state so a killed serve cold-starts with ``--resume``
    and picks up exactly where the journal ends; ``--grow-at`` /
    ``--shrink-at N`` script an elastic resize (add or drain a worker)
    after N lifecycle events; ``--observe`` switches on the telemetry
    subsystem, with ``--metrics-out`` / ``--trace-out`` / ``--events-out``
    exporting metrics snapshots, the serve's span tree, and the structured
    lifecycle event log.

``serve``
    Boot the live serving front door: an asyncio socket server accepts
    client connections pushing events over the length-prefixed JSON
    protocol (credit-based backpressure per connection), a single pump
    thread drives the runtime against the wall clock, and idle-period
    heartbeats keep failure detection running between arrivals.  With
    ``--schedule`` the server drives itself through its own socket using
    a loadgen schedule; ``--verify`` replays the recorded arrivals
    offline and asserts byte-identical outputs.  Shares the runtime
    option group with ``churn`` (``--shards`` / ``--process`` /
    ``--durable`` / ``--coordinator-journal`` / ``--observe`` …).

``loadgen``
    Drive an already-running ``serve`` front door over its socket with a
    BRAD-style epoch arrival schedule (zipf stream skew, diurnal rate
    curve, or bursty spikes); stream schemas come from the server's
    welcome message.

``bench-throughput``
    Regenerate ``BENCH_throughput.json``: events/sec for batched vs
    per-tuple dispatch across the zipf, perfmon-hybrid and churn workloads,
    asserting batched dispatch stays output-identical and clears its
    speedup floor on the optimized zipf workload.

``bench-shard``
    Regenerate ``BENCH_shard.json``: aggregate throughput of the sharded
    engine (1/2/4 shards) vs the single-engine batched baseline on the
    partitionable zipf workload, plus a live sharded churn serve with
    load-levelling rebalances — asserting sharded outputs stay identical
    and every inline cell holds its parity floor against the baseline.

``bench-obs``
    Regenerate ``BENCH_obs.json``: throughput of observed vs unobserved
    dispatch in interleaved trials, asserting telemetry stays output-
    identical and its batched-dispatch overhead under the 5% ceiling.

``bench-serve``
    Regenerate ``BENCH_serve.json``: sustained live-ingest events/sec
    with p50/p99 ship latency (verified byte-identical against offline
    replay), plus overlapped (pipelined) vs serial command fan-out on a
    multi-worker fleet.

Examples::

    python -m repro.cli optimize queries.rql
    python -m repro.cli run queries.rql --source perfmon --events 20000
    python -m repro.cli figures 10c --full
    python -m repro.cli churn --events 5000 --arrival-rate 0.02 --latency
    python -m repro.cli bench-throughput --scale smoke
    python -m repro.cli bench-shard --scale smoke
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core.cost import CostModel
from repro.core.optimizer import Optimizer
from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.errors import RumorError
from repro.lang.compiler import compile_query
from repro.lang.parser import parse_query
from repro.streams.schema import Schema
from repro.streams.sources import StreamSource
from repro.workloads.perfmon import CPU_SCHEMA, PerfmonDataset
from repro.workloads.synthetic import interleaved_events, synthetic_schema

#: Default schemas the CLI exposes as source streams.
DEFAULT_SOURCES: dict[str, Schema] = {
    "S": synthetic_schema(),
    "T": synthetic_schema(),
    "CPU": CPU_SCHEMA,
}


def load_queries(path: str) -> list[tuple[str, str]]:
    """Parse a query file into (name, text) pairs.

    Blocks are separated by lines containing only ``---``; a block may start
    with ``name:`` to name its query, otherwise queries are numbered q0, q1…
    Lines starting with ``#`` are comments.
    """
    with open(path) as handle:
        content = handle.read()
    blocks = [block.strip() for block in content.split("---")]
    queries: list[tuple[str, str]] = []
    for index, block in enumerate(blocks):
        lines = [
            line for line in block.splitlines() if not line.strip().startswith("#")
        ]
        text = "\n".join(lines).strip()
        if not text:
            continue
        name = f"q{index}"
        first = text.split("\n", 1)[0]
        if ":" in first and not first.upper().startswith("FROM"):
            name, __, rest = text.partition(":")
            name = name.strip()
            text = rest.strip()
        queries.append((name, text))
    return queries


def build_plan(
    queries: list[tuple[str, str]],
    sources: Optional[dict[str, Schema]] = None,
) -> tuple[QueryPlan, dict]:
    """Compile queries onto a fresh plan with the default source streams."""
    plan = QueryPlan()
    schemas = sources or DEFAULT_SOURCES
    streams = {
        name: plan.add_source(name, schema) for name, schema in schemas.items()
    }
    for name, text in queries:
        logical = parse_query(text, name)
        compile_query(logical, plan, streams)
    return plan, streams


def cmd_optimize(args: argparse.Namespace) -> int:
    queries = load_queries(args.queries)
    if not queries:
        print("no queries found", file=sys.stderr)
        return 1
    plan, __ = build_plan(queries)
    model = CostModel()
    naive_cost = model.plan_cost(plan)
    print("== naive plan ==")
    print(plan.describe())
    report = Optimizer().optimize(plan)
    optimized_cost = model.plan_cost(plan)
    print(f"\n== optimized plan ({report}) ==")
    print(plan.describe())
    print(
        f"\nestimated cost: {naive_cost:.2f} -> {optimized_cost:.2f} "
        f"({naive_cost / max(optimized_cost, 1e-9):.1f}x cheaper)"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import numpy as np

    queries = load_queries(args.queries)
    if not queries:
        print("no queries found", file=sys.stderr)
        return 1
    plan, streams = build_plan(queries)
    Optimizer().optimize(plan)

    if args.source == "synthetic":
        events = interleaved_events(
            synthetic_schema(), args.events, np.random.default_rng(args.seed)
        )
        by_name: dict[str, list] = {}
        for name, tuple_ in events:
            by_name.setdefault(name, []).append(tuple_)
        sources = [
            StreamSource(plan.channel_of(streams[name]), tuples,
                         member_streams=[streams[name]])
            for name, tuples in by_name.items()
        ]
    else:  # perfmon
        processes = max(1, args.events // 600)
        seconds = max(1, args.events // max(1, processes))
        dataset = PerfmonDataset(
            processes=processes, duration_seconds=seconds, seed=args.seed
        )
        sources = [
            StreamSource(
                plan.channel_of(streams["CPU"]),
                list(dataset.generate()),
                member_streams=[streams["CPU"]],
            )
        ]

    engine = StreamEngine(plan, capture_outputs=args.show_outputs > 0)
    stats = engine.run(sources)
    print(stats)
    for query_id, count in sorted(stats.outputs_by_query.items()):
        print(f"  {query_id}: {count} outputs")
        if args.show_outputs:
            for output in engine.captured.get(query_id, [])[: args.show_outputs]:
                print(f"    {output.as_dict()} @ {output.ts}")
    return 0


def _add_runtime_options(parser: argparse.ArgumentParser) -> None:
    """Attach the shared runtime option group to a subcommand.

    ``churn``, ``serve`` and the bench subcommands that boot a live
    runtime all accept the same knobs; keeping them in one group means
    one help text, one set of defaults, and one
    :func:`_runtime_config_from_args` translation into
    :class:`~repro.runtime.RuntimeConfig`.
    """
    group = parser.add_argument_group(
        "runtime options",
        "shared across churn/serve/bench subcommands; validated together "
        "through repro.RuntimeConfig",
    )
    group.add_argument(
        "--shards",
        type=int,
        default=None,
        help="serve over N shards with the sharded lifecycle runtime "
        "(default: 1, or 2 with --process)",
    )
    group.add_argument(
        "--process",
        action="store_true",
        help="run each shard on a worker process (command protocol + "
        "cross-process rebalance)",
    )
    group.add_argument(
        "--full-rebuild",
        action="store_true",
        help="stop-the-world baseline: full re-optimization + engine rebuild "
        "on every lifecycle change (loses operator state)",
    )
    group.add_argument(
        "--latency",
        action="store_true",
        help="track and report per-query mean output latency",
    )
    group.add_argument(
        "--durable",
        action="store_true",
        help="process mode: keep a write-ahead log so a crashed worker "
        "recovers by replay instead of blank re-registration",
    )
    group.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="process mode: checkpoint every N batches (implies --durable); "
        "recovery restores the latest checkpoint and replays only the log "
        "suffix",
    )
    group.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="persist checkpoints as files under DIR (implies --durable)",
    )
    group.add_argument(
        "--coordinator-journal",
        default=None,
        metavar="DIR",
        help="process mode: journal the coordinator's own state (placement, "
        "WAL mirror, query catalog) under DIR alongside the checkpoints, "
        "making the whole serve restartable (implies --durable)",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="cold-start the coordinator from a previous serve's "
        "--coordinator-journal DIR and serve only the unserved tail of "
        "the schedule",
    )
    group.add_argument(
        "--observe",
        action="store_true",
        help="enable the telemetry subsystem: per-m-op metrics on every "
        "engine, wire-propagated tracing in process mode, and busy-time "
        "heat for the throughput policy",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the merged metrics snapshot to PATH at the end of the "
        "serve (.jsonl for JSON lines, anything else Prometheus text)",
    )
    group.add_argument(
        "--metrics-every",
        type=int,
        default=0,
        metavar="N",
        help="additionally rewrite --metrics-out every N lifecycle events "
        "(a periodic flush a scraper can poll)",
    )
    group.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="process mode with --observe: write the serve's span tree "
        "(coordinator + workers) as JSONL",
    )
    group.add_argument(
        "--events-out",
        default=None,
        metavar="PATH",
        help="process mode: write the structured lifecycle event log "
        "(register/unregister/rebalance/checkpoint/recovery) as JSONL",
    )


def _runtime_config_from_args(
    args: argparse.Namespace,
    sources: Optional[dict[str, Schema]] = None,
    capture_outputs: bool = False,
):
    """Translate the shared runtime option group into a RuntimeConfig.

    Validation lives in :meth:`RuntimeConfig.validate`, so ``churn`` and
    ``serve`` reject a bad flag combination with the same actionable
    one-liner (e.g. ``--resume`` without ``--coordinator-journal``).
    CLI-only flags (``--grow-at``, ``--trace-out``) are checked by their
    subcommands.
    """
    from repro.runtime import RuntimeConfig

    shards = args.shards
    if shards is None:
        # Default: unsharded serve; a bare --process gets two workers (an
        # explicit --shards 1 --process still means one worker).
        shards = 2 if args.process else 1
    config = RuntimeConfig(
        sources=sources,
        shards=shards,
        process=args.process,
        capture_outputs=capture_outputs,
        track_latency=args.latency,
        incremental=not args.full_rebuild,
        observe=args.observe,
        durable=args.durable,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        journal=args.coordinator_journal,
        resume=args.resume,
    )
    config.validate()
    return config


def _dump_metrics(runtime, path: str) -> None:
    """Write the runtime's current metrics snapshot to ``path``.

    Format follows the extension: ``.jsonl`` gets JSON lines, anything else
    the Prometheus text exposition.  Each call rewrites the file with the
    latest cumulative snapshot (the node-exporter convention), so periodic
    flushes are safe to point a scraper at.
    """
    from repro.obs.metrics import to_jsonl, to_prometheus

    snapshot = runtime.metrics_registry().snapshot()
    text = (
        to_jsonl(snapshot) if path.endswith(".jsonl")
        else to_prometheus(snapshot)
    )
    with open(path, "w") as handle:
        handle.write(text)


def cmd_churn(args: argparse.Namespace) -> int:
    from repro.runtime import open_runtime
    from repro.workloads.churn import ChurnWorkload, drive

    workload = ChurnWorkload(
        arrival_rate=args.arrival_rate,
        mean_lifetime=args.mean_lifetime,
        horizon=args.events,
        initial_queries=args.initial_queries,
        seed=args.seed,
    )
    sources = {"S": workload.schema, "T": workload.schema}
    config = _runtime_config_from_args(args, sources)
    if (args.grow_at or args.shrink_at) and not args.process:
        from repro.errors import LifecycleError

        raise LifecycleError(
            "--grow-at/--shrink-at require --process (only the "
            "process-mode coordinator resizes its worker fleet)"
        )
    if (args.trace_out or args.events_out) and not args.process:
        from repro.errors import LifecycleError

        raise LifecycleError(
            "--trace-out/--events-out require --process (spans and the "
            "structured event log live on the process-mode coordinator)"
        )
    if args.trace_out and not args.observe:
        from repro.errors import LifecycleError

        raise LifecycleError("--trace-out requires --observe")
    if config.resolved_shards > 1 or args.process:
        return _churn_sharded(args, config, workload)
    runtime = open_runtime(config)
    mode = "full-rebuild" if args.full_rebuild else "incremental"
    print(
        f"churn: {workload.registrations()} queries over {args.events} events "
        f"({mode} mode)"
    )
    applied = 0
    for event in drive(runtime, workload.stream_events(), workload.schedule()):
        applied += 1
        if args.metrics_out and args.metrics_every:
            if applied % args.metrics_every == 0:
                _dump_metrics(runtime, args.metrics_out)
        if args.verbose:
            print(f"  [{event.at:>6}] {event.kind:<10} {event.query_id:<6} "
                  f"active={len(runtime.active_queries)} "
                  f"state={runtime.state_size}")
    stats = runtime.stats
    print(stats)
    if args.metrics_out:
        _dump_metrics(runtime, args.metrics_out)
        print(f"  wrote metrics to {args.metrics_out}")
    print(
        f"  migrations: {stats.migrations}, "
        f"final active queries: {len(runtime.active_queries)}, "
        f"final state: {runtime.state_size}"
    )
    reused = sum(m.reused_executors for m in runtime.migration_log)
    built = sum(m.built_executors for m in runtime.migration_log)
    migration_seconds = sum(m.elapsed_seconds for m in runtime.migration_log)
    print(
        f"  executors reused: {reused}, built: {built}, "
        f"migration overhead: {migration_seconds * 1e3:.1f}ms"
    )
    print(
        f"  m-ops considered by re-optimization: "
        f"{sum(report.mops_considered for report in runtime.reports)}"
    )
    if args.latency:
        for query_id in sorted(stats.outputs_by_query):
            mean = stats.mean_latency(query_id)
            print(
                f"  {query_id}: {stats.outputs_by_query[query_id]} outputs, "
                f"mean latency {mean * 1e6:.1f}µs"
            )
    return 0


def _churn_sharded(args: argparse.Namespace, config, workload) -> int:
    """Serve the churn schedule over shards — in-process or worker processes."""
    from repro.runtime import open_runtime
    from repro.shard import QueryCountPolicy, ThroughputPolicy
    from repro.workloads.churn import drive_sharded

    stream_events = workload.stream_events()
    churn_events = workload.schedule()
    runtime = open_runtime(config)
    if args.process and args.resume:
        from repro.workloads.churn import resume_tail

        stream_events, churn_events = resume_tail(
            stream_events,
            churn_events,
            runtime.input_positions(),
            runtime.lifecycle_ops,
        )
        print(
            f"  resumed from {args.coordinator_journal}: "
            f"{len(stream_events)} stream events and "
            f"{len(churn_events)} lifecycle events left to serve"
        )
    heat = "busy" if args.observe else "outputs"
    policy = (
        ThroughputPolicy(heat=heat)
        if args.policy == "throughput"
        else QueryCountPolicy()
    )
    mode = "process" if args.process else "in-process"
    print(
        f"churn: {workload.registrations()} queries over {args.events} events, "
        f"{config.resolved_shards} shards ({mode} mode, {args.policy} rebalancing "
        f"every {args.rebalance_every} lifecycle events)"
    )
    try:
        applied = 0
        for event in drive_sharded(
            runtime,
            stream_events,
            churn_events,
            rebalance_every=args.rebalance_every,
            policy=policy,
            # Process mode: keep failure detection alive across idle gaps
            # (the inline per-event heartbeat only fires when data flows).
            heartbeat_interval=0.25 if args.process else 0.0,
        ):
            applied += 1
            if args.grow_at and applied == args.grow_at:
                new_shard = runtime.add_worker(policy=policy)
                print(
                    f"  [{event.at:>6}] scale-up: shard {new_shard} joined "
                    f"(loads={runtime.shard_loads()})"
                )
            if args.shrink_at and applied == args.shrink_at:
                if runtime.n_shards > 1:
                    departing = min(
                        runtime.shard_ids(),
                        key=lambda shard: len(runtime.queries_on(shard)),
                    )
                    retired = runtime.remove_worker(departing, policy=policy)
                    print(
                        f"  [{event.at:>6}] scale-down: shard "
                        f"{retired['shard']} retired, drained "
                        f"{len(retired['moved'])} queries "
                        f"(loads={runtime.shard_loads()})"
                    )
                else:
                    print("  --shrink-at skipped: only one worker left")
            if args.metrics_out and args.metrics_every:
                if applied % args.metrics_every == 0:
                    _dump_metrics(runtime, args.metrics_out)
            if args.verbose:
                print(
                    f"  [{event.at:>6}] {event.kind:<10} {event.query_id:<6} "
                    f"loads={runtime.shard_loads()}"
                )
        stats = (
            runtime.collect_stats() if args.process else runtime.stats
        )
        print(stats)
        print(
            f"  final active queries: {len(runtime.active_queries)}, "
            f"loads: {runtime.shard_loads()}, "
            f"rebalances: {runtime.rebalances}, "
            f"oversized alerts: {policy.oversized_alerts}"
        )
        if args.process:
            print(f"  crash recoveries: {runtime.crash_recoveries}")
            for report in runtime.recovery_log:
                print(f"    {report}")
            if runtime.durable:
                runtime.collect_checkpoints()
                print(
                    f"  checkpoints stored: {runtime.checkpoints_stored} "
                    f"({runtime.checkpoint_failures} failures), "
                    f"wal spans: "
                    f"{[runtime.wal_span(s) for s in runtime.shard_ids()]}"
                )
            if args.coordinator_journal:
                print(
                    f"  coordinator journal: {args.coordinator_journal} "
                    f"({runtime._journal.record_count()} records since last "
                    f"snapshot); resume with --resume"
                )
            print(runtime.describe())
        if args.metrics_out:
            _dump_metrics(runtime, args.metrics_out)
            print(f"  wrote metrics to {args.metrics_out}")
        if args.trace_out:
            # Drain the workers' spans into the coordinator recorder first
            # so the export holds the complete coordinator→worker tree.
            runtime.shard_telemetry()
            with open(args.trace_out, "w") as handle:
                handle.write(runtime.recorder.to_jsonl())
            print(
                f"  wrote {len(runtime.recorder.spans)} spans to "
                f"{args.trace_out}"
            )
        if args.events_out:
            with open(args.events_out, "w") as handle:
                handle.write(runtime.events.to_jsonl())
            print(
                f"  wrote {len(runtime.events.events)} events to "
                f"{args.events_out}"
            )
    finally:
        if args.process:
            runtime.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import json
    import pickle
    import time

    from repro.runtime import open_runtime
    from repro.serve import (
        IngestServer,
        ServeSession,
        build_schedule,
        run_loadgen,
        verify_equivalence,
    )

    sources = dict(DEFAULT_SOURCES)
    config = _runtime_config_from_args(
        args, sources, capture_outputs=args.verify
    )
    runtime = open_runtime(config)
    exit_code = 0
    try:
        session = ServeSession(
            runtime, record=True, heartbeat_interval=args.heartbeat_interval
        )
        registered = 0
        if args.queries:
            for name, text in load_queries(args.queries):
                session.submit_register(text, name)
                registered += 1
        mode = "process" if args.process else "in-process"
        with IngestServer(
            session,
            host=args.host,
            port=args.port,
            window=args.window,
            max_run=args.max_run,
        ) as server:
            host, port = server.address
            print(
                f"serving {sorted(sources)} on {host}:{port} "
                f"({config.resolved_shards} shards, {mode} mode, "
                f"{registered} queries)"
            )
            if args.schedule:
                schedule = build_schedule(
                    args.schedule,
                    args.streams,
                    epochs=args.epochs,
                    events_per_epoch=args.events_per_epoch,
                    epoch_seconds=args.epoch_seconds,
                    seed=args.seed,
                )
                stats = run_loadgen(
                    host,
                    port,
                    schedule,
                    sources,
                    seed=args.seed,
                    speedup=args.speedup,
                )
                print(
                    f"  loadgen: {stats['sent_events']} events sent, "
                    f"{stats['accepted_events']} accepted, "
                    f"{stats['credit_waits']} flow-control waits"
                )
            else:
                print(
                    f"  accepting clients for {args.duration:.1f}s "
                    f"(Ctrl-C to finish early)"
                )
                try:
                    time.sleep(args.duration)
                except KeyboardInterrupt:
                    print("  interrupted; draining")
            ingest_stats = server.stats()
        report = session.finish()
        print(
            f"  served {report.events} events in {report.runs} runs "
            f"({report.events_per_second:.0f} ev/s, ship p50 "
            f"{report.ship_p50_ms:.2f}ms / p99 {report.ship_p99_ms:.2f}ms, "
            f"{report.lifecycle_ops} lifecycle ops, "
            f"{report.heartbeats} idle heartbeats)"
        )
        if args.metrics_out:
            from repro.obs.metrics import publish_serve_report

            registry = runtime.metrics_registry()
            publish_serve_report(registry, report)
            from repro.obs.metrics import to_jsonl, to_prometheus

            snapshot = registry.snapshot()
            text = (
                to_jsonl(snapshot)
                if args.metrics_out.endswith(".jsonl")
                else to_prometheus(snapshot)
            )
            with open(args.metrics_out, "w") as handle:
                handle.write(text)
            print(f"  wrote metrics to {args.metrics_out}")
        if args.arrivals_out:
            with open(args.arrivals_out, "wb") as handle:
                pickle.dump(session.log.entries, handle)
            print(
                f"  wrote {len(session.log.entries)} arrival-log entries "
                f"to {args.arrivals_out}"
            )
        if args.verify:
            result = verify_equivalence(
                runtime.captured, session.log, sources
            )
            print(
                f"  verified: {result['outputs']} outputs across "
                f"{result['queries']} queries byte-identical to offline "
                f"replay"
            )
        if args.report_out:
            payload = report.to_dict()
            payload["ingest"] = ingest_stats
            with open(args.report_out, "w") as handle:
                json.dump(payload, handle, indent=2)
            print(f"  wrote report to {args.report_out}")
    finally:
        close = getattr(runtime, "close", None)
        if close is not None:
            close()
    return exit_code


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve import build_schedule, run_loadgen

    schedule = build_schedule(
        args.schedule,
        args.streams,
        epochs=args.epochs,
        events_per_epoch=args.events_per_epoch,
        epoch_seconds=args.epoch_seconds,
        seed=args.seed,
    )
    print(
        f"loadgen: {args.schedule} schedule, {schedule.total_events} events "
        f"over {len(schedule.epochs)} epochs -> {args.host}:{args.port} "
        f"(speedup {args.speedup:g}x)"
    )
    stats = run_loadgen(
        args.host,
        args.port,
        schedule,
        sources=None,  # schemas come from the server's welcome
        seed=args.seed,
        speedup=args.speedup,
    )
    print(
        f"  sent {stats['sent_events']} events, server accepted "
        f"{stats['accepted_events']}, {stats['credit_waits']} "
        f"flow-control waits"
    )
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench.figures import main as figures_main

    argv = list(args.figure)
    if args.full:
        argv.append("--full")
    return figures_main(argv)


def cmd_bench_throughput(args: argparse.Namespace) -> int:
    from repro.bench.throughput import main as throughput_main

    return throughput_main(["--scale", args.scale, "--output", args.output])


def cmd_bench_shard(args: argparse.Namespace) -> int:
    from repro.bench.shard import main as shard_main

    return shard_main(["--scale", args.scale, "--output", args.output])


def cmd_bench_obs(args: argparse.Namespace) -> int:
    from repro.bench.obs import main as obs_main

    return obs_main(["--scale", args.scale, "--output", args.output])


def cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.bench.serve import main as serve_main

    return serve_main(["--scale", args.scale, "--output", args.output])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RUMOR rule-based multi-query optimizer CLI"
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="configure logging for the repro tree (one consistent "
        "formatter: timestamp, level, worker process name, logger)",
    )
    parser.add_argument(
        "--log-format",
        choices=["text", "json"],
        default="text",
        help="log line layout: human-readable text or one JSON object "
        "per record",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    optimize = commands.add_parser(
        "optimize", help="compile + optimize queries; print plans and cost"
    )
    optimize.add_argument("queries", help="query file (pipeline language)")
    optimize.set_defaults(handler=cmd_optimize)

    run = commands.add_parser("run", help="optimize and execute queries")
    run.add_argument("queries", help="query file (pipeline language)")
    run.add_argument(
        "--source",
        choices=["synthetic", "perfmon"],
        default="synthetic",
        help="input generator (default: synthetic S/T streams)",
    )
    run.add_argument("--events", type=int, default=10_000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--show-outputs",
        type=int,
        default=0,
        metavar="N",
        help="print the first N output tuples per query",
    )
    run.set_defaults(handler=cmd_run)

    figures = commands.add_parser(
        "figures", help="regenerate the paper's evaluation figures"
    )
    figures.add_argument("figure", nargs="*", default=["all"])
    figures.add_argument("--full", action="store_true")
    figures.set_defaults(handler=cmd_figures)

    churn = commands.add_parser(
        "churn",
        help="serve a Poisson register/unregister workload with the online "
        "lifecycle runtime",
    )
    churn.add_argument("--events", type=int, default=5_000)
    churn.add_argument(
        "--arrival-rate",
        type=float,
        default=0.01,
        help="query arrivals per timestamp unit (Poisson)",
    )
    churn.add_argument(
        "--mean-lifetime",
        type=float,
        default=1_000.0,
        help="mean query lifetime in timestamp units (exponential)",
    )
    churn.add_argument("--initial-queries", type=int, default=4)
    churn.add_argument("--seed", type=int, default=0)
    _add_runtime_options(churn)
    churn.add_argument(
        "--rebalance-every",
        type=int,
        default=5,
        help="attempt a component rebalance every N lifecycle events "
        "(sharded modes only)",
    )
    churn.add_argument(
        "--policy",
        choices=["count", "throughput"],
        default="count",
        help="rebalance policy: query-count levelling or adaptive "
        "busy-time (move the hottest component off the slowest shard)",
    )
    churn.add_argument(
        "--grow-at",
        type=int,
        default=0,
        metavar="N",
        help="process mode: add one worker after N applied lifecycle "
        "events (scripted elastic scale-out)",
    )
    churn.add_argument(
        "--shrink-at",
        type=int,
        default=0,
        metavar="N",
        help="process mode: drain and retire one worker after N applied "
        "lifecycle events (scripted elastic scale-in)",
    )
    churn.add_argument("--verbose", action="store_true")
    churn.set_defaults(handler=cmd_churn)

    serve = commands.add_parser(
        "serve",
        help="boot the live serving front door: an async socket server "
        "feeding a wall-clock-driven runtime, with credit-based "
        "backpressure and byte-identical replay verification",
    )
    serve.add_argument(
        "queries",
        nargs="?",
        default=None,
        help="optional query file registered at boot (pipeline language)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (0 binds an ephemeral port and prints it)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long to accept external clients (ignored with --schedule)",
    )
    serve.add_argument(
        "--schedule",
        choices=["zipf", "diurnal", "bursty"],
        default=None,
        help="self-drive: run the named loadgen schedule against this "
        "server's own socket instead of waiting for external clients",
    )
    serve.add_argument("--epochs", type=int, default=10)
    serve.add_argument("--events-per-epoch", type=int, default=500)
    serve.add_argument("--epoch-seconds", type=float, default=1.0)
    serve.add_argument(
        "--speedup",
        type=float,
        default=1.0,
        help="wall-clock compression for --schedule (10 = run the "
        "schedule 10x faster than its declared epoch timing)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--streams",
        nargs="+",
        default=["S", "T"],
        help="streams the self-drive schedule targets",
    )
    serve.add_argument(
        "--window",
        type=int,
        default=1024,
        help="per-connection flow-control credit window (events)",
    )
    serve.add_argument(
        "--max-run",
        type=int,
        default=256,
        help="assembled run size before a buffered stream flushes",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.25,
        help="idle heartbeat cadence in seconds (failure detection "
        "independent of data arrival)",
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help="capture outputs and assert the serve is byte-identical to "
        "an offline replay of the recorded arrivals",
    )
    serve.add_argument(
        "--arrivals-out",
        default=None,
        metavar="PATH",
        help="pickle the recorded arrival log to PATH",
    )
    serve.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write the serve report (throughput, latency percentiles, "
        "ingest stats) as JSON",
    )
    _add_runtime_options(serve)
    serve.set_defaults(handler=cmd_serve)

    loadgen = commands.add_parser(
        "loadgen",
        help="drive an already-running serve front door over its socket "
        "with a BRAD-style epoch arrival schedule",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument(
        "--schedule",
        choices=["zipf", "diurnal", "bursty"],
        default="zipf",
    )
    loadgen.add_argument("--epochs", type=int, default=10)
    loadgen.add_argument("--events-per-epoch", type=int, default=500)
    loadgen.add_argument("--epoch-seconds", type=float, default=1.0)
    loadgen.add_argument("--speedup", type=float, default=1.0)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--streams",
        nargs="+",
        default=["S", "T"],
        help="streams the schedule targets (schemas come from the "
        "server's welcome message)",
    )
    loadgen.set_defaults(handler=cmd_loadgen)

    bench = commands.add_parser(
        "bench-throughput",
        help="measure batched vs per-tuple dispatch throughput and write "
        "BENCH_throughput.json",
    )
    bench.add_argument(
        "--scale",
        choices=["full", "smoke"],
        default="full",
        help="smoke: reduced event counts for CI",
    )
    bench.add_argument("--output", default="BENCH_throughput.json")
    bench.set_defaults(handler=cmd_bench_throughput)

    bench_shard = commands.add_parser(
        "bench-shard",
        help="measure sharded vs single-engine batched throughput and write "
        "BENCH_shard.json",
    )
    bench_shard.add_argument(
        "--scale",
        choices=["full", "smoke"],
        default="full",
        help="smoke: reduced event counts for CI",
    )
    bench_shard.add_argument("--output", default="BENCH_shard.json")
    bench_shard.set_defaults(handler=cmd_bench_shard)

    bench_obs = commands.add_parser(
        "bench-obs",
        help="measure telemetry overhead (observed vs unobserved dispatch) "
        "and write BENCH_obs.json",
    )
    bench_obs.add_argument(
        "--scale",
        choices=["full", "smoke"],
        default="full",
        help="smoke: reduced event counts for CI",
    )
    bench_obs.add_argument("--output", default="BENCH_obs.json")
    bench_obs.set_defaults(handler=cmd_bench_obs)

    bench_serve = commands.add_parser(
        "bench-serve",
        help="measure sustained live-ingest throughput and latency, and "
        "overlapped vs serial command pipelining; write BENCH_serve.json",
    )
    bench_serve.add_argument(
        "--scale",
        choices=["full", "smoke"],
        default="full",
        help="smoke: reduced event counts for CI",
    )
    bench_serve.add_argument("--output", default="BENCH_serve.json")
    bench_serve.set_defaults(handler=cmd_bench_serve)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        from repro.obs.logsetup import configure_logging

        configure_logging(args.log_level, args.log_format)
    try:
        return args.handler(args)
    except RumorError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
