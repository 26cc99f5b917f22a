"""Sharded execution benchmark: what the shard layer costs and what it buys.

Measures the :class:`~repro.shard.ShardedEngine` against the single-engine
batched baseline on the **partitionable zipf workload**: ``k`` independent
source streams, each with its own set of Zipf-constant selection queries.
After optimization the plan decomposes into ``k`` entry-channel connected
components, the unit the shard planner places.

The baseline is not handicapped: ``StreamEngine.run`` merges its sources
per component (:func:`~repro.streams.sources.group_sources`), so the single
engine drains each of the ``k`` independent sources in full-length runs,
exactly as a shard does.  What is left to measure:

- **inline parity** — the ``sharded_{1,2,4}`` cells run the shards one after
  another in the calling process (``parallel=False``, whatever the host).
  They do the single engine's work plus planning and routing, so they can
  at best tie it; the gate is a *floor* on how much the shard layer may
  cost, not a speedup.  (Before the single engine grouped its merge, these
  cells read 0.82x / 0.90x / 7.08x: the cliff at 4 shards was the baseline
  collapsing to runs of length 1, not sharding.)
- **process placement** — the ``sharded_4_process_columnar`` cell forks
  workers (at most one per CPU) behind the wire router; any lead it shows
  over ``single_batched`` is the data plane and, on a multi-core host,
  parallelism.  ``meta.cpu_count`` and each cell's ``mode`` are recorded so
  a single-core recording is never read as a parallel one.

Every cell re-checks that the sharded run's per-query outputs are identical
to the single-engine baseline.  Results land in ``BENCH_shard.json``; the
run fails if any inline cell drops below the scale's parity floor (0.8x of
the single-engine batched baseline at full scale), or on the data-plane and
bridge-cut gates below.

Regenerate::

    PYTHONPATH=src python -m repro.cli bench-shard
    PYTHONPATH=src python -m repro.cli bench-shard --scale smoke   # CI

or run the standalone script ``benchmarks/bench_shard.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.optimizer import Optimizer
from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.engine.metrics import RunStats
from repro.operators.expressions import attr, lit, right
from repro.operators.predicates import Comparison, DurationWithin, conjunction
from repro.operators.select import Selection
from repro.operators.sequence import Sequence
from repro.runtime.config import open_runtime
from repro.shard import ShardedEngine, fork_available
from repro.streams.columns import ColumnBatch
from repro.streams.sources import ColumnRunSource, StreamSource
from repro.streams.tuples import StreamTuple
from repro.workloads.churn import ChurnWorkload, drive_batched, drive_sharded
from repro.workloads.synthetic import synthetic_schema
from repro.workloads.zipf import ZipfSampler

#: Parity floor: every inline ``sharded_{1,2,4}`` cell over the single-engine
#: batched baseline on the partitionable zipf workload, full scale.
TARGET_PARITY = 0.8
#: Relaxed floor for the CI smoke run (fewer queries, two repeats).  Ten
#: smoke runs on a 2-core host read, weakest cell per run: 1.07 1.01 1.18
#: 1.10 1.10 1.14 1.13 1.10 1.09 1.14 (all cells 1.01–1.25).  0.7 is the
#: worst reading less 30%, the size of that host's hypervisor-steal bursts.
SMOKE_PARITY = 0.7
#: The inline cells the parity floor covers.
PARITY_SHARDS = (1, 2, 4)
#: Data-plane acceptance floor: process-mode serving over the columnar
#: transport must at least match the 4-shard *inline* drain (full scale).
#: Startup (fork + ready handshake) is excluded — ``spawn_seconds`` is
#: reported separately — so this compares steady-state drains.
TARGET_PROCESS_RATIO = 1.0
#: Relaxed ratio for the CI smoke run: at smoke event counts a single
#: queue/ring hop is a visible fraction of the whole drain.
SMOKE_PROCESS_RATIO = 0.5
#: Bridge-cut acceptance floor: the 4-shard serve of the bridge workload
#: with splitting enabled must beat the forced whole-component placement
#: by this multiple (ISSUE 10 acceptance: ≥ 1.5x at full scale).
TARGET_BRIDGE_RATIO = 1.5
#: Relaxed bridge floor for the CI smoke run — split may never fall below
#: the unsplit placement, but the 1.5x margin is reserved for full scale.
SMOKE_BRIDGE_RATIO = 1.0


@dataclass
class ShardScale:
    """Knobs controlling benchmark size."""

    name: str = "full"
    zipf_sources: int = 4
    zipf_queries_per_source: int = 75
    zipf_events: int = 40_000
    churn_events: int = 2_000
    churn_initial: int = 6
    churn_shards: int = 2
    bridge_queries_per_source: int = 150
    bridge_post_queries: int = 10
    bridge_events: int = 40_000
    repeats: int = 3
    max_batch: int = 4096
    min_parity: float = TARGET_PARITY
    min_process_ratio: float = TARGET_PROCESS_RATIO
    min_bridge_ratio: float = TARGET_BRIDGE_RATIO

    @classmethod
    def full(cls) -> "ShardScale":
        return cls()

    @classmethod
    def smoke(cls) -> "ShardScale":
        """Reduced scale for the CI smoke job.

        The zipf drain keeps the full event count: the single engine clears
        8 000 events in ~3 ms, too short for any ratio against it to mean
        anything (the process-vs-inline ratio read 0.31–0.62 there, against
        1.11–2.24 over sixteen runs at this size).
        """
        return cls(
            name="smoke",
            zipf_sources=4,
            zipf_queries_per_source=40,
            zipf_events=40_000,
            churn_events=600,
            churn_initial=4,
            bridge_events=8_000,
            repeats=2,
            min_parity=SMOKE_PARITY,
            min_process_ratio=SMOKE_PROCESS_RATIO,
            min_bridge_ratio=SMOKE_BRIDGE_RATIO,
        )


# -- partitionable zipf workload -----------------------------------------------------


def partitionable_zipf_plan(
    num_sources: int, queries_per_source: int, seed: int = 7
) -> tuple[QueryPlan, list]:
    """``num_sources`` independent streams, each with its own Zipf-constant
    selection set — optimizes to one predicate-index m-op per source, i.e.
    ``num_sources`` connected components."""
    schema = synthetic_schema()
    rng = np.random.default_rng(seed)
    plan = QueryPlan()
    sources = [plan.add_source(f"S{i}", schema) for i in range(num_sources)]
    for index, source in enumerate(sources):
        constants = ZipfSampler(0, 999, 1.5, rng).sample(queries_per_source)
        for position, constant in enumerate(constants):
            query_id = f"q{index}_{position}"
            out = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(int(constant)))),
                [source],
                query_id=query_id,
            )
            plan.mark_output(out, query_id)
    Optimizer().optimize(plan)
    return plan, sources


def interleaved_zipf_tuples(
    num_sources: int, count: int, seed: int = 8
) -> list[list[StreamTuple]]:
    """Per-source tuple lists with globally interleaved timestamps
    (tuple ``ts`` goes to source ``ts % k`` — every run of a global merge
    would have length 1; a per-component merge never sees the interleave)."""
    schema = synthetic_schema()
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1000, size=(count, len(schema)))
    per_source: list[list[StreamTuple]] = [[] for __ in range(num_sources)]
    for ts in range(count):
        per_source[ts % num_sources].append(
            StreamTuple(schema, tuple(int(v) for v in values[ts]), ts)
        )
    return per_source


def _make_sources(plan, sources, per_source):
    return [
        StreamSource(plan.channel_of(source), tuples)
        for source, tuples in zip(sources, per_source)
    ]


def _require_equivalent(name: str, baseline: RunStats, candidate: RunStats) -> None:
    if baseline.outputs_by_query != candidate.outputs_by_query:
        raise AssertionError(
            f"{name}: sharded outputs diverged from the single-engine "
            f"baseline"
        )
    if baseline.input_events != candidate.input_events:
        raise AssertionError(
            f"{name}: sharded input accounting diverged "
            f"({baseline.input_events} != {candidate.input_events})"
        )


def bench_partitionable_zipf(scale: ShardScale) -> dict:
    per_source = interleaved_zipf_tuples(scale.zipf_sources, scale.zipf_events)
    result: dict = {
        "sources": scale.zipf_sources,
        "queries": scale.zipf_sources * scale.zipf_queries_per_source,
        "events": scale.zipf_events,
        "cells": {},
    }

    def build():
        return partitionable_zipf_plan(
            scale.zipf_sources, scale.zipf_queries_per_source
        )

    # Single-engine batched baseline.
    best_baseline: Optional[RunStats] = None
    for __ in range(scale.repeats):
        plan, sources = build()
        engine = StreamEngine(plan, max_batch=scale.max_batch)
        stats = engine.run(_make_sources(plan, sources, per_source))
        if best_baseline is None or stats.throughput > best_baseline.throughput:
            best_baseline = stats
    result["cells"]["single_batched"] = {
        "events_per_sec": round(best_baseline.throughput, 1),
        "elapsed_seconds": round(best_baseline.elapsed_seconds, 6),
        "input_events": best_baseline.input_events,
        "output_events": best_baseline.output_events,
    }

    # Inline cells: shards drained one after another in this process, on
    # every host — the parity floor measures the shard layer, not the cores.
    for n_shards in sorted({*PARITY_SHARDS, scale.zipf_sources}):
        best = None
        mode = None
        for __ in range(scale.repeats):
            plan, sources = build()
            sharded = ShardedEngine(
                plan, n_shards, parallel=False, max_batch=scale.max_batch
            )
            run = sharded.run(_make_sources(plan, sources, per_source))
            if best is None or run.throughput > best.throughput:
                best, mode = run, run.mode
        aggregate = best.aggregate
        _require_equivalent(
            f"zipf/shards={n_shards}", best_baseline, aggregate
        )
        result["cells"][f"sharded_{n_shards}"] = {
            "events_per_sec": round(best.throughput, 1),
            "wall_seconds": round(best.wall_seconds, 6),
            "busy_seconds": round(best.busy_seconds, 6),
            "mode": mode,
            "output_events": aggregate.output_events,
            "speedup_vs_single_batched": round(
                best.throughput / max(best_baseline.throughput, 1e-9), 2
            ),
        }

    # Process-mode data-plane cell: 4 forked workers behind the wire
    # router (packed columns + shared-memory rings), fed by columnar-native
    # sources so nothing materializes rows on the way in.  wall_seconds is
    # the drain only; startup is reported as spawn_seconds.
    def _columnar_sources(plan, sources):
        built = []
        for source, tuples in zip(sources, per_source):
            channel = plan.channel_of(source)
            batch = ColumnBatch.from_rows(
                tuples[0].schema, tuples, channel.full_mask
            )
            built.append(ColumnRunSource(channel, batch))
        return built

    if fork_available():
        best = None
        for __ in range(scale.repeats):
            plan, sources = build()
            sharded = ShardedEngine(
                plan, 4, parallel=True, feed="router",
                max_batch=scale.max_batch,
            )
            run = sharded.run(_columnar_sources(plan, sources))
            if best is None or run.throughput > best.throughput:
                best = run
        aggregate = best.aggregate
        _require_equivalent("zipf/process_columnar", best_baseline, aggregate)
        result["cells"]["sharded_4_process_columnar"] = {
            "events_per_sec": round(best.throughput, 1),
            "wall_seconds": round(best.wall_seconds, 6),
            "spawn_seconds": round(best.spawn_seconds, 6),
            "busy_seconds": round(best.busy_seconds, 6),
            "mode": best.mode,
            "output_events": aggregate.output_events,
            "speedup_vs_single_batched": round(
                best.throughput / max(best_baseline.throughput, 1e-9), 2
            ),
        }
    return result


# -- bridge workload: split vs forced whole-component placement ----------------------


def bridge_plan(scale: ShardScale, seed: int = 11) -> tuple[QueryPlan, list]:
    """Two bridge-shaped components over four sources.

    Per component: a heavy Zipf-constant selection cluster over the *up*
    source, a selective bridge selection whose derived channel feeds a
    two-input sequence with the *down* source, and a set of post-selections
    on the sequence's (low-volume) output.  Without bridge cuts each
    component is an unsplittable atom: its two sources share the sequence's
    state, so one engine must merge them tuple by tuple, every same-channel
    run degenerates to length 1 and the heavy cluster falls off the batched
    fast path.  The cut re-homes the cluster onto its own single-source
    shard — full-length runs — and relays the bridge channel.

    The plan is deliberately left unoptimized: sharable-selection merging
    would fold the bridge producer onto the cluster's shared masked
    channel, which the planner correctly refuses to cut.
    """
    schema = synthetic_schema()
    rng = np.random.default_rng(seed)
    plan = QueryPlan()
    handles = [plan.add_source(f"S{i}", schema) for i in range(4)]
    for component in range(2):
        up, down = handles[2 * component], handles[2 * component + 1]
        constants = ZipfSampler(0, 999, 1.5, rng).sample(
            scale.bridge_queries_per_source
        )
        for position, constant in enumerate(constants):
            query_id = f"q{component}_{position}"
            out = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(int(constant)))),
                [up],
                query_id=query_id,
            )
            plan.mark_output(out, query_id)
        bridge = plan.add_operator(
            Selection(Comparison(attr("a1"), "<", lit(60))),
            [up],
            query_id=f"qb{component}",
        )
        plan.mark_output(bridge, f"qb{component}")
        seq = plan.add_operator(
            Sequence(
                conjunction(
                    [DurationWithin(5), Comparison(right("a0"), "<", lit(500))]
                )
            ),
            [bridge, down],
            query_id=f"qs{component}",
        )
        plan.mark_output(seq, f"qs{component}")
        for position in range(scale.bridge_post_queries):
            query_id = f"qp{component}_{position}"
            out = plan.add_operator(
                Selection(Comparison(attr("a2"), "==", lit(position))),
                [seq],
                query_id=query_id,
            )
            plan.mark_output(out, query_id)
    return plan, handles


def bench_bridge(scale: ShardScale) -> dict:
    """Time the 4-shard bridge serve split vs unsplit; verify identity.

    ``sharded_4_bridge_unsplit`` forces whole-component placement
    (``split=False``, the pre-relay behaviour); ``sharded_4_bridge_split``
    lets the planner cut each oversized component at its bridge channel.
    The split serve is additionally checked byte-identical against the
    single batched engine over forked workers behind the columnar router
    (identity only, not timed).
    """
    per_source = interleaved_zipf_tuples(4, scale.bridge_events, seed=13)
    result: dict = {
        "sources": 4,
        "components": 2,
        "queries": 2
        * (scale.bridge_queries_per_source + scale.bridge_post_queries + 2),
        "events": scale.bridge_events,
        "cells": {},
    }

    plan, handles = bridge_plan(scale)
    baseline_engine = StreamEngine(
        plan, capture_outputs=True, max_batch=scale.max_batch
    )
    baseline = baseline_engine.run(_make_sources(plan, handles, per_source))
    baseline_captured = baseline_engine.captured
    result["cells"]["single_batched"] = {
        "events_per_sec": round(baseline.throughput, 1),
        "elapsed_seconds": round(baseline.elapsed_seconds, 6),
        "input_events": baseline.input_events,
        "output_events": baseline.output_events,
    }

    def check_identity(name: str, run, engine) -> None:
        _require_equivalent(name, baseline, run.aggregate)
        if engine.captured != baseline_captured:
            raise AssertionError(
                f"{name}: captured outputs diverged from the single-engine "
                f"baseline"
            )

    for split in (False, True):
        cell = "sharded_4_bridge_split" if split else "sharded_4_bridge_unsplit"
        best = None
        best_engine = None
        for __ in range(scale.repeats):
            plan, handles = bridge_plan(scale)
            sharded = ShardedEngine(
                plan, 4, capture_outputs=True,
                max_batch=scale.max_batch, split=split,
            )
            run = sharded.run(_make_sources(plan, handles, per_source))
            check_identity(f"bridge/{cell}", run, sharded)
            if best is None or run.throughput > best.throughput:
                best, best_engine = run, sharded
        relays = best_engine.shard_plan.relays
        if split and not relays:
            raise AssertionError(
                "bridge workload produced no relay edges: the split cell "
                "measured whole-component placement, not bridge cuts"
            )
        if not split and relays:
            raise AssertionError(
                "split=False placement must not produce relay edges"
            )
        result["cells"][cell] = {
            "events_per_sec": round(best.throughput, 1),
            "wall_seconds": round(best.wall_seconds, 6),
            "busy_seconds": round(best.busy_seconds, 6),
            "mode": best.mode,
            "relays": len(relays),
            "effective_shards": best_engine.shard_plan.effective_shards,
            "output_events": best.aggregate.output_events,
            "speedup_vs_single_batched": round(
                best.throughput / max(baseline.throughput, 1e-9), 2
            ),
        }

    # Byte-identity over forked workers.  worker_cap=4 keeps one fragment
    # per worker even on small hosts, so relay frames genuinely cross
    # worker boundaries.
    verified = []
    if fork_available():
        plan, handles = bridge_plan(scale)
        sharded = ShardedEngine(
            plan, 4, parallel=True, feed="router", capture_outputs=True,
            max_batch=scale.max_batch, worker_cap=4,
        )
        run = sharded.run(_make_sources(plan, handles, per_source))
        check_identity("bridge/process_columnar", run, sharded)
        verified.append("columnar")
    result["verified_planes"] = verified
    return result


# -- sharded churn serve -------------------------------------------------------------


def bench_sharded_churn(scale: ShardScale) -> dict:
    """Live serve: single runtime vs sharded runtime with load-levelling
    rebalances; reports wall-clock and verifies output equality."""

    def workload() -> ChurnWorkload:
        return ChurnWorkload(
            arrival_rate=0.02,
            mean_lifetime=600.0,
            horizon=scale.churn_events,
            initial_queries=scale.churn_initial,
            seed=7,
        )

    def serve_single():
        wl = workload()
        runtime = open_runtime(sources={"S": wl.schema, "T": wl.schema})
        started = time.perf_counter()
        for __ in drive_batched(runtime, wl.stream_events(), wl.schedule()):
            pass
        return runtime.stats, time.perf_counter() - started, runtime.stats.migrations

    def serve_sharded():
        wl = workload()
        runtime = open_runtime(
            sources={"S": wl.schema, "T": wl.schema},
            shards=scale.churn_shards,
        )
        started = time.perf_counter()
        for __ in drive_sharded(
            runtime, wl.stream_events(), wl.schedule(), rebalance_every=5
        ):
            pass
        return runtime.stats, time.perf_counter() - started, runtime.migrations

    cells: dict = {"shards": scale.churn_shards, "modes": {}}
    stats_by_mode = {}
    for mode, serve in (("single", serve_single), ("sharded", serve_sharded)):
        best_stats, best_elapsed, best_extra = None, float("inf"), 0
        for __ in range(scale.repeats):
            stats, elapsed, extra = serve()
            if elapsed < best_elapsed:
                best_stats, best_elapsed, best_extra = stats, elapsed, extra
        cells["modes"][mode] = {
            "events_per_sec": round(
                best_stats.input_events / max(best_elapsed, 1e-9), 1
            ),
            "elapsed_seconds": round(best_elapsed, 6),
            "input_events": best_stats.input_events,
            "output_events": best_stats.output_events,
            "migrations": best_extra,
        }
        stats_by_mode[mode] = best_stats
    if (
        stats_by_mode["single"].outputs_by_query
        != stats_by_mode["sharded"].outputs_by_query
    ):
        raise AssertionError(
            "sharded churn serve diverged from the single-runtime outputs"
        )
    return cells


# -- entry points --------------------------------------------------------------------


def run_benchmark(scale: ShardScale) -> dict:
    zipf = bench_partitionable_zipf(scale)
    bridge = bench_bridge(scale)
    churn = bench_sharded_churn(scale)
    parity = {
        f"sharded_{n}": zipf["cells"][f"sharded_{n}"] for n in PARITY_SHARDS
    }
    weakest = min(parity, key=lambda n: parity[n]["speedup_vs_single_batched"])
    headline = parity[weakest]["speedup_vs_single_batched"]
    results = {
        "meta": {
            "benchmark": "sharded engine vs single-engine batched dispatch",
            "scale": scale.name,
            "max_batch": scale.max_batch,
            "repeats": scale.repeats,
            "cpu_count": multiprocessing.cpu_count(),
            "regenerate": "PYTHONPATH=src python -m repro.cli bench-shard",
        },
        "headline": {
            "sharded_inline_parity": headline,
            "weakest_cell": weakest,
            "parity_floor": scale.min_parity,
        },
        "workloads": {
            "partitionable_zipf": zipf,
            "bridge": bridge,
            "sharded_churn": churn,
        },
    }
    if headline < scale.min_parity:
        raise AssertionError(
            f"every inline sharded cell must hold ≥{scale.min_parity}x the "
            f"single-engine batched baseline on the partitionable zipf "
            f"workload; {weakest} measured {headline}x"
        )
    # Data-plane gate: the columnar process-mode cell must exist (a silent
    # fallback to inline would make the gate vacuous) and its steady-state
    # drain must keep up with the 4-shard inline drain.
    if not fork_available():
        raise AssertionError(
            "process-mode data-plane cells missing: the shard benchmark "
            "gate requires the fork start method"
        )
    process_cell = zipf["cells"]["sharded_4_process_columnar"]
    if process_cell["mode"] != "process":
        raise AssertionError(
            f"columnar data-plane cell ran in {process_cell['mode']!r} "
            f"mode, not process mode"
        )
    inline_cell = zipf["cells"]["sharded_4"]
    ratio = round(
        process_cell["events_per_sec"]
        / max(inline_cell["events_per_sec"], 1e-9),
        2,
    )
    results["headline"]["process_columnar_vs_inline_4"] = ratio
    results["headline"]["process_ratio_target"] = scale.min_process_ratio
    if ratio < scale.min_process_ratio:
        raise AssertionError(
            f"process-mode columnar throughput must be ≥"
            f"{scale.min_process_ratio}x the 4-shard inline drain, "
            f"measured {ratio}x "
            f"({process_cell['events_per_sec']:,.0f} vs "
            f"{inline_cell['events_per_sec']:,.0f} ev/s)"
        )
    # Bridge-cut gate: both cells must exist (a missing cell would make the
    # floor vacuous) and splitting must never lose to the forced
    # whole-component placement it replaces.
    try:
        split_cell = bridge["cells"]["sharded_4_bridge_split"]
        unsplit_cell = bridge["cells"]["sharded_4_bridge_unsplit"]
    except KeyError as missing:
        raise AssertionError(
            f"bridge workload cell {missing} missing from the results"
        ) from None
    bridge_ratio = round(
        split_cell["events_per_sec"]
        / max(unsplit_cell["events_per_sec"], 1e-9),
        2,
    )
    results["headline"]["bridge_split_vs_unsplit"] = bridge_ratio
    results["headline"]["bridge_ratio_target"] = scale.min_bridge_ratio
    if bridge_ratio < scale.min_bridge_ratio:
        raise AssertionError(
            f"bridge-split serve must be ≥{scale.min_bridge_ratio}x the "
            f"forced single-shard placement, measured {bridge_ratio}x "
            f"({split_cell['events_per_sec']:,.0f} vs "
            f"{unsplit_cell['events_per_sec']:,.0f} ev/s)"
        )
    if bridge["verified_planes"] != ["columnar"]:
        raise AssertionError(
            f"bridge byte-identity must be verified over forked workers on "
            f"the columnar plane, got {bridge['verified_planes']}"
        )
    return results


def render(results: dict) -> str:
    zipf = results["workloads"]["partitionable_zipf"]
    lines = [
        f"shard benchmark ({results['meta']['scale']} scale, "
        f"{zipf['sources']} sources x "
        f"{zipf['queries'] // zipf['sources']} queries, "
        f"cpu_count={results['meta']['cpu_count']})",
        f"{'cell':<28} {'ev/s':>14} {'speedup':>8} {'mode':>8}",
    ]
    baseline = zipf["cells"]["single_batched"]
    lines.append(
        f"{'single_batched':<28} {baseline['events_per_sec']:>14,.0f} "
        f"{'1.00x':>8} {'-':>8}"
    )
    for name, cell in zipf["cells"].items():
        if name == "single_batched":
            continue
        lines.append(
            f"{name:<28} {cell['events_per_sec']:>14,.0f} "
            f"{cell['speedup_vs_single_batched']:>7.2f}x "
            f"{cell['mode']:>8}"
        )
    bridge = results["workloads"]["bridge"]["cells"]
    for name in ("sharded_4_bridge_unsplit", "sharded_4_bridge_split"):
        cell = bridge[name]
        lines.append(
            f"{name:<28} {cell['events_per_sec']:>14,.0f} "
            f"{cell['speedup_vs_single_batched']:>7.2f}x "
            f"{cell['mode']:>8}"
        )
    churn = results["workloads"]["sharded_churn"]["modes"]
    lines.append(
        f"{'churn single':<28} {churn['single']['events_per_sec']:>14,.0f}"
    )
    lines.append(
        f"{'churn sharded':<28} {churn['sharded']['events_per_sec']:>14,.0f}"
    )
    lines.append(
        f"headline: inline parity "
        f"{results['headline']['sharded_inline_parity']}x of single_batched "
        f"at {results['headline']['weakest_cell']} "
        f"(floor ≥{results['headline']['parity_floor']}x)"
    )
    ratio = results["headline"].get("process_columnar_vs_inline_4")
    if ratio is not None:
        lines.append(
            f"data plane: process columnar vs inline 4-shard {ratio}x "
            f"(target ≥{results['headline']['process_ratio_target']}x)"
        )
    bridge_ratio = results["headline"].get("bridge_split_vs_unsplit")
    if bridge_ratio is not None:
        lines.append(
            f"bridge cuts: split vs unsplit {bridge_ratio}x "
            f"(target ≥{results['headline']['bridge_ratio_target']}x, "
            f"planes={results['workloads']['bridge']['verified_planes']})"
        )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="sharded engine benchmark (vs single-engine batched)"
    )
    parser.add_argument(
        "--scale", choices=["full", "smoke"], default="full",
        help="smoke: reduced event counts for CI",
    )
    parser.add_argument(
        "--output", default="BENCH_shard.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    scale = ShardScale.smoke() if args.scale == "smoke" else ShardScale.full()
    results = run_benchmark(scale)
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(render(results))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
