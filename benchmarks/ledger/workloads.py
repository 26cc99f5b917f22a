"""The seven workloads of the performance ledger.

Every workload follows one shape so the clocks are comparable:

``generate``
    inputs from the seed — row ``StreamTuple`` lists, a query catalog,
    pre-encoded socket frames.  The program only ever sees these.
``build``
    naive plan from the catalog, then one timed ``Optimizer.optimize``.
``fresh``
    the engine / runtime / fleet the timed section drives (state is
    consumed by a run, so every repetition gets a fresh one).
``run``
    the timed section.  The clock starts at the same input form for every
    workload (row tuples, or frames for the socket) and stops once the
    per-query outputs are back in the caller — packing, forking, shipping
    and result return are all inside.  The outputs are then compared with
    the oracle; that comparison is the harness's own work and is untimed
    (on ``hybrid_perfmon`` it would be 40% of the wall), but a mismatch
    fails every operation the repetition covered.

``generate + build + fresh`` is ``setup_s``.  Sizes are the ``scale=1``
numbers below; they were chosen on a 2-core host so that one repetition
takes 0.5–2 s and a whole run fits the benchmark's time contract.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    Comparison,
    DurationWithin,
    Optimizer,
    QueryPlan,
    ShardedEngine,
    StreamEngine,
    StreamSource,
    StreamTuple,
    attr,
    conjunction,
    default_rules,
    last,
    left,
    lit,
    open_runtime,
    right,
)
from repro.lang.ast import (
    AggregateNode,
    IterateNode,
    LogicalQuery,
    SelectNode,
    SequenceNode,
    SourceNode,
)
from repro.lang.compiler import compile_into
from repro.serve import IngestServer, ServeSession, timed_events, zipf_schedule
from repro.serve.protocol import EVENTS, encode_message
from repro.shard import WorkerFaults
from repro.workloads.churn import (
    ALL_TEMPLATES,
    ChurnWorkload,
    drive_batched,
    drive_sharded,
)
from repro.workloads.perfmon import CPU_SCHEMA, PerfmonDataset
from repro.workloads.synthetic import interleaved_events, synthetic_schema
from repro.workloads.templates import sources_from_events
from repro.workloads.zipf import ZipfSampler

import oracle

HERE = Path(__file__).resolve().parent

#: The registration probe admits the first PROBE_QUERIES catalog queries,
#: one timed ``register`` each, into a fresh runtime — PROBE_ROUNDS times.
PROBE_QUERIES = 128
PROBE_ROUNDS = 2

#: ``optimize_s`` is the median of at least OPTIMIZE_REPS fresh
#: ``Optimizer.optimize`` samples; see :meth:`Workload.sample_optimize`.
OPTIMIZE_REPS = 5
SLOW_OPTIMIZE_S = 0.05
OPTIMIZE_BURST = 3

#: ``--seed`` draws the event stream of every workload.  What decides how
#: much work a run is — the query catalogs, the churn workloads' lifecycle
#: schedule and kill positions, the perfmon process population — is fixed by
#: the workload's definition: drawn per seed, they moved ``events_per_s`` by
#: 10–20% from seed to seed, more than any bound this benchmark could then
#: enforce.
CATALOG_SEED = 11
SCHEDULE_SEED = 7
TRACE_SEED = 1

#: m-op kinds as the per-layer metrics name them.
MOP_KINDS = (
    "predicate_index",
    "shared_sequence",
    "shared_aggregate",
    "iterate",
    "channel",
    "other",
)


@dataclass
class Outcome:
    """What one timed section did."""

    events: int
    seconds: float
    ops: int
    failed: int
    register_ms: list = field(default_factory=list)
    #: Program-published statistics the per-layer metrics are read from.
    published: dict = field(default_factory=dict)


def naive_plan(sources: dict, catalog: list):
    """One m-op per operator per query: the optimizer's input."""
    plan = QueryPlan()
    streams = {name: plan.add_source(name, s) for name, s in sources.items()}
    for query, query_id in catalog:
        compile_into(query, plan, streams, query_id=query_id)
    return plan, streams


def mop_kind(kind: str, operator_name: str) -> str:
    """Fold the program's m-op kinds into the ledger's six."""
    if kind.endswith("-channel"):
        return "channel"
    if kind == "σ-index":
        return "predicate_index"
    if kind.startswith(";-"):
        return "shared_sequence"
    if kind == "α-shared":
        return "shared_aggregate"
    if operator_name == "Iterate":
        return "iterate"
    return "other"


def mop_layer_metrics(mop_stats: dict, plan) -> dict:
    """``mops.<metric>.<kind>`` from published ``MOpRecord`` dicts."""
    operators = {
        mop.mop_id: type(mop.instances[0].operator).__name__
        for mop in plan.mops
        if mop.instances
    }
    metrics = {
        f"mops.{metric}.{kind}": 0.0
        for metric in ("busy_s", "tuples_in", "tuples_out")
        for kind in MOP_KINDS
    }
    calls = per_tuple = 0
    for mop_id, record in mop_stats.items():
        kind = mop_kind(record["kind"], operators.get(mop_id, ""))
        metrics[f"mops.busy_s.{kind}"] += record["busy_seconds"]
        metrics[f"mops.tuples_in.{kind}"] += record["tuples_in"]
        metrics[f"mops.tuples_out.{kind}"] += record["tuples_out"]
        calls += record["batches"] + record["per_tuple_calls"]
        per_tuple += record["per_tuple_calls"]
    metrics["engine.per_tuple_share"] = per_tuple / calls if calls else 0.0
    return metrics


class Workload:
    """Base shape; see the module docstring."""

    name = ""
    #: logical input events per repetition at scale 1
    events = 0

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.n_events = max(200, int(self.events * scale))
        self.sources: dict = {}
        self.catalog: list = []
        self.plan = None
        self.streams: dict = {}
        self.expected = None
        #: (seconds, report, m-ops before, m-ops after) of each optimize
        self.optimizations: list = []
        #: median seconds of each between-repetitions optimize burst
        self.bursts: list = []

    # -- set-up -----------------------------------------------------------------

    def generate(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        self.plan, self.streams = naive_plan(self.sources, self.catalog)
        self.time_optimize(self.plan)

    def time_optimize(self, plan) -> None:
        before = len(plan.mops)
        optimizer = Optimizer(default_rules())
        started = time.perf_counter()
        report = optimizer.optimize(plan)
        self.optimizations.append(
            (time.perf_counter() - started, report, before, len(plan.mops))
        )

    def extra_optimize(self) -> None:
        """One more fresh optimize of the naive plan (for ``optimize_s``)."""
        plan, __ = naive_plan(self.sources, self.catalog)
        self.time_optimize(plan)

    def sample_optimize(self) -> None:
        """An ``optimize_s`` sample taken between two timed repetitions.

        A small catalog optimizes in a millisecond or two, which one hiccup
        of the host or one cold cache doubles.  Its samples are therefore
        taken here, spread over the run, each the median of a burst of
        OPTIMIZE_BURST calls so that a cold first call drops out — and
        *only* here: a set-up's optimize runs in a different state of the
        machine (nothing was just shut down) and is ~25% faster, so mixing
        the two made the median follow the mix.  A catalog that takes
        longer than SLOW_OPTIMIZE_S is sampled at set-up instead."""
        if self.optimizations[0][0] < SLOW_OPTIMIZE_S:
            kept = len(self.optimizations)
            for __ in range(OPTIMIZE_BURST):
                self.extra_optimize()
            burst = sorted(entry[0] for entry in self.optimizations[kept:])
            del self.optimizations[kept:]
            self.bursts.append(burst[OPTIMIZE_BURST // 2])

    def optimize_seconds(self) -> list:
        """The run's ``optimize_s`` samples, topped up to OPTIMIZE_REPS."""
        if self.optimizations[0][0] < SLOW_OPTIMIZE_S:
            while len(self.bursts) < OPTIMIZE_REPS:
                self.sample_optimize()
            return self.bursts
        while len(self.optimizations) < OPTIMIZE_REPS:
            self.extra_optimize()
        return [entry[0] for entry in self.optimizations]

    def fresh(self, observe: bool = False):
        raise NotImplementedError

    def close(self, handle) -> None:
        pass

    # -- measurement ------------------------------------------------------------

    def run(self, handle) -> Outcome:
        raise NotImplementedError

    def reference(self) -> None:
        """Compute ``self.expected`` (untimed)."""
        raise NotImplementedError

    def warm_up(self, handle):
        """One untimed repetition on the handle set-up built; returns the
        handle the timed repetitions should start from (None: a fresh one)."""
        self.run(handle)
        self.close(handle)
        return None

    def measure(self, seconds: float, handle=None, observe=False, min_reps=3):
        """Timed repetitions, each on a fresh handle, until ``seconds`` of
        timed wall have accumulated.  Returns the outcomes and the last
        handle, still open so published statistics can be read off it.

        ``optimize_s`` samples are taken between repetitions
        (:meth:`sample_optimize`)."""
        outcomes: list = []
        spent = 0.0
        while len(outcomes) < min_reps or spent < seconds:
            if outcomes:
                self.close(handle)
                handle = None
                self.sample_optimize()
            if handle is None:
                handle = self.fresh(observe)
            gc.collect()  # every repetition starts from the same collector state
            outcome = self.run(handle)
            outcomes.append(outcome)
            spent += outcome.seconds
        return outcomes, handle

    def traced(self, tracer):
        """One repetition with ``observe=True`` under the root span."""
        handle = self.fresh(observe=True)
        with tracer.span("ledger.timed"):
            outcome = self.run(handle)
        return [outcome], handle

    def register_samples(self) -> list:
        """Registration probe: admit the first catalog queries one by one
        into a live in-process runtime, timing each ``register`` call."""
        samples: list = []
        while len(samples) < PROBE_QUERIES * PROBE_ROUNDS:
            runtime = open_runtime(sources=dict(self.sources))
            for query, query_id in self.catalog[:PROBE_QUERIES]:
                started = time.perf_counter()
                runtime.register(query, query_id=query_id)
                samples.append((time.perf_counter() - started) * 1000.0)
        return samples

    def layers(self, tracer, handle, outcome: Outcome) -> dict:
        """Per-layer metrics of the traced run that only this workload has."""
        return {}


# -- drain workloads: one engine, whole input ----------------------------------------


class _Drain(Workload):
    """A whole input drained through one batched ``StreamEngine``."""

    def make_sources(self) -> list:
        raise NotImplementedError

    def fresh(self, observe: bool = False):
        return StreamEngine(self.plan, capture_outputs=True, observe=observe)

    def run(self, engine) -> Outcome:
        started = time.perf_counter()
        stats = engine.run(self.make_sources())
        captured = engine.captured
        seconds = time.perf_counter() - started
        ok = (
            oracle.digest(captured) == self.expected
            and stats.input_events == self.n_events
        )
        return Outcome(
            stats.input_events, seconds, 1, 0 if ok else 1,
            published={"stats": stats},
        )

    def reference(self) -> None:
        self.expected = oracle.drain_reference(self.plan, self.make_sources)

    def layers(self, tracer, engine, outcome) -> dict:
        stats = outcome.published["stats"]
        metrics = mop_layer_metrics(engine.mop_stats(), self.plan)
        metrics["engine.run_s"] = stats.elapsed_seconds
        metrics["engine.physical_events"] = stats.physical_events
        return metrics


class W1Patterns(_Drain):
    """Paper Workload 1: ``σθ1(S) ;θ2∧θ3 T`` over interleaved S/T events."""

    name = "w1_patterns"
    events = 120_000
    queries = 1500
    #: events of the prefix the automaton baseline drains (traced run only)
    automaton_events = 20_000

    def generate(self) -> None:
        schema = synthetic_schema()
        self.sources = {"S": schema, "T": schema}
        rng = np.random.default_rng(CATALOG_SEED)
        count = max(20, int(self.queries * min(1.0, self.scale * 4)))
        constants = ZipfSampler(0, 999, 1.5, rng)
        theta1 = constants.sample(count)
        theta3 = constants.sample(count)
        windows = ZipfSampler(1, 1000, 1.5, rng).sample(count)
        self.parameters = [
            (int(a), int(b), int(w)) for a, b, w in zip(theta1, theta3, windows)
        ]
        self.catalog = [
            (
                LogicalQuery(
                    f"q{i}",
                    SequenceNode(
                        SelectNode(
                            SourceNode("S"),
                            Comparison(attr("a0"), "==", lit(a)),
                        ),
                        SourceNode("T"),
                        conjunction(
                            [
                                DurationWithin(w),
                                Comparison(right("a0"), "==", lit(b)),
                            ]
                        ),
                    ),
                ),
                f"q{i}",
            )
            for i, (a, b, w) in enumerate(self.parameters)
        ]
        self.input = interleaved_events(
            schema, self.n_events, np.random.default_rng(self.seed)
        )

    def make_sources(self) -> list:
        return sources_from_events(self.plan, self.streams, self.input)

    def automaton_events_per_s(self) -> float:
        """The Cayuga automaton baseline: single-threaded, nothing shared
        beyond its own FR/AN indexes, on a prefix of the same events."""
        from repro.automata.automaton import sequence_automaton
        from repro.automata.engine import AutomatonEngine

        schema = self.sources["S"]
        engine = AutomatonEngine()
        engine.declare_stream("S", schema)
        engine.declare_stream("T", schema)
        for i, (a, b, w) in enumerate(self.parameters):
            engine.add(
                sequence_automaton(
                    "S", schema, Comparison(right("a0"), "==", lit(a)),
                    "T", schema,
                    conjunction(
                        [DurationWithin(w), Comparison(right("a0"), "==", lit(b))]
                    ),
                    query_id=f"q{i}",
                )
            )
        prefix = self.input[: max(200, int(self.automaton_events * self.scale))]
        stats = engine.run(iter(prefix))
        return stats.throughput

    def layers(self, tracer, engine, outcome) -> dict:
        metrics = super().layers(tracer, engine, outcome)
        metrics["automata.events_per_s"] = self.automaton_events_per_s()
        return metrics


def zipf4_inputs(seed: int, n_events: int, per_source: int = 75):
    """The partitionable zipf input both ``zipf4_*`` workloads consume:
    4 independent sources, each with its own Zipf-constant σ-queries, and
    tuples with globally interleaved timestamps (``ts`` goes to source
    ``ts % 4``, so a global merge sees runs of length 1)."""
    schema = synthetic_schema()
    sources = {f"S{i}": schema for i in range(4)}
    rng = np.random.default_rng(CATALOG_SEED)
    catalog = []
    for index in range(4):
        constants = ZipfSampler(0, 999, 1.5, rng).sample(per_source)
        for position, constant in enumerate(constants):
            query_id = f"q{index}_{position}"
            catalog.append(
                (
                    LogicalQuery(
                        query_id,
                        SelectNode(
                            SourceNode(f"S{index}"),
                            Comparison(attr("a0"), "==", lit(int(constant))),
                        ),
                    ),
                    query_id,
                )
            )
    values = np.random.default_rng(seed).integers(
        0, 1000, size=(n_events, len(schema))
    )
    rows: dict = {name: [] for name in sources}
    for ts in range(n_events):
        rows[f"S{ts % 4}"].append(
            StreamTuple(schema, tuple(int(v) for v in values[ts]), ts)
        )
    return sources, catalog, rows


class Zipf4Single(_Drain):
    """Partitionable zipf through one engine: the global merge does the work."""

    name = "zipf4_single"
    events = 200_000

    def generate(self) -> None:
        self.sources, self.catalog, self.rows = zipf4_inputs(
            self.seed, self.n_events
        )

    def make_sources(self) -> list:
        return [
            StreamSource(self.plan.channel_of(self.streams[name]), tuples)
            for name, tuples in self.rows.items()
        ]


class Zipf4Fleet(Zipf4Single):
    """The same input handed as row tuples to a 4-shard process fleet."""

    name = "zipf4_fleet"
    shards = 4

    def fresh(self, observe: bool = False):
        return ShardedEngine(
            self.plan, self.shards, parallel=True, feed="router",
            data_plane="columnar", capture_outputs=True, observe=observe,
        )

    def run(self, engine) -> Outcome:
        started = time.perf_counter()
        run = engine.run(self.make_sources())
        captured = engine.captured
        seconds = time.perf_counter() - started
        aggregate = run.aggregate
        ok = (
            run.mode == "process"
            and oracle.digest(captured) == self.expected
            and aggregate.input_events == self.n_events
        )
        return Outcome(
            aggregate.input_events, seconds, 1, 0 if ok else 1,
            published={"run": run},
        )

    def layers(self, tracer, engine, outcome) -> dict:
        run = outcome.published["run"]
        busy = [stats.elapsed_seconds for stats in run.per_shard]
        shard_plan = engine.shard_plan
        metrics = {
            "shard.effective_shards": shard_plan.effective_shards,
            "shard.cost_skew": (
                max(shard_plan.shard_costs) / shard_plan.cost_target
                if shard_plan.cost_target
                else 0.0
            ),
            "shard.spawn_s": run.spawn_seconds,
            "shard.drain_wall_s": run.wall_seconds,
            "shard.worker_busy_sum_s": sum(busy),
            "shard.worker_busy_max_s": max(busy),
            "engine.run_s": sum(busy),
            "engine.physical_events": run.aggregate.physical_events,
        }
        metrics.update(mop_layer_metrics(engine.mop_stats(), self.plan))
        return metrics


class HybridPerfmon(_Drain):
    """Paper §5.3 hybrid: α-smoothing → σ → µ with channels (a diamond)."""

    name = "hybrid_perfmon"
    processes = 104
    events = 104 * 150
    queries = 10

    def generate(self) -> None:
        self.sources = {"CPU": CPU_SCHEMA}
        self.duration = max(4, self.n_events // self.processes)
        self.n_events = self.duration * self.processes
        # The process population (regimes, ramp periods and phases) comes
        # from TRACE_SEED; ``generate`` draws the per-reading noise from the
        # dataset's ``seed`` attribute at call time, which is what --seed sets.
        dataset = PerfmonDataset(
            self.processes, duration_seconds=self.duration, seed=TRACE_SEED
        )
        dataset.seed = 1000 + self.seed
        self.rows = list(dataset.generate(self.duration))
        smoothed = AggregateNode(
            SourceNode("CPU"), "avg", "load", 60, ("pid",), "load"
        )
        correlation = Comparison(left("pid"), "==", right("pid"))
        increasing = Comparison(right("load"), ">", last("load"))
        step = conjunction([correlation, increasing])
        self.catalog = []
        for index in range(self.queries):
            # Distinct starting thresholds around selectivity 0.5, as in the
            # paper's modified Query 2: no two starting conditions are equal.
            threshold = round(50.0 - 0.01 * (index + 1), 2)
            started = SelectNode(
                smoothed, Comparison(attr("load"), "<", lit(threshold))
            )
            pattern = IterateNode(started, smoothed, step, step)
            stopped = SelectNode(pattern, Comparison(attr("load"), ">", lit(10)))
            self.catalog.append((LogicalQuery(f"q{index}", stopped), f"q{index}"))

    def make_sources(self) -> list:
        stream = self.streams["CPU"]
        return [
            StreamSource(
                self.plan.channel_of(stream), self.rows, member_streams=[stream]
            )
        ]


# -- churn workloads: lifecycle operations while the stream flows ---------------------


class _TimedLifecycle:
    """Stands between a churn driver and a runtime, timing every
    ``register`` call and counting operations — from outside."""

    def __init__(self, runtime):
        self._runtime = runtime
        self.register_ms: list = []
        self.ops = 0

    @property
    def active_queries(self):
        return self._runtime.active_queries

    def register(self, query, query_id=None):
        started = time.perf_counter()
        report = self._runtime.register(query, query_id)
        self.register_ms.append((time.perf_counter() - started) * 1000.0)
        self.ops += 1
        return report

    def unregister(self, query_id):
        self.ops += 1
        return self._runtime.unregister(query_id)

    def process_batch(self, stream_name, tuples):
        self.ops += 1
        return self._runtime.process_batch(stream_name, tuples)

    def __getattr__(self, name):
        return getattr(self._runtime, name)


class ChurnInproc(Workload):
    """Poisson register/unregister over alternating S/T events, in-process."""

    name = "churn_inproc"
    events = 40_000
    arrival_rate = 0.0025
    mean_lifetime = 4000.0
    templates = ("select", "sequence", "aggregate")
    reference_shards = 1

    def generate(self) -> None:
        self.churn = ChurnWorkload(
            arrival_rate=self.arrival_rate,
            mean_lifetime=self.mean_lifetime,
            horizon=self.n_events,
            initial_queries=6,
            seed=SCHEDULE_SEED,
            templates=self.templates,
        )
        self.sources = {"S": self.churn.schema, "T": self.churn.schema}
        self.input = interleaved_events(
            self.churn.schema, self.n_events, np.random.default_rng(self.seed)
        )
        self.schedule = self.churn.schedule()
        queries = [
            self.churn.query(i) for i in range(self.churn.registrations())
        ]
        self.catalog = [(query, query.query_id) for query in queries]

    def fresh(self, observe: bool = False):
        return open_runtime(
            sources=dict(self.sources), capture_outputs=True, observe=observe
        )

    def drive(self, proxy) -> None:
        for __ in drive_batched(proxy, self.input, self.schedule):
            pass

    def run(self, runtime) -> Outcome:
        proxy = _TimedLifecycle(runtime)
        started = time.perf_counter()
        self.drive(proxy)
        stats = self.collect(runtime)
        captured = runtime.captured
        seconds = time.perf_counter() - started
        ok = (
            oracle.digest(captured) == self.expected
            and stats.input_events == self.n_events
            and self.faults_fired(runtime)
        )
        return Outcome(
            stats.input_events, seconds, proxy.ops, 0 if ok else proxy.ops,
            register_ms=proxy.register_ms, published={"stats": stats},
        )

    def collect(self, runtime):
        return runtime.stats

    def faults_fired(self, runtime) -> bool:
        return True

    def reference(self) -> None:
        self.expected = oracle.churn_reference(
            self.sources, self.input, self.schedule, self.reference_shards
        )

    def register_samples(self) -> list:
        return []  # taken from the timed drive itself

    def layers(self, tracer, runtime, outcome) -> dict:
        migrations = runtime.migration_log
        reused = sum(m.reused_executors for m in migrations)
        built = sum(m.built_executors for m in migrations)
        stats = outcome.published["stats"]
        metrics = {
            "engine.migrations": len(migrations),
            "engine.executor_reuse_share": (
                reused / (reused + built) if reused + built else 0.0
            ),
            "engine.run_s": stats.elapsed_seconds,
            "engine.physical_events": stats.physical_events,
        }
        metrics.update(mop_layer_metrics(runtime.mop_stats(), runtime.plan))
        return metrics


def directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class ChurnDurable(ChurnInproc):
    """The same generator through a durable 2-shard process fleet, with one
    seeded worker kill per shard."""

    name = "churn_durable"
    events = 3000
    arrival_rate = 0.02
    mean_lifetime = 600.0
    templates = ALL_TEMPLATES
    reference_shards = 2
    shards = 2

    def generate(self) -> None:
        super().generate()
        rng = np.random.default_rng(SCHEDULE_SEED)
        # Each shard dies once, somewhere in the second quarter of the
        # stream (counted in data deliveries to that shard).
        low, high = self.n_events // 8, self.n_events // 4
        self.kills = {
            shard: int(rng.integers(low, high)) for shard in range(self.shards)
        }
        self._homes: dict = {}

    def fresh(self, observe: bool = False):
        home = self.workdir / f"durable-{len(self._homes)}"
        (home / "journal").mkdir(parents=True)
        (home / "checkpoints").mkdir()
        runtime = open_runtime(
            sources=dict(self.sources),
            process=True,
            shards=self.shards,
            durable=True,
            checkpoint_every=64,
            journal=str(home / "journal"),
            checkpoint_dir=str(home / "checkpoints"),
            capture_outputs=True,
            observe=observe,
            command_timeout=0.1,
            max_retries=120,
            extra={
                "worker_faults": {
                    shard: WorkerFaults(crash_on=("data", at))
                    for shard, at in self.kills.items()
                }
            },
        )
        self._homes[id(runtime)] = home
        runtime.ping()  # workers fork lazily; set-up includes the fleet
        return runtime

    def close(self, runtime) -> None:
        runtime.close()
        shutil.rmtree(self._homes[id(runtime)], ignore_errors=True)

    def drive(self, proxy) -> None:
        for __ in drive_sharded(proxy, self.input, self.schedule):
            pass

    def collect(self, runtime):
        return runtime.collect_stats()

    def faults_fired(self, runtime) -> bool:
        killed = {report.shard for report in runtime.recovery_log}
        return killed == set(self.kills)

    def layers(self, tracer, runtime, outcome) -> dict:
        recoveries = runtime.recovery_log
        stats = outcome.published["stats"]
        return {
            "shard.rpc_retransmits": runtime.rpc_retransmissions,
            "shard.journal_bytes": directory_bytes(
                self._homes[id(runtime)] / "journal"
            ),
            "shard.checkpoint_rounds": max(
                (
                    runtime.store.latest_version(shard) or 0
                    for shard in runtime.store.shards()
                ),
                default=0,
            ),
            "shard.checkpoint_wire_bytes": runtime.checkpoint_wire_bytes,
            "shard.recovery_s": sum(r.elapsed_seconds for r in recoveries),
            "shard.recovery_replayed_tuples": sum(
                r.tuples_replayed for r in recoveries
            ),
            "shard.worker_busy_sum_s": stats.elapsed_seconds,
            "engine.physical_events": stats.physical_events,
        }


# -- serve_socket: the full front door ------------------------------------------------


class ServeSocket(Workload):
    """Loadgen process → TCP → IngestServer → ServeSession → 2-shard fleet.

    One timed section is two phases on one live stack.  Phase A is an open
    loop at :attr:`rate` events/s (each frame timed from its *due* time to
    the credit that covers its last event); phase B sends :attr:`events`
    events unpaced, credit-limited, clocked from the first send until the
    session barrier and the fleet's stats barrier have both returned.
    """

    name = "serve_socket"
    events = 100_000         # phase B, per unpaced segment
    rate = 20_000            # phase A, events per second
    paced_seconds = 3.0      # phase A
    tick = 0.005             # frames coalesce same-stream arrivals per tick
    shards = 2

    def generate(self) -> None:
        schema = synthetic_schema(2)
        self.sources = {"S": schema, "T": schema}
        self.catalog = [
            (f"FROM S WHERE a0 == {i}", f"s{i}") for i in range(4)
        ] + [(f"FROM T WHERE a0 == {i + 4}", f"t{i}") for i in range(4)]
        self.paced_events = int(
            self.rate * self.paced_seconds * min(1.0, self.scale * 4)
        )
        epoch_seconds = 0.5
        per_epoch = int(self.rate * epoch_seconds)
        total = self.paced_events + self.n_events
        schedule = zipf_schedule(
            ["S", "T"],
            epochs=-(-total // per_epoch),
            events_per_epoch=per_epoch,
            epoch_seconds=epoch_seconds,
            seed=self.seed,
        )
        arrivals = timed_events(schedule, self.sources, seed=self.seed)[:total]
        self.frame_files = {
            "paced": self._encode("paced", arrivals[: self.paced_events]),
            "unpaced": self._encode("unpaced", arrivals[self.paced_events :]),
        }

    def _encode(self, label: str, arrivals: list) -> Path:
        """Pre-encode protocol frames: one ``events`` message per stream per
        tick, due when the tick's last arrival is due."""
        frames = []
        index = 0
        origin = arrivals[0][0] if arrivals else 0.0
        while index < len(arrivals):
            tick_end = (int((arrivals[index][0] - origin) / self.tick) + 1) * self.tick
            per_stream: dict = {}
            while index < len(arrivals) and arrivals[index][0] - origin < tick_end:
                __, stream, event = arrivals[index]
                per_stream.setdefault(stream, []).append(event)
                index += 1
            for stream, events in per_stream.items():
                message = encode_message(
                    {
                        "type": EVENTS,
                        "stream": stream,
                        "events": [[ts, list(values)] for ts, values in events],
                    }
                )
                frames.append((tick_end, len(events), message))
        path = self.workdir / f"frames-{label}.bin"
        index_blob = json.dumps(
            [[due, count, len(blob)] for due, count, blob in frames]
        ).encode()
        with open(path, "wb") as handle:
            handle.write(len(index_blob).to_bytes(8, "big"))
            handle.write(index_blob)
            for __, __count, blob in frames:
                handle.write(blob)
        return path

    def fresh(self, observe: bool = False):
        runtime = open_runtime(
            sources=dict(self.sources),
            process=True,
            shards=self.shards,
            capture_outputs=True,
            observe=observe,
        )
        runtime.ping()  # workers fork lazily; set-up includes the fleet
        return runtime

    def close(self, runtime) -> None:
        runtime.close()

    def _loadgen(self, address, mode: str) -> dict:
        completed = subprocess.run(
            [
                sys.executable, str(HERE / "loadgen.py"),
                address[0], str(address[1]), str(self.frame_files[mode]), mode,
            ],
            capture_output=True, text=True, timeout=120,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"loadgen failed: {completed.stderr[-2000:]}")
        return json.loads(completed.stdout.splitlines()[-1])

    def warm_up(self, runtime):
        return runtime  # the paced phase warms the stack it then measures

    def traced(self, tracer):
        runtime = self.fresh(observe=True)
        with tracer.span("ledger.timed"):
            return self.measure(0.0, runtime, min_reps=1)

    def measure(self, seconds: float, handle=None, observe=False, min_reps=3):
        """Phase A once, then unpaced segments of :attr:`events` events on
        the same live stack; one outcome per segment.  Outputs are verified
        once, over the whole session.

        The segment count is fixed by ``seconds``, not by how fast segments
        turn out: the session's arrival log and the workers' captured
        outputs grow with every segment and later segments are slower, so
        a count that depended on speed made the median depend on it too."""
        runtime = handle or self.fresh(observe)
        session = ServeSession(runtime, record=True, heartbeat_interval=0.25)
        for query, query_id in self.catalog:
            session.submit_register(query, query_id)
        session.barrier()
        segments = []
        count = max(min_reps, int(seconds) + 1) if seconds else min_reps
        with IngestServer(session, port=0) as server:
            paced = self._loadgen(server.address, "paced")
            session.barrier()
            runtime.collect_stats()
            paced_tail = time.monotonic() - paced["last_send"]
            for __ in range(count):
                unpaced = self._loadgen(server.address, "unpaced")
                session.barrier()
                stats = runtime.collect_stats()
                unpaced["finished"] = time.monotonic()
                segments.append(unpaced)
                self.sample_optimize()
            ingest = server.stats()
        report = session.finish()
        offered = paced["offered_events"] + sum(
            segment["offered_events"] for segment in segments
        )
        identical = (
            oracle.digest(runtime.captured)
            == oracle.serve_reference(session.log, self.sources)
            and stats.input_events == offered
        )
        # A backlog still draining a second after the last paced send means
        # the stack did not keep up with the offered rate: those events
        # missed any latency limit.  (A late *generator* — send lag p99 over
        # one tick — spoils the ack percentiles, not the program's work; it
        # is reported as loadgen.send_lag_p99_ms and fails nothing.)
        kept_up = paced_tail <= 1.0
        published = {
            "paced": paced, "segments": segments, "report": report,
            "ingest": ingest, "paced_tail": paced_tail,
        }
        outcomes = []
        for position, segment in enumerate(segments):
            ops = segment["offered_events"]
            failed = ops - segment["accepted_events"]
            if position == 0:
                # The paced phase's events ride on the first segment's count.
                ops += paced["offered_events"]
                failed += (
                    paced["offered_events"] - paced["accepted_events"]
                    if kept_up
                    else paced["offered_events"]
                )
            outcomes.append(
                Outcome(
                    segment["sent_events"],
                    segment["finished"] - segment["first_send"],
                    ops,
                    failed if identical else ops,
                    published=published,
                )
            )
        return outcomes, runtime

    def reference(self) -> None:
        self.expected = None  # every run is checked against its own arrival log

    def layers(self, tracer, runtime, outcome) -> dict:
        published = outcome.published
        report = published["report"]
        paced = published["paced"]
        return {
            "ack_p50_ms": paced["ack_p50_ms"],
            "ack_p99_ms": paced["ack_p99_ms"],
            "serve.runs": report.runs,
            "serve.mean_run_len": (
                report.events / report.runs if report.runs else 0.0
            ),
            "serve.credit_waits": paced["credit_waits"]
            + sum(segment["credit_waits"] for segment in published["segments"]),
            "serve.buffered_high_water": published["ingest"][
                "buffered_high_water"
            ],
            "serve.ship_p50_ms": report.ship_p50_ms,
            "serve.ship_p99_ms": report.ship_p99_ms,
            "serve.pump_process_batch_s": tracer.seconds("runtime.process_batch"),
            "serve.drain_tail_s": published["paced_tail"],
            "loadgen.send_lag_p99_ms": paced["send_lag_p99_ms"],
            "loadgen.offered_events_per_s": paced["offered_events_per_s"],
        }


WORKLOADS = {
    cls.name: cls
    for cls in (
        W1Patterns, Zipf4Single, Zipf4Fleet, HybridPerfmon,
        ChurnInproc, ChurnDurable, ServeSocket,
    )
}
