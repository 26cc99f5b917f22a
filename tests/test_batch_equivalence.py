"""Batched dispatch must be byte-identical to the per-tuple interpreter.

The contract of the batched engine hot path: for every workload — zipf
selections, churn (including mid-stream migration on a batch boundary) and
the perfmon hybrid diamond — per-query outputs (content, timestamps *and*
order) and aggregate counters match the reference per-tuple dispatch
exactly.  A hypothesis property test drives random event interleavings
through a mixed plan to probe shapes the workloads do not cover.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.mop import MOpExecutor
from repro.core.optimizer import Optimizer
from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.engine.migration import migrate_engine
from repro.operators.expressions import attr, lit, right
from repro.operators.predicates import Comparison, DurationWithin, conjunction
from repro.operators.select import Selection
from repro.operators.sequence import Sequence
from repro.runtime import QueryRuntime
from repro.streams.columns import ColumnBatch
from repro.streams.schema import Schema
from repro.streams.sources import (
    ColumnRunSource,
    StreamSource,
    merge_source_runs,
    merge_sources,
)
from repro.streams.tuples import StreamTuple
from repro.workloads.churn import ChurnWorkload, drive, drive_batched
from repro.workloads.perfmon import PerfmonDataset
from repro.workloads.synthetic import synthetic_schema
from repro.workloads.templates import HybridWorkload
from repro.workloads.zipf import ZipfSampler
from strategies import (
    EVENT_SCHEMA,
    event_entries,
    independent_components_plan,
    max_batches,
    mixed_plan,
    split_entries,
    two_component_plan,
    w1_plan,
)


def run_both_ways(plan_factory, sources_factory, max_batch=64):
    """(per-tuple, batched) → (stats, captured) on fresh plans/engines."""
    results = []
    for batching in (False, True):
        plan, handles = plan_factory()
        engine = StreamEngine(
            plan, capture_outputs=True, batching=batching, max_batch=max_batch
        )
        stats = engine.run(sources_factory(plan, handles))
        results.append((stats, engine.captured))
    return results


def assert_equivalent(per_tuple, batched):
    """Outputs byte-identical: per-query counts, content, ts and order."""
    assert per_tuple[0].outputs_by_query == batched[0].outputs_by_query
    assert per_tuple[0].input_events == batched[0].input_events
    assert per_tuple[0].physical_input_events == batched[0].physical_input_events
    assert per_tuple[0].output_events == batched[0].output_events
    assert per_tuple[0].physical_events == batched[0].physical_events
    assert per_tuple[1] == batched[1]


# -- run coalescing -----------------------------------------------------------------


class TestMergeSourceRuns:
    def test_flattened_runs_equal_merge_sources(self):
        schema = Schema.of_ints("a")
        plan = QueryPlan()
        a = plan.add_source("A", schema)
        b = plan.add_source("B", schema)
        tuples_a = [StreamTuple(schema, (i,), ts) for i, ts in enumerate([0, 2, 3, 7])]
        tuples_b = [StreamTuple(schema, (i,), ts) for i, ts in enumerate([1, 2, 4, 5, 6])]
        sources = lambda: [
            StreamSource(plan.channel_of(a), tuples_a),
            StreamSource(plan.channel_of(b), tuples_b),
        ]
        flat = [
            (channel.channel_id, ct) for channel, ct in merge_sources(sources())
        ]
        for max_run in (1, 2, 3, 1024):
            runs = list(merge_source_runs(sources(), max_run))
            assert all(len(run) <= max_run for __, run in runs)
            flattened = [
                (channel.channel_id, ct) for channel, run in runs for ct in run
            ]
            assert flattened == flat

    def test_single_source_run_cap(self):
        schema = Schema.of_ints("a")
        plan = QueryPlan()
        a = plan.add_source("A", schema)
        tuples = [StreamTuple(schema, (i,), i) for i in range(10)]
        runs = list(
            merge_source_runs([StreamSource(plan.channel_of(a), tuples)], 4)
        )
        assert [len(run) for __, run in runs] == [4, 4, 2]
        flattened = [ct for __, run in runs for ct in run]
        assert [ct.ts for ct in flattened] == list(range(10))

    @given(
        ts_a=st.lists(st.integers(0, 30), max_size=15).map(sorted),
        ts_b=st.lists(st.integers(0, 30), max_size=15).map(sorted),
        max_run=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_runs_preserve_global_order(self, ts_a, ts_b, max_run):
        schema = Schema.of_ints("a")
        plan = QueryPlan()
        a = plan.add_source("A", schema)
        b = plan.add_source("B", schema)
        tuples_a = [StreamTuple(schema, (0,), ts) for ts in ts_a]
        tuples_b = [StreamTuple(schema, (1,), ts) for ts in ts_b]
        sources = lambda: [
            StreamSource(plan.channel_of(a), tuples_a),
            StreamSource(plan.channel_of(b), tuples_b),
        ]
        flat = [
            (channel.channel_id, ct) for channel, ct in merge_sources(sources())
        ]
        flattened = [
            (channel.channel_id, ct)
            for channel, run in merge_source_runs(sources(), max_run)
            for ct in run
        ]
        assert flattened == flat

    @given(
        entries=event_entries(n_streams=3, max_size=40, ties=True),
        n_sources=st.integers(1, 3),
        columnar=st.booleans(),
        max_run=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_windows_flatten_to_merge_sources(
        self, entries, n_sources, columnar, max_run
    ):
        # Ties across sources exercise the position tie-break; one source
        # takes the re-chunked iter_runs path, several the heap.
        plan = QueryPlan()
        handles = [
            plan.add_source(f"A{index}", EVENT_SCHEMA)
            for index in range(n_sources)
        ]
        by_stream = split_entries(
            [(target % n_sources, *rest) for target, *rest in entries],
            n_sources,
        )

        def source(handle, tuples):
            channel = plan.channel_of(handle)
            if columnar and tuples:
                return ColumnRunSource(
                    channel,
                    ColumnBatch.from_rows(EVENT_SCHEMA, tuples, channel.full_mask),
                )
            return StreamSource(channel, tuples)

        sources = lambda: [
            source(handle, tuples) for handle, tuples in zip(handles, by_stream)
        ]
        flat = [
            (channel.channel_id, ct) for channel, ct in merge_sources(sources())
        ]
        windows = list(merge_source_runs(sources(), max_run, windows=True))
        assert all(head is None for head, __ in windows)
        assert all(0 < len(window) <= max_run for __, window in windows)
        assert all(len(window) == max_run for __, window in windows[:-1])
        flattened = [
            (channel.channel_id, ct)
            for __, window in windows
            for channel, ct in window
        ]
        assert flattened == flat


# -- default batch fallback ---------------------------------------------------------


class TestDefaultProcessBatch:
    def test_groups_outputs_per_channel_in_order(self):
        schema = Schema.of_ints("a")
        plan = QueryPlan()
        s = plan.add_source("S", schema)
        out = plan.add_operator(
            Selection(Comparison(attr("a"), ">", lit(0))), [s], query_id="q"
        )
        plan.mark_output(out, "q")
        mop = plan.mops[0]
        executor = mop.make_executor(plan)
        channel = plan.channel_of(s)
        batch = [
            channel.encode_all(StreamTuple(schema, (v,), ts))
            for ts, v in enumerate([1, 0, 2])
        ]
        grouped = MOpExecutor.process_batch(executor, channel, batch)
        assert len(grouped) == 1
        out_channel, tuples = grouped[0]
        assert out_channel.channel_id == plan.channel_of(out).channel_id
        assert [ct.tuple["a"] for ct in tuples] == [1, 2]


# -- zipf selection workload --------------------------------------------------------


def zipf_plan(optimize, num_queries=60, seed=5):
    schema = synthetic_schema()
    rng = np.random.default_rng(seed)
    constants = ZipfSampler(0, 99, 1.5, rng).sample(num_queries)
    plan = QueryPlan()
    s = plan.add_source("S", schema)
    for i, c in enumerate(constants):
        out = plan.add_operator(
            Selection(Comparison(attr("a0"), "==", lit(int(c)))),
            [s],
            query_id=f"q{i}",
        )
        plan.mark_output(out, f"q{i}")
    if optimize:
        Optimizer().optimize(plan)
    return plan, s


class TestZipfEquivalence:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_outputs_identical(self, optimize):
        schema = synthetic_schema()
        rng = np.random.default_rng(6)
        values = rng.integers(0, 100, size=(600, len(schema)))
        tuples = [
            StreamTuple(schema, tuple(int(v) for v in values[i]), i)
            for i in range(600)
        ]
        per_tuple, batched = run_both_ways(
            lambda: zipf_plan(optimize),
            lambda plan, s: [StreamSource(plan.channel_of(s), tuples)],
        )
        assert per_tuple[0].output_events > 0
        assert_equivalent(per_tuple, batched)

    def test_optimized_zipf_channel_is_batchable(self):
        plan, s = zipf_plan(True)
        engine = StreamEngine(plan)
        assert engine.channel_batchable(plan.channel_of(s).channel_id)


# -- perfmon hybrid (diamond) -------------------------------------------------------


class TestHybridEquivalence:
    def _workload(self):
        dataset = PerfmonDataset(processes=8, duration_seconds=60, seed=3)
        return HybridWorkload(dataset, num_queries=3)

    @pytest.mark.parametrize("optimize", [False, True])
    def test_outputs_identical(self, optimize):
        workload = self._workload()
        per_tuple, batched = run_both_ways(
            lambda: workload.rumor_plan(channels=True, optimize=optimize),
            lambda plan, name_map: workload.sources(plan, name_map, 60),
        )
        assert per_tuple[0].output_events > 0
        assert_equivalent(per_tuple, batched)

    def test_multi_channel_sink_query_refuses_batching(self):
        # One query with sinks on two channels reachable from the entry:
        # per-tuple dispatch interleaves its captured outputs across the two
        # channels per event, which batch grouping would reorder — so the
        # entry channel must fall back to per-tuple dispatch.
        schema = Schema.of_ints("a0", "a1")

        def plan_factory():
            plan = QueryPlan()
            s = plan.add_source("S", schema)
            low = plan.add_operator(
                Selection(Comparison(attr("a0"), "<", lit(2))), [s], query_id="q"
            )
            high = plan.add_operator(
                Selection(Comparison(attr("a0"), ">", lit(0))), [s], query_id="q"
            )
            plan.mark_output(low, "q")
            plan.mark_output(high, "q")
            return plan, s

        plan, s = plan_factory()
        engine = StreamEngine(plan)
        assert not engine.channel_batchable(plan.channel_of(s).channel_id)
        # Unoptimized, each selection is its own m-op: two producers.
        assert not engine.channel_rankable(plan.channel_of(s).channel_id)
        tuples = [StreamTuple(schema, (ts % 3, ts), ts) for ts in range(40)]
        per_tuple, batched = run_both_ways(
            plan_factory,
            lambda plan, s: [StreamSource(plan.channel_of(s), tuples)],
        )
        assert per_tuple[0].output_events > 0
        assert_equivalent(per_tuple, batched)

    def test_diamond_channel_refuses_batching(self):
        # The µ-op reads both α(CPU) and σ(α(CPU)): two channels reachable
        # from CPU, so a CPU run must not be batch-dispatched.
        workload = self._workload()
        plan, name_map = workload.rumor_plan(channels=True)
        engine = StreamEngine(plan)
        cpu_channel = plan.channel_of(name_map["CPU"])
        assert not engine.channel_batchable(cpu_channel.channel_id)
        # α(CPU) and σ(α(CPU)) come from two producers (the α and σ
        # m-ops), so ranks cannot order the µ-op's inputs either.
        assert not engine.channel_rankable(cpu_channel.channel_id)
        dispatched = spy_run_lengths(engine)
        engine.run(workload.sources(plan, name_map, 20))
        assert dispatched
        assert all(channel is not None for channel, __ in dispatched)


# -- churn: migration on batch boundaries -------------------------------------------

class TestChurnEquivalence:
    def _serve(self, batched):
        workload = ChurnWorkload(
            arrival_rate=0.03,
            mean_lifetime=300.0,
            horizon=600,
            initial_queries=4,
            seed=11,
        )
        runtime = QueryRuntime(
            {"S": workload.schema, "T": workload.schema},
            capture_outputs=True,
        )
        driver = drive_batched if batched else drive
        applied = sum(
            1
            for __ in driver(
                runtime, workload.stream_events(), workload.schedule()
            )
        )
        return runtime, applied

    def test_batched_serve_identical_across_migrations(self):
        per_event, applied_per_event = self._serve(batched=False)
        batched, applied_batched = self._serve(batched=True)
        assert applied_per_event == applied_batched
        assert per_event.stats.migrations == batched.stats.migrations
        assert per_event.stats.migrations > 2, "must exercise live rewrites"
        assert per_event.stats.output_events > 0
        assert (
            per_event.stats.outputs_by_query == batched.stats.outputs_by_query
        )
        assert per_event.stats.input_events == batched.stats.input_events
        assert per_event.captured == batched.captured
        assert per_event.state_size == batched.state_size

    def test_explicit_batch_boundary_migration(self):
        """register → batch → register (migration) → batch → unregister."""
        schema = Schema.numbered(2)

        def serve(use_batches):
            runtime = QueryRuntime({"S": schema}, capture_outputs=True)
            runtime.register("FROM S WHERE a0 == 1", query_id="alpha")
            first = [StreamTuple(schema, (ts % 3, ts), ts) for ts in range(30)]
            second = [
                StreamTuple(schema, (ts % 3, ts), ts) for ts in range(30, 60)
            ]
            third = [
                StreamTuple(schema, (ts % 3, ts), ts) for ts in range(60, 90)
            ]
            if use_batches:
                runtime.process_batch("S", first)
            else:
                for tuple_ in first:
                    runtime.process("S", tuple_)
            runtime.register("FROM S WHERE a0 == 2", query_id="beta")
            if use_batches:
                runtime.process_batch("S", second)
            else:
                for tuple_ in second:
                    runtime.process("S", tuple_)
            runtime.unregister("alpha")
            if use_batches:
                runtime.process_batch("S", third)
            else:
                for tuple_ in third:
                    runtime.process("S", tuple_)
            return runtime

        per_event = serve(False)
        batched = serve(True)
        assert per_event.stats.outputs_by_query == batched.stats.outputs_by_query
        assert per_event.captured == batched.captured
        assert batched.stats.outputs_by_query["beta"] > 0


# -- property: random interleavings over a mixed plan -------------------------------
# (plan builders + entry strategies live in tests/strategies.py, shared with
# the sharded-engine and process-mode equivalence suites)


class TestRandomInterleavings:
    @given(events=event_entries(n_streams=2), max_batch=max_batches)
    @settings(max_examples=40, deadline=None)
    def test_batched_equals_per_tuple(self, events, max_batch):
        s_tuples, t_tuples = split_entries(events, n_streams=2)
        per_tuple, batched = run_both_ways(
            mixed_plan,
            lambda plan, handles: [
                StreamSource(plan.channel_of(handles[0]), s_tuples),
                StreamSource(plan.channel_of(handles[1]), t_tuples),
            ],
            max_batch=max_batch,
        )
        assert_equivalent(per_tuple, batched)


# -- component-grouped source merging -----------------------------------------------


def spy_run_lengths(engine):
    """Record ``(channel_id, run length)`` of every run ``run`` dispatches,
    and ``(None, window length)`` of every ranked window."""
    dispatched = []
    run_batch = engine._run_batch
    run_window = engine._run_window

    def spy(channel, batch, stats):
        dispatched.append((channel.channel_id, len(batch)))
        run_batch(channel, batch, stats)

    def spy_window(schedule, window, stats):
        dispatched.append((None, len(window)))
        run_window(schedule, window, stats)

    engine._run_batch = spy
    engine._run_window = spy_window
    return dispatched


class TestComponentGroupedMerging:
    """``run`` orders only what shares state: sources merge tuple-by-tuple
    within a component (interleaved components as ranked windows),
    components drain one after another — and nothing a query can observe
    distinguishes that from the global merge."""

    @given(
        shape=st.sampled_from(["components", "mixed", "w1", "w1_a0"]),
        k=st.integers(1, 4),
        entries=event_entries(n_streams=8, max_size=60, ties=True),
        order=st.permutations(range(8)),
        columnar=st.booleans(),
        max_batch=st.integers(1, 7),
    )
    @example(  # q_both's two sinks (X, Y) and the S;T sequence, with ts ties
        shape="components",
        k=2,
        entries=[(6, 1, 0, 1), (7, 1, 0, 1), (6, 2, 0, 1), (4, 1, 0, 0),
                 (5, 1, 0, 0), (5, 1, 1, 1), (0, 1, 0, 0), (1, 2, 0, 1)],
        order=(7, 6, 5, 4, 3, 2, 1, 0),
        columnar=False,
        max_batch=4,
    )
    @example(  # one S event hitting two σ channels, a window split in a tie
        shape="w1",
        k=1,
        entries=[(0, 1, 0, 0), (0, 2, 2, 1), (1, 2, 0, 0), (1, 1, 0, 1),
                 (0, 3, 2, 0), (1, 2, 1, 0), (1, 1, 3, 1)],
        order=(1, 0, 2, 3, 4, 5, 6, 7),
        columnar=False,
        max_batch=2,
    )
    @settings(max_examples=200, deadline=None)
    def test_grouped_equals_per_tuple(
        self, shape, k, entries, order, columnar, max_batch
    ):
        if shape == "components":
            # Targets 0..3 fold onto the k σ-sources, 4..7 are S, T, X, Y —
            # so half the events land where order is observable.
            factory = lambda: independent_components_plan(k)
            n_streams = k + 4
            fold = lambda target: target % k if target < 4 else k + target - 4
        else:
            # The S, T component alone: it drains as ranked windows.
            factory = (
                mixed_plan
                if shape == "mixed"
                else lambda: w1_plan(second_attribute=shape == "w1")
            )
            n_streams = 2
            fold = lambda target: target % 2
        by_stream = split_entries(
            [(fold(target), *rest) for target, *rest in entries], n_streams
        )

        def sources_of(plan, handles):
            built = []
            for index in order:
                if index >= n_streams:
                    continue
                channel = plan.channel_of(handles[index])
                tuples = by_stream[index]
                if columnar and tuples:
                    batch = ColumnBatch.from_rows(
                        EVENT_SCHEMA, tuples, channel.full_mask
                    )
                    built.append(ColumnRunSource(channel, batch))
                else:
                    built.append(StreamSource(channel, tuples))
            return built

        plan, handles = factory()
        reference = StreamEngine(plan, capture_outputs=True, batching=False)
        expected = reference.run(sources_of(plan, handles))
        plan, handles = factory()
        engine = StreamEngine(plan, capture_outputs=True, max_batch=max_batch)
        dispatched = spy_run_lengths(engine)
        stats = engine.run(sources_of(plan, handles))
        assert_equivalent(
            (expected, reference.captured), (stats, engine.captured)
        )
        if shape != "components":
            assert all(channel is None for channel, __ in dispatched)
            assert sum(length for __, length in dispatched) == len(entries)
            assert all(length <= max_batch for __, length in dispatched)

    def test_components_of_the_plan(self):
        plan, handles = independent_components_plan(2)
        engine = StreamEngine(plan)
        component = engine.channel_components()
        a0, a1, s, t, x, y = (
            component[plan.channel_of(handle).channel_id] for handle in handles
        )
        assert s == t, "the sequence joins S and T"
        assert x == y, "q_both sinks in both"
        assert len({a0, a1, s, x}) == 4

    def test_independent_sources_get_full_length_runs(self):
        # Fails at the parent commit: one global merge over four
        # timestamp-interleaved sources cuts every run to a single event.
        schema = synthetic_schema()
        plan = QueryPlan()
        handles = [plan.add_source(f"S{i}", schema) for i in range(4)]
        for index, handle in enumerate(handles):
            out = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(1))),
                [handle],
                query_id=f"q{index}",
            )
            plan.mark_output(out, f"q{index}")
        per_source = [
            [
                StreamTuple(schema, (ts % 3,) * len(schema), ts)
                for ts in range(index, 400, 4)
            ]
            for index in range(4)
        ]
        engine = StreamEngine(plan, max_batch=16)
        dispatched = spy_run_lengths(engine)
        engine.run(
            [
                StreamSource(plan.channel_of(handle), tuples)
                for handle, tuples in zip(handles, per_source)
            ]
        )
        for handle in handles:
            channel_id = plan.channel_of(handle).channel_id
            lengths = [n for cid, n in dispatched if cid == channel_id]
            assert lengths == [16] * 6 + [4]

    def _bridged_serve(self, batching):
        """Two runs over S and T; between them the plan gains a sequence
        bridging the two (until then independent) sources."""
        schema = EVENT_SCHEMA
        plan = QueryPlan()
        s = plan.add_source("S", schema)
        t = plan.add_source("T", schema)
        sel = plan.add_operator(
            Selection(Comparison(attr("a0"), "==", lit(1))), [s], query_id="q_s"
        )
        plan.mark_output(sel, "q_s")
        other = plan.add_operator(
            Selection(Comparison(attr("a0"), "==", lit(1))), [t], query_id="q_t"
        )
        plan.mark_output(other, "q_t")
        engine = StreamEngine(
            plan, capture_outputs=True, batching=batching, max_batch=8
        )

        def sources(first, last):
            return [
                StreamSource(
                    plan.channel_of(handle),
                    [
                        StreamTuple(schema, (ts % 4 // 2, ts), ts)
                        for ts in range(first + offset, last, 2)
                    ],
                )
                for offset, handle in enumerate((s, t))
            ]

        channels = [plan.channel_of(s).channel_id, plan.channel_of(t).channel_id]
        dispatched = spy_run_lengths(engine)
        stats = engine.run(sources(0, 40))
        before = list(dispatched)
        seq = plan.add_operator(
            Sequence(
                conjunction(
                    [DurationWithin(4), Comparison(attr("a1"), ">", lit(0))]
                )
            ),
            [sel, t],
            query_id="q_seq",
        )
        plan.mark_output(seq, "q_seq")
        migrate_engine(engine)
        del dispatched[:]
        stats.absorb(engine.run(sources(40, 80)))
        return engine, stats, channels, before, list(dispatched)

    def test_bridging_query_invalidates_the_component_cache(self):
        reference, reference_stats, *__ = self._bridged_serve(batching=False)
        engine, stats, (s, t), before, after = self._bridged_serve(
            batching=True
        )
        # Independent: each source drained whole, in full-length runs.
        assert before == [(s, 8), (s, 8), (s, 4), (t, 8), (t, 8), (t, 4)]
        # Bridged: S and T interleave tuple by tuple, so the second call
        # drains them together as ranked windows of max_batch events.
        assert after == [(None, 8)] * 5
        assert reference_stats.outputs_by_query["q_seq"] > 0
        assert_equivalent(
            (reference_stats, reference.captured), (stats, engine.captured)
        )


# -- ranked windows -----------------------------------------------------------------


class TestRankedWindows:
    """The rank test: which groups may drain as rank-ordered windows (the
    byte-identity property is ``test_grouped_equals_per_tuple``)."""

    @pytest.mark.parametrize("second_attribute", [True, False])
    def test_rank_test_admits_the_w1_shape(self, second_attribute):
        # The ;-index reads several σ channels reachable from S — a diamond
        # to the per-channel test — but all of them from the one σ-index.
        plan, (s, t) = w1_plan(second_attribute)
        assert [mop.kind for mop in plan.mops] == ["σ-index", ";-index"]
        engine = StreamEngine(plan)
        s_id, t_id = plan.channel_of(s).channel_id, plan.channel_of(t).channel_id
        assert not engine.channel_batchable(s_id)
        assert engine.channel_rankable(s_id)
        assert engine.channel_rankable(t_id)

    def test_sinks_from_two_producers_refuse_windows(self):
        # q_two sinks on σ(S) and directly on S: at an S event's rank its
        # outputs come from the σ m-op *and* the entry, whose relative
        # order only the per-tuple queue fixes.  The S;T group falls back
        # to per-channel runs.
        def build():
            plan = QueryPlan()
            s = plan.add_source("S", EVENT_SCHEMA)
            t = plan.add_source("T", EVENT_SCHEMA)
            sel = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(1))),
                [s],
                query_id="q_two",
            )
            plan.mark_output(sel, "q_two")
            plan.mark_output(s, "q_two")
            seq = plan.add_operator(
                Sequence(
                    conjunction(
                        [DurationWithin(6), Comparison(right("a0"), "==", lit(1))]
                    )
                ),
                [sel, t],
                query_id="q_seq",
            )
            plan.mark_output(seq, "q_seq")
            return plan, (s, t)

        plan, (s, t) = build()
        engine = StreamEngine(plan, capture_outputs=True, max_batch=8)
        assert not engine.channel_rankable(plan.channel_of(s).channel_id)
        assert engine.channel_rankable(plan.channel_of(t).channel_id)
        s_tuples, t_tuples = split_entries(
            [(ts % 2, ts % 3, ts % 5) for ts in range(60)], 2
        )
        sources = lambda plan, handles: [
            StreamSource(plan.channel_of(handles[0]), s_tuples),
            StreamSource(plan.channel_of(handles[1]), t_tuples),
        ]
        dispatched = spy_run_lengths(engine)
        stats = engine.run(sources(plan, (s, t)))
        assert dispatched
        assert all(channel is not None for channel, __ in dispatched)
        reference_plan, handles = build()
        reference = StreamEngine(
            reference_plan, capture_outputs=True, batching=False
        )
        expected = reference.run(sources(reference_plan, handles))
        assert reference.captured["q_two"]
        assert reference.captured["q_seq"]
        assert_equivalent(
            (expected, reference.captured), (stats, engine.captured)
        )


# -- sharded axis: the equivalence contract extends across shards -------------------


class TestShardedRandomInterleavings:
    """Property: sharded execution == per-tuple single engine, any
    interleaving, any batch size, any shard count, either feed."""

    @given(
        events=event_entries(n_streams=7),
        max_batch=max_batches,
        n_shards=st.integers(1, 4),
        feed=st.sampled_from(["local", "router"]),
        k=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_sharded_equals_per_tuple(
        self, events, max_batch, n_shards, feed, k
    ):
        # k == 0 draws the two-component plan; k >= 1 the k σ-components
        # beside S;T and q_both, whose sinks sit in two planner components.
        from repro.shard import ShardedEngine

        def build():
            if k == 0:
                return two_component_plan()
            return independent_components_plan(k)

        plan, handles = build()
        n_streams = len(handles)
        by_stream = split_entries(
            [(target % n_streams, *rest) for target, *rest in events],
            n_streams,
        )

        def sources_of(plan, handles):
            return [
                StreamSource(plan.channel_of(handle), by_stream[index])
                for index, handle in enumerate(handles)
            ]

        reference = StreamEngine(plan, capture_outputs=True, batching=False)
        per_tuple = reference.run(sources_of(plan, handles))

        plan, handles = build()
        sharded = ShardedEngine(
            plan,
            n_shards,
            parallel=False,
            feed=feed,
            capture_outputs=True,
            max_batch=max_batch,
        )
        run = sharded.run(sources_of(plan, handles))
        aggregate = run.aggregate
        assert aggregate.outputs_by_query == per_tuple.outputs_by_query
        assert aggregate.input_events == per_tuple.input_events
        assert aggregate.output_events == per_tuple.output_events
        assert sharded.captured == reference.captured

    @pytest.mark.parametrize("feed", ["local", "router"])
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_pass_through_query_on_two_sources(self, n_shards, feed):
        # ``qp`` sinks directly on the sources P1 and P2: they are in no
        # shard-plan component, yet their relative order is observable.
        from repro.shard import ShardedEngine

        def build():
            plan = QueryPlan()
            s, p1, p2 = (plan.add_source(n, EVENT_SCHEMA) for n in ("S", "P1", "P2"))
            sel = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(1))), [s], query_id="q"
            )
            plan.mark_output(sel, "q")
            plan.mark_output(p1, "qp")
            plan.mark_output(p2, "qp")
            return plan, [
                StreamSource(
                    plan.channel_of(handle),
                    [
                        StreamTuple(EVENT_SCHEMA, (1, ts), ts)
                        for ts in range(offset, 30, 3)
                    ],
                )
                for offset, handle in enumerate((s, p1, p2))
            ]

        plan, sources = build()
        reference = StreamEngine(plan, capture_outputs=True, batching=False)
        per_tuple = reference.run(sources)
        plan, sources = build()
        sharded = ShardedEngine(
            plan, n_shards, parallel=False, feed=feed, capture_outputs=True
        )
        aggregate = sharded.run(sources).aggregate
        assert [t.ts for t in reference.captured["qp"]] == [
            ts for ts in range(30) if ts % 3
        ]
        assert aggregate.outputs_by_query == per_tuple.outputs_by_query
        assert aggregate.input_events == per_tuple.input_events
        assert sharded.captured == reference.captured

    @pytest.mark.parametrize("parallel", [False, True], ids=["inline", "process"])
    @pytest.mark.parametrize("feed", ["local", "router"])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", ["two_components", "source_and_derived"])
    def test_query_sinks_stay_in_one_component(
        self, shape, n_shards, feed, parallel
    ):
        # A query's sinks must all land in one component, or the shard
        # merge reorders its captured outputs (router feed) and shards
        # overwrite each other's captured list (3+ shards).  Shapes:
        # ``q_both`` on σ(X) and σ(Y) of independent_components_plan(2), and
        # ``q_mixed`` on σ(S) and directly on the source P.
        from repro.shard import ShardedEngine

        def build():
            if shape == "two_components":
                plan, handles = independent_components_plan(2)
            else:
                plan = QueryPlan()
                s, p, u = (
                    plan.add_source(n, EVENT_SCHEMA) for n in ("S", "P", "U")
                )
                for stream, query_id in ((s, "q_mixed"), (u, "q_u")):
                    out = plan.add_operator(
                        Selection(Comparison(attr("a0"), ">", lit(0))),
                        [stream],
                        query_id=query_id,
                    )
                    plan.mark_output(out, query_id)
                plan.mark_output(p, "q_mixed")
                handles = (s, p, u)
            period = len(handles)
            return plan, [
                StreamSource(
                    plan.channel_of(handle),
                    [
                        StreamTuple(EVENT_SCHEMA, (1, ts), ts)
                        for ts in range(offset, 10 * period, period)
                    ],
                )
                for offset, handle in enumerate(handles)
            ]

        plan, sources = build()
        reference = StreamEngine(plan, capture_outputs=True, batching=False)
        per_tuple = reference.run(sources)
        query_id = "q_both" if shape == "two_components" else "q_mixed"
        assert len(reference.captured[query_id]) == 20
        plan, sources = build()
        sharded = ShardedEngine(
            plan, n_shards, parallel=parallel, feed=feed, capture_outputs=True
        )
        aggregate = sharded.run(sources).aggregate
        assert sharded.captured == reference.captured
        assert aggregate.outputs_by_query == per_tuple.outputs_by_query
        assert aggregate.input_events == per_tuple.input_events


# -- state partitioning -------------------------------------------------------------


class TestStatePartition:
    def test_state_size_matches_full_sum(self):
        plan, (s, t) = mixed_plan()
        engine = StreamEngine(plan)
        schema = Schema.of_ints("a0", "a1")
        channel = plan.channel_of(s)
        for ts in range(5):
            engine.process(
                channel, channel.encode_all(StreamTuple(schema, (1, ts), ts))
            )
        full = sum(
            executor.state_size for __, executor in engine.executor_entries().values()
        )
        assert engine.state_size == full
        assert engine.state_size > 0

    def test_stateless_executors_partitioned_out(self):
        plan, s = zipf_plan(True, num_queries=10)
        engine = StreamEngine(plan)
        # A pure selection plan holds no state at all.
        assert engine.state_size == 0
        assert engine._stateful_executors == []
