"""Unit tests for the stream engine and run statistics."""

import pytest

from repro.core.optimizer import Optimizer
from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.engine.metrics import RunStats
from repro.operators.expressions import attr, lit
from repro.operators.predicates import Comparison
from repro.operators.select import Selection
from repro.streams.schema import Schema
from repro.streams.sources import StreamSource
from repro.streams.tuples import StreamTuple

SCHEMA = Schema.of_ints("a")


def simple_plan():
    plan = QueryPlan()
    source = plan.add_source("S", SCHEMA)
    out = plan.add_operator(
        Selection(Comparison(attr("a"), "==", lit(1))), [source], query_id="q"
    )
    plan.mark_output(out, "q")
    return plan, source


def tuples(values):
    return [StreamTuple(SCHEMA, (v,), ts) for ts, v in enumerate(values)]


class TestRun:
    def test_counts(self):
        plan, source = simple_plan()
        engine = StreamEngine(plan)
        stats = engine.run([StreamSource(plan.channel_of(source), tuples([1, 0, 1]))])
        assert stats.input_events == 3
        assert stats.output_events == 2
        assert stats.outputs_by_query == {"q": 2}
        assert stats.elapsed_seconds > 0

    def test_capture_outputs(self):
        plan, source = simple_plan()
        engine = StreamEngine(plan, capture_outputs=True)
        engine.run([StreamSource(plan.channel_of(source), tuples([1, 0]))])
        assert len(engine.captured["q"]) == 1

    def test_warmup_not_counted(self):
        plan, source = simple_plan()
        engine = StreamEngine(plan)
        stats = engine.run(
            [StreamSource(plan.channel_of(source), tuples([1, 1, 1, 1]))],
            warmup_events=2,
        )
        assert stats.input_events == 2

    def test_warmup_split_is_on_the_global_order(self):
        # Two independent sources: the warmed events are the first four of
        # the global timestamp order, not the first four of source one.
        def measured(batching):
            plan = QueryPlan()
            handles = [plan.add_source(name, SCHEMA) for name in "ST"]
            for handle in handles:
                out = plan.add_operator(
                    Selection(Comparison(attr("a"), "==", lit(1))),
                    [handle],
                    query_id=f"q_{handle.name}",
                )
                plan.mark_output(out, f"q_{handle.name}")
            engine = StreamEngine(plan, capture_outputs=True, batching=batching)
            stats = engine.run(
                [
                    StreamSource(
                        plan.channel_of(handle),
                        [StreamTuple(SCHEMA, (1,), ts) for ts in range(first, 12, 2)],
                    )
                    for first, handle in enumerate(handles)
                ],
                warmup_events=4,
            )
            return stats.outputs_by_query, engine.captured

        assert measured(batching=True) == measured(batching=False)
        assert measured(batching=True)[0] == {"q_S": 4, "q_T": 4}

    def test_process_single_event(self):
        plan, source = simple_plan()
        engine = StreamEngine(plan)
        channel = plan.channel_of(source)
        stats = engine.process(channel, channel.encode_all(tuples([1])[0]))
        assert stats.output_events == 1

    def test_multi_query_sink_counting(self):
        plan = QueryPlan()
        source = plan.add_source("S", SCHEMA)
        out = plan.add_operator(
            Selection(Comparison(attr("a"), "==", lit(1))), [source]
        )
        plan.mark_output(out, "q1")
        plan.mark_output(out, "q2")
        engine = StreamEngine(plan)
        stats = engine.run([StreamSource(plan.channel_of(source), tuples([1]))])
        assert stats.output_events == 2
        assert stats.outputs_by_query == {"q1": 1, "q2": 1}

    def test_logical_input_counting_with_channels(self):
        plan = QueryPlan()
        s1 = plan.add_source("S1", SCHEMA, sharable_label="s")
        s2 = plan.add_source("S2", SCHEMA, sharable_label="s")
        channel = plan.channelize([s1, s2])
        engine = StreamEngine(plan)
        stats = engine.run([StreamSource(channel, tuples([0, 0]))])
        # two channel tuples, each encoding two streams = 4 logical events
        assert stats.input_events == 4
        assert stats.physical_input_events == 2


class TestRunStats:
    def test_throughput(self):
        stats = RunStats(input_events=100, elapsed_seconds=2.0)
        assert stats.throughput == 50.0

    def test_zero_elapsed(self):
        assert RunStats(input_events=5).throughput == 0.0

    def test_merge(self):
        first = RunStats(input_events=10, output_events=1, elapsed_seconds=1.0)
        first.outputs_by_query = {"q": 1}
        second = RunStats(input_events=20, output_events=3, elapsed_seconds=2.0)
        second.outputs_by_query = {"q": 2, "r": 1}
        merged = first.merge(second)
        assert merged.input_events == 30
        assert merged.outputs_by_query == {"q": 3, "r": 1}
        assert merged.elapsed_seconds == 3.0

    def test_str(self):
        text = str(RunStats(input_events=10, elapsed_seconds=1.0))
        assert "throughput" in text
