"""Live cross-shard derived channels: export, relay, recover — byte-identical.

The tentpole contract of ISSUE 10 at the *lifecycle runtime* layer:
``export_stream(query_id, alias)`` re-emits a registered query's sink
channel as a derived source stream any shard can consume, which is what
lets a connected component split across workers.  These suites pin the
end-to-end discipline:

- **split placement ≡ inline composition** — a consumer reading the
  exported alias from another shard produces byte-identical outputs to a
  single runtime evaluating the composed query;
- **relay traffic is derived, not input** — aggregate ``input_events``
  count source events only, however many bridge tuples flow;
- **taps ride their producers** — rebalance moves the export with the
  component, mid-stream, without dropping or duplicating a tuple;
- **exactly-once across crashes** — worker crashes (producer and consumer
  side), coordinator crashes around the ``rbatch`` journal append, journal
  cold starts and re-adoption all end byte-identical, via ack-based run
  retention + journal-before-ship;
- **hypothesis properties** over random event interleavings, batch sizes,
  seeded crash points and mid-stream rebalances (ISSUE 10 satellite).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CoordinatorCrashError, LifecycleError
from repro.runtime import QueryRuntime
from repro.shard import (
    CoordinatorFaults,
    ProcessShardedRuntime,
    ShardedRuntime,
    WorkerFaults,
    fork_available,
)
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from strategies import event_entries, max_batches

SCHEMA = Schema.of_ints("a0", "a1")
FAST = {"command_timeout": 0.25, "max_retries": 60}

PRODUCER = "FROM S WHERE a0 == 2"
CONSUMER = "FROM B AGG sum(a1) OVER 20 BY a0 AS m"
COMPOSED = "FROM (FROM S WHERE a0 == 2) AGG sum(a1) OVER 20 BY a0 AS m"


def source_rows(first, last):
    return [
        StreamTuple(SCHEMA, (ts % 3, ts), ts) for ts in range(first, last)
    ]


def feed(runtime, first, last, batch=7):
    rows = source_rows(first, last)
    for start in range(0, len(rows), batch):
        runtime.process_batch("S", rows[start : start + batch])


def outputs(runtime, query_id):
    return [t.values for t in runtime.captured.get(query_id, [])]


def composed_reference(first=0, last=300):
    reference = QueryRuntime({"S": SCHEMA}, capture_outputs=True)
    reference.register(COMPOSED, query_id="cons")
    feed(reference, first, last)
    return outputs(reference, "cons")


def bridge_split(runtime):
    """Producer on shard 0, consumer on shard 1, bridged by alias B."""
    runtime.register(PRODUCER, query_id="prod", shard=0)
    runtime.export_stream("prod", "B")
    runtime.register(CONSUMER, query_id="cons", shard=1)


class TestInProcessLiveRelay:
    def test_split_placement_matches_inline_composition(self):
        runtime = ShardedRuntime({"S": SCHEMA}, n_shards=2, capture_outputs=True)
        bridge_split(runtime)
        feed(runtime, 0, 300)
        assert outputs(runtime, "cons") == composed_reference()
        assert runtime.exported_streams() == {"B": "prod"}

    def test_relayed_tuples_are_not_input_events(self):
        runtime = ShardedRuntime({"S": SCHEMA}, n_shards=2, capture_outputs=True)
        bridge_split(runtime)
        feed(runtime, 0, 300)
        assert runtime.stats.input_events == 300
        assert runtime.stats.physical_input_events == 300
        assert runtime.relayed_events == len(outputs(runtime, "prod"))
        assert runtime.relayed_events > 0

    def test_rebalance_moves_tap_mid_stream(self):
        runtime = ShardedRuntime({"S": SCHEMA}, n_shards=2, capture_outputs=True)
        bridge_split(runtime)
        feed(runtime, 0, 110)
        runtime.rebalance("prod", 1)
        feed(runtime, 110, 210)
        runtime.rebalance("prod", 0)
        feed(runtime, 210, 300)
        assert outputs(runtime, "cons") == composed_reference()

    def test_chained_bridges_drain_to_quiescence(self):
        """A bridge feeding a bridge: shard 0 → 1 → 0 in one drain."""
        runtime = ShardedRuntime({"S": SCHEMA}, n_shards=2, capture_outputs=True)
        runtime.register(PRODUCER, query_id="prod", shard=0)
        runtime.export_stream("prod", "B")
        runtime.register("FROM B WHERE a1 > 10", query_id="mid", shard=1)
        runtime.export_stream("mid", "C")
        runtime.register(
            "FROM C AGG sum(a1) OVER 20 BY a0 AS m", query_id="cons", shard=0
        )
        feed(runtime, 0, 300)
        reference = QueryRuntime({"S": SCHEMA}, capture_outputs=True)
        reference.register(
            "FROM (FROM (FROM S WHERE a0 == 2) WHERE a1 > 10) "
            "AGG sum(a1) OVER 20 BY a0 AS m",
            query_id="cons",
        )
        feed(reference, 0, 300)
        assert outputs(runtime, "cons") == outputs(reference, "cons")

    def test_export_validation_and_guards(self):
        runtime = ShardedRuntime({"S": SCHEMA}, n_shards=2, capture_outputs=True)
        bridge_split(runtime)
        with pytest.raises(LifecycleError, match="already declared"):
            runtime.export_stream("prod", "B")
        with pytest.raises(LifecycleError, match="already declared"):
            runtime.export_stream("prod", "S")
        with pytest.raises(LifecycleError):
            runtime.export_stream("ghost", "D")
        with pytest.raises(LifecycleError, match="feeds exported stream"):
            runtime.unregister("prod")
        # The consumer is not a producer; it can leave freely.
        runtime.unregister("cons")

    def test_sharing_merge_rehomes_the_tap(self):
        """A duplicate registration re-homes the producer's sink under
        ``eliminate_duplicate``; the tap follows, cursor intact."""
        runtime = ShardedRuntime({"S": SCHEMA}, n_shards=2, capture_outputs=True)
        bridge_split(runtime)
        feed(runtime, 0, 150)
        runtime.register(PRODUCER, query_id="twin", shard=0)
        feed(runtime, 150, 300)
        assert outputs(runtime, "cons") == composed_reference()


pytestmark_proc = pytest.mark.skipif(
    not fork_available(), reason="process mode requires the fork start method"
)


def split_reference(first=0, last=300):
    reference = ShardedRuntime({"S": SCHEMA}, n_shards=2, capture_outputs=True)
    bridge_split(reference)
    feed(reference, first, last)
    return reference


def assert_identical(proc, reference):
    stats = proc.collect_stats()
    assert proc.captured == reference.captured
    assert stats.outputs_by_query == reference.stats.outputs_by_query
    assert stats.input_events == reference.stats.input_events
    assert stats.output_events == reference.stats.output_events


@pytestmark_proc
class TestProcessLiveRelay:
    def test_split_placement_is_byte_identical(self):
        reference = split_reference()
        proc = ProcessShardedRuntime(
            {"S": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            **FAST,
        )
        try:
            bridge_split(proc)
            feed(proc, 0, 300)
            assert_identical(proc, reference)
            assert proc.exported_streams() == {"B": "prod"}
            assert proc.relayed_events == reference.relayed_events
        finally:
            proc.close()

    @pytest.mark.parametrize("crash_shard", [0, 1])
    def test_worker_crash_mid_stream_is_exactly_once(self, crash_shard):
        """Kill the producer's (or consumer's) worker between two data
        frames: restore + WAL replay + relay-cursor re-tap ends
        byte-identical — no relayed tuple lost or doubled."""
        reference = split_reference()
        proc = ProcessShardedRuntime(
            {"S": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            durable=True,
            checkpoint_every=5,
            worker_faults={crash_shard: WorkerFaults(crash_on=("data", 12))},
            **FAST,
        )
        try:
            bridge_split(proc)
            feed(proc, 0, 300)
            assert_identical(proc, reference)
            assert proc.crash_recoveries == 1
            assert not proc.recovery_log[0].state_lost
        finally:
            proc.close()

    def test_rebalance_moves_export_with_component(self):
        reference = split_reference()
        proc = ProcessShardedRuntime(
            {"S": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            durable=True,
            **FAST,
        )
        try:
            bridge_split(proc)
            feed(proc, 0, 110)
            proc.rebalance("prod", 1)
            feed(proc, 110, 210)
            proc.rebalance("prod", 0)
            feed(proc, 210, 300)
            assert_identical(proc, reference)
        finally:
            proc.close()

    def test_journal_cold_start_resumes_relays(self, tmp_path):
        reference = split_reference()
        proc = ProcessShardedRuntime(
            {"S": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            journal=str(tmp_path),
            checkpoint_every=5,
            **FAST,
        )
        bridge_split(proc)
        feed(proc, 0, 150)
        proc.close()
        successor = ProcessShardedRuntime.from_journal(str(tmp_path), **FAST)
        try:
            assert successor.exported_streams() == {"B": "prod"}
            feed(successor, 150, 300)
            assert_identical(successor, reference)
        finally:
            successor.close()

    @pytest.mark.parametrize("when", ["before", "after"])
    @pytest.mark.parametrize("mode", ["readopt", "cold"])
    def test_coordinator_crash_around_rbatch_journal(
        self, tmp_path, when, mode
    ):
        """Kill the coordinator around a relay chunk's journal append.
        ``before`` loses the chunk (the producer still retains its runs —
        the successor re-collects them); ``after`` journals it but never
        ships (the successor re-ships from the folded log).  Either way:
        byte-identical, exactly-once."""
        reference = split_reference()
        proc = ProcessShardedRuntime(
            {"S": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            journal=str(tmp_path),
            checkpoint_every=5,
            coordinator_faults=CoordinatorFaults(
                crash_on=("rbatch", 10), when=when
            ),
            **FAST,
        )
        try:
            bridge_split(proc)
            for start in range(0, 300, 10):
                feed(proc, start, start + 10)
        except CoordinatorCrashError:
            pass
        else:
            pytest.fail("rbatch fault never fired")
        if mode == "readopt":
            handoff = proc.detach()
            successor = ProcessShardedRuntime.readopt(
                str(tmp_path), handoff, **FAST
            )
        else:
            proc.abandon()
            successor = ProcessShardedRuntime.from_journal(str(tmp_path), **FAST)
        try:
            resume = successor.input_positions().get("S", 0)
            assert 0 < resume <= 300
            feed(successor, resume, 300)
            assert_identical(successor, reference)
        finally:
            successor.close()

    def test_lifecycle_guards(self):
        proc = ProcessShardedRuntime(
            {"S": SCHEMA}, n_shards=2, capture_outputs=True, **FAST
        )
        try:
            bridge_split(proc)
            feed(proc, 0, 50)
            with pytest.raises(LifecycleError, match="feeds exported stream"):
                proc.unregister("prod")
            with pytest.raises(LifecycleError, match="feeds exported stream"):
                proc.submit_unregister("prod")
            with pytest.raises(LifecycleError, match="owns the producer"):
                proc.remove_worker(proc.shard_of("prod"))
            with pytest.raises(LifecycleError, match="already in use"):
                proc.export_stream("cons", "B")
        finally:
            proc.close()


class TestBridgeProperties:
    """Hypothesis properties over bridge-shaped plans (ISSUE 10 satellite)."""

    @given(entries=event_entries(n_streams=1, max_size=60), batch=max_batches)
    @settings(max_examples=40, deadline=None)
    def test_split_matches_inline_for_any_interleaving(self, entries, batch):
        rows = [
            StreamTuple(SCHEMA, (a0, a1), ts)
            for ts, (__, a0, a1) in enumerate(entries)
        ]
        runtime = ShardedRuntime({"S": SCHEMA}, n_shards=2, capture_outputs=True)
        bridge_split(runtime)
        reference = QueryRuntime({"S": SCHEMA}, capture_outputs=True)
        reference.register(COMPOSED, query_id="cons")
        for start in range(0, len(rows), batch):
            chunk = rows[start : start + batch]
            runtime.process_batch("S", chunk)
            reference.process_batch("S", chunk)
        assert outputs(runtime, "cons") == outputs(reference, "cons")
        assert runtime.stats.input_events == len(rows)

    @given(
        entries=event_entries(n_streams=1, min_size=10, max_size=60),
        batch=max_batches,
        move_at=st.integers(0, 59),
    )
    @settings(max_examples=25, deadline=None)
    def test_split_survives_mid_stream_rebalance(self, entries, batch, move_at):
        rows = [
            StreamTuple(SCHEMA, (a0, a1), ts)
            for ts, (__, a0, a1) in enumerate(entries)
        ]
        runtime = ShardedRuntime({"S": SCHEMA}, n_shards=2, capture_outputs=True)
        bridge_split(runtime)
        reference = QueryRuntime({"S": SCHEMA}, capture_outputs=True)
        reference.register(COMPOSED, query_id="cons")
        moved = False
        for start in range(0, len(rows), batch):
            if not moved and start >= move_at:
                runtime.rebalance("prod", 1)
                moved = True
            chunk = rows[start : start + batch]
            runtime.process_batch("S", chunk)
            reference.process_batch("S", chunk)
        assert outputs(runtime, "cons") == outputs(reference, "cons")

    @pytest.mark.skipif(
        not fork_available(),
        reason="process mode requires the fork start method",
    )
    @given(
        crash_shard=st.integers(0, 1),
        occurrence=st.integers(1, 40),
        when=st.sampled_from(["before", "after"]),
        checkpoint_every=st.sampled_from([0, 4, 16]),
    )
    @settings(max_examples=5, deadline=None)
    def test_durable_bridge_survives_seeded_crashes(
        self, crash_shard, occurrence, when, checkpoint_every
    ):
        """Seeded worker crash × checkpoint cadence on a bridged serve:
        restore + replay + relay re-tap stays byte-identical whether or
        not the drawn crash fires."""
        reference = split_reference()
        proc = ProcessShardedRuntime(
            {"S": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            durable=True,
            checkpoint_every=checkpoint_every,
            worker_faults={
                crash_shard: WorkerFaults(
                    crash_on=("data", occurrence), when=when
                )
            },
            **FAST,
        )
        try:
            bridge_split(proc)
            feed(proc, 0, 300)
            assert_identical(proc, reference)
        finally:
            proc.close()
