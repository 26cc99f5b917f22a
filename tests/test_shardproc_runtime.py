"""Process-mode sharded runtime: lifecycle, routing, protocol basics.

Every test forks real worker processes; the suite is wrapped in
``pytest-timeout`` on CI because multiprocessing bugs *hang* rather than
fail.  Byte-level equivalence and fault injection live in their own
modules (``test_shardproc_equivalence.py`` / ``test_shardproc_faults.py``).
"""

import pytest

from repro.errors import LifecycleError
from repro.shard import ProcessShardedRuntime, fork_available
from repro.shard.wire import (
    COMMAND_KINDS,
    REGISTER,
    decode_command,
    decode_reply,
    encode_command,
    encode_reply,
)
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process mode requires the fork start method"
)

SCHEMA = Schema.numbered(2)
AGG = "FROM S AGG avg(a1) OVER 20 BY a0 AS m"
SEQ = "FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 15"
SEL = "FROM S WHERE a0 == 2"


def feed(runtime, first, last):
    for ts in range(first, last):
        runtime.process(
            "S" if ts % 2 == 0 else "T", StreamTuple(SCHEMA, (ts % 3, ts), ts)
        )


@pytest.fixture
def runtime():
    with ProcessShardedRuntime(
        {"S": SCHEMA, "T": SCHEMA}, n_shards=2, capture_outputs=True
    ) as instance:
        yield instance


class TestLifecycle:
    def test_register_places_and_routes(self, runtime):
        runtime.register(SEL, query_id="a")
        runtime.register(AGG, query_id="b")
        assert sorted(runtime.active_queries) == ["a", "b"]
        assert runtime.shard_loads() == [1, 1]
        assert runtime.shard_of("a") != runtime.shard_of("b")

    def test_validation(self, runtime):
        runtime.register(SEL, query_id="a", shard=1)
        assert runtime.shard_of("a") == 1
        with pytest.raises(LifecycleError):
            runtime.register(SEL, query_id="a")
        with pytest.raises(LifecycleError):
            runtime.register(SEL, query_id="b", shard=7)
        with pytest.raises(LifecycleError):
            runtime.shard_of("missing")
        with pytest.raises(LifecycleError):
            runtime.unregister("missing")
        with pytest.raises(LifecycleError):
            runtime.process("UNKNOWN", StreamTuple(SCHEMA, (0, 0), 0))
        with pytest.raises(LifecycleError):
            runtime.register("FROM NOPE WHERE a0 == 1", query_id="c")
        with pytest.raises(LifecycleError):
            runtime.rebalance("a", 1)  # already there
        with pytest.raises(LifecycleError):
            runtime.rebalance("a", 9)

    def test_unregister_frees_shard(self, runtime):
        runtime.register(SEL, query_id="a", shard=0)
        runtime.unregister("a")
        assert runtime.active_queries == []
        assert runtime.shard_loads() == [0, 0]

    def test_sources_freeze_after_start(self, runtime):
        runtime.register(SEL, query_id="a")
        with pytest.raises(LifecycleError):
            runtime.add_source("LATE", SCHEMA)

    def test_reoptimize_routes(self, runtime):
        runtime.register(SEL, query_id="a", shard=0)
        assert len(runtime.reoptimize()) == 2
        assert len(runtime.reoptimize(shard=0)) == 1

    def test_worker_errors_do_not_kill_workers(self, runtime):
        from repro.shard.proc import WorkerCommandError
        from repro.shard.wire import REBALANCE

        runtime.register(SEL, query_id="a", shard=0)
        # A worker-side failure (exporting an unknown query) surfaces as an
        # err reply — the worker stays alive and keeps serving.
        with pytest.raises(WorkerCommandError):
            runtime._rpc(0, REBALANCE, ("out", "nonexistent"))
        feed(runtime, 0, 10)
        assert runtime.collect_stats().outputs_by_query == {"a": 2}
        assert runtime.crash_recoveries == 0


class TestPipelinedAdmission:
    @pytest.mark.parametrize("durable", [False, True])
    def test_uncompilable_submit_is_refused_before_recording(self, durable):
        """A pipelined registration its worker would reject (an attribute
        the schema lacks) is refused at submit: catalog, routing and
        write-ahead log stay as they were, and a later worker kill recovers
        without re-sending the bad query."""
        with ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA}, n_shards=2, capture_outputs=True,
            durable=durable,
        ) as runtime:
            runtime.register(SEL, query_id="a", shard=0)
            wal = runtime.wal_span(0) if durable else None
            with pytest.raises(LifecycleError, match="nosuch"):
                runtime.submit_register("FROM S WHERE nosuch == 1", "bad", shard=0)
            assert runtime.collect_lifecycle() == 0
            assert runtime.active_queries == ["a"]
            assert runtime.shard_loads() == [1, 0]
            assert runtime._consumers_of("S") == (0,)
            if durable:
                assert runtime.wal_span(0) == wal
            feed(runtime, 0, 10)
            runtime._workers[0].process.kill()
            runtime._workers[0].process.join(timeout=10.0)
            runtime.heartbeat()
            assert runtime.crash_recoveries == 1
            feed(runtime, 10, 20)
            outputs = runtime.collect_stats().outputs_by_query
            assert set(outputs) == {"a"}
            if durable:
                assert outputs == {"a": 3}


class TestAccountingAndIntrospection:
    def test_input_events_counted_once_across_replicated_streams(self, runtime):
        runtime.register("FROM S WHERE a0 == 0", query_id="a", shard=0)
        runtime.register("FROM S WHERE a0 == 0", query_id="b", shard=1)
        for ts in range(10):
            runtime.process("S", StreamTuple(SCHEMA, (0, ts), ts))
        runtime.process_batch(
            "S", [StreamTuple(SCHEMA, (0, ts), ts) for ts in range(10, 14)]
        )
        stats = runtime.collect_stats()
        assert stats.input_events == 14
        assert stats.outputs_by_query == {"a": 14, "b": 14}

    def test_snapshot_and_describe(self, runtime):
        runtime.register(AGG, query_id="agg", shard=0)
        feed(runtime, 0, 20)
        snapshot = runtime.snapshot()
        assert len(snapshot) == 2
        assert snapshot[0]["active_queries"] == ["agg"]
        assert snapshot[0]["state_size"] > 0
        assert runtime.state_size == snapshot[0]["state_size"]
        text = runtime.describe()
        assert "shard 0" in text and "shard 1" in text and "incarnation" in text

    def test_events_before_any_query_are_counted_not_shipped(self, runtime):
        feed(runtime, 0, 6)
        assert runtime.input_stats.input_events == 6
        runtime.register(SEL, query_id="a")
        feed(runtime, 6, 10)
        assert runtime.collect_stats().input_events == 10

    def test_close_is_idempotent_and_final(self):
        runtime = ProcessShardedRuntime({"S": SCHEMA}, n_shards=2)
        runtime.register(SEL, query_id="a")
        runtime.close()
        runtime.close()
        with pytest.raises(LifecycleError):
            runtime.register(SEL, query_id="b")

    def test_rejects_bad_shard_count(self):
        with pytest.raises(LifecycleError):
            ProcessShardedRuntime({"S": SCHEMA}, n_shards=0)


class TestCommandCodec:
    def test_round_trip(self):
        frame = encode_command(REGISTER, 7, {"x": 1})
        assert frame[0] == REGISTER and frame[1] == 7
        assert isinstance(frame[2], bytes)
        assert decode_command(frame) == (REGISTER, 7, {"x": 1})
        reply = encode_reply(7, "ok", [1, 2])
        assert decode_reply(reply) == (7, "ok", [1, 2])

    def test_rejects_unknown_kinds(self):
        from repro.errors import ChannelError

        with pytest.raises(ChannelError):
            encode_command("bogus", 1, None)
        with pytest.raises(ChannelError):
            decode_command(("bogus", 1, b""))
        with pytest.raises(ChannelError):
            encode_reply(1, "meh", None)
        with pytest.raises(ChannelError):
            decode_reply(("run", 1, "ok", b""))

    def test_every_issue_frame_kind_exists(self):
        assert COMMAND_KINDS == {
            "register",
            "unregister",
            "reoptimize",
            "rebalance",
            "stats",
            "snapshot",
            "checkpoint",
            "restore",
            "hello",
            "ping",
            "relay-tap",
            "collect-relay",
        }
