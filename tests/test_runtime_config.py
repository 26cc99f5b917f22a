"""RuntimeConfig + open_runtime: selection and validation.

The unified factory replaced three divergent constructor surfaces; these
tests pin the selection rules (shards/process → which runtime) and the
actionable one-line validation errors.
"""

import pytest

from repro import RuntimeConfig, open_runtime
from repro.errors import LifecycleError
from repro.runtime.runtime import QueryRuntime
from repro.shard import fork_available
from repro.shard.runtime import ShardedRuntime
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

SCHEMA = Schema.numbered(2)
SOURCES = {"S": SCHEMA}


class TestSelection:
    def test_default_is_single_engine(self):
        runtime = open_runtime(RuntimeConfig(sources=SOURCES))
        assert type(runtime) is QueryRuntime

    def test_shards_select_in_process_sharded(self):
        runtime = open_runtime(RuntimeConfig(sources=SOURCES, shards=3))
        assert type(runtime) is ShardedRuntime
        assert runtime.n_shards == 3

    def test_shards_one_is_single_engine(self):
        runtime = open_runtime(RuntimeConfig(sources=SOURCES, shards=1))
        assert type(runtime) is QueryRuntime

    def test_overrides_apply_on_top_of_config(self):
        config = RuntimeConfig(sources=SOURCES)
        runtime = open_runtime(config, shards=2, capture_outputs=True)
        assert type(runtime) is ShardedRuntime
        # The original config is not mutated.
        assert config.shards is None
        assert config.capture_outputs is False

    def test_kwargs_only_call_site(self):
        runtime = open_runtime(sources=SOURCES, capture_outputs=True)
        runtime.register("FROM S WHERE a0 == 1", query_id="q")
        runtime.process_batch("S", [StreamTuple(SCHEMA, (1, 7), 1)])
        assert len(runtime.captured["q"]) == 1

    def test_resolved_shards_defaulting(self):
        assert RuntimeConfig().resolved_shards == 1
        assert RuntimeConfig(process=True).resolved_shards == 2
        assert RuntimeConfig(process=True, shards=5).resolved_shards == 5


class TestValidation:
    def test_zero_shards(self):
        with pytest.raises(LifecycleError, match="shards must be at least 1"):
            RuntimeConfig(sources=SOURCES, shards=0).validate()

    def test_durable_requires_process(self):
        with pytest.raises(LifecycleError, match="--process"):
            RuntimeConfig(sources=SOURCES, durable=True).validate()

    def test_checkpoint_requires_process(self):
        with pytest.raises(LifecycleError, match="require process mode"):
            RuntimeConfig(sources=SOURCES, checkpoint_every=4).validate()

    def test_journal_requires_process(self):
        with pytest.raises(LifecycleError, match="only the process-mode"):
            RuntimeConfig(sources=SOURCES, journal="/tmp/x").validate()

    def test_resume_requires_journal(self):
        with pytest.raises(
            LifecycleError, match="--coordinator-journal DIR"
        ):
            RuntimeConfig(sources=SOURCES, process=True, resume=True).validate()

    def test_factory_validates(self):
        with pytest.raises(LifecycleError, match="shards must be at least 1"):
            open_runtime(sources=SOURCES, shards=0)

    def test_negative_checkpoint_every(self):
        with pytest.raises(LifecycleError, match="non-negative"):
            RuntimeConfig(
                sources=SOURCES, process=True, checkpoint_every=-1
            ).validate()


class TestDirectConstruction:
    def test_direct_constructor_works(self):
        """The runtime classes stay directly constructible."""
        runtime = QueryRuntime(SOURCES, capture_outputs=True)
        runtime.register("FROM S WHERE a0 == 1", query_id="q")
        runtime.process_batch("S", [StreamTuple(SCHEMA, (1, 2), 1)])
        assert len(runtime.captured["q"]) == 1


@pytest.mark.skipif(
    not fork_available(), reason="process mode requires the fork start method"
)
class TestProcessSelection:
    def test_process_true_opens_worker_fleet(self):
        from repro.shard.proc import ProcessShardedRuntime

        runtime = open_runtime(
            sources=SOURCES, process=True, capture_outputs=True
        )
        try:
            assert type(runtime) is ProcessShardedRuntime
            assert runtime.n_shards == 2
            runtime.register("FROM S WHERE a0 == 1", query_id="q")
            runtime.process_batch(
                "S", [StreamTuple(SCHEMA, (1, 9), 1)]
            )
            runtime.shard_stats()
            assert len(runtime.captured["q"]) == 1
        finally:
            runtime.close()

    def test_equivalent_outputs_across_selected_runtimes(self):
        """Same inputs through all three selections → same outputs."""
        captured = {}
        for label, kwargs in (
            ("single", {}),
            ("sharded", {"shards": 2}),
            ("process", {"process": True}),
        ):
            runtime = open_runtime(
                sources={"S": SCHEMA}, capture_outputs=True, **kwargs
            )
            try:
                runtime.register("FROM S WHERE a0 == 1", query_id="q")
                runtime.register(
                    "FROM S AGG avg(a1) OVER 10 BY a0 AS m", query_id="g"
                )
                for ts in range(40):
                    runtime.process(
                        "S", StreamTuple(SCHEMA, (ts % 3, ts), ts)
                    )
                if hasattr(runtime, "shard_stats"):
                    runtime.shard_stats()
                captured[label] = {
                    qid: [(t.ts, tuple(t.values)) for t in tuples]
                    for qid, tuples in runtime.captured.items()
                }
            finally:
                if hasattr(runtime, "close"):
                    runtime.close()
        assert captured["single"] == captured["sharded"]
        assert captured["single"] == captured["process"]
