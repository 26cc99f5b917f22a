"""Columnar data plane: end-to-end equivalence across every transport.

The zero-copy plane's acceptance contract: a serve over packed columns —
shared-memory ring records, ``crun`` queue frames, columnar-native
sources, vectorized ``process_columns`` — is **byte-identical** to the
in-process reference, including under seeded worker crashes with durable
recovery and checkpoint/restore, and so is a serve whose runs cannot pack
and take the per-run pickle fallback.  The wire-codec properties live in
``test_wire_edge.py``; this module proves the *integration*: routing,
shipping, decoding, fault accounting and schema retirement all composed.
"""

import pytest

from repro import RuntimeConfig, open_runtime
from repro.errors import PlanError
from repro.shard import (
    ProcessShardedRuntime,
    ShardedEngine,
    ShardedRuntime,
    WorkerFaults,
    fork_available,
)
from repro.streams.columns import ColumnBatch
from repro.streams.schema import Schema
from repro.streams.sources import ColumnRunSource
from repro.streams.tuples import StreamTuple
from strategies import unpackable
from test_shard_engine import (
    interleaved_tuples,
    make_sources,
    partitionable_plan,
    single_engine_run,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="process mode requires the fork start method"
)

SCHEMA = Schema.of_ints("a0", "a1")
FAST = {"command_timeout": 0.25, "max_retries": 60}
#: An equal but distinct copy of SCHEMA.  ``ColumnBatch`` packs only runs
#: whose rows share one schema object (the declared one, for a runtime's
#: sources), so rows on the copy take the per-run pickle fallback.
ALIEN = Schema(list(SCHEMA.attributes))
#: Which wire a serve's runs take: ``"columnar"`` (every run packs) or
#: ``"pickle"`` (no run packs; each ships as the pickle ``run`` frame).
PLANES = ["columnar", "pickle"]

QUERIES = [
    "FROM S WHERE a0 == 2",
    "FROM (FROM S WHERE a0 == 1) SEQ T MATCHING WITHIN 25 KEEP",
    "FROM S AGG sum(a1) OVER 30 BY a0 AS m",
    "FROM S JOIN T ON left.a0 == right.a0 WITHIN 20",
]


def feed(runtime, first, last, plane="columnar"):
    schema = ALIEN if plane == "pickle" else SCHEMA
    for ts in range(first, last):
        runtime.process(
            "S" if ts % 2 == 0 else "T", StreamTuple(schema, (ts % 3, ts), ts)
        )


def reference_serve(first, last, plane="columnar"):
    reference = ShardedRuntime(
        {"S": SCHEMA, "T": SCHEMA}, n_shards=2, capture_outputs=True
    )
    for index, text in enumerate(QUERIES):
        reference.register(text, query_id=f"q{index}", shard=index % 2)
    feed(reference, first, last, plane)
    return reference


def assert_identical(proc: ProcessShardedRuntime, reference: ShardedRuntime):
    stats = proc.collect_stats()
    assert stats.output_events > 0
    assert proc.captured == reference.captured
    assert stats.outputs_by_query == reference.stats.outputs_by_query
    assert stats.input_events == reference.stats.input_events
    assert stats.output_events == reference.stats.output_events
    assert sorted(proc.active_queries) == sorted(reference.active_queries)
    assert proc.state_size == reference.state_size


def columnar_sources(plan, handles, per_source):
    sources = []
    for stream, tuples in zip(handles, per_source):
        channel = plan.channel_of(stream)
        batch = ColumnBatch.from_rows(
            tuples[0].schema, tuples, channel.full_mask
        )
        assert batch is not None
        sources.append(ColumnRunSource(channel, batch))
    return sources


@needs_fork
class TestProcessRuntimePlaneEquivalence:
    @pytest.mark.parametrize("plane", PLANES)
    def test_both_planes_match_the_inprocess_reference(self, plane):
        reference = reference_serve(0, 140, plane)
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA}, n_shards=2, capture_outputs=True
        )
        try:
            for index, text in enumerate(QUERIES):
                proc.register(text, query_id=f"q{index}", shard=index % 2)
            schema = ALIEN if plane == "pickle" else SCHEMA
            row = StreamTuple(schema, (1, 2), 0)
            packed = ColumnBatch.from_rows(proc.streams["S"].schema, [row], 1)
            assert (packed is None) == (plane == "pickle")
            feed(proc, 0, 140, plane)
            assert_identical(proc, reference)
        finally:
            proc.close()


@needs_fork
class TestColumnarUnderFaults:
    @pytest.mark.parametrize("checkpoint_every", [0, 8])
    def test_data_crash_recovery_stays_byte_identical(self, checkpoint_every):
        """A worker killed at its 35th *data delivery* — which on the
        columnar plane is a ring marker, not a pickle frame — restores
        from checkpoint+WAL and finishes byte-identical to the fault-free
        in-process serve."""
        reference = reference_serve(0, 140)
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA},
            n_shards=2,
            capture_outputs=True,
            durable=True,
            checkpoint_every=checkpoint_every,
            worker_faults={0: WorkerFaults(crash_on=("data", 35))},
            **FAST,
        )
        try:
            for index, text in enumerate(QUERIES):
                proc.register(text, query_id=f"q{index}", shard=index % 2)
            feed(proc, 0, 140)
            stats = proc.collect_stats()  # settles: forces crash detection
            assert stats is not None
            assert proc.crash_recoveries == 1, "the seeded crash must fire"
            assert not proc.recovery_log[0].state_lost
            assert_identical(proc, reference)
        finally:
            proc.close()


@needs_fork
class TestSchemaRetirement:
    def test_unregister_retires_interned_schemas(self):
        """The pin-leak fix, end to end: dropping the last query over a
        stream retires its interned schema from encoder, replay prefix and
        worker decoders; re-registering re-interns under a fresh token and
        the serve keeps working."""
        proc = ProcessShardedRuntime(
            {"S": SCHEMA, "T": SCHEMA}, n_shards=2, capture_outputs=True
        )
        try:
            proc.register(QUERIES[0], query_id="q0")
            feed(proc, 0, 40)
            proc.collect_stats()
            assert proc._encoder.interned_schemas == 1
            proc.unregister("q0")
            assert proc._encoder.interned_schemas == 0
            assert proc._encoder.schema_frames() == []
            # Re-registration re-interns (fresh token) and still serves.
            proc.register(QUERIES[0], query_id="q1")
            feed(proc, 40, 80)
            stats = proc.collect_stats()
            assert proc._encoder.interned_schemas == 1
            assert stats.outputs_by_query["q1"] > 0
        finally:
            proc.close()


class TestShardedEngineDataPlane:
    def test_inline_router_columnar_matches_single_engine(self):
        per_source = interleaved_tuples(3, 400)
        factory = lambda: partitionable_plan()
        rows = lambda plan, handles: make_sources(plan, handles, per_source)
        single = single_engine_run(factory, rows)
        plan, handles = factory()
        sharded = ShardedEngine(
            plan, 3, parallel=False, feed="router",
            capture_outputs=True, max_batch=64,
        )
        run = sharded.run(rows(plan, handles))
        assert run.mode == "inline"
        assert run.spawn_seconds == 0.0
        assert run.aggregate.outputs_by_query == single[0].outputs_by_query
        assert run.aggregate.input_events == single[0].input_events
        assert sharded.captured == single[1]

    @needs_fork
    @pytest.mark.parametrize("plane", PLANES)
    def test_process_router_matches_single_engine(self, plane):
        per_source = interleaved_tuples(3, 200)
        if plane == "pickle":
            per_source = [unpackable(tuples) for tuples in per_source]
            assert ColumnBatch.from_rows(
                per_source[0][0].schema, per_source[0][:2], 1
            ) is None
        factory = lambda: partitionable_plan()
        rows = lambda plan, handles: make_sources(plan, handles, per_source)
        single = single_engine_run(factory, rows)
        plan, handles = factory()
        sharded = ShardedEngine(
            plan, 3, parallel=True, feed="router", capture_outputs=True
        )
        run = sharded.run(rows(plan, handles))
        assert run.mode == "process"
        assert run.spawn_seconds >= 0.0
        assert run.aggregate.outputs_by_query == single[0].outputs_by_query
        assert run.aggregate.input_events == single[0].input_events
        assert sharded.captured == single[1]


class TestColumnarNativeSources:
    def test_single_engine_columnar_source_matches_rows(self):
        """A columnar-born source (zero-copy ``iter_runs`` slices) drives
        the batched engine to the same outputs as its row twin."""
        per_source = interleaved_tuples(1, 300)
        factory = lambda: partitionable_plan(num_sources=1)
        rows = lambda plan, handles: make_sources(plan, handles, per_source)
        cols = lambda plan, handles: columnar_sources(
            plan, handles, per_source
        )
        from_rows = single_engine_run(factory, rows)
        from_cols = single_engine_run(factory, cols)
        assert from_cols[0].outputs_by_query == from_rows[0].outputs_by_query
        assert from_cols[0].input_events == from_rows[0].input_events
        assert from_cols[1] == from_rows[1]

    @pytest.mark.parametrize("feed_mode", ["local", "router"])
    def test_sharded_inline_columnar_sources_match_rows(self, feed_mode):
        per_source = interleaved_tuples(3, 300)
        factory = lambda: partitionable_plan()
        rows = lambda plan, handles: make_sources(plan, handles, per_source)
        cols = lambda plan, handles: columnar_sources(
            plan, handles, per_source
        )
        single = single_engine_run(factory, rows)
        plan, handles = factory()
        sharded = ShardedEngine(
            plan, 2, parallel=False, feed=feed_mode,
            capture_outputs=True, max_batch=64,
        )
        run = sharded.run(cols(plan, handles))
        assert run.aggregate.outputs_by_query == single[0].outputs_by_query
        assert run.aggregate.input_events == single[0].input_events
        assert sharded.captured == single[1]

    @needs_fork
    def test_sharded_process_columnar_sources_match_rows(self):
        per_source = interleaved_tuples(3, 200)
        factory = lambda: partitionable_plan()
        rows = lambda plan, handles: make_sources(plan, handles, per_source)
        cols = lambda plan, handles: columnar_sources(
            plan, handles, per_source
        )
        single = single_engine_run(factory, rows)
        plan, handles = factory()
        sharded = ShardedEngine(
            plan, 2, parallel=True, feed="router", capture_outputs=True
        )
        run = sharded.run(cols(plan, handles))
        assert run.mode == "process"
        assert run.aggregate.outputs_by_query == single[0].outputs_by_query
        assert sharded.captured == single[1]


class TestDataPlaneValidation:
    def test_engine_rejects_unknown_plane(self):
        plan, __ = partitionable_plan(num_sources=1, queries_per_source=1)
        for plane in ("arrow", "pickle"):
            with pytest.raises(PlanError, match="data_plane"):
                ShardedEngine(plan, 2, data_plane=plane)

    @needs_fork
    def test_legacy_journal_with_pickle_plane_resumes(self, tmp_path):
        """A journal written while the data plane was still an option
        carries ``data_plane="pickle"`` (and ``full_checkpoint_every``,
        ``max_batch``) in its options record.  A cold start from it drops the retired keys
        and finishes byte-identical to an uninterrupted serve."""
        journal = str(tmp_path / "journal")
        reference = reference_serve(0, 140)
        runtime = open_runtime(
            RuntimeConfig(
                sources={"S": SCHEMA, "T": SCHEMA},
                process=True,
                capture_outputs=True,
                checkpoint_every=8,
                journal=journal,
            )
        )
        runtime._journal.append(
            "options",
            {"data_plane": "pickle", "full_checkpoint_every": 8, "max_batch": 1024},
        )
        try:
            for index, text in enumerate(QUERIES):
                runtime.register(text, query_id=f"q{index}", shard=index % 2)
            feed(runtime, 0, 70)
        finally:
            runtime.abandon()
        resumed = open_runtime(
            RuntimeConfig(
                process=True, capture_outputs=True, journal=journal,
                resume=True,
            )
        )
        try:
            assert resumed._journal.state.options["data_plane"] == "pickle"
            assert resumed._journal.state.options["max_batch"] == 1024
            feed(resumed, 70, 140)
            assert_identical(resumed, reference)
        finally:
            resumed.close()
