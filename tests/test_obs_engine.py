"""Engine- and runtime-level telemetry: observation must not change results.

The contract of ``observe=``: the observed dispatch variants are shadow
tables over the same prebound executors, so per-query outputs (content,
timestamps *and* order) and aggregate counters are byte-identical with
observation on or off — in batched dispatch, the per-tuple interpreter,
and across churn with mid-stream migrations.  On top of that, the
attribution must *reconcile*: every physically dispatched tuple is either
a source entry or the output of exactly one m-op record,

    ``RunStats.physical_events ==
    physical_input_events + Σ record.tuples_out``

including records retired by plan rewrites.
"""

import pytest

from repro.engine.executor import StreamEngine
from repro.obs import to_prometheus
from repro.runtime import QueryRuntime
from repro.shard import ShardedRuntime
from repro.streams.sources import StreamSource
from repro.workloads.churn import ChurnWorkload, drive, drive_batched
from strategies import split_entries, w1_plan


def churn_workload(seed=11):
    return ChurnWorkload(arrival_rate=0.03, horizon=400, seed=seed)


def serve(observe, batched=True, seed=11):
    workload = churn_workload(seed)
    runtime = QueryRuntime(
        {"S": workload.schema, "T": workload.schema},
        capture_outputs=True,
        observe=observe,
    )
    driver = drive_batched if batched else drive
    applied = sum(
        1 for __ in driver(
            runtime, workload.stream_events(), workload.schedule()
        )
    )
    assert applied > 0
    return runtime


def assert_accounting_reconciles(runtime):
    stats = runtime.stats
    mops_out = sum(
        record["tuples_out"] for record in runtime.mop_stats().values()
    )
    assert stats.physical_events == stats.physical_input_events + mops_out


class TestObservedEquivalence:
    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-tuple"])
    def test_outputs_identical_with_and_without_observation(self, batched):
        plain = serve(observe=False, batched=batched)
        observed = serve(observe=True, batched=batched)
        assert observed.captured == plain.captured
        assert observed.stats.outputs_by_query == plain.stats.outputs_by_query
        assert observed.stats.input_events == plain.stats.input_events
        assert observed.stats.physical_events == plain.stats.physical_events

    def test_unobserved_engine_reports_no_mop_stats(self):
        runtime = serve(observe=False)
        assert runtime.mop_stats() == {}
        assert runtime.query_heat() == {}


class TestAttributionReconciles:
    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-tuple"])
    def test_physical_counters_reconcile_across_churn(self, batched):
        runtime = serve(observe=True, batched=batched)
        assert_accounting_reconciles(runtime)

    def test_retired_records_keep_the_identity(self):
        runtime = serve(observe=True)
        records = runtime.mop_stats()
        # Churn unregisters queries, so some m-ops must have retired —
        # the identity above only holds because their counters survive.
        assert any(record["retired"] for record in records.values())
        assert_accounting_reconciles(runtime)

    def test_counters_attribute_to_live_kinds(self):
        runtime = serve(observe=True)
        records = runtime.mop_stats().values()
        assert all(record["kind"] != "?" for record in records)
        touched = [record for record in records if record["tuples_in"]]
        assert touched, "a churn serve must exercise some executor"
        assert all(
            record["batches"] or record["per_tuple_calls"]
            for record in touched
        )


class TestRankedObservation:
    """Observed ranked windows: one record bump per executor per window,
    no per-tuple fallback, and the same reconciliation identity."""

    def _run(self, observe):
        plan, (s, t) = w1_plan()
        engine = StreamEngine(
            plan, capture_outputs=True, observe=observe, max_batch=8
        )
        s_tuples, t_tuples = split_entries(
            [(ts % 2, ts % 4, ts % 3) for ts in range(200)], 2
        )
        stats = engine.run(
            [
                StreamSource(plan.channel_of(s), s_tuples),
                StreamSource(plan.channel_of(t), t_tuples),
            ]
        )
        return engine, stats

    def test_ranked_run_reconciles_without_per_tuple_calls(self):
        engine, stats = self._run(observe=True)
        records = engine.mop_stats().values()
        dispatched = [record for record in records if record["tuples_in"]]
        assert sorted(record["kind"] for record in dispatched) == [
            ";-index", "σ-index"
        ]
        # 200 alternating S/T events: 25 windows of 8, each feeding both.
        assert all(record["batches"] == 25 for record in dispatched)
        assert all(record["per_tuple_calls"] == 0 for record in dispatched)
        mops_out = sum(record["tuples_out"] for record in records)
        assert mops_out > 0
        assert stats.physical_events == stats.physical_input_events + mops_out
        plain, plain_stats = self._run(observe=False)
        assert engine.captured == plain.captured
        assert stats.physical_events == plain_stats.physical_events


class TestRuntimeTelemetryViews:
    def test_query_heat_covers_queries_that_saw_work(self):
        runtime = serve(observe=True)
        heat = runtime.query_heat()
        # Heat keys are query ids the observer attributed time to; busy
        # time is sampled so the exact set varies, but no key may be
        # invented from outside the serve's query population.
        all_queries = {
            query_id
            for record in runtime.mop_stats().values()
            for query_id in record["query_ids"]
        }
        assert set(heat) <= all_queries
        assert all(seconds >= 0.0 for seconds in heat.values())

    def test_peak_state_gauge_samples_a_positive_peak(self):
        runtime = serve(observe=True)
        assert runtime.observer.peak_state > 0

    def test_metrics_registry_reconciles_with_run_stats(self):
        runtime = serve(observe=True)
        snapshot = runtime.metrics_registry().snapshot()
        by_name = {}
        for sample in snapshot["samples"]:
            by_name.setdefault(sample["name"], []).append(sample)
        mop_out = sum(
            sample["value"]
            for sample in by_name["rumor_mop_tuples_out_total"]
        )
        [physical] = by_name["rumor_physical_events_total"]
        [physical_in] = by_name["rumor_physical_input_events_total"]
        assert mop_out == physical["value"] - physical_in["value"]
        text = to_prometheus(snapshot)
        assert "rumor_engine_peak_state" in text
        assert "rumor_query_outputs_total" in text

    def test_unobserved_metrics_registry_still_exports_run_stats(self):
        runtime = serve(observe=False)
        names = {
            sample["name"]
            for sample in runtime.metrics_registry().snapshot()["samples"]
        }
        assert "rumor_input_events_total" in names
        assert not any(name.startswith("rumor_mop_") for name in names)


class TestShardedTelemetry:
    def _serve_sharded(self, observe):
        workload = churn_workload(seed=5)
        runtime = ShardedRuntime(
            {"S": workload.schema, "T": workload.schema},
            n_shards=2,
            capture_outputs=True,
            observe=observe,
        )
        from repro.workloads.churn import drive_sharded

        applied = sum(
            1 for __ in drive_sharded(
                runtime, workload.stream_events(), workload.schedule()
            )
        )
        assert applied > 0
        return runtime

    def test_shard_telemetry_views_reconcile_per_shard(self):
        runtime = self._serve_sharded(observe=True)
        views = runtime.shard_telemetry()
        assert [view["shard"] for view in views] == [0, 1]
        for view in views:
            stats = view["stats"]
            mops_out = sum(
                record["tuples_out"] for record in view["mop_stats"].values()
            )
            assert (
                stats.physical_events
                == stats.physical_input_events + mops_out
            )
            assert view["state_size"] >= 0
            assert view["peak_state"] >= 0

    def test_merged_registry_sums_mop_counters_across_shards(self):
        runtime = self._serve_sharded(observe=True)
        views = runtime.shard_telemetry()
        snapshot = runtime.metrics_registry().snapshot()
        mop_out = sum(
            sample["value"]
            for sample in snapshot["samples"]
            if sample["name"] == "rumor_mop_tuples_out_total"
        )
        expected = sum(
            record["tuples_out"]
            for view in views
            for record in view["mop_stats"].values()
        )
        assert mop_out == expected
        shards = {
            sample["labels"]["shard"]
            for sample in snapshot["samples"]
            if sample["name"] == "rumor_physical_events_total"
        }
        assert shards == {"0", "1"}
