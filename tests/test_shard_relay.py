"""Cross-shard relay: split components serve byte-identically.

The relay contract: when the planner cuts an oversized component at a
bridge channel, the sharded engine — inline or process workers, local or
router feed, packed runs or the per-run pickle fallback — produces outputs
byte-identical to the single batched engine (per-query content,
timestamps *and* order), and aggregate input accounting still counts
every source event exactly once (relayed tuples are deducted, not
double-counted).
"""

import pytest

from repro.core.optimizer import Optimizer
from repro.core.plan import QueryPlan
from repro.engine.executor import StreamEngine
from repro.errors import ChannelError
from repro.operators.expressions import attr, left, lit, right
from repro.operators.join import SlidingWindowJoin
from repro.operators.predicates import Comparison, DurationWithin, conjunction
from repro.operators.select import Selection
from repro.operators.sequence import Sequence
from repro.operators.window import TimeWindow
from repro.shard import ShardedEngine, fork_available
from repro.shard.relay import (
    BufferedRunSource,
    RelayInbox,
    deduct_relay_inputs,
)
from repro.shard.wire import RelayCodec
from repro.engine.metrics import RunStats
from repro.streams.channel import ChannelTuple
from repro.streams.schema import Schema
from repro.streams.sources import StreamSource, merge_source_runs
from repro.streams.tuples import StreamTuple
from strategies import unpackable

SCHEMA = Schema.numbered(2)


def bridge_plan(passthrough=False):
    """σ over S feeding both a sink and a sequence with T — one component
    the planner cuts at the derived (bridge) channel for n_shards >= 2."""
    plan = QueryPlan()
    s = plan.add_source("S", SCHEMA)
    t = plan.add_source("T", SCHEMA)
    sel = plan.add_operator(
        Selection(Comparison(attr("a0"), "==", lit(1))), [s], query_id="q_sel"
    )
    plan.mark_output(sel, "q_sel")
    seq = plan.add_operator(
        Sequence(
            conjunction(
                [DurationWithin(5), Comparison(right("a0"), "==", lit(1))]
            )
        ),
        [sel, t],
        query_id="q_seq",
    )
    plan.mark_output(seq, "q_seq")
    if passthrough:
        plan.mark_output(t, "q_raw")
    return plan, (s, t)


def ranked_bridge_plan():
    """``S ; T`` feeding four selections: the planner cuts at the
    sequence's output, so the upstream fragment interleaves S and T (it
    drains as ranked windows) and taps the bridge it relays downstream."""
    plan = QueryPlan()
    s = plan.add_source("S", SCHEMA)
    t = plan.add_source("T", SCHEMA)
    seq = plan.add_operator(
        Sequence(
            conjunction(
                [DurationWithin(6), Comparison(right("a0"), "==", lit(1))]
            )
        ),
        [s, t],
        query_id="q_seq",
    )
    plan.mark_output(seq, "q_seq")
    for threshold in range(0, 200, 50):
        out = plan.add_operator(
            Selection(Comparison(attr("a1"), ">", lit(threshold))),
            [seq],
            query_id=f"q_down{threshold}",
        )
        plan.mark_output(out, f"q_down{threshold}")
    Optimizer().optimize(plan)
    return plan, (s, t)


def bridge_tuples(count=240):
    """Strictly interleaved distinct timestamps across S and T, so the
    merge order (and therefore sequence pairing) is fully determined."""
    per_source = [[], []]
    for ts in range(count):
        per_source[ts % 2].append(StreamTuple(SCHEMA, (ts % 3, ts), ts))
    return per_source


def make_sources(plan, handles, per_source):
    return [
        StreamSource(plan.channel_of(stream), tuples)
        for stream, tuples in zip(handles, per_source)
    ]


def single_run(passthrough=False, count=240):
    plan, handles = bridge_plan(passthrough)
    engine = StreamEngine(plan, capture_outputs=True)
    stats = engine.run(make_sources(plan, handles, bridge_tuples(count)))
    return stats, engine.captured


def assert_equivalent(single, sharded, run):
    stats, captured = single
    aggregate = run.aggregate
    assert aggregate.outputs_by_query == stats.outputs_by_query
    assert aggregate.output_events == stats.output_events
    assert aggregate.input_events == stats.input_events
    assert aggregate.physical_input_events == stats.physical_input_events
    assert aggregate.physical_events == stats.physical_events
    assert sharded.captured == captured


class TestInlineRelayEquivalence:
    @pytest.mark.parametrize("feed", ["local", "router"])
    def test_split_bridge_matches_single_engine(self, feed):
        single = single_run()
        assert single[0].output_events > 0
        plan, handles = bridge_plan()
        sharded = ShardedEngine(
            plan, 2, parallel=False, feed=feed, capture_outputs=True,
            max_batch=64,
        )
        assert sharded.shard_plan.relays, "bridge component must split"
        assert sharded.shard_plan.effective_shards == 2
        run = sharded.run(make_sources(plan, handles, bridge_tuples()))
        assert run.mode == "inline"
        assert_equivalent(single, sharded, run)

    def test_split_false_keeps_component_whole(self):
        single = single_run()
        plan, handles = bridge_plan()
        sharded = ShardedEngine(
            plan, 2, parallel=False, capture_outputs=True, split=False
        )
        assert sharded.shard_plan.relays == []
        assert sharded.shard_plan.effective_shards == 1
        run = sharded.run(make_sources(plan, handles, bridge_tuples()))
        assert_equivalent(single, sharded, run)

    @pytest.mark.parametrize("feed", ["local", "router"])
    def test_passthrough_query_beside_split_component(self, feed):
        # The pass-through sink (directly on source T) used to abort
        # partitioning; now it rides T's shard and its captured outputs
        # must match the single engine even while the component splits.
        single = single_run(passthrough=True)
        assert single[1]["q_raw"], "pass-through must capture"
        plan, handles = bridge_plan(passthrough=True)
        sharded = ShardedEngine(
            plan, 2, parallel=False, feed=feed, capture_outputs=True
        )
        assert sharded.shard_plan.relays
        run = sharded.run(make_sources(plan, handles, bridge_tuples()))
        assert_equivalent(single, sharded, run)

    @pytest.mark.parametrize("feed", ["local", "router"])
    def test_colocated_fragments_rejoin(self, feed):
        # σ(S) feeds a window join with T, beside an uncuttable σ-cluster on
        # U heavy enough that the bridge component is cut, yet LPT lands
        # both fragments on one shard.  They run on one engine, so they are
        # one component again: S and T merge tuple by tuple (the join's
        # output order depends on it) and no relay edge is left.
        def build():
            plan = QueryPlan()
            s, t, u = (plan.add_source(name, SCHEMA) for name in "STU")
            sel = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(1))), [s],
                query_id="q_sel",
            )
            plan.mark_output(sel, "q_sel")
            join = plan.add_operator(
                SlidingWindowJoin(
                    Comparison(left("a1"), "<", right("a1")), TimeWindow(5)
                ),
                [sel, t],
                query_id="q_join",
            )
            plan.mark_output(join, "q_join")
            for constant in range(7):
                out = plan.add_operator(
                    Selection(Comparison(attr("a0"), "==", lit(constant))),
                    [u],
                    query_id=f"q_u{constant}",
                )
                plan.mark_output(out, f"q_u{constant}")
            Optimizer().optimize(plan)
            return plan, (s, t, u)

        per_source = [[], [], []]
        for ts in range(300):
            per_source[ts % 3].append(StreamTuple(SCHEMA, (1, ts), ts))
        plan, handles = build()
        reference = StreamEngine(plan, capture_outputs=True, batching=False)
        expected = reference.run(make_sources(plan, handles, per_source))
        assert expected.outputs_by_query["q_join"] > 0
        plan, handles = build()
        sharded = ShardedEngine(
            plan, 2, parallel=False, feed=feed, capture_outputs=True
        )
        run = sharded.run(make_sources(plan, handles, per_source))
        assert run.aggregate.outputs_by_query == expected.outputs_by_query
        assert sharded.captured == reference.captured
        assert sharded.shard_plan.relays == []
        s, t = (plan.channel_of(h).channel_id for h in handles[:2])
        assert any(
            {s, t} <= component.entry_channel_ids
            for component in sharded.shard_plan.components
        )

    def test_repeat_runs_reuse_taps(self):
        # Engines and taps persist across run() calls; a second drain must
        # not double-ship or double-count.
        plan, handles = bridge_plan()
        single_plan, single_handles = bridge_plan()
        engine = StreamEngine(single_plan, capture_outputs=True)
        sharded = ShardedEngine(plan, 2, parallel=False, capture_outputs=True)
        for offset in (0, 1000):
            tuples = [[], []]
            for ts in range(offset, offset + 120):
                tuples[ts % 2].append(StreamTuple(SCHEMA, (ts % 3, ts), ts))
            engine.run(make_sources(single_plan, single_handles, tuples))
            sharded.run(make_sources(plan, handles, tuples))
        assert sharded.captured == engine.captured


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestProcessRelayEquivalence:
    @pytest.mark.parametrize("feed", ["local", "router"])
    def test_cross_worker_streaming_relay(self, feed):
        # worker_cap=2 forces the two fragments onto different worker
        # processes, so the relay crosses a real mp.Queue mid-drain.
        single = single_run()
        plan, handles = bridge_plan()
        sharded = ShardedEngine(
            plan, 2, parallel=True, feed=feed, capture_outputs=True,
            worker_cap=2,
        )
        assert sharded.shard_plan.relays
        assert len(sharded._worker_slots()) == 2
        run = sharded.run(make_sources(plan, handles, bridge_tuples()))
        assert run.mode == "process"
        assert_equivalent(single, sharded, run)

    @pytest.mark.parametrize("feed", ["local", "router"])
    def test_single_worker_hosts_both_fragments(self, feed):
        # worker_cap=1: both fragments in one worker, relay frames buffer
        # in-process — the 1-CPU default topology.
        single = single_run()
        plan, handles = bridge_plan()
        sharded = ShardedEngine(
            plan, 2, parallel=True, feed=feed, capture_outputs=True,
            worker_cap=1,
        )
        run = sharded.run(make_sources(plan, handles, bridge_tuples()))
        assert run.mode == "process"
        assert_equivalent(single, sharded, run)

    def test_unpackable_runs_cross_worker(self):
        # Every other row on an equal but distinct schema object: no source
        # run and no relayed run packs, so both the router feed and the
        # relay edge ship the per-run pickle fallback across workers.
        tuples = [unpackable(source) for source in bridge_tuples()]
        plan, handles = bridge_plan()
        engine = StreamEngine(plan, capture_outputs=True)
        single = engine.run(make_sources(plan, handles, tuples)), engine.captured
        plan, handles = bridge_plan()
        sharded = ShardedEngine(
            plan, 2, parallel=True, feed="router", capture_outputs=True,
            worker_cap=2, max_batch=64,
        )
        run = sharded.run(make_sources(plan, handles, tuples))
        assert run.mode == "process"
        assert_equivalent(single, sharded, run)


class TestRankedRelayTaps:
    """A tap inside a window-drained fragment receives its channel's slice
    of every window, in rank order: the downstream fragment sees exactly
    the bridge tuples — and their order — of the single-engine run."""

    @pytest.mark.parametrize("parallel", [False, True], ids=["inline", "process"])
    @pytest.mark.parametrize("feed", ["local", "router"])
    def test_tapped_bridge_out_of_ranked_windows(self, feed, parallel):
        if parallel and not fork_available():
            pytest.skip("needs fork start method")
        plan, handles = ranked_bridge_plan()
        engine = StreamEngine(plan, capture_outputs=True, max_batch=16)
        single = (
            engine.run(make_sources(plan, handles, bridge_tuples())),
            engine.captured,
        )
        assert all(
            single[1].get(f"q_down{threshold}")
            for threshold in range(0, 200, 50)
        )
        plan, handles = ranked_bridge_plan()
        sharded = ShardedEngine(
            plan, 2, parallel=parallel, feed=feed, capture_outputs=True,
            max_batch=16, worker_cap=2,
        )
        [edge] = sharded.shard_plan.relays
        upstream = sharded.engines[edge.from_shard]
        for handle in handles:
            assert upstream.channel_rankable(plan.channel_of(handle).channel_id)
        tapped_windows = []
        run_window = upstream._run_window

        def spy(schedule, window, stats):
            tapped_windows.append(bool(schedule.taps))
            run_window(schedule, window, stats)

        upstream._run_window = spy
        run = sharded.run(make_sources(plan, handles, bridge_tuples()))
        assert run.mode == ("process" if parallel else "inline")
        if not parallel:  # process workers run forked copies of the spy
            assert tapped_windows and all(tapped_windows)
        assert_equivalent(single, sharded, run)


class TestRelayPrimitives:
    def _channel(self):
        plan = QueryPlan()
        s = plan.add_source("S", SCHEMA)
        return plan.channel_of(s)

    def _run(self, channel, first, last):
        return [
            ChannelTuple(StreamTuple(SCHEMA, (0, ts), ts), 1)
            for ts in range(first, last)
        ]

    def test_buffered_source_rechunks_and_counts(self):
        channel = self._channel()
        runs = [(channel, self._run(channel, 0, 10))]
        source = BufferedRunSource(runs)
        chunks = list(source.iter_runs(4))
        assert [len(batch) for __, batch in chunks] == [4, 4, 2]
        assert source.delivered == 10
        source = BufferedRunSource(runs, channel=channel)
        assert len(list(source)) == 10
        assert source.delivered == 10

    def test_multi_channel_replay_stays_byte_identical(self):
        """A replay spanning two components (its first run on the
        independent U) must still merge tuple-by-tuple with T, or T drains
        whole before S and the sequence finds nothing to pair."""

        def build():
            plan, (s, t) = bridge_plan()
            u = plan.add_source("U", SCHEMA)
            out = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(2))), [u],
                query_id="q_u",
            )
            plan.mark_output(out, "q_u")
            return plan, (u, s, t)

        per_source = [[], [], []]
        for ts in range(180):
            per_source[ts % 3].append(StreamTuple(SCHEMA, (ts % 4, ts), ts))
        plan, handles = build()
        reference = StreamEngine(plan, capture_outputs=True, batching=False)
        expected = reference.run(make_sources(plan, handles, per_source))
        assert expected.outputs_by_query["q_seq"] > 0

        plan, handles = build()
        u_source, s_source, t_source = make_sources(plan, handles, per_source)
        replay = BufferedRunSource(
            list(merge_source_runs([u_source, s_source], 8))
        )
        assert replay.channel is plan.channel_of(handles[0])
        assert len(replay.channels()) == 2
        engine = StreamEngine(plan, capture_outputs=True, max_batch=8)
        stats = engine.run([t_source, replay])
        assert stats.outputs_by_query == expected.outputs_by_query
        assert stats.input_events == expected.input_events
        assert stats.physical_events == expected.physical_events
        assert engine.captured == reference.captured

    def test_codec_round_trip_and_gap_detection(self):
        channel = self._channel()
        sender = RelayCodec(7, channel)
        receiver = RelayCodec(7, channel)
        frames = sender.encode(self._run(channel, 0, 5))
        decoded = [receiver.decode(frame) for frame in frames]
        batches = [batch for batch in decoded if batch is not None]
        assert sum(len(batch) for __, batch in batches) == 5
        receiver.decode_eof(sender.encode_eof())
        # Skipping a frame is a sequence gap, not silent data loss.
        fresh = RelayCodec(7, channel)
        frames = sender.encode(self._run(channel, 5, 8))
        with pytest.raises(ChannelError):
            fresh.decode(frames[-1])

    def test_inbox_demuxes_edges_and_detects_starvation(self):
        import queue as queue_module

        channel = self._channel()
        feed = queue_module.Queue()
        sender_a = RelayCodec(1, channel)
        sender_b = RelayCodec(2, channel)
        codecs = {
            1: RelayCodec(1, channel),
            2: RelayCodec(2, channel),
        }
        for frame in sender_a.encode(self._run(channel, 0, 3)):
            feed.put(frame)
        for frame in sender_b.encode(self._run(channel, 3, 6)):
            feed.put(frame)
        feed.put(sender_a.encode_eof())
        inbox = RelayInbox(feed, codecs, timeout=0.05)
        # Edge 2's frames buffer while edge 1 drains, and vice versa.
        __, batch_b = inbox.next_batch(2)
        assert [ct.ts for ct in batch_b.channel_tuples()] == [3, 4, 5]
        __, batch_a = inbox.next_batch(1)
        assert [ct.ts for ct in batch_a.channel_tuples()] == [0, 1, 2]
        assert inbox.next_batch(1) is None
        # Edge 2 never got its EOF: the starvation bound turns a would-be
        # deadlock into an error.
        with pytest.raises(ChannelError, match="starved"):
            inbox.next_batch(2)

    def test_deduct_relay_inputs(self):
        stats = RunStats()
        stats.input_events = 10
        stats.physical_input_events = 10
        stats.physical_events = 25
        deduct_relay_inputs(stats, 4)
        assert stats.input_events == 6
        assert stats.physical_input_events == 6
        assert stats.physical_events == 21
