"""Shared hypothesis strategies and plan/workload builders.

Extracted from the ad-hoc generators of ``test_batch_equivalence.py`` so
every equivalence suite — batched vs per-tuple, sharded-engine, and the
process-mode runtime — draws from the same distribution of plans, event
interleavings and churn schedules.

Strategies generate plain data (event entry tuples, workload parameters);
builders turn them into plans / StreamTuples.  Keeping the two separate
lets hypothesis shrink on the data while the builders stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.core.optimizer import Optimizer
from repro.core.plan import QueryPlan
from repro.errors import LifecycleError
from repro.operators.expressions import attr, lit, right
from repro.operators.predicates import Comparison, DurationWithin, conjunction
from repro.operators.select import Selection
from repro.operators.sequence import Sequence
from repro.shard.proc import WorkerFaults
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.churn import TEMPLATES, ChurnWorkload, drive_sharded

#: The two-attribute schema every generated event uses.
EVENT_SCHEMA = Schema.of_ints("a0", "a1")

#: Batch-size axis shared by the batched / sharded / process suites.
max_batches = st.integers(1, 16)


def event_entries(
    n_streams: int = 2,
    min_size: int = 1,
    max_size: int = 40,
    a0_max: int = 3,
    a1_max: int = 5,
    ties: bool = False,
):
    """Random event interleavings as ``(stream index, a0, a1)`` entries.

    Timestamps are implicit: entry ``i`` fires at ts ``i``, so the global
    order is total and identical however the entries are later split into
    per-stream sources.  With ``ties`` each entry carries a fourth element,
    the gap (0 or 1) to the previous entry's ts — several sources then fire
    at the same ts and the merge's source-position tie-break decides.
    """
    fields = [
        st.integers(0, n_streams - 1),
        st.integers(0, a0_max),
        st.integers(0, a1_max),
    ]
    if ties:
        fields.append(st.integers(0, 1))
    return st.lists(st.tuples(*fields), min_size=min_size, max_size=max_size)


def split_entries(
    entries, n_streams: int, schema: Schema = EVENT_SCHEMA
) -> list[list[StreamTuple]]:
    """Turn entry tuples into per-stream StreamTuple lists (ts = position,
    or the running sum of the gaps for ``ties`` entries)."""
    by_stream: list[list[StreamTuple]] = [[] for __ in range(n_streams)]
    ts = 0
    for position, (target, a0, a1, *gap) in enumerate(entries):
        ts = ts + gap[0] if gap else position
        by_stream[target].append(StreamTuple(schema, (a0, a1), ts))
    return by_stream


def unpackable(tuples: list[StreamTuple]) -> list[StreamTuple]:
    """The same rows, every other one on an equal but distinct schema
    object: ``ColumnBatch`` packs only runs whose rows share one schema
    object, so no run of two or more of these rows packs and each takes
    the per-run pickle fallback."""
    copy = Schema(list(tuples[0].schema.attributes))
    return [
        StreamTuple(copy, t.values, t.ts) if index % 2 else t
        for index, t in enumerate(tuples)
    ]


# -- plan builders ------------------------------------------------------------------


def _add_mixed_component(plan: QueryPlan):
    """Sources S and T with two selections on S (→ predicate index) and a
    sequence joining σ(S) with T — one two-source component."""
    schema = EVENT_SCHEMA
    s = plan.add_source("S", schema)
    t = plan.add_source("T", schema)
    sel1 = plan.add_operator(
        Selection(Comparison(attr("a0"), "==", lit(1))), [s], query_id="q_sel1"
    )
    plan.mark_output(sel1, "q_sel1")
    sel2 = plan.add_operator(
        Selection(Comparison(attr("a0"), "==", lit(2))), [s], query_id="q_sel2"
    )
    plan.mark_output(sel2, "q_sel2")
    seq = plan.add_operator(
        Sequence(
            conjunction(
                [DurationWithin(6), Comparison(right("a0"), "==", lit(1))]
            )
        ),
        [sel1, t],
        query_id="q_seq",
    )
    plan.mark_output(seq, "q_seq")
    return s, t


def mixed_plan():
    """Selections (→ predicate index) + a sequence + a multi-query sink."""
    plan = QueryPlan()
    s, t = _add_mixed_component(plan)
    Optimizer().optimize(plan)
    return plan, (s, t)


def two_component_plan():
    """The mixed plan (S, T component) plus an independent U component."""
    plan = QueryPlan()
    s, t = _add_mixed_component(plan)
    u = plan.add_source("U", EVENT_SCHEMA)
    other = plan.add_operator(
        Selection(Comparison(attr("a0"), ">", lit(0))), [u], query_id="q_u"
    )
    plan.mark_output(other, "q_u")
    Optimizer().optimize(plan)
    return plan, (s, t, u)


def w1_plan(second_attribute: bool = True):
    """Paper Workload 1 in miniature: ``σθ1(S) ;θ2∧θ3 T`` queries through
    the optimizer — one σ-index fanning its σ channels into one ;-index that
    also reads T.  With ``second_attribute`` one σ predicate reads ``a1``,
    so a single S event can hit two σ channels.  ``q_pair`` sinks on a σ
    channel and directly on T.  Handles are ``(S, T)``."""
    plan = QueryPlan()
    s = plan.add_source("S", EVENT_SCHEMA)
    t = plan.add_source("T", EVENT_SCHEMA)
    selections = [("a0", 1), ("a0", 2), ("a0", 3)]
    if second_attribute:
        selections.append(("a1", 2))
    for attribute, constant in selections:
        for theta3, window in ((1, 3), (2, 6)):
            query_id = f"q_{attribute}{constant}_{theta3}"
            sel = plan.add_operator(
                Selection(Comparison(attr(attribute), "==", lit(constant))),
                [s],
                query_id=query_id,
            )
            seq = plan.add_operator(
                Sequence(
                    conjunction(
                        [
                            DurationWithin(window),
                            Comparison(right("a0"), "==", lit(theta3)),
                        ]
                    )
                ),
                [sel, t],
                query_id=query_id,
            )
            plan.mark_output(seq, query_id)
    pair = plan.add_operator(
        Selection(Comparison(attr("a0"), "==", lit(2))), [s], query_id="q_pair"
    )
    plan.mark_output(pair, "q_pair")
    plan.mark_output(t, "q_pair")
    Optimizer().optimize(plan)
    return plan, (s, t)


def independent_components_plan(k: int):
    """``k`` independent σ-components (sources ``A0..``), the mixed S, T
    component and one query ``q_both`` with a sink in each of two
    otherwise-disjoint components (X, Y): every way two source channels can
    — or cannot — observe each other's order.  Handles are in that order."""
    plan = QueryPlan()
    for index in range(k):
        source = plan.add_source(f"A{index}", EVENT_SCHEMA)
        for constant in (1, 2):
            query_id = f"q_a{index}_{constant}"
            out = plan.add_operator(
                Selection(Comparison(attr("a0"), "==", lit(constant))),
                [source],
                query_id=query_id,
            )
            plan.mark_output(out, query_id)
    _add_mixed_component(plan)
    for name in ("X", "Y"):
        source = plan.add_source(name, EVENT_SCHEMA)
        out = plan.add_operator(
            Selection(Comparison(attr("a0"), ">", lit(0))),
            [source],
            query_id="q_both",
        )
        plan.mark_output(out, "q_both")
    Optimizer().optimize(plan)
    return plan, tuple(plan.sources)


# -- churn schedules ----------------------------------------------------------------


def churn_workloads(
    max_horizon: int = 400,
    min_initial: int = 4,
    max_initial: int = 7,
    templates: tuple = TEMPLATES,
):
    """Random-but-reproducible Poisson churn schedules (small, CI-sized).

    Every draw is a fully deterministic :class:`ChurnWorkload` — the
    randomness lives in the drawn parameters and seed, so failures shrink
    to a concrete reproducible workload.  ``templates`` selects the query
    pool (the checkpoint suites pass the 4-template pool including the
    stateful ``join`` family).
    """
    return st.builds(
        ChurnWorkload,
        arrival_rate=st.sampled_from([0.02, 0.04, 0.06]),
        mean_lifetime=st.sampled_from([80.0, 150.0, 300.0]),
        horizon=st.sampled_from([max(200, max_horizon - 200), max_horizon]),
        initial_queries=st.integers(min_initial, max_initial),
        seed=st.integers(0, 10_000),
        templates=st.just(tuple(templates)),
    )


# -- crash schedules ----------------------------------------------------------------


@dataclass(frozen=True)
class CrashSchedule:
    """A seeded crash point × checkpoint interval for one durable serve.

    ``kind`` names what the doomed worker is doing when it dies: ``"data"``
    (mid-stream, between two run frames — no RPC is watching), a lifecycle
    command (``"register"`` / ``"unregister"``), or ``"checkpoint"`` (the
    crash lands mid-snapshot).  ``when="after"`` is the nastier half-open
    window: the work is applied but the reply never leaves.  ``occurrence``
    is the 1-based count of that kind on the target shard — crash points
    past the end of a short schedule simply never fire, which is itself a
    valid draw (the checkpointed serve must stay byte-identical with zero
    crashes too).
    """

    shard: int
    kind: str
    occurrence: int
    when: str
    checkpoint_every: int  # batches between checkpoint rounds; 0 = WAL only

    def worker_faults(self) -> dict:
        return {
            self.shard: WorkerFaults(
                crash_on=(self.kind, self.occurrence), when=self.when
            )
        }


def crash_schedules(
    n_shards: int = 2,
    max_occurrence: int = 40,
    checkpoint_intervals: tuple = (0, 4, 16),
):
    """Seeded crash points × checkpoint intervals (pair with
    :func:`churn_workloads` for the full crash × churn product)."""
    return st.builds(
        CrashSchedule,
        shard=st.integers(0, n_shards - 1),
        kind=st.sampled_from(["data", "register", "unregister", "checkpoint"]),
        occurrence=st.integers(1, max_occurrence),
        when=st.sampled_from(["before", "after"]),
        checkpoint_every=st.sampled_from(checkpoint_intervals),
    )


@dataclass(frozen=True)
class CoordinatorCrashSchedule:
    """A seeded *coordinator* death × checkpoint interval for one serve.

    ``point`` names what the coordinator is doing when it dies: ``"batch"``
    (around the journal append of a data chunk — ``when="before"`` loses
    the chunk entirely, ``"after"`` journals it but never ships it),
    ``"register"`` / ``"unregister"`` (around the lifecycle journal
    append; the worker already applied the command, so ``"before"`` leaves
    a worker ahead of the journal), or ``"ckpt-round"`` (right after a
    checkpoint round is initiated — replies will never be collected).
    Occurrences past the end of a short serve never fire; a draw that
    never fires must still end byte-identical.
    """

    point: str
    occurrence: int
    when: str
    checkpoint_every: int

    def coordinator_faults(self):
        from repro.shard.coordlog import CoordinatorFaults

        return CoordinatorFaults(
            crash_on=(self.point, self.occurrence), when=self.when
        )


def coordinator_crash_schedules(
    max_occurrence: int = 40,
    checkpoint_intervals: tuple = (2, 4, 16),
):
    """Seeded coordinator crash points × checkpoint intervals.

    The ``ckpt-round`` point only has a ``"before"`` window (the round is
    enqueued or it is not), so ``when`` is forced there.
    """

    def build(point, occurrence, when, checkpoint_every):
        if point == "ckpt-round":
            when = "before"
        return CoordinatorCrashSchedule(
            point=point,
            occurrence=occurrence,
            when=when,
            checkpoint_every=checkpoint_every,
        )

    return st.builds(
        build,
        point=st.sampled_from(
            ["batch", "register", "unregister", "ckpt-round"]
        ),
        occurrence=st.integers(1, max_occurrence),
        when=st.sampled_from(["before", "after"]),
        checkpoint_every=st.sampled_from(checkpoint_intervals),
    )


def serve_churn_with_rebalance(runtime, workload: ChurnWorkload, rebalance_after: int):
    """Drive a churn schedule with one deterministic mid-stream rebalance.

    From applied lifecycle event ``rebalance_after`` onwards, the first
    boundary where the most- and least-loaded shards differ moves one
    query's component between them (exactly once).  The decision depends
    only on ``shard_loads``/``queries_on``, which the in-process and
    process-mode runtimes expose identically — so serving the same
    workload through both produces the same move, and their outputs can
    be compared byte-for-byte.

    Returns ``(applied lifecycle events, moved query ids)``.
    """
    applied = 0
    moved: list[str] = []
    for __ in drive_sharded(
        runtime, workload.stream_events(), workload.schedule()
    ):
        applied += 1
        if moved or applied < rebalance_after:
            continue
        loads = runtime.shard_loads()
        donor = max(range(len(loads)), key=lambda i: (loads[i], -i))
        target = min(range(len(loads)), key=lambda i: (loads[i], i))
        if donor == target:
            continue
        for query_id in list(runtime.queries_on(donor)):
            try:
                result = runtime.rebalance(query_id, target)
            except LifecycleError:
                continue
            moved = sorted(
                result if isinstance(result, list) else result.query_ids
            )
            break
    return applied, moved
