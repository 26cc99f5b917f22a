"""Ablation benchmarks for RUMOR's sharing mechanisms.

Each benchmark switches one sharing mechanism off and measures the same
workload, quantifying the contribution of:

- the Cayuga FR/AN/AI indexes (automaton engine flags),
- prefix state merging (automaton engine flag),
- common subexpression elimination (plan rule),
- the AN-index dispatch m-op (plan rule),
- the shared-window sequence m-op (plan rule).
"""

import pytest

from repro.core.optimizer import Optimizer
from repro.core.registry import default_rules
from repro.core.rules import CseRule, IndexedSequenceRule, SharedWindowSequenceRule
from repro.engine.executor import StreamEngine
from repro.workloads.templates import (
    Workload1,
    Workload2,
    WorkloadParameters,
    sources_from_events,
)

QUERIES = 150
EVENTS = 1500


def _build_unoptimized_w1(workload):
    """Workload 1 plan without running the optimizer."""
    from repro.core.plan import QueryPlan
    from repro.operators.expressions import attr, lit
    from repro.operators.predicates import Comparison
    from repro.operators.select import Selection
    from repro.operators.sequence import Sequence

    plan = QueryPlan()
    s = plan.add_source("S", workload.schema)
    t = plan.add_source("T", workload.schema)
    for index in range(workload.params.num_queries):
        query_id = f"q{index}"
        selected = plan.add_operator(
            Selection(
                Comparison(attr("a0"), "==", lit(workload.theta1_constants[index]))
            ),
            [s],
            query_id=query_id,
        )
        matched = plan.add_operator(
            Sequence(workload._sequence_predicate(index)),
            [selected, t],
            query_id=query_id,
        )
        plan.mark_output(matched, query_id)
    return plan, {"S": s, "T": t}


def _measure_w1_with_rules(benchmark, rules):
    workload = Workload1(WorkloadParameters(num_queries=QUERIES))
    events = workload.events(EVENTS)
    plan, name_map = _build_unoptimized_w1(workload)
    Optimizer(rules).optimize(plan)
    stats = benchmark(
        lambda: StreamEngine(plan).run(sources_from_events(plan, name_map, events))
    )
    benchmark.extra_info["throughput_ev_s"] = round(stats.throughput)
    benchmark.extra_info["mops"] = len(plan.mops)


def test_ablation_plan_full_rules(benchmark):
    """Baseline: the complete default rule set."""
    _measure_w1_with_rules(benchmark, default_rules())


def test_ablation_plan_no_cse(benchmark):
    """CSE off: duplicate queries evaluated separately."""
    rules = [r for r in default_rules() if not isinstance(r, CseRule)]
    _measure_w1_with_rules(benchmark, rules)


def test_ablation_plan_no_an_dispatch(benchmark):
    """AN-index dispatch off: every ; m-op sees every T event."""
    rules = [
        r for r in default_rules() if not isinstance(r, IndexedSequenceRule)
    ]
    _measure_w1_with_rules(benchmark, rules)


def test_ablation_plan_no_rules(benchmark):
    """Everything off: the naive multi-query plan."""
    _measure_w1_with_rules(benchmark, [])


def _measure_cayuga(benchmark, **flags):
    workload = Workload1(WorkloadParameters(num_queries=QUERIES))
    events = workload.events(EVENTS)
    engine = workload.automaton_engine(**flags)
    engine.freeze()

    def run():
        engine.reset()
        return engine.run(iter(events))

    stats = benchmark(run)
    benchmark.extra_info["throughput_ev_s"] = round(stats.throughput)
    benchmark.extra_info["states"] = engine.state_count


def test_ablation_cayuga_all_indexes(benchmark):
    """Baseline: FR + AN + AI indexes and prefix merging."""
    _measure_cayuga(benchmark)


def test_ablation_cayuga_no_fr_index(benchmark):
    _measure_cayuga(benchmark, use_fr_index=False)


def test_ablation_cayuga_no_an_index(benchmark):
    _measure_cayuga(benchmark, use_an_index=False)


def test_ablation_cayuga_no_merging(benchmark):
    _measure_cayuga(benchmark, merge_prefixes=False)


def test_ablation_shared_window_mu(benchmark):
    """µ workload with the shared-window rule (one store for all windows)."""
    workload = Workload2(WorkloadParameters(num_queries=QUERIES), variant="mu")
    events = workload.events(EVENTS)
    plan, name_map = workload.rumor_plan()
    stats = benchmark(
        lambda: StreamEngine(plan).run(sources_from_events(plan, name_map, events))
    )
    benchmark.extra_info["throughput_ev_s"] = round(stats.throughput)
    benchmark.extra_info["mops"] = len(plan.mops)


def test_ablation_no_shared_window_mu(benchmark):
    """µ workload without the shared-window rule (a store per window)."""
    from repro.core.plan import QueryPlan

    workload = Workload2(WorkloadParameters(num_queries=QUERIES), variant="mu")
    events = workload.events(EVENTS)
    plan = QueryPlan()
    s = plan.add_source("S", workload.schema)
    t = plan.add_source("T", workload.schema)
    for index in range(QUERIES):
        query_id = f"q{index}"
        out = plan.add_operator(
            workload._operator(index), [s, t], query_id=query_id
        )
        plan.mark_output(out, query_id)
    rules = [
        r for r in default_rules() if not isinstance(r, SharedWindowSequenceRule)
    ]
    Optimizer(rules).optimize(plan)
    stats = benchmark(
        lambda: StreamEngine(plan).run(
            sources_from_events(plan, {"S": s, "T": t}, events)
        )
    )
    benchmark.extra_info["throughput_ev_s"] = round(stats.throughput)
    benchmark.extra_info["mops"] = len(plan.mops)
