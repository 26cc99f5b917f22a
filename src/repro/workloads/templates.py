"""Query workload templates for the paper's experiments (§5.1–§5.3).

Each workload class can materialize itself both ways the paper evaluates:

- ``rumor_plan()`` — a :class:`~repro.core.plan.QueryPlan` (naive, then
  optimized with the default or channel-free rule set), plus the stream
  handles needed to build sources;
- ``automaton_engine()`` — an :class:`~repro.automata.AutomatonEngine`
  loaded with the equivalent Cayuga-style automata (Workloads 1 and 2).

Workload templates (§5.2):

- **Workload 1** — ``σθ1(S) ;θ2∧θ3 T``: θ1/θ3 are constant equalities on
  ``a0`` (FR / AN indexable), θ2 the duration predicate.
- **Workload 2** — ``S ;θ1∧θ2 T`` with θ1 = ``S.a0 = T.a0`` (AI indexable);
  the µ variant adds the rebind predicate θ3 = ``T.a1 > last.a1``.  As the
  AI index requires the rebind edge to correlate as well, our µ rebind also
  carries ``S.a0 = T.a0`` — i.e. the pattern is a per-``a0`` increasing
  sequence, the same correlation idiom as the paper's Query 1 (per-process
  ramps), and a deliberate deviation from the paper's µ predicates.
- **Workload 3** — ``Si ;θ1∧θ2 T`` over ``capacity`` sharable streams
  ``S1..Sk``, the channel experiment.

Hybrid workload (§5.3): n instances of the modified Query 2 over the
simulated performance-counter datasets — smoothing α (60 s window, group by
pid), per-query non-indexable starting conditions of controllable
selectivity, the monotone-ramp µ, and the shared stopping condition
``load > 10``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.automata.automaton import (
    Automaton,
    iterate_automaton,
    sequence_automaton,
)
from repro.automata.engine import AutomatonEngine
from repro.core.optimizer import Optimizer
from repro.core.plan import QueryPlan
from repro.core.registry import default_rules
from repro.errors import WorkloadError
from repro.operators.aggregate import SlidingWindowAggregate
from repro.operators.expressions import attr, last, left, lit, right
from repro.operators.iterate import Iterate
from repro.operators.predicates import (
    Comparison,
    DurationWithin,
    Predicate,
    TruePredicate,
    conjunction,
)
from repro.operators.select import Selection
from repro.operators.sequence import Sequence
from repro.operators.window import TimeWindow
from repro.streams.sources import StreamSource
from repro.streams.stream import StreamDef
from repro.streams.tuples import StreamTuple
from repro.workloads.perfmon import CPU_SCHEMA, PerfmonDataset
from repro.workloads.synthetic import (
    interleaved_events,
    round_robin_rounds,
    rounds_as_channel_events,
    synthetic_schema,
)
from repro.workloads.zipf import ZipfSampler


@dataclass
class WorkloadParameters:
    """Table 3: experimental parameters and their defaults."""

    num_queries: int = 1000
    num_attributes: int = 10
    constant_domain: int = 1000
    window_domain: int = 1000
    zipf: float = 1.5


def _optimize(plan: QueryPlan, channels: bool) -> QueryPlan:
    Optimizer(default_rules(channels=channels)).optimize(plan)
    return plan


def sources_from_events(
    plan: QueryPlan,
    name_to_stream: dict[str, StreamDef],
    events: Sequence[tuple[str, StreamTuple]],
) -> list[StreamSource]:
    """Split (name, tuple) events into per-channel StreamSources."""
    by_name: dict[str, list[StreamTuple]] = {}
    for name, tuple_ in events:
        by_name.setdefault(name, []).append(tuple_)
    sources = []
    for name, tuples in by_name.items():
        stream = name_to_stream[name]
        channel = plan.channel_of(stream)
        sources.append(StreamSource(channel, tuples, member_streams=[stream]))
    return sources


class _SyntheticEventWorkload:
    """Shared scaffolding for Workloads 1 and 2 (S/T interleaved events)."""

    def __init__(self, params: WorkloadParameters, seed: int):
        self.params = params
        self.seed = seed
        self.schema = synthetic_schema(params.num_attributes)
        rng = np.random.default_rng(seed)
        self._constants = ZipfSampler(
            0, params.constant_domain - 1, params.zipf, rng
        )
        self._windows = ZipfSampler(1, params.window_domain, params.zipf, rng)
        self._event_rng = np.random.default_rng(seed + 1)

    def events(self, total: int) -> list[tuple[str, StreamTuple]]:
        """``total`` interleaved S/T events (fresh tail each call)."""
        return interleaved_events(self.schema, total, self._event_rng)


class Workload1(_SyntheticEventWorkload):
    """``σθ1(S) ;θ2∧θ3 T`` — the FR/AN index workload (Fig. 9)."""

    def __init__(self, params: WorkloadParameters, seed: int = 11):
        super().__init__(params, seed)
        count = params.num_queries
        self.theta1_constants = [int(c) for c in self._constants.sample(count)]
        self.theta3_constants = [int(c) for c in self._constants.sample(count)]
        self.windows = [int(w) for w in self._windows.sample(count)]

    def _sequence_predicate(self, index: int) -> Predicate:
        return conjunction(
            [
                DurationWithin(self.windows[index]),
                Comparison(right("a0"), "==", lit(self.theta3_constants[index])),
            ]
        )

    def rumor_plan(self, channels: bool = False):
        plan = QueryPlan()
        s = plan.add_source("S", self.schema)
        t = plan.add_source("T", self.schema)
        for index in range(self.params.num_queries):
            query_id = f"q{index}"
            selected = plan.add_operator(
                Selection(
                    Comparison(attr("a0"), "==", lit(self.theta1_constants[index]))
                ),
                [s],
                query_id=query_id,
            )
            matched = plan.add_operator(
                Sequence(self._sequence_predicate(index)),
                [selected, t],
                query_id=query_id,
            )
            plan.mark_output(matched, query_id)
        _optimize(plan, channels)
        return plan, {"S": s, "T": t}

    def automaton_engine(self, **index_flags) -> AutomatonEngine:
        engine = AutomatonEngine(**index_flags)
        engine.declare_stream("S", self.schema)
        engine.declare_stream("T", self.schema)
        for index in range(self.params.num_queries):
            engine.add(
                sequence_automaton(
                    "S",
                    self.schema,
                    Comparison(right("a0"), "==", lit(self.theta1_constants[index])),
                    "T",
                    self.schema,
                    self._sequence_predicate(index),
                    query_id=f"q{index}",
                )
            )
        return engine


class Workload2(_SyntheticEventWorkload):
    """``S ;θ1∧θ2 T`` (or µ variant) — the AI index workload (Fig. 10(a,b))."""

    def __init__(
        self, params: WorkloadParameters, variant: str = "seq", seed: int = 22
    ):
        if variant not in ("seq", "mu"):
            raise WorkloadError(f"unknown Workload 2 variant {variant!r}")
        super().__init__(params, seed)
        self.variant = variant
        self.windows = [int(w) for w in self._windows.sample(params.num_queries)]

    def _forward_predicate(self, index: int) -> Predicate:
        return conjunction(
            [
                DurationWithin(self.windows[index]),
                Comparison(left("a0"), "==", right("a0")),
            ]
        )

    def _rebind_predicate(self) -> Predicate:
        return conjunction(
            [
                Comparison(left("a0"), "==", right("a0")),
                Comparison(right("a1"), ">", last("a1")),
            ]
        )

    def _operator(self, index: int):
        if self.variant == "seq":
            return Sequence(self._forward_predicate(index))
        return Iterate(self._forward_predicate(index), self._rebind_predicate())

    def rumor_plan(self, channels: bool = False):
        plan = QueryPlan()
        s = plan.add_source("S", self.schema)
        t = plan.add_source("T", self.schema)
        for index in range(self.params.num_queries):
            query_id = f"q{index}"
            matched = plan.add_operator(
                self._operator(index), [s, t], query_id=query_id
            )
            plan.mark_output(matched, query_id)
        _optimize(plan, channels)
        return plan, {"S": s, "T": t}

    def automaton_engine(self, **index_flags) -> AutomatonEngine:
        engine = AutomatonEngine(**index_flags)
        engine.declare_stream("S", self.schema)
        engine.declare_stream("T", self.schema)
        for index in range(self.params.num_queries):
            query_id = f"q{index}"
            if self.variant == "seq":
                automaton = sequence_automaton(
                    "S",
                    self.schema,
                    TruePredicate(),
                    "T",
                    self.schema,
                    self._forward_predicate(index),
                    query_id=query_id,
                )
            else:
                automaton = iterate_automaton(
                    "S",
                    self.schema,
                    TruePredicate(),
                    "T",
                    self.schema,
                    self._forward_predicate(index),
                    self._rebind_predicate(),
                    query_id=query_id,
                )
            engine.add(automaton)
        return engine


class Workload3:
    """``Si ;θ1∧θ2 T`` over sharable streams — the channel workload (Fig. 10(c,d))."""

    def __init__(
        self,
        params: WorkloadParameters,
        capacity: int = 10,
        variant: str = "seq",
        seed: int = 33,
    ):
        if capacity < 1:
            raise WorkloadError("channel capacity must be at least 1")
        if variant not in ("seq", "mu"):
            raise WorkloadError(f"unknown Workload 3 variant {variant!r}")
        self.params = params
        self.capacity = capacity
        self.variant = variant
        self.seed = seed
        self.schema = synthetic_schema(params.num_attributes)
        rng = np.random.default_rng(seed)
        self._windows = ZipfSampler(1, params.window_domain, params.zipf, rng)
        self.windows = [int(w) for w in self._windows.sample(params.num_queries)]
        self._event_rng = np.random.default_rng(seed + 1)
        self.stream_names = [f"S{i + 1}" for i in range(capacity)]

    def _operator(self, index: int):
        forward = conjunction(
            [
                DurationWithin(self.windows[index]),
                Comparison(left("a0"), "==", right("a0")),
            ]
        )
        if self.variant == "seq":
            return Sequence(forward)
        rebind = conjunction(
            [
                Comparison(left("a0"), "==", right("a0")),
                Comparison(right("a1"), ">", last("a1")),
            ]
        )
        return Iterate(forward, rebind)

    def rumor_plan(self, channels: bool):
        plan = QueryPlan()
        streams = [
            plan.add_source(name, self.schema, sharable_label="S")
            for name in self.stream_names
        ]
        t = plan.add_source("T", self.schema)
        for index in range(self.params.num_queries):
            query_id = f"q{index}"
            source = streams[index % self.capacity]
            matched = plan.add_operator(
                self._operator(index), [source, t], query_id=query_id
            )
            plan.mark_output(matched, query_id)
        _optimize(plan, channels)
        name_map = dict(zip(self.stream_names, streams))
        name_map["T"] = t
        return plan, name_map

    def rounds(self, count: int):
        """Round content shared by both configurations (identical content)."""
        return round_robin_rounds(
            self.schema, count, self.capacity, self._event_rng
        )

    def sources(self, plan, name_map, rounds) -> list[StreamSource]:
        """Build sources for ``plan`` (channel or plain wiring) from rounds."""
        first = name_map[self.stream_names[0]]
        channel = plan.channel_of(first)
        t_stream = name_map["T"]
        t_tuples = [
            StreamTuple(self.schema, tuple(int(v) for v in t_values), 2 * r + 1)
            for r, (__, t_values) in enumerate(rounds)
        ]
        t_source = StreamSource(
            plan.channel_of(t_stream), t_tuples, member_streams=[t_stream]
        )
        if channel.is_singleton:
            sources = []
            for name in self.stream_names:
                stream = name_map[name]
                tuples = [
                    StreamTuple(self.schema, tuple(int(v) for v in s_values), 2 * r)
                    for r, (s_values, __) in enumerate(rounds)
                ]
                sources.append(
                    StreamSource(
                        plan.channel_of(stream), tuples, member_streams=[stream]
                    )
                )
            sources.append(t_source)
            return sources
        channel_tuples = [
            StreamTuple(self.schema, tuple(int(v) for v in s_values), 2 * r)
            for r, (s_values, __) in enumerate(rounds)
        ]
        return [StreamSource(channel, channel_tuples), t_source]


class HybridWorkload:
    """n modified Query 2 instances over a perfmon dataset (§5.3, Fig. 11).

    Modifications per the paper: every query monitors *all* processes
    (correlation on ``pid``), the smoothing window is 60 s, the stopping
    condition is ``load > 10``, and the starting conditions are non-indexable
    inequalities whose selectivity is controlled by ``sel`` ∈ [0, 1].
    """

    def __init__(
        self,
        dataset: PerfmonDataset,
        num_queries: int = 10,
        sel: float = 0.5,
        smooth_window: int = 60,
        stop_threshold: int = 10,
    ):
        if not 0.0 <= sel <= 1.0:
            raise WorkloadError(f"sel must be in [0, 1], got {sel}")
        self.dataset = dataset
        self.num_queries = num_queries
        self.sel = sel
        self.smooth_window = smooth_window
        self.stop_threshold = stop_threshold
        # Per-query starting thresholds: load < threshold.  Each query gets a
        # fractionally different threshold so the starting conditions are
        # genuinely distinct definitions (no accidental CSE) while their
        # selectivities stay ≈ sel; integer loads make the behavioural
        # difference negligible.  sel = 0 admits nothing: thresholds are
        # negative and loads are non-negative.
        base = 100.0 * sel
        self.thresholds = [
            round(base - 0.01 * (index + 1), 2) for index in range(num_queries)
        ]

    def _mu_operator(self) -> Iterate:
        correlation = Comparison(left("pid"), "==", right("pid"))
        increasing = Comparison(right("load"), ">", last("load"))
        forward = conjunction([correlation, increasing])
        rebind = conjunction([correlation, increasing])
        return Iterate(forward, rebind)

    def rumor_plan(self, channels: bool, optimize: bool = True):
        plan = QueryPlan()
        cpu = plan.add_source("CPU", CPU_SCHEMA)
        mu_operator = self._mu_operator()
        stop_predicate = Comparison(attr("load"), ">", lit(self.stop_threshold))
        for index in range(self.num_queries):
            query_id = f"q{index}"
            smoothed = plan.add_operator(
                SlidingWindowAggregate(
                    "avg",
                    "load",
                    TimeWindow(self.smooth_window),
                    group_by=("pid",),
                    output_name="load",
                ),
                [cpu],
                query_id=query_id,
            )
            started = plan.add_operator(
                Selection(
                    Comparison(attr("load"), "<", lit(self.thresholds[index]))
                ),
                [smoothed],
                query_id=query_id,
            )
            pattern = plan.add_operator(
                mu_operator, [started, smoothed], query_id=query_id
            )
            stopped = plan.add_operator(
                Selection(stop_predicate), [pattern], query_id=query_id
            )
            plan.mark_output(stopped, query_id)
        if optimize:
            _optimize(plan, channels)
        return plan, {"CPU": cpu}

    def sources(self, plan, name_map, duration_seconds: int) -> list[StreamSource]:
        cpu = name_map["CPU"]
        tuples = list(self.dataset.generate(duration_seconds))
        return [
            StreamSource(plan.channel_of(cpu), tuples, member_streams=[cpu])
        ]
