"""Per-figure experiment drivers (§5, Figures 9–11).

Every driver regenerates one figure of the paper's evaluation: it builds the
workload, measures the competitors, and returns the plotted series as table
rows.  Absolute numbers are Python-scale — what must match the paper is the
*shape*: who wins, by what factor, and how the curves move with the swept
parameter (the README's "Tests and benchmarks" section lists the commands;
the "Performance" section records the measured Workload 1 numbers).

Usage::

    python -m repro.bench.figures 9a          # one figure, laptop scale
    python -m repro.bench.figures all --full  # everything at paper scale
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.harness import (
    BenchScale,
    Series,
    measure_cayuga,
    measure_rumor,
    normalize,
    render_table,
)
from repro.workloads.perfmon import PerfmonDataset
from repro.workloads.templates import (
    HybridWorkload,
    Workload1,
    Workload2,
    Workload3,
    WorkloadParameters,
    sources_from_events,
)


@dataclass
class FigureResult:
    """One regenerated figure: identification, table, and raw series."""

    figure: str
    title: str
    columns: list[str]
    rows: list[list]
    series: list[Series] = field(default_factory=list)
    notes: str = ""

    def render(self) -> str:
        table = render_table(
            f"Figure {self.figure} — {self.title}", self.columns, self.rows
        )
        if self.notes:
            table += f"\n  note: {self.notes}"
        return table


def _query_counts(scale: BenchScale, ceiling: int) -> list[int]:
    counts = [1, 10, 100, 1000, 10_000, 100_000]
    limit = ceiling if scale.name == "full" else min(ceiling, 1000)
    return [count for count in counts if count <= limit]


def _measure_workload(workload, scale: BenchScale) -> tuple[float, float]:
    """(RUMOR throughput, Cayuga throughput) for an event workload."""
    events = workload.events(scale.events)
    warmup = int(len(events) * scale.warmup_fraction)
    plan, name_map = workload.rumor_plan()
    rumor = measure_rumor(
        plan,
        lambda: sources_from_events(plan, name_map, events),
        warmup_events=warmup,
        repeats=scale.repeats,
    )
    cayuga = measure_cayuga(
        workload.automaton_engine,
        events,
        warmup_events=warmup,
        repeats=scale.repeats,
    )
    return rumor.throughput, cayuga.throughput


def _two_system_figure(
    figure: str,
    title: str,
    x_name: str,
    points: list,
    workload_factory: Callable,
    scale: BenchScale,
    notes: str = "",
) -> FigureResult:
    rumor_series = Series("RUMOR Query Plan")
    cayuga_series = Series("Cayuga Automata")
    for point in points:
        workload = workload_factory(point)
        rumor_tput, cayuga_tput = _measure_workload(workload, scale)
        rumor_series.add(point, rumor_tput)
        cayuga_series.add(point, cayuga_tput)
    rumor_norm = normalize(rumor_series)
    cayuga_norm = normalize(cayuga_series)
    rows = [
        [x, round(rn, 3), round(cn, 3), round(r), round(c)]
        for x, rn, cn, r, c in zip(
            rumor_series.xs,
            rumor_norm.ys,
            cayuga_norm.ys,
            rumor_series.ys,
            cayuga_series.ys,
        )
    ]
    return FigureResult(
        figure,
        title,
        [x_name, "RUMOR (norm)", "Cayuga (norm)", "RUMOR ev/s", "Cayuga ev/s"],
        rows,
        series=[rumor_norm, cayuga_norm],
        notes=notes,
    )


# -- Figure 9: Workload 1 (FR + AN indexes) ----------------------------------------


def fig9a(scale: BenchScale) -> FigureResult:
    return _two_system_figure(
        "9(a)",
        "Workload 1 — normalized throughput vs number of queries",
        "queries",
        _query_counts(scale, 100_000),
        lambda n: Workload1(WorkloadParameters(num_queries=n)),
        scale,
    )


def fig9b(scale: BenchScale) -> FigureResult:
    domains = [10, 100, 1000, 10_000, 100_000]
    return _two_system_figure(
        "9(b)",
        "Workload 1 — normalized throughput vs constant domain size",
        "constant domain",
        domains,
        lambda d: Workload1(WorkloadParameters(constant_domain=d)),
        scale,
        notes="larger domains make θ1/θ3 more selective ⇒ throughput rises",
    )


def fig9c(scale: BenchScale) -> FigureResult:
    domains = [10, 100, 1000, 10_000, 100_000]
    return _two_system_figure(
        "9(c)",
        "Workload 1 — normalized throughput vs window length domain size",
        "window domain",
        domains,
        lambda d: Workload1(WorkloadParameters(window_domain=d)),
        scale,
        notes="; consumes matched state, so larger windows barely add load",
    )


def fig9d(scale: BenchScale) -> FigureResult:
    zipfs = [1.2, 1.4, 1.6, 1.8, 2.0]
    return _two_system_figure(
        "9(d)",
        "Workload 1 — normalized throughput vs Zipf parameter",
        "zipf",
        zipfs,
        lambda z: Workload1(WorkloadParameters(zipf=z)),
        scale,
        notes="higher commonality ⇒ more CSE; modest gain on top of indexes",
    )


# -- Figure 10(a,b): Workload 2 (AI index) ------------------------------------------


def fig10a(scale: BenchScale) -> FigureResult:
    return _two_system_figure(
        "10(a)",
        "Workload 2 (;) — normalized throughput vs number of queries",
        "queries",
        _query_counts(scale, 10_000),
        lambda n: Workload2(WorkloadParameters(num_queries=n), variant="seq"),
        scale,
    )


def fig10b(scale: BenchScale) -> FigureResult:
    return _two_system_figure(
        "10(b)",
        "Workload 2 (µ) — normalized throughput vs number of queries",
        "queries",
        _query_counts(scale, 10_000),
        lambda n: Workload2(WorkloadParameters(num_queries=n), variant="mu"),
        scale,
        notes="µ is costlier than ; so absolute values sit lower (paper §5.2)",
    )


# -- Figure 10(c,d): Workload 3 (channels) ------------------------------------------


def _measure_workload3(
    workload: Workload3, scale: BenchScale
) -> tuple[float, float]:
    rounds = workload.rounds(scale.rounds)
    warmup = int(len(rounds) * (workload.capacity + 1) * scale.warmup_fraction)
    results = []
    for channels in (True, False):
        plan, name_map = workload.rumor_plan(channels=channels)
        stats = measure_rumor(
            plan,
            lambda: workload.sources(plan, name_map, rounds),
            warmup_events=warmup,
            repeats=scale.repeats,
        )
        results.append(stats.throughput)
    return results[0], results[1]


def fig10c(scale: BenchScale) -> FigureResult:
    with_channel = Series("Seq With Channel")
    without_channel = Series("Seq W/o Channel")
    counts = _query_counts(scale, 10_000)
    for count in counts:
        workload = Workload3(WorkloadParameters(num_queries=count), capacity=10)
        channel_tput, plain_tput = _measure_workload3(workload, scale)
        with_channel.add(count, channel_tput)
        without_channel.add(count, plain_tput)
    rows = [
        [x, round(c), round(p), round(c / p, 2) if p else float("inf")]
        for x, c, p in zip(counts, with_channel.ys, without_channel.ys)
    ]
    return FigureResult(
        "10(c)",
        "Workload 3 — absolute throughput vs number of queries",
        ["queries", "with channel ev/s", "w/o channel ev/s", "speedup"],
        rows,
        series=[with_channel, without_channel],
        notes="paper reports roughly one order of magnitude at capacity 10",
    )


def fig10d(scale: BenchScale) -> FigureResult:
    with_channel = Series("Seq With Channel")
    without_channel = Series("Seq W/o Channel")
    capacities = [5, 10, 15, 20, 25]
    queries = 1000 if scale.name == "full" else 200
    for capacity in capacities:
        workload = Workload3(
            WorkloadParameters(num_queries=queries), capacity=capacity
        )
        channel_tput, plain_tput = _measure_workload3(workload, scale)
        with_channel.add(capacity, channel_tput)
        without_channel.add(capacity, plain_tput)
    rows = [
        [x, round(c), round(p), round(c / p, 2) if p else float("inf")]
        for x, c, p in zip(capacities, with_channel.ys, without_channel.ys)
    ]
    return FigureResult(
        "10(d)",
        "Workload 3 — absolute throughput vs channel capacity",
        ["capacity", "with channel ev/s", "w/o channel ev/s", "speedup"],
        rows,
        series=[with_channel, without_channel],
        notes="the more streams a channel encodes, the higher the gain",
    )


# -- Figure 11: hybrid queries on the perfmon dataset --------------------------------


def _measure_hybrid(
    workload: HybridWorkload, scale: BenchScale
) -> tuple[float, float]:
    results = []
    warmup = workload.dataset.tuples_per_second * 5
    for channels in (True, False):
        plan, name_map = workload.rumor_plan(channels=channels)
        stats = measure_rumor(
            plan,
            lambda: workload.sources(plan, name_map, scale.hybrid_seconds),
            warmup_events=warmup,
            repeats=scale.repeats,
        )
        results.append(stats.throughput)
    return results[0], results[1]


def _d1(scale: BenchScale) -> PerfmonDataset:
    return PerfmonDataset(
        processes=104, duration_seconds=max(scale.hybrid_seconds + 10, 3600), seed=1
    )


def fig11a(scale: BenchScale) -> FigureResult:
    with_channel = Series("Hybrid With Channel")
    without_channel = Series("Hybrid W/o Channel")
    dataset = _d1(scale)
    counts = [5, 10, 15, 20, 25]
    for count in counts:
        workload = HybridWorkload(dataset, num_queries=count, sel=0.5)
        channel_tput, plain_tput = _measure_hybrid(workload, scale)
        with_channel.add(count, channel_tput)
        without_channel.add(count, plain_tput)
    rows = [
        [x, round(c), round(p), round(c / p, 2) if p else float("inf")]
        for x, c, p in zip(counts, with_channel.ys, without_channel.ys)
    ]
    return FigureResult(
        "11(a)",
        "Hybrid workload on D1 — absolute throughput vs number of queries",
        ["queries", "with channel ev/s", "w/o channel ev/s", "speedup"],
        rows,
        series=[with_channel, without_channel],
        notes="each query monitors all 104 processes (§5.3); sel = 0.5",
    )


def fig11b(scale: BenchScale) -> FigureResult:
    with_channel = Series("Hybrid With Channel")
    without_channel = Series("Hybrid W/o Channel")
    dataset = _d1(scale)
    sels = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    for sel in sels:
        workload = HybridWorkload(dataset, num_queries=10, sel=sel)
        channel_tput, plain_tput = _measure_hybrid(workload, scale)
        with_channel.add(sel, channel_tput)
        without_channel.add(sel, plain_tput)
    rows = [
        [x, round(c), round(p), round(c / p, 2) if p else float("inf")]
        for x, c, p in zip(sels, with_channel.ys, without_channel.ys)
    ]
    return FigureResult(
        "11(b)",
        "Hybrid workload on D1 — throughput vs starting-condition selectivity",
        ["sel", "with channel ev/s", "w/o channel ev/s", "speedup"],
        rows,
        series=[with_channel, without_channel],
        notes="channel plan drops once then stays flat; w/o channel degrades",
    )


def fig10c_mu(scale: BenchScale) -> FigureResult:
    """§5.2's closing remark: the µ variant of the channel workload.

    "We also performed experiments on channels with query template
    Si µθ1∧θ2,θ3 T, and obtained similar results."
    """
    with_channel = Series("µ With Channel")
    without_channel = Series("µ W/o Channel")
    counts = _query_counts(scale, 10_000)
    for count in counts:
        workload = Workload3(
            WorkloadParameters(num_queries=count), capacity=10, variant="mu"
        )
        channel_tput, plain_tput = _measure_workload3(workload, scale)
        with_channel.add(count, channel_tput)
        without_channel.add(count, plain_tput)
    rows = [
        [x, round(c), round(p), round(c / p, 2) if p else float("inf")]
        for x, c, p in zip(counts, with_channel.ys, without_channel.ys)
    ]
    return FigureResult(
        "10(c)-µ",
        "Workload 3 (µ variant) — absolute throughput vs number of queries",
        ["queries", "with channel ev/s", "w/o channel ev/s", "speedup"],
        rows,
        series=[with_channel, without_channel],
        notes="§5.2: 'similar results' to the ; template",
    )


def fig11a_d2(scale: BenchScale) -> FigureResult:
    """§5.3's closing remark: the hybrid workload on dataset D2.

    "We obtain similar results in processing D2" (28 processes, home machine).
    """
    with_channel = Series("Hybrid With Channel (D2)")
    without_channel = Series("Hybrid W/o Channel (D2)")
    dataset = PerfmonDataset(
        processes=28, duration_seconds=max(scale.hybrid_seconds + 10, 3600), seed=2
    )
    counts = [5, 10, 15, 20, 25]
    for count in counts:
        workload = HybridWorkload(dataset, num_queries=count, sel=0.5)
        channel_tput, plain_tput = _measure_hybrid(workload, scale)
        with_channel.add(count, channel_tput)
        without_channel.add(count, plain_tput)
    rows = [
        [x, round(c), round(p), round(c / p, 2) if p else float("inf")]
        for x, c, p in zip(counts, with_channel.ys, without_channel.ys)
    ]
    return FigureResult(
        "11(a)-D2",
        "Hybrid workload on D2 — absolute throughput vs number of queries",
        ["queries", "with channel ev/s", "w/o channel ev/s", "speedup"],
        rows,
        series=[with_channel, without_channel],
        notes="§5.3: 'similar results' on the 28-process home-machine dataset",
    )


FIGURES: dict[str, Callable[[BenchScale], FigureResult]] = {
    "9a": fig9a,
    "9b": fig9b,
    "9c": fig9c,
    "9d": fig9d,
    "10a": fig10a,
    "10b": fig10b,
    "10c": fig10c,
    "10c-mu": fig10c_mu,
    "10d": fig10d,
    "11a": fig11a,
    "11a-d2": fig11a_d2,
    "11b": fig11b,
}


def run_figure(figure: str, scale: BenchScale | None = None) -> FigureResult:
    """Run one figure driver by id ('9a' … '11b')."""
    if scale is None:
        scale = BenchScale.small()
    try:
        driver = FIGURES[figure]
    except KeyError:
        raise SystemExit(
            f"unknown figure {figure!r}; choose from {sorted(FIGURES)} or 'all'"
        ) from None
    return driver(scale)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    scale = BenchScale.full() if "--full" in argv else BenchScale.small()
    argv = [a for a in argv if a != "--full"]
    targets = argv or ["all"]
    figures = sorted(FIGURES) if targets == ["all"] else targets
    for figure in figures:
        result = run_figure(figure, scale)
        print(result.render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
