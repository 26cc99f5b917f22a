"""Telemetry overhead benchmark: observed vs unobserved dispatch.

The telemetry subsystem promises to be cheap enough to leave on: per-m-op
counters on the batched hot path, busy-time sampling every Kth call, and
periodic state-size probes.  This benchmark prices that promise on the
workload where overhead is hardest to hide — the optimized zipf selection
plan under batched dispatch, where each batch fans out across many shared
m-ops and the per-record bookkeeping runs once per (m-op, batch).

Trials are **interleaved** (off, on, off, on, …) so machine drift during
the run — CI neighbours, thermal throttling — hits both modes equally, and
each mode keeps its best trial.  Overhead is the relative throughput loss
of the observed best against the unobserved best; the run fails if it
exceeds the scale's ceiling (5%).  Each comparison also re-checks that the
observed engine produced identical per-query outputs (observation must
never change results) and that the per-m-op tuple accounting reconciles
with the engine's physical counters.

Results land in ``BENCH_obs.json``.  Regenerate::

    PYTHONPATH=src python -m repro.cli bench-obs
    PYTHONPATH=src python -m repro.cli bench-obs --scale smoke  # CI

or run the standalone script ``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from typing import Optional

from repro.bench.throughput import zipf_event_tuples, zipf_selection_plan
from repro.engine.executor import StreamEngine
from repro.engine.metrics import RunStats
from repro.streams.sources import StreamSource

#: Acceptance ceiling: observed dispatch may cost at most this fraction of
#: unobserved throughput on the batched zipf workload.
MAX_OVERHEAD = 0.05
#: Relaxed ceiling for the CI smoke run (small event counts are noisy).
SMOKE_MAX_OVERHEAD = 0.08


@dataclass
class ObsScale:
    """Knobs controlling benchmark size."""

    name: str = "full"
    events: int = 30_000
    queries: int = 300
    trials: int = 5
    max_batch: int = 4096
    max_overhead: float = MAX_OVERHEAD

    @classmethod
    def full(cls) -> "ObsScale":
        return cls()

    @classmethod
    def smoke(cls) -> "ObsScale":
        """Reduced scale for the CI smoke job."""
        return cls(
            name="smoke",
            events=8_000,
            queries=120,
            trials=3,
            max_overhead=SMOKE_MAX_OVERHEAD,
        )


def _run_once(
    scale: ObsScale, tuples, batching: bool, observe: bool
) -> tuple[RunStats, dict]:
    """One fresh-engine run; returns (stats, mop_stats)."""
    plan, source = zipf_selection_plan(scale.queries, optimize=True)
    engine = StreamEngine(
        plan, batching=batching, max_batch=scale.max_batch, observe=observe
    )
    stats = engine.run([StreamSource(plan.channel_of(source), tuples)])
    return stats, engine.mop_stats()


def _check_consistency(stats: RunStats, mop_stats: dict) -> None:
    tuples_out = sum(record["tuples_out"] for record in mop_stats.values())
    if stats.physical_events != stats.physical_input_events + tuples_out:
        raise AssertionError(
            f"m-op accounting does not reconcile: physical={stats.physical_events}, "
            f"inputs={stats.physical_input_events}, mop outputs={tuples_out}"
        )


def _measure_mode(scale: ObsScale, tuples, batching: bool) -> dict:
    """Interleaved observed/unobserved trials; best throughput per side."""
    best = {False: None, True: None}
    reference_outputs = None
    for __ in range(scale.trials):
        for observe in (False, True):
            # Every trial starts from the same collector state: otherwise a
            # full collection triggered by the previous trial's plan lands
            # inside one mode's ~3 ms smoke run and reads as ±20% overhead.
            gc.collect()
            stats, mop_stats = _run_once(scale, tuples, batching, observe)
            if observe:
                _check_consistency(stats, mop_stats)
            if reference_outputs is None:
                reference_outputs = stats.outputs_by_query
            elif stats.outputs_by_query != reference_outputs:
                raise AssertionError(
                    "observation changed per-query outputs — telemetry must "
                    "be read-only"
                )
            current = best[observe]
            if current is None or stats.throughput > current.throughput:
                best[observe] = stats
    overhead = (
        best[False].throughput / max(best[True].throughput, 1e-9) - 1.0
    )
    return {
        "unobserved_events_per_sec": round(best[False].throughput, 1),
        "observed_events_per_sec": round(best[True].throughput, 1),
        "overhead": round(overhead, 4),
    }


def run_benchmark(scale: ObsScale) -> dict:
    tuples = zipf_event_tuples(scale.events)
    batched = _measure_mode(scale, tuples, batching=True)
    per_tuple = _measure_mode(scale, tuples, batching=False)
    results = {
        "meta": {
            "benchmark": "telemetry overhead: observed vs unobserved dispatch",
            "scale": scale.name,
            "events": scale.events,
            "queries": scale.queries,
            "trials": scale.trials,
            "max_batch": scale.max_batch,
            "regenerate": "PYTHONPATH=src python -m repro.cli bench-obs",
        },
        "headline": {
            "batched_overhead": batched["overhead"],
            "ceiling": scale.max_overhead,
        },
        "modes": {
            "batched": batched,
            # Informational: the per-tuple reference path pays per-tuple
            # bookkeeping and is not the production dispatch mode.
            "per_tuple": per_tuple,
        },
    }
    if batched["overhead"] > scale.max_overhead:
        raise AssertionError(
            f"telemetry overhead on batched dispatch must stay ≤"
            f"{scale.max_overhead:.0%}, measured {batched['overhead']:.2%}"
        )
    return results


def render(results: dict) -> str:
    lines = [
        f"telemetry overhead benchmark ({results['meta']['scale']} scale, "
        f"{results['meta']['events']} events, "
        f"{results['meta']['queries']} queries)",
        f"{'dispatch':<12} {'unobserved ev/s':>16} {'observed ev/s':>14} "
        f"{'overhead':>9}",
    ]
    for mode, cells in results["modes"].items():
        lines.append(
            f"{mode:<12} {cells['unobserved_events_per_sec']:>16,.0f} "
            f"{cells['observed_events_per_sec']:>14,.0f} "
            f"{cells['overhead']:>8.2%}"
        )
    lines.append(
        f"headline: batched overhead "
        f"{results['headline']['batched_overhead']:.2%} "
        f"(ceiling {results['headline']['ceiling']:.0%})"
    )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="telemetry overhead benchmark (observed vs unobserved)"
    )
    parser.add_argument(
        "--scale", choices=["full", "smoke"], default="full",
        help="smoke: reduced event counts for CI",
    )
    parser.add_argument(
        "--output", default="BENCH_obs.json",
        help="where to write the JSON results",
    )
    args = parser.parse_args(argv)
    scale = ObsScale.smoke() if args.scale == "smoke" else ObsScale.full()
    results = run_benchmark(scale)
    with open(args.output, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(render(results))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
