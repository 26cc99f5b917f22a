"""CI perf-regression gate: compare a benchmark run against a baseline.

Wall-clock throughput is machine-dependent, so the gate compares the
machine-portable quantities: the *speedup ratios* inside one run (batched
vs per-tuple, sharded vs single-engine).  A current run passes when every
gated ratio stays at or above ``--min-ratio`` (default 0.8) times the
committed baseline's ratio.

Gated metrics (missing from either file → hard failure, so a silently
renamed cell cannot green-wash the gate):

- ``BENCH_throughput*.json``: the headline
  ``optimized_zipf_batched_speedup`` plus every per-workload
  ``batched_speedup`` cell;
- ``BENCH_shard*.json``: the headline ``sharded_inline_parity`` (the
  weakest inline cell's ratio to the single engine) plus every
  ``speedup_vs_single_batched`` cell.

Exit status is 0 on pass, 1 on any regression or malformed input; every
verdict is printed, regressions with the measured and required values —
a red CI job is diagnosable from the log alone.

Run locally::

    PYTHONPATH=src python benchmarks/bench_throughput.py --scale smoke \
        --output BENCH_throughput.smoke.json
    python benchmarks/compare_bench.py BENCH_throughput.smoke.baseline.json \
        BENCH_throughput.smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator


def iter_speedups(results: dict) -> Iterator[tuple[str, float]]:
    """Yield (metric path, speedup) for every gated ratio in a results dict."""
    headline = results.get("headline", {})
    for key in ("optimized_zipf_batched_speedup", "sharded_inline_parity"):
        if key in headline:
            yield f"headline.{key}", float(headline[key])
    for workload, data in results.get("workloads", {}).items():
        for plan_name, cells in data.get("plans", {}).items():
            if "batched_speedup" in cells:
                yield (
                    f"{workload}.{plan_name}.batched_speedup",
                    float(cells["batched_speedup"]),
                )
        modes = data.get("modes", {})
        if "batched_speedup" in modes:
            yield f"{workload}.batched_speedup", float(modes["batched_speedup"])
        for cell_name, cell in data.get("cells", {}).items():
            if isinstance(cell, dict) and "speedup_vs_single_batched" in cell:
                yield (
                    f"{workload}.{cell_name}.speedup_vs_single_batched",
                    float(cell["speedup_vs_single_batched"]),
                )


def compare(baseline: dict, current: dict, min_ratio: float) -> list[str]:
    """Return a list of human-readable failure reasons (empty on pass)."""
    failures: list[str] = []
    baseline_speedups = dict(iter_speedups(baseline))
    current_speedups = dict(iter_speedups(current))
    if not baseline_speedups:
        return ["baseline file contains no gated speedup metrics"]
    for metric, reference in sorted(baseline_speedups.items()):
        measured = current_speedups.get(metric)
        if measured is None:
            failures.append(
                f"{metric}: present in baseline ({reference}x) but missing "
                f"from the current run — cells must not silently disappear"
            )
            continue
        floor = reference * min_ratio
        verdict = "ok" if measured >= floor else "REGRESSION"
        print(
            f"  {metric}: current {measured:.2f}x vs baseline "
            f"{reference:.2f}x (floor {floor:.2f}x) ... {verdict}"
        )
        if measured < floor:
            failures.append(
                f"{metric}: measured {measured:.2f}x, required ≥ {floor:.2f}x "
                f"({min_ratio:.2f} x baseline {reference:.2f}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when benchmark speedups regress below a baseline"
    )
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.8,
        help="required fraction of each baseline speedup (default 0.8)",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        with open(args.current) as handle:
            current = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"FAIL: cannot load benchmark files: {error}", file=sys.stderr)
        return 1
    print(
        f"comparing {args.current} against {args.baseline} "
        f"(min ratio {args.min_ratio})"
    )
    failures = compare(baseline, current, args.min_ratio)
    if failures:
        print(
            "FAIL: performance regression gate:\n  - "
            + "\n  - ".join(failures),
            file=sys.stderr,
        )
        return 1
    print("PASS: all gated speedups within tolerance of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
