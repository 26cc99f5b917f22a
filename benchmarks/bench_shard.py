"""Sharded engine benchmark: the shard layer vs the single batched engine.

Thin entry point over :mod:`repro.bench.shard` (importable because the
driver also backs the ``repro.cli bench-shard`` subcommand).  The
partitionable zipf workload (k independent sources, one query set each)
is measured on the single-engine batched baseline and on the sharded
engine at 1/2/4 shards, inline; each cell re-checks per-query output
equality.  The single engine merges its sources per component, so the
inline cells can at best tie it: the run fails if any of them drops below
the scale's parity floor (0.8x of the baseline at full scale).

Exit criteria (what a red run means):

- non-zero exit + ``AssertionError: ... sharded outputs diverged ...`` —
  a correctness regression: sharded and single-engine outputs must be
  identical on every workload, no tolerance;
- non-zero exit + ``AssertionError: every inline sharded cell must hold
  ...`` — the shard layer costs more than the parity floor allows (the
  weakest cell, its ratio and the floor are printed in the message).

Run standalone (writes ``BENCH_shard.json``)::

    PYTHONPATH=src python benchmarks/bench_shard.py
    PYTHONPATH=src python benchmarks/bench_shard.py --scale smoke

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_shard.py -q -s
"""

from __future__ import annotations

from repro.bench.shard import (
    ShardScale,
    bench_partitionable_zipf,
    main,
    render,
    run_benchmark,
)

# -- pytest entry points ------------------------------------------------------------


def test_shard_smoke():
    """Acceptance: inline cells ≥ smoke parity floor on partitionable zipf,
    outputs equal."""
    results = run_benchmark(ShardScale.smoke())
    assert (
        results["headline"]["sharded_inline_parity"]
        >= results["headline"]["parity_floor"]
    )


def test_shard_point_benchmark(benchmark):
    """pytest-benchmark timing of the partitionable zipf sweep, smoke scale."""
    scale = ShardScale.smoke()
    result = benchmark.pedantic(
        lambda: bench_partitionable_zipf(scale),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["sharded_4_vs_single_batched"] = result["cells"][
        "sharded_4"
    ]["speedup_vs_single_batched"]


if __name__ == "__main__":
    raise SystemExit(main())
