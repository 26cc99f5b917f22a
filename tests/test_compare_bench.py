"""The CI perf-regression gate must pass, fail and diagnose correctly."""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_bench", REPO_ROOT / "benchmarks" / "compare_bench.py"
)
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
compare, iter_speedups, main = _module.compare, _module.iter_speedups, _module.main


def throughput_results(headline=5.0, zipf=5.0, churn=1.0):
    return {
        "headline": {"optimized_zipf_batched_speedup": headline},
        "workloads": {
            "zipf": {
                "plans": {
                    "optimized": {"batched_speedup": zipf},
                    "naive": {"batched_speedup": 2.0},
                }
            },
            "churn": {"modes": {"batched_speedup": churn}},
        },
    }


def shard_results(headline=0.95):
    return {
        "headline": {"sharded_inline_parity": headline},
        "workloads": {
            "partitionable_zipf": {
                "cells": {
                    "single_batched": {"events_per_sec": 1.0},
                    "sharded_4": {"speedup_vs_single_batched": headline},
                }
            }
        },
    }


class TestIterSpeedups:
    def test_extracts_throughput_metrics(self):
        metrics = dict(iter_speedups(throughput_results()))
        assert metrics["headline.optimized_zipf_batched_speedup"] == 5.0
        assert metrics["zipf.optimized.batched_speedup"] == 5.0
        assert metrics["zipf.naive.batched_speedup"] == 2.0
        assert metrics["churn.batched_speedup"] == 1.0

    def test_extracts_shard_metrics(self):
        metrics = dict(iter_speedups(shard_results()))
        assert metrics["headline.sharded_inline_parity"] == 0.95
        assert (
            metrics["partitionable_zipf.sharded_4.speedup_vs_single_batched"]
            == 0.95
        )


class TestCompare:
    def test_identical_passes(self):
        assert compare(throughput_results(), throughput_results(), 0.8) == []

    def test_small_drop_within_tolerance(self):
        current = throughput_results(headline=4.2, zipf=4.2)
        assert compare(throughput_results(), current, 0.8) == []

    def test_regression_fails_with_reason(self):
        current = throughput_results(headline=1.0, zipf=1.0)
        failures = compare(throughput_results(), current, 0.8)
        assert len(failures) == 2
        assert "measured 1.00x" in failures[0]
        assert "required" in failures[0]

    def test_missing_metric_fails(self):
        current = throughput_results()
        del current["headline"]["optimized_zipf_batched_speedup"]
        failures = compare(throughput_results(), current, 0.8)
        assert any("missing" in failure for failure in failures)

    def test_empty_baseline_fails(self):
        assert compare({}, throughput_results(), 0.8)

    def test_improvement_always_passes(self):
        current = throughput_results(headline=50.0, zipf=50.0, churn=9.0)
        assert compare(throughput_results(), current, 0.8) == []


class TestMain:
    def _write(self, path, data):
        with open(path, "w") as handle:
            json.dump(data, handle)
        return str(path)

    def test_pass_exit_zero(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", throughput_results())
        current = self._write(tmp_path / "cur.json", throughput_results())
        assert main([baseline, current]) == 0

    def test_regression_exit_one(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", throughput_results())
        current = self._write(
            tmp_path / "cur.json", throughput_results(headline=0.5, zipf=0.5)
        )
        assert main([baseline, current]) == 1

    def test_min_ratio_flag(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", throughput_results())
        current = self._write(
            tmp_path / "cur.json", throughput_results(headline=2.6, zipf=2.6)
        )
        assert main([baseline, current, "--min-ratio", "0.5"]) == 0
        assert main([baseline, current, "--min-ratio", "0.9"]) == 1

    def test_unreadable_file_exit_one(self, tmp_path):
        baseline = self._write(tmp_path / "base.json", throughput_results())
        assert main([baseline, str(tmp_path / "absent.json")]) == 1

    def test_real_committed_baseline_is_gateable(self):
        with open(REPO_ROOT / "BENCH_throughput.smoke.baseline.json") as handle:
            baseline = json.load(handle)
        metrics = dict(iter_speedups(baseline))
        assert "headline.optimized_zipf_batched_speedup" in metrics
        assert compare(baseline, baseline, 0.8) == []
