"""The performance ledger: one command, seven workloads, every layer timed
from outside.

    PYTHONPATH=src python benchmarks/ledger/run.py [--workload NAME]
        [--seed N] [--seconds S] [--trace] [--smoke] [--repeat N --check]
        [--out DIR]

Without ``--workload`` every workload in ``BENCHMARK.json`` runs in a fresh
subprocess and every metric is printed by name with its unit.  With
``--workload`` one workload runs in this process and the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a traced repetition.  The exit code is non-zero when any output
differed from the oracle or any operation failed.

Nothing here claims a gain.  The names printed are the names later changes
claim against; see README.md for each metric's definition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
SMOKE_SCALE = 0.05


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def settle_heap() -> None:
    """Take the generated inputs out of the garbage collector's reach.

    The inputs are millions of long-lived harness objects; left in the
    young generations every full collection the program triggers would
    rescan them, and where those collections land inside a repetition is
    what made repetitions differ by ±15%.  The program's own allocations
    are still collected as usual."""
    gc.collect()
    gc.freeze()


def set_up(workload) -> tuple:
    """``SETUP_REPS`` full set-ups; returns their times and the last handle."""
    samples = []
    handle = None
    for __ in range(SETUP_REPS):
        if handle is not None:
            workload.close(handle)
        started = time.perf_counter()
        workload.generate()
        workload.build()
        handle = workload.fresh()
        samples.append(time.perf_counter() - started)
    return samples, handle


def summarize(outcomes: list) -> dict:
    rates = [outcome.events / outcome.seconds for outcome in outcomes]
    return {
        "events_per_s": statistics.median(rates),
        "rates": rates,
        "ops": sum(outcome.ops for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
    }


def register_times(workload, outcomes: list) -> list:
    """Milliseconds of each ``register`` call: those of the timed drive where
    the workload registers as it runs, else the registration probe."""
    registers = [ms for outcome in outcomes for ms in outcome.register_ms]
    if not registers:
        gc.collect()
        registers = workload.register_samples()
    return registers


def measure_end_to_end(workload, seconds: float) -> dict:
    setups, handle = set_up(workload)
    workload.reference()
    settle_heap()
    handle = workload.warm_up(handle)
    outcomes, handle = workload.measure(seconds, handle)
    workload.close(handle)
    registers = register_times(workload, outcomes)
    summary = summarize(outcomes)
    optimize = workload.optimize_seconds()
    summary["metrics"] = {
        "setup_s": statistics.median(setups),
        "events_per_s": summary["events_per_s"],
        "optimize_s": statistics.median(optimize),
        "register_p50_ms": statistics.median(registers),
        "peak_rss_mb": peak_rss_mb(),
    }
    summary["samples"] = {
        "setup_s": setups,
        "events_per_s": summary["rates"],
        "optimize_s": optimize,
        "register_ms": len(registers),
    }
    return summary


def measure_layers(workload, seconds: float, out) -> dict:
    """Untraced repetitions for the overhead ratio, then one traced
    repetition with ``observe=True`` and the timing wrappers installed."""
    from tracing import Tracer

    tracer = Tracer(workload.name)
    tracer.install()
    try:
        workload.generate()
        workload.build()
    finally:
        tracer.uninstall()
    workload.reference()
    settle_heap()
    handle = workload.warm_up(workload.fresh())
    outcomes, handle = workload.measure(seconds * 0.4, handle, min_reps=2)
    workload.close(handle)
    untraced = summarize(outcomes)
    registers = register_times(workload, outcomes)
    tracer.reset_totals()  # set-up spans stay in the file, not in the sums
    tracer.install()
    try:
        traced, handle = workload.traced(tracer)
        layers = workload.layers(tracer, handle, traced[-1])
    finally:
        tracer.uninstall()
    workload.close(handle)
    summary = summarize(traced)
    seconds_, report, before, after = workload.optimizations[0]
    timed_total = tracer.seconds("ledger.timed")
    merge_runs = tracer.counted("streams.merge_runs")
    metrics = {
        "register_p90_ms": statistics.quantiles(registers, n=10)[8],
        "core.optimize_s": seconds_,
        "core.rule_applications": report.total_applications,
        "core.sweeps": report.sweeps,
        "core.mops_before": before,
        "core.mops_after": after,
        "core.optimize_incremental_s": tracer.seconds("core.optimize_incremental"),
        "core.optimize_incremental_calls": tracer.calls(
            "core.optimize_incremental"
        ),
        "lang.parse_compile_s": tracer.self_seconds("lang.parse")
        + tracer.self_seconds("lang.compile"),
        "lang.parse_compile_calls": tracer.calls("lang.compile"),
        "engine.migrate_s": tracer.seconds("engine.migrate"),
        "streams.merge_s": tracer.seconds("streams.merge"),
        "streams.merge_runs": merge_runs,
        "streams.merge_mean_run_len": (
            tracer.counted("streams.merge_tuples") / merge_runs
            if merge_runs
            else 0.0
        ),
        "streams.pack_s": tracer.seconds("streams.pack"),
        "streams.pack_calls": tracer.calls("streams.pack"),
        "streams.pack_fallbacks": tracer.counted("streams.pack_fallbacks"),
        "streams.pack_bytes": tracer.counted("streams.pack_bytes"),
        "shard.plan_s": tracer.seconds("shard.plan"),
        "shard.encode_s": tracer.seconds("shard.encode"),
        "shard.wire_bytes": tracer.counted("shard.wire_bytes"),
        "shard.ring_writes": tracer.counted("shard.ring_writes"),
        "shard.ring_fallbacks": tracer.counted("shard.ring_fallbacks"),
        "shard.rpc_wait_s": tracer.seconds("shard.rpc_wait"),
        "shard.journal_append_s": tracer.seconds("shard.journal_append"),
        "runtime.register_s": tracer.seconds("runtime.register"),
        "runtime.unregister_s": tracer.seconds("runtime.unregister"),
        "runtime.process_batch_s": tracer.seconds("runtime.process_batch"),
        "runtime.process_batch_calls": tracer.calls("runtime.process_batch"),
        "serve.decode_s": tracer.seconds("serve.decode"),
        "serve.decode_bytes": tracer.counted("serve.decode_bytes"),
        "ledger.trace_overhead": untraced["events_per_s"]
        / summary["events_per_s"],
        "ledger.unattributed_share": (
            tracer.self_seconds("ledger.timed") / timed_total
            if timed_total
            else 0.0
        ),
    }
    metrics.update(layers)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(out / f"spans-{workload.name}.jsonl")
    summary["ops"] += untraced["ops"]
    summary["failed"] += untraced["failed"]
    summary["metrics"] = metrics
    return summary


def run_workload(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".ledger_work" / str(os.getpid())
    work.mkdir(parents=True)
    # Everything the run writes stays inside the checkout, scratch files of
    # the standard library included.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    workload = WORKLOADS[args.workload](
        args.seed, SMOKE_SCALE if args.smoke else 1.0, work
    )
    try:
        if args.trace:
            out = Path(args.out) if args.out else ROOT / ".ledger_out"
            summary = measure_layers(workload, args.seconds, out)
            declared = MANIFEST["per_layer"]
        else:
            summary = measure_end_to_end(workload, args.seconds)
            declared = MANIFEST["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = summary["metrics"]
    unknown = sorted(set(measured) - {metric["name"] for metric in declared})
    if unknown:
        raise SystemExit(f"measured but not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in measured and not args.trace:
            raise SystemExit(f"declared end-to-end metric {name} not measured")
        # A layer that did no work on this workload reports 0.
        metrics[name] = {
            "value": float(measured.get(name, 0.0)), "unit": metric["unit"]
        }
        print(f"{args.workload:<16} {name:<36} {metrics[name]['value']:>16.6f} {metric['unit']}")
    correct = summary["failed"] == 0
    print(f"{args.workload:<16} ops={summary['ops']} failed_ops={summary['failed']}"
          f" samples={json.dumps(summary.get('samples', {}))}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": summary["ops"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# -- every workload, each in a fresh subprocess --------------------------------------


def host_fingerprint() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


#: A run during which the hypervisor withheld more than this share of the
#: host's CPU time is disturbed: its numbers are printed but not judged.
STEAL_LIMIT = 0.02


def cpu_ticks() -> tuple:
    """(all ticks, stolen ticks) of the host so far; (0, 0) where
    /proc/stat does not say."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except (OSError, IndexError):
        return 0, 0
    ticks = [int(field) for field in fields]
    return sum(ticks[:8]), ticks[7] if len(ticks) > 7 else 0


def run_child(name: str, args, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.out:
        command += ["--out", args.out]
    total, stolen = cpu_ticks()
    completed = subprocess.run(command, capture_output=True, text=True)
    total_after, stolen_after = cpu_ticks()
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{name}: no result (exit {completed.returncode})\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-4000:]}"
        )
    result["exit"] = completed.returncode
    result["steal"] = (stolen_after - stolen) / max(1, total_after - total)
    return result


def run_all(args) -> int:
    names = [workload["name"] for workload in MANIFEST["workloads"]]
    host = host_fingerprint()
    print("host " + " ".join(f"{key}={value}" for key, value in host.items()))
    bounds = {m["name"]: m for m in MANIFEST["end_to_end"]}
    sets: list = []
    layers: dict = {}
    exit_code = 0
    for repetition in range(args.repeat):
        results = {}
        for name in names:
            result = run_child(name, args, 0)
            results[name] = result
            if not result["correct"] or result["exit"]:
                exit_code = 1
            for metric, entry in result["metrics"].items():
                print(f"set{repetition} {name:<16} {metric:<36} "
                      f"{entry['value']:>16.6f} {entry['unit']}")
            print(f"set{repetition} {name:<16} ops={result['attempted']} "
                  f"failed_ops={result['failed']} "
                  f"host_steal={result['steal']:.3f}")
        sets.append(results)
    if args.trace:
        for name in names:
            result = run_child(name, args, 1)
            layers[name] = result
            if not result["correct"] or result["exit"]:
                exit_code = 1
            for metric, entry in result["metrics"].items():
                print(f"trace {name:<16} {metric:<36} "
                      f"{entry['value']:>16.6f} {entry['unit']}")
    if args.check:
        if len(sets) < 2:
            raise SystemExit("--check compares two sets: pass --repeat 2")
        first, second = sets[0], sets[1]
        print(f"{'workload':<16} {'metric':<18} {'set0':>14} {'set1':>14} "
              f"{'diff':>8} {'bound':>6}")
        for name in names:
            for metric, declared in bounds.items():
                a = first[name]["metrics"][metric]["value"]
                b = second[name]["metrics"][metric]["value"]
                difference = abs(b - a) / a
                steal = max(first[name]["steal"], second[name]["steal"])
                if difference <= declared["bound"]:
                    verdict = ""
                elif steal > STEAL_LIMIT:
                    verdict = f"  UNRESOLVED (host steal {steal:.1%})"
                else:
                    verdict = "  EXCEEDS"
                    exit_code = 1
                print(f"{name:<16} {metric:<18} {a:>14.4f} {b:>14.4f} "
                      f"{difference:>8.3f} {declared['bound']:>6.2f}{verdict}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ledger.json").write_text(
            json.dumps(
                {"host": host, "seed": args.seed, "smoke": args.smoke,
                 "sets": sets, "layers": layers},
                indent=1,
            )
        )
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0,
        help="also (with --workload: only) the traced per-layer run",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 size, for quick iteration")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full sets to run")
    parser.add_argument("--check", action="store_true",
                        help="with --repeat 2: fail when two sets disagree "
                             "by more than a metric's bound")
    parser.add_argument("--out", help="directory for ledger.json and spans")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(MANIFEST["run_seconds"])
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
