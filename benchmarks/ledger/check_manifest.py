"""Validate ``BENCHMARK.json`` against the benchmark contract.

    python benchmarks/ledger/check_manifest.py

A manifest outside any of these limits is refused before a single run (an
earlier attempt at this benchmark was lost to exactly that), so the limits
are checked here, before commit.  :func:`check` returns the list of
problems; the command prints them and exits non-zero if there are any.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

KEYS = {
    "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
MAX_BYTES = 64 * 1024
#: The driver makes 4 + 22 x workloads runs, all within this many seconds.
TOTAL_SECONDS = 3420


def check(manifest: dict, size: int = 0) -> list:
    problems: list = []

    def need(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    need(size <= MAX_BYTES, f"file is {size} bytes; the limit is {MAX_BYTES}")
    need(set(manifest) == KEYS, f"keys must be exactly {sorted(KEYS)}")
    if set(manifest) != KEYS:
        return problems

    command = manifest["command"]
    need(
        isinstance(command, list)
        and 1 <= len(command) <= 32
        and all(isinstance(part, str) and len(part) <= 200 for part in command),
        "command must be a list of 1..32 strings of at most 200 characters",
    )
    paths = manifest["paths"]
    need(paths == ["benchmarks/ledger"], 'paths must be ["benchmarks/ledger"]')
    for path in paths:
        need(
            isinstance(path, str)
            and PATH.match(path) is not None
            and not path.startswith("/")
            and ".." not in path.split("/"),
            f"path {path!r} must be relative, inside the repo, and made of "
            f"letters, digits, '_', '.', '-' and '/'",
        )
    for part in command:
        need(
            not part.startswith("/") and ".." not in part.split("/"),
            f"command part {part!r} leaves the repo",
        )
        if "/" in part:
            need(
                any(part.startswith(path + "/") for path in paths),
                f"command part {part!r} names a file outside paths",
            )
    seconds = manifest["run_seconds"]
    need(
        isinstance(seconds, int) and 1 <= seconds <= 60,
        "run_seconds must be a whole number from 1 to 60",
    )

    names: list = []
    workloads = manifest["workloads"]
    need(2 <= len(workloads) <= 8, "there must be 2 to 8 workloads")
    for workload in workloads:
        need(
            set(workload) == {"name", "why"},
            f"workload {workload.get('name')!r} must have exactly name and why",
        )
        names.append(workload.get("name"))
        why = workload.get("why", "")
        need(
            isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why,
            f"workload {workload.get('name')!r}: why must be one line of at "
            f"most 200 characters",
        )
    if isinstance(seconds, int):
        runs = 4 + 22 * len(workloads)
        need(
            runs * seconds < TOTAL_SECONDS,
            f"{runs} runs of {seconds} s leave no time for set-up within "
            f"{TOTAL_SECONDS} s",
        )

    end_to_end = manifest["end_to_end"]
    need(1 <= len(end_to_end) <= 16, "there must be 1 to 16 end-to-end metrics")
    for metric in end_to_end:
        need(
            set(metric) == {"name", "unit", "better", "bound"},
            f"end-to-end metric {metric.get('name')!r} must have exactly "
            f"name, unit, better and bound",
        )
        bound = metric.get("bound")
        need(
            isinstance(bound, (int, float)) and 0 < bound <= 0.25,
            f"end-to-end metric {metric.get('name')!r}: bound must be in "
            f"(0, 0.25]",
        )
    setup = [metric for metric in end_to_end if metric.get("name") == "setup_s"]
    need(
        len(setup) == 1
        and setup[0].get("unit") == "s"
        and setup[0].get("better") == "lower",
        "one end-to-end metric must be setup_s, unit s, better lower",
    )
    if setup and all("bound" in metric for metric in end_to_end):
        need(
            setup[0]["bound"] == max(metric["bound"] for metric in end_to_end),
            "setup_s must have the largest bound",
        )
    per_layer = manifest["per_layer"]
    need(1 <= len(per_layer) <= 128, "there must be 1 to 128 per-layer metrics")
    for metric in per_layer:
        need(
            set(metric) == {"name", "unit", "better"},
            f"per-layer metric {metric.get('name')!r} must have exactly "
            f"name, unit and better",
        )
    for metric in end_to_end + per_layer:
        names.append(metric.get("name"))
        need(
            isinstance(metric.get("unit"), str)
            and UNIT.match(metric["unit"]) is not None,
            f"metric {metric.get('name')!r}: bad unit {metric.get('unit')!r}",
        )
        need(
            metric.get("better") in ("lower", "higher"),
            f"metric {metric.get('name')!r}: better must be lower or higher",
        )
    for name in names:
        need(
            isinstance(name, str) and NAME.match(name) is not None,
            f"name {name!r} must start with a letter or digit and be at most "
            f"64 letters, digits, '_', '.' and '-'",
        )
    duplicates = sorted({name for name in names if names.count(name) > 1})
    need(not duplicates, f"names used more than once: {duplicates}")
    return problems


def load(path: Path = ROOT / "BENCHMARK.json") -> tuple:
    raw = path.read_bytes()
    return json.loads(raw), len(raw)


def main() -> int:
    problems = check(*load())
    for problem in problems:
        print(f"BENCHMARK.json: {problem}")
    if not problems:
        print("BENCHMARK.json: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
