"""``BENCHMARK.json`` meets the benchmark contract, and the harness prints
exactly the names it declares (no workload is run here)."""

from __future__ import annotations

import copy
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check_manifest  # noqa: E402

MANIFEST, SIZE = check_manifest.load()

#: A metric key in the harness: ``"layer.metric":`` in a dict literal or
#: ``metrics["layer.metric"]``; end-to-end keys have no dot.
KEY = re.compile(r'"([a-z0-9_]+(?:\.[a-z0-9_]+)*)"\s*:|metrics\["([a-z0-9_.]+)"\]')


def emitted_names() -> set:
    names = set()
    for source in ("run.py", "workloads.py"):
        for dict_key, subscript in KEY.findall((HERE / source).read_text()):
            names.add(dict_key or subscript)
    from workloads import MOP_KINDS

    for metric in ("busy_s", "tuples_in", "tuples_out"):
        for kind in MOP_KINDS:
            names.add(f"mops.{metric}.{kind}")
    return names


def test_manifest_meets_the_contract():
    assert check_manifest.check(MANIFEST, SIZE) == []


def test_contract_violations_are_reported():
    def broken(edit) -> list:
        manifest = copy.deepcopy(MANIFEST)
        edit(manifest)
        return check_manifest.check(manifest)

    assert broken(lambda m: m.update(extra=1))
    assert broken(lambda m: m["workloads"][0].update(name="bad name"))
    assert broken(lambda m: m["workloads"][0].update(why="two\nlines"))
    assert broken(lambda m: m["workloads"].extend(m["workloads"]))
    assert broken(lambda m: m["end_to_end"][1].update(bound=0.3))
    assert broken(lambda m: m["end_to_end"][1].pop("bound"))
    assert broken(lambda m: m["per_layer"][0].update(bound=0.1))
    assert broken(lambda m: m["per_layer"][0].update(unit="a unit"))
    assert broken(lambda m: m["per_layer"].append(dict(m["per_layer"][0])))
    assert broken(lambda m: m.update(paths=["benchmarks"]))
    assert broken(lambda m: m.update(command=["python3", "../run.py"]))
    assert broken(lambda m: m.update(run_seconds=30))
    assert broken(
        lambda m: [e.update(name="set_s") for e in m["end_to_end"]
                   if e["name"] == "setup_s"]
    )


def test_every_declared_name_is_printed_and_vice_versa():
    declared = {m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    emitted = emitted_names()
    assert declared - emitted == set(), "declared but never measured"
    # Keys of other dicts (published statistics, the result line) are not
    # metrics; a metric key is dotted or one of the end-to-end names.
    end_to_end = {m["name"] for m in MANIFEST["end_to_end"]}
    metric_keys = {name for name in emitted if "." in name} | (emitted & end_to_end)
    assert metric_keys - declared == set(), "measured but not declared"


def test_workloads_match_the_harness():
    from workloads import WORKLOADS

    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
