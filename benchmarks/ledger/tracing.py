"""Spans recorded from outside the program.

The ledger never edits ``src/repro``: a traced run replaces a fixed list
of public functions with timing wrappers (:data:`WRAPPED`), installed
before any worker is forked, and removes them when the run ends.  Each
wrapped call records a span ``(name, start, end, parent)``; a span's self
time is its duration minus the part its child spans cover.  Hot functions
are called hundreds of thousands of times per run, so only the first
:data:`SPAN_CAP` spans per name are kept individually — every call still
lands in the per-name totals the per-layer metrics are computed from.

Worker processes inherit the wrappers through ``fork`` but their spans
never leave the worker; worker-side time is read from what the program
publishes (``RunStats.elapsed_seconds``, ``MOpRecord``), not from spans.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

#: Individual spans kept per name; calls beyond it only update the totals.
SPAN_CAP = 2000

#: ``(module, owner class or None, attribute, span name, counter)``.
#: ``counter`` optionally names a function in :data:`COUNTERS` that turns a
#: call's arguments and result into a count (bytes packed, ring writes, …).
WRAPPED = [
    ("repro.core.optimizer", "Optimizer", "optimize", "core.optimize", None),
    ("repro.core.optimizer", "Optimizer", "optimize_incremental",
     "core.optimize_incremental", None),
    ("repro.lang.compiler", None, "as_logical", "lang.parse", None),
    ("repro.runtime.runtime", None, "compile_into", "lang.compile", None),
    ("repro.runtime.runtime", None, "migrate_engine", "engine.migrate", None),
    ("repro.engine.executor", "StreamEngine", "run", "engine.run", None),
    ("repro.engine.executor", None, "merge_source_runs", "streams.merge",
     None),
    ("repro.shard.engine", None, "merge_source_runs", "streams.merge", None),
    ("repro.streams.columns", "ColumnBatch", "from_rows", "streams.pack",
     "pack_bytes"),
    ("repro.streams.columns", "ColumnBatch", "from_channel_tuples",
     "streams.pack", "pack_bytes"),
    ("repro.shard.planner", "ShardPlanner", "partition", "shard.plan", None),
    ("repro.shard.engine", "ShardedEngine", "run", "shard.run", None),
    ("repro.shard.wire", "WireEncoder", "encode_run_columns", "shard.encode",
     None),
    ("repro.shard.wire", "WireEncoder", "encode_run", "shard.encode", None),
    ("repro.shard.engine", None, "pack_run_record", "shard.encode",
     "record_bytes"),
    ("repro.shard.proc", None, "pack_run_record", "shard.encode",
     "record_bytes"),
    ("repro.shard.ring", "RingBuffer", "try_write", "shard.ring_write",
     "ring_ok"),
    ("repro.shard.coordlog", "CoordinatorLog", "append",
     "shard.journal_append", None),
    ("repro.runtime.runtime", "QueryRuntime", "register", "runtime.register",
     None),
    ("repro.runtime.runtime", "QueryRuntime", "unregister",
     "runtime.unregister", None),
    ("repro.runtime.runtime", "QueryRuntime", "process_batch",
     "runtime.process_batch", None),
    ("repro.shard.proc", "ProcessShardedRuntime", "register",
     "runtime.register", None),
    ("repro.shard.proc", "ProcessShardedRuntime", "unregister",
     "runtime.unregister", None),
    ("repro.shard.proc", "ProcessShardedRuntime", "submit_register",
     "runtime.register", None),
    ("repro.shard.proc", "ProcessShardedRuntime", "process_batch",
     "runtime.process_batch", None),
    ("repro.shard.proc", "ProcessShardedRuntime", "shard_stats",
     "shard.rpc_wait", None),
    ("repro.shard.proc", "ProcessShardedRuntime", "snapshot",
     "shard.rpc_wait", None),
    ("repro.shard.proc", "ProcessShardedRuntime", "collect_lifecycle",
     "shard.rpc_wait", None),
    ("repro.shard.proc", "ProcessShardedRuntime", "heartbeat",
     "shard.rpc_wait", None),
    ("repro.serve.protocol", None, "decode_payload", "serve.decode",
     "payload_bytes"),
]


COUNTERS = {
    "pack_bytes": lambda args, result: (
        ("streams.pack_fallbacks", 1)
        if result is None
        else ("streams.pack_bytes", _batch_bytes(result))
    ),
    "record_bytes": lambda args, result: ("shard.wire_bytes", result[1]),
    "ring_ok": lambda args, result: (
        ("shard.ring_writes", 1) if result else ("shard.ring_fallbacks", 1)
    ),
    "payload_bytes": lambda args, result: ("serve.decode_bytes", len(args[0])),
}


def _batch_bytes(batch) -> int:
    """Packed size of a ColumnBatch: ts column plus every value column
    (object columns hold Python references, counted at 8 bytes each)."""
    total = batch.ts.nbytes
    for __, data in batch.columns:
        total += getattr(data, "nbytes", 8 * len(data))
    return total


class Tracer:
    """In-memory span store for one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple] = []

    # -- recording --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, parent, start, end, child_seconds) -> None:
        duration = end - start
        with self._lock:
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - child_seconds
            if total[0] <= SPAN_CAP:
                self.spans.append((name, start, end, parent))

    def reset_totals(self) -> None:
        """Forget totals and counts (kept spans stay): the per-layer
        metrics then cover only what is recorded from here on."""
        with self._lock:
            self.totals.clear()
            self.counts.clear()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of harness code."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent[1] += end - start
            self._record(name, parent and parent[0], start, end, frame[1])

    def _wrap_function(self, function, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == name:
                # A wrapped function calling its sibling of the same span
                # name (from_channel_tuples -> from_rows) is one span.
                return function(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                tracer._record(name, parent and parent[0], start, end, frame[1])
            if counter is not None:
                tracer.count(*counter(args, result))
            return result

        wrapper.ledger_span = name
        return wrapper

    def _wrap_generator(self, function, name):
        """Time a generator by the seconds spent inside its ``next`` calls.

        One span covers the generator's life; its busy time (what the
        consumer waited for) goes to the totals, so the consumer's own work
        between two ``next`` calls is not charged to the generator."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            iterator = function(*args, **kwargs)
            first = time.perf_counter()
            busy = 0.0
            runs = 0
            tuples = 0
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        busy += time.perf_counter() - start
                        break
                    busy += time.perf_counter() - start
                    runs += 1
                    run = item[1]  # a list of tuples or a ColumnBatch
                    tuples += len(run) if isinstance(run, list) else run.count
                    yield item
            finally:
                if parent is not None:
                    parent[1] += busy
                with tracer._lock:
                    total = tracer.totals.setdefault(name, [0, 0.0, 0.0])
                    total[0] += 1
                    total[1] += busy
                    total[2] += busy
                    tracer.spans.append(
                        (name, first, time.perf_counter(), parent and parent[0])
                    )
                tracer.count(name + "_runs", runs)
                tracer.count(name + "_tuples", tuples)

        wrapper.ledger_span = name
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Replace every function in :data:`WRAPPED` with its timing wrapper."""
        import importlib
        import inspect

        for module_name, owner_name, attribute, name, counter_name in WRAPPED:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            raw = (
                owner.__dict__[attribute]
                if owner_name
                else getattr(module, attribute)
            )
            counter = COUNTERS.get(counter_name)
            function = getattr(raw, "__func__", raw)
            if getattr(function, "ledger_span", None) is not None:
                continue  # already installed
            if inspect.isgeneratorfunction(function):
                wrapped = self._wrap_generator(function, name)
            else:
                wrapped = self._wrap_function(function, name, counter)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attribute, wrapped)
            self._installed.append((owner, attribute, raw))

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._installed):
            setattr(owner, attribute, raw)
        self._installed.clear()

    # -- reading ----------------------------------------------------------------

    def seconds(self, name: str) -> float:
        """Total seconds of every span called ``name``."""
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def counted(self, name: str) -> int:
        return self.counts.get(name, 0)

    def write_jsonl(self, path) -> None:
        """One line per kept span, then one ``total`` line per span name."""
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "workload": self.workload,
                        }
                    )
                    + "\n"
                )
            for name, (calls, total, self_seconds) in sorted(
                self.totals.items()
            ):
                handle.write(
                    json.dumps(
                        {
                            "total": name,
                            "calls": calls,
                            "seconds": total,
                            "self_seconds": self_seconds,
                            "workload": self.workload,
                        }
                    )
                    + "\n"
                )
