"""The one oracle: reference outputs every workload is checked against.

Byte-identity to the per-tuple seed interpreter is the system's invariant.
Each function here computes the reference outputs for one family of
workloads with the simplest engine that can run it, and :func:`digest`
reduces ``{query_id: [StreamTuple, ...]}`` to one hash of the ordered
per-query ``(ts, values)`` lists.  A workload's timed section ends by
comparing its own digest with the reference; a mismatch fails every
operation the run covered.
"""

from __future__ import annotations

import hashlib
import pickle

from repro import StreamEngine, open_runtime
from repro.serve.replay import normalize_captured, replay_log
from repro.workloads.churn import drive, drive_sharded


def _hash(normalized: dict) -> str:
    return hashlib.blake2b(pickle.dumps(normalized), digest_size=16).hexdigest()


def digest(captured: dict) -> str:
    """Hash of the ordered per-query outputs (query ids sorted)."""
    return _hash(normalize_captured(captured))


def drain_reference(plan, make_sources) -> str:
    """Per-tuple seed interpreter over the same plan and sources."""
    engine = StreamEngine(plan, batching=False, capture_outputs=True)
    engine.run(make_sources())
    return digest(engine.captured)


def churn_reference(sources, events, schedule, shards: int = 1) -> str:
    """Fault-free in-process serve of a churn schedule.

    One shard is the per-event :class:`~repro.runtime.QueryRuntime`
    (``drive`` pushes single events); more shards is the in-process
    ``ShardedRuntime`` the durable fleet must match after its crashes."""
    if shards == 1:
        runtime = open_runtime(sources=sources, capture_outputs=True)
        driver = drive
    else:
        runtime = open_runtime(
            sources=sources, shards=shards, capture_outputs=True
        )
        driver = drive_sharded
    for __ in driver(runtime, events, schedule):
        pass
    return digest(runtime.captured)


def serve_reference(log, sources) -> str:
    """Offline replay of a serve session's arrival log (already normalized
    by :func:`repro.serve.replay.replay_log`)."""
    return _hash(replay_log(log, sources))
