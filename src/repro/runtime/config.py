"""The unified runtime entry point: one config, one factory.

The three runtimes accreted divergent constructor surfaces as the stack
grew — :class:`~repro.runtime.QueryRuntime` (PR 1),
:class:`~repro.shard.runtime.ShardedRuntime` (PR 3) and
:class:`~repro.shard.proc.ProcessShardedRuntime` (PR 4+) each take a
different kwarg set (``durable=``, ``checkpoint_every=``, ``store=``,
``journal=``, ``observe=`` …), and every caller — CLI, benchmarks, tests —
re-implemented the "which runtime do I build" decision tree.

:class:`RuntimeConfig` is the single declarative surface and
:func:`open_runtime` the single factory:

- ``shards=1`` (no ``process``) → a plain :class:`QueryRuntime`;
- ``shards>1`` → an in-process :class:`ShardedRuntime`;
- ``process=True`` → a :class:`ProcessShardedRuntime` with worker
  processes (default 2 shards), optionally durable / checkpointed /
  journaled;
- ``resume=True`` → cold-start from ``journal`` via
  :meth:`ProcessShardedRuntime.from_journal`.

Invalid combinations fail in :meth:`RuntimeConfig.validate` with
actionable one-line errors naming both the library field and the CLI flag
that fixes them.  The runtime classes stay directly constructible (the
factory, sharded runtimes and worker processes build them that way);
:func:`open_runtime` is the documented entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import LifecycleError


@dataclass
class RuntimeConfig:
    """Declarative description of a runtime to open.

    Field names line up with the CLI's shared runtime option group
    (``--shards`` / ``--process`` / ``--durable`` / ``--checkpoint-every``
    / ``--checkpoint-dir`` / ``--coordinator-journal`` / ``--resume`` /
    ``--observe``), so a parsed argument namespace maps onto a config
    1:1.
    """

    #: Source stream name → schema, declared before the first event.
    sources: Optional[dict] = None
    #: Shard count; ``None`` means 1 in-process, 2 with ``process=True``.
    shards: Optional[int] = None
    #: Serve each shard on a forked worker process (command protocol).
    process: bool = False
    capture_outputs: bool = False
    track_latency: bool = False
    incremental: bool = True
    observe: bool = False
    #: Process mode: keep per-shard write-ahead logs for crash recovery.
    durable: bool = False
    #: Process mode: checkpoint every N batches (implies ``durable``).
    checkpoint_every: int = 0
    #: Process mode: persist checkpoints under this directory.
    checkpoint_dir: Optional[str] = None
    #: Process mode: coordinator journal directory (implies ``durable``).
    journal: Optional[str] = None
    #: Cold-start from ``journal`` instead of building a fresh fleet.
    resume: bool = False
    differential: bool = True
    command_timeout: float = 2.0
    max_retries: int = 30
    #: Extra keyword arguments forwarded verbatim to the selected
    #: constructor (fault harnesses, custom stores — test-only surface).
    extra: dict = field(default_factory=dict)

    @property
    def resolved_shards(self) -> int:
        """Effective shard count (the CLI's historical defaulting rule)."""
        if self.shards is not None:
            return self.shards
        return 2 if self.process else 1

    def validate(self) -> "RuntimeConfig":
        """Check cross-field consistency; raises actionable one-liners."""
        if self.shards is not None and self.shards < 1:
            raise LifecycleError(
                f"shards must be at least 1, got {self.shards} — pass "
                f"shards=1 (--shards 1) for a single-engine runtime"
            )
        if self.checkpoint_every < 0:
            raise LifecycleError(
                f"checkpoint_every must be non-negative, got "
                f"{self.checkpoint_every}"
            )
        if (
            self.durable or self.checkpoint_every or self.checkpoint_dir
        ) and not self.process:
            raise LifecycleError(
                "durable/checkpoint_every/checkpoint_dir require process "
                "mode — add process=True (--process): the in-process "
                "runtimes have no workers to lose"
            )
        if (self.journal or self.resume) and not self.process:
            raise LifecycleError(
                "journal/resume require process mode — add process=True "
                "(--process): only the process-mode coordinator journals "
                "its state"
            )
        if self.resume and not self.journal:
            raise LifecycleError(
                "resume needs a coordinator journal directory to resume "
                "from — set journal=DIR (--coordinator-journal DIR)"
            )
        return self


def open_runtime(config: Optional[RuntimeConfig] = None, **overrides):
    """Open the runtime a :class:`RuntimeConfig` describes.

    ``overrides`` are applied on top of ``config`` (or a default config),
    so quick call sites can write ``open_runtime(sources=..., shards=4)``
    without building the dataclass first.  Returns one of
    :class:`~repro.runtime.QueryRuntime`,
    :class:`~repro.shard.runtime.ShardedRuntime` or
    :class:`~repro.shard.proc.ProcessShardedRuntime`.
    """
    if config is None:
        config = RuntimeConfig()
    if overrides:
        config = replace(config, **overrides)
    config.validate()
    if config.process:
        return _open_process(config)
    if config.resolved_shards > 1:
        from repro.shard.runtime import ShardedRuntime

        return ShardedRuntime(
            config.sources,
            n_shards=config.resolved_shards,
            capture_outputs=config.capture_outputs,
            track_latency=config.track_latency,
            incremental=config.incremental,
            observe=config.observe,
            **config.extra,
        )
    from repro.runtime.runtime import QueryRuntime

    return QueryRuntime(
        config.sources,
        capture_outputs=config.capture_outputs,
        track_latency=config.track_latency,
        incremental=config.incremental,
        observe=config.observe,
        **config.extra,
    )


def _open_process(config: RuntimeConfig):
    from repro.shard.proc import ProcessShardedRuntime

    if config.resume:
        return ProcessShardedRuntime.from_journal(
            config.journal,
            capture_outputs=config.capture_outputs,
            track_latency=config.track_latency,
            observe=config.observe,
            **config.extra,
        )
    store = None
    if config.checkpoint_dir:
        from repro.shard.checkpoint import CheckpointStore

        store = CheckpointStore(path=config.checkpoint_dir)
    return ProcessShardedRuntime(
        config.sources,
        n_shards=config.resolved_shards,
        capture_outputs=config.capture_outputs,
        track_latency=config.track_latency,
        incremental=config.incremental,
        observe=config.observe,
        durable=config.durable,
        checkpoint_every=config.checkpoint_every,
        store=store,
        journal=config.journal,
        differential=config.differential,
        command_timeout=config.command_timeout,
        max_retries=config.max_retries,
        **config.extra,
    )
