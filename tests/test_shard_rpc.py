"""The process coordinator's command table, driven without forking.

Every worker here is a fake handle: ``commands`` and ``replies`` are
in-memory queues (or a scripted reply source) and ``process`` only carries
an ``exitcode``.  That is all the table may touch, so these tests pin its
routing, retry and death handling without a single worker process.
"""

import queue

import pytest

from repro.errors import WorkerUnreachableError
from repro.shard.proc import FrameFaults
from repro.shard.rpc import (
    WorkerCommandError,
    WorkerCrashError,
    _Command,
    _CommandTable,
)
from repro.shard.wire import ERR, OK, encode_reply


class FakeProcess:
    exitcode = None


class FakeHandle:
    def __init__(self, replies=None):
        self.commands = queue.Queue()
        self.replies = replies if replies is not None else queue.Queue()
        self.process = FakeProcess()

    def sent(self) -> list:
        frames = []
        while not self.commands.empty():
            frames.append(self.commands.get_nowait())
        return frames


class ScriptedReplies:
    """A reply queue that answers each ``get`` from a script: a reply, or
    ``None`` for a timeout (``queue.Empty``).  An exhausted script times
    out forever."""

    def __init__(self, *script):
        self.script = list(script)
        self.gets = 0

    def get(self, block=True, timeout=None):
        self.gets += 1
        if self.script and self.script[0] is not None:
            return self.script.pop(0)
        if self.script:
            self.script.pop(0)
        raise queue.Empty


def table_for(*handles, **options):
    options.setdefault("command_timeout", 0.001)
    options.setdefault("max_retries", 3)
    return _CommandTable(dict(enumerate(handles)), **options)


def command(seq, kind="stats", shard=0, **options):
    return _Command(shard, seq, kind, ("cmd", kind, seq), **options)


class Recorder:
    def __init__(self):
        self.replies = []
        self.deaths = []

    def on_reply(self, command, status, result):
        self.replies.append((command.seq, status, result))

    def on_death(self, command):
        self.deaths.append(command.seq)


class TestRouting:
    def test_out_of_order_replies_reach_their_commands(self):
        handle = FakeHandle()
        table = table_for(handle)
        seen = Recorder()
        sync = table.submit(command(1))
        table.submit(command(2, "register", on_reply=seen.on_reply))
        table.submit(command(3, "checkpoint", on_reply=seen.on_reply))
        for seq in (3, 1, 2):
            handle.replies.put(encode_reply(seq, OK, f"r{seq}"))
        # The synchronous wait routes the pipelined reply queued ahead of
        # its own, and stops at its own.
        assert table.wait(sync) == "r1"
        assert seen.replies == [(3, OK, "r3")]
        table.poll()
        assert seen.replies == [(3, OK, "r3"), (2, OK, "r2")]
        assert table.entries == {}

    def test_stale_duplicates_are_dropped(self):
        handle = FakeHandle()
        table = table_for(handle)
        seen = Recorder()
        sync = table.submit(command(1))
        table.submit(command(2, "register", on_reply=seen.on_reply))
        for seq in (1, 1, 2, 2, 1):
            handle.replies.put(encode_reply(seq, OK, seq))
        assert table.wait(sync) == 1
        table.poll()
        assert seen.replies == [(2, OK, 2)]
        assert table.entries == {}
        assert handle.replies.empty()

    def test_error_reply_raises_for_the_waiter(self):
        handle = FakeHandle()
        table = table_for(handle)
        sync = table.submit(command(1, "rebalance"))
        handle.replies.put(encode_reply(1, ERR, "no such query"))
        with pytest.raises(WorkerCommandError, match="no such query"):
            table.wait(sync)

    def test_poll_reads_nothing_when_nothing_is_outstanding(self):
        class Untouchable:
            def get(self, block=True, timeout=None):
                raise AssertionError("poll read a reply queue")

        table = table_for(FakeHandle(Untouchable()))
        table.poll()


class TestRetransmission:
    def test_timeouts_retransmit_and_count(self):
        replies = ScriptedReplies(None, None, encode_reply(1, OK, "done"))
        handle = FakeHandle(replies)
        table = table_for(handle)
        sync = table.submit(command(1))
        assert table.wait(sync) == "done"
        assert table.retransmissions == 2
        assert sync.retries == 2
        assert handle.sent() == [sync.frame] * 3

    def test_reliable_commands_bypass_frame_faults(self):
        handle = FakeHandle(ScriptedReplies(None, encode_reply(2, OK, "v1")))
        faults = FrameFaults(seed=0, drop_rate=1.0)
        table = table_for(handle, faults=faults)
        table.submit(command(1))  # dropped by the harness
        assert handle.sent() == [] and faults.dropped == 1
        seen = Recorder()
        reliable = table.submit(
            command(2, "checkpoint", reliable=True, on_reply=seen.on_reply)
        )
        table.wait(reliable)
        # The original and its one retransmission both shipped, untouched.
        assert handle.sent() == [reliable.frame] * 2
        assert faults.dropped == 1
        assert table.retransmissions == 1
        assert seen.replies == [(2, OK, "v1")]

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_exhausted_retries_raise_unreachable(self, pipelined):
        table = table_for(FakeHandle(ScriptedReplies()), max_retries=2)
        options = {"on_reply": Recorder().on_reply} if pipelined else {}
        target = table.submit(command(1, "register", label="q", **options))
        with pytest.raises(WorkerUnreachableError) as raised:
            table.wait(target)
        assert raised.value.attempts == 3
        assert raised.value.shard == 0
        assert "did not acknowledge q" in str(raised.value)
        assert table.unreachable == 1
        assert table.retransmissions == 2


class TestWorkerDeath:
    def test_each_kind_meets_its_own_fate(self):
        handle = FakeHandle()
        table = table_for(handle)
        seen = Recorder()
        sync = table.submit(command(1))
        table.submit(command(2, "register", on_reply=seen.on_reply))
        table.submit(
            command(3, "checkpoint", on_reply=seen.on_reply,
                    on_death=seen.on_death)
        )
        handle.process.exitcode = -9
        # A synchronous RPC raises to its caller ...
        with pytest.raises(WorkerCrashError, match="code -9 during stats"):
            table.wait(sync)
        table.discard(sync)
        # ... and recovery buries the rest: the lifecycle submission counts
        # as done, the checkpoint entry is cancelled through its on_death.
        table.bury(0)
        assert table.entries == {}
        assert seen.deaths == [3]
        assert seen.replies == []

    def test_bury_touches_only_the_dead_shard(self):
        table = table_for(FakeHandle(), FakeHandle())
        seen = Recorder()
        for shard, seq in ((0, 1), (1, 2)):
            table.submit(
                command(seq, "checkpoint", shard=shard,
                        on_reply=seen.on_reply, on_death=seen.on_death)
            )
        table.bury(1)
        assert seen.deaths == [2]
        assert [c.seq for c in table.outstanding("checkpoint")] == [1]
