"""Stream sources and the timestamp-ordered merge feeding the engine.

A :class:`StreamSource` binds an iterable of :class:`StreamTuple` to the
channel it arrives on and the member streams its tuples belong to.  The
source protocol — what the merges and :func:`group_sources` use, and what
the relay sources of :mod:`repro.shard.relay` implement without subclassing
— is ``channel``, ``channels()``, ``__iter__`` and ``iter_runs(max_run)``.

**Ordering contract.**  Events reach the engine in global timestamp order
*within a component*; components are drained one after another.  A
component is a set of channels that can observe each other's order — they
share an executor (transitively) or one query's sinks.  The paper feeds
tuples "in their timestamp ordering" (§5.1), but only m-ops that share
state can tell: :func:`group_sources` partitions the sources by component,
and each group goes through the heap merge (:func:`merge_sources`, or its
run-coalescing twin :func:`merge_source_runs`) on its own, with a stable
tie-break on source position so runs are deterministic.  The per-tuple
reference interpreter keeps one global merge over all sources.

:func:`merge_source_runs` yields a group's ordered event sequence coalesced
into *runs*: maximal (capped) stretches of consecutive events arriving on
the same channel.  Flattening the runs reproduces :func:`merge_sources`
exactly; the engine dispatches each run as one batch, amortizing per-event
interpreter overhead.  When a single source remains live, the merge bypasses
the heap entirely and drains the iterator in a tight loop — the case for
every single-source component.

A group whose channels interleave tuple by tuple (an ``S ; T`` sequence fed
by alternating S and T events) would cut every run to length one, so for
such groups the engine asks for *windows* instead: ``windows=True`` cuts the
same ordered sequence into chunks of up to ``max_run`` consecutive events
spanning all of the group's channels.  Windows obey the same ordering
contract — flattening them reproduces :func:`merge_sources`, tie-breaks
included — and an event's position in its window is its *rank*, the key
the engine's ranked dispatch orders every derived tuple by.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from repro.errors import ChannelError
from repro.streams.channel import Channel, ChannelTuple
from repro.streams.columns import ColumnBatch
from repro.streams.stream import StreamDef
from repro.streams.tuples import StreamTuple


class StreamSource:
    """Binds a tuple iterable to the channel (and member streams) it feeds.

    ``member_streams`` defaults to *all* streams of the channel — the
    configuration used by the paper's channel workloads, where each generated
    channel tuple belongs to every encoded stream (§5.2, Workload 3).
    """

    def __init__(
        self,
        channel: Channel,
        tuples: Iterable[StreamTuple],
        member_streams: Sequence[StreamDef] | None = None,
    ):
        if member_streams is not None:
            for stream in member_streams:
                if not channel.contains(stream):
                    raise ChannelError(
                        f"{stream!r} is not encoded by channel {channel.name!r}"
                    )
            self._mask = channel.mask_of(member_streams)
        else:
            self._mask = channel.full_mask
        self.channel = channel
        self._tuples = tuples

    def channels(self) -> Sequence[Channel]:
        """Every channel this source can yield events on."""
        return (self.channel,)

    def __iter__(self) -> Iterator[tuple[Channel, ChannelTuple]]:
        channel = self.channel
        mask = self._mask
        for tuple_ in self._tuples:
            yield channel, ChannelTuple(tuple_, mask)

    def iter_runs(
        self, max_run: int
    ) -> Iterator[tuple[Channel, list[ChannelTuple]]]:
        """The source's events pre-chunked into runs of ``max_run``.

        Bulk equivalent of ``__iter__`` for the single-source merge: slicing
        the underlying iterable in C skips one generator frame per event,
        which is most of the merge cost on single-stream workloads.
        """
        channel = self.channel
        mask = self._mask
        iterator = iter(self._tuples)
        while True:
            chunk = list(itertools.islice(iterator, max_run))
            if not chunk:
                return
            yield channel, [ChannelTuple(tuple_, mask) for tuple_ in chunk]


class ColumnRunSource(StreamSource):
    """A source whose events are born columnar: one pre-packed
    :class:`~repro.streams.columns.ColumnBatch` per channel.

    ``iter_runs`` yields zero-copy column *slices* instead of channel-tuple
    lists, so a columnar-aware feed (the sharded router, the batched
    engine's run loop) never materializes rows on the way in — the
    workload the zero-copy data plane is benchmarked on.  ``__iter__``
    materializes ordinary channel tuples, keeping the source valid for the
    per-tuple heap merge and every row-path consumer.
    """

    def __init__(
        self,
        channel: Channel,
        batch: ColumnBatch,
        member_streams: Sequence[StreamDef] | None = None,
    ):
        if member_streams is not None:
            mask = channel.mask_of(member_streams)
        else:
            mask = channel.full_mask
        if not isinstance(batch.membership, int) or batch.membership != mask:
            raise ChannelError(
                f"columnar source batch membership {batch.membership!r} "
                f"does not match the source's stream mask {mask}"
            )
        self.channel = channel
        self.batch = batch
        self._mask = mask
        self._tuples = None  # rows materialize lazily in __iter__

    def __iter__(self) -> Iterator[tuple[Channel, ChannelTuple]]:
        channel = self.channel
        for channel_tuple in self.batch.channel_tuples():
            yield channel, channel_tuple

    def iter_runs(
        self, max_run: int
    ) -> Iterator[tuple[Channel, ColumnBatch]]:
        channel = self.channel
        batch = self.batch
        for start in range(0, batch.count, max_run):
            yield channel, batch.slice(start, min(start + max_run, batch.count))


def merge_sources(
    sources: Sequence[StreamSource],
) -> Iterator[tuple[Channel, ChannelTuple]]:
    """K-way merge of sources by timestamp (stable on source order).

    Sources must each be internally timestamp-ordered; the merge then yields a
    globally ordered event sequence.  Ties are broken by source position then
    arrival order, so repeated runs see identical event orderings.
    """
    counter = itertools.count()
    heap: list[tuple[int, int, int, Channel, ChannelTuple]] = []
    iterators = [iter(source) for source in sources]
    for position, iterator in enumerate(iterators):
        first = next(iterator, None)
        if first is not None:
            channel, ct = first
            heapq.heappush(heap, (ct.ts, position, next(counter), channel, ct))
    while heap:
        ts, position, __, channel, ct = heapq.heappop(heap)
        yield channel, ct
        following = next(iterators[position], None)
        if following is not None:
            next_channel, next_ct = following
            heapq.heappush(
                heap, (next_ct.ts, position, next(counter), next_channel, next_ct)
            )


def group_sources(
    sources: Sequence[StreamSource], component_of: Mapping[int, Hashable]
) -> list[list[StreamSource]]:
    """Partition ``sources`` into the groups that need a tuple-level merge.

    ``component_of`` maps a channel id to its component.  Sources of one
    component form one group; groups are ordered by their first source's
    position and keep the sources' relative order, so timestamp ties break
    as in the global merge.  A source on a channel the map does not know
    (nothing consumes it, nothing sinks it) is a group of its own.

    A source is placed by ``source.channels()``, everything it can yield (a
    multi-channel :class:`~repro.shard.relay.BufferedRunSource` replay has
    several); one that spans components forces a single group — the global
    merge.  A source that has events but no channel raises
    :class:`ChannelError`.
    """
    groups: dict[Hashable, list[StreamSource]] = {}
    for position, source in enumerate(sources):
        channels = source.channels()
        if any(channel is None for channel in channels):
            raise ChannelError(
                f"source {source!r} yields events but is bound to no channel"
            )
        stray = ("stray", position)
        keys = {component_of.get(c.channel_id, stray) for c in channels}
        if len(keys) > 1:
            return [list(sources)]
        groups.setdefault(keys.pop() if keys else stray, []).append(source)
    return list(groups.values())


def merge_source_runs(
    sources: Sequence[StreamSource], max_run: int = 1024, windows: bool = False
) -> Iterator[tuple[Channel, list[ChannelTuple]]]:
    """K-way merge coalesced into same-channel runs of at most ``max_run``.

    Event-for-event equivalent to :func:`merge_sources` (same order, same
    tie-breaks); consecutive events on the same channel are grouped into one
    ``(channel, [tuples])`` run so the engine can dispatch them as a batch.

    With ``windows`` the sequence is cut into windows instead (module
    docstring): each is yielded as ``(None, [(channel, tuple), ...])`` —
    ``None`` because a window has no single channel.
    """
    if max_run < 1:
        raise ChannelError(f"max_run must be at least 1, got {max_run}")
    if windows:
        yield from _merge_windows(sources, max_run)
        return
    if len(sources) == 1 and hasattr(sources[0], "iter_runs"):
        yield from sources[0].iter_runs(max_run)
        return
    counter = itertools.count()
    heap: list[tuple[int, int, int, Channel, ChannelTuple]] = []
    iterators = [iter(source) for source in sources]
    for position, iterator in enumerate(iterators):
        first = next(iterator, None)
        if first is not None:
            channel, ct = first
            heapq.heappush(heap, (ct.ts, position, next(counter), channel, ct))
    while heap:
        __, position, __seq, channel, ct = heapq.heappop(heap)
        channel_id = channel.channel_id
        run = [ct]
        if heap:
            # Advance the popped source, then keep absorbing the global
            # minimum while it stays on the same channel.
            following = next(iterators[position], None)
            if following is not None:
                next_channel, next_ct = following
                heapq.heappush(
                    heap,
                    (next_ct.ts, position, next(counter), next_channel, next_ct),
                )
            while heap and len(run) < max_run:
                top = heap[0]
                if top[3].channel_id != channel_id:
                    break
                __, top_position, __seq, __ch, top_ct = heapq.heappop(heap)
                run.append(top_ct)
                following = next(iterators[top_position], None)
                if following is not None:
                    next_channel, next_ct = following
                    heapq.heappush(
                        heap,
                        (
                            next_ct.ts,
                            top_position,
                            next(counter),
                            next_channel,
                            next_ct,
                        ),
                    )
        else:
            # Single live source: drain straight off the iterator, skipping
            # the heap until the channel changes or the run fills up.
            iterator = iterators[position]
            while True:
                following = next(iterator, None)
                if following is None:
                    break
                next_channel, next_ct = following
                if len(run) >= max_run or next_channel.channel_id != channel_id:
                    heapq.heappush(
                        heap,
                        (next_ct.ts, position, next(counter), next_channel, next_ct),
                    )
                    break
                run.append(next_ct)
        yield channel, run


def _merge_windows(
    sources: Sequence[StreamSource], max_run: int
) -> Iterator[tuple[None, list[tuple[Channel, ChannelTuple]]]]:
    """The :func:`merge_sources` order cut into windows of ``max_run``.

    Each source holds at most one heap entry, so ``(ts, position)`` is
    unique in the heap and the merge never needs the arrival counter; an
    event that stays the minimum costs one ``heapreplace``.  A lone source
    (a routed replay spanning several channels) is already in merge order
    and is re-chunked from its runs.
    """
    window: list[tuple[Channel, ChannelTuple]] = []
    if len(sources) == 1 and hasattr(sources[0], "iter_runs"):
        for channel, batch in sources[0].iter_runs(max_run):
            if type(batch) is ColumnBatch:
                batch = batch.channel_tuples()
            window.extend([(channel, ct) for ct in batch])
            while len(window) >= max_run:
                yield None, window[:max_run]
                window = window[max_run:]
        if window:
            yield None, window
        return
    iterators = [iter(source) for source in sources]
    heap = []
    for position, iterator in enumerate(iterators):
        first = next(iterator, None)
        if first is not None:
            heap.append((first[1].tuple.ts, position, first))
    heapq.heapify(heap)
    append = window.append
    while len(heap) > 1:
        __, position, event = heap[0]
        append(event)
        following = next(iterators[position], None)
        if following is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(
                heap, (following[1].tuple.ts, position, following)
            )
        if len(window) == max_run:
            yield None, window
            window = []
            append = window.append
    if heap:
        # Single live source: drain straight off its iterator.
        __, position, event = heap[0]
        rest = itertools.chain((event,), iterators[position])
        while True:
            window.extend(itertools.islice(rest, max_run - len(window)))
            if len(window) < max_run:
                break
            yield None, window
            window = []
    if window:
        yield None, window
