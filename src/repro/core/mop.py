"""The physical multi-operator (m-op) abstraction (paper §2.2).

An m-op *implements* a set of operator instances.  Its input (output) streams
are the union of the implemented instances' input (output) streams; its
semantics are defined by the one-by-one execution of the implemented
operators — the reference behaviour :class:`repro.mops.naive.NaiveMOp`
provides and every optimized m-op must match.

The m-op is the scheduling and execution unit: executors consume and produce
:class:`~repro.streams.channel.ChannelTuple` values on channels.  Emission
goes through an :class:`OutputCollector`, which performs the paper's
*encoding step* (§3.1): per-instance output tuples destined for the same
channel with identical content are merged into a single channel tuple whose
membership component is the union of the member bits — this is exactly how
σ{1,2} in Fig. 1(c) produces one blue channel tuple for two queries.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Protocol, Sequence

from repro.errors import PlanError
from repro.streams.channel import Channel, ChannelTuple
from repro.streams.stream import StreamDef
from repro.streams.tuples import StreamTuple

_mop_ids = itertools.count(1)


def _append_grouped(
    grouped: dict[int, list["ChannelTuple"]],
    order: list[tuple["Channel", list["ChannelTuple"]]],
    channel: "Channel",
    channel_tuple: "ChannelTuple",
) -> None:
    """Append to the per-channel bucket, creating it in first-appearance
    order — the grouping invariant every batch path must share so batched
    and per-tuple dispatch stay output-identical.  (Hot m-op loops inline
    this by hand; keep them in sync with this reference.)"""
    channel_id = channel.channel_id
    bucket = grouped.get(channel_id)
    if bucket is None:
        bucket = grouped[channel_id] = []
        order.append((channel, bucket))
    bucket.append(channel_tuple)


class OpInstance:
    """One logical operator instance inside a plan.

    Ties an operator definition to the concrete input streams it reads, the
    output stream it produces, and the query it belongs to (attribution for
    per-query accounting; several instances may share a ``query_id``).
    """

    __slots__ = ("operator", "inputs", "output", "query_id", "owner")

    def __init__(self, operator, inputs: Sequence[StreamDef], output: StreamDef, query_id=None):
        if len(inputs) != operator.arity:
            raise PlanError(
                f"{type(operator).__name__} has arity {operator.arity} but got "
                f"{len(inputs)} input stream(s)"
            )
        self.operator = operator
        self.inputs: tuple[StreamDef, ...] = tuple(inputs)
        self.output = output
        self.query_id = query_id
        #: The m-op currently implementing this instance (set by MOp).
        self.owner: Optional["MOp"] = None

    def __repr__(self):
        return (
            f"OpInstance({self.operator.symbol} "
            f"{[s.name for s in self.inputs]} -> {self.output.name})"
        )


class Wiring(Protocol):
    """What executors need to know about plan wiring (provided by QueryPlan)."""

    def channel_of(self, stream: StreamDef) -> Channel: ...


class MOpExecutor:
    """Mutable runtime state of one m-op.

    ``process`` consumes one channel tuple arriving on one of the m-op's
    input channels and returns the channel tuples it produces, paired with
    their output channels.

    ``process_batch`` is the amortized entry point of the batched engine:
    one call consumes a *run* of channel tuples arriving on one channel, in
    order, and returns the produced tuples grouped per output channel.  The
    default implementation falls back to per-tuple :meth:`process`; hot
    m-ops override it with a vectorized path.  Implementations must preserve
    per-tuple semantics exactly: state updates happen in batch order, and
    the tuples inside each returned group appear in emission order.

    ``process_ranked`` is the entry point of ranked-window dispatch: one
    call consumes ``(rank, channel, tuple)`` items — spanning several input
    channels, in rank order — and returns ``(rank, channel, tuple)``
    outputs in emission order, each tagged with the rank of the input item
    that produced it.  The default goes through :meth:`process`, so
    emission merging stays scoped per input item; overrides must keep
    exactly that.
    """

    def process(
        self, channel: Channel, channel_tuple: ChannelTuple
    ) -> list[tuple[Channel, ChannelTuple]]:
        raise NotImplementedError

    def process_batch(
        self, channel: Channel, batch: Sequence[ChannelTuple]
    ) -> list[tuple[Channel, list[ChannelTuple]]]:
        grouped: dict[int, list[ChannelTuple]] = {}
        order: list[tuple[Channel, list[ChannelTuple]]] = []
        process = self.process
        for channel_tuple in batch:
            for out_channel, out_tuple in process(channel, channel_tuple):
                _append_grouped(grouped, order, out_channel, out_tuple)
        return order

    def process_ranked(
        self, items: Sequence[tuple[int, Channel, ChannelTuple]]
    ) -> list[tuple[int, Channel, ChannelTuple]]:
        outputs: list[tuple[int, Channel, ChannelTuple]] = []
        append = outputs.append
        process = self.process
        for rank, channel, channel_tuple in items:
            for out_channel, out_tuple in process(channel, channel_tuple):
                append((rank, out_channel, out_tuple))
        return outputs

    @property
    def state_size(self) -> int:
        return 0

    def snapshot_state(self):
        """The executor's operator state as plain picklable containers.

        ``None`` for stateless executors.  Mirrors
        :meth:`repro.operators.base.OperatorExecutor.snapshot_state`: the
        snapshot carries window contents, instance stores and partial-match
        state — never compiled closures or wiring tables — so it can cross
        a process boundary and re-seed a freshly built executor of the same
        m-op via :meth:`restore_state`.
        """
        return None

    def restore_state(self, snapshot) -> None:
        """Install a :meth:`snapshot_state` payload (``None`` = no state)."""
        if snapshot is not None:
            raise PlanError(
                f"{type(self).__name__} holds no state and cannot restore one"
            )

    @property
    def is_stateful(self) -> bool:
        """Whether this executor *class* can ever hold operator state.

        Executors that do not override :attr:`state_size` are stateless by
        construction; the engine partitions on this at table-rebuild time so
        state sampling never re-visits them.
        """
        return type(self).state_size is not MOpExecutor.state_size


class MOp:
    """A physical multi-operator: the plan node and scheduling unit."""

    #: Human-readable kind, e.g. "σ-index"; subclasses override.
    kind = "m-op"

    def __init__(self, instances: Iterable[OpInstance]):
        self.mop_id: int = next(_mop_ids)
        self.instances: list[OpInstance] = list(instances)
        if not self.instances:
            raise PlanError("an m-op must implement at least one operator")
        for instance in self.instances:
            instance.owner = self
            instance.output.producer = self

    # -- stream sets (paper §2.2 definitions) -------------------------------------

    @property
    def input_streams(self) -> list[StreamDef]:
        """Union of instance input streams, in first-appearance order."""
        seen: set[int] = set()
        result: list[StreamDef] = []
        for instance in self.instances:
            for stream in instance.inputs:
                if stream.stream_id not in seen:
                    seen.add(stream.stream_id)
                    result.append(stream)
        return result

    @property
    def output_streams(self) -> list[StreamDef]:
        seen: set[int] = set()
        result: list[StreamDef] = []
        for instance in self.instances:
            if instance.output.stream_id not in seen:
                seen.add(instance.output.stream_id)
                result.append(instance.output)
        return result

    def make_executor(self, wiring: Wiring) -> MOpExecutor:
        """Build a fresh executor against the plan's current wiring."""
        raise NotImplementedError

    def describe(self) -> str:
        symbols = "".join(sorted({i.operator.symbol for i in self.instances}))
        return f"{self.kind}[{symbols}×{len(self.instances)}]#{self.mop_id}"

    def __repr__(self):
        return self.describe()


class OutputCollector:
    """The encoding step: route per-instance outputs onto output channels.

    Built once per executor from the plan wiring; ``emit`` merges identical
    tuples destined for the same channel into one channel tuple with a
    multi-bit membership mask.
    """

    __slots__ = ("_routes",)

    def __init__(self, wiring: Wiring, output_streams: Sequence[StreamDef]):
        self._routes: dict[int, tuple[Channel, int]] = {}
        for stream in output_streams:
            channel = wiring.channel_of(stream)
            bit = 1 << channel.position_of(stream)
            self._routes[stream.stream_id] = (channel, bit)

    def route(self, stream: StreamDef) -> tuple[Channel, int]:
        """The (channel, membership bit) a stream's outputs go to."""
        return self._routes[stream.stream_id]

    def emit(
        self, outputs: Iterable[tuple[StreamDef, StreamTuple]]
    ) -> list[tuple[Channel, ChannelTuple]]:
        """Encode (stream, tuple) emissions into channel tuples.

        Tuples with identical content emitted to several member streams of
        the same channel become one channel tuple (shared space, §3.1) — but
        only across *disjoint* membership bits: a stream legitimately emitting
        the same content twice (two matched instances, multiset semantics)
        keeps two channel tuples.  Emission order follows first appearance,
        keeping runs deterministic.
        """
        if not outputs:
            return []
        routes = self._routes
        return self.emit_masked(
            [routes[stream.stream_id] + (tuple_,) for stream, tuple_ in outputs]
        )

    def emit_masked(
        self, outputs: Iterable[tuple[Channel, int, StreamTuple] | tuple]
    ) -> list[tuple[Channel, ChannelTuple]]:
        """Emit pre-encoded (channel, mask, tuple) triples.

        Identical content within one channel is merged only into masks it is
        disjoint with, preserving per-stream multiset counts.
        """
        if not outputs:
            return []
        merged: dict[tuple[int, StreamTuple], list[int]] = {}
        order: list[tuple[Channel, tuple[int, StreamTuple]]] = []
        for channel, mask, tuple_ in outputs:
            key = (channel.channel_id, tuple_)
            masks = merged.get(key)
            if masks is None:
                merged[key] = [mask]
                order.append((channel, key))
                continue
            for index, existing in enumerate(masks):
                if not existing & mask:
                    masks[index] = existing | mask
                    break
            else:
                masks.append(mask)
                order.append((channel, key))
        results: list[tuple[Channel, ChannelTuple]] = []
        cursor: dict[tuple[int, StreamTuple], int] = {}
        for channel, key in order:
            index = cursor.get(key, 0)
            cursor[key] = index + 1
            results.append((channel, ChannelTuple(key[1], merged[key][index])))
        return results

    def emit_batch(
        self,
        per_tuple_outputs: Iterable[Sequence[tuple[StreamDef, StreamTuple]]],
    ) -> list[tuple[Channel, list[ChannelTuple]]]:
        """Batch emission: one emission list per *input* tuple, grouped per
        output channel.

        Merging stays scoped to each input tuple's emissions — exactly what
        per-tuple :meth:`emit` would produce — so batched and per-tuple
        dispatch yield identical channel tuples.  The common 0/1-emission
        cases skip the merge machinery entirely.
        """
        routes = self._routes
        grouped: dict[int, list[ChannelTuple]] = {}
        order: list[tuple[Channel, list[ChannelTuple]]] = []
        for outputs in per_tuple_outputs:
            if not outputs:
                continue
            if len(outputs) == 1:
                stream, tuple_ = outputs[0]
                channel, bit = routes[stream.stream_id]
                _append_grouped(grouped, order, channel, ChannelTuple(tuple_, bit))
                continue
            for channel, channel_tuple in self.emit(outputs):
                _append_grouped(grouped, order, channel, channel_tuple)
        return order
