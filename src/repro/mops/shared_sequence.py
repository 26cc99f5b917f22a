"""Shared evaluation of ``;`` / ``µ`` operators — the s; / sµ targets (§4.3).

Two m-ops live here:

- :class:`SharedSequenceMOp` — common subexpression elimination: a set of
  operators with the same definition reading the same pair of streams is
  evaluated once, and the single result stream is multiplexed to every
  implemented operator's output.  This is the paper's translation of Cayuga's
  *prefix state merging* into a plan rewrite (§4.3, Fig. 8).

- :class:`IndexedSequenceMOp` — the *Active Node index* behaviour: a large
  set of ``;`` operators reading the **same second stream** but *different*
  first streams (Workload 1: each query's left input is its own σθ1 output),
  whose predicates carry a constant equality on a common attribute of the
  second stream (the θ3 of Workload 1).  The m-op hash-indexes the
  constituent operators by their θ3 constant, so an arriving ``T`` event
  touches only the operators whose constant matches — instead of every
  operator in the plan.  Together with the sσ m-op upstream (the FR-index
  analogue) this reproduces the Cayuga index pair exercised by Fig. 9.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.mop import MOp, MOpExecutor, OpInstance, OutputCollector, Wiring
from repro.errors import PlanError
from repro.operators.expressions import RIGHT
from repro.operators.iterate import Iterate
from repro.operators.predicates import as_constant_equality, conjuncts
from repro.operators.sequence import Sequence
from repro.streams.channel import Channel, ChannelTuple


class SharedSequenceMOp(MOp):
    """CSE: one executor, outputs multiplexed to all same-definition queries."""

    kind = ";-shared"

    def __init__(self, instances):
        super().__init__(instances)
        definitions = {instance.operator.definition() for instance in self.instances}
        if len(definitions) != 1:
            raise PlanError("s;/sµ merge operators with the same definition")
        operator = self.instances[0].operator
        if not isinstance(operator, (Sequence, Iterate)):
            raise PlanError("SharedSequenceMOp implements ; and µ operators only")
        lefts = {instance.inputs[0].stream_id for instance in self.instances}
        rights = {instance.inputs[1].stream_id for instance in self.instances}
        if len(lefts) != 1 or len(rights) != 1:
            raise PlanError("s;/sµ merge operators reading the same pair of streams")

    def make_executor(self, wiring: Wiring) -> "SharedSequenceExecutor":
        return SharedSequenceExecutor(self, wiring)


class SharedSequenceExecutor(MOpExecutor):
    def __init__(self, mop: SharedSequenceMOp, wiring: Wiring):
        self.mop = mop
        self._collector = OutputCollector(wiring, mop.output_streams)
        first = mop.instances[0]
        left_stream, right_stream = first.inputs
        left_channel = wiring.channel_of(left_stream)
        right_channel = wiring.channel_of(right_stream)
        self._left_slot = (
            left_channel.channel_id,
            1 << left_channel.position_of(left_stream),
        )
        self._right_slot = (
            right_channel.channel_id,
            1 << right_channel.position_of(right_stream),
        )
        operator = first.operator
        self._inner = operator.executor([left_stream.schema, right_stream.schema])
        self._advance = (
            self._inner.advance if isinstance(operator, Iterate) else self._inner.match
        )
        self._outputs = [instance.output for instance in mop.instances]

    def process(
        self, channel: Channel, channel_tuple: ChannelTuple
    ) -> list[tuple[Channel, ChannelTuple]]:
        channel_id = channel.channel_id
        membership = channel_tuple.membership
        left_id, left_bit = self._left_slot
        right_id, right_bit = self._right_slot
        emissions = []
        if channel_id == left_id and membership & left_bit:
            self._inner.insert(channel_tuple.tuple)
        if channel_id == right_id and membership & right_bit:
            for output, __ in self._advance(channel_tuple.tuple):
                for output_stream in self._outputs:
                    emissions.append((output_stream, output))
        return self._collector.emit(emissions)

    @property
    def state_size(self) -> int:
        return self._inner.state_size

    def snapshot_state(self):
        return self._inner.snapshot_state()

    def restore_state(self, snapshot) -> None:
        self._inner.restore_state(snapshot)


class IndexedSequenceMOp(MOp):
    """AN-index: constant-indexed dispatch over many ``;`` operators.

    ``index_attribute`` names the second-stream attribute whose constant
    equality all constituent predicates carry.
    """

    kind = ";-index"

    def __init__(self, instances, index_attribute: str):
        super().__init__(instances)
        self.index_attribute = index_attribute
        rights = set()
        for instance in self.instances:
            operator = instance.operator
            if not isinstance(operator, Sequence):
                raise PlanError("IndexedSequenceMOp implements ; operators only")
            if guard_constant(operator, index_attribute) is None:
                raise PlanError(
                    f"every ; predicate must carry a constant equality on "
                    f"second-stream attribute {index_attribute!r}"
                )
            rights.add(instance.inputs[1].stream_id)
        if len(rights) != 1:
            raise PlanError("AN-indexed operators must read the same second stream")

    def make_executor(self, wiring: Wiring) -> "IndexedSequenceExecutor":
        return IndexedSequenceExecutor(self, wiring)


def guard_constant(operator: Sequence, attribute: str):
    """The constant c of the ``right.attribute == c`` conjunct, or None."""
    for part in conjuncts(operator.predicate):
        shape = as_constant_equality(part)
        if shape is not None and shape[0] == RIGHT and shape[1] == attribute:
            return shape[2]
    return None


class _DefinitionGroup:
    """One definition's shared executor plus its member queries.

    Queries with the same definition but different left streams share the
    executor; each stored instance is tagged (via the executor's mask
    plumbing) with the member that opened it, so matches are attributed to
    the right query — the behaviour of a merged Cayuga state holding
    instances that arrived via different prefixes.
    """

    __slots__ = ("executor", "members", "outputs")

    def __init__(self, executor):
        self.executor = executor
        self.members: list[OpInstance] = []
        self.outputs: list = []

    def add(self, instance: OpInstance) -> int:
        self.members.append(instance)
        self.outputs.append(instance.output)
        return len(self.members) - 1


class IndexedSequenceExecutor(MOpExecutor):
    def __init__(self, mop: IndexedSequenceMOp, wiring: Wiring):
        self.mop = mop
        self._collector = OutputCollector(wiring, mop.output_streams)
        right_stream = mop.instances[0].inputs[1]
        right_channel = wiring.channel_of(right_stream)
        self._right_slot = (
            right_channel.channel_id,
            1 << right_channel.position_of(right_stream),
        )
        self._index_position = right_stream.schema.index_of(mop.index_attribute)

        #: definition -> group (shared executor + members)
        groups: dict[tuple, _DefinitionGroup] = {}
        #: guard constant -> groups whose events carry that constant
        self._by_constant: dict[object, list[_DefinitionGroup]] = defaultdict(list)
        #: (channel_id, position) -> [(group, member bit)] for left routing
        self._left_routes: dict[tuple[int, int], list[tuple[_DefinitionGroup, int]]] = (
            defaultdict(list)
        )
        for instance in mop.instances:
            operator: Sequence = instance.operator
            definition = operator.definition()
            group = groups.get(definition)
            if group is None:
                executor = operator.executor(
                    [instance.inputs[0].schema, right_stream.schema]
                )
                group = _DefinitionGroup(executor)
                groups[definition] = group
                constant = guard_constant(operator, mop.index_attribute)
                self._by_constant[constant].append(group)
            member = group.add(instance)
            left_stream = instance.inputs[0]
            left_channel = wiring.channel_of(left_stream)
            slot = (left_channel.channel_id, left_channel.position_of(left_stream))
            self._left_routes[slot].append((group, 1 << member))
        self._groups = list(groups.values())
        #: (channel_id, membership) -> :meth:`_inserts` memo.
        self._inserts_by_mask: dict[tuple[int, int], tuple] = {}

    def _inserts(self, channel_id: int, membership: int) -> tuple:
        """``(insert, member bit)`` for the left routes of every set bit of
        ``membership`` on ``channel_id``, resolved once per distinct mask."""
        key = (channel_id, membership)
        inserts = self._inserts_by_mask.get(key)
        if inserts is None:
            resolved = []
            remaining = membership
            position = 0
            while remaining:
                if remaining & 1:
                    for group, member_bit in self._left_routes.get(
                        (channel_id, position), ()
                    ):
                        resolved.append((group.executor.insert, member_bit))
                remaining >>= 1
                position += 1
            inserts = self._inserts_by_mask[key] = tuple(resolved)
        return inserts

    def _match(self, relevant: list, tuple_) -> list:
        """``(output stream, tuple)`` emissions of the groups ``relevant``
        to a right event, attributed to each matched member query."""
        emissions = []
        for group in relevant:
            for output, member_mask in group.executor.match(tuple_):
                outputs = group.outputs
                member = 0
                while member_mask:
                    if member_mask & 1:
                        emissions.append((outputs[member], output))
                    member_mask >>= 1
                    member += 1
        return emissions

    def process(
        self, channel: Channel, channel_tuple: ChannelTuple
    ) -> list[tuple[Channel, ChannelTuple]]:
        membership = channel_tuple.membership
        tuple_ = channel_tuple.tuple
        channel_id = channel.channel_id
        # Left inputs: route by originating stream to the owning group.
        for insert, member_bit in self._inserts(channel_id, membership):
            insert(tuple_, member_bit)
        # Right events: one hash lookup selects the relevant groups.
        right_id, right_bit = self._right_slot
        if channel_id != right_id or not membership & right_bit:
            return []
        relevant = self._by_constant.get(tuple_.values[self._index_position])
        if not relevant:
            return []
        return self._collector.emit(self._match(relevant, tuple_))

    def process_ranked(self, items) -> list:
        """Ranked-window dispatch: :meth:`process` per item, each output
        tagged with the item's rank, with the per-item lookups hoisted."""
        inserts_by_mask = self._inserts_by_mask
        right_id, right_bit = self._right_slot
        by_constant = self._by_constant
        index_position = self._index_position
        collector = self._collector
        outputs = []
        append = outputs.append
        for rank, channel, channel_tuple in items:
            channel_id = channel.channel_id
            membership = channel_tuple.membership
            tuple_ = channel_tuple.tuple
            inserts = inserts_by_mask.get((channel_id, membership))
            if inserts is None:
                inserts = self._inserts(channel_id, membership)
            for insert, member_bit in inserts:
                insert(tuple_, member_bit)
            if channel_id != right_id or not membership & right_bit:
                continue
            relevant = by_constant.get(tuple_.values[index_position])
            if not relevant:
                continue
            emissions = self._match(relevant, tuple_)
            if len(emissions) == 1:
                # What emit() makes of a single emission, without its
                # content-merging bookkeeping.
                stream, output = emissions[0]
                out_channel, bit = collector.route(stream)
                append((rank, out_channel, ChannelTuple(output, bit)))
            elif emissions:
                for out_channel, out_tuple in collector.emit(emissions):
                    append((rank, out_channel, out_tuple))
        return outputs

    @property
    def state_size(self) -> int:
        return sum(group.executor.state_size for group in self._groups)

    def snapshot_state(self):
        # Groups form in mop.instances order (first appearance of each
        # definition), which is identical for donor and receiver.
        snapshots = [group.executor.snapshot_state() for group in self._groups]
        return snapshots if any(s is not None for s in snapshots) else None

    def restore_state(self, snapshot) -> None:
        if snapshot is None:
            return
        for group, entry in zip(self._groups, snapshot):
            group.executor.restore_state(entry)
