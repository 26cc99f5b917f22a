"""Predicate indexing for selections — the sσ target m-op [10, 16].

Implements a set of selection operators reading the same stream (or channel).
Equality predicates ``attr = c`` are organized into per-attribute hash
indexes: an arriving tuple performs one dictionary lookup per indexed
attribute and receives *all* satisfied selections at once, instead of
evaluating each predicate one by one.  Non-indexable predicates (inequality,
complex conditions — the paper's hybrid workload assumes the starting
conditions are not indexable, §5.3) are evaluated sequentially, still inside
the single m-op.

This m-op also realizes Cayuga's *FR index* once automata are translated to
plans (§4.3): the forward-edge predicates of a state become the selections
downstream of the state's operator, and applying sσ to them builds exactly
the per-state predicate index.

When several output streams share a channel, the emission path produces one
channel tuple whose membership encodes all satisfied selections — the σ{s1..sn}
behaviour of Fig. 6(c).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.core.mop import MOp, MOpExecutor, OpInstance, OutputCollector, Wiring
from repro.errors import PlanError
from repro.operators.expressions import LEFT
from repro.operators.predicates import as_constant_equality
from repro.operators.select import Selection
from repro.streams.channel import Channel, ChannelTuple
from repro.streams.columns import INT64_MAX, INT64_MIN, TAG_INT


class PredicateIndexMOp(MOp):
    """Implements selections over one input channel via predicate indexing."""

    kind = "σ-index"

    def __init__(self, instances):
        super().__init__(instances)
        input_ids = set()
        for instance in self.instances:
            if not isinstance(instance.operator, Selection):
                raise PlanError("PredicateIndexMOp implements selections only")
            input_ids.add(instance.inputs[0].stream_id)
        # All selections must read streams that arrive on one channel; with
        # singleton channels that means the same stream (the sσ condition).
        self._input_ids = input_ids

    def make_executor(self, wiring: Wiring) -> "PredicateIndexExecutor":
        return PredicateIndexExecutor(self, wiring)


class PredicateIndexExecutor(MOpExecutor):
    """Hash-indexed + sequential predicate evaluation."""

    def __init__(self, mop: PredicateIndexMOp, wiring: Wiring):
        self.mop = mop
        self._collector = OutputCollector(wiring, mop.output_streams)
        # Per input stream: hash indexes per attribute, plus sequential list.
        # Keyed by (channel_id, position) so decode is one tuple lookup.
        #   indexes: attr_position -> {constant -> [instances]}
        #   scans:   [(compiled predicate, instance)]
        self._by_slot: dict[
            tuple[int, int],
            tuple[dict[int, dict[object, list[OpInstance]]], list],
        ] = {}
        for instance in mop.instances:
            stream = instance.inputs[0]
            channel = wiring.channel_of(stream)
            slot = (channel.channel_id, channel.position_of(stream))
            indexes, scans = self._by_slot.setdefault(slot, ({}, []))
            schema = stream.schema
            shape = as_constant_equality(instance.operator.predicate)
            if shape is not None and shape[0] == LEFT and shape[1] in schema:
                position = schema.index_of(shape[1])
                indexes.setdefault(position, defaultdict(list))[shape[2]].append(
                    instance
                )
            else:
                compiled = instance.operator.predicate.compile(schema)
                scans.append((compiled, instance))
        # Batch-path tables mirroring ``_by_slot`` with all per-hit work
        # precomputed: an index probe yields ready-made (channel, mask)
        # routes — the per-channel OR of every satisfied instance's output
        # bit — and scans carry their single route.  Output bits are
        # pairwise-disjoint (one bit per output stream), so the pre-merged
        # routes equal what per-tuple ``OutputCollector.emit`` produces.
        collector = self._collector
        self._batch_slots: dict[tuple[int, int], tuple[list, list]] = {}
        for slot, (indexes, scans) in self._by_slot.items():
            probe_tables = []
            for attr_position, table in indexes.items():
                routes_by_constant = {}
                for constant, instances in table.items():
                    merged: dict[int, list] = {}
                    order: list[int] = []
                    for instance in instances:
                        out_channel, bit = collector.route(instance.output)
                        entry = merged.get(out_channel.channel_id)
                        if entry is None:
                            merged[out_channel.channel_id] = [out_channel, bit]
                            order.append(out_channel.channel_id)
                        else:
                            entry[1] |= bit
                    routes_by_constant[constant] = tuple(
                        (merged[channel_id][0], merged[channel_id][1])
                        for channel_id in order
                    )
                probe_tables.append((attr_position, routes_by_constant))
            scan_routes = [
                (compiled, collector.route(instance.output))
                for compiled, instance in scans
            ]
            self._batch_slots[slot] = (probe_tables, scan_routes)
        # Fast path for the dominant shape — every selection fully indexed
        # on one attribute of one singleton input channel: (channel_id,
        # attr position, routes-by-constant), else None.
        self._fast_probe = None
        if len(self._batch_slots) == 1:
            (slot, (probe_tables, scan_routes)), = self._batch_slots.items()
            if slot[1] == 0 and len(probe_tables) == 1 and not scan_routes:
                self._fast_probe = (slot[0], *probe_tables[0])
        # Columnar probe: the fast-probe constants packed as int64, so an
        # arriving 'q' column is filtered with one vectorized ``np.isin``
        # and only the hit rows materialize.  Disabled (None) when any
        # constant is not a plain in-range int — bools are excluded on
        # purpose (``True`` hashes like ``1``, and int64 packing would
        # conflate them); such predicates keep the per-row dict probe.
        self._fast_constants = None
        if self._fast_probe is not None:
            constants = list(self._fast_probe[2])
            if constants and all(
                type(constant) is int and INT64_MIN <= constant <= INT64_MAX
                for constant in constants
            ):
                self._fast_constants = np.array(
                    sorted(constants), dtype=np.int64
                )
        # Batch-path memo: (channel_id, membership) -> resolved slot list.
        # ``_batch_slots`` is immutable for the executor's lifetime, so the
        # bit-scan resolution runs once per distinct mask ever.
        self._slots_by_mask: dict[tuple[int, int], list] = {}

    def process(
        self, channel: Channel, channel_tuple: ChannelTuple
    ) -> list[tuple[Channel, ChannelTuple]]:
        mask = channel_tuple.membership
        tuple_ = channel_tuple.tuple
        values = tuple_.values
        emissions = []
        channel_id = channel.channel_id
        for position in range(channel.capacity):
            if not mask & (1 << position):
                continue
            slot = self._by_slot.get((channel_id, position))
            if slot is None:
                continue
            indexes, scans = slot
            for attr_position, table in indexes.items():
                matched = table.get(values[attr_position])
                if matched:
                    for instance in matched:
                        emissions.append((instance.output, tuple_))
            for compiled, instance in scans:
                if compiled(tuple_, None, None):
                    emissions.append((instance.output, tuple_))
        return self._collector.emit(emissions)

    def can_process_columns(self, channel: Channel, batch) -> bool:
        """Whether :meth:`process_columns` handles this packed batch: the
        fast probe covers the channel, the constants packed as int64, and
        the probed attribute arrived as an int column."""
        fast = self._fast_probe
        if (
            fast is None
            or self._fast_constants is None
            or channel.channel_id != fast[0]
            or channel.capacity != 1
        ):
            return False
        return batch.columns[fast[1]][0] == TAG_INT

    def process_columns(
        self, channel: Channel, batch
    ) -> list[tuple[Channel, list[ChannelTuple]]]:
        """Vectorized columnar probe: one ``np.isin`` over the packed
        attribute column selects the hit rows; only those materialize.

        Bucket contents and order match :meth:`process_batch`'s fast path
        exactly — hits keep arrival order (``np.nonzero`` is ascending)
        and route through the same precomputed routes-by-constant table.
        """
        __, attr_position, routes_by_constant = self._fast_probe
        column = batch.columns[attr_position][1]
        hit_indexes = np.nonzero(np.isin(column, self._fast_constants))[0]
        if not hit_indexes.size:
            return []
        rows = batch.take_rows(hit_indexes).tuples()
        hit_values = column[hit_indexes].tolist()
        grouped: dict[int, list[ChannelTuple]] = {}
        order: list[tuple[Channel, list[ChannelTuple]]] = []
        for tuple_, value in zip(rows, hit_values):
            for out_channel, out_mask in routes_by_constant[value]:
                out_id = out_channel.channel_id
                bucket = grouped.get(out_id)
                if bucket is None:
                    bucket = grouped[out_id] = []
                    order.append((out_channel, bucket))
                bucket.append(ChannelTuple(tuple_, out_mask))
        return order

    def process_ranked(self, items) -> list:
        """Ranked-window probe: the fast-probe routes of :meth:`process_batch`
        per item, each output tagged with its input's rank.  Shapes the fast
        probe does not cover take the per-tuple default."""
        fast = self._fast_probe
        if not items or fast is None or items[0][1].capacity != 1:
            # With a fast probe every item arrives on its one input channel.
            return super().process_ranked(items)
        __, attr_position, routes_by_constant = fast
        outputs = []
        append = outputs.append
        for rank, __, channel_tuple in items:
            tuple_ = channel_tuple.tuple
            routes = routes_by_constant.get(tuple_.values[attr_position])
            if routes is None:
                continue
            for out_channel, out_mask in routes:
                append((rank, out_channel, ChannelTuple(tuple_, out_mask)))
        return outputs

    def process_batch(
        self, channel: Channel, batch
    ) -> list[tuple[Channel, list[ChannelTuple]]]:
        """Vectorized probe: slot resolution once per distinct mask, one
        hash probe per indexed attribute per tuple, pre-merged routes.

        Emission merging matches per-tuple :meth:`process` exactly — the
        single-probe case (the common one) reuses the precomputed routes
        verbatim; multi-hit tuples OR the per-channel masks in
        first-appearance order, which is what ``OutputCollector.emit`` does
        for disjoint bits over identical content.
        """
        channel_id = channel.channel_id
        fast = self._fast_probe
        if fast is not None and channel_id == fast[0] and channel.capacity == 1:
            # Singleton channel (membership is always bit 0), one attribute
            # index, no scans: one dict probe per tuple, routes prebuilt.
            __, attr_position, routes_by_constant = fast
            grouped = {}
            order = []
            for channel_tuple in batch:
                tuple_ = channel_tuple.tuple
                routes = routes_by_constant.get(tuple_.values[attr_position])
                if routes is None:
                    continue
                for out_channel, out_mask in routes:
                    out_id = out_channel.channel_id
                    bucket = grouped.get(out_id)
                    if bucket is None:
                        bucket = grouped[out_id] = []
                        order.append((out_channel, bucket))
                    bucket.append(ChannelTuple(tuple_, out_mask))
            return order
        batch_slots = self._batch_slots
        slots_by_mask = self._slots_by_mask
        grouped: dict[int, list[ChannelTuple]] = {}
        order: list[tuple[Channel, list[ChannelTuple]]] = []
        for channel_tuple in batch:
            mask = channel_tuple.membership
            slots = slots_by_mask.get((channel_id, mask))
            if slots is None:
                slots = []
                remaining = mask
                position = 0
                while remaining:
                    if remaining & 1:
                        slot = batch_slots.get((channel_id, position))
                        if slot is not None:
                            slots.append(slot)
                    remaining >>= 1
                    position += 1
                slots_by_mask[(channel_id, mask)] = slots
            if not slots:
                continue
            tuple_ = channel_tuple.tuple
            values = tuple_.values
            hits = None
            multi = False
            for probe_tables, scan_routes in slots:
                for attr_position, routes_by_constant in probe_tables:
                    routes = routes_by_constant.get(values[attr_position])
                    if routes is not None:
                        if hits is None:
                            hits = routes
                        else:
                            hits = list(hits) + list(routes)
                            multi = True
                for compiled, route in scan_routes:
                    if compiled(tuple_, None, None):
                        if hits is None:
                            hits = (route,)
                        else:
                            hits = list(hits) + [route]
                            multi = True
            if hits is None:
                continue
            if multi:
                merged: dict[int, list] = {}
                merged_order: list[int] = []
                for out_channel, out_mask in hits:
                    entry = merged.get(out_channel.channel_id)
                    if entry is None:
                        merged[out_channel.channel_id] = [out_channel, out_mask]
                        merged_order.append(out_channel.channel_id)
                    else:
                        entry[1] |= out_mask
                hits = [
                    (merged[cid][0], merged[cid][1]) for cid in merged_order
                ]
            for out_channel, out_mask in hits:
                out_id = out_channel.channel_id
                bucket = grouped.get(out_id)
                if bucket is None:
                    bucket = grouped[out_id] = []
                    order.append((out_channel, bucket))
                bucket.append(ChannelTuple(tuple_, out_mask))
        return order
