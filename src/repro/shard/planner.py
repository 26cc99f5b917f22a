"""Shard planning: partition an optimized plan into independent sub-plans.

The safe unit of parallel placement is the **entry-channel connected
component**: m-ops are connected iff they touch a common channel — as
producer and consumer of a derived channel, or as co-consumers of any
channel, entry (source) channels included — or one query sinks on both.
All of a query's sinks, m-op outputs and *pass-through* sinks (a query
marked output directly on a source) alike, belong to one component: their
relative order is observable in the query's captured outputs.  Within a
component, tuples flow and m-ops are shared; across components, nothing
does.  So a component can run on its own engine, fed only its own entry
channels, and the union of the per-component outputs is byte-identical to
the single-engine run (every channel is consumed, and every query
captured, by exactly one component).

This mirrors how Roy et al. and Kathuria & Sudarshan treat sharing-group
structure as the unit of work in multi-query optimization — here the sharing
group is also the unit of *placement*.

Components are no longer atomic, though.  A bridge-shaped component — two
clusters joined by one derived channel — can be **cut** at that channel: the
upstream fragment keeps the producer, the downstream fragment re-reads the
bridge stream as an entry, and the runtime relays the bridge channel's
tuples across the shard boundary (:class:`RelayEdge`).  Cuts are scored the
Roy-et-al way: the benefit of separating the two halves (the smaller half's
saved cost, i.e. what co-location forces onto one shard) against the cost of
the relay hop (:data:`~repro.core.cost.RELAY_HOP_COST` × the bridge's
estimated rate).  Only *singleton* channels qualify (a shared channel's
membership masks belong to one engine's wiring), and a cut whose downstream
fragment also reads plan sources is allowed only when every upstream m-op is
timestamp-preserving (selections/projections), because relayed tuples are
merged into the receiving fragment's feed by timestamp and must carry the
driving tuple's timestamp for the merge order to reproduce the single-engine
dispatch order.

:class:`ShardPlanner` computes the components, estimates each component's
per-input-tuple cost with the repo's :class:`~repro.core.cost.CostModel`,
splits oversized components along their best bridge cut, groups components
by sharability signature (components whose entries are sharable-labelled
alike would re-merge downstream, so they co-locate), and spreads the
resulting placement units across ``n`` shards with an explicit balance
heuristic (longest-processing-time greedy: heaviest unit onto the currently
lightest shard).  Components costlier than the per-shard target
``total_cost / n`` that no valid cut can split are recorded in
:attr:`ShardPlan.oversized` for observability and the balance does its best
around them.

Sub-plans *share* the original plan's stream, channel and m-op objects
(:meth:`~repro.core.plan.QueryPlan.adopt_source` /
:meth:`~repro.core.plan.QueryPlan.adopt_component`); executors only read
``channel_of`` wiring, so engines built over a sub-plan behave exactly like
the same component inside the single engine.  The original plan must not be
rewritten while sub-plan engines are live — the same contract the
single-engine executor already imposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.cost import RELAY_HOP_COST, CostModel
from repro.core.mop import MOp
from repro.core.plan import QueryPlan
from repro.core.sharable import sharability_signature
from repro.errors import PlanError
from repro.operators.project import Projection
from repro.streams.channel import Channel
from repro.streams.stream import StreamDef

#: Relative tolerance for "component cost exceeds the per-shard target".
#: Cost attribution sums floats in topological order, so two structurally
#: identical plans can disagree by a few ULPs; a strict compare would flip
#: the ``oversized`` flag (and the policy's alert counts) between them.
OVERSIZED_REL_TOL = 1e-9


def is_oversized(cost: float, target: float, rel_tol: float = OVERSIZED_REL_TOL) -> bool:
    """Whether ``cost`` exceeds ``target`` beyond FP attribution noise."""
    return cost > target * (1.0 + rel_tol)


@dataclass
class ShardComponent:
    """One entry-channel connected component (or fragment) of a plan."""

    index: int
    mops: list[MOp]
    query_ids: list
    entry_channel_ids: frozenset[int]
    #: Derived streams that enter this fragment over a relay edge (empty for
    #: unsplit components).  These are adopted as *sources* of the fragment's
    #: sub-plan; the runtime feeds them from the producing fragment's relay.
    entry_stream_ids: frozenset[int] = frozenset()
    cost: float = 0.0
    #: Source streams a query of this component sinks on directly; their
    #: channels are among :attr:`entry_channel_ids`.
    passthrough: tuple[StreamDef, ...] = ()

    def __repr__(self):
        relay = (
            f", relay-entries={sorted(self.entry_stream_ids)}"
            if self.entry_stream_ids
            else ""
        )
        return (
            f"ShardComponent(#{self.index}, {len(self.mops)} m-ops, "
            f"queries={self.query_ids}, cost={self.cost:.2f}{relay})"
        )


@dataclass
class RelayEdge:
    """One cross-shard bridge: a derived channel re-emitted as an entry.

    Produced by :meth:`ShardPlanner.partition` only for cuts whose fragments
    actually landed on *different* shards — co-located fragments reconnect
    through the shard plan's own wiring and need no relay.
    """

    edge_id: int
    stream: StreamDef
    channel: Channel
    from_component: int
    to_component: int
    from_shard: int
    to_shard: int
    #: The bridge stream's estimated per-input-tuple rate (cost-model units);
    #: what the relay hop was charged at when the cut was scored.
    rate: float = 1.0

    def __repr__(self):
        return (
            f"RelayEdge(#{self.edge_id}, {self.stream.name!r}: "
            f"shard {self.from_shard} -> {self.to_shard}, rate={self.rate:.2f})"
        )


@dataclass
class ShardPlan:
    """The output of :meth:`ShardPlanner.partition`."""

    plan: QueryPlan
    n_shards: int
    components: list[ShardComponent]
    #: component index -> shard index.
    assignment: list[int]
    #: one sub-plan per shard (shares objects with :attr:`plan`).
    subplans: list[QueryPlan]
    #: channel_id -> owning shard, for every channel any m-op consumes.
    channel_shard: dict[int, int]
    #: query_id -> owning shard.
    query_shard: dict = field(default_factory=dict)
    #: estimated cost per shard.
    shard_costs: list[float] = field(default_factory=list)
    #: the balance target: total estimated cost / n_shards.
    cost_target: float = 0.0
    #: indexes of components whose cost exceeds the per-shard target (beyond
    #: :data:`OVERSIZED_REL_TOL`) and that no valid bridge cut could split —
    #: their shard will run hot no matter the assignment.
    oversized: list[int] = field(default_factory=list)
    #: active cross-shard bridges, ordered by edge id.
    relays: list[RelayEdge] = field(default_factory=list)

    @property
    def effective_shards(self) -> int:
        """Shards that actually received work (≤ n_shards)."""
        return sum(1 for subplan in self.subplans if subplan.mops)

    def relays_from(self, shard: int) -> list[RelayEdge]:
        return [edge for edge in self.relays if edge.from_shard == shard]

    def relays_to(self, shard: int) -> list[RelayEdge]:
        return [edge for edge in self.relays if edge.to_shard == shard]

    def describe(self) -> str:
        lines = [
            f"ShardPlan: {len(self.components)} components over "
            f"{self.n_shards} shards (target cost {self.cost_target:.2f})"
        ]
        for component in self.components:
            marker = " [oversized]" if component.index in self.oversized else ""
            lines.append(
                f"  component {component.index} -> shard "
                f"{self.assignment[component.index]}: cost "
                f"{component.cost:.2f}, queries {component.query_ids}{marker}"
            )
        for edge in self.relays:
            lines.append(
                f"  relay {edge.edge_id}: {edge.stream.name!r} component "
                f"{edge.from_component} (shard {edge.from_shard}) -> component "
                f"{edge.to_component} (shard {edge.to_shard})"
            )
        return "\n".join(lines)


@dataclass
class _Cut:
    """A candidate bridge cut inside one component (planner-internal)."""

    stream: StreamDef
    up_mops: list[MOp]
    down_mops: list[MOp]
    up_passthrough: list[StreamDef]
    down_passthrough: list[StreamDef]
    gain: float
    relay_cost: float
    rate: float


class ShardPlanner:
    """Partitions a query plan into balanced shard sub-plans."""

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model or CostModel()

    # -- components ------------------------------------------------------------------

    def components(self, plan: QueryPlan) -> list[ShardComponent]:
        """Entry-channel connected components (see the module docstring).

        Members are the m-ops and the pass-through sinks; two members share
        a component when they touch a common channel or one query sinks on
        both.  Components holding m-ops come first, in first-m-op plan
        order; pass-through-only components follow.
        """
        mops = plan.mops
        passthrough = [
            stream
            for stream, __ in plan.sink_streams()
            if plan.producer_instance_of(stream) is None
        ]
        parent = list(range(len(mops) + len(passthrough)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

        touches: dict[int, int] = {}  # channel_id -> first member seen

        def touch(stream: StreamDef, member: int) -> None:
            channel_id = plan.channel_of(stream).channel_id
            union(touches.setdefault(channel_id, member), member)

        for index, mop in enumerate(mops):
            for stream in (*mop.input_streams, *mop.output_streams):
                touch(stream, index)
        for offset, stream in enumerate(passthrough):
            touch(stream, len(mops) + offset)
        first_sink: dict = {}  # query_id -> member holding its first sink
        for stream, query_ids in plan.sink_streams():
            member = touches[plan.channel_of(stream).channel_id]
            for query_id in query_ids:
                union(first_sink.setdefault(query_id, member), member)
        grouped: dict[int, list[int]] = {}
        for member in range(len(parent)):
            grouped.setdefault(find(member), []).append(member)
        components: list[ShardComponent] = []
        for order, root in enumerate(sorted(grouped)):
            members = grouped[root]
            component = self._make_fragment(
                plan,
                [mops[i] for i in members if i < len(mops)],
                frozenset(),
                [passthrough[i - len(mops)] for i in members if i >= len(mops)],
            )
            component.index = order
            components.append(component)
        return components

    def _make_fragment(
        self,
        plan: QueryPlan,
        mops: list[MOp],
        relay_entries: frozenset[int],
        passthrough: Sequence[StreamDef] = (),
    ) -> ShardComponent:
        """Build a component record for ``mops`` and the pass-through sinks
        ``passthrough`` (index assigned later)."""
        source_ids = {source.stream_id for source in plan.sources}
        entry_channels = {
            plan.channel_of(stream).channel_id for stream in passthrough
        }
        query_ids: list = []
        seen_queries: set = set()
        sinks = plan.sinks
        sink_streams = [
            stream for mop in mops for stream in mop.output_streams
        ] + list(passthrough)
        for mop in mops:
            for stream in mop.input_streams:
                if stream.stream_id in source_ids:
                    entry_channels.add(plan.channel_of(stream).channel_id)
        for stream in sink_streams:
            for query_id in sinks.get(stream.stream_id, ()):
                if query_id not in seen_queries:
                    seen_queries.add(query_id)
                    query_ids.append(query_id)
        return ShardComponent(
            index=-1,
            mops=mops,
            query_ids=query_ids,
            entry_channel_ids=frozenset(entry_channels),
            entry_stream_ids=relay_entries,
            passthrough=tuple(passthrough),
        )

    # -- bridge cuts -----------------------------------------------------------------

    @staticmethod
    def _ts_preserving(mop: MOp) -> bool:
        """Whether every tuple the m-op emits carries its input's timestamp.

        Selections filter but never rewrite ``ts``; projections map 1:1 and
        preserve ``ts`` by definition.  Anything else (windows, sequences,
        aggregations) may emit at a different timestamp, which would break
        the timestamp-merge that orders relayed tuples against the receiving
        fragment's own feed.
        """
        return all(
            getattr(instance.operator, "is_selection", False)
            or isinstance(instance.operator, Projection)
            for instance in mop.instances
        )

    def best_cut(
        self,
        plan: QueryPlan,
        component: ShardComponent,
        costs: dict[int, float],
        rates: dict[int, float],
    ) -> Optional[_Cut]:
        """The highest-gain valid bridge cut of ``component``, if any.

        ``costs``/``rates`` come from
        :meth:`~repro.core.cost.CostModel.attributed_costs`.  Gain is the
        Roy-et-al score: ``min(cost_up, cost_down) - RELAY_HOP_COST * rate``
        — what the lighter half is worth moving off-shard, less the hop.
        Ties break on the bridge stream id, so the same plan always cuts the
        same way.
        """
        if len(component.mops) < 2:
            return None
        # A pass-through sink goes with the m-ops reading its channel; one
        # joined to the component only through a query has no side to
        # inherit, so that component stays whole.
        passthrough_readers: list[tuple[StreamDef, set[int]]] = []
        for stream in component.passthrough:
            channel_id = plan.channel_of(stream).channel_id
            readers = {
                id(mop)
                for mop in component.mops
                if any(
                    plan.channel_of(read).channel_id == channel_id
                    for read in mop.input_streams
                )
            }
            if not readers:
                return None
            passthrough_readers.append((stream, readers))
        source_ids = {source.stream_id for source in plan.sources}
        channel_members: dict[int, int] = {}
        for stream in plan.streams():
            channel_id = plan.channel_of(stream).channel_id
            channel_members[channel_id] = channel_members.get(channel_id, 0) + 1
        member_ids = {id(mop) for mop in component.mops}
        producer_of: dict[int, MOp] = {}
        for mop in component.mops:
            for stream in mop.output_streams:
                producer_of[stream.stream_id] = mop

        def local_consumers(stream: StreamDef) -> list[MOp]:
            return [
                mop
                for mop, __, __ in plan.consumers_of(stream)
                if id(mop) in member_ids
            ]

        sinks = plan.sinks
        best: Optional[tuple[tuple, _Cut]] = None
        for producer in component.mops:
            for bridge in producer.output_streams:
                consumers = local_consumers(bridge)
                if not consumers:
                    continue
                channel = plan.channel_of(bridge)
                if channel_members.get(channel.channel_id, 0) != 1:
                    continue  # shared channel: masks belong to one engine
                down: dict[int, MOp] = {}
                frontier = list(consumers)
                while frontier:
                    mop = frontier.pop()
                    if id(mop) in down:
                        continue
                    down[id(mop)] = mop
                    for out in mop.output_streams:
                        frontier.extend(local_consumers(out))
                if id(producer) in down:
                    continue  # producer reachable from the bridge: no cut
                up_mops = [m for m in component.mops if id(m) not in down]
                down_mops = [m for m in component.mops if id(m) in down]
                if not up_mops or not down_mops:
                    continue
                mixed = False
                valid = True
                for mop in down_mops:
                    for stream in mop.input_streams:
                        stream_id = stream.stream_id
                        if stream_id == bridge.stream_id:
                            continue
                        owner = producer_of.get(stream_id)
                        if owner is not None and id(owner) in down:
                            continue
                        if owner is not None:
                            valid = False  # second upstream edge: not a bridge
                            break
                        if stream_id in component.entry_stream_ids:
                            valid = False  # nested relay entry stays upstream
                            break
                        if stream_id in source_ids:
                            if any(
                                id(m) not in down
                                for m in local_consumers(stream)
                            ):
                                # The raw source also feeds up-side m-ops;
                                # its channel can only be homed to one
                                # shard, so cutting here would starve one
                                # side of the feed.
                                valid = False
                                break
                            mixed = True
                            continue
                        valid = False
                        break
                    if not valid:
                        break
                if not valid:
                    continue
                if mixed and not all(self._ts_preserving(m) for m in up_mops):
                    continue
                sides_of: dict[bool, list[StreamDef]] = {False: [], True: []}
                for stream, readers in passthrough_readers:
                    sides = {reader in down for reader in readers}
                    if len(sides) > 1:
                        valid = False  # its channel would be homed twice
                        break
                    sides_of[sides.pop()].append(stream)
                sink_sides = [
                    (out, id(mop) in down)
                    for mop in component.mops
                    for out in mop.output_streams
                ] + [
                    (stream, side)
                    for side, streams in sides_of.items()
                    for stream in streams
                ]
                # A fragment boundary never separates a query's sinks.
                query_side: dict = {}
                if not valid or not all(
                    query_side.setdefault(query_id, side) == side
                    for stream, side in sink_sides
                    for query_id in sinks.get(stream.stream_id, ())
                ):
                    continue
                cost_up = sum(costs[id(m)] for m in up_mops)
                cost_down = sum(costs[id(m)] for m in down_mops)
                rate = rates.get(bridge.stream_id, 1.0)
                relay_cost = RELAY_HOP_COST * rate
                gain = min(cost_up, cost_down) - relay_cost
                if gain <= 0.0:
                    continue
                key = (-gain, bridge.stream_id)
                if best is None or key < best[0]:
                    best = (
                        key,
                        _Cut(
                            stream=bridge,
                            up_mops=up_mops,
                            down_mops=down_mops,
                            up_passthrough=sides_of[False],
                            down_passthrough=sides_of[True],
                            gain=gain,
                            relay_cost=relay_cost,
                            rate=rate,
                        ),
                    )
        return best[1] if best is not None else None

    def _split_components(
        self,
        plan: QueryPlan,
        components: list[ShardComponent],
        cost_target: float,
        costs: dict[int, float],
        rates: dict[int, float],
    ) -> tuple[list[ShardComponent], list[dict]]:
        """Cut oversized components along their best bridges, recursively.

        Returns the fragment list renumbered in topological (relay-producer
        before relay-consumer) order, plus raw edges referencing fragment
        objects: ``{"stream", "channel", "src", "dst", "rate"}``.
        """
        fragments = list(components)
        edges: list[dict] = []
        progressed = True
        while progressed:
            progressed = False
            for position, fragment in enumerate(fragments):
                if not is_oversized(fragment.cost, cost_target):
                    continue
                cut = self.best_cut(plan, fragment, costs, rates)
                if cut is None:
                    continue
                up = self._make_fragment(
                    plan, cut.up_mops, fragment.entry_stream_ids,
                    cut.up_passthrough,
                )
                down = self._make_fragment(
                    plan, cut.down_mops, frozenset({cut.stream.stream_id}),
                    cut.down_passthrough,
                )
                up.cost = (
                    sum(costs[id(m)] for m in cut.up_mops) + cut.relay_cost / 2
                )
                down.cost = (
                    sum(costs[id(m)] for m in cut.down_mops) + cut.relay_cost / 2
                )
                up_ids = {id(m) for m in cut.up_mops}
                for edge in edges:
                    if edge["src"] is fragment:
                        producer = next(
                            m
                            for m in fragment.mops
                            if any(
                                s.stream_id == edge["stream"].stream_id
                                for s in m.output_streams
                            )
                        )
                        edge["src"] = up if id(producer) in up_ids else down
                    if edge["dst"] is fragment:
                        edge["dst"] = up  # relay entries validated upstream
                edges.append(
                    {
                        "stream": cut.stream,
                        "channel": plan.channel_of(cut.stream),
                        "src": up,
                        "dst": down,
                        "rate": cut.rate,
                    }
                )
                fragments[position : position + 1] = [up, down]
                progressed = True
                break
        # Renumber in topological order: every relay's producer fragment gets
        # a smaller index than its consumer, so merge order (and the engines'
        # fragment execution order) is upstream-before-downstream.
        indegree = {id(fragment): 0 for fragment in fragments}
        for edge in edges:
            indegree[id(edge["dst"])] += 1
        ordered: list[ShardComponent] = []
        remaining = list(fragments)
        while remaining:
            for position, fragment in enumerate(remaining):
                if indegree[id(fragment)] == 0:
                    ordered.append(fragment)
                    remaining.pop(position)
                    for edge in edges:
                        if edge["src"] is fragment:
                            indegree[id(edge["dst"])] -= 1
                    break
            else:  # pragma: no cover - cuts cannot create cycles
                raise PlanError("relay edges form a cycle")
        for index, fragment in enumerate(ordered):
            fragment.index = index
        return ordered, edges

    # -- balance ---------------------------------------------------------------------

    def balance(
        self, components: Sequence[ShardComponent], n_shards: int
    ) -> list[int]:
        """LPT greedy: heaviest component first, onto the lightest shard.

        Deterministic: ties broken by component index, so the same plan
        always shards the same way.
        """
        if n_shards < 1:
            raise PlanError(f"n_shards must be at least 1, got {n_shards}")
        loads = [0.0] * n_shards
        assignment = [0] * len(components)
        ordered = sorted(
            components, key=lambda c: (-c.cost, c.index)
        )
        for component in ordered:
            shard = min(range(n_shards), key=lambda s: (loads[s], s))
            assignment[component.index] = shard
            loads[shard] += component.cost
        return assignment

    def component_signature(
        self, plan: QueryPlan, component: ShardComponent
    ) -> tuple:
        """A sharability fingerprint of what the component consumes/computes.

        Two components with equal signatures read sharable-alike entries
        through the same m-op shapes — their downstream results are the ones
        a later re-merge (or a cross-component consumer added by churn)
        would want co-located, so the balancer places them as one unit.
        """
        source_ids = {source.stream_id for source in plan.sources}
        entry_signatures: list[str] = []
        seen: set[int] = set()
        for mop in component.mops:
            for stream in mop.input_streams:
                stream_id = stream.stream_id
                if stream_id in seen:
                    continue
                if stream_id in source_ids or stream_id in component.entry_stream_ids:
                    seen.add(stream_id)
                    entry_signatures.append(
                        repr(sharability_signature(plan, stream))
                    )
        kinds = tuple(sorted({mop.kind for mop in component.mops}))
        return (tuple(sorted(entry_signatures)), kinds)

    def balance_grouped(
        self,
        plan: QueryPlan,
        components: Sequence[ShardComponent],
        n_shards: int,
        cost_target: float,
    ) -> list[int]:
        """LPT over sharability groups: same-signature components co-locate.

        A group whose total cost would itself be oversized falls back to
        individual LPT placement — co-location is a locality preference, not
        worth unbalancing a shard for.
        """
        if n_shards < 1:
            raise PlanError(f"n_shards must be at least 1, got {n_shards}")
        groups: dict[tuple, list[ShardComponent]] = {}
        group_order: list[tuple] = []
        for component in components:
            signature = self.component_signature(plan, component)
            if signature not in groups:
                groups[signature] = []
                group_order.append(signature)
            groups[signature].append(component)
        units: list[tuple[float, int, list[ShardComponent]]] = []
        for signature in group_order:
            members = groups[signature]
            total = sum(member.cost for member in members)
            if len(members) > 1 and not is_oversized(total, cost_target):
                units.append((total, min(m.index for m in members), members))
            else:
                for member in members:
                    units.append((member.cost, member.index, [member]))
        loads = [0.0] * n_shards
        assignment = [0] * len(components)
        for cost, __, members in sorted(units, key=lambda u: (-u[0], u[1])):
            shard = min(range(n_shards), key=lambda s: (loads[s], s))
            for member in members:
                assignment[member.index] = shard
            loads[shard] += cost
        return assignment

    # -- partition -------------------------------------------------------------------

    def partition(
        self, plan: QueryPlan, n_shards: int, split: bool = True
    ) -> ShardPlan:
        """Compute components, cost them, split/balance them, build sub-plans.

        ``split=False`` restores the pre-relay behaviour: components are
        atomic placement units and oversized ones simply run hot (the bench
        uses this to measure the unsplit baseline).
        """
        plan.validate()
        components = self.components(plan)
        costs, rates = self.cost_model.attributed_costs(plan)
        for component in components:
            component.cost = sum(costs[id(mop)] for mop in component.mops)
        total = sum(component.cost for component in components)
        cost_target = total / n_shards if n_shards else 0.0
        raw_edges: list[dict] = []
        if split and n_shards > 1:
            components, raw_edges = self._split_components(
                plan, components, cost_target, costs, rates
            )
        subplans = [
            self._extract_subplan(plan, component) for component in components
        ]
        total = sum(component.cost for component in components)
        cost_target = total / n_shards if n_shards else 0.0
        assignment = self.balance_grouped(
            plan, components, n_shards, cost_target
        )
        shard_plans = [QueryPlan() for __ in range(n_shards)]
        for component, subplan in zip(components, subplans):
            target = shard_plans[assignment[component.index]]
            self._merge_subplan(target, subplan)
        components, assignment, crossing = self._rejoin_colocated(
            plan, components, assignment, raw_edges
        )
        shard_costs = [0.0] * n_shards
        channel_shard: dict[int, int] = {}
        query_shard: dict = {}
        for component in components:
            shard = assignment[component.index]
            shard_costs[shard] += component.cost
            for channel_id in component.entry_channel_ids:
                channel_shard[channel_id] = shard
            for query_id in component.query_ids:
                query_shard[query_id] = shard
        # Derived channels also belong to their component's shard.
        for component in components:
            shard = assignment[component.index]
            for mop in component.mops:
                for stream in mop.output_streams:
                    channel_shard[plan.channel_of(stream).channel_id] = shard
        relays: list[RelayEdge] = []
        crossing.sort(
            key=lambda e: (e["src"].index, e["dst"].index, e["stream"].stream_id)
        )
        for edge_id, edge in enumerate(crossing):
            relays.append(
                RelayEdge(
                    edge_id=edge_id,
                    stream=edge["stream"],
                    channel=edge["channel"],
                    from_component=edge["src"].index,
                    to_component=edge["dst"].index,
                    from_shard=assignment[edge["src"].index],
                    to_shard=assignment[edge["dst"].index],
                    rate=edge["rate"],
                )
            )
        oversized = [
            component.index
            for component in components
            if is_oversized(component.cost, cost_target) and len(components) > 1
        ]
        for shard_plan in shard_plans:
            shard_plan.validate()
        return ShardPlan(
            plan=plan,
            n_shards=n_shards,
            components=components,
            assignment=assignment,
            subplans=shard_plans,
            channel_shard=channel_shard,
            query_shard=query_shard,
            shard_costs=shard_costs,
            cost_target=cost_target,
            oversized=oversized,
            relays=relays,
        )

    # -- internals -------------------------------------------------------------------

    def _extract_subplan(
        self, plan: QueryPlan, component: ShardComponent
    ) -> QueryPlan:
        """A view plan holding one component (shares objects with ``plan``)."""
        subplan = QueryPlan()
        self._adopt_into(subplan, plan, component)
        return subplan

    def _rejoin_colocated(
        self,
        plan: QueryPlan,
        fragments: list[ShardComponent],
        assignment: list[int],
        edges: list[dict],
    ) -> tuple[list[ShardComponent], list[int], list[dict]]:
        """Contract the cut edges whose two fragments landed on one shard.

        Such fragments reconnect through the shard plan's own wiring and
        run on one engine, so they are one component again: the unit the
        runtime merges sources for and schedules.  Cuts only ever split one
        fragment in two, so the fragments form an out-forest and a
        contracted unit's lowest index is its root — ordering units by it
        keeps producers before consumers.  Returns the renumbered units,
        their shard assignment and the edges still crossing shards.
        """
        parent = list(range(len(fragments)))

        def find(i: int) -> int:
            while parent[i] != i:
                i = parent[i]
            return i

        for edge in edges:
            src, dst = find(edge["src"].index), find(edge["dst"].index)
            if assignment[src] == assignment[dst]:
                parent[max(src, dst)] = min(src, dst)
        crossing = [
            edge
            for edge in edges
            if assignment[edge["src"].index] != assignment[edge["dst"].index]
        ]
        if len(crossing) == len(edges):
            return fragments, assignment, edges
        groups: dict[int, list[ShardComponent]] = {}
        for fragment in fragments:
            groups.setdefault(find(fragment.index), []).append(fragment)
        units: list[ShardComponent] = []
        unit_of: dict[int, ShardComponent] = {}
        for root in sorted(groups):
            members = groups[root]
            unit = members[0]
            if len(members) > 1:
                produced = {
                    stream.stream_id
                    for member in members
                    for mop in member.mops
                    for stream in mop.output_streams
                }
                unit = self._make_fragment(
                    plan,
                    [mop for member in members for mop in member.mops],
                    frozenset().union(
                        *(member.entry_stream_ids for member in members)
                    )
                    - produced,
                    [s for member in members for s in member.passthrough],
                )
                unit.cost = sum(member.cost for member in members)
            for member in members:
                unit_of[id(member)] = unit
            units.append(unit)
        unit_assignment = [assignment[root] for root in sorted(groups)]
        for index, unit in enumerate(units):
            unit.index = index
        for edge in crossing:
            edge["src"] = unit_of[id(edge["src"])]
            edge["dst"] = unit_of[id(edge["dst"])]
        return units, unit_assignment, crossing

    def _merge_subplan(self, target: QueryPlan, subplan: QueryPlan) -> None:
        """Merge a single-component view plan into a shard's plan.

        A fragment's relay-entry stream is a *source* of the fragment's view
        plan but may already exist in ``target`` as a derived stream — when
        the producing fragment landed on the same shard and merged first
        (components are merged in topological index order).  In that case
        the entry is skipped and the fragments reconnect through the shard
        plan's own wiring; :meth:`_rejoin_colocated` then makes them one
        component again.
        """
        known = {stream.stream_id for stream in target.streams()}
        for source in subplan.sources:
            if source.stream_id not in known:
                target.adopt_source(source, subplan.channel_of(source))
        derived = [
            stream
            for stream in subplan.streams()
            if subplan.producer_instance_of(stream) is not None
        ]
        target.adopt_component(
            {
                "mops": list(subplan.mops),
                "streams": derived,
                "channels": {
                    stream.stream_id: subplan.channel_of(stream)
                    for stream in derived
                },
                "sinks": subplan.sinks,
            }
        )

    def _adopt_into(
        self, subplan: QueryPlan, plan: QueryPlan, component: ShardComponent
    ) -> None:
        source_ids = {source.stream_id for source in plan.sources}
        entry_ids = source_ids | set(component.entry_stream_ids)
        needed_sources: list = []
        seen: set[int] = set()
        for mop in component.mops:
            for stream in mop.input_streams:
                if stream.stream_id in entry_ids and stream.stream_id not in seen:
                    seen.add(stream.stream_id)
                    needed_sources.append(stream)
        for stream in component.passthrough:
            if stream.stream_id not in seen:
                seen.add(stream.stream_id)
                needed_sources.append(stream)
        for stream in needed_sources:
            subplan.adopt_source(stream, plan.channel_of(stream))
        derived = [
            stream for mop in component.mops for stream in mop.output_streams
        ]
        sinks = plan.sinks
        subplan.adopt_component(
            {
                "mops": list(component.mops),
                "streams": derived,
                "channels": {
                    stream.stream_id: plan.channel_of(stream)
                    for stream in derived
                },
                "sinks": {
                    stream.stream_id: list(sinks[stream.stream_id])
                    for stream in (*derived, *component.passthrough)
                    if stream.stream_id in sinks
                },
            }
        )
