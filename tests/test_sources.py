"""Unit tests for stream sources and the timestamp merge."""

import pytest

from repro.errors import ChannelError
from repro.streams.channel import Channel
from repro.streams.schema import Schema
from repro.streams.sources import StreamSource, group_sources, merge_sources
from repro.streams.stream import StreamDef
from repro.streams.tuples import StreamTuple


@pytest.fixture
def schema():
    return Schema.of_ints("a")


def tuples_at(schema, timestamps):
    return [StreamTuple(schema, (ts,), ts) for ts in timestamps]


class TestStreamSource:
    def test_defaults_to_full_mask(self, schema):
        streams = [StreamDef(f"S{i}", schema) for i in range(2)]
        channel = Channel(streams)
        source = StreamSource(channel, tuples_at(schema, [0]))
        __, channel_tuple = next(iter(source))
        assert channel_tuple.membership == channel.full_mask

    def test_member_subset(self, schema):
        streams = [StreamDef(f"S{i}", schema) for i in range(2)]
        channel = Channel(streams)
        source = StreamSource(channel, tuples_at(schema, [0]), member_streams=[streams[1]])
        __, channel_tuple = next(iter(source))
        assert channel_tuple.membership == 0b10

    def test_foreign_member_rejected(self, schema):
        channel = Channel.singleton(StreamDef("S", schema))
        foreign = StreamDef("X", schema)
        with pytest.raises(ChannelError):
            StreamSource(channel, [], member_streams=[foreign])


class TestMerge:
    def test_global_timestamp_order(self, schema):
        channel_a = Channel.singleton(StreamDef("A", schema))
        channel_b = Channel.singleton(StreamDef("B", schema))
        merged = merge_sources(
            [
                StreamSource(channel_a, tuples_at(schema, [0, 2, 4])),
                StreamSource(channel_b, tuples_at(schema, [1, 3, 5])),
            ]
        )
        assert [ct.ts for __, ct in merged] == [0, 1, 2, 3, 4, 5]

    def test_tie_break_stable_on_source_order(self, schema):
        channel_a = Channel.singleton(StreamDef("A", schema))
        channel_b = Channel.singleton(StreamDef("B", schema))
        merged = list(
            merge_sources(
                [
                    StreamSource(channel_a, tuples_at(schema, [1])),
                    StreamSource(channel_b, tuples_at(schema, [1])),
                ]
            )
        )
        assert merged[0][0] is channel_a
        assert merged[1][0] is channel_b

    def test_empty_sources(self, schema):
        channel = Channel.singleton(StreamDef("A", schema))
        assert list(merge_sources([StreamSource(channel, [])])) == []

    def test_single_source_passthrough(self, schema):
        channel = Channel.singleton(StreamDef("A", schema))
        merged = merge_sources([StreamSource(channel, tuples_at(schema, [3, 7]))])
        assert [ct.ts for __, ct in merged] == [3, 7]


class TestGroupSources:
    def _sources(self, schema, count):
        return [
            StreamSource(
                Channel.singleton(StreamDef(f"S{i}", schema)), tuples_at(schema, [i])
            )
            for i in range(count)
        ]

    def test_groups_by_component_in_first_source_order(self, schema):
        a, b, c, d = sources = self._sources(schema, 4)
        ids = [source.channel.channel_id for source in sources]
        component_of = {ids[0]: "x", ids[1]: "y", ids[2]: "x", ids[3]: "y"}
        assert group_sources([b, a, c, d], component_of) == [[b, d], [a, c]]

    def test_unknown_channels_are_their_own_groups(self, schema):
        a, b, c = self._sources(schema, 3)
        component_of = {a.channel.channel_id: 0}
        assert group_sources([b, a, c], component_of) == [[b], [a], [c]]

    def test_source_spanning_components_forces_one_group(self, schema):
        a, b, c = self._sources(schema, 3)

        class Replay:
            channel = a.channel

            def channels(self):
                return [a.channel, b.channel]

        replay = Replay()
        separate = {s.channel.channel_id: i for i, s in enumerate((a, b, c))}
        assert group_sources([c, replay], separate) == [[c, replay]]
        joined = {**separate, b.channel.channel_id: 0}
        assert group_sources([c, replay], joined) == [[c], [replay]]

    def test_channelless_source_is_named(self, schema):
        class Orphan:
            def channels(self):
                return (None,)

            def __repr__(self):
                return "<orphan source>"

        with pytest.raises(ChannelError, match="<orphan source>"):
            group_sources([Orphan()], {})
