"""CSV import/export for stream tuples.

The paper's hybrid experiments replay real performance-counter traces; the
proprietary files were never published, so this repository ships a
simulator (:mod:`repro.workloads.perfmon`) — but the loader here accepts
*actual* traces too: any CSV whose header names the schema attributes plus
a ``ts`` column can be replayed through the engine, making the D1/D2
substitution swappable for real data.

Format: a header row of attribute names with ``ts`` in any position; values
typed by the target schema (``int`` / ``float`` / ``str``).  Example::

    pid,load,ts
    0,17,0
    1,3,0
    0,21,1
"""

from __future__ import annotations

import csv
from typing import Iterable, Iterator, Optional, TextIO

from repro.errors import SchemaError
from repro.streams.schema import Attribute, Schema, TIMESTAMP_ATTRIBUTE
from repro.streams.tuples import StreamTuple

_PARSERS = {"int": int, "float": float, "str": str}


def write_trace(tuples: Iterable[StreamTuple], handle: TextIO) -> int:
    """Write tuples as CSV (header from the first tuple's schema).

    Returns the number of rows written.  All tuples must share one schema.
    """
    writer = csv.writer(handle)
    count = 0
    schema: Optional[Schema] = None
    for tuple_ in tuples:
        if schema is None:
            schema = tuple_.schema
            writer.writerow(list(schema.names) + [TIMESTAMP_ATTRIBUTE])
        elif tuple_.schema != schema:
            raise SchemaError(
                "all tuples in a trace must share one schema; got "
                f"{tuple_.schema!r} after {schema!r}"
            )
        writer.writerow(list(tuple_.values) + [tuple_.ts])
        count += 1
    return count


def write_trace_file(tuples: Iterable[StreamTuple], path: str) -> int:
    with open(path, "w", newline="") as handle:
        return write_trace(tuples, handle)


def read_trace(
    handle: TextIO, schema: Optional[Schema] = None
) -> Iterator[StreamTuple]:
    """Yield tuples from a CSV trace.

    Without an explicit ``schema`` every non-``ts`` column is inferred by
    probing the first data row (int, then float, else str).  With a schema,
    the header must contain every schema attribute (extra columns are
    ignored) plus ``ts``.
    """
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        return
    header = [name.strip() for name in header]
    if TIMESTAMP_ATTRIBUTE not in header:
        raise SchemaError(f"trace header must contain a {TIMESTAMP_ATTRIBUTE!r} column")
    ts_index = header.index(TIMESTAMP_ATTRIBUTE)

    rows = iter(reader)
    first_row: Optional[list[str]] = next(rows, None)

    if schema is None:
        if first_row is None:
            return
        attributes = []
        for position, name in enumerate(header):
            if position == ts_index:
                continue
            attributes.append(Attribute(name, _infer_type(first_row[position])))
        schema = Schema(attributes)

    positions = []
    parsers = []
    for name in schema.names:
        if name not in header:
            raise SchemaError(f"trace is missing column {name!r}")
        positions.append(header.index(name))
        parsers.append(_PARSERS[schema.type_of(name)])

    def build(row: list[str]) -> StreamTuple:
        values = tuple(
            parser(row[position]) for parser, position in zip(parsers, positions)
        )
        return StreamTuple(schema, values, int(row[ts_index]))

    if first_row is not None:
        yield build(first_row)
    for row in rows:
        if row:
            yield build(row)


def read_trace_file(path: str, schema: Optional[Schema] = None) -> list[StreamTuple]:
    with open(path, newline="") as handle:
        return list(read_trace(handle, schema))


def _infer_type(value: str) -> str:
    try:
        int(value)
        return "int"
    except ValueError:
        pass
    try:
        float(value)
        return "float"
    except ValueError:
        return "str"
