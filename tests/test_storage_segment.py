"""The typed column codec of snapshot segments against the JSON oracle.

A table's snapshot block (row and column counts, then each column as
:func:`~repro.storage.types.encode_column` lays it out) must decode to
exactly the rows the format-5 JSON segment (``segment_reference.py``)
gave back through :meth:`Table.load_rows`: the same values of the same
types (1, True and 1.0 are equal but not the same value), floats compared
bit for bit so -0.0 and NaN count.  Rows are drawn from anything
:meth:`Table.insert_many` accepts, over all five types, nullable and NOT
NULL, with the edges of each typecode and past int64.
"""

import math
import re
import struct
import tempfile
import zlib
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.persist.snapshot import _decode_block
from repro.storage.schema import Column, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType, decode_column, encode_block, encode_column

from segment_reference import read_segment, write_segment

EDGES = [  # each typecode's bounds, one past them, and past int64
    sign * (2**bits + delta)
    for bits in (7, 15, 31, 63, 64, 100)
    for delta in (-1, 0, 1)
    for sign in (1, -1)
]
INTS = st.integers() | st.sampled_from(EDGES)
# JSON spells every NaN ``NaN``, so only the canonical NaN survives the
# oracle; the codec's own bit-exactness on other NaNs is checked below.
FLOATS = st.floats(allow_nan=False) | st.sampled_from([math.nan, -0.0, math.inf])
SURROGATES = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
PIECES = st.sampled_from(["", "\x00", "é", "日本", "\U0001f600"])
# A high surrogate before a low one is one astral character to JSON: only
# lone surrogates are the same string after the oracle's round trip.
PAIRED = re.compile("[\ud800-\udbff][\udc00-\udfff]")
TEXTS = (
    st.lists(st.text() | PIECES | SURROGATES, max_size=4)
    .map("".join)
    .filter(lambda text: not PAIRED.search(text))
)
VALUES = {  # anything insert_many coerces to the column's type
    DataType.INTEGER: INTS | st.booleans() | st.integers(-99, 99).map(float),
    DataType.DECIMAL: FLOATS | st.integers(-(2**53), 2**53),
    DataType.TEXT: TEXTS,
    DataType.BOOLEAN: st.booleans() | st.sampled_from([0, 1, "t", "false"]),
    DataType.INT_ARRAY: st.lists(INTS | st.booleans(), max_size=4)
    | st.lists(INTS, max_size=4).map(tuple),
}


@st.composite
def tables(draw) -> Table:
    kinds = st.tuples(st.sampled_from(list(DataType)), st.booleans())
    columns = draw(st.lists(kinds, min_size=1, max_size=6))
    schema = TableSchema(
        [Column(f"c{i}", dtype, nn) for i, (dtype, nn) in enumerate(columns)]
    )
    cells = [
        VALUES[dtype] if not_null else st.none() | VALUES[dtype]
        for dtype, not_null in columns
    ]
    table = Table("t", schema)
    table.insert_many(draw(st.lists(st.tuples(*cells), max_size=12)))
    return table


def same(value) -> object:
    """``value`` as a key that tells 1, True and 1.0 apart, and -0.0 and
    NaN by their bits."""
    if isinstance(value, tuple):
        return tuple, tuple(map(same, value))
    if isinstance(value, float):
        return float, struct.pack("<d", value)
    return type(value), value


def rows_key(rows) -> list:
    return [tuple(map(same, row)) for row in rows]


def block_rows(table: Table) -> list:
    """``table``'s rows through its snapshot block and ``load_rows``."""
    rows = list(table.dump_rows())
    block = encode_block(rows, table.schema.dtypes)
    entry = {
        "offset": 0, "bytes": len(block), "crc": zlib.crc32(block), "rows": len(rows)
    }
    restored = Table("t", table.schema)
    restored.load_rows(_decode_block(memoryview(block), entry, table.schema))
    return list(restored.dump_rows())


def reference_rows(table: Table) -> list:
    """``table``'s rows through the JSON segment and ``load_rows``."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "seg-00000.jsonl"
        crc, _count = write_segment(path, table)
        restored = Table("t", table.schema)
        restored.load_rows(read_segment(path, crc))
    return list(restored.dump_rows())


@settings(max_examples=300, deadline=None)
@given(tables())
def test_block_decodes_to_the_json_reference_rows(table):
    decoded = block_rows(table)
    assert rows_key(decoded) == rows_key(reference_rows(table))
    assert rows_key(decoded) == rows_key(table.dump_rows())


def roundtrip(values, dtype):
    data = encode_column(values, dtype)
    decoded, end = decode_column(memoryview(data), 0, len(values), dtype)
    assert end == len(data)
    return decoded


def test_every_nan_keeps_its_bits():
    bits = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001)
    nans = [struct.unpack("<d", struct.pack("<Q", each))[0] for each in bits]
    decoded = roundtrip(nans + [-0.0, None], DataType.DECIMAL)
    assert rows_key([decoded]) == rows_key([nans + [-0.0, None]])


def test_integers_take_the_narrowest_typecode():
    for values, tag in [
        ([0, -128, 127], b"b"),
        ([128], b"h"),
        ([-(2**31)], b"i"),
        ([2**63 - 1, -(2**63)], b"q"),
        ([2**63], b"x"),
        ([], b"b"),
    ]:
        assert encode_column(values, DataType.INTEGER)[1:2] == tag
        assert roundtrip(values, DataType.INTEGER) == values


def test_a_null_mask_only_when_a_null_is_there():
    assert encode_column([1, 2], DataType.INTEGER) == b"\x00b\x01\x02"
    assert encode_column([1, None], DataType.INTEGER) == b"\x01\x00\x01b\x01\x00"
