"""Column data types for the embedded relational engine.

The engine supports the small type lattice OrpheusDB needs from its backend:
integers, decimals (floats), strings, booleans, and integer arrays (the
PostgreSQL ``int[]`` stand-in used by the combined-table and split-by-*
data models).  ``widen`` implements the type-generalization rule the paper
uses for schema evolution (Section 3.3): conflicting attribute types are
promoted to the more general type, e.g. integer -> decimal -> string.
"""

from __future__ import annotations

import base64
import enum
import struct
import sys
from array import array
from itertools import accumulate, chain
from typing import Any, Sequence

from repro.errors import StorageError, TypeMismatchError


class DataType(enum.Enum):
    """Logical column types understood by the engine."""

    INTEGER = "integer"
    DECIMAL = "decimal"
    TEXT = "text"
    BOOLEAN = "boolean"
    INT_ARRAY = "int[]"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_NAME_ALIASES = {
    "int": DataType.INTEGER,
    "integer": DataType.INTEGER,
    "bigint": DataType.INTEGER,
    "smallint": DataType.INTEGER,
    "decimal": DataType.DECIMAL,
    "numeric": DataType.DECIMAL,
    "real": DataType.DECIMAL,
    "float": DataType.DECIMAL,
    "double": DataType.DECIMAL,
    "text": DataType.TEXT,
    "string": DataType.TEXT,
    "varchar": DataType.TEXT,
    "char": DataType.TEXT,
    "boolean": DataType.BOOLEAN,
    "bool": DataType.BOOLEAN,
    "int[]": DataType.INT_ARRAY,
    "integer[]": DataType.INT_ARRAY,
}

#: The type of each scalar type's values, which :func:`coerce` returns as is.
CANONICAL_TYPES = {
    DataType.INTEGER: int,
    DataType.DECIMAL: float,
    DataType.TEXT: str,
    DataType.BOOLEAN: bool,
}
VALUE_BYTES = {  # stored bytes of a non-NULL value: (fixed, per element)
    DataType.INTEGER: (4, 0),
    DataType.DECIMAL: (8, 0),
    DataType.BOOLEAN: (1, 0),
    DataType.TEXT: (4, 1),
    DataType.INT_ARRAY: (24, 4),
}

# Widening lattice used for schema evolution: a pair of distinct types is
# promoted to the most specific common generalization.
_WIDEN_RANK = {
    DataType.BOOLEAN: 0,
    DataType.INTEGER: 1,
    DataType.DECIMAL: 2,
    DataType.TEXT: 3,
}


def parse_type_name(name: str) -> DataType:
    """Resolve a SQL type name (``INT``, ``VARCHAR`` ...) to a :class:`DataType`."""
    key = name.strip().lower()
    if key not in _NAME_ALIASES:
        raise TypeMismatchError(f"unknown type name: {name!r}")
    return _NAME_ALIASES[key]


def widen(a: DataType, b: DataType) -> DataType:
    """Return the more general of two types (paper Section 3.3).

    Arrays do not participate in widening; mixing an array with a scalar type
    is an error because no relational cast exists for it.
    """
    if a == b:
        return a
    if DataType.INT_ARRAY in (a, b):
        raise TypeMismatchError(f"cannot widen {a} with {b}")
    return a if _WIDEN_RANK[a] >= _WIDEN_RANK[b] else b


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce a Python value to the canonical representation of ``dtype``.

    ``None`` passes through every type (SQL NULL).  Raises
    :class:`TypeMismatchError` when the value cannot represent the type.
    """
    if value is None or type(value) is CANONICAL_TYPES.get(dtype):
        return value
    try:
        if dtype is DataType.INTEGER:
            if isinstance(value, int):  # bool, or an int subclass
                return int(value)
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, str):
                return int(value.strip())
        elif dtype is DataType.DECIMAL:
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                return float(value.strip())
        elif dtype is DataType.TEXT:
            if isinstance(value, str):
                return value
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, (int, float)):
                return str(value)
            if isinstance(value, (list, tuple)):
                return "{" + ",".join(str(v) for v in value) + "}"
        elif dtype is DataType.BOOLEAN:
            if isinstance(value, int):
                return bool(value)
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("t", "true", "1", "yes"):
                    return True
                if lowered in ("f", "false", "0", "no"):
                    return False
        elif dtype is DataType.INT_ARRAY:
            from repro.storage.ridset import RidSet

            if isinstance(value, RidSet):
                # Boundary conversion: bitmaps are stored in their
                # canonical ascending int-array wire form.
                return value.to_array()
            if isinstance(value, (list, tuple)):
                return tuple(int(v) for v in value)
            if isinstance(value, str):
                body = value.strip().lstrip("{[").rstrip("}]").strip()
                if not body:
                    return ()
                return tuple(int(part) for part in body.split(","))
    except (ValueError, TypeError) as exc:
        raise TypeMismatchError(f"cannot coerce {value!r} to {dtype}") from exc
    raise TypeMismatchError(f"cannot coerce {value!r} to {dtype}")


def infer_type(value: Any) -> DataType:
    """Infer the narrowest :class:`DataType` for a Python value."""
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.DECIMAL
    if isinstance(value, (list, tuple)):
        return DataType.INT_ARRAY
    if isinstance(value, str):
        return DataType.TEXT
    raise TypeMismatchError(f"cannot infer SQL type of {value!r}")


def value_size_bytes(value: Any, dtype: DataType) -> int:
    """Approximate on-disk size of a value, used by the storage accountant.

    Mirrors typical fixed-width encodings: 4-byte integers (the paper's
    benchmark records are 100 4-byte integer attributes), 8-byte decimals,
    1-byte booleans, length-prefixed text, and 4 bytes per array element
    plus a 24-byte array header (PostgreSQL varlena-like overhead).
    """
    if value is None:
        return 1
    fixed, per_element = VALUE_BYTES[dtype]
    return fixed + per_element * len(value) if per_element else fixed


def column_size_bytes(values: Sequence[Any], dtype: DataType) -> int:
    """``sum(value_size_bytes(v, dtype) for v in values)``, a column at a time."""
    nulls = values.count(None)
    fixed, per_element = VALUE_BYTES[dtype]
    lengths = sum(map(len, filter(None, values))) if per_element else 0
    return nulls + fixed * (len(values) - nulls) + per_element * lengths


# ------------------------------------------------------------ column codec
# A column is a NULL flag byte (1: a mask byte per row follows, 1 = NULL),
# then its values, NULLs filled in, little-endian after a one-byte tag:
#   INTEGER    the narrowest array typecode of b/h/i/q holding min and max;
#              past int64, x: byte sizes (as INTEGER), then two's complement
#   DECIMAL    d: array('d');  BOOLEAN  ?: a byte per value
#   TEXT       s: character lengths (as INTEGER), a u64 byte count and one
#              utf-8/surrogatepass blob, decoded once and sliced
#   INT_ARRAY  a: element counts (as INTEGER), then the flat elements
# A block is rows as columns: a u64 row count and a u32 column count, then
# each column.  A snapshot holds a block per table; a WAL record carries its
# rows as a packed block, the block's base64 text inside the JSON frame.
# The decoder checks each count and length against the bytes left before
# it allocates; malformed bytes raise StorageError.

_BLOCK_HEAD = struct.Struct("<QI")  # rows, columns
_ITEMSIZE = {code: array(code).itemsize for code in "bhiqd"}
_CODES = {DataType.INTEGER: "bhiqx", DataType.DECIMAL: "d"}  # tags of arrays
_TAGS = {DataType.BOOLEAN: b"?", DataType.TEXT: b"s", DataType.INT_ARRAY: b"a"}
_FILL = {  # what a NULL's slot holds
    DataType.INTEGER: 0,
    DataType.DECIMAL: 0.0,
    DataType.BOOLEAN: False,
    DataType.TEXT: "",
    DataType.INT_ARRAY: (),
}


def _array(code: str, values: Sequence[Any]) -> bytes:
    packed = array(code, values)
    if sys.byteorder == "big":
        packed.byteswap()
    return code.encode() + packed.tobytes()


def _encode_ints(values: Sequence[int]) -> bytes:
    low, high = min(values, default=0), max(values, default=0)
    for code in "bhiq":
        limit = 1 << 8 * _ITEMSIZE[code] - 1
        if -limit <= low and high < limit:
            return _array(code, values)
    sizes = [(value.bit_length() + 8) // 8 for value in values]  # with a sign bit
    return b"x" + _encode_ints(sizes) + b"".join(
        value.to_bytes(size, "little", signed=True)
        for value, size in zip(values, sizes)
    )


def encode_column(values: Sequence[Any], dtype: DataType) -> bytes:
    """One column of canonical values (:func:`coerce`) as bytes."""
    head = b"\x00"
    if None in values:
        head = b"\x01" + bytes(value is None for value in values)
        values = [_FILL[dtype] if value is None else value for value in values]
    if dtype is DataType.INTEGER:
        return head + _encode_ints(values)
    if dtype is DataType.DECIMAL:
        return head + _array("d", values)
    if dtype is DataType.BOOLEAN:
        return head + b"?" + bytes(values)
    lengths = _encode_ints(list(map(len, values)))
    if dtype is DataType.TEXT:
        blob = "".join(values).encode("utf-8", "surrogatepass")
        return head + b"s" + lengths + len(blob).to_bytes(8, "little") + blob
    return head + b"a" + lengths + _encode_ints(list(chain.from_iterable(values)))


def _take(data: memoryview, at: int, size: int) -> tuple[memoryview, int]:
    if not 0 <= size <= len(data) - at:
        raise StorageError(f"column wants {size} bytes at {at}, {len(data) - at} left")
    return data[at : at + size], at + size


def _flags(data: memoryview, at: int, count: int) -> tuple[memoryview, int]:
    flags, at = _take(data, at, count)
    if bytes(flags).translate(None, b"\x00\x01"):
        raise StorageError("a flag byte other than 0 or 1")
    return flags, at


def _slices(sizes: list[int], total: int) -> list[tuple[int, int]]:
    """``(start, end)`` per size; the sizes must tile ``range(total)``."""
    if min(sizes, default=0) < 0 or sum(sizes) != total:
        raise StorageError(f"{len(sizes)} lengths do not tile {total} values")
    ends = list(accumulate(sizes))
    return list(zip([0] + ends, ends))


def _decode_array(data: memoryview, at: int, count: int, codes: str) -> tuple:
    (tag,), at = _take(data, at, 1)
    if chr(tag) not in codes:
        raise StorageError(f"bad typecode {chr(tag)!r}")
    if chr(tag) == "x":
        sizes, at = _decode_array(data, at, count, "bhiq")
        raw, at = _take(data, at, sum(sizes))
        edges = _slices(sizes, len(raw))
        return [int.from_bytes(raw[a:b], "little", signed=True) for a, b in edges], at
    raw, at = _take(data, at, count * _ITEMSIZE[chr(tag)])
    values = array(chr(tag))
    values.frombytes(raw)
    if sys.byteorder == "big":
        values.byteswap()
    return values.tolist(), at


def decode_column(
    data: memoryview, at: int, count: int, dtype: DataType
) -> tuple[list, int]:
    """The ``count`` values of the :func:`encode_column` bytes at
    ``data[at]``, and the offset just past them."""
    (flag,), at = _take(data, at, 1)
    if flag > 1:
        raise StorageError(f"bad NULL flag {flag}")
    mask, at = _flags(data, at, count) if flag else (None, at)
    if dtype in _CODES:
        values, at = _decode_array(data, at, count, _CODES[dtype])
    else:
        tag, at = _take(data, at, 1)
        if tag != _TAGS[dtype]:
            raise StorageError(f"bad {dtype} tag {bytes(tag)!r}")
        if dtype is DataType.BOOLEAN:
            values, at = _flags(data, at, count)
            values = list(map(bool, values))
        else:
            lengths, at = _decode_array(data, at, count, "bhiq")
            if dtype is DataType.INT_ARRAY:
                flat, at = _decode_array(data, at, sum(lengths), "bhiqx")
                values = [tuple(flat[a:b]) for a, b in _slices(lengths, len(flat))]
            else:
                size, at = _take(data, at, 8)
                raw, at = _take(data, at, int.from_bytes(size, "little"))
                try:
                    text = str(raw, "utf-8", "surrogatepass")
                except UnicodeDecodeError as exc:
                    raise StorageError(f"TEXT is not UTF-8: {exc}") from None
                values = [text[a:b] for a, b in _slices(lengths, len(text))]
    if mask is not None:
        values = [None if null else value for value, null in zip(values, mask)]
    return values, at


def encode_block(rows: Sequence[Sequence[Any]], dtypes: Sequence[DataType]) -> bytes:
    """Rows of canonical values as one block of ``dtypes`` columns."""
    columns = zip(*rows) if rows else [()] * len(dtypes)
    return _BLOCK_HEAD.pack(len(rows), len(dtypes)) + b"".join(
        map(encode_column, columns, dtypes)
    )


def block_shape(data: memoryview) -> tuple[int, int]:
    """The row and column counts at the head of a block."""
    if len(data) < _BLOCK_HEAD.size:
        raise StorageError(f"block of {len(data)} bytes has no header")
    return _BLOCK_HEAD.unpack_from(data)


def decode_block(data: memoryview, dtypes: Sequence[DataType]) -> list[tuple]:
    """The rows of the :func:`encode_block` bytes ``data``, which must hold
    ``dtypes`` columns and nothing past them."""
    data = memoryview(data)
    rows, width = block_shape(data)
    if width != len(dtypes):
        raise StorageError(f"block holds {width} columns, not {len(dtypes)}")
    if not width and rows:
        # Its columns would bound the count; a block of none holds no rows.
        raise StorageError(f"block of no columns claims {rows} rows")
    columns, at = [], _BLOCK_HEAD.size
    for dtype in dtypes:
        values, at = decode_column(data, at, rows, dtype)
        columns.append(values)
    if at != len(data):
        raise StorageError(f"block has {len(data) - at} bytes past its last column")
    return list(zip(*columns))


def pack_block(rows: Sequence[Sequence[Any]], dtypes: Sequence[DataType]) -> str:
    """:func:`encode_block` as the base64 text a WAL record carries."""
    return base64.b64encode(encode_block(rows, dtypes)).decode("ascii")


def unpack_block(text: str, dtypes: Sequence[DataType]) -> list[tuple]:
    """The rows of :func:`pack_block` text."""
    try:
        data = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise StorageError(f"not a base64 block: {exc}") from None
    return decode_block(data, dtypes)
