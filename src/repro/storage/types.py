"""Column data types for the embedded relational engine.

The engine supports the small type lattice OrpheusDB needs from its backend:
integers, decimals (floats), strings, booleans, and integer arrays (the
PostgreSQL ``int[]`` stand-in used by the combined-table and split-by-*
data models).  ``widen`` implements the type-generalization rule the paper
uses for schema evolution (Section 3.3): conflicting attribute types are
promoted to the more general type, e.g. integer -> decimal -> string.
"""

from __future__ import annotations

import enum
from typing import Any, Sequence

from repro.errors import TypeMismatchError


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
