"""Table schemas for the embedded relational engine."""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Sequence

from repro.errors import CatalogError, ConstraintViolationError
from repro.record import FrozenRecord, Record
from repro.storage.types import CANONICAL_TYPES, VALUE_BYTES, DataType, coerce


class Column(FrozenRecord):
    """A named, typed column.

    ``not_null`` is enforced on insert/update; primary-key membership is
    recorded on the schema (``TableSchema.primary_key``) rather than on the
    column so composite keys are first-class, matching the paper's
    ``<protein1, protein2>`` composite key example.
    """

    __slots__ = _fields = ("name", "dtype", "not_null")

    def __init__(self, name: str, dtype: DataType, not_null: bool = False):
        self.name, self.dtype, self.not_null = name, dtype, not_null


class TableSchema(Record):
    """Ordered collection of columns plus an optional composite primary key."""

    _fields = ("columns", "primary_key")
    __slots__ = _fields + ("_index_by_name", "dtypes", "canonical_types", "value_bytes")

    def __init__(self, columns: list[Column], primary_key: Iterable[str] = ()):
        self.columns, self.primary_key = columns, tuple(primary_key)
        self._index_by_name: dict[str, int] = {}
        for position, column in enumerate(self.columns):
            if column.name in self._index_by_name:
                raise CatalogError(f"duplicate column name {column.name!r}")
            self._index_by_name[column.name] = position
        for key_column in self.primary_key:
            if key_column not in self._index_by_name:
                raise CatalogError(
                    f"primary key column {key_column!r} is not in the schema"
                )
        #: Per column: its type, the type :func:`coerce` keeps as is, and its
        #: widths.
        self.dtypes = [c.dtype for c in self.columns]
        self.canonical_types = [CANONICAL_TYPES.get(c.dtype) for c in self.columns]
        self.value_bytes = [VALUE_BYTES[c.dtype] for c in self.columns]

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index_by_name

    def position(self, name: str) -> int:
        """Ordinal position of a column, raising :class:`CatalogError` if absent."""
        try:
            return self._index_by_name[name]
        except KeyError:
            raise CatalogError(f"no column named {name!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.position(name)]

    def coerce_row(self, values: Sequence[Any]) -> tuple[Any, ...]:
        """Validate and coerce a full-width row to canonical Python values."""
        if len(values) != len(self.columns):
            raise ConstraintViolationError(
                f"row has {len(values)} values but the schema has "
                f"{len(self.columns)} columns"
            )
        coerced = []
        for column, canonical, value in zip(self.columns, self.canonical_types, values):
            if value is None and column.not_null:
                raise ConstraintViolationError(
                    f"null value in NOT NULL column {column.name!r}"
                )
            if type(value) is not canonical:
                value = coerce(value, column.dtype)
            coerced.append(value)
        return tuple(coerced)

    def coerce_rows(self, rows: Iterable[Sequence[Any]]) -> list[tuple[Any, ...]]:
        """``[self.coerce_row(row) for row in rows]``, checked a column at a time.

        A column whose values already have the ``CANONICAL_TYPES`` type that
        :func:`coerce` returns as is (INT_ARRAY: lists or tuples of ints, made
        tuples), and ``None`` only where nullable, is kept; else row by row.
        """
        rows = list(rows)
        if not rows or not self.columns or set(map(len, rows)) != {len(self.columns)}:
            return [self.coerce_row(row) for row in rows]
        columns = list(zip(*rows))
        for position, (column, values) in enumerate(zip(self.columns, columns)):
            kinds = set(map(type, values)) - {None if column.not_null else type(None)}
            if column.dtype is DataType.INT_ARRAY:
                elements = chain.from_iterable(filter(None, values))
                if kinds <= {list, tuple} and set(map(type, elements)) <= {int}:
                    columns[position] = [v if v is None else tuple(v) for v in values]
                    continue
            elif kinds <= {CANONICAL_TYPES[column.dtype]}:
                continue
            return [self.coerce_row(row) for row in rows]
        return list(zip(*columns))

    def key_of(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Extract the primary-key tuple from a row (empty tuple if keyless)."""
        return tuple(row[self.position(name)] for name in self.primary_key)

    def project_positions(self, names: Iterable[str]) -> list[int]:
        return [self.position(name) for name in names]

    def to_dict(self) -> dict:
        """JSON-able description of this schema (the persist segment format).

        Types are encoded by their stable :class:`DataType` value string, so
        the on-disk format survives enum reordering.
        """
        return {
            "columns": [
                [c.name, c.dtype.value, c.not_null] for c in self.columns
            ],
            "primary_key": list(self.primary_key),
        }

    @classmethod
    def from_dict(cls, state: dict) -> "TableSchema":
        """Inverse of :meth:`to_dict`."""
        return cls(
            [
                Column(name, DataType(type_name), bool(not_null))
                for name, type_name, not_null in state["columns"]
            ],
            tuple(state.get("primary_key", ())),
        )

    def with_column(self, column: Column) -> "TableSchema":
        """A copy of this schema with one appended column."""
        return TableSchema(self.columns + [column], self.primary_key)
