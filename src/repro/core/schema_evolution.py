"""Schema evolution via the attribute catalog (paper Section 3.3, Figure 5).

The single-pool method: each distinct (name, type) attribute ever seen gets
one entry in a DB-resident attribute table; versions reference attribute ids
in their metadata.  When a commit changes the schema:

* a **new attribute** gets a fresh entry and an ``ALTER TABLE ADD COLUMN``
  on the CVD's data storage (existing records read back NULL);
* a **type change** is widened (integer -> decimal -> text) and recorded as
  a fresh attribute entry, with values rewritten in the widened type;
* an **attribute deletion** touches only metadata — the physical column
  stays, so older versions keep their values.
"""

from __future__ import annotations

from repro.errors import SchemaEvolutionError
from repro.record import FrozenRecord, Record
from repro.storage.engine import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType, coerce, widen


class AttributeEntry(FrozenRecord):
    __slots__ = _fields = ("attr_id", "name", "dtype")

    def __init__(self, attr_id: int, name: str, dtype: DataType):
        self.attr_id, self.name, self.dtype = attr_id, name, dtype


class SchemaChangePlan(Record):
    """What a staged schema requires: computed by :meth:`AttributeCatalog.reconcile`.

    ``new_attributes`` are the catalog entries the plan's ids name but the
    catalog does not hold yet; :meth:`AttributeCatalog.apply` stores them.
    """

    __slots__ = _fields = (
        "staged_schema",
        "new_schema",
        "attribute_ids",
        "added_columns",
        "widened_columns",
        "removed_columns",
        "new_attributes",
    )

    def __init__(
        self,
        staged_schema: TableSchema,
        new_schema: TableSchema,
        attribute_ids: tuple[int, ...],
        added_columns: list[Column],
        widened_columns: list[tuple[str, DataType]],
        removed_columns: list[str],
        new_attributes: list[AttributeEntry],
    ):
        self.staged_schema, self.new_schema = staged_schema, new_schema
        self.attribute_ids, self.added_columns = attribute_ids, added_columns
        self.widened_columns, self.removed_columns = widened_columns, removed_columns
        self.new_attributes = new_attributes

    @property
    def is_noop(self) -> bool:
        return not (self.added_columns or self.widened_columns or self.removed_columns)

    def evolve_row(self, row) -> tuple:
        """A stored record as it reads back once the plan is applied: widened
        values rewritten in the wider type, added columns NULL."""
        values = list(row) + [None] * len(self.added_columns)
        for name, dtype in self.widened_columns:
            position = self.new_schema.position(name)
            values[position] = coerce(values[position], dtype)
        return tuple(values)


class AttributeCatalog:
    """The per-CVD attribute table (Figure 5b/c)."""

    def __init__(self, db: Database, cvd_name: str):
        self.db = db
        self.cvd_name = cvd_name
        self._entries: list[AttributeEntry] = []

    @property
    def table_name(self) -> str:
        return f"{self.cvd_name}__attributes"

    def create_storage(self) -> None:
        self.db.create_table(
            self.table_name,
            TableSchema(
                [
                    Column("attr_id", DataType.INTEGER),
                    Column("attr_name", DataType.TEXT),
                    Column("data_type", DataType.TEXT),
                ],
                ("attr_id",),
            ),
        )

    def drop_storage(self) -> None:
        self.db.drop_table(self.table_name, if_exists=True)

    def entries(self) -> list[AttributeEntry]:
        return list(self._entries)

    def entry(self, attr_id: int) -> AttributeEntry:
        for candidate in self._entries:
            if candidate.attr_id == attr_id:
                return candidate
        raise SchemaEvolutionError(f"no attribute with id {attr_id}")

    def _find(self, name: str, dtype: DataType, pending=()) -> AttributeEntry | None:
        for candidate in [*self._entries, *pending]:
            if candidate.name == name and candidate.dtype == dtype:
                return candidate
        return None

    def _add_entry(self, name: str, dtype: DataType) -> AttributeEntry:
        entry = AttributeEntry(len(self._entries) + 1, name, dtype)
        self.apply_entries([entry])
        return entry

    def apply_entries(self, entries: list[AttributeEntry]) -> None:
        """Store catalog entries numbered by :meth:`reconcile`."""
        for entry in entries:
            self._entries.append(entry)
            self.db.execute(
                f"INSERT INTO {self.table_name} VALUES (%s, %s, %s)",
                (entry.attr_id, entry.name, str(entry.dtype)),
            )

    def register_schema(self, schema: TableSchema) -> tuple[int, ...]:
        """Intern every column of a schema; returns the attribute-id tuple."""
        ids = []
        for column in schema.columns:
            entry = self._find(column.name, column.dtype) or self._add_entry(
                column.name, column.dtype
            )
            ids.append(entry.attr_id)
        return tuple(ids)

    def reconcile(self, current: TableSchema, staged: TableSchema) -> SchemaChangePlan:
        """Plan the single-pool evolution from ``current`` to ``staged``;
        the catalog is left as it is.

        The resulting schema keeps every current column (deletions are
        metadata-only), widens conflicting types, and appends genuinely new
        columns in staged order.  ``attribute_ids`` describes the *staged*
        version's attributes, which is what its metadata row records.
        """
        added: list[Column] = []
        widened: list[tuple[str, DataType]] = []
        staged_ids: list[int] = []
        new_entries: list[AttributeEntry] = []
        merged_columns = list(current.columns)
        position_of = {c.name: i for i, c in enumerate(merged_columns)}
        for column in staged.columns:
            if column.name in position_of:
                existing = merged_columns[position_of[column.name]]
                if existing.dtype != column.dtype:
                    wide = widen(existing.dtype, column.dtype)
                    if wide != existing.dtype:
                        widened.append((column.name, wide))
                        merged_columns[position_of[column.name]] = Column(
                            column.name, wide, existing.not_null
                        )
                    final_dtype = wide
                else:
                    final_dtype = existing.dtype
            else:
                added.append(column)
                merged_columns.append(column)
                position_of[column.name] = len(merged_columns) - 1
                final_dtype = column.dtype
            entry = self._find(column.name, final_dtype, new_entries)
            if entry is None:
                attr_id = len(self._entries) + len(new_entries) + 1
                entry = AttributeEntry(attr_id, column.name, final_dtype)
                new_entries.append(entry)
            staged_ids.append(entry.attr_id)
        removed = [
            column.name
            for column in current.columns
            if column.name not in {c.name for c in staged.columns}
        ]
        primary_key = tuple(
            name
            for name in current.primary_key
            if name in {c.name for c in merged_columns}
        )
        return SchemaChangePlan(
            staged_schema=staged,
            new_schema=TableSchema(merged_columns, primary_key),
            attribute_ids=tuple(staged_ids),
            added_columns=added,
            widened_columns=widened,
            removed_columns=removed,
            new_attributes=new_entries,
        )
