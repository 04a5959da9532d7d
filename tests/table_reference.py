"""Reference writes: one row at a time, the oracles for the batch paths.

:meth:`repro.storage.table.Table.insert_many` checks a whole batch and
then appends it once; :meth:`~repro.storage.table.Table.update_many` checks
every replacement row and then writes them all.  These are the loops they
replaced.  An insert coerces one row, probes every unique index for its
key, appends it, charges its bytes and index entries, and only then looks
at the next row; an update does the same in place, slot by slot — so a
rejected row leaves the rows before it written.  The property suites
(``test_storage_batch_insert.py``) require each batch path to end in its
loop's state when the loop succeeds, and to raise the loop's first error,
with the table untouched, when it does not.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import ConstraintViolationError
from repro.storage.table import ROW_HEADER_BYTES, Table
from repro.storage.types import value_size_bytes


def insert_rows_one_at_a_time(table: Table, rows: Iterable[Sequence[Any]]) -> int:
    """Insert ``rows`` into ``table`` one by one; returns the count."""
    count = 0
    for values in rows:
        row = table.schema.coerce_row(values)
        for index in table.indexes.values():
            if index.unique and index.lookup_key(index.key_of(row)):
                raise ConstraintViolationError(
                    f"duplicate key {index.key_of(row)!r} violates unique "
                    f"index {index.name!r} on table {table.name!r}"
                )
        slot = len(table._rows)
        table._rows.append(row)
        table._live_count += 1
        table._data_bytes += ROW_HEADER_BYTES + sum(
            value_size_bytes(value, column.dtype)
            for column, value in zip(table.schema.columns, row)
        )
        for index in table.indexes.values():
            index.insert(row, slot)
        table.stats.rows_written += 1
        if table.changes is not None and row[0] is not None:
            table.changes = None  # a row claiming a rid: not a plain insert
        count += 1
    return count


def update_rows_one_at_a_time(
    table: Table, pairs: Iterable[tuple[int, Sequence[Any]]]
) -> int:
    """Replace the row at each ``(slot, values)`` in turn; returns the count."""
    count = 0
    for slot, new_values in pairs:
        old_row = table._rows[slot]
        if old_row is None:
            raise ConstraintViolationError(f"slot {slot} is empty")
        new_row = table.schema.coerce_row(new_values)
        for index in table.indexes.values():
            if (
                index.unique
                and index.key_of(new_row) != index.key_of(old_row)
                and index.lookup_key(index.key_of(new_row))
            ):
                raise ConstraintViolationError(
                    f"duplicate key violates unique index {index.name!r}"
                )
        for index in table.indexes.values():
            index.delete(old_row, slot)
        table._rows[slot] = new_row
        changes = table.changes
        if changes is not None:
            if new_row[0] != old_row[0]:
                table.changes = None
            elif slot < changes.base_slots:
                changes.originals.setdefault(slot, old_row)
        table._data_bytes += table._row_bytes(new_row) - table._row_bytes(old_row)
        for index in table.indexes.values():
            index.insert(new_row, slot)
        table.stats.rows_written += 1
        for old_value, new_value in zip(old_row, new_row):
            if isinstance(new_value, tuple) and new_value != old_value:
                table.stats.array_cells_written += len(new_value)
        count += 1
    return count
