"""Reference inserts: one row at a time, the oracle for the batch path.

:meth:`repro.storage.table.Table.insert_many` checks a whole batch and
then appends it once.  This is the loop it replaced: coerce one row, probe
every unique index for its key, append it, charge its bytes and index
entries, and only then look at the next row — so a rejected row leaves
the rows before it written.  The property suite
(``test_storage_batch_insert.py``) requires the batch path to end in this
loop's state when the loop succeeds, and to raise this loop's first error,
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
