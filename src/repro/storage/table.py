"""Heap tables for the embedded relational engine.

A :class:`Table` is a tombstoned list of row tuples plus any number of
secondary indexes.  Every row read or written is charged to the database's
shared :class:`~repro.storage.iostats.IOStats`, which is how benchmarks
observe "records touched" — the quantity the paper's checkout cost model is
built on (Appendix D.1).  A table has one scan feed,
:meth:`Table.scan_batches`: the SELECT pipeline's Scan operator, the
planner's materialization and DML all read it.

``clustered_on`` records which column the heap is physically ordered by.
The engine keeps the heap sorted on bulk loads when a clustering column is
declared; the Fig. 19 reproduction exercises both rid-clustered and
primary-key-clustered layouts exactly like the paper's appendix.

A staged checkout table also carries a :class:`ChangeSet`: the DML
writing it records which of its checked-out rows it replaced or deleted,
so commit reads only the rows that changed (paper Section 2.3).
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import (
    CatalogError,
    ConstraintViolationError,
    DuplicateObjectError,
    ReproError,
)
from repro.record import Record
from repro.storage.index import HashIndex, Index, OrderedIndex
from repro.storage.iostats import StatsRegistry
from repro.storage.ridset import RidSet
from repro.storage.schema import TableSchema
from repro.storage.types import column_size_bytes

Row = tuple[Any, ...]

ROW_HEADER_BYTES = 24  # charged per stored row on top of its values


class ChangeSet(Record):
    """What DML did to a staged checkout since :meth:`Table.track_changes`.

    The table holds ``(rid, *data)`` rows.  Slots below ``base_slots`` hold
    the checked-out rows, whose rids form ``base_rids``; slots past it are
    inserts.  ``originals`` keeps a base slot's row as it was before its
    first UPDATE, ``deleted`` the rids of deleted base slots.  Any write the set cannot attribute — a new or
    changed ``rid``, a schema change, TRUNCATE, CLUSTER — drops the table's
    change set, and commit falls back to comparing every row.
    """

    __slots__ = _fields = ("base_slots", "base_rids", "originals", "deleted")

    def __init__(
        self, base_slots: int, base_rids: RidSet, originals=None, deleted=None
    ):
        self.base_slots, self.base_rids = base_slots, base_rids
        self.originals: dict[int, Row] = {} if originals is None else originals
        self.deleted: list[int] = [] if deleted is None else deleted


class Table:
    """A named heap of rows with optional primary-key enforcement."""

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        registry: StatsRegistry | None = None,
        clustered_on: str | None = None,
        enforce_primary_key: bool = True,
    ):
        self.name = name
        self.schema = schema
        self._registry = registry or StatsRegistry()
        self.clustered_on = clustered_on
        self.enforce_primary_key = enforce_primary_key
        self._rows: list[Row | None] = []
        self._live_count = 0
        self._data_bytes = 0  # incremental Σ _row_bytes over live rows
        self.indexes: dict[str, Index] = {}
        #: Set by :meth:`track_changes`; None when the change set is unknown.
        self.changes: ChangeSet | None = None
        if schema.primary_key and enforce_primary_key:
            self.create_index(f"{name}_pkey", list(schema.primary_key), unique=True)

    # ------------------------------------------------------------------ stats

    @property
    def stats(self):
        return self._registry.stats

    @property
    def row_count(self) -> int:
        return self._live_count

    def _row_bytes(self, row: Row) -> int:
        """Tuple header plus each value's :func:`value_size_bytes`."""
        return ROW_HEADER_BYTES + sum(
            1 if value is None else fixed + per * len(value) if per else fixed
            for (fixed, per), value in zip(self.schema.value_bytes, row)
        )

    def storage_bytes(self, include_indexes: bool = True) -> int:
        """Approximate on-disk footprint, including index entries if asked.

        Index entries are charged 16 bytes each (key pointer + heap pointer),
        in line with the paper counting index size in total storage.  Byte
        accounting is maintained incrementally on every write, so this is
        O(#indexes) instead of a full O(rows × cols) rescan per call —
        status/bench paths poll it freely.  The schema-rewriting DDL paths
        (ALTER) recompute from scratch; :meth:`storage_bytes_recomputed`
        is the always-rescan reference the tests compare against.
        """
        total = self._data_bytes
        if include_indexes:
            for index in self.indexes.values():
                total += 16 * index.entry_count()
        return total

    def storage_bytes_recomputed(self, include_indexes: bool = True) -> int:
        """Full rescan: what ALTER recomputes from, and the reference for the
        assertion ``storage_bytes() == storage_bytes_recomputed()`` the
        table tests make after every mutation kind.
        """
        total = sum(
            self._row_bytes(row) for row in self._rows if row is not None
        )
        if include_indexes:
            for index in self.indexes.values():
                total += 16 * index.entry_count()
        return total

    # ---------------------------------------------------------------- indexes

    def create_index(
        self,
        index_name: str,
        columns: Sequence[str],
        unique: bool = False,
        ordered: bool = False,
    ) -> Index:
        if index_name in self.indexes:
            raise DuplicateObjectError(f"index {index_name!r} already exists")
        positions = self.schema.project_positions(columns)
        index_cls = OrderedIndex if ordered else HashIndex
        index = index_cls(index_name, tuple(columns), tuple(positions), unique)
        for slot, row in enumerate(self._rows):
            if row is not None:
                index.insert(row, slot)
        self.indexes[index_name] = index
        return index

    def drop_index(self, index_name: str) -> None:
        try:
            del self.indexes[index_name]
        except KeyError:
            raise CatalogError(f"no index named {index_name!r}") from None

    def index_on(self, columns: Sequence[str]) -> Index | None:
        """The first index whose key is exactly ``columns`` (order-sensitive)."""
        wanted = tuple(columns)
        for index in self.indexes.values():
            if index.columns == wanted:
                return index
        return None

    # ----------------------------------------------------------------- writes

    def insert(self, values: Sequence[Any]) -> int:
        """Insert one row, returning its heap slot."""
        self.insert_many([values])
        return len(self._rows) - 1

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Insert rows as one statement, all or none; returns the count.

        Every row is checked (:meth:`TableSchema.coerce_rows`, then each
        unique index against the table and the earlier rows) before any is
        written; a rejected batch raises the first error a row-at-a-time
        insert would meet, and leaves the table as it was.
        """
        coerced = self._checked(list(rows), self._check_unique)
        self._append(coerced)
        self.stats.rows_written += len(coerced)
        if self.changes is not None and any(row[0] is not None for row in coerced):
            self.changes = None  # a row claiming a rid: not a plain insert
        return len(coerced)

    def _checked(
        self, rows: list[Sequence[Any]], check_keys: Callable[[list[Row]], None]
    ) -> list[Row]:
        """``rows`` coerced, after ``check_keys`` passed on them; else the
        first error writing them one at a time would meet."""
        try:
            coerced = self.schema.coerce_rows(rows)
        except ReproError:
            # One at a time, a duplicate key before the bad row comes first.
            valid = []
            for row in rows:
                try:
                    valid.append(self.schema.coerce_row(row))
                except ReproError:
                    break
            check_keys(valid)
            raise
        check_keys(coerced)
        return coerced

    def _check_unique(self, rows: list[Row]) -> None:
        """Raise the duplicate-key error of the first row whose key is taken."""
        taken = []  # per unique index: (first row number, index order, name, key)
        for order, index in enumerate(self.indexes.values()):
            if not index.unique:
                continue
            keys = zip(*[map(itemgetter(p), rows) for p in index.positions])
            seen = set()
            for at, key in enumerate(keys):
                if key in seen or index.lookup_key(key):
                    taken.append((at, order, index.name, key))
                    break
                seen.add(key)
        if taken:
            _at, _order, name, key = min(taken)
            raise ConstraintViolationError(
                f"duplicate key {key!r} violates unique "
                f"index {name!r} on table {self.name!r}"
            )

    def _append(self, rows: list[Row]) -> None:
        """Write checked rows at the end of the heap, bytes and index entries."""
        start = len(self._rows)
        self._rows.extend(rows)
        self._live_count += len(rows)
        self._data_bytes += ROW_HEADER_BYTES * len(rows) + sum(
            column_size_bytes(values, column.dtype)
            for column, values in zip(self.schema.columns, zip(*rows))
        )
        for index in self.indexes.values():
            index.insert_many(rows, range(start, len(self._rows)))

    def load_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append already-consistent rows in bulk (the snapshot-restore path).

        Keeps :meth:`insert_many`'s width, NOT NULL and type errors; skips
        uniqueness probes and I/O-stat charging, so restore never pollutes
        benchmark counters.
        """
        rows = self.schema.coerce_rows(rows)
        self._append(rows)
        return len(rows)

    def dump_rows(self) -> Iterator[Row]:
        """Live rows in slot order without charging I/O stats.

        The snapshot-writer counterpart of :meth:`load_rows`: checkpoints
        must not inflate the ``records_scanned`` counters the benchmarks
        are built on.
        """
        for row in self._rows:
            if row is not None:
                yield row

    def index_specs(self) -> list[dict]:
        """JSON-able definitions of every index, for stable serialization."""
        from repro.storage.index import OrderedIndex

        return [
            {
                "name": index.name,
                "columns": list(index.columns),
                "unique": index.unique,
                "ordered": isinstance(index, OrderedIndex),
            }
            for index in self.indexes.values()
        ]

    def delete_slots(self, slots: Iterable[int]) -> int:
        """Tombstone the given heap slots; returns the number deleted."""
        deleted = 0
        for slot in slots:
            row = self._rows[slot]
            if row is None:
                continue
            for index in self.indexes.values():
                index.delete(row, slot)
            self._rows[slot] = None
            self._live_count -= 1
            self._data_bytes -= self._row_bytes(row)
            deleted += 1
            changes = self.changes
            if changes is not None and slot < changes.base_slots:
                changes.originals.pop(slot, None)
                changes.deleted.append(row[0])
        self.stats.rows_deleted += deleted
        return deleted

    def update_many(self, pairs: Iterable[tuple[int, Sequence[Any]]]) -> int:
        """Replace the rows at distinct live slots as one statement, all or
        none; returns the count.

        Every new row is coerced and every changed unique key checked before
        any row is written.  The check replays ``pairs`` in order, so a
        rejected batch raises the first error replacing one slot at a time
        would meet, and leaves the table as it was.  A changed ``rid`` drops
        the change set; otherwise it keeps each base slot's row from before
        its first update.
        """
        pairs = list(pairs)
        slots = [slot for slot, _values in pairs]
        new_rows = self._checked(
            [values for _slot, values in pairs],
            lambda rows: self._check_rekeyed(slots, rows),
        )
        rows = self._rows
        old_rows = [rows[slot] for slot in slots]
        indexes = self.indexes.values()
        for slot, old_row, new_row in zip(slots, old_rows, new_rows):
            for index in indexes:
                index.delete(old_row, slot)
            rows[slot] = new_row
            for index in indexes:
                index.insert(new_row, slot)
        self._data_bytes += sum(map(self._row_bytes, new_rows))
        self._data_bytes -= sum(map(self._row_bytes, old_rows))
        changes = self.changes
        if changes is not None:
            if any(new[0] != old[0] for old, new in zip(old_rows, new_rows)):
                self.changes = None
            else:
                for slot, old_row in zip(slots, old_rows):
                    if slot < changes.base_slots:
                        changes.originals.setdefault(slot, old_row)
        stats = self.stats
        stats.rows_written += len(new_rows)
        # Track rewritten array cells: the dominant cost of combined-table
        # and split-by-vlist commits (Figure 3b).
        for old_row, new_row in zip(old_rows, new_rows):
            for old_value, new_value in zip(old_row, new_row):
                if isinstance(new_value, tuple) and new_value != old_value:
                    stats.array_cells_written += len(new_value)
        return len(new_rows)

    def _check_rekeyed(self, slots: list[int], new_rows: list[Row]) -> None:
        """Raise the duplicate-key error of the first of ``new_rows`` whose
        changed key is taken once the rows before it have replaced theirs."""
        unique = [index for index in self.indexes.values() if index.unique]
        gained = [defaultdict(int) for _ in unique]  # per index: key -> entries
        for slot, new_row in zip(slots, new_rows):
            old_row = self._rows[slot]
            for index, moved in zip(unique, gained):
                old_key, new_key = index.key_of(old_row), index.key_of(new_row)
                if new_key == old_key:
                    continue
                if len(index.lookup_key(new_key)) + moved[new_key] > 0:
                    raise ConstraintViolationError(
                        f"duplicate key violates unique index {index.name!r}"
                    )
                moved[old_key] -= 1
                moved[new_key] += 1

    def track_changes(self, base_rids: RidSet) -> None:
        """Start a :class:`ChangeSet` against the current rows, a freshly
        materialized checkout whose ``rid`` values are ``base_rids``."""
        if self.schema.position("rid") != 0:
            raise CatalogError(f"table {self.name!r} does not lead with a rid column")
        self.changes = ChangeSet(len(self._rows), base_rids)

    def changed_rows(self) -> tuple[list[tuple[Row, Row]], list[Row]]:
        """The live rows the change set names, in slot order.

        ``(original, current)`` for each updated base row, then each
        inserted row; charges one record per row returned.
        """
        changes = self.changes
        rows = self._rows
        updated = [
            (changes.originals[slot], rows[slot]) for slot in sorted(changes.originals)
        ]
        inserted = [row for row in rows[changes.base_slots :] if row is not None]
        self.stats.records_scanned += len(updated) + len(inserted)
        return updated, inserted

    def truncate(self) -> None:
        self.changes = None
        self._rows.clear()
        self._live_count = 0
        self._data_bytes = 0
        for index in self.indexes.values():
            index.clear()

    # ------------------------------------------------------------------ reads

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Full scan yielding (slot, row); charges one record per live row."""
        stats = self.stats
        for slot, row in enumerate(self._rows):
            if row is not None:
                stats.records_scanned += 1
                yield slot, row

    def scan_batches(
        self, size: int = 1024, with_slots: bool = False
    ) -> Iterator[list]:
        """Full scan yielding blocks of live rows: the one scan feed of the
        SELECT pipeline's Scan operator, the planner's materialization and
        DML.

        Each yielded block is a plain list of rows (or ``(slot, row)`` pairs
        with ``with_slots``) built by one tight local-variable loop, and
        charges its whole record count and one ``batches_scanned`` to the
        stats in a single operation — per-row logical I/O totals are
        identical to :meth:`scan`, minus the per-row attribute traffic.
        Consumers that stop early (LIMIT pushdown) simply never pay for the
        blocks they do not read.
        """
        rows = self._rows
        stats = self.stats
        for start in range(0, len(rows), size):
            chunk = rows[start : start + size]
            if with_slots:
                batch = [
                    (start + offset, row)
                    for offset, row in enumerate(chunk)
                    if row is not None
                ]
            else:
                batch = [row for row in chunk if row is not None]
            if batch:
                stats.records_scanned += len(batch)
                stats.batches_scanned += 1
                yield batch

    def rows(self) -> Iterator[Row]:
        """Full scan yielding rows only."""
        for _slot, row in self.scan():
            yield row

    def get_slot(self, slot: int) -> Row | None:
        row = self._rows[slot]
        if row is not None:
            self.stats.records_scanned += 1
        return row

    def fetch_slots(self, slots: Iterable[int]) -> list[Row]:
        """Batched :meth:`get_slot`: live rows of the given heap slots.

        One local-variable loop instead of per-call attribute lookups —
        the slot-fetch half of bitmap-driven checkout/diff, where the rid
        set algebra has already decided exactly which rows to read.
        Charges one record per live row, like any other read path.
        """
        rows = self._rows
        out = []
        for slot in slots:
            row = rows[slot]
            if row is not None:
                out.append(row)
        self.stats.records_scanned += len(out)
        return out

    def probe(self, index: Index, key: tuple) -> list[Row]:
        """Index lookup; charges one probe plus one record per match."""
        self.stats.index_probes += 1
        slots = index.lookup_key(key)
        out = []
        for slot in slots:
            row = self._rows[slot]
            if row is not None:
                self.stats.records_scanned += 1
                out.append(row)
        return out

    def probe_many(self, index: Index, keys: Iterable[tuple]) -> list[Row]:
        """Batched :meth:`probe` over many keys, in key-iteration order.

        Charges one probe per key and one record per live match, identical
        to a loop of single probes but without the per-call overhead.
        """
        probes, slots = index.lookup_many(keys)
        self.stats.index_probes += probes
        return self.fetch_slots(slots)

    # --------------------------------------------------------------- physical

    def recluster(self, column: str | None = None) -> None:
        """Physically sort the heap (compacting tombstones).

        With ``column`` (or the table's declared ``clustered_on``) the heap is
        re-ordered by that column, mirroring ``CLUSTER`` in PostgreSQL; this
        is what the Fig. 19 benchmark uses to flip between rid-clustered and
        PK-clustered layouts.
        """
        key_column = column or self.clustered_on
        self.changes = None  # slots move
        live = [row for row in self._rows if row is not None]
        if key_column is not None:
            position = self.schema.position(key_column)
            live.sort(key=lambda row: (row[position] is None, row[position]))
            self.clustered_on = key_column
        self._rows = list(live)
        self._live_count = len(live)
        for index in self.indexes.values():
            index.clear()
            for slot, row in enumerate(self._rows):
                index.insert(row, slot)

    def alter_column_type(self, name: str, dtype) -> None:
        """Widen a column's type in place, rewriting stored values.

        Used by the single-pool schema-evolution path (Section 3.3): e.g.
        integer -> decimal promotes every stored value.
        """
        from repro.storage.schema import Column
        from repro.storage.types import coerce

        self.changes = None
        position = self.schema.position(name)
        old = self.schema.columns[position]
        columns = list(self.schema.columns)
        columns[position] = Column(name, dtype, old.not_null)
        from repro.storage.schema import TableSchema

        self.schema = TableSchema(columns, self.schema.primary_key)
        for slot, row in enumerate(self._rows):
            if row is None:
                continue
            values = list(row)
            values[position] = coerce(values[position], dtype)
            self._rows[slot] = tuple(values)
        self._data_bytes = self.storage_bytes_recomputed(False)  # values changed
        self.stats.rows_written += self._live_count
        for index in self.indexes.values():
            index.clear()
            for slot, row in enumerate(self._rows):
                if row is not None:
                    index.insert(row, slot)

    def alter_add_column(self, column, default: Any = None) -> None:
        """``ALTER TABLE ADD COLUMN`` with a default backfill (Section 3.3)."""
        self.changes = None
        self.schema = self.schema.with_column(column)
        for slot, row in enumerate(self._rows):
            if row is not None:
                self._rows[slot] = row + (default,)
        self._data_bytes = self.storage_bytes_recomputed(False)  # widths changed
        self.stats.rows_written += self._live_count
        for index in self.indexes.values():
            index.clear()
            for slot, row in enumerate(self._rows):
                if row is not None:
                    index.insert(row, slot)
