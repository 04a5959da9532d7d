"""Unit tests for TableSchema, Table, and indexes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    CatalogError,
    ConstraintViolationError,
    DuplicateObjectError,
    ReproError,
)
from repro.storage.index import OrderedIndex
from repro.storage.schema import Column, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType


def make_schema(primary_key=("rid",)):
    return TableSchema(
        [
            Column("rid", DataType.INTEGER),
            Column("name", DataType.TEXT),
            Column("score", DataType.INTEGER),
        ],
        primary_key,
    )


class TestTableSchema:
    def test_positions_and_lookup(self):
        schema = make_schema()
        assert schema.position("name") == 1
        assert "score" in schema
        assert schema.column_names == ["rid", "name", "score"]

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema([Column("a", DataType.INTEGER)] * 2)

    def test_primary_key_must_exist(self):
        with pytest.raises(CatalogError):
            TableSchema([Column("a", DataType.INTEGER)], ("b",))

    def test_coerce_row_width_check(self):
        with pytest.raises(ConstraintViolationError):
            make_schema().coerce_row((1, "x"))

    def test_not_null_enforced(self):
        schema = TableSchema([Column("a", DataType.INTEGER, not_null=True)])
        with pytest.raises(ConstraintViolationError):
            schema.coerce_row((None,))

    def test_composite_key_extraction(self):
        schema = make_schema(primary_key=("name", "score"))
        assert schema.key_of((1, "x", 9)) == ("x", 9)

    def test_with_column(self):
        schema = make_schema()
        grown = schema.with_column(Column("extra", DataType.TEXT))
        assert grown.column_names == schema.column_names + ["extra"]


class TestTable:
    def test_insert_and_scan(self):
        table = Table("t", make_schema())
        table.insert((1, "a", 10))
        table.insert((2, "b", 20))
        assert [row for _s, row in table.scan()] == [
            (1, "a", 10),
            (2, "b", 20),
        ]
        assert table.row_count == 2

    def test_primary_key_uniqueness(self):
        table = Table("t", make_schema())
        table.insert((1, "a", 10))
        with pytest.raises(ConstraintViolationError):
            table.insert((1, "b", 20))

    def test_delete_tombstones_and_indexes(self):
        table = Table("t", make_schema())
        s1 = table.insert((1, "a", 10))
        table.insert((2, "b", 20))
        assert table.delete_slots([s1]) == 1
        assert table.row_count == 1
        index = table.index_on(["rid"])
        assert index.lookup_key((1,)) == []
        # The freed key can be reused.
        table.insert((1, "c", 30))
        assert table.row_count == 2

    def test_update_slot_maintains_indexes(self):
        table = Table("t", make_schema())
        slot = table.insert((1, "a", 10))
        table.update_many([(slot, (5, "a", 10))])
        index = table.index_on(["rid"])
        assert index.lookup_key((5,)) == [slot]
        assert index.lookup_key((1,)) == []

    def test_update_to_duplicate_key_rejected(self):
        table = Table("t", make_schema())
        table.insert((1, "a", 10))
        slot = table.insert((2, "b", 20))
        with pytest.raises(ConstraintViolationError):
            table.update_many([(slot, (1, "b", 20))])

    def test_scan_counts_records(self):
        table = Table("t", make_schema())
        table.insert((1, "a", 10))
        table.insert((2, "b", 20))
        before = table.stats.records_scanned
        list(table.scan())
        assert table.stats.records_scanned - before == 2

    def test_probe_counts_probe_and_match(self):
        table = Table("t", make_schema())
        table.insert((1, "a", 10))
        index = table.index_on(["rid"])
        before_probes = table.stats.index_probes
        rows = table.probe(index, (1,))
        assert rows == [(1, "a", 10)]
        assert table.stats.index_probes - before_probes == 1

    def test_secondary_index_and_duplicate_name(self):
        table = Table("t", make_schema())
        table.insert((1, "a", 10))
        table.create_index("by_name", ["name"])
        with pytest.raises(DuplicateObjectError):
            table.create_index("by_name", ["name"])
        assert table.index_on(["name"]).lookup_key(("a",)) != []

    def test_recluster_sorts_heap(self):
        table = Table("t", make_schema(primary_key=()), enforce_primary_key=False)
        table.insert((3, "c", 1))
        table.insert((1, "a", 2))
        table.insert((2, "b", 3))
        table.recluster("rid")
        assert [row[0] for row in table.rows()] == [1, 2, 3]
        assert table.clustered_on == "rid"

    def test_alter_add_column_backfills(self):
        table = Table("t", make_schema())
        table.insert((1, "a", 10))
        table.alter_add_column(Column("flag", DataType.BOOLEAN), default=False)
        assert list(table.rows()) == [(1, "a", 10, False)]

    def test_alter_column_type_widens_values(self):
        table = Table("t", make_schema())
        table.insert((1, "a", 10))
        table.alter_column_type("score", DataType.DECIMAL)
        row = next(table.rows())
        assert row[2] == 10.0 and isinstance(row[2], float)

    def test_storage_bytes_counts_indexes(self):
        table = Table("t", make_schema())
        table.insert((1, "a", 10))
        with_index = table.storage_bytes(include_indexes=True)
        without = table.storage_bytes(include_indexes=False)
        assert with_index > without

    def test_truncate(self):
        table = Table("t", make_schema())
        table.insert((1, "a", 10))
        table.truncate()
        assert table.row_count == 0
        assert table.index_on(["rid"]).lookup_key((1,)) == []


class TestOrderedIndex:
    def test_ordered_slots_in_key_order(self):
        index = OrderedIndex("i", ("k",), (0,), unique=False)
        for value in [5, 1, 3, 9, 7]:
            index.insert((value,), value)
        assert list(index.ordered_slots()) == [1, 3, 5, 7, 9]

    def test_delete_removes_key(self):
        index = OrderedIndex("i", ("k",), (0,), unique=False)
        index.insert((1,), 0)
        index.delete((1,), 0)
        assert list(index.ordered_slots()) == []
        assert index.entry_count() == 0


class TestIncrementalStorageBytes:
    """storage_bytes() is maintained incrementally; every mutation kind must
    keep it equal to the full-rescan reference implementation."""

    def check(self, table):
        assert table.storage_bytes() == table.storage_bytes_recomputed()
        assert table.storage_bytes(False) == table.storage_bytes_recomputed(False)

    def test_tracks_every_mutation_kind(self):
        table = Table("t", make_schema())
        self.check(table)
        slots = [table.insert((i, f"name{i}" * (i % 3), i * 7)) for i in range(20)]
        self.check(table)
        table.update_many(
            [
                (slots[3], (3, "a much longer replacement name", 1)),
                (slots[4], (4, None, None)),
            ]
        )
        self.check(table)
        table.delete_slots(slots[5:9])
        table.delete_slots(slots[5:9])  # tombstoned slots: no double charge
        self.check(table)
        table.create_index("by_name", ["name"])
        self.check(table)
        table.recluster("score")
        self.check(table)
        table.alter_add_column(Column("extra", DataType.TEXT), default="xyz")
        self.check(table)
        table.alter_column_type("score", DataType.DECIMAL)
        self.check(table)
        table.load_rows([(100, "bulk", 1, "e"), (101, None, 2, None)])
        self.check(table)
        table.drop_index("by_name")
        self.check(table)
        table.truncate()
        self.check(table)
        assert table.storage_bytes() == 0


# --------------------------------------------------------------- bulk restore
#
# Snapshot restore coerces a whole segment with TableSchema.coerce_rows and
# loads it with Table.load_rows.  Both must be indistinguishable from the
# row-at-a-time path: same values *and* types, the same error type on the
# first bad row, the same byte accounting and index entries.

CANONICAL = {
    DataType.INTEGER: st.integers(-(10**20), 10**20),
    DataType.DECIMAL: st.floats(allow_nan=False),
    DataType.TEXT: st.text(max_size=4),
    DataType.BOOLEAN: st.booleans(),
    # JSON decodes an INT_ARRAY value as a list; in memory it is a tuple.
    DataType.INT_ARRAY: st.lists(st.integers(-5, 5), max_size=3)
    | st.lists(st.integers(-5, 5), max_size=3).map(tuple),
}
MESSY = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False),
    st.sampled_from(["7", " 8 ", "2.5", "true", "no", "{1,2}", "", "x"]),
    st.lists(st.booleans(), max_size=2),
    st.lists(st.sampled_from([1, 2.0, "3"]), max_size=2).map(tuple),
)
#: One canonical value per type, and values one coercion away from it.
EXAMPLE = {
    DataType.INTEGER: 7,
    DataType.DECIMAL: 1.5,
    DataType.TEXT: "a",
    DataType.BOOLEAN: True,
    DataType.INT_ARRAY: [1, 2],
}
NEAR = {
    DataType.INTEGER: [True, 3.0, " 4 ", "x"],
    DataType.DECIMAL: [False, 2, "2.5", "x"],
    DataType.TEXT: [True, 5, 1.5, [1, 2]],
    DataType.BOOLEAN: [0, 1, "t", "x"],
    DataType.INT_ARRAY: [[True], (1, False), [2.0], "{3,4}", ["3"], 5],
}


@st.composite
def schema_and_rows(draw, messy=None):
    """A schema and canonical rows; when ``messy``, a few cells or whole
    rows are then swapped for values that need (or fail) coercion."""
    specs = draw(
        st.lists(
            st.tuples(st.sampled_from(list(DataType)), st.booleans()),
            min_size=1,
            max_size=4,
        )
    )
    schema = TableSchema(
        [Column(f"c{i}", dtype, not_null) for i, (dtype, not_null) in enumerate(specs)]
    )
    row = st.tuples(
        *[
            CANONICAL[dtype] if not_null else CANONICAL[dtype] | st.none()
            for dtype, not_null in specs
        ]
    ).map(list)
    rows = draw(st.lists(row, max_size=6))
    if rows and (draw(st.booleans()) if messy is None else messy):
        width = len(specs)
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(rows) - 1))
            if len(rows[at]) == width and draw(st.booleans()):
                column = draw(st.integers(0, width - 1))
                rows[at][column] = draw(st.sampled_from(NEAR[specs[column][0]]) | MESSY)
            else:
                rows[at] = draw(st.lists(MESSY, min_size=width - 1, max_size=width + 1))
    return schema, rows


def typed(value):
    """A value with its type spelled out, so 1 and True and 1.0 differ."""
    if isinstance(value, tuple):
        return tuple, tuple(typed(item) for item in value)
    return type(value), value


def outcome(function):
    try:
        return "ok", [typed(row) for row in function()]
    except ReproError as exc:
        return "raised", type(exc)


class TestBulkRestore:
    @given(schema_and_rows())
    def test_coerce_rows_equals_coerce_row_per_row(self, case):
        schema, rows = case
        assert outcome(lambda: schema.coerce_rows(rows)) == outcome(
            lambda: [schema.coerce_row(row) for row in rows]
        )

    @pytest.mark.parametrize("not_null", [False, True])
    @pytest.mark.parametrize(
        "dtype, value",
        [(dtype, value) for dtype in DataType for value in NEAR[dtype] + [None]],
    )
    def test_one_near_value_among_canonical_rows(self, dtype, value, not_null):
        schema = TableSchema(
            [Column("k", DataType.INTEGER), Column("c", dtype, not_null)]
        )
        rows = [[1, EXAMPLE[dtype]], [2, value], [3, EXAMPLE[dtype]]]
        assert outcome(lambda: schema.coerce_rows(rows)) == outcome(
            lambda: [schema.coerce_row(row) for row in rows]
        )

    @given(schema_and_rows(messy=False))
    def test_load_rows_equals_one_insert_per_row(self, case):
        schema, rows = case
        ordered = schema.columns[0].not_null  # NULL keys do not sort
        tables = []
        for bulk in (True, False):
            table = Table("t", schema)
            table.create_index("c0_idx", ["c0"], ordered=ordered)
            if bulk:
                assert table.load_rows(rows) == len(rows)
            else:
                for row in rows:
                    table.insert(row)
            tables.append(table)
        loaded, inserted = tables
        assert list(loaded.dump_rows()) == list(inserted.dump_rows())
        assert loaded.storage_bytes() == inserted.storage_bytes()
        assert loaded.storage_bytes() == loaded.storage_bytes_recomputed()
        bulk_index, row_index = loaded.indexes["c0_idx"], inserted.indexes["c0_idx"]
        assert bulk_index.entry_count() == row_index.entry_count() == len(rows)
        for row in rows:
            key = row_index.key_of(inserted.schema.coerce_row(row))
            assert bulk_index.lookup_key(key) == row_index.lookup_key(key)
        if ordered:
            assert list(bulk_index.ordered_slots()) == list(row_index.ordered_slots())
