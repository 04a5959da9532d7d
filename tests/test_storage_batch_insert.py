"""A table write is one batch: every row is checked, then all are appended.

Two halves:

* a property: on random schemas and rows (messy ones included) written
  into tables with unique, ordered and plain indexes that already hold
  rows, :meth:`Table.insert_many` ends in the state of the one-row-at-a-
  time loop in ``table_reference.py`` — same rows in the same slots, index
  lookups, bytes and ``rows_written`` — and when that loop raises, the
  batch raises the same error type and message and leaves the table as it
  was;
* SQL: a multi-row ``INSERT … VALUES`` or ``INSERT … SELECT`` that one row
  rejects (a duplicate key against the table or an earlier row, a NULL in
  a NOT NULL column, a value of the wrong type) writes nothing — rows,
  indexes, ``storage_bytes()`` and ``rows_written`` are unchanged — and on
  a staged checkout the following commit holds the right membership.
"""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.orpheus import OrpheusDB
from repro.errors import ConstraintViolationError, ReproError, TypeMismatchError
from repro.storage.engine import Database
from repro.storage.index import OrderedIndex
from repro.storage.schema import Column, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType

from table_reference import insert_rows_one_at_a_time
from test_storage_schema_table import schema_and_rows, typed


def table_state(table: Table) -> dict:
    """Everything a write may change, copied (index buckets are live lists)."""
    live = list(table.dump_rows())
    indexes = {}
    for name, index in table.indexes.items():
        keys = map(index.key_of, live)
        lookups = [(key, list(index.lookup_key(key))) for key in keys]
        ordered = isinstance(index, OrderedIndex) and list(index.ordered_slots())
        indexes[name] = (index.entry_count(), lookups, ordered)
    return {
        "slots": [row if row is None else typed(row) for row in table._rows],
        "live": table.row_count,
        "bytes": table.storage_bytes(),
        "recomputed": table.storage_bytes_recomputed(),
        "rows_written": table.stats.rows_written,
        "indexes": indexes,
    }


def indexed_table(schema: TableSchema, existing) -> Table:
    """``t`` with a unique index on the first column (ordered when NOT
    NULL, as NULL keys do not sort), a plain one on the last, a unique one
    on all the others, and ``existing`` rows inserted one at a time (a
    rejected row is skipped)."""
    table = Table("t", schema)
    first, last = schema.columns[0], schema.columns[-1]
    table.create_index("u0", [first.name], unique=True, ordered=first.not_null)
    table.create_index("ix", [last.name], ordered=last.not_null)
    if len(schema.columns) > 1:
        rest = [column.name for column in schema.columns[1:]]
        table.create_index("u_rest", rest, unique=True)
    for row in existing:
        try:
            insert_rows_one_at_a_time(table, [row])
        except ReproError:
            pass
    return table


class TestBatchEqualsOneRowAtATime:
    @given(st.data())
    def test_same_state_or_same_error_and_untouched(self, data):
        schema, rows = data.draw(schema_and_rows())
        if rows:  # repeat rows so keys collide with the table and the batch
            rows = rows + data.draw(st.lists(st.sampled_from(rows), max_size=3))
            rows = data.draw(st.permutations(rows))
        split = data.draw(st.integers(0, len(rows)))
        existing, batch = rows[:split], rows[split:]
        reference = indexed_table(schema, existing)
        batched = indexed_table(schema, existing)
        before = table_state(batched)
        assert before == table_state(reference)
        try:
            count = insert_rows_one_at_a_time(reference, batch)
        except ReproError as expected:
            with pytest.raises(ReproError) as raised:
                batched.insert_many(batch)
            assert type(raised.value) is type(expected)
            assert str(raised.value) == str(expected)
            assert table_state(batched) == before
        else:
            assert batched.insert_many(batch) == count
            assert table_state(batched) == table_state(reference)

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            # A duplicate before the bad row is what one at a time meets first.
            ([(3, "c"), (3, "d"), (4, None)], ConstraintViolationError, "key (3,)"),
            ([(3, "c"), (4, None), (3, "d")], ConstraintViolationError, "NOT NULL"),
            ([(3, "c"), ("x", "d"), (1, "e")], TypeMismatchError, "cannot coerce"),
            ([(3, "c"), (1, "d"), ("x", "e")], ConstraintViolationError, "key (1,)"),
        ],
    )
    def test_first_error_in_row_order(self, rows, error, message):
        schema = TableSchema(
            [Column("k", DataType.INTEGER), Column("v", DataType.TEXT, True)],
            ("k",),
        )
        table = Table("t", schema)
        table.insert_many([(1, "a")])
        before = table_state(table)
        with pytest.raises(error, match=re.escape(message)):
            table.insert_many(rows)
        assert table_state(table) == before


# ------------------------------------------------------------ SQL INSERT

#: Each batch is rejected by its last row, for the reason named.
REJECTED = {
    "duplicate key in the table": (
        [(3, "c", 30), (4, "d", 40), (1, "e", 50)],
        ConstraintViolationError,
        r"duplicate key \(1,\) violates unique index 't_pkey'",
    ),
    "duplicate key of an earlier row": (
        [(3, "c", 30), (4, "d", 40), (3, "e", 50)],
        ConstraintViolationError,
        r"duplicate key \(3,\) violates unique index 't_pkey'",
    ),
    "duplicate in a unique btree index": (
        [(3, "c", 30), (4, "a", 40)],
        ConstraintViolationError,
        r"duplicate key \('a',\) violates unique index 't_v'",
    ),
    "NULL in a NOT NULL column": (
        [(3, "c", 30), (4, None, 40)],
        ConstraintViolationError,
        "null value in NOT NULL column 'v'",
    ),
    "value of the wrong type": (
        [(3, "c", 30), (4, "d", "forty")],
        TypeMismatchError,
        "cannot coerce 'forty'",
    ),
}


def database() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (k int PRIMARY KEY, v text NOT NULL, n int)")
    db.execute("CREATE UNIQUE INDEX t_v ON t USING btree (v)")
    db.execute("CREATE INDEX t_n ON t (n)")
    db.execute("INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20)")
    db.execute("CREATE TABLE s (k int, v text, n text)")
    return db


def values_sql(table: str, rows) -> tuple[str, list]:
    tuples = ", ".join(["(%s, %s, %s)"] * len(rows))
    params = [value for row in rows for value in row]
    return f"INSERT INTO {table} VALUES {tuples}", params


class TestInsertIsStatementAtomic:
    @pytest.mark.parametrize("form", ["values", "select"])
    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_statement_writes_nothing(self, case, form):
        rows, error, message = REJECTED[case]
        db = database()
        if form == "values":
            sql, params = values_sql("t", rows)
        else:
            db.execute(*values_sql("s", rows))
            sql, params = "INSERT INTO t SELECT k, v, n FROM s", []
        before = table_state(db.table("t"))
        with pytest.raises(error, match=message):
            db.execute(sql, params)
        assert table_state(db.table("t")) == before
        kept = sorted(db.query("SELECT k, v, n FROM t"))
        assert kept == [(1, "a", 10), (2, "b", 20)]
        # The statement's good rows alone are still accepted.
        assert db.execute(*values_sql("t", [(3, "c", 30)])).rowcount == 1

    def test_checkout_commit_after_a_rejected_insert(self):
        schema = TableSchema(
            [Column("k", DataType.INTEGER), Column("t", DataType.TEXT)], ("k",)
        )
        root = [(k, f"row {k}") for k in range(8)]
        commits = []
        for reject in (False, True):
            orpheus = OrpheusDB()
            orpheus.init("c", schema, rows=root, primary_key=("k",))
            orpheus.checkout("c", 1, table_name="w")
            orpheus.run("UPDATE w SET t = 'edited' WHERE k = 2")
            orpheus.run("DELETE FROM w WHERE k = 5")
            if reject:
                staged = orpheus.db.table("w")
                before = table_state(staged)
                # Each statement has a good row, then a bad one.  The second
                # one's good row claims rid 1: kept, it would have dropped
                # the change set.
                for sql in (
                    "INSERT INTO w (k, t) VALUES (100, 'new'), ('x', 'y')",
                    "INSERT INTO w VALUES (1, 100, 'new'), (NULL, 'x', 'y')",
                ):
                    with pytest.raises(TypeMismatchError):
                        orpheus.run(sql)
                assert table_state(staged) == before
                assert staged.changes is not None
            orpheus.run("INSERT INTO w (k, t) VALUES (100, 'kept')")
            vid = orpheus.commit("w", message="edit")
            cvd = orpheus.cvd("c")
            commits.append(
                (cvd.membership[vid], sorted(orpheus.checkout_rows("c", vid)))
            )
        assert commits[0] == commits[1]
        membership, rows = commits[1]
        assert len(membership) == 8  # k = 5 deleted, k = 100 added, k = 2 replaced
        assert {row[1:] for row in rows} == {
            *((k, f"row {k}") for k in range(8) if k not in (2, 5)),
            (2, "edited"),
            (100, "kept"),
        }
