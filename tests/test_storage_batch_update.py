"""An UPDATE is one batch: every new row is checked, then all are written.

Three parts:

* a property: on random schemas and rows (messy ones included) in tables
  with unique, ordered and plain indexes, :meth:`Table.update_many` over
  distinct live slots ends in the state of the slot-at-a-time loop in
  ``table_reference.py`` — same rows in the same slots, index lookups,
  bytes, ``rows_written`` and change set — and when that loop raises, the
  batch raises the same error type and message and leaves the table as
  it was;
* SQL: an ``UPDATE`` that one row rejects (an assignment that raises, a
  duplicate key against a row the statement already moved) writes
  nothing, and on a staged checkout the following commit holds the right
  membership;
* the journal: a failed one-statement ``INSERT``/``UPDATE``/``DELETE``
  wrote nothing, so the next record carries no barrier and takes no
  checkpoint; a script that fails after an earlier statement applied
  still sets the barrier.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.orpheus import OrpheusDB
from repro.errors import ConstraintViolationError, ExecutionError, ReproError
from repro.persist import Store
from repro.storage.engine import Database
from repro.storage.ridset import RidSet
from repro.storage.schema import Column, TableSchema
from repro.storage.table import ChangeSet, Table
from repro.storage.types import DataType

from table_reference import update_rows_one_at_a_time
from test_storage_batch_insert import indexed_table, table_state
from test_storage_schema_table import schema_and_rows, typed


def change_state(table: Table):
    """The change set as values: None, or its base and originals."""
    changes = table.changes
    if changes is None:
        return None
    return changes.base_slots, {
        slot: typed(row) for slot, row in changes.originals.items()
    }


class TestUpdateEqualsOneSlotAtATime:
    @given(st.data())
    def test_same_state_or_same_error_and_untouched(self, data):
        schema, rows = data.draw(schema_and_rows())
        split = data.draw(st.integers(0, len(rows)))
        reference = indexed_table(schema, rows[:split])
        batched = indexed_table(schema, rows[:split])
        if data.draw(st.booleans()):  # column 0 stands in for the rid
            base = data.draw(st.integers(0, len(batched._rows)))
            for table in (reference, batched):
                table.changes = ChangeSet(base, RidSet())
        live = [slot for slot, row in enumerate(batched._rows) if row is not None]
        slots = data.draw(st.permutations(live))[: data.draw(st.integers(0, len(live)))]
        # New values from the table and the fresh rows, so keys collide
        # with untouched rows, with each other and with moved ones.
        values = data.draw(
            st.lists(st.sampled_from(rows), min_size=len(slots), max_size=len(slots))
            if rows
            else st.just([])
        )
        pairs = list(zip(slots, values))
        before = table_state(batched), change_state(batched)
        assert before == (table_state(reference), change_state(reference))
        try:
            count = update_rows_one_at_a_time(reference, pairs)
        except ReproError as expected:
            with pytest.raises(ReproError) as raised:
                batched.update_many(pairs)
            assert type(raised.value) is type(expected)
            assert str(raised.value) == str(expected)
            assert (table_state(batched), change_state(batched)) == before
        else:
            assert batched.update_many(pairs) == count
            assert table_state(batched) == table_state(reference)
            assert change_state(batched) == change_state(reference)
            assert (
                batched.stats.array_cells_written
                == reference.stats.array_cells_written
            )

    def test_keys_taken_by_an_earlier_row_of_the_batch(self):
        schema = TableSchema(
            [Column("k", DataType.INTEGER), Column("v", DataType.TEXT)], ("k",)
        )
        table = Table("t", schema)
        table.insert_many([(1, "a"), (2, "b"), (3, "c")])
        before = table_state(table)
        # Slot 0 takes key 4; slot 2 then asks for it too.
        with pytest.raises(ConstraintViolationError, match="'t_pkey'"):
            table.update_many([(0, (4, "a")), (2, (4, "c"))])
        assert table_state(table) == before
        # A key freed by an earlier row is free: 1 -> 4, then 2 -> 1.
        assert table.update_many([(0, (4, "a")), (1, (1, "b"))]) == 2
        assert sorted(table.dump_rows()) == [(1, "b"), (3, "c"), (4, "a")]


# ------------------------------------------------------------ SQL UPDATE


def keyed_database() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (k int PRIMARY KEY, v int)")
    db.execute("INSERT INTO t VALUES (1, 5), (2, 0), (3, 30)")
    return db


class TestUpdateIsStatementAtomic:
    @pytest.mark.parametrize(
        "setup, sql, error, message",
        [
            # (1, 5) is rewritten to (1, 20) before (2, 0) divides by zero.
            ([], "UPDATE t SET v = 100 / v", ExecutionError, "division by zero"),
            # 11 -> 12 is written before 2 -> 12 meets it.
            (
                ["UPDATE t SET k = k + 10 WHERE k <> 2"],
                "UPDATE t SET k = 12 WHERE k <= 11",
                ConstraintViolationError,
                "duplicate key violates unique index 't_pkey'",
            ),
        ],
    )
    def test_rejected_statement_writes_nothing(self, setup, sql, error, message):
        db = keyed_database()
        for statement in setup:
            db.execute(statement)
        kept = sorted(db.query("SELECT k, v FROM t"))
        before = table_state(db.table("t"))
        with pytest.raises(error, match=message):
            db.execute(sql)
        assert table_state(db.table("t")) == before
        assert sorted(db.query("SELECT k, v FROM t")) == kept

    def test_checkout_commit_after_a_rejected_update(self):
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
                before = table_state(staged), change_state(staged)
                # Each statement rewrites rows before k = 7 divides by
                # zero.  Kept, the first would have recorded originals of
                # rows the commit does not change, and the second, moving
                # rids, would have dropped the change set.
                for sql in (
                    "UPDATE w SET t = 'gone', k = 100 / (7 - k)",
                    "UPDATE w SET rid = rid + 1000 + 100 / (7 - k)",
                ):
                    with pytest.raises(ExecutionError, match="division by zero"):
                        orpheus.run(sql)
                assert (table_state(staged), change_state(staged)) == before
                assert staged.changes is not None
            orpheus.run("UPDATE w SET t = 'kept' WHERE k = 6")
            vid = orpheus.commit("w", message="edit")
            cvd = orpheus.cvd("c")
            commits.append(
                (cvd.membership[vid], sorted(orpheus.checkout_rows("c", vid)))
            )
        assert commits[0] == commits[1]
        membership, rows = commits[1]
        assert len(membership) == 7  # k = 5 deleted, k = 2 and k = 6 replaced
        assert {row[1:] for row in rows} == {
            *((k, f"row {k}") for k in range(8) if k not in (2, 5, 6)),
            (2, "edited"),
            (6, "kept"),
        }


# --------------------------------------------------------- journal barrier


def durable_store(tmp_path):
    """A store with one durable keyed table, no automatic checkpoints, and
    every record it journals collected in ``store.records``."""
    store = Store.open(tmp_path / "store", checkpoint_interval=0)
    store.orpheus.run("CREATE TABLE d (k int PRIMARY KEY, v int)")
    store.orpheus.run("INSERT INTO d VALUES (1, 2), (3, 4)")
    store.records = []
    append = store.wal.append

    def collect(lsn, body):
        store.records.append(json.loads(body))
        return append(lsn, body)

    store.wal.append = collect
    return store


class TestFailedDmlBarrier:
    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO d VALUES (5, 6), (1, 2)",
            "UPDATE d SET k = 3 WHERE k = 1",
            "UPDATE d SET v = 1 / (k - 3)",
            "DELETE FROM d WHERE 1 / (k - 3) > 0",
        ],
    )
    def test_failed_single_statement_takes_no_checkpoint(self, tmp_path, sql):
        store = durable_store(tmp_path)
        orpheus = store.orpheus
        rows = sorted(orpheus.db.query("SELECT k, v FROM d"))
        pending = store.records_since_checkpoint
        with pytest.raises(ReproError):
            orpheus.run(sql)
        assert sorted(orpheus.db.query("SELECT k, v FROM d")) == rows
        orpheus.create_user("next")
        assert [record.get("barrier") for record in store.records] == [None]
        assert store.records_since_checkpoint == pending + 1
        store.close()

    def test_failed_script_after_a_write_still_sets_the_barrier(self, tmp_path):
        store = durable_store(tmp_path)
        orpheus = store.orpheus
        with pytest.raises(ReproError):
            # The first INSERT applies; the second is rejected.
            orpheus.run("INSERT INTO d VALUES (5, 6); INSERT INTO d VALUES (1, 2)")
        assert (5, 6) in orpheus.db.query("SELECT k, v FROM d")
        orpheus.create_user("next")
        assert [record.get("barrier") for record in store.records] == [True]
        assert store.records_since_checkpoint == 0
        store.close()
