"""A staged checkout commits from its change set, exactly as by comparison.

``OrpheusDB.commit`` has two ways to resolve a staged checkout table:

* the table still knows its change set (:class:`repro.storage.table.
  ChangeSet`), so ``CVD.prepare_changes`` reads only the rows its DML
  touched;
* the change set is unknown (a table restored from a snapshot, or one whose
  DML the set cannot attribute), so ``CVD.prepare_rows`` coerces every row
  and compares it with the parents — the path CSV commits take too.

These tests hold the two to one answer: on the same staged table (built
deterministically per path) the version's membership, the journaled
``drop`` and the new records are identical, value for value and type for
type — for a fixed edit, for random DML scripts (a hypothesis property,
live and after WAL replay), for rejected commits (which must consume no
rid or vid), and at a cost that does not grow with the version.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cvd import CVD
from repro.core.datamodels import MODEL_REGISTRY
from repro.core.datamodels.base import DataModel
from repro.core.orpheus import OrpheusDB
from repro.errors import ConstraintViolationError, ReproError
from repro.persist import Store
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType

import wal_session
from wal_session import unpacked

MODELS = sorted(MODEL_REGISTRY) + ["partitioned"]

SCHEMA = TableSchema(
    [
        Column("k", DataType.INTEGER),
        Column("x", DataType.DECIMAL),
        Column("t", DataType.TEXT),
        Column("b", DataType.BOOLEAN),
    ],
    ("k",),
)
NOT_NULL_SCHEMA = TableSchema(
    [Column("k", DataType.INTEGER), Column("t", DataType.TEXT, not_null=True)],
    ("k",),
)
ROOT = [
    (0, float("nan"), "naïve ☃", True),
    (1, -0.0, "ünïcödé", False),
    (2, 2.5, "plain", None),
    (3, None, "三", True),
] + [(k, k * 0.25, f"row {k}", k % 2 == 0) for k in range(4, 24)]


def staged(model: str) -> OrpheusDB:
    """A CVD (optimized for ``partitioned``) with one edited checkout ``w``."""
    orpheus = OrpheusDB()
    orpheus.init(
        "c",
        SCHEMA,
        rows=ROOT,
        model=None if model == "partitioned" else model,
        primary_key=("k",),
    )
    if model == "partitioned":
        orpheus.optimize("c")
    orpheus.checkout("c", 1, table_name="w")
    orpheus.run("UPDATE w SET x = -0.0, t = 'é→ü' WHERE k = 5")
    orpheus.run("DELETE FROM w WHERE k = 6")
    # User-inserted rows carry a NULL rid; 7 is an int in a DECIMAL column.
    orpheus.run("INSERT INTO w (k, x, t, b) VALUES (100, 7, 'ß', false)")
    orpheus.run("INSERT INTO w (k, x, t, b) VALUES (101, NULL, '∅', NULL)")
    return orpheus


def spy_commit_rows(monkeypatch) -> list[dict]:
    """Record each call of the row-by-row path, ``CVD.prepare_rows``."""
    calls = []
    original = CVD.prepare_rows

    def spy(self, parents, rows, **kwargs):
        calls.append(kwargs)
        return original(self, parents, rows, **kwargs)

    monkeypatch.setattr(CVD, "prepare_rows", spy)
    return calls


def journal(orpheus: OrpheusDB) -> list[dict]:
    """Capture every journaled record of a session (:func:`unpacked` reads
    its blocks)."""
    orpheus.attach_journal(wal_session.Journal())
    return orpheus._journal.records


def fingerprint(orpheus: OrpheusDB, vid: int, record: dict) -> str:
    """repr keeps what == hides: nan, -0.0, 7 vs 7.0, True vs 1."""
    record = unpacked(record)
    return repr(
        (
            sorted(orpheus.cvd("c").membership[vid]),
            record["drop"],
            sorted(record["new_records"]),
        )
    )


@pytest.mark.parametrize("model", MODELS)
class TestSameResolution:
    def test_checkout_table_resolves_like_general_path(self, model, monkeypatch):
        """Tracked and compared commits journal one answer."""
        resolutions = []
        for tracked in (True, False):
            with monkeypatch.context() as patch:
                calls = spy_commit_rows(patch)
                orpheus = staged(model)
                records = journal(orpheus)
                if not tracked:
                    orpheus.db.table("w").changes = None
                vid = orpheus.commit("w", message="edit")
            assert len(calls) == (0 if tracked else 1)
            resolutions.append(fingerprint(orpheus, vid, records[-1]))
        assert resolutions[0] == resolutions[1]

    def test_new_records_hold_canonical_values(self, model):
        orpheus = staged(model)
        vid = orpheus.commit("w")
        rows = {row[1]: row[2:] for row in orpheus.cvd("c").checkout_rows([vid])}
        assert repr(rows[100]) == repr((7.0, "ß", False))
        assert repr(rows[5]) == repr((-0.0, "é→ü", False))
        assert rows[0][0] != rows[0][0]  # NaN kept as NaN
        assert rows[101] == (None, "∅", None)

    def test_duplicated_rid_row_still_rejected(self, model, monkeypatch):
        calls = spy_commit_rows(monkeypatch)
        orpheus = staged(model)
        # A row that claims a rid is no plain insert: the change set drops.
        orpheus.run("INSERT INTO w SELECT * FROM w WHERE k = 2")
        assert orpheus.db.table("w").changes is None
        with pytest.raises(ConstraintViolationError, match="twice"):
            orpheus.commit("w")
        assert len(calls) == 1

    @pytest.mark.parametrize("tracked", [False, True])
    def test_null_in_not_null_column_raises(self, model, tracked):
        orpheus = OrpheusDB()
        orpheus.init(
            "n",
            NOT_NULL_SCHEMA,
            rows=[(k, f"v{k}") for k in range(5)],
            model=None if model == "partitioned" else model,
            primary_key=("k",),
        )
        if model == "partitioned":
            orpheus.optimize("n")
        cvd = orpheus.cvd("n")
        orpheus.checkout("n", 1, table_name="w")
        with pytest.raises(
            ConstraintViolationError, match="null value in NOT NULL column 't'"
        ):
            # Some models' checkout tables declare NOT NULL and refuse the
            # UPDATE; the others stage it and the commit must refuse it.
            orpheus.run("UPDATE w SET t = NULL WHERE k = 2")
            if not tracked:
                orpheus.db.table("w").changes = None
            orpheus.commit("w")
        # Refused while resolving the row: no rid allocated, nothing stored.
        assert (cvd.version_count, cvd.record_count, cvd._next_rid) == (1, 5, 6)


class TestGeneralPathKept:
    def test_evolved_schema_takes_general_path(self, monkeypatch):
        calls = spy_commit_rows(monkeypatch)
        orpheus = staged("split_by_rlist")
        orpheus.run("ALTER TABLE w ADD COLUMN extra int")
        orpheus.run("UPDATE w SET extra = k")
        vid = orpheus.commit("w")
        assert len(calls) == 1
        assert orpheus.cvd("c").data_schema.column_names[-1] == "extra"
        assert len(orpheus.cvd("c").checkout_rows([vid])) == len(ROOT) + 1

    def test_alter_drops_the_change_set(self):
        """A backfilled column reaches every row without an UPDATE: once the
        CVD has the column too, only a dropped change set sees that."""
        orpheus = staged("split_by_rlist")
        orpheus.checkout("c", 1, table_name="w2")
        orpheus.run("ALTER TABLE w ADD COLUMN extra int")
        orpheus.commit("w")
        orpheus.run("ALTER TABLE w2 ADD COLUMN extra int DEFAULT 5")
        assert orpheus.db.table("w2").changes is None
        vid = orpheus.commit("w2")
        rows = orpheus.cvd("c").checkout_rows([vid])
        assert len(rows) == len(ROOT)
        assert {row[-1] for row in rows} == {5}

    def test_commit_csv_takes_general_path(self, monkeypatch, tmp_path):
        calls = spy_commit_rows(monkeypatch)
        orpheus = staged("split_by_rlist")
        path = tmp_path / "v1.csv"
        orpheus.checkout_csv("c", 1, path)
        orpheus.commit_csv(path, message="csv")
        assert len(calls) == 1 and calls[0]["rows_have_rid"] is False


# ------------------------------------------------------------------ rejected


def three_rows(tracked: bool) -> OrpheusDB:
    """A 3-row CVD whose checkout ``w`` updates a row and inserts a
    duplicate key."""
    orpheus = OrpheusDB()
    orpheus.init(
        "p",
        [("k", "text"), ("v", "int")],
        [("a", 1), ("b", 2), ("c", 3)],
        primary_key=("k",),
    )
    orpheus.checkout("p", 1, table_name="w")
    orpheus.run("UPDATE w SET v = 20 WHERE k = 'b'")
    orpheus.run("INSERT INTO w (k, v) VALUES ('a', 9)")
    if not tracked:
        orpheus.db.table("w").changes = None
    return orpheus


@pytest.mark.parametrize("tracked", [True, False])
def test_rejected_commit_allocates_nothing(tracked):
    orpheus = three_rows(tracked)
    cvd = orpheus.cvd("p")
    counters = (cvd._next_rid, cvd._next_vid)
    with pytest.raises(ConstraintViolationError, match="duplicate primary key"):
        orpheus.commit("w")
    assert (cvd._next_rid, cvd._next_vid) == counters
    # The staged table is untouched and commits once the key is fixed; its
    # rids are those of a session that never failed.
    orpheus.run("DELETE FROM w WHERE k = 'a' AND v = 9")
    vid = orpheus.commit("w")
    clean = three_rows(tracked)
    clean.run("DELETE FROM w WHERE k = 'a' AND v = 9")
    clean_vid = clean.commit("w")
    assert vid == clean_vid == 2
    assert cvd.checkout_rows([vid]) == clean.cvd("p").checkout_rows([clean_vid])
    assert sorted(cvd.membership[vid]) == [1, 3, 4]


# -------------------------------------------------------------- O(change)


def commit_cost(monkeypatch, root_rows: int) -> tuple[int, int, list[int]]:
    """Records scanned, model reads and ``drop`` of one 10-row edit."""
    orpheus = OrpheusDB()
    orpheus.init(
        "big", [("k", "int"), ("v", "int")], [(k, k) for k in range(root_rows)],
        primary_key=("k",),
    )
    records = journal(orpheus)
    orpheus.checkout("big", 1, table_name="w")
    orpheus.run("UPDATE w SET v = -1 WHERE k < 5")
    orpheus.run("DELETE FROM w WHERE k >= 5 AND k < 8")
    orpheus.run("INSERT INTO w (k, v) VALUES (-1, 0), (-2, 0)")
    reads = []
    for name in ("records_of", "fetch_version"):
        original = getattr(DataModel, name)

        def spy(self, vid, _original=original, _name=name):
            reads.append(_name)
            return _original(self, vid)

        monkeypatch.setattr(DataModel, name, spy)
    before = orpheus.db.stats.records_scanned
    orpheus.commit("w")
    scanned = orpheus.db.stats.records_scanned - before
    monkeypatch.undo()
    return scanned, len(reads), unpacked(records[-1])["drop"]


def test_tracked_commit_costs_the_change_not_the_version(monkeypatch):
    small = commit_cost(monkeypatch, 1_000)
    large = commit_cost(monkeypatch, 4_000)
    assert small == large
    scanned, reads, drop = small
    assert reads == 0
    assert scanned == 7  # the five updated rows and the two inserted ones
    assert drop == [1, 2, 3, 4, 5, 6, 7, 8]


# ------------------------------------------------------------ the property

NAN = float("nan")
VALUES = st.sampled_from([NAN, -0.0, 0.0, 1.5, 7, None])
TEXTS = st.sampled_from(["naïve ☃", "ünïcödé", "三", "", "plain"])
KEYS = st.sampled_from([0, 1, 2, 3, 5, 8, 100, 101])
OPS = st.one_of(
    st.tuples(st.just("insert"), KEYS, VALUES, TEXTS),
    st.tuples(st.just("update"), KEYS, VALUES, TEXTS),
    st.tuples(st.just("same"), KEYS),
    st.tuples(st.just("pk_back"), KEYS),
    st.tuples(st.just("pk"), KEYS, KEYS),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("reinsert"), KEYS),
    st.tuples(st.just("rid_null"), KEYS),
    st.tuples(st.just("rid_same"), KEYS),
    st.tuples(st.just("alter")),
)


def apply_op(orpheus: OrpheusDB, op: tuple) -> None:
    kind, *args = op
    run = orpheus.run
    if kind == "insert":
        key, x, text = args
        run("INSERT INTO w (k, x, t, b) VALUES (%s, %s, %s, true)", (key, x, text))
    elif kind == "update":
        key, x, text = args
        run("UPDATE w SET x = %s, t = %s WHERE k = %s", (x, text, key))
    elif kind == "same":
        run("UPDATE w SET x = x, t = t WHERE k = %s", (args[0],))
    elif kind == "pk_back":
        run("UPDATE w SET k = k + 1000 WHERE k = %s", (args[0],))
        run("UPDATE w SET k = k - 1000 WHERE k = %s", (args[0] + 1000,))
    elif kind == "pk":
        run("UPDATE w SET k = %s WHERE k = %s", (args[1], args[0]))
    elif kind == "delete":
        run("DELETE FROM w WHERE k = %s", (args[0],))
    elif kind == "reinsert":
        rows = run("SELECT k, x, t, b FROM w WHERE k = %s", (args[0],)).rows
        run("DELETE FROM w WHERE k = %s", (args[0],))
        for row in rows:
            run("INSERT INTO w (k, x, t, b) VALUES (%s, %s, %s, %s)", row)
    elif kind == "rid_null":
        run("UPDATE w SET rid = NULL WHERE k = %s", (args[0],))
    elif kind == "rid_same":
        run("UPDATE w SET rid = rid WHERE k = %s", (args[0],))
    elif "extra" not in orpheus.db.table("w").schema:
        run("ALTER TABLE w ADD COLUMN extra int")


def journal_store(store: Store) -> list[dict]:
    """The records a store appends from here on."""
    store.orpheus.attach_journal(wal_session.Journal(store))
    return store.orpheus._journal.records


def scripted_commit(path: Path, model: str, merge: bool, script, tracked: bool):
    """Run ``script`` on a checkout and commit it; returns what it made."""
    store = Store.open(path, checkpoint_interval=0)
    orpheus = store.orpheus
    orpheus.init(
        "c", SCHEMA, rows=ROOT[:10],
        model=None if model == "partitioned" else model, primary_key=("k",),
    )
    if model == "partitioned":
        orpheus.optimize("c")
    parents = [1]
    if merge:
        orpheus.checkout("c", 1, table_name="side")
        orpheus.run("UPDATE side SET t = 'side' WHERE k < 3")
        orpheus.run("DELETE FROM side WHERE k = 4")
        orpheus.run("INSERT INTO side (k, x, t, b) VALUES (50, 1, 'x', NULL)")
        parents = [orpheus.commit("side"), 1]
    records = journal_store(store)
    orpheus.checkout("c", parents, table_name="w")
    cvd = orpheus.cvd("c")
    counters = (cvd._next_rid, cvd._next_vid)
    outcome = None
    try:
        for op in script:
            apply_op(orpheus, op)
        if not tracked:
            orpheus.db.table("w").changes = None
        vid = orpheus.commit("w")
    except ReproError as exc:
        outcome = type(exc).__name__
        assert (cvd._next_rid, cvd._next_vid) == counters
        store.close(sync=False)
        return outcome
    record = unpacked(records[-1])
    live = (
        sorted(cvd.membership[vid]),
        record["drop"],
        repr(sorted(record["new_records"])),
        repr(cvd.checkout_rows([vid])),
    )
    reader = Store.open(path, mode="ro")
    replayed = reader.orpheus.cvd("c")
    assert sorted(replayed.membership[vid]) == live[0]
    assert repr(replayed.checkout_rows([vid])) == live[3]
    reader.close()
    store.close(sync=False)
    return live


@pytest.mark.parametrize("model", MODELS)
@settings(max_examples=60, deadline=None)
@given(merge=st.booleans(), script=st.lists(OPS, max_size=6))
def test_tracked_commit_matches_comparison(model, merge, script):
    """Tracked ≡ tracker forced unknown, live and after WAL replay."""
    with tempfile.TemporaryDirectory() as scratch:
        tracked = scripted_commit(Path(scratch) / "a", model, merge, script, True)
        compared = scripted_commit(Path(scratch) / "b", model, merge, script, False)
    assert tracked == compared
