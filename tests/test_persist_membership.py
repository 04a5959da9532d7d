"""One owner for version membership, on disk and in memory.

A version's rid set is one fact about a CVD (its rlist, Section 3; the
version-record bipartite graph, Section 4.1).  The manifest writes it once,
in the CVD block, and everything that is a function of it — graph edge
weights, a partitioned model's per-partition record sets — is derived at
open.  These tests pin that a reopened store, read-write or read-only,
equals the live session it was checkpointed from, for all six data models
and for an optimized CVD with merges and online migrations — every
version and every table, rows, byte accounting and index entries, as
restored in bulk — and that the manifest holds no second copy.

They also pin that versioned reads of a delta CVD, which the translator
answers through materialized temporary tables, leave the catalog as it was.
"""

import json
from collections import Counter

import pytest

from repro.core.datamodels import MODEL_REGISTRY
from repro.errors import CatalogError, ReproError
from repro.partition.bipartite import Partitioning
from repro.persist import Store
from repro.serve import ServeManager
from repro.serve.server import handle_line

from test_persist_crash import crash

ALL_MODELS = sorted(MODEL_REGISTRY)
SCHEMA = [("k", "int"), ("v", "int")]


def commit_edit(orpheus, cvd_name, parents, table, sql):
    orpheus.checkout(cvd_name, parents, table_name=table)
    orpheus.run(sql.format(t=table))
    return orpheus.commit(table, message=sql)


def branch_and_merge(orpheus, cvd_name, model):
    """Root, two branches, a merge of them, and a child of the merge."""
    orpheus.init(
        cvd_name,
        SCHEMA,
        rows=[(k, k) for k in range(12)],
        model=model,
        primary_key=("k",),
    )
    a = commit_edit(orpheus, cvd_name, 1, "wa", "UPDATE {t} SET v = 100 WHERE k < 3")
    b = commit_edit(orpheus, cvd_name, 1, "wb", "DELETE FROM {t} WHERE k > 8")
    merged = commit_edit(
        orpheus, cvd_name, [b, a], "wm", "INSERT INTO {t} (k, v) VALUES (50, 5)"
    )
    commit_edit(orpheus, cvd_name, merged, "wc", "DELETE FROM {t} WHERE k = 4")


def build_session(orpheus):
    """One CVD per data model, plus an optimized CVD whose history has
    merges, a forced migration and an online (tolerance-fired) one."""
    for model in ALL_MODELS:
        branch_and_merge(orpheus, model, model)
    branch_and_merge(orpheus, "opt", "split_by_rlist")
    optimizer = orpheus.optimize("opt", tolerance=1.05)
    optimizer.migrate(Partitioning.single(orpheus.cvd("opt").graph.version_ids()))
    for step in range(3):
        latest = max(orpheus.cvd("opt").graph.version_ids())
        sql = f"INSERT INTO {{t}} (k, v) VALUES ({200 + step}, {step})"
        commit_edit(orpheus, "opt", latest, f"s{step}", sql)
    assert len(optimizer.trace.migrations) >= 2


def fingerprint(orpheus):
    """Everything derived from membership, plus every checkout."""
    out = {}
    for name in orpheus.ls():
        cvd = orpheus.cvd(name)
        vids = cvd.graph.version_ids()
        entry = {
            "membership": dict(cvd.membership),
            "edges": list(cvd.graph.edges()),
            "children": {vid: cvd.graph.children(vid) for vid in vids},
            "checkouts": {vid: cvd.checkout_rows([vid]) for vid in vids},
            "merged": cvd.checkout_rows(sorted(vids, reverse=True)),
        }
        model = cvd.model
        if model.model_name == "partitioned_rlist":
            entry["partitions"] = [
                (state.index, state.vids, state.rids)
                for state in model.partition_states()
            ]
            entry["costs"] = (model.storage_cost_records, model.checkout_cost_avg)
        out[name] = entry
    return out


def tables_of(orpheus):
    """Every table's rows, byte accounting, and index contents by key."""
    out = {}
    for table in orpheus.db.tables():
        rows = list(table.dump_rows())
        indexes = {}
        for name, index in table.indexes.items():
            keys = {index.key_of(row) for row in rows}
            indexes[name] = (
                index.entry_count(),
                {
                    key: Counter(map(table.get_slot, index.lookup_key(key)))
                    for key in keys
                },
            )
        out[table.name] = (
            rows,
            table.storage_bytes(),
            table.storage_bytes_recomputed(),
            indexes,
        )
    return out


def manifest_of(store):
    path = store.path / "snapshots" / store.current_snapshot_name() / "manifest.json"
    return json.loads(path.read_text(encoding="utf-8"))


class TestRestoreEquivalence:
    @pytest.mark.parametrize("mode", ["rw", "ro"])
    @pytest.mark.parametrize("wal_tail", [False, True])
    def test_reopen_equals_live_session(self, tmp_path, wal_tail, mode):
        store = Store.open(tmp_path / "s", checkpoint_interval=0)
        orpheus = store.orpheus
        build_session(orpheus)
        store.checkpoint()
        if wal_tail:
            sql = "UPDATE {t} SET v = v + 1 WHERE k = 5"
            for name in ("delta", "opt"):
                latest = max(orpheus.cvd(name).graph.version_ids())
                commit_edit(orpheus, name, latest, "tail", sql)
        expected = fingerprint(orpheus)
        expected_tables = tables_of(orpheus)
        crash(store)

        reopened = Store.open(tmp_path / "s", checkpoint_interval=0, mode=mode)
        orpheus = reopened.orpheus
        assert fingerprint(orpheus) == expected
        tables = tables_of(orpheus)
        assert tables == expected_tables
        for _rows, stored, recomputed, _indexes in tables.values():
            assert stored == recomputed
        if mode == "ro":
            reopened.close()
            return
        # The reopened store keeps committing and placing like the live one.
        tip = max(expected["opt"]["membership"])
        vid = commit_edit(orpheus, "opt", tip, "after", "DELETE FROM {t} WHERE k = 6")
        assert orpheus.cvd("opt").model.partition_of(vid) is not None
        reopened.close()

    def test_manifest_writes_membership_once(self, tmp_path):
        store = Store.open(tmp_path / "s", checkpoint_interval=0)
        build_session(store.orpheus)
        store.checkpoint()
        manifest = manifest_of(store)
        snapshot = store.path / "snapshots" / store.current_snapshot_name()
        derived = {
            table
            for name in store.orpheus.ls()
            for table in store.orpheus.cvd(name).model.derived_tables()
        }
        store.close()
        blocks = {block["name"]: block for block in manifest["orpheus"]["cvds"]}
        assert manifest["format"] == 6
        for block in blocks.values():
            assert "edges" not in block
            for _vid, bitmap in block["membership"]:
                assert isinstance(bitmap, str)
        # Nor do the segments: every table derived from membership is
        # written as a catalog entry only, and no segment holds an rlist.
        assert {"split_by_rlist__versions", "split_by_rlist_rle__versions"} <= derived
        assert [name for name in derived if name.startswith("opt__p")]
        entries = {entry["name"]: entry for entry in manifest["tables"]}
        assert derived == {name for name, e in entries.items() if e["file"] is None}
        for name in derived:
            assert set(entries[name]) == {
                "name",
                "file",
                "schema",
                "clustered_on",
                "enforce_primary_key",
                "indexes",
            }
        segments = {e["file"] for e in entries.values() if e["file"] is not None}
        assert segments == {"segments.bin"}
        assert sorted(path.name for path in snapshot.iterdir()) == [
            "manifest.json",
            "segments.bin",
        ]
        for entry in entries.values():
            columns = [column[0] for column in entry["schema"]["columns"]]
            assert "rlist" not in columns or entry["file"] is None
        assert set(blocks["opt"]["model_state"]) == {
            "assignment",
            "next_partition",
            "optimizer",
        }
        for name in ALL_MODELS:
            assert blocks[name]["model_state"] == {}


class TestDerivedTablesRefuseWrites:
    """A table a data model derives from membership (an rlist table) is
    rebuilt from membership at open, so SQL that writes it is refused
    before anything applies: a checkpoint would otherwise lose the write.
    Index DDL stays allowed; the manifest keeps index definitions."""

    WRITES = {
        "insert": "INSERT INTO {t} VALUES (99, ARRAY[1])",
        "update": "UPDATE {t} SET vid = 99 WHERE vid = 1",
        "delete": "DELETE FROM {t} WHERE vid = 1",
        "create_table": "CREATE TABLE {t} (x int)",
        "drop_table": "DROP TABLE {t}",
        "alter_table": "ALTER TABLE {t} ADD COLUMN x int",
        "cluster": "CLUSTER {t} USING vid",
        "select_into": "SELECT * INTO {t} FROM notes",
        "script": "INSERT INTO notes VALUES (2); DELETE FROM {t}",
    }
    TARGETS = {
        "split_by_rlist": "s__versions",
        "split_by_rlist_rle": "r__versions",
        "partitioned_rlist": "p__p0_versions",
    }

    @staticmethod
    def open_store(path):
        store = Store.open(path, checkpoint_interval=0)
        orpheus = store.orpheus
        rows = [(k, k) for k in range(4)]
        orpheus.init("s", SCHEMA, rows=rows, primary_key=("k",))
        orpheus.init("r", SCHEMA, rows=rows, model="split_by_rlist_rle")
        orpheus.init("p", SCHEMA, rows=rows, primary_key=("k",))
        commit_edit(orpheus, "p", 1, "w", "DELETE FROM {t} WHERE k = 0")
        orpheus.optimize("p")
        orpheus.run("CREATE TABLE notes (n int)")
        orpheus.run("INSERT INTO notes VALUES (1)")
        return store

    @pytest.mark.parametrize("target", sorted(TARGETS.values()))
    @pytest.mark.parametrize("kind", sorted(WRITES))
    def test_a_write_is_refused_before_it_applies(self, tmp_path, kind, target):
        store = self.open_store(tmp_path / "s")
        orpheus = store.orpheus
        assert target in orpheus.cvd(target.split("__")[0]).model.derived_tables()
        before, wal_bytes = tables_of(orpheus), store.wal.path.stat().st_size
        with pytest.raises(CatalogError, match=f"{target} is derived"):
            orpheus.run(self.WRITES[kind].format(t=target))
        assert tables_of(orpheus) == before
        assert store.wal.path.stat().st_size == wal_bytes
        store.close()

    def test_a_write_over_the_wire_is_a_typed_error(self, tmp_path):
        self.open_store(tmp_path / "s").close()
        line = json.dumps({"op": "query", "sql": "DELETE FROM s__versions"})
        with ServeManager(tmp_path / "s", readers=1) as manager:
            reply, _bye = handle_line(manager, line.encode() + b"\n")
        reply = json.loads(reply)
        assert (reply["ok"], reply["code"]) == (False, "catalog")

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_a_user_index_on_a_partition_rlist_table_survives_reopen(
        self, tmp_path, checkpoint
    ):
        store = self.open_store(tmp_path / "s")
        orpheus = store.orpheus
        orpheus.run("CREATE INDEX by_vid ON p__p0_versions (vid)")
        orpheus.run("CREATE INDEX gone ON p__p0_versions (vid)")
        orpheus.run("DROP INDEX gone ON p__p0_versions")
        if checkpoint:
            store.checkpoint()
        expected = tables_of(orpheus)
        crash(store)
        with Store.open(tmp_path / "s", checkpoint_interval=0) as reopened:
            tables = tables_of(reopened.orpheus)
            assert "by_vid" in tables["p__p0_versions"][3]
            assert "gone" not in tables["p__p0_versions"][3]
            assert tables == expected


class TestDeltaReadsLeaveNoTables:
    """Every ``VERSION n OF CVD`` read of a delta CVD materializes the
    version into a temporary table; the read must drop it again."""

    READS = [
        "SELECT count(*) FROM VERSION 2 OF CVD d",
        "SELECT count(*) FROM VERSION 2 OF CVD d",
        "SELECT k FROM VERSION 4, 3 OF CVD d WHERE v > 3",
        "PROFILE SELECT count(*) FROM VERSION 3 OF CVD d",
    ]

    @classmethod
    def run_reads(cls, orpheus):
        before = orpheus.db.table_names()
        for sql in cls.READS:
            orpheus.run(sql)
        assert orpheus.run(cls.READS[0]).scalar() == 12
        with pytest.raises(ReproError):
            orpheus.run("SELECT no_such_column FROM VERSION 2 OF CVD d")
        assert orpheus.db.table_names() == before

    def test_rw_store_reads_and_checkpoint(self, tmp_path):
        store = Store.open(tmp_path / "s", checkpoint_interval=0)
        branch_and_merge(store.orpheus, "d", "delta")
        self.run_reads(store.orpheus)
        store.checkpoint()
        names = [table["name"] for table in manifest_of(store)["tables"]]
        assert not [name for name in names if "_materialized_" in name]
        store.close()

    def test_ro_store_reads(self, tmp_path):
        writer = Store.open(tmp_path / "s", checkpoint_interval=0)
        branch_and_merge(writer.orpheus, "d", "delta")
        writer.checkpoint()
        reader = Store.open(tmp_path / "s", mode="ro")
        self.run_reads(reader.orpheus)
        commit_edit(writer.orpheus, "d", 5, "w", "DELETE FROM {t} WHERE k = 7")
        assert reader.refresh().applied == 1
        self.run_reads(reader.orpheus)
        reader.close()
        writer.close()
