"""Snapshot -> recover equality for every data model, plus store behaviour.

The protein history of Figure 1 (edit, delete, merge) is driven through a
:class:`repro.persist.Store` for each of the six data models; after a
checkpoint and a cold reopen, every materialized version must be
byte-identical and the middleware metadata (graph, clock, users, staging)
must survive.
"""

import pytest

from repro.core.datamodels import MODEL_REGISTRY
from repro.errors import PersistenceError
from repro.persist import Store
from repro.persist import store as store_module

import wal_session

ALL_MODELS = sorted(MODEL_REGISTRY)

SCHEMA = [
    ("protein1", "text"),
    ("protein2", "text"),
    ("neighborhood", "int"),
    ("cooccurrence", "int"),
    ("coexpression", "int"),
]
ROWS = [
    ("ENSP273047", "ENSP261890", 0, 53, 0),
    ("ENSP273047", "ENSP235932", 0, 87, 0),
    ("ENSP300413", "ENSP274242", 426, 0, 164),
]


def build_history(orpheus, model):
    """Figure 1's four versions: root, edit+insert, delete, merge."""
    orpheus.init(
        "proteins",
        SCHEMA,
        rows=ROWS,
        model=model,
        primary_key=("protein1", "protein2"),
    )
    orpheus.checkout("proteins", 1, table_name="w2")
    orpheus.run(
        "UPDATE w2 SET coexpression = 83 "
        "WHERE protein1 = 'ENSP273047' AND protein2 = 'ENSP261890'"
    )
    orpheus.run("INSERT INTO w2 VALUES (NULL, 'ENSP309334', 'ENSP346022', 0, 227, 975)")
    orpheus.commit("w2", message="rescore + discover")
    orpheus.checkout("proteins", 1, table_name="w3")
    orpheus.run("DELETE FROM w3 WHERE protein1 = 'ENSP300413'")
    orpheus.commit("w3", message="prune")
    orpheus.checkout("proteins", [2, 3], table_name="w4")
    orpheus.commit("w4", message="merge")


def materialize_all(orpheus, name="proteins"):
    cvd = orpheus.cvd(name)
    return {vid: cvd.checkout_rows([vid]) for vid in cvd.graph.version_ids()}


@pytest.mark.parametrize("model", ALL_MODELS)
class TestSnapshotRecoverEquality:
    def test_all_versions_byte_identical(self, tmp_path, model):
        store = Store.open(tmp_path / "store")
        build_history(store.orpheus, model)
        expected = materialize_all(store.orpheus)
        store.checkpoint()
        store.close()

        reopened = Store.open(tmp_path / "store")
        assert materialize_all(reopened.orpheus) == expected
        # Recovery must come from the snapshot: the WAL was compacted.
        assert reopened.wal_size_bytes() == 0

    def test_metadata_survives(self, tmp_path, model):
        store = Store.open(tmp_path / "store")
        orpheus = store.orpheus
        orpheus.create_user("alice")
        orpheus.config("alice")
        build_history(orpheus, model)
        expected_log = orpheus.version_log("proteins")
        expected_clock = orpheus._clock
        expected_counts = orpheus.checkout_frequencies("proteins")
        store.checkpoint()
        store.close()

        orpheus = Store.open(tmp_path / "store").orpheus
        assert orpheus.whoami() == "alice"
        assert orpheus.version_log("proteins") == expected_log
        assert orpheus._clock == expected_clock
        assert orpheus.checkout_frequencies("proteins") == expected_counts
        assert orpheus.cvd("proteins").model.model_name == model

    def test_commit_keeps_working_after_reopen(self, tmp_path, model):
        store = Store.open(tmp_path / "store")
        build_history(store.orpheus, model)
        store.checkpoint()
        store.close()

        store = Store.open(tmp_path / "store")
        orpheus = store.orpheus
        orpheus.checkout("proteins", 4, table_name="w5")
        orpheus.run("DELETE FROM w5 WHERE protein1 = 'ENSP309334'")
        vid = orpheus.commit("w5", message="post-recovery")
        assert vid == 5
        assert orpheus.cvd("proteins").version(5).num_records == 3

    def test_staged_checkout_survives_checkpoint(self, tmp_path, model):
        store = Store.open(tmp_path / "store")
        orpheus = store.orpheus
        build_history(orpheus, model)
        orpheus.checkout("proteins", 2, table_name="work")
        orpheus.run("UPDATE work SET neighborhood = 7")
        staged_rows = sorted(orpheus.db.table("work").rows())
        store.checkpoint()
        store.close()

        orpheus = Store.open(tmp_path / "store").orpheus
        assert orpheus.provenance.staged_names() == ["work"]
        assert sorted(orpheus.db.table("work").rows()) == staged_rows
        vid = orpheus.commit("work", message="resumed staging")
        assert orpheus.cvd("proteins").version(vid).message == "resumed staging"


class TestStoreBehaviour:
    def test_schema_evolution_round_trip(self, tmp_path):
        store = Store.open(tmp_path / "store")
        orpheus = store.orpheus
        orpheus.init("t", [("k", "text"), ("v", "int")], rows=[("a", 1)])
        orpheus.checkout("t", 1, table_name="w")
        orpheus.run("ALTER TABLE w ADD COLUMN extra text DEFAULT 'x'")
        orpheus.commit("w", message="wider")
        expected = materialize_all(orpheus, "t")
        schema = [c.name for c in orpheus.cvd("t").data_schema.columns]
        store.checkpoint()
        store.close()

        orpheus = Store.open(tmp_path / "store").orpheus
        assert [c.name for c in orpheus.cvd("t").data_schema.columns] == schema
        assert materialize_all(orpheus, "t") == expected

    def test_auto_checkpoint_compacts_wal(self, tmp_path):
        store = Store.open(tmp_path / "store", checkpoint_interval=2)
        orpheus = store.orpheus
        orpheus.create_user("a")
        assert store.wal_size_bytes() > 0
        orpheus.create_user("b")  # second record triggers the checkpoint
        assert store.wal_size_bytes() == 0
        assert (store.path / "CURRENT").exists()
        store.close()
        reopened = Store.open(tmp_path / "store")
        assert reopened.orpheus.access.has_user("a")
        assert reopened.orpheus.access.has_user("b")

    def test_wal_byte_threshold_triggers_checkpoint(self, tmp_path, monkeypatch):
        """One big record (a bulk init) must not be re-replayed on every
        open until the record-count interval fills up."""
        monkeypatch.setattr(store_module, "CHECKPOINT_BYTES", 256)
        store = Store.open(tmp_path / "store")
        store.orpheus.init("big", [("v", "int")], rows=[(i,) for i in range(100)])
        # The init record alone crossed the byte threshold.
        assert (store.path / "CURRENT").exists()
        assert store.wal_size_bytes() == 0
        store.close()

    def test_large_replayed_tail_checkpoints_at_open(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "CHECKPOINT_BYTES", 256)
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        store.orpheus.init("big", [("v", "int")], rows=[(i,) for i in range(100)])
        store.close(sync=False)
        assert not (tmp_path / "store" / "CURRENT").exists()

        reopened = Store.open(tmp_path / "store")
        # Recovery replayed a big tail and immediately compacted it.
        assert (reopened.path / "CURRENT").exists()
        assert reopened.wal_size_bytes() == 0
        assert reopened.orpheus.cvd("big").version_count == 1
        reopened.close()

    def test_checkpoint_prunes_old_snapshots(self, tmp_path):
        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        for index in range(5):
            store.orpheus.create_user(f"user{index}")
            store.checkpoint()
        snapshots = sorted(entry.name for entry in (store.path / "snapshots").iterdir())
        assert len(snapshots) == 2  # retention: active + one predecessor
        store.close()

    def test_drop_round_trip(self, tmp_path):
        store = Store.open(tmp_path / "store")
        orpheus = store.orpheus
        orpheus.init("gone", [("x", "int")], rows=[(1,)])
        orpheus.init("kept", [("x", "int")], rows=[(2,)])
        orpheus.drop("gone")
        store.close()
        orpheus = Store.open(tmp_path / "store").orpheus
        assert orpheus.ls() == ["kept"]

    def test_durable_sql_round_trip(self, tmp_path):
        """DML against a non-staged table is journaled and replayed."""
        store = Store.open(tmp_path / "store")
        orpheus = store.orpheus
        orpheus.run("CREATE TABLE notes (id INT, body TEXT)")
        orpheus.run("INSERT INTO notes VALUES (1, 'hello')")
        store.close(sync=False)  # no checkpoint: force WAL-only recovery
        orpheus = Store.open(tmp_path / "store").orpheus
        assert orpheus.run("SELECT body FROM notes").scalar() == "hello"

    def test_restore_covers_every_constructor_attribute(self, tmp_path):
        """Snapshot restore rebuilds objects via __new__, mirroring their
        constructors field by field; this guards the mirror against new
        attributes being added to __init__ but forgotten in restore."""
        from repro.core.orpheus import OrpheusDB

        store = Store.open(tmp_path / "store")
        build_history(store.orpheus, "split_by_rlist")
        store.checkpoint()
        store.close()
        restored = Store.open(tmp_path / "store").orpheus

        fresh = OrpheusDB()
        assert set(vars(fresh)) <= set(vars(restored))
        fresh.init("proteins", SCHEMA, rows=ROWS)
        fresh_cvd = fresh.cvd("proteins")
        restored_cvd = restored.cvd("proteins")
        assert set(vars(fresh_cvd)) <= set(vars(restored_cvd))

    def test_open_on_legacy_pickle_file_raises(self, tmp_path):
        legacy = tmp_path / "state.orpheusdb"
        legacy.write_bytes(b"not a directory")
        with pytest.raises(PersistenceError):
            Store.open(legacy)

    def test_checkpoint_does_not_charge_io_stats(self, tmp_path):
        """Snapshots must not inflate the records-touched counters the
        paper's cost-model benchmarks observe."""
        store = Store.open(tmp_path / "store")
        store.orpheus.init("t", [("v", "int")], rows=[(i,) for i in range(50)])
        store.orpheus.db.reset_stats()
        store.checkpoint()
        assert store.orpheus.db.stats.records_scanned == 0
        store.close()

    def test_failed_mutating_script_forces_barrier_on_next_op(self, tmp_path):
        """A script failing after partial effects leaves unjournaled state;
        the next journaled op must checkpoint so recovery never replays on
        top of a diverged base (previously this could brick Store.open)."""
        from repro.errors import ReproError

        store = Store.open(tmp_path / "store", checkpoint_interval=0)
        orpheus = store.orpheus
        orpheus.run("CREATE TABLE a (x INT)")
        with pytest.raises(ReproError):
            # First DROP applies, second fails: partial, unjournaled.
            orpheus.run("DROP TABLE a; DROP TABLE nope")
        assert not orpheus.db.has_table("a")
        orpheus.run("CREATE TABLE a (x INT)")  # journaled, barrier-flagged
        assert (store.path / "CURRENT").exists()  # barrier checkpointed
        crash_wal = store.wal_size_bytes()
        assert crash_wal == 0  # compacted: nothing left to replay badly
        store.close(sync=False)

        recovered = Store.open(tmp_path / "store", checkpoint_interval=0)
        assert recovered.orpheus.db.has_table("a")
        recovered.close()

    def test_failed_journal_append_forces_barrier_on_next_op(self):
        """An op that applied in memory but whose append raised (disk
        full) must make the next journaled record a barrier, or recovery
        would replay it against a state missing the lost op."""
        from repro.core.orpheus import OrpheusDB

        class FailOnce(wal_session.Journal):
            fail = True

            def append(self, body, barrier):
                if self.fail:
                    self.fail = False
                    raise OSError("disk full")
                super().append(body, barrier)

        orpheus = OrpheusDB()
        journal = FailOnce()
        orpheus.attach_journal(journal)
        with pytest.raises(OSError):
            orpheus.init("x", [("v", "int")], rows=[(1,)])
        orpheus.create_user("next")
        assert journal.records[0]["barrier"] is True

    def test_concurrent_open_is_refused(self, tmp_path):
        """A second opener would append duplicate lsns and lose them at
        the first opener's compaction — it must fail fast instead."""
        first = Store.open(tmp_path / "store")
        first.orpheus.create_user("held")
        with pytest.raises(PersistenceError, match="in use"):
            Store.open(tmp_path / "store")
        first.close()
        second = Store.open(tmp_path / "store")  # released on close
        assert second.orpheus.access.has_user("held")
        second.close()

    def test_optimize_round_trip(self, tmp_path):
        store = Store.open(tmp_path / "store")
        orpheus = store.orpheus
        build_history(orpheus, "split_by_rlist")
        expected = materialize_all(orpheus)
        orpheus.optimize("proteins")
        assert materialize_all(orpheus) == expected
        store.close(sync=False)  # replay the optimize op from the WAL
        orpheus = Store.open(tmp_path / "store").orpheus
        assert orpheus.cvd("proteins").model.model_name == "partitioned_rlist"
        assert materialize_all(orpheus) == expected
