"""Read-only store opens: shared locks, zero-write recovery, lsn refresh.

The contract under test (ISSUE 4 tentpole): ``Store.open(mode="ro")``
takes a *shared* advisory lock, recovers purely in memory, provably never
changes a byte on disk, and catches up with a live writer by replaying
only the WAL tail past its last seen lsn.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import (
    PersistenceError,
    ReadOnlyError,
    RecoveryError,
    StoreLockedError,
)
from repro.persist import Store

SRC = str(Path(__file__).resolve().parent.parent / "src")


def tree_hash(root: Path) -> str:
    """Order-stable digest of every file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def build_store(path, checkpoint_interval=0, versions=3):
    """A small CVD history: v1 init, then chained single-row edits."""
    store = Store.open(path, checkpoint_interval=checkpoint_interval)
    orpheus = store.orpheus
    orpheus.init(
        "t",
        [("k", "text"), ("v", "int")],
        rows=[("a", 1), ("b", 2)],
        primary_key=("k",),
    )
    for step in range(versions - 1):
        work = f"w{step}"
        orpheus.checkout("t", step + 1, table_name=work)
        orpheus.run(f"INSERT INTO {work} (k, v) VALUES ('n{step}', {step})")
        orpheus.commit(work, message=f"v{step + 2}")
    return store


class TestLockMatrix:
    def test_reader_coexists_with_live_writer(self, tmp_path):
        writer = build_store(tmp_path / "s")
        reader = Store.open(tmp_path / "s", mode="ro")
        assert reader.orpheus.cvd("t").version_count == 3
        reader.close()
        writer.close()

    def test_reader_coexists_with_reader(self, tmp_path):
        build_store(tmp_path / "s").close()
        a = Store.open(tmp_path / "s", mode="ro")
        b = Store.open(tmp_path / "s", mode="ro")
        assert a.orpheus.checkout_rows("t", 3) == b.orpheus.checkout_rows("t", 3)
        a.close()
        b.close()

    def test_writer_rejected_while_writer_lives(self, tmp_path):
        writer = build_store(tmp_path / "s")
        with pytest.raises(StoreLockedError):
            Store.open(tmp_path / "s")
        writer.close()

    def test_writer_allowed_while_readers_live(self, tmp_path):
        # Chosen policy: readers never block the writer (they catch up via
        # refresh), so serving keeps running across writer restarts.
        build_store(tmp_path / "s").close()
        reader = Store.open(tmp_path / "s", mode="ro")
        writer = Store.open(tmp_path / "s")
        writer.close()
        reader.close()

    def test_writer_usable_again_after_reader_closes(self, tmp_path):
        build_store(tmp_path / "s").close()
        Store.open(tmp_path / "s", mode="ro").close()
        writer = Store.open(tmp_path / "s")
        writer.orpheus.create_user("late")
        writer.close()

    def test_read_only_needs_an_existing_store(self, tmp_path):
        with pytest.raises(PersistenceError):
            Store.open(tmp_path / "missing", mode="ro")
        assert not (tmp_path / "missing").exists()

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            Store.open(tmp_path / "s", mode="rx")


class TestMultiProcessLocks:
    """The same matrix across real process boundaries."""

    @staticmethod
    def try_open(path, mode):
        """(returncode, stderr) of a child process opening the store."""
        script = (
            "import sys\n"
            "from repro.persist import Store\n"
            f"store = Store.open({str(path)!r}, mode={mode!r})\n"
            "print(store.orpheus.cvd('t').version_count)\n"
            "store.close()\n"
        )
        return subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC},
            timeout=60,
        )

    def test_second_process_writer_rejected(self, tmp_path):
        writer = build_store(tmp_path / "s")
        result = self.try_open(tmp_path / "s", "rw")
        assert result.returncode != 0
        assert "in use by another process" in result.stderr
        writer.close()

    def test_second_process_reader_accepted(self, tmp_path):
        writer = build_store(tmp_path / "s")
        result = self.try_open(tmp_path / "s", "ro")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "3"
        writer.close()

    def test_reader_process_next_to_reader(self, tmp_path):
        build_store(tmp_path / "s").close()
        reader = Store.open(tmp_path / "s", mode="ro")
        result = self.try_open(tmp_path / "s", "ro")
        assert result.returncode == 0, result.stderr
        reader.close()


class TestReadOnlyWritesNothing:
    @pytest.mark.parametrize("checkpoint_interval", [0, 2])
    def test_directory_byte_identical(self, tmp_path, checkpoint_interval):
        build_store(tmp_path / "s", checkpoint_interval=checkpoint_interval).close()
        before = tree_hash(tmp_path / "s")
        store = Store.open(tmp_path / "s", mode="ro")
        store.orpheus.checkout_rows("t", [1, 3])
        store.orpheus.run("SELECT count(*) FROM VERSION 2 OF CVD t")
        store.refresh()
        store.close()
        assert tree_hash(tmp_path / "s") == before

    def test_torn_wal_tail_not_truncated(self, tmp_path):
        """A writer open repairs a torn tail; a read-only open must not."""
        build_store(tmp_path / "s").close()
        wal = tmp_path / "s" / "wal.log"
        wal.write_bytes(wal.read_bytes() + b"torn-half-frame")
        before = tree_hash(tmp_path / "s")
        store = Store.open(tmp_path / "s", mode="ro")
        assert store.orpheus.cvd("t").version_count == 3
        store.close()
        assert tree_hash(tmp_path / "s") == before
        # ...and the writer still repairs it afterwards.
        writer = Store.open(tmp_path / "s")
        assert any("torn" in w for w in writer.recovery_warnings)
        writer.close()

    def test_checkout_csv_exports_without_staging(self, tmp_path):
        build_store(tmp_path / "s").close()
        before = tree_hash(tmp_path / "s")
        store = Store.open(tmp_path / "s", mode="ro")
        out = tmp_path / "export.csv"
        store.orpheus.checkout_csv("t", 3, out)
        assert out.read_text().splitlines()[0] == "k,v"
        assert store.orpheus.provenance.staged_names() == []
        store.close()
        assert tree_hash(tmp_path / "s") == before

    def test_mutations_rejected(self, tmp_path):
        build_store(tmp_path / "s").close()
        store = Store.open(tmp_path / "s", mode="ro")
        orpheus = store.orpheus
        with pytest.raises(ReadOnlyError):
            orpheus.init("u", [("x", "int")])
        with pytest.raises(ReadOnlyError):
            orpheus.checkout("t", 1, table_name="w")
        with pytest.raises(ReadOnlyError):
            orpheus.drop("t")
        with pytest.raises(ReadOnlyError):
            orpheus.run("INSERT INTO t__meta (vid) VALUES (99)")
        with pytest.raises(ReadOnlyError):
            orpheus.create_user("eve")
        with pytest.raises(ReadOnlyError):
            orpheus.config("default")
        with pytest.raises(ReadOnlyError):
            orpheus.optimize("t")
        with pytest.raises(ReadOnlyError):
            store.checkpoint()
        # The read path stays open.
        assert len(orpheus.checkout_rows("t", 3)) == 4
        store.close()


class TestRefresh:
    def test_incremental_tail_replay(self, tmp_path):
        writer = build_store(tmp_path / "s")
        reader = Store.open(tmp_path / "s", mode="ro")
        assert reader.orpheus.cvd("t").version_count == 3

        writer.orpheus.checkout("t", 3, table_name="w")
        writer.orpheus.run("INSERT INTO w (k, v) VALUES ('z', 9)")
        writer.orpheus.commit("w", message="v4")

        result = reader.refresh()
        assert result.applied == 1
        assert not result.full_reload
        assert result.touched_cvds == {"t"}
        assert reader.last_lsn == writer.last_lsn
        expected = writer.orpheus.checkout_rows("t", 4)
        assert reader.orpheus.checkout_rows("t", 4) == expected
        # Caught up: the next refresh applies nothing.
        again = reader.refresh()
        assert again.applied == 0 and not again.full_reload
        writer.close()
        reader.close()

    def test_refresh_after_checkpoint_full_reload(self, tmp_path):
        writer = build_store(tmp_path / "s")
        reader = Store.open(tmp_path / "s", mode="ro")
        writer.orpheus.checkout("t", 3, table_name="w")
        writer.orpheus.run("INSERT INTO w (k, v) VALUES ('z', 9)")
        writer.orpheus.commit("w", message="v4")
        writer.checkpoint()  # compacts the tail the reader never saw
        result = reader.refresh()
        assert result.full_reload
        assert reader.orpheus.cvd("t").version_count == 4
        writer.close()
        reader.close()

    def test_refresh_classifies_schema_evolution(self, tmp_path):
        writer = build_store(tmp_path / "s")
        reader = Store.open(tmp_path / "s", mode="ro")
        writer.orpheus.checkout("t", 3, table_name="w")
        writer.orpheus.run("ALTER TABLE w ADD COLUMN note text")
        writer.orpheus.commit("w", message="wider")
        result = reader.refresh()
        assert result.schema_changed_cvds == {"t"}
        assert "note" in reader.orpheus.cvd("t").data_schema.column_names
        writer.close()
        reader.close()

    def test_refresh_classifies_migration(self, tmp_path):
        writer = build_store(tmp_path / "s", versions=6)
        reader = Store.open(tmp_path / "s", mode="ro")
        writer.orpheus.optimize("t", storage_threshold=4.0, tolerance=1.2)
        result = reader.refresh()
        assert "t" in result.touched_cvds
        assert reader.orpheus.cvd("t").model.model_name == "partitioned_rlist"
        expected = writer.orpheus.checkout_rows("t", 6)
        assert reader.orpheus.checkout_rows("t", 6) == expected
        writer.close()
        reader.close()

    def test_refresh_after_checkpoint_at_readers_lsn_and_wal_regrowth(
        self, tmp_path
    ):
        """Regression: the writer checkpoints at exactly the reader's lsn
        (CURRENT's last_lsn not ahead, so no full reload) and the new log
        regrows past the reader's remembered byte offset.  The offset is
        meaningless in the replaced file — refresh must detect the swap
        and rescan from the head instead of silently applying nothing."""
        writer = Store.open(tmp_path / "s", checkpoint_interval=0)
        writer.orpheus.init(
            "t", [("k", "text"), ("v", "int")], rows=[("a", 1)], primary_key=("k",)
        )
        reader = Store.open(tmp_path / "s", mode="ro")
        assert reader.last_lsn == writer.last_lsn
        old_offset = reader._wal_offset
        writer.checkpoint()  # truncates the log at the reader's exact lsn
        for step in range(5):  # regrow well past the remembered offset
            work = f"g{step}"
            writer.orpheus.checkout("t", step + 1, table_name=work)
            writer.orpheus.run(f"INSERT INTO {work} (k, v) VALUES ('g{step}', 0)")
            writer.orpheus.commit(work, message=f"regrow {step}")
        assert writer.wal_size_bytes() > old_offset
        result = reader.refresh()
        assert result.applied == 5 and not result.full_reload
        assert reader.last_lsn == writer.last_lsn
        assert reader.orpheus.cvd("t").version_count == 6
        writer.close()
        reader.close()

    def test_refresh_survives_equal_size_wal_swap(self, tmp_path):
        """Regression: a checkpoint at the reader's exact lsn replaces the
        log; if the new file then regrows to *exactly* the remembered
        offset, the size/CRC heuristics see a clean EOF and would report
        "caught up" forever.  The CURRENT-name generation marker must
        catch the swap regardless of byte counts."""
        writer = Store.open(tmp_path / "s", checkpoint_interval=0)
        writer.orpheus.init(
            "t", [("k", "text"), ("v", "int")], rows=[("a", 1)], primary_key=("k",)
        )
        reader = Store.open(tmp_path / "s", mode="ro")
        writer.checkpoint()
        writer.orpheus.create_user("after-swap")  # lsn 2 in the new file
        # Pin the reader's offset to the new file's exact size — the
        # adversarial byte-coincidence the marker exists for.
        reader._wal_offset = writer.wal_size_bytes()
        result = reader.refresh()
        assert result.applied == 1 and not result.full_reload
        assert reader.last_lsn == writer.last_lsn
        assert "after-swap" in reader.orpheus.access._users
        writer.close()
        reader.close()

    def test_refresh_survives_writer_restart_cycles(self, tmp_path):
        build_store(tmp_path / "s").close()
        reader = Store.open(tmp_path / "s", mode="ro")
        for round_number in range(3):
            writer = Store.open(tmp_path / "s", checkpoint_interval=0)
            vid = writer.orpheus.cvd("t").version_count
            work = f"r{round_number}"
            writer.orpheus.checkout("t", vid, table_name=work)
            writer.orpheus.run(
                f"INSERT INTO {work} (k, v) VALUES ('r{round_number}', 0)"
            )
            writer.orpheus.commit(work, message=f"round {round_number}")
            writer.close()
            reader.refresh()
            assert reader.orpheus.cvd("t").version_count == vid + 1
        reader.close()

    def test_load_rejects_wal_compacted_past_the_snapshot(self, tmp_path):
        """Regression: a load whose CURRENT read raced a writer checkpoint
        can see an old snapshot next to a WAL compacted far beyond it.
        Applying the surviving tail would silently skip acknowledged
        records (and poison every lsn-keyed cache entry built on it);
        the load must raise instead, so the retry converges on the fresh
        CURRENT — or, with a genuinely stale pointer, fail loudly."""
        store = Store.open(tmp_path / "s", checkpoint_interval=0)
        store.orpheus.init(
            "t", [("k", "text"), ("v", "int")], rows=[("a", 1)], primary_key=("k",)
        )
        store.checkpoint()  # snapshot S1 at lsn 1
        stale_current = (tmp_path / "s" / "CURRENT").read_bytes()
        for step in range(2):  # lsns 2 and 3
            work = f"w{step}"
            store.orpheus.checkout("t", step + 1, table_name=work)
            store.orpheus.run(f"INSERT INTO {work} (k, v) VALUES ('x{step}', 0)")
            store.orpheus.commit(work, message=f"v{step + 2}")
        store.checkpoint()  # snapshot S2 at lsn 3, WAL compacted to empty
        store.orpheus.create_user("late")  # lsn 4: the only WAL record
        store.close()
        # Freeze the racy view: CURRENT back at S1/lsn 1, WAL holding lsn 4.
        (tmp_path / "s" / "CURRENT").write_bytes(stale_current)
        with pytest.raises(RecoveryError, match="jumps"):
            Store.open(tmp_path / "s", mode="ro")

    def test_refresh_is_read_only_api(self, tmp_path):
        store = build_store(tmp_path / "s")
        with pytest.raises(PersistenceError):
            store.refresh()
        store.close()


class TestLockLeakRegression:
    def test_failed_recovery_releases_the_lock(self, tmp_path):
        """A Store whose _recover raises must not keep the flock: the same
        process's retry used to fail with 'in use by another process'."""
        build_store(tmp_path / "s", checkpoint_interval=2).close()
        current = tmp_path / "s" / "CURRENT"
        good = current.read_bytes()
        current.write_text("not json at all")
        for _ in range(2):  # every retry sees the real error, not the lock
            with pytest.raises(RecoveryError):
                Store.open(tmp_path / "s")
        current.write_bytes(good)
        store = Store.open(tmp_path / "s")  # lock was never leaked
        assert store.orpheus.cvd("t").version_count == 3
        store.close()

    def test_failed_read_only_recovery_releases_the_lock(self, tmp_path):
        build_store(tmp_path / "s", checkpoint_interval=2).close()
        current = tmp_path / "s" / "CURRENT"
        good = current.read_bytes()
        current.write_text("{broken")
        with pytest.raises(RecoveryError):
            Store.open(tmp_path / "s", mode="ro")
        current.write_bytes(good)
        writer = Store.open(tmp_path / "s")
        writer.close()


def drop_pointer_lsn(store_path: Path) -> None:
    current = store_path / "CURRENT"
    info = json.loads(current.read_text())
    del info["last_lsn"]
    current.write_text(json.dumps(info))


class TestCurrentPointerWithoutLsn:
    """CURRENT always carries ``last_lsn``; a pointer without it is refused
    with a typed error, never read as a stale state."""

    @pytest.mark.parametrize("mode", ["rw", "ro"])
    def test_open_refuses(self, tmp_path, mode):
        store = build_store(tmp_path / "s")
        store.checkpoint()
        store.close()
        drop_pointer_lsn(tmp_path / "s")
        with pytest.raises(RecoveryError, match="unreadable CURRENT"):
            Store.open(tmp_path / "s", mode=mode)

    def test_refresh_never_serves_a_stale_state(self, tmp_path):
        writer = build_store(tmp_path / "s")
        writer.checkpoint()
        reader = Store.open(tmp_path / "s", mode="ro")
        lsn = reader.last_lsn
        # The writer moves on and checkpoints: the WAL tail the reader
        # could replay is now empty, only the pointer says where it went.
        writer.orpheus.checkout("t", 3, table_name="w")
        writer.orpheus.run("INSERT INTO w (k, v) VALUES ('z', 1)")
        writer.orpheus.commit("w", message="v4")
        writer.checkpoint()
        drop_pointer_lsn(tmp_path / "s")
        with pytest.raises(RecoveryError, match="unreadable CURRENT"):
            reader.refresh()
        assert reader.last_lsn == lsn
        assert reader.orpheus.cvd("t").version_count == 3
        writer.close()
        reader.close()
