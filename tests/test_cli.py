"""End-to-end tests of the git-style command line."""

import json

import pytest

from repro.cli.main import main


@pytest.fixture
def store(tmp_path):
    return str(tmp_path / "state.orpheusdb")


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "protein1,protein2,score\n"
        "ENSP1,ENSP2,10\n"
        "ENSP3,ENSP4,20\n"
    )
    return str(path)


def run(store, *args):
    return main(["--store", store, *args])


@pytest.fixture
def initialized(store, csv_file):
    assert run(
        store,
        "init",
        "-n", "p",
        "-f", csv_file,
        "-s", "protein1:text,protein2:text,score:int",
        "--primary-key", "protein1,protein2",
    ) == 0
    return store


class TestLifecycle:
    def test_init_ls(self, initialized, capsys):
        assert run(initialized, "ls") == 0
        assert "p: 1 versions, 2 records" in capsys.readouterr().out

    def test_checkout_commit_cycle(self, initialized, capsys):
        assert run(initialized, "checkout", "p", "-v", "1", "-t", "work") == 0
        assert run(
            initialized, "run", "UPDATE work SET score = 99 WHERE score = 10"
        ) == 0
        assert run(initialized, "commit", "-t", "work", "-m", "bump") == 0
        out = capsys.readouterr().out
        assert "committed as version 2" in out
        assert run(
            initialized,
            "run",
            "SELECT score FROM VERSION 2 OF CVD p ORDER BY score",
        ) == 0
        out = capsys.readouterr().out
        assert "99" in out

    def test_csv_checkout_commit(self, initialized, tmp_path, capsys):
        out_csv = str(tmp_path / "w.csv")
        assert run(initialized, "checkout", "p", "-v", "1", "-f", out_csv) == 0
        content = open(out_csv).read().replace("10", "55")
        open(out_csv, "w").write(content)
        assert run(initialized, "commit", "-f", out_csv, "-m", "edit") == 0
        assert "committed as version 2" in capsys.readouterr().out

    def test_diff(self, initialized, capsys):
        run(initialized, "checkout", "p", "-v", "1", "-t", "w")
        run(initialized, "run", "DELETE FROM w WHERE score = 20")
        run(initialized, "commit", "-t", "w")
        assert run(initialized, "diff", "p", "1", "2") == 0
        out = capsys.readouterr().out
        assert "only in version 1: 1 records" in out

    def test_log(self, initialized, capsys):
        run(initialized, "checkout", "p", "-v", "1", "-t", "w")
        run(initialized, "commit", "-t", "w", "-m", "second")
        assert run(initialized, "log", "p") == 0
        out = capsys.readouterr().out
        assert "v2 <- [1]" in out and "second" in out

    def test_optimize(self, initialized, capsys):
        assert run(initialized, "optimize", "p", "--gamma", "2.0") == 0
        assert "partitioned into" in capsys.readouterr().out

    def test_drop(self, initialized, capsys):
        assert run(initialized, "drop", "p") == 0
        run(initialized, "ls")
        assert "p:" not in capsys.readouterr().out


class TestUsers:
    def test_user_flow(self, store, capsys):
        assert run(store, "create_user", "alice") == 0
        assert run(store, "config", "alice") == 0
        assert run(store, "whoami") == 0
        assert "alice" in capsys.readouterr().out


class TestErrors:
    def test_unknown_cvd_returns_nonzero(self, store, capsys):
        assert run(store, "checkout", "ghost", "-v", "1", "-t", "w") == 1
        assert "error" in capsys.readouterr().err

    def test_bad_schema_string(self, store, csv_file, capsys):
        assert run(store, "init", "-n", "x", "-f", csv_file, "-s", "broken") == 1

    def test_commit_unstaged_table(self, initialized, capsys):
        assert run(initialized, "commit", "-t", "nope") == 1


class TestPersistence:
    def test_state_survives_processes(self, initialized, capsys):
        """Each `run` call is a fresh load from the pickle store."""
        run(initialized, "checkout", "p", "-v", "1", "-t", "w")
        run(initialized, "commit", "-t", "w", "-m", "persisted")
        assert run(initialized, "ls") == 0
        assert "2 versions" in capsys.readouterr().out


class TestCheckpointCommand:
    def test_checkpoint_compacts_wal(self, initialized, capsys):
        from pathlib import Path

        assert run(initialized, "checkpoint") == 0
        assert "checkpointed to snap-" in capsys.readouterr().out
        store_dir = Path(initialized)
        assert (store_dir / "CURRENT").exists()
        assert (store_dir / "wal.log").stat().st_size == 0
        # State is intact after the checkpoint.
        assert run(initialized, "ls") == 0
        assert "p: 1 versions" in capsys.readouterr().out

    def test_store_is_a_directory_with_wal(self, initialized):
        from pathlib import Path

        store_dir = Path(initialized)
        assert store_dir.is_dir()
        assert (store_dir / "wal.log").exists()


class TestLegacyPickleStore:
    @pytest.fixture
    def legacy_store(self, tmp_path):
        """An existing pickle-file store, as written by older releases."""
        import pickle

        from repro.core.orpheus import OrpheusDB

        path = tmp_path / "legacy.orpheusdb"
        with path.open("wb") as handle:
            pickle.dump(OrpheusDB(), handle)
        return str(path)

    def test_legacy_file_round_trip(self, legacy_store, csv_file, capsys):
        from pathlib import Path

        assert run(
            legacy_store,
            "init", "-n", "p", "-f", csv_file,
            "-s", "protein1:text,protein2:text,score:int",
        ) == 0
        assert Path(legacy_store).is_file()  # still a pickle, not a dir
        assert run(legacy_store, "ls") == 0
        assert "p: 1 versions" in capsys.readouterr().out

    def test_pre_journal_pickle_missing_attributes(self, tmp_path, csv_file):
        """Pickles written before the journal hooks existed lack the new
        attributes; every command, `run` included, must still work."""
        import pickle

        from repro.core.orpheus import OrpheusDB

        orpheus = OrpheusDB()
        for attr in ("_journal", "_replaying", "_ephemeral_dirty"):
            delattr(orpheus, attr)
        path = tmp_path / "old.orpheusdb"
        with path.open("wb") as handle:
            pickle.dump(orpheus, handle)

        assert run(
            str(path),
            "init", "-n", "p", "-f", csv_file,
            "-s", "protein1:text,protein2:text,score:int",
        ) == 0
        assert run(str(path), "run", "SELECT count(*) FROM VERSION 1 OF CVD p") == 0

    def test_legacy_save_leaves_no_temp_file(self, legacy_store, csv_file):
        from pathlib import Path

        run(
            legacy_store,
            "init", "-n", "p", "-f", csv_file,
            "-s", "protein1:text,protein2:text,score:int",
        )
        leftovers = [
            p.name
            for p in Path(legacy_store).parent.iterdir()
            if p.name.endswith(".tmp")
        ]
        assert leftovers == []


class TestOptimizedStatePersistence:
    def test_commit_after_optimize_across_processes(self, initialized, capsys):
        """Partitioned state survives CLI invocations after `optimize`:
        the WAL replays the optimize op (or a snapshot restores the model
        state plus the optimizer's decision state), and commits keep
        working under the live placement policy."""
        assert run(initialized, "optimize", "p", "--gamma", "2.0") == 0
        assert run(initialized, "checkout", "p", "-v", "1", "-t", "w") == 0
        assert run(initialized, "commit", "-t", "w", "-m", "post") == 0
        assert run(initialized, "run", "SELECT count(*) FROM VERSION 2 OF CVD p") == 0
        out = capsys.readouterr().out
        assert "committed as version 2" in out


class TestStatusCommand:
    def test_status_before_optimize(self, initialized, capsys):
        assert run(initialized, "status") == 0
        out = capsys.readouterr().out
        assert "store:" in out
        assert "wal:" in out
        assert "p: 1 versions, 2 records" in out
        assert "optimizer" not in out  # unpartitioned CVDs have none

    def test_status_reports_live_optimizer_across_processes(self, initialized, capsys):
        """The optimizer state `status` reports comes from the store, so
        it must survive the process boundary between CLI invocations."""
        assert run(initialized, "optimize", "p") == 0
        assert run(initialized, "checkout", "p", "-v", "1", "-t", "w") == 0
        assert run(initialized, "commit", "-t", "w", "-m", "more") == 0
        capsys.readouterr()
        assert run(initialized, "status") == 0
        out = capsys.readouterr().out
        assert "(partitioned_rlist)" in out
        assert "optimizer: live" in out
        assert "delta*" in out
        # One maintenance sample: the commit after optimize.
        assert "1 samples" in out

    def test_status_explains_the_last_maintenance_check(self, initialized, capsys):
        assert run(initialized, "optimize", "p", "--tolerance", "1.5") == 0
        capsys.readouterr()
        assert run(initialized, "status") == 0
        assert "last check: none yet" in capsys.readouterr().out
        assert run(initialized, "checkout", "p", "-v", "1", "-t", "w") == 0
        assert run(initialized, "commit", "-t", "w", "-m", "more") == 0
        capsys.readouterr()
        assert run(initialized, "status") == 0
        out = capsys.readouterr().out
        # Both versions hold the same 2 records: no layout beats Cavg = 2.
        assert "last check: Cavg 2.0 / C*avg 2.0 = 1.00 (migrates above mu 1.5)" in out

    def test_status_json_includes_optimizer_block(self, initialized, capsys):
        assert run(initialized, "status", "--json") == 0
        assert json.loads(capsys.readouterr().out)["cvds"][0]["optimizer"] is None
        assert run(initialized, "optimize", "p") == 0
        assert run(initialized, "checkout", "p", "-v", "1", "-t", "w") == 0
        assert run(initialized, "commit", "-t", "w", "-m", "more") == 0
        capsys.readouterr()
        assert run(initialized, "status", "--json") == 0
        block = json.loads(capsys.readouterr().out)["cvds"][0]["optimizer"]
        assert block == {
            "delta_star": block["delta_star"],
            "gamma": 4.0,  # 2 x |R|
            "storage_multiple": 2.0,
            "storage": 4,  # the commit opened its own partition
            "cavg": 2.0,
            "mu": 1.5,
            "partitions": 2,
            "samples": 1,
            "migrations": 0,
            "last_check": {
                "version_count": 2,
                "current_cavg": 2.0,
                "best_cavg": 2.0,
                "ratio": 1.0,
            },
            "pending_migration": None,
        }
        assert 0 < block["delta_star"] <= 1

    def test_status_on_empty_store(self, store, capsys):
        assert run(store, "status") == 0
        assert "no CVDs" in capsys.readouterr().out

    def test_status_reports_dag_shape(self, initialized, capsys):
        assert run(initialized, "status") == 0
        out = capsys.readouterr().out
        # A fresh one-version CVD: no merges, depth 1, index not yet built.
        assert "dag: 1 versions, 0 merges, max depth 1, lineage index stale" in out

    def test_status_json_includes_dag_shape(self, initialized, capsys):
        assert run(initialized, "status", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        shape = doc["cvds"][0]["dag"]
        assert shape == {
            "versions": 1,
            "merges": 0,
            "max_depth": 1,
            "lineage_index": "stale",
        }


class TestReadOnlyCLI:
    def test_ro_flag_serves_reads(self, initialized, capsys):
        assert run(initialized, "--ro", "ls") == 0
        assert "p: 1 versions" in capsys.readouterr().out
        assert run(initialized, "--ro", "status") == 0
        assert "(read-only view)" in capsys.readouterr().out
        assert run(
            initialized, "--ro", "run",
            "SELECT count(*) FROM VERSION 1 OF CVD p",
        ) == 0

    def test_ro_flag_rejects_writes(self, initialized, capsys):
        assert run(initialized, "--ro", "checkout", "p", "-v", "1", "-t", "w") == 1
        assert "read-only" in capsys.readouterr().err
        assert run(initialized, "--ro", "run", "DELETE FROM p__meta") == 1
        assert "read-only" in capsys.readouterr().err
        assert run(initialized, "--ro", "checkpoint") == 1
        assert "read-only" in capsys.readouterr().err

    def test_ro_checkout_csv_exports(self, initialized, tmp_path, capsys):
        out_csv = tmp_path / "export.csv"
        assert run(
            initialized, "--ro", "checkout", "p", "-v", "1", "-f", str(out_csv)
        ) == 0
        assert out_csv.read_text().startswith("protein1,")

    def test_locked_store_hints_at_ro_for_read_commands(self, initialized, capsys):
        """A store held by another process: read-only commands get a clean
        'retry or use --ro' message instead of the raw lock error."""
        from repro.persist import Store

        writer = Store.open(initialized)
        try:
            assert run(initialized, "status") == 1
            err = capsys.readouterr().err
            assert "in use by another process" in err
            assert "--ro" in err
            # Mutating commands get the message without the --ro hint.
            assert run(initialized, "create_user", "bob") == 1
            err = capsys.readouterr().err
            assert "in use by another process" in err
            assert "--ro" not in err
            # checkout -t stages a table, so its hint must not suggest
            # --ro (which would reject it); the -f export form keeps it.
            assert run(initialized, "checkout", "p", "-v", "1", "-t", "w") == 1
            assert "--ro" not in capsys.readouterr().err
            assert run(initialized, "checkout", "p", "-v", "1", "-f", "x.csv") == 1
            assert "--ro" in capsys.readouterr().err
            # And --ro actually works while the writer lives.
            assert run(initialized, "--ro", "ls") == 0
            assert "p: 1 versions" in capsys.readouterr().out
        finally:
            writer.close()

    def test_ro_on_missing_store_is_clean(self, tmp_path, capsys):
        assert run(str(tmp_path / "ghost"), "--ro", "ls") == 1
        assert "error" in capsys.readouterr().err

    def test_ro_on_legacy_pickle_rejects_writes_and_never_saves(
        self, tmp_path, capsys
    ):
        import pickle

        from repro.core.orpheus import OrpheusDB

        path = tmp_path / "legacy.orpheusdb"
        with path.open("wb") as handle:
            pickle.dump(OrpheusDB(), handle)
        before = path.read_bytes()
        assert run(str(path), "--ro", "create_user", "bob") == 1
        assert "read-only" in capsys.readouterr().err
        assert run(str(path), "--ro", "checkpoint") == 1
        assert "--ro never writes" in capsys.readouterr().err
        assert run(str(path), "--ro", "whoami") == 0
        assert run(str(path), "--ro", "run", "SELECT 1") == 0
        assert path.read_bytes() == before  # the pickle was never rewritten
