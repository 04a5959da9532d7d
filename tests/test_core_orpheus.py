"""Integration tests for the OrpheusDB facade: the paper's command set."""

import pytest

from repro.errors import (
    PermissionDeniedError,
    StagingError,
    VersioningError,
)
from repro.persist import Store
from repro.persist.store import WAL_NAME
from tests.conftest import PAPER_ROWS
from repro.workloads.protein import PROTEIN_COLUMNS, PROTEIN_PRIMARY_KEY


class TestInitLsDrop:
    def test_init_and_ls(self, orpheus):
        orpheus.init("a", [("x", "int")], rows=[(1,)])
        orpheus.init("b", [("y", "text")], rows=[("q",)])
        assert orpheus.ls() == ["a", "b"]

    def test_duplicate_init_rejected(self, orpheus):
        orpheus.init("a", [("x", "int")])
        with pytest.raises(VersioningError):
            orpheus.init("a", [("x", "int")])

    def test_drop_removes_backing_tables(self, orpheus):
        orpheus.init("a", [("x", "int")], rows=[(1,)])
        orpheus.drop("a")
        assert orpheus.ls() == []
        assert not [t for t in orpheus.db.table_names() if t.startswith("a__")]

    def test_drop_with_staged_checkout_rejected(self, orpheus):
        orpheus.init("a", [("x", "int")], rows=[(1,)])
        orpheus.checkout("a", 1, table_name="w")
        with pytest.raises(StagingError):
            orpheus.drop("a")

    def test_init_from_table(self, orpheus):
        orpheus.db.execute("CREATE TABLE src (x int)")
        orpheus.db.execute("INSERT INTO src VALUES (1), (2)")
        cvd = orpheus.init_from_table("a", "src")
        assert cvd.record_count == 2

    @pytest.mark.parametrize("name", ["Sales", "my-data", "1st", "a b", ""])
    def test_init_refuses_a_name_tables_cannot_carry(self, tmp_path, name):
        # Every backing table is named after the CVD: a name SQL text
        # would lowercase or split must fail before any table exists.
        store = Store.open(tmp_path / "s", checkpoint_interval=0)
        orpheus = store.orpheus
        orpheus.init("a", [("x", "int")], rows=[(1,)])
        tables = set(orpheus.db.table_names())
        wal = (tmp_path / "s" / WAL_NAME).read_bytes()
        with pytest.raises(VersioningError, match="must match"):
            orpheus.init(name, [("x", "int")], rows=[(1,)])
        assert set(orpheus.db.table_names()) == tables
        assert orpheus.ls() == ["a"]
        assert (tmp_path / "s" / WAL_NAME).read_bytes() == wal
        orpheus.init("sales", [("x", "int")], rows=[(1,)])
        assert orpheus.checkout_rows("sales", 1) == [(1, 1)]
        store.close()


class TestCheckoutCommitCycle:
    def test_figure1_history(self, protein_cvd):
        """The conftest fixture recreates Figure 1; verify its shape."""
        cvd = protein_cvd
        assert cvd.version_count == 4
        assert cvd.record_count == 5  # r1..r5 of Figure 1c
        assert cvd.version(4).parents == (2, 3)
        # v4 merges v2 (4 records) and v3 (2 records): r4 wins the PK clash
        # with r1, so v4 = {r2 r3 r4 r5} ... plus nothing else.
        assert len(cvd.member_rids(4)) == 4

    def test_commit_drops_staging_table(self, orpheus):
        orpheus.init("a", [("x", "int")], rows=[(1,)])
        orpheus.checkout("a", 1, table_name="w")
        orpheus.commit("w")
        assert not orpheus.db.has_table("w")
        with pytest.raises(StagingError):
            orpheus.commit("w")

    def test_checkout_existing_table_rejected(self, orpheus):
        orpheus.init("a", [("x", "int")], rows=[(1,)])
        orpheus.db.execute("CREATE TABLE w (x int)")
        with pytest.raises(StagingError):
            orpheus.checkout("a", 1, table_name="w")

    def test_double_checkout_same_name_rejected(self, orpheus):
        orpheus.init("a", [("x", "int")], rows=[(1,)])
        orpheus.checkout("a", 1, table_name="w")
        with pytest.raises(StagingError):
            orpheus.checkout("a", 1, table_name="w")

    def test_checkout_unknown_version(self, orpheus):
        orpheus.init("a", [("x", "int")], rows=[(1,)])
        from repro.errors import VersionNotFoundError

        with pytest.raises(VersionNotFoundError):
            orpheus.checkout("a", 9, table_name="w")

    def test_commit_records_checkout_and_commit_times(self, orpheus):
        orpheus.init("a", [("x", "int")], rows=[(1,)])
        orpheus.checkout("a", 1, table_name="w")
        vid = orpheus.commit("w")
        version = orpheus.cvd("a").version(vid)
        assert version.checkout_time is not None
        assert version.commit_time > version.checkout_time


class TestUsersAndAccess:
    def test_create_login_whoami(self, orpheus):
        orpheus.create_user("alice")
        orpheus.config("alice")
        assert orpheus.whoami() == "alice"

    def test_duplicate_user_rejected(self, orpheus):
        orpheus.create_user("alice")
        with pytest.raises(VersioningError):
            orpheus.create_user("alice")

    def test_unknown_login_rejected(self, orpheus):
        with pytest.raises(PermissionDeniedError):
            orpheus.config("mallory")

    def test_staged_table_private_to_owner(self, orpheus):
        orpheus.create_user("alice")
        orpheus.create_user("bob")
        orpheus.init("a", [("x", "int")], rows=[(1,)])
        orpheus.config("alice")
        orpheus.checkout("a", 1, table_name="w")
        orpheus.config("bob")
        with pytest.raises(PermissionDeniedError):
            orpheus.commit("w")
        orpheus.config("alice")
        assert orpheus.commit("w") == 2


class TestCSVWorkflow:
    def test_checkout_commit_csv_roundtrip(self, orpheus, tmp_path):
        orpheus.init(
            "p",
            PROTEIN_COLUMNS,
            rows=PAPER_ROWS,
            primary_key=PROTEIN_PRIMARY_KEY,
        )
        path = tmp_path / "work.csv"
        orpheus.checkout_csv("p", 1, path)
        text = path.read_text()
        assert "protein1" in text.splitlines()[0]
        assert "rid" not in text.splitlines()[0]  # rids stay internal
        # External edit: rescore one row, append a new one.
        lines = text.strip().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",83"
        lines.append("ENSP309334,ENSP346022,0,227,975")
        path.write_text("\n".join(lines) + "\n")
        vid = orpheus.commit_csv(path, message="external edit")
        cvd = orpheus.cvd("p")
        assert cvd.version_count == 2
        # 2 unchanged rows matched by value; 2 fresh records created.
        assert cvd.record_count == 5
        assert len(cvd.member_rids(vid)) == 4

    def test_init_from_csv(self, orpheus, tmp_path):
        path = tmp_path / "init.csv"
        path.write_text("x,y\n1,a\n2,b\n")
        cvd = orpheus.init_from_csv("c", path, [("x", "int"), ("y", "text")])
        assert cvd.record_count == 2
        rows = sorted(r[1:] for r in cvd.checkout_rows([1]))
        assert rows == [(1, "a"), (2, "b")]

    def test_init_from_csv_blank_typed_fields_are_null(self, orpheus, tmp_path):
        """An empty cell in an INT/REAL column is NULL, not a crash."""
        path = tmp_path / "blank.csv"
        path.write_text("k,score,ratio,note\na,,0.5,\nb,2,,hi\n")
        cvd = orpheus.init_from_csv(
            "c",
            path,
            [("k", "text"), ("score", "int"), ("ratio", "real"), ("note", "text")],
        )
        rows = sorted(r[1:] for r in cvd.checkout_rows([1]))
        # TEXT keeps the empty string (a legitimate value); INT/REAL blank
        # cells become NULL.
        assert rows == [("a", None, 0.5, ""), ("b", 2, None, "hi")]

    def test_csv_roundtrip_preserves_nulls(self, orpheus, tmp_path):
        """checkout_csv writes NULL as an empty cell; commit_csv reads it
        back as NULL instead of raising TypeMismatchError."""
        orpheus.init(
            "c",
            [("k", "text"), ("score", "int")],
            rows=[("a", None), ("b", 2)],
            primary_key=("k",),
        )
        path = tmp_path / "work.csv"
        orpheus.checkout_csv("c", 1, path)
        assert path.read_text() == "k,score\na,\nb,2\n"
        # External edit adds another blank-scored row.
        path.write_text(path.read_text() + "d,\n")
        vid = orpheus.commit_csv(path, message="blank survives")
        rows = sorted(r[1:] for r in orpheus.cvd("c").checkout_rows([vid]))
        assert rows == [("a", None), ("b", 2), ("d", None)]
        # Unchanged rows matched by value: no fresh rids for a and b.
        assert orpheus.cvd("c").record_count == 3


class TestRunSQL:
    def test_version_query(self, protein_cvd, orpheus):
        result = orpheus.run("SELECT count(*) FROM VERSION 2 OF CVD proteins")
        assert result.rows == [(4,)]

    def test_aggregate_across_versions(self, protein_cvd, orpheus):
        result = orpheus.run(
            "SELECT vid, count(*) AS n FROM ALL VERSIONS OF CVD proteins "
            "AS av GROUP BY vid ORDER BY vid"
        )
        assert result.rows == [(1, 3), (2, 4), (3, 2), (4, 4)]

    def test_join_two_versions(self, protein_cvd, orpheus):
        result = orpheus.run(
            "SELECT count(*) FROM VERSION 2 OF CVD proteins AS a, "
            "VERSION 3 OF CVD proteins AS b "
            "WHERE a.protein1 = b.protein1 AND a.protein2 = b.protein2"
        )
        # v2 = {r2 r3 r4 r5}, v3 = {r1 r2}: r2~r2 and r4~r1 share PKs.
        assert result.rows == [(2,)]

    def test_versions_with_predicate(self, protein_cvd, orpheus):
        result = orpheus.run(
            "SELECT DISTINCT vid FROM ALL VERSIONS OF CVD proteins AS av "
            "WHERE coexpression > 900 ORDER BY vid"
        )
        assert result.rows == [(2,), (4,)]


class TestDiffCommand:
    def test_diff(self, protein_cvd, orpheus):
        # v2 = {r2 r3 r4 r5}; v3 = {r1 r2}.
        only_2, only_3 = orpheus.diff("proteins", 2, 3)
        assert len(only_2) == 3  # r3, r4, r5
        assert len(only_3) == 1  # r1
        flipped_a, flipped_b = orpheus.diff("proteins", 3, 2)
        assert (len(flipped_a), len(flipped_b)) == (1, 3)
