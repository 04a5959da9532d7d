"""Cross-model tests: the five storage models must agree on content.

Parametrized over every registered data model, these check the logical
equivalence that Section 3's comparison presumes, plus each model's
distinguishing physical behaviour (array appends, single-row commits,
delta chains, per-version tables).
"""

import pytest

from repro.core.datamodels import MODEL_REGISTRY, resolve_model
from repro.storage.engine import Database
from repro.storage.parser import ast_nodes as ast
from repro.storage.parser.parser import parse_statement
from repro.storage.ridset import RidSet
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType

SCHEMA = TableSchema(
    [
        Column("name", DataType.TEXT),
        Column("score", DataType.INTEGER),
    ]
)

ALL_MODELS = sorted(MODEL_REGISTRY)


def commit(model, vid, member_rids, new_records, parents):
    """Add a version the way the CVD does: the model stores it, then the
    version's membership is recorded in the dict the model reads."""
    model.add_version(vid, RidSet(member_rids), new_records, parents)
    model.membership[vid] = RidSet(member_rids)


def build_history(model_name: str):
    """v1 = {1,2,3}; v2 = v1 - {2} + {4}; v3 = v2 + {5} (a chain)."""
    db = Database()
    model = MODEL_REGISTRY[model_name](db, "cvd", SCHEMA)
    model.create_storage()
    commit(model, 1, [1, 2, 3], {1: ("a", 10), 2: ("b", 20), 3: ("c", 30)}, ())
    commit(model, 2, [1, 3, 4], {4: ("d", 40)}, (1,))
    commit(model, 3, [1, 3, 4, 5], {5: ("e", 50)}, (2,))
    return db, model


EXPECTED = {
    1: {1: ("a", 10), 2: ("b", 20), 3: ("c", 30)},
    2: {1: ("a", 10), 3: ("c", 30), 4: ("d", 40)},
    3: {1: ("a", 10), 3: ("c", 30), 4: ("d", 40), 5: ("e", 50)},
}


class TestModelEquivalence:
    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_fetch_version_contents(self, model_name):
        _db, model = build_history(model_name)
        for vid, expected in EXPECTED.items():
            assert model.records_of(vid) == expected, (model_name, vid)

    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_checkout_into_materializes_rid_plus_data(self, model_name):
        db, model = build_history(model_name)
        model.checkout_into(2, "work")
        rows = sorted(db.query("SELECT * FROM work"))
        assert rows == [(1, "a", 10), (3, "c", 30), (4, "d", 40)]

    @pytest.mark.parametrize("model_name", ALL_MODELS)
    def test_storage_bytes_positive_and_drops(self, model_name):
        db, model = build_history(model_name)
        assert model.storage_bytes() > 0
        model.drop_storage()
        # All backing tables gone: no cvd__* table remains.
        assert not [t for t in db.table_names() if t.startswith("cvd__")]

    @pytest.mark.parametrize(
        "model_name",
        [m for m in ALL_MODELS if MODEL_REGISTRY[m].supports_sql_rewriting],
    )
    def test_version_plan(self, model_name):
        db, model = build_history(model_name)
        sql = "SELECT count(*) FROM plan AS v"
        assert db.execute_statements([over(sql, model.version_plan(3))]).rows == [(4,)]

    @pytest.mark.parametrize(
        "model_name",
        [m for m in ALL_MODELS if MODEL_REGISTRY[m].supports_sql_rewriting],
    )
    def test_all_versions_plan(self, model_name):
        db, model = build_history(model_name)
        sql = "SELECT vid, count(*) AS n FROM plan AS av GROUP BY vid ORDER BY vid"
        result = db.execute_statements([over(sql, model.all_versions_plan())])
        assert result.rows == [(1, 3), (2, 3), (3, 4)]


def over(sql: str, plan: ast.Select) -> ast.Select:
    """``sql`` with its single FROM table swapped for ``plan`` as a derived
    table under the same alias."""
    outer = parse_statement(sql)
    outer.from_items = [ast.SubqueryRef(plan, outer.from_items[0].alias)]
    return outer


class TestCombinedTable:
    def test_vlist_inverted_index(self):
        db, model = build_history("combined")
        vlists = dict(db.query("SELECT rid, vlist FROM cvd__combined"))
        assert vlists[1] == (1, 2, 3)  # record 1 is in every version
        assert vlists[2] == (1,)
        assert vlists[5] == (3,)

    def test_commit_rewrites_arrays(self):
        db, model = build_history("combined")
        before = db.stats.array_cells_written
        model.add_version(4, RidSet([1, 3, 4, 5]), {}, (3,))
        # Appending v4 rewrote the vlist of all four carried-over records.
        assert db.stats.array_cells_written - before >= 4


class TestSplitByRlist:
    def test_commit_is_single_versioning_row(self):
        db, model = build_history("split_by_rlist")
        versioning_rows = db.query("SELECT count(*) FROM cvd__versions")
        assert versioning_rows == [(3,)]
        before_cells = db.stats.array_cells_written
        model.add_version(4, RidSet([1, 3]), {}, (3,))
        # No array rewrites at all: one fresh INSERT.
        assert db.stats.array_cells_written == before_cells

    def test_data_table_deduplicates(self):
        db, _model = build_history("split_by_rlist")
        assert db.query("SELECT count(*) FROM cvd__data") == [(5,)]


class TestSplitByVlist:
    def test_separate_versioning_table(self):
        db, _model = build_history("split_by_vlist")
        assert db.query("SELECT count(*) FROM cvd__data") == [(5,)]
        vlists = dict(db.query("SELECT rid, vlist FROM cvd__vindex"))
        assert vlists[1] == (1, 2, 3)


class TestDelta:
    def test_precedent_chain(self):
        db, _model = build_history("delta")
        assert dict(db.query("SELECT vid, base FROM cvd__precedent")) == {
            1: None,
            2: 1,
            3: 2,
        }

    def test_tombstone_recorded(self):
        db, _model = build_history("delta")
        rows = db.query("SELECT rid FROM cvd__delta_2 WHERE tombstone = true")
        assert rows == [(2,)]

    def test_merge_picks_largest_common_base(self):
        db = Database()
        model = resolve_model("delta")(db, "cvd", SCHEMA)
        model.create_storage()
        commit(model, 1, [1, 2], {1: ("a", 1), 2: ("b", 2)}, ())
        commit(model, 2, [1, 2, 3], {3: ("c", 3)}, (1,))
        commit(model, 3, [1], {}, (1,))
        # Merge of v2 (3 common) and v3 (1 common): base must be v2.
        commit(model, 4, [1, 2, 3], {}, (2, 3))
        assert db.query("SELECT base FROM cvd__precedent WHERE vid = 4") == [(2,)]
        assert model.records_of(4) == {
            1: ("a", 1),
            2: ("b", 2),
            3: ("c", 3),
        }

    def test_no_sql_rewriting(self):
        assert not MODEL_REGISTRY["delta"].supports_sql_rewriting


class TestDeltaNotNullColumns:
    """A delete writes an all-NULL tombstone row into the delta table; the
    data schema's NOT NULL flags must not refuse it (a refused tombstone
    failed the commit after its vid was allocated and bricked the store)."""

    KEYED = TableSchema(
        [Column("k", DataType.INTEGER, not_null=True), Column("v", DataType.INTEGER)],
        ("k",),
    )

    @staticmethod
    def versions(orpheus):
        cvd = orpheus.cvd("d")
        return {
            vid: sorted(row[1:] for row in cvd.checkout_rows([vid]))
            for vid in cvd.graph.version_ids()
        }

    def test_delete_update_insert_commits_survive_replay_and_checkpoint(self, tmp_path):
        from test_persist_crash import crash

        from repro.errors import ConstraintViolationError
        from repro.persist import Store

        store = Store.open(tmp_path / "s", checkpoint_interval=0)
        orpheus = store.orpheus
        orpheus.init("d", self.KEYED, rows=[(k, k) for k in range(4)], model="delta")
        edits = [
            "DELETE FROM w WHERE k = 0",
            "UPDATE w SET v = 99 WHERE k = 1",
            "INSERT INTO w (k, v) VALUES (7, 7)",
        ]
        for vid, sql in enumerate(edits, start=2):
            orpheus.checkout("d", vid - 1, table_name="w")
            orpheus.run(sql)
            assert orpheus.commit("w") == vid
        orpheus.checkout("d", 4, table_name="w")
        with pytest.raises(ConstraintViolationError, match="NOT NULL"):
            orpheus.run("INSERT INTO w (k, v) VALUES (NULL, 8)")
            orpheus.commit("w")
        orpheus.run("DROP TABLE w")
        expected = {
            1: [(0, 0), (1, 1), (2, 2), (3, 3)],
            2: [(1, 1), (2, 2), (3, 3)],
            3: [(1, 99), (2, 2), (3, 3)],
            4: [(1, 99), (2, 2), (3, 3), (7, 7)],
        }
        assert self.versions(orpheus) == expected
        crash(store)

        replayed = Store.open(tmp_path / "s", checkpoint_interval=0)
        assert self.versions(replayed.orpheus) == expected
        replayed.checkpoint()
        replayed.close()
        reopened = Store.open(tmp_path / "s", checkpoint_interval=0)
        assert reopened.current_snapshot_name() is not None
        assert self.versions(reopened.orpheus) == expected
        reopened.close()


class TestTablePerVersion:
    def test_one_table_per_version(self):
        db, _model = build_history("table_per_version")
        for vid, expected in EXPECTED.items():
            rows = db.query(f"SELECT count(*) FROM cvd__v{vid}")
            assert rows == [(len(expected),)]

    def test_storage_duplicates_records(self):
        db, _tpv = build_history("table_per_version")
        db2, _rlist = build_history("split_by_rlist")
        stored_tpv = sum(db.table(f"cvd__v{vid}").row_count for vid in (1, 2, 3))
        stored_rlist = db2.table("cvd__data").row_count
        # 10 stored payload rows (3+3+4) vs 5 deduplicated records.
        assert stored_tpv == 10
        assert stored_rlist == 5

    def test_missing_parent_record_raises(self):
        db = Database()
        model = resolve_model("table_per_version")(db, "cvd", SCHEMA)
        model.create_storage()
        model.add_version(1, RidSet([1]), {1: ("a", 1)}, ())
        with pytest.raises(LookupError):
            model.add_version(2, RidSet([1, 99]), {}, (1,))


class TestRegistry:
    def test_resolve_model(self):
        assert resolve_model("combined").model_name == "combined"

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            resolve_model("btree_forest")
