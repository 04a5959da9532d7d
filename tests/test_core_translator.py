"""The versioned FROM items and the translator that answers them."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro import errors
from repro.core.datamodels import MODEL_REGISTRY
from repro.errors import SQLSyntaxError, VersionNotFoundError
from repro.persist import Store
from repro.serve import ServeManager
from repro.serve.server import handle_line
from repro.storage.engine import Database
from repro.storage.parser import ast_nodes as ast
from repro.storage.parser import parser
from repro.storage.parser.parser import parse_statement


def _version_ref(sql: str) -> ast.VersionRef:
    ref = parse_statement(sql).from_items[0]
    assert isinstance(ref, ast.VersionRef)
    return ref


def _tables(select: ast.Select) -> set[str]:
    """Base tables a derived table's plan reads, subqueries included."""
    out = set()
    while select is not None:
        for item in select.from_items:
            if isinstance(item, ast.TableRef):
                out.add(item.table)
            else:
                out |= _tables(item.query)
        select = select.union_all_with
    return out


class TestVersionConstruct:
    def test_single_version_translation(self, protein_cvd, orpheus):
        ref = _version_ref("SELECT * FROM VERSION 1 OF CVD proteins")
        assert (ref.kind, ref.cvd, ref.vids) == ("version", "proteins", (1,))
        derived = orpheus.translator.translate(ref)
        assert isinstance(derived, ast.SubqueryRef)
        assert "proteins__versions" in _tables(derived.query)
        rows = orpheus.run("SELECT * FROM VERSION 1 OF CVD proteins").rows
        expected = [row[1:] for row in orpheus.checkout_rows("proteins", 1)]
        assert Counter(rows) == Counter(expected)

    def test_alias_preserved(self, protein_cvd, orpheus):
        sql = "SELECT a.protein1 FROM VERSION 1 OF CVD proteins AS a"
        ref = _version_ref(sql)
        assert ref.alias == "a"
        assert orpheus.translator.translate(ref).alias == "a"
        assert len(orpheus.run(sql).rows) == 3

    def test_binding_defaults_to_cvd_name(self, protein_cvd, orpheus):
        ref = _version_ref("SELECT count(*) FROM VERSION 1 OF CVD proteins")
        assert ref.alias is None and ref.binding == "proteins"
        assert orpheus.translator.translate(ref).alias == "proteins"
        rows = orpheus.run(
            "SELECT count(proteins.protein1) FROM VERSION 1 OF CVD proteins"
        ).rows
        assert rows == [(3,)]

    def test_multiple_vids_union_all(self, protein_cvd, orpheus):
        result = orpheus.run("SELECT count(*) FROM VERSION 2, 3 OF CVD proteins")
        assert result.rows == [(6,)]  # 4 + 2 membership rows
        derived = orpheus.translator.translate(
            _version_ref("SELECT * FROM VERSION 2, 3 OF CVD proteins")
        )
        assert derived.query.union_all_with is not None
        assert derived.query.union_all_with.union_all_with is None

    def test_two_constructs_in_one_query(self, protein_cvd, orpheus):
        result = orpheus.run(
            "SELECT count(*) FROM VERSION 1 OF CVD proteins AS a, "
            "VERSION 1 OF CVD proteins AS b "
            "WHERE a.protein1 = b.protein1 AND a.protein2 = b.protein2"
        )
        assert result.rows == [(3,)]

    def test_ordinary_sql_untouched(self, orpheus):
        text = "SELECT version FROM releases WHERE version > 3"
        # 'version' as a plain column name must not open a construct.
        select = parse_statement(text)
        assert select.from_items == [ast.TableRef("releases")]
        orpheus.run("CREATE TABLE releases (version INTEGER)")
        orpheus.run("INSERT INTO releases VALUES (2), (5)")
        assert orpheus.run(text).rows == [(5,)]

    def test_missing_cvd_keyword_raises(self, protein_cvd, orpheus):
        with pytest.raises(SQLSyntaxError, match="expected CVD after VERSION"):
            orpheus.run("SELECT * FROM VERSION 1 OF proteins")


    def test_user_statement_is_tokenized_once(
        self, protein_cvd, orpheus, monkeypatch
    ):
        seen = []
        real = parser.tokenize

        def counting(text):
            seen.append(text)
            return real(text)

        monkeypatch.setattr(parser, "tokenize", counting)
        sql = "SELECT count(*) FROM VERSION 1, 2 OF CVD proteins"
        assert orpheus.run(sql).rows == [(7,)]
        # The models' Table-1 plans are built in code: nothing else parses.
        assert seen == [sql]


class TestAllVersionsConstruct:
    def test_translation_shape(self, protein_cvd, orpheus):
        ref = _version_ref("SELECT vid FROM ALL VERSIONS OF CVD proteins AS av")
        assert (ref.kind, ref.vids, ref.alias) == ("all", (), "av")
        derived = orpheus.translator.translate(ref)
        assert "proteins__versions" in _tables(derived.query)
        result = orpheus.run("SELECT * FROM ALL VERSIONS OF CVD proteins")
        data_columns = orpheus.cvd("proteins").data_schema.column_names
        assert result.columns == ["vid", *data_columns]

    def test_group_by_version(self, protein_cvd, orpheus):
        result = orpheus.run(
            "SELECT vid, max(coexpression) FROM ALL VERSIONS OF CVD proteins "
            "AS av GROUP BY vid ORDER BY vid"
        )
        assert [row[0] for row in result.rows] == [1, 2, 3, 4]

    def test_paper_example_query(self, protein_cvd, orpheus):
        """Versions where count of tuples with protein1 = X exceeds 1."""
        result = orpheus.run(
            "SELECT vid FROM ALL VERSIONS OF CVD proteins AS av "
            "WHERE protein1 = 'ENSP273047' "
            "GROUP BY vid HAVING count(*) >= 2 ORDER BY vid"
        )
        # Every version keeps two ENSP273047 interactions (v3 = {r1 r2}).
        assert result.rows == [(1,), (2,), (3,), (4,)]


class TestDeltaFallback:
    def test_delta_model_materializes(self, orpheus):
        orpheus.init("d", [("x", "int")], rows=[(1,), (2,)], model="delta")
        result = orpheus.run("SELECT count(*) FROM VERSION 1 OF CVD d")
        assert result.rows == [(2,)]

    def test_delta_answers_like_every_other_model(self, orpheus):
        # v2 is v1 minus one row: two named versions are two copies
        # (UNION ALL), never a primary-key merge of them.
        orpheus.init(
            "d", [("k", "text"), ("v", "int")], rows=[("a", 1), ("b", 2), ("c", 3)],
            primary_key=("k",), model="delta",
        )
        orpheus.checkout("d", 1, table_name="w")
        orpheus.run("DELETE FROM w WHERE k = 'c'")
        orpheus.commit("w", message="drop c")
        tables = set(orpheus.db.table_names())
        assert orpheus.run("SELECT count(*) FROM VERSION 1, 2 OF CVD d").rows == [(5,)]
        rows = orpheus.run(
            "SELECT vid, count(*) FROM ALL VERSIONS OF CVD d GROUP BY vid ORDER BY vid"
        ).rows
        assert rows == [(1, 3), (2, 2)]
        assert set(orpheus.db.table_names()) == tables


class TestNoResolver:
    def test_bare_database_refuses_typed(self):
        with pytest.raises(errors.CatalogError, match="versioned relation"):
            Database().execute("SELECT * FROM VERSION 1 OF CVD p")


# ------------------------------------------------- oracle over every model

#: The six data models plus a LyreSplit-partitioned split-by-rlist CVD.
LAYOUTS = [*sorted(MODEL_REGISTRY), "partitioned_rlist"]


def _build(path, layout) -> Store:
    """v1 root; v2 drops a row; v3 adds one; v4 merges v2 and v3; v5 on v4."""
    store = Store.open(path, checkpoint_interval=0)
    orpheus = store.orpheus
    partitioned = layout == "partitioned_rlist"
    orpheus.init(
        "p", [("k", "text"), ("v", "int")],
        rows=[("a", 1), ("b", 2), ("c", 3)], primary_key=("k",),
        model="split_by_rlist" if partitioned else layout,
    )
    steps = [
        ([1], "DELETE FROM w WHERE k = 'c'"),
        ([1], "INSERT INTO w (k, v) VALUES ('d', 4)"),
        ([2, 3], "UPDATE w SET v = 20 WHERE k = 'b'"),
        ([4], "INSERT INTO w (k, v) VALUES ('e', 5)"),
    ]
    for parents, dml in steps:
        orpheus.checkout("p", parents, table_name="w")
        orpheus.run(dml)
        orpheus.commit("w", message=dml)
    if partitioned:
        orpheus.optimize("p")
        assert orpheus.cvd("p").model.model_name == "partitioned_rlist"
    return store


def _data(orpheus, vid) -> Counter:
    return Counter(row[1:] for row in orpheus.checkout_rows("p", vid))


def _check_oracle(orpheus) -> None:
    graph = orpheus.cvd("p").graph
    vids = sorted(graph.version_ids())
    tables = set(orpheus.db.table_names())
    for vid in vids:
        rows = orpheus.run(f"SELECT * FROM VERSION {vid} OF CVD p").rows
        assert Counter(rows) == _data(orpheus, vid), vid
        for other in vids:
            rows = orpheus.run(f"SELECT k, v FROM VERSION {vid}, {other} OF CVD p").rows
            assert Counter(rows) == _data(orpheus, vid) + _data(orpheus, other)
        for axis, expected in (
            ("ANCESTOR", graph.ancestors(vid)),
            ("DESCENDANT", graph.descendants(vid)),
        ):
            rows = orpheus.run(
                f"SELECT vid FROM VERSIONS {axis} OF {vid} OF CVD p ORDER BY vid"
            ).rows
            assert [row[0] for row in rows] == sorted(expected)
    every = Counter()
    for vid in vids:
        every.update({(vid, *row): n for row, n in _data(orpheus, vid).items()})
    assert Counter(orpheus.run("SELECT * FROM ALL VERSIONS OF CVD p").rows) == every
    for sql in (
        "SELECT count(*) FROM VERSION 99 OF CVD p",
        "SELECT count(*) FROM VERSION 1, 99 OF CVD p",
        "SELECT vid FROM VERSIONS ANCESTOR OF 99 OF CVD p",
    ):
        with pytest.raises(VersionNotFoundError):
            orpheus.run(sql)
    assert set(orpheus.db.table_names()) == tables


@pytest.mark.parametrize("layout", LAYOUTS)
def test_translation_matches_checkout_oracle(tmp_path, layout):
    store = _build(tmp_path / "s", layout)
    _check_oracle(store.orpheus)
    store.checkpoint()
    store.close()
    reopened = Store.open(tmp_path / "s", checkpoint_interval=0)
    _check_oracle(reopened.orpheus)
    reopened.close()


@pytest.mark.parametrize("layout", LAYOUTS)
def test_missing_version_is_version_not_found_on_the_wire(tmp_path, layout):
    _build(tmp_path / "s", layout).close()
    with ServeManager(tmp_path / "s", readers=1, writer=False) as served:
        for sql in (
            "SELECT count(*) FROM VERSION 99 OF CVD p",
            "SELECT count(*) FROM VERSION 2, 99 OF CVD p",
            "SELECT count(*) FROM VERSIONS DESCENDANT OF 99 OF CVD p",
        ):
            line = json.dumps({"op": "query", "sql": sql}).encode()
            reply = json.loads(handle_line(served, line)[0])
            assert reply["code"] == "version_not_found", reply
