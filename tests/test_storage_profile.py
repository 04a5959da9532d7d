"""``PROFILE SELECT``: the compiled pipeline's operators, as the user sees them.

The report's lines are the tallies the pipeline's operators (and the
planner's scans and joins) keep while the statement runs.  These tests pin
what an operator reading the report relies on: the lines appear in
data-flow order, each line's ``rows`` is the number of rows that stage
really produced (checked against counts taken without the profiler), and
``scan`` agrees with the engine's own ``records_scanned``.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError
from repro.persist import Store
from repro.storage.engine import Database

N = 3000


@pytest.fixture(scope="module")
def db() -> Database:
    database = Database()
    database.execute("CREATE TABLE t (a int, b int, c int, arr int[])")
    values = ", ".join(
        f"({i}, {i % 7}, {i % 5}, ARRAY[{i}, {i + 1}])" for i in range(N)
    )
    database.execute(f"INSERT INTO t VALUES {values}")
    return database


def _lines(result) -> list[tuple[str, int]]:
    return [(op, rows) for op, rows, _batches, _seconds in result.rows]


def _count(db: Database, sql: str) -> int:
    return len(db.query(sql))


class TestOperatorLines:
    def test_filter_order_limit(self, db):
        sql = "SELECT a FROM t WHERE b = 2 ORDER BY a DESC LIMIT 5"
        matching = _count(db, "SELECT a FROM t WHERE b = 2")
        assert matching == 429
        # The top-k runs before the projection: only survivors are projected.
        assert _lines(db.execute("PROFILE " + sql)) == [
            ("scan", N),
            ("filter", matching),
            ("order", 5),
            ("project", 5),
            ("limit", 5),
        ]

    def test_order_by_a_computed_output_column_sorts_after_projecting(self, db):
        result = db.execute(
            "PROFILE SELECT a + b AS s FROM t WHERE b = 2 ORDER BY s LIMIT 5"
        )
        assert _lines(result) == [
            ("scan", N),
            ("filter", 429),
            ("project", 429),
            ("order", 5),
            ("limit", 5),
        ]

    def test_group_by(self, db):
        sql = "SELECT c, count(*) FROM t WHERE b = 2 GROUP BY c ORDER BY c"
        groups = _count(db, sql)
        assert _lines(db.execute("PROFILE " + sql)) == [
            ("scan", N),
            ("filter", 429),
            ("group", groups),
            ("order", groups),
        ]

    def test_window(self, db):
        result = db.execute(
            "PROFILE SELECT a, row_number() OVER (PARTITION BY c ORDER BY a) "
            "AS rn FROM t WHERE b = 2"
        )
        assert _lines(result) == [
            ("scan", N),
            ("filter", 429),
            ("window", 429),
            ("project", 429),
        ]

    def test_bare_unnest(self, db):
        result = db.execute("PROFILE SELECT unnest(arr) FROM t WHERE b = 2")
        assert _lines(result) == [
            ("scan", N),
            ("filter", 429),
            ("project", 429),  # the arrays, once per source row
            ("unnest", 858),
        ]
        assert result.rowcount == 858

    def test_bare_limit_stops_the_scan(self, db):
        result = db.execute("PROFILE SELECT a FROM t WHERE b = 2 LIMIT 5")
        lines = dict(_lines(result))
        assert list(lines) == ["scan", "filter", "project", "limit"]
        assert lines["scan"] == result.profile["records_scanned"] == 1024
        assert lines["limit"] == 5

    def test_distinct(self, db):
        result = db.execute("PROFILE SELECT DISTINCT c FROM t")
        assert _lines(result) == [("scan", N), ("project", N), ("distinct", 5)]

    def test_batches_count_the_blocks_each_stage_produced(self, db):
        result = db.execute("PROFILE SELECT a FROM t WHERE b = 2 ORDER BY a")
        batches = {op: n for op, _rows, n, _seconds in result.rows}
        # Three 1024-row scan blocks stream through the filter; the sort
        # gathers them into one.
        assert batches == {"scan": 3, "filter": 3, "order": 1, "project": 1}
        assert all(seconds >= 0 for *_rest, seconds in result.rows)


class TestProfileDetail:
    def test_operators_of_a_join_with_an_aggregate(self, db):
        # The detail's operator entries are plain dicts in field order; all
        # but the timings are the same on every run.
        result = db.execute(
            "PROFILE SELECT x.c, count(*) FROM t x JOIN t y ON x.a = y.a"
            " WHERE x.b = 2 GROUP BY x.c ORDER BY x.c"
        )
        operators = result.profile["operators"]
        fields = ["op", "rows", "batches", "seconds"]
        assert all(list(entry) == fields for entry in operators)
        assert all(type(entry.pop("seconds")) is float for entry in operators)
        assert operators == [
            {"op": "scan", "rows": 2 * N, "batches": 2},
            {"op": "join", "rows": N, "batches": 1},
            {"op": "filter", "rows": 429, "batches": 1},
            {"op": "group", "rows": 5, "batches": 1},
            {"op": "order", "rows": 5, "batches": 1},
        ]


class TestJoinsAndScans:
    def test_join_line_and_scan_agree_with_iostats(self, db):
        result = db.execute(
            "PROFILE SELECT x.a FROM t x JOIN t y ON x.a = y.a WHERE x.b = 2"
        )
        assert _lines(result) == [
            ("scan", 2 * N),
            ("join", N),
            ("filter", 429),
            ("project", 429),
        ]
        assert result.profile["records_scanned"] == 2 * N
        assert result.profile["hash_build_rows"] == N

    def test_join_residual_condition_is_part_of_the_join(self, db):
        result = db.execute(
            "PROFILE SELECT x.a FROM t x JOIN t y ON x.a = y.a AND y.b = 2"
        )
        assert dict(_lines(result))["join"] == 429

    def test_cross_join(self, db):
        small = Database()
        small.execute("CREATE TABLE s (k int)")
        small.execute("INSERT INTO s VALUES (1), (2), (3)")
        result = small.execute("PROFILE SELECT * FROM s x, s y")
        assert _lines(result) == [("scan", 6), ("join", 9), ("project", 9)]

    def test_index_probe_counts_as_the_scan(self, db):
        probed = Database()
        probed.execute("CREATE TABLE v (vid int, rlist int[])")
        probed.execute("CREATE INDEX v_vid ON v (vid)")
        probed.execute("INSERT INTO v VALUES (1, ARRAY[4, 5, 6]), (2, ARRAY[7])")
        result = probed.execute("PROFILE SELECT unnest(rlist) FROM v WHERE vid = 1")
        assert _lines(result) == [("scan", 1), ("project", 1), ("unnest", 3)]
        assert result.profile["records_scanned"] == 1

    def test_derived_table_rows_are_scanned_once(self, db):
        result = db.execute(
            "PROFILE SELECT s.a FROM (SELECT a, b FROM t WHERE b = 2) AS s "
            "WHERE s.a < 100"
        )
        lines = _lines(result)
        # Both pipelines' operators share the statement's lines; the outer
        # one re-reads the derived rows without charging a second scan.
        assert lines[0] == ("scan", N)
        assert result.profile["records_scanned"] == N
        inner = _count(db, "SELECT a FROM t WHERE b = 2")
        outer = _count(db, "SELECT a FROM t WHERE b = 2 AND a < 100")
        assert dict(lines)["filter"] == inner + outer


class TestProfileContract:
    SQL = "SELECT a, b FROM t WHERE b = 2 ORDER BY a DESC LIMIT 7"

    def test_rowcount_is_the_unprofiled_querys(self, db):
        rows = db.query(self.SQL)
        result = db.execute("PROFILE " + self.SQL)
        assert result.rowcount == result.profile["rowcount"] == len(rows) == 7
        assert result.columns == ["operator", "rows", "batches", "seconds"]
        assert result.rows[-1][:2] == ("limit", len(rows))
        assert db.query(self.SQL) == rows  # profiling left nothing behind

    @pytest.mark.parametrize(
        "sql",
        [
            "PROFILE INSERT INTO t VALUES (1, 1, 1, NULL)",
            "PROFILE DELETE FROM t WHERE a = 1",
            "PROFILE SELECT a FROM t; SELECT b FROM t",
            "PROFILE ",
        ],
    )
    def test_only_one_select_can_be_profiled(self, db, sql):
        with pytest.raises(ExecutionError, match="exactly one SELECT"):
            db.execute(sql)
        assert _count(db, "SELECT a FROM t") == N


class TestVersionedQueries:
    @pytest.fixture()
    def store(self, tmp_path):
        store = Store.open(tmp_path / "store")
        store.orpheus.init(
            "p",
            [("k", "int"), ("v", "int")],
            rows=[(i, i % 4) for i in range(40)],
            primary_key=("k",),
        )
        store.orpheus.checkout("p", 1, table_name="w")
        store.orpheus.run("DELETE FROM w WHERE k >= 30")
        store.orpheus.commit("w", message="prune")
        yield store
        store.close()

    def test_translated_version_query(self, store):
        sql = "SELECT v, count(*) FROM VERSION 2 OF CVD p WHERE v > 0 GROUP BY v"
        result = store.orpheus.run("PROFILE " + sql)
        lines = _lines(result)
        # rlist probe -> project -> unnest -> (the rid join collapses into a
        # filter on the data-table scan) -> the statement's own filter and
        # aggregate.
        assert [op for op, _rows in lines] == [
            "scan", "project", "unnest", "filter", "group",
        ]
        by_op = dict(lines)
        assert by_op["unnest"] == 30
        assert by_op["scan"] == result.profile["records_scanned"] == 1 + 40
        assert result.profile["hash_build_rows"] == 30
        assert by_op["group"] == result.rowcount == 3
        assert sorted(store.orpheus.run(sql).rows) == [(1, 8), (2, 7), (3, 7)]

    def test_profile_is_a_read_and_is_never_journaled(self, store):
        before = store.last_lsn
        wal_bytes = store.wal_size_bytes()
        result = store.orpheus.run("PROFILE SELECT k FROM VERSION 1 OF CVD p")
        assert result.rowcount == 40
        assert store.last_lsn == before
        assert store.wal_size_bytes() == wal_bytes
        with pytest.raises(ExecutionError, match="exactly one SELECT"):
            store.orpheus.run("PROFILE DELETE FROM w WHERE k = 1")
        assert store.last_lsn == before
