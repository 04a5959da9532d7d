"""Integration tests: full SQL statements against the Database engine."""

import pytest

from repro.errors import (
    CatalogError,
    ConstraintViolationError,
    ExecutionError,
)
from repro.storage.engine import Database


@pytest.fixture
def loaded(db: Database) -> Database:
    db.execute("CREATE TABLE emp (id int PRIMARY KEY, dept text, salary int)")
    db.execute(
        "INSERT INTO emp VALUES (1,'eng',100),(2,'eng',120),"
        "(3,'sales',90),(4,'sales',95),(5,'hr',70)"
    )
    return db


class TestSelectBasics:
    def test_projection_and_filter(self, loaded):
        rows = loaded.query("SELECT id FROM emp WHERE salary >= 95 ORDER BY id")
        assert rows == [(1,), (2,), (4,)]

    def test_expressions_in_select(self, loaded):
        rows = loaded.query("SELECT id, salary * 2 FROM emp WHERE id = 1")
        assert rows == [(1, 200)]

    def test_select_without_from(self, db):
        assert db.query("SELECT 1 + 2") == [(3,)]

    def test_order_by_desc_and_limit_offset(self, loaded):
        rows = loaded.query("SELECT id FROM emp ORDER BY salary DESC LIMIT 2 OFFSET 1")
        assert rows == [(1,), (4,)]

    def test_distinct(self, loaded):
        rows = loaded.query("SELECT DISTINCT dept FROM emp ORDER BY dept")
        assert rows == [("eng",), ("hr",), ("sales",)]

    def test_between_like_in(self, loaded):
        rows = loaded.query("SELECT * FROM emp WHERE salary BETWEEN 90 AND 100")
        assert len(rows) == 3
        assert len(loaded.query("SELECT * FROM emp WHERE dept LIKE 's%'")) == 2
        assert len(loaded.query("SELECT * FROM emp WHERE id IN (1, 3)")) == 2

    def test_null_semantics_in_where(self, db):
        db.execute("CREATE TABLE t (a int, b int)")
        db.execute("INSERT INTO t VALUES (1, NULL), (2, 5)")
        # NULL comparisons are unknown, filtered out.
        assert db.query("SELECT a FROM t WHERE b > 1") == [(2,)]
        assert db.query("SELECT a FROM t WHERE b IS NULL") == [(1,)]

    def test_unknown_column_raises(self, loaded):
        with pytest.raises(ExecutionError):
            loaded.query("SELECT nope FROM emp")

    def test_unknown_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM ghost")


class TestAggregates:
    def test_global_aggregates(self, loaded):
        assert loaded.query(
            "SELECT count(*), sum(salary), min(salary), max(salary) FROM emp"
        ) == [(5, 475, 70, 120)]

    def test_avg(self, loaded):
        assert loaded.query("SELECT avg(salary) FROM emp")[0][0] == 95.0

    def test_group_by_with_having(self, loaded):
        rows = loaded.query(
            "SELECT dept, count(*) AS n, sum(salary) FROM emp "
            "GROUP BY dept HAVING count(*) > 1 ORDER BY dept"
        )
        assert rows == [("eng", 2, 220), ("sales", 2, 185)]

    def test_count_distinct(self, loaded):
        assert loaded.query("SELECT count(DISTINCT dept) FROM emp") == [(3,)]

    def test_array_agg(self, loaded):
        rows = loaded.query("SELECT array_agg(id) FROM emp WHERE dept = 'eng'")
        assert rows == [((1, 2),)]

    def test_aggregate_on_empty_input(self, loaded):
        assert loaded.query(
            "SELECT count(*), sum(salary) FROM emp WHERE id > 99"
        ) == [(0, None)]

    def test_aggregate_arithmetic(self, loaded):
        rows = loaded.query(
            "SELECT dept, max(salary) - min(salary) FROM emp "
            "GROUP BY dept ORDER BY dept"
        )
        assert rows == [("eng", 20), ("hr", 0), ("sales", 5)]


class TestJoins:
    @pytest.fixture
    def with_depts(self, loaded):
        loaded.execute("CREATE TABLE dept (name text PRIMARY KEY, floor int)")
        loaded.execute("INSERT INTO dept VALUES ('eng', 3), ('sales', 1), ('legal', 9)")
        return loaded

    def test_implicit_equi_join(self, with_depts):
        rows = with_depts.query(
            "SELECT emp.id, dept.floor FROM emp, dept "
            "WHERE emp.dept = dept.name AND emp.salary > 100 ORDER BY id"
        )
        assert rows == [(2, 3)]

    def test_explicit_join(self, with_depts):
        rows = with_depts.query(
            "SELECT emp.id FROM emp JOIN dept ON emp.dept = dept.name "
            "ORDER BY emp.id"
        )
        assert [r[0] for r in rows] == [1, 2, 3, 4]

    def test_left_join_pads_nulls(self, with_depts):
        rows = with_depts.query(
            "SELECT dept.name, emp.id FROM dept LEFT JOIN emp "
            "ON emp.dept = dept.name WHERE dept.name = 'legal'"
        )
        assert rows == [("legal", None)]

    def test_join_methods_agree(self, with_depts):
        expected = sorted(
            with_depts.query(
                "SELECT emp.id, dept.floor FROM emp, dept "
                "WHERE emp.dept = dept.name"
            )
        )
        for method in ("merge", "inl"):
            with_depts.join_method = method
            got = sorted(
                with_depts.query(
                    "SELECT emp.id, dept.floor FROM emp, dept "
                    "WHERE emp.dept = dept.name"
                )
            )
            assert got == expected, method

    def test_cross_join(self, with_depts):
        rows = with_depts.query("SELECT emp.id, dept.name FROM emp, dept")
        assert len(rows) == 15


class TestSubqueries:
    def test_in_subquery(self, loaded):
        rows = loaded.query(
            "SELECT id FROM emp WHERE dept IN "
            "(SELECT dept FROM emp WHERE salary > 110) ORDER BY id"
        )
        assert rows == [(1,), (2,)]

    def test_scalar_subquery(self, loaded):
        rows = loaded.query(
            "SELECT id FROM emp WHERE salary = (SELECT max(salary) FROM emp)"
        )
        assert rows == [(2,)]

    def test_derived_table(self, loaded):
        rows = loaded.query(
            "SELECT t.dept FROM (SELECT dept, count(*) AS n FROM emp "
            "GROUP BY dept) AS t WHERE t.n = 1"
        )
        assert rows == [("hr",)]

    def test_union_all(self, loaded):
        rows = loaded.query(
            "SELECT id FROM emp WHERE id = 1 UNION ALL "
            "SELECT id FROM emp WHERE id = 2"
        )
        assert sorted(rows) == [(1,), (2,)]


class TestReexecutedStatements:
    """A parsed statement is the caller's: executing it must not write the
    first run's subquery results into its AST (they would answer every
    later run)."""

    @pytest.mark.parametrize(
        "sql, before, after",
        [
            (
                "SELECT id FROM emp WHERE dept IN "
                "(SELECT dept FROM emp WHERE salary > 110) ORDER BY id",
                [(1,), (2,)],
                [(1,), (2,), (3,), (4,), (6,)],
            ),
            (
                "SELECT id FROM emp WHERE salary = (SELECT max(salary) FROM emp)",
                [(2,)],
                [(6,)],
            ),
            (
                "SELECT (SELECT count(*) FROM emp), "
                "ARRAY(SELECT id FROM emp WHERE dept = 'sales')",
                [(5, (3, 4))],
                [(6, (3, 4, 6))],
            ),
            (
                "SELECT dept FROM emp GROUP BY dept "
                "HAVING count(*) >= (SELECT count(*) FROM emp) / 2 ORDER BY dept",
                [("eng",), ("sales",)],
                [("sales",)],
            ),
        ],
    )
    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_subqueries_run_again_on_every_execution(self, mode, sql, before, after):
        from repro.storage.parser.parser import parse_sql

        db = Database(exec_mode=mode)
        db.execute("CREATE TABLE emp (id int PRIMARY KEY, dept text, salary int)")
        db.execute(
            "INSERT INTO emp VALUES (1,'eng',100),(2,'eng',120),"
            "(3,'sales',90),(4,'sales',95),(5,'hr',70)"
        )
        statements = parse_sql(sql)
        assert db.execute_statements(statements).rows == before
        db.execute("INSERT INTO emp VALUES (6, 'sales', 130)")
        assert db.execute_statements(statements).rows == after

    def test_array_constants_are_not_rewritten_in_place(self, db):
        from repro.storage.parser.parser import parse_sql

        db.execute("CREATE TABLE v (vid int, rlist int[])")
        db.execute("INSERT INTO v VALUES (1, ARRAY[1, 2]), (2, ARRAY[3])")
        (select,) = parse_sql("SELECT vid FROM v WHERE rlist && ARRAY[2, 3]")
        where = select.where
        assert db.execute_statements([select]).rows == [(1,), (2,)]
        assert select.where is where


class TestArraysInSQL:
    @pytest.fixture
    def versioned(self, db):
        db.execute("CREATE TABLE vt (vid int PRIMARY KEY, rlist int[])")
        db.execute("INSERT INTO vt VALUES (1, ARRAY[10, 11]), (2, ARRAY[11, 12, 13])")
        return db

    def test_containment_checkout_predicate(self, versioned):
        rows = versioned.query("SELECT vid FROM vt WHERE ARRAY[11] <@ rlist")
        assert sorted(rows) == [(1,), (2,)]

    def test_unnest_expansion(self, versioned):
        rows = versioned.query("SELECT unnest(rlist) AS r FROM vt WHERE vid = 2")
        assert rows == [(11,), (12,), (13,)]

    def test_append_via_update(self, versioned):
        versioned.execute("UPDATE vt SET rlist = rlist || 99 WHERE vid = 1")
        assert versioned.query("SELECT rlist FROM vt WHERE vid = 1") == [
            ((10, 11, 99),)
        ]

    def test_array_subquery_insert(self, versioned):
        versioned.execute("CREATE TABLE src (r int)")
        versioned.execute("INSERT INTO src VALUES (7), (8)")
        versioned.execute("INSERT INTO vt VALUES (3, ARRAY[SELECT r FROM src])")
        assert versioned.query("SELECT rlist FROM vt WHERE vid = 3") == [((7, 8),)]

    def test_overlap_and_cardinality(self, versioned):
        rows = versioned.query(
            "SELECT vid FROM vt WHERE rlist && ARRAY[13] "
            "AND cardinality(rlist) = 3"
        )
        assert rows == [(2,)]


class TestDML:
    def test_insert_partial_columns(self, db):
        db.execute("CREATE TABLE t (a int, b text, c int)")
        db.execute("INSERT INTO t (a, c) VALUES (1, 3)")
        assert db.query("SELECT * FROM t") == [(1, None, 3)]

    def test_update_with_expression(self, loaded):
        count = loaded.execute(
            "UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'"
        ).rowcount
        assert count == 2
        assert loaded.query(
            "SELECT sum(salary) FROM emp WHERE dept = 'eng'"
        ) == [(240,)]

    def test_delete_where(self, loaded):
        assert loaded.execute("DELETE FROM emp WHERE salary < 95").rowcount == 2
        assert loaded.query("SELECT count(*) FROM emp") == [(3,)]

    def test_insert_select(self, loaded):
        loaded.execute("CREATE TABLE rich (id int, salary int)")
        loaded.execute("INSERT INTO rich SELECT id, salary FROM emp WHERE salary > 95")
        assert loaded.query("SELECT count(*) FROM rich") == [(2,)]

    def test_duplicate_pk_via_sql(self, loaded):
        with pytest.raises(ConstraintViolationError):
            loaded.execute("INSERT INTO emp VALUES (1, 'x', 1)")


class TestDDLAndInto:
    def test_select_into_creates_table(self, loaded):
        loaded.execute("SELECT id, salary INTO snapshot FROM emp WHERE id < 3")
        assert loaded.query("SELECT count(*) FROM snapshot") == [(2,)]

    def test_into_table_types_carried(self, loaded):
        loaded.execute("SELECT id, dept INTO s2 FROM emp")
        from repro.storage.types import DataType

        schema = loaded.table("s2").schema
        assert schema.column("id").dtype is DataType.INTEGER
        assert schema.column("dept").dtype is DataType.TEXT

    def test_drop_and_if_exists(self, loaded):
        loaded.execute("DROP TABLE emp")
        loaded.execute("DROP TABLE IF EXISTS emp")
        with pytest.raises(CatalogError):
            loaded.execute("DROP TABLE emp")

    def test_create_index_used_for_point_query(self, loaded):
        loaded.execute("CREATE INDEX by_dept ON emp (dept)")
        before = loaded.stats.records_scanned
        loaded.query("SELECT id FROM emp WHERE dept = 'hr'")
        # Index probe touches only the matching row, not all five.
        assert loaded.stats.records_scanned - before <= 2

    def test_multi_statement_script(self, db):
        result = db.execute(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1); "
            "SELECT * FROM t"
        )
        assert result.rows == [(1,)]


class TestStats:
    def test_full_scan_cost_scales_with_table(self, db):
        db.execute("CREATE TABLE t (a int)")
        for i in range(50):
            db.execute("INSERT INTO t VALUES (%s)", (i,))
        db.reset_stats()
        db.query("SELECT * FROM t WHERE a = -1")
        assert db.stats.records_scanned == 50

    def test_pk_point_query_uses_index(self, loaded):
        loaded.reset_stats()
        loaded.query("SELECT * FROM emp WHERE id = 3")
        assert loaded.stats.index_probes == 1
        assert loaded.stats.records_scanned == 1
