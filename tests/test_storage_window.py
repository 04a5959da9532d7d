"""Window functions and grouped top-k: shapes, semantics, and pushdown.

The analytic layer promises three things, each pinned here:

* **Shape errors** — the parser rejects malformed window specs (OVER on a
  non-window function, arguments, nesting) and the executor rejects
  windows outside the SELECT list or mixed with grouping, identically in
  both execution modes.
* **Semantics** — ties, NULL ordering (last ascending, first descending),
  DESC keys, multi-key partitions, and the no-ORDER-BY all-peers rule all
  produce the reference values, and ``exec_mode="compiled"`` matches
  ``exec_mode="interpreted"`` bit for bit.
* **Grouped top-k pushdown** — the planner's ``row_number`` bound
  detection fires exactly on the documented idiom, never changes results
  (the outer filter still runs), and stays off for every shape it cannot
  prove safe.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError, SQLSyntaxError
from repro.storage import planner
from repro.storage.engine import Database
from repro.storage.expression import conjuncts
from repro.storage.parser import parse_statement


def _db(mode: str) -> Database:
    db = Database(exec_mode=mode)
    db.execute("CREATE TABLE s (g int, x int, y text)")
    rows = [
        (1, 10, "a"),
        (1, 10, "b"),
        (1, 7, None),
        (1, None, "c"),
        (2, 5, "d"),
        (2, 5, "e"),
        (2, 5, "f"),
        (2, 9, None),
        (None, 3, "g"),
        (None, 3, "h"),
        (3, None, None),
    ]
    for row in rows:
        db.execute("INSERT INTO s VALUES (%s, %s, %s)", row)
    return db


def _parity(sql: str) -> list:
    compiled = _db("compiled").query(sql)
    interpreted = _db("interpreted").query(sql)
    assert compiled == interpreted
    return compiled


# ------------------------------------------------------------ shape errors


class TestWindowShapes:
    def test_over_on_non_window_function_is_rejected(self):
        with pytest.raises(SQLSyntaxError, match="does not support OVER"):
            parse_statement("SELECT sum(x) OVER (ORDER BY x) FROM s")

    def test_window_function_takes_no_arguments(self):
        with pytest.raises(SQLSyntaxError, match="takes no arguments"):
            parse_statement("SELECT row_number(x) OVER (ORDER BY x) FROM s")

    def test_nested_windows_are_rejected(self):
        with pytest.raises(SQLSyntaxError, match="cannot be nested"):
            parse_statement(
                "SELECT row_number() OVER (ORDER BY rank() OVER (ORDER BY x))"
                " FROM s"
            )

    def test_bare_over_stays_an_identifier(self):
        # OVER is non-reserved: without "(" it parses as an alias.
        statement = parse_statement("SELECT x AS over FROM s")
        assert statement.items[0].alias == "over"

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_window_in_where_is_rejected(self, mode):
        db = _db(mode)
        with pytest.raises(ExecutionError, match="only allowed in the SELECT"):
            db.query("SELECT x FROM s WHERE row_number() OVER (ORDER BY x) = 1")

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_window_with_group_by_is_rejected(self, mode):
        db = _db(mode)
        with pytest.raises(ExecutionError, match="cannot be combined"):
            db.query(
                "SELECT g, row_number() OVER (ORDER BY g) FROM s GROUP BY g"
            )

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_window_with_aggregate_is_rejected(self, mode):
        db = _db(mode)
        with pytest.raises(ExecutionError, match="cannot be combined"):
            db.query("SELECT count(*), row_number() OVER (ORDER BY x) FROM s")


# --------------------------------------------------------------- semantics


class TestWindowSemantics:
    def test_row_number_breaks_ties_in_scan_order(self):
        rows = _parity(
            "SELECT y, row_number() OVER (ORDER BY x) AS rn FROM s "
            "WHERE g = 2 ORDER BY rn"
        )
        # x=5 three times: stable sort keeps insertion order d, e, f.
        assert rows == [("d", 1), ("e", 2), ("f", 3), (None, 4)]

    def test_rank_and_dense_rank_tie_semantics(self):
        rows = _parity(
            "SELECT y, rank() OVER (ORDER BY x) AS r, "
            "dense_rank() OVER (ORDER BY x) AS dr "
            "FROM s WHERE g = 2 ORDER BY r, y"
        )
        # rank leaves gaps after ties; dense_rank does not.
        assert rows == [
            ("d", 1, 1),
            ("e", 1, 1),
            ("f", 1, 1),
            (None, 4, 2),
        ]

    def test_nulls_sort_last_ascending(self):
        rows = _parity(
            "SELECT x, row_number() OVER (PARTITION BY g ORDER BY x) AS rn "
            "FROM s WHERE g = 1 ORDER BY rn"
        )
        assert rows == [(7, 1), (10, 2), (10, 3), (None, 4)]

    def test_nulls_sort_first_descending(self):
        rows = _parity(
            "SELECT x, row_number() OVER (PARTITION BY g ORDER BY x DESC) "
            "AS rn FROM s WHERE g = 1 ORDER BY rn"
        )
        assert rows == [(None, 1), (10, 2), (10, 3), (7, 4)]

    def test_null_partition_key_forms_its_own_partition(self):
        rows = _parity(
            "SELECT g, y, row_number() OVER (PARTITION BY g ORDER BY y) "
            "AS rn FROM s WHERE x = 3 ORDER BY y"
        )
        assert rows == [(None, "g", 1), (None, "h", 2)]

    def test_multi_key_partitions_and_orders(self):
        rows = _parity(
            "SELECT g, x, y, row_number() OVER "
            "(PARTITION BY g, x ORDER BY y DESC, x) AS rn "
            "FROM s WHERE g = 1 AND x = 10 ORDER BY rn"
        )
        assert rows == [(1, 10, "b", 1), (1, 10, "a", 2)]

    def test_no_order_by_makes_every_row_a_peer(self):
        rows = _parity(
            "SELECT y, row_number() OVER (PARTITION BY g) AS rn, "
            "rank() OVER (PARTITION BY g) AS r, "
            "dense_rank() OVER (PARTITION BY g) AS dr "
            "FROM s WHERE g = 2 ORDER BY rn"
        )
        # row_number stays positional; rank/dense_rank are all 1.
        assert rows == [
            ("d", 1, 1, 1),
            ("e", 2, 1, 1),
            ("f", 3, 1, 1),
            (None, 4, 1, 1),
        ]

    def test_multiple_windows_in_one_select(self):
        _parity(
            "SELECT g, row_number() OVER (PARTITION BY g ORDER BY x) AS a, "
            "rank() OVER (ORDER BY x DESC) AS b FROM s ORDER BY g, a"
        )

    def test_window_value_usable_in_outer_query(self):
        rows = _parity(
            "SELECT t.g, t.x FROM (SELECT g, x, row_number() OVER "
            "(PARTITION BY g ORDER BY x DESC, y) AS rn FROM s) AS t "
            "WHERE t.rn = 1 AND t.g IS NOT NULL ORDER BY t.g"
        )
        assert rows == [(1, None), (2, 9), (3, None)]


# ------------------------------------------------------ grouped top-k push


def _topk_db(mode: str, groups: int = 8, per_group: int = 50) -> Database:
    db = Database(exec_mode=mode)
    db.execute("CREATE TABLE m (rid int, grp int, score int)")
    for rid in range(groups * per_group):
        db.execute(
            "INSERT INTO m VALUES (%s, %s, %s)",
            (rid, rid % groups, (rid * 37) % 97),
        )
    return db


TOPK_SQL = (
    "SELECT t.rid, t.grp, t.rn FROM (SELECT rid, grp, score, "
    "row_number() OVER (PARTITION BY grp ORDER BY score DESC, rid) AS rn "
    "FROM m) AS t WHERE t.rn <= 3 ORDER BY t.grp, t.rn"
)


class TestGroupedTopK:
    def test_pushdown_matches_interpreted_reference(self):
        compiled = _topk_db("compiled").query(TOPK_SQL)
        interpreted = _topk_db("interpreted").query(TOPK_SQL)
        assert compiled == interpreted
        assert len(compiled) == 8 * 3

    def test_pushdown_matches_full_ranking_filtered_by_hand(self):
        db = _topk_db("compiled")
        full = db.query(
            "SELECT t.rid, t.grp, t.rn FROM (SELECT rid, grp, score, "
            "row_number() OVER (PARTITION BY grp ORDER BY score DESC, rid)"
            " AS rn FROM m) AS t ORDER BY t.grp, t.rn"
        )
        assert db.query(TOPK_SQL) == [row for row in full if row[2] <= 3]

    def test_tighter_of_two_bounds_wins_and_filter_still_runs(self):
        sql = (
            "SELECT t.rid, t.rn FROM (SELECT rid, grp, "
            "row_number() OVER (PARTITION BY grp ORDER BY rid) AS rn "
            "FROM m) AS t WHERE t.rn <= 5 AND t.rn <= 2 AND t.rid >= 0 "
            "ORDER BY t.rid"
        )
        compiled = _topk_db("compiled").query(sql)
        assert compiled == _topk_db("interpreted").query(sql)
        assert all(rn <= 2 for _rid, rn in compiled)


class TestTopKHintDetection:
    """Unit tests of the planner's bound detection on parsed statements."""

    def _hint(self, sql: str) -> int | None:
        statement = parse_statement(sql)
        item = statement.from_items[0]
        return planner._subquery_topk_hint(item, conjuncts(statement.where))

    IDIOM = (
        "SELECT t.rid FROM (SELECT rid, row_number() OVER "
        "(PARTITION BY grp ORDER BY score) AS rn FROM m) AS t WHERE {0}"
    )

    def test_detects_le_bound(self):
        assert self._hint(self.IDIOM.format("t.rn <= 3")) == 3

    def test_detects_strict_lt_bound(self):
        assert self._hint(self.IDIOM.format("t.rn < 4")) == 3

    def test_detects_flipped_literal_first(self):
        assert self._hint(self.IDIOM.format("3 >= t.rn")) == 3

    def test_tighter_bound_wins(self):
        assert self._hint(self.IDIOM.format("t.rn <= 5 AND t.rn <= 2")) == 2

    def test_only_compiled_mode_acts_on_the_hint(self, monkeypatch):
        """The hint is mode-independent; the interpreted reference ranks
        every row regardless."""
        from repro.storage import executor

        limits = []
        rank_window = executor._rank_window

        def spy(*args):
            limits.append(args[5] if len(args) > 5 else None)
            return rank_window(*args)

        monkeypatch.setattr(executor, "_rank_window", spy)
        for mode, expected in (("compiled", [3]), ("interpreted", [None])):
            db = Database(exec_mode=mode)
            db.execute("CREATE TABLE m (rid int, grp int, score int)")
            db.execute("INSERT INTO m VALUES (1, 1, 5), (2, 1, 3), (3, 2, 9)")
            del limits[:]
            db.query(self.IDIOM.format("t.rn <= 3"))
            assert limits == expected

    def test_lower_bound_is_not_a_hint(self):
        assert self._hint(self.IDIOM.format("t.rn >= 3")) is None

    def test_non_positive_bound_is_not_a_hint(self):
        assert self._hint(self.IDIOM.format("t.rn < 1")) is None

    def test_non_int_bound_is_not_a_hint(self):
        assert self._hint(self.IDIOM.format("t.rn <= TRUE")) is None

    def test_other_alias_is_not_a_hint(self):
        assert self._hint(self.IDIOM.format("u.rn <= 3")) is None

    def test_rank_keeps_full_ranking(self):
        sql = (
            "SELECT t.rid FROM (SELECT rid, rank() OVER "
            "(PARTITION BY grp ORDER BY score) AS rn FROM m) AS t "
            "WHERE t.rn <= 3"
        )
        assert self._hint(sql) is None

    def test_second_window_keeps_full_ranking(self):
        sql = (
            "SELECT t.rid FROM (SELECT rid, row_number() OVER "
            "(PARTITION BY grp ORDER BY score) AS rn, rank() OVER "
            "(ORDER BY rid) AS r2 FROM m) AS t WHERE t.rn <= 3"
        )
        assert self._hint(sql) is None

    @pytest.mark.parametrize(
        "suffix",
        [
            "ORDER BY rid",
            "LIMIT 5",
            "GROUP BY rid",
        ],
    )
    def test_inner_shapes_outside_the_idiom_keep_full_ranking(self, suffix):
        sql = (
            "SELECT t.rid FROM (SELECT rid, row_number() OVER "
            f"(PARTITION BY grp ORDER BY score) AS rn FROM m {suffix}) AS t "
            "WHERE t.rn <= 3"
        )
        assert self._hint(sql) is None
