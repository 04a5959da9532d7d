"""Unit + property tests for the three join algorithms (Appendix D.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from select_reference import database

from repro.errors import ExecutionError
from repro.storage.iostats import IOStats
from repro.storage.joins import hash_join, index_nested_loop_join, merge_join
from repro.storage.schema import Column, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType

LEFT = [(1, "a"), (2, "b"), (2, "c"), (4, "d")]
RIGHT = [(2, "x"), (2, "y"), (3, "z"), (4, "w")]
EXPECTED = sorted(
    [
        (2, "b", 2, "x"),
        (2, "b", 2, "y"),
        (2, "c", 2, "x"),
        (2, "c", 2, "y"),
        (4, "d", 4, "w"),
    ]
)


def _inner_table(rows):
    table = Table(
        "inner",
        TableSchema(
            [Column("k", DataType.INTEGER), Column("v", DataType.TEXT)]
        ),
        enforce_primary_key=False,
    )
    table.create_index("by_k", ["k"])
    table.insert_many(rows)
    return table


class TestHashJoin:
    def test_basic(self):
        out = sorted(hash_join(LEFT, [0], RIGHT, [0]))
        assert out == EXPECTED

    def test_build_side_order_flag(self):
        out = sorted(hash_join(RIGHT, [0], LEFT, [0], build_side_first=False))
        assert out == EXPECTED

    def test_null_keys_never_match(self):
        out = list(hash_join([(None, "a")], [0], [(None, "b")], [0]))
        assert out == []

    def test_build_rows_counted(self):
        stats = IOStats()
        list(hash_join(LEFT, [0], RIGHT, [0], stats=stats))
        assert stats.hash_build_rows == len(LEFT)


class TestMergeJoin:
    def test_basic_unsorted(self):
        out = sorted(merge_join(LEFT, [0], RIGHT, [0]))
        assert out == EXPECTED

    def test_assume_sorted_skips_sort_accounting(self):
        stats = IOStats()
        left = sorted(LEFT)
        right = sorted(RIGHT)
        out = sorted(merge_join(left, [0], right, [0], stats=stats, assume_sorted=True))
        assert out == EXPECTED
        assert stats.sort_rows == 0

    def test_sort_accounting(self):
        stats = IOStats()
        list(merge_join(LEFT, [0], RIGHT, [0], stats=stats))
        assert stats.sort_rows == len(LEFT) + len(RIGHT)

    def test_duplicate_runs_on_both_sides(self):
        left = [(1, "a"), (1, "b")]
        right = [(1, "x"), (1, "y"), (1, "z")]
        assert len(list(merge_join(left, [0], right, [0]))) == 6


class TestIndexNestedLoopJoin:
    def test_basic(self):
        inner = _inner_table(RIGHT)
        out = sorted(index_nested_loop_join(LEFT, [0], inner, ["k"]))
        assert out == EXPECTED

    def test_probes_counted(self):
        inner = _inner_table(RIGHT)
        inner.stats.reset()
        list(index_nested_loop_join(LEFT, [0], inner, ["k"]))
        assert inner.stats.index_probes == len(LEFT)

    def test_missing_index_raises(self):
        inner = _inner_table(RIGHT)
        with pytest.raises(ExecutionError):
            list(index_nested_loop_join(LEFT, [0], inner, ["v"]))


keys = st.integers(min_value=0, max_value=8)
rows = st.lists(st.tuples(keys, st.integers(min_value=0, max_value=100)), max_size=25)


class TestJoinEquivalence:
    """All three algorithms must produce identical multisets of rows —
    the invariant Fig. 19's cross-algorithm comparison rests on."""

    @given(rows, rows)
    def test_hash_equals_merge(self, left, right):
        expected = sorted(hash_join(left, [0], right, [0]))
        assert sorted(merge_join(left, [0], right, [0])) == expected

    @given(rows, rows)
    def test_hash_equals_nested_loop_reference(self, left, right):
        reference = sorted(
            lrow + rrow
            for lrow in left
            for rrow in right
            if lrow[0] == rrow[0]
        )
        assert sorted(hash_join(left, [0], right, [0])) == reference

    @given(rows, rows)
    def test_inl_equals_reference(self, left, right):
        inner = Table(
            "inner",
            TableSchema(
                [Column("k", DataType.INTEGER), Column("v", DataType.INTEGER)]
            ),
            enforce_primary_key=False,
        )
        inner.create_index("by_k", ["k"])
        inner.insert_many(right)
        reference = sorted(
            lrow + rrow
            for lrow in left
            for rrow in right
            if lrow[0] == rrow[0]
        )
        got = sorted(index_nested_loop_join(left, [0], inner, ["k"]))
        assert got == reference


class TestSemiJoinRewrite:
    """The planner's compiled-only semi-join elimination: when nothing
    downstream references the hash join's build side and the build keys
    are unique, the join collapses into an IN-set filter on the (still
    lazy) probe scan.  Results, output order, and the gated counters
    (``records_scanned``, ``hash_build_rows``) must be indistinguishable
    from the reference join; ``blocks_scanned > 0`` is the tell that the
    probe scan stayed lazy (the reference join materializes it first)."""

    N = 300

    def _db(self, mode):
        db = database(mode)
        db.execute("CREATE TABLE d (rid int, a1 int, a2 text)")
        for rid in range(self.N):
            db.execute(
                "INSERT INTO d VALUES (%s, %s, %s)",
                (rid, (rid * 13) % 50, f"t{rid % 7}"),
            )
        db.execute("CREATE TABLE v (vid int, rlist int[])")
        db.execute("CREATE INDEX v_vid ON v (vid)")
        rlist = tuple(rid for rid in range(self.N) if rid % 3 != 0)
        db.execute("INSERT INTO v VALUES (%s, %s)", (1, rlist))
        db.execute("CREATE TABLE dup (k int, z int)")
        for row in [(1, 10), (1, 11), (2, 20)]:
            db.execute("INSERT INTO dup VALUES (%s, %s)", row)
        return db

    IDIOM = (
        "SELECT d.rid, d.a1 FROM d, (SELECT unnest(rlist) AS rt FROM v "
        "WHERE vid = 1) AS tmp WHERE d.rid = tmp.rt AND d.a1 > 10"
    )

    def test_rewrite_matches_reference_rows_and_order(self):
        compiled = self._db("compiled")
        interpreted = self._db("interpreted")
        assert compiled.query(self.IDIOM) == interpreted.query(self.IDIOM)

    def test_rewrite_keeps_gated_counters_identical(self):
        observed = {}
        for mode in ("compiled", "interpreted"):
            db = self._db(mode)
            db.reset_stats()
            db.query(self.IDIOM)
            observed[mode] = (
                db.stats.records_scanned,
                db.stats.index_probes,
                db.stats.hash_build_rows,
            )
        assert observed["compiled"] == observed["interpreted"]

    def test_rewrite_keeps_the_probe_scan_lazy(self):
        db = self._db("compiled")
        db.reset_stats()
        db.query(self.IDIOM)
        assert db.stats.blocks_scanned > 0

    @pytest.mark.parametrize(
        "sql",
        [
            # Build side projected: the join must survive.
            "SELECT d.rid, tmp.rt FROM d, (SELECT unnest(rlist) AS rt "
            "FROM v WHERE vid = 1) AS tmp WHERE d.rid = tmp.rt "
            "ORDER BY d.rid LIMIT 9",
            # Star projection expands both sides.
            "SELECT * FROM d, (SELECT unnest(rlist) AS rt FROM v "
            "WHERE vid = 1) AS tmp WHERE d.rid = tmp.rt LIMIT 9",
            # Build side referenced from ORDER BY only.
            "SELECT d.rid FROM d, (SELECT unnest(rlist) AS rt FROM v "
            "WHERE vid = 1) AS tmp WHERE d.rid = tmp.rt "
            "ORDER BY tmp.rt DESC LIMIT 9",
            # Duplicate build keys multiply probe rows.
            "SELECT d.rid, d.a1 FROM d, dup WHERE d.rid = dup.k "
            "ORDER BY d.rid, d.a1",
            # Aggregates over the surviving rows.
            "SELECT count(*), sum(d.a1) FROM d, (SELECT unnest(rlist) "
            "AS rt FROM v WHERE vid = 1) AS tmp WHERE d.rid = tmp.rt",
        ],
    )
    def test_bail_outs_and_aggregates_match_reference(self, sql):
        compiled = self._db("compiled")
        interpreted = self._db("interpreted")
        assert compiled.query(sql) == interpreted.query(sql)

    def test_bail_out_keeps_the_reference_join(self):
        db = self._db("compiled")
        db.reset_stats()
        db.query(
            "SELECT d.rid, tmp.rt FROM d, (SELECT unnest(rlist) AS rt "
            "FROM v WHERE vid = 1) AS tmp WHERE d.rid = tmp.rt"
        )
        # The reference join materializes the probe side up front, so the
        # lazy columnar scan never runs.
        assert db.stats.blocks_scanned == 0
