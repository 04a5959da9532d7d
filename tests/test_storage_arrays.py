"""Unit + property tests for the int-array operators (Section 3.1's tools)."""

from hypothesis import given
from hypothesis import strategies as st
from select_reference import database

from repro.storage import arrays

int_lists = st.lists(st.integers(min_value=0, max_value=200), max_size=30)


class TestContainment:
    def test_contained_by_basic(self):
        # ARRAY[v1] <@ vlist: the checkout predicate.
        assert arrays.contained_by((1,), (1, 2, 3))
        assert not arrays.contained_by((4,), (1, 2, 3))

    def test_empty_array_contained_everywhere(self):
        assert arrays.contained_by((), ())
        assert arrays.contains((1,), ())

    @given(int_lists, int_lists)
    def test_containment_matches_set_semantics(self, inner, outer):
        assert arrays.contained_by(tuple(inner), tuple(outer)) == set(
            inner
        ).issubset(outer)


class TestAppendConcat:
    def test_append_copies(self):
        original = (1, 2)
        appended = arrays.append(original, 3)
        assert appended == (1, 2, 3)
        assert original == (1, 2)

    def test_concat(self):
        assert arrays.concat((1,), (2, 3)) == (1, 2, 3)

    @given(int_lists, st.integers(min_value=0, max_value=99))
    def test_append_grows_by_one(self, values, extra):
        assert len(arrays.append(tuple(values), extra)) == len(values) + 1


class TestRemoveUnnest:
    def test_remove_all_occurrences(self):
        assert arrays.remove((1, 2, 1, 3), 1) == (2, 3)

    def test_unnest_yields_elements(self):
        assert list(arrays.unnest((5, 6))) == [5, 6]

    @given(int_lists)
    def test_unnest_roundtrip(self, values):
        array = arrays.make_array(values)
        assert tuple(arrays.unnest(array)) == array


class TestOverlapIntersect:
    def test_overlap(self):
        assert arrays.overlap((1, 2), (2, 3))
        assert not arrays.overlap((1,), (2,))
        assert not arrays.overlap((), (1, 2))

    def test_intersect_preserves_left_order(self):
        assert arrays.intersect((3, 1, 2), (2, 3)) == (3, 2)

    @given(int_lists, int_lists)
    def test_overlap_matches_set_semantics(self, a, b):
        assert arrays.overlap(tuple(a), tuple(b)) == bool(set(a) & set(b))

    def test_array_length(self):
        assert arrays.array_length((1, 2, 3)) == 3


class TestConversionHoisting:
    """The generic contains/overlap paths rebuild a probe set per call;
    compiled predicates hoist a constant operand's conversion to once per
    statement.  ``arrays.conversion_count`` observes exactly those
    per-call ``set(...)`` builds."""

    BIG = 1 << 30  # far beyond the bitmapizable rid range
    N_ROWS = 40

    def _db(self, mode):
        db = database(mode)
        db.execute("CREATE TABLE t (id int, arr int[])")
        for i in range(self.N_ROWS):
            db.execute(
                "INSERT INTO t VALUES (%s, %s)",
                (i, (self.BIG + i, self.BIG + i + 1, self.BIG + i + 2)),
            )
        return db

    SQL = (
        "SELECT count(*) FROM t WHERE ARRAY[{0}, {1}, {2}, {3}] @> arr"
    ).format(BIG, BIG + 1, BIG + 2, BIG + 3)

    def test_interpreted_generic_path_converts_per_row(self):
        db = self._db("interpreted")
        before = arrays.conversion_count
        rows = db.query(self.SQL)
        assert rows == [(2,)]  # rows 0 and 1 are covered
        assert arrays.conversion_count - before >= self.N_ROWS

    def test_compiled_predicate_hoists_the_conversion(self):
        db = self._db("compiled")
        before = arrays.conversion_count
        rows = db.query(self.SQL)
        assert rows == [(2,)]
        # One statement-level hoist at most — never one per evaluated row.
        assert arrays.conversion_count - before == 0

    def test_columnar_multi_block_scan_keeps_the_hoist(self):
        # The columnar pipeline compiles its predicate once per statement,
        # so a scan spanning several blocks must still pay zero per-row
        # (or per-block) probe-set conversions.
        db = database("compiled")
        db.execute("CREATE TABLE big (id int, arr int[])")
        values = ", ".join(
            f"({i}, ARRAY[{self.BIG + i}, {self.BIG + i + 1}, "
            f"{self.BIG + i + 2}])"
            for i in range(2500)
        )
        db.execute(f"INSERT INTO big VALUES {values}")
        db.reset_stats()
        before = arrays.conversion_count
        rows = db.query(self.SQL.replace("FROM t", "FROM big"))
        assert rows == [(2,)]
        assert db.stats.blocks_scanned >= 2  # really a multi-block scan
        assert arrays.conversion_count - before == 0

    def test_counter_increments_on_direct_generic_calls(self):
        before = arrays.conversion_count
        assert arrays.contains((1, 2, 3, 4), (1, 2, 3))
        assert arrays.overlap((1, 2, 3), (3, 4, 5))
        assert arrays.conversion_count - before == 2
