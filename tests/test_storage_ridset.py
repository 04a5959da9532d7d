"""Property tests: RidSet bitmap semantics ≡ builtin set semantics.

Every algebraic operation the membership hot paths rely on is checked
against the reference ``set[int]`` implementation over random inputs —
empty, sparse, and dense — plus the serialization round-trips.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import arrays
from repro.storage.ridset import RidSet

# Mix tight clusters (dense words) with far-flung rids (huge bitmap tails).
rid_lists = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=100_000, max_value=100_256),
    ),
    max_size=300,
)


class TestSetEquivalence:
    @given(rid_lists)
    @settings(max_examples=60, deadline=None)
    def test_construction_and_iteration(self, values):
        ridset = RidSet(values)
        reference = set(values)
        assert len(ridset) == len(reference)
        assert list(ridset) == sorted(reference)
        assert ridset == reference  # RidSet.__eq__ against a builtin set
        assert bool(ridset) == bool(reference)
        for probe in list(reference)[:10]:
            assert probe in ridset
        assert -1 not in ridset
        assert (max(reference) + 1 if reference else 7) in ridset or True

    @given(rid_lists, rid_lists)
    @settings(max_examples=60, deadline=None)
    def test_binary_algebra(self, left_values, right_values):
        left, right = RidSet(left_values), RidSet(right_values)
        ref_left, ref_right = set(left_values), set(right_values)
        assert left | right == ref_left | ref_right
        assert left & right == ref_left & ref_right
        assert left - right == ref_left - ref_right
        assert left ^ right == ref_left ^ ref_right
        assert left.isdisjoint(right) == ref_left.isdisjoint(ref_right)
        assert left.issubset(right) == ref_left.issubset(ref_right)
        assert left.issuperset(right) == ref_left.issuperset(ref_right)

    @given(rid_lists, rid_lists)
    @settings(max_examples=60, deadline=None)
    def test_counting_shortcuts(self, left_values, right_values):
        left, right = RidSet(left_values), RidSet(right_values)
        ref_left, ref_right = set(left_values), set(right_values)
        assert left.intersection_count(right) == len(ref_left & ref_right)
        assert left.union_count(right) == len(ref_left | ref_right)
        assert left.difference_count(right) == len(ref_left - ref_right)

    @given(rid_lists, rid_lists)
    @settings(max_examples=40, deadline=None)
    def test_mixed_operands(self, left_values, right_values):
        """Ops accept plain iterables / sets on either side."""
        left = RidSet(left_values)
        reference = set(left_values) | set(right_values)
        assert left | set(right_values) == reference
        assert left | tuple(right_values) == reference
        assert set(left_values) - RidSet(right_values) == set(
            left_values
        ) - set(right_values)

    @given(st.lists(rid_lists, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_union_all(self, groups):
        combined = RidSet.union_all(RidSet(g) for g in groups)
        reference: set[int] = set()
        for group in groups:
            reference |= set(group)
        assert combined == reference

    @given(rid_lists)
    @settings(max_examples=40, deadline=None)
    def test_min_max(self, values):
        ridset = RidSet(values)
        if not values:
            with pytest.raises(ValueError):
                ridset.min()
            with pytest.raises(ValueError):
                ridset.max()
        else:
            assert ridset.min() == min(values)
            assert ridset.max() == max(values)


class TestSerialization:
    @given(rid_lists)
    @settings(max_examples=40, deadline=None)
    def test_bytes_roundtrip(self, values):
        ridset = RidSet(values)
        assert RidSet.from_bytes(ridset.to_bytes()) == ridset
        if not values:
            assert ridset.to_bytes() == b""

    @given(rid_lists)
    @settings(max_examples=40, deadline=None)
    def test_pickle_roundtrip(self, values):
        ridset = RidSet(values)
        clone = pickle.loads(pickle.dumps(ridset))
        assert clone == ridset
        assert len(clone) == len(ridset)

    @given(rid_lists)
    @settings(max_examples=40, deadline=None)
    def test_to_array_is_wire_encoding(self, values):
        """Ascending int-array form matches sorted() of the reference set —
        what the snapshot writer emits."""
        ridset = RidSet(values)
        assert ridset.to_array() == tuple(sorted(set(values)))
        assert sorted(ridset) == sorted(set(values))



class TestValidation:
    def test_negative_rid_rejected(self):
        with pytest.raises(ValueError):
            RidSet([3, -1])

    def test_hashable(self):
        assert hash(RidSet([1, 2])) == hash(RidSet((2, 1)))
        assert {RidSet([1]): "x"}[RidSet([1])] == "x"


class TestArrayOperatorFastPaths:
    @given(rid_lists, rid_lists)
    @settings(max_examples=40, deadline=None)
    def test_contains_overlap_intersect(self, outer_values, inner_values):
        outer_set, inner_set = set(outer_values), set(inner_values)
        expected_contains = inner_set <= outer_set
        expected_overlap = bool(outer_set & inner_set)
        combos = [
            (RidSet(outer_values), RidSet(inner_values)),
            (RidSet(outer_values), tuple(inner_values)),
            (tuple(outer_values), RidSet(inner_values)),
        ]
        for outer, inner in combos:
            assert arrays.contains(outer, inner) == expected_contains
            assert arrays.contained_by(inner, outer) == expected_contains
            assert arrays.overlap(outer, inner) == expected_overlap
        assert set(
            arrays.intersect(RidSet(outer_values), RidSet(inner_values))
        ) == (outer_set & inner_set)

    def test_sql_containment_uses_bitmap_literal(self, db):
        """End to end: a <@ predicate over an int[] column still answers
        correctly once the executor bitmapizes the constant side."""
        from repro.storage.schema import Column, TableSchema
        from repro.storage.types import DataType

        db.create_table(
            "t",
            TableSchema(
                [
                    Column("vid", DataType.INTEGER),
                    Column("rlist", DataType.INT_ARRAY),
                ],
                ("vid",),
            ),
        )
        db.execute("INSERT INTO t VALUES (1, %s)", ((1, 2, 3, 50),))
        db.execute("INSERT INTO t VALUES (2, %s)", ((2, 4),))
        rows = db.query("SELECT vid FROM t WHERE ARRAY[2, 50] <@ rlist")
        assert [row[0] for row in rows] == [1]
        rows = db.query("SELECT vid FROM t WHERE rlist @> ARRAY[4]")
        assert [row[0] for row in rows] == [2]
        rows = db.query("SELECT vid FROM t WHERE rlist && ARRAY[50, 99]")
        assert [row[0] for row in rows] == [1]

    def test_huge_constants_skip_the_bitmap_path(self, db):
        """Constants past the bitmap rid bound must not allocate a
        max-rid-sized buffer — they fall back to the hash-probe path."""
        from repro.storage.schema import Column, TableSchema
        from repro.storage.types import DataType

        db.create_table(
            "t",
            TableSchema(
                [
                    Column("vid", DataType.INTEGER),
                    Column("rlist", DataType.INT_ARRAY),
                ],
                ("vid",),
            ),
        )
        huge = 10**15
        db.execute("INSERT INTO t VALUES (1, %s)", ((1, huge),))
        rows = db.query("SELECT vid FROM t WHERE rlist @> ARRAY[%s]", (huge,))
        assert [row[0] for row in rows] == [1]
        rows = db.query("SELECT vid FROM t WHERE ARRAY[%s] <@ rlist", (huge + 1,))
        assert rows == []
