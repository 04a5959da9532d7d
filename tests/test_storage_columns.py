"""Unit tests for :mod:`repro.storage.columns` — row blocks.

A :class:`ColumnBlock` is one list of row tuples.  Its column vectors are
built only when asked for, one column at a time, and cached; ``take``
gathers rows; ``concat_columns`` joins blocks and the sources they carry.
"""

from __future__ import annotations

from repro.storage.columns import ColumnBlock, concat_columns

ROWS = [(1, "a", None), (2, "b", 2.5), (3, None, 0.0)]
COLUMNS = [[1, 2, 3], ["a", "b", None], [None, 2.5, 0.0]]


class TestRowBlock:
    def test_the_rows_are_the_backing_list(self):
        rows = list(ROWS)
        block = ColumnBlock(rows)
        assert block.rows is rows
        assert block.length == 3
        assert block.source is None

    def test_columns_are_built_lazily_one_at_a_time(self):
        block = ColumnBlock(list(ROWS))
        assert block._vectors == {}  # nothing transposed yet
        assert block.column(1) == COLUMNS[1]
        assert list(block._vectors) == [1]  # only the column asked for
        for position in range(3):
            assert block.column(position) == COLUMNS[position]

    def test_a_column_is_cached(self):
        block = ColumnBlock(list(ROWS))
        assert block.column(2) is block.column(2)

    def test_take_gathers_rows_in_selection_order(self):
        block = ColumnBlock(list(ROWS))
        block.column(0)
        taken = block.take([2, 0, 2])
        assert taken.rows == [ROWS[2], ROWS[0], ROWS[2]]
        assert taken.length == 3
        assert taken.column(0) == [3, 1, 3]  # its own vectors, not the parent's
        assert block.take([]).rows == []

    def test_take_drops_the_source(self):
        block = ColumnBlock(list(ROWS))
        block.source = ColumnBlock(list(ROWS))
        assert block.take([0]).source is None


class TestConcat:
    def test_a_single_block_comes_back_as_is(self):
        block = ColumnBlock(list(ROWS))
        assert concat_columns([block]) is block
        assert concat_columns(iter([block])) is block

    def test_blocks_join_in_order(self):
        merged = concat_columns([ColumnBlock(ROWS[:1]), ColumnBlock(ROWS[1:])])
        assert merged.rows == ROWS
        assert merged.length == 3
        assert merged.source is None

    def test_sources_join_beside_their_blocks(self):
        first, second = ColumnBlock([(10,)]), ColumnBlock([(20,), (30,)])
        first.source = ColumnBlock(ROWS[:1])
        second.source = ColumnBlock(ROWS[1:])
        merged = concat_columns([first, second])
        assert merged.rows == [(10,), (20,), (30,)]
        assert merged.source.rows == ROWS

    def test_no_blocks_is_one_empty_block(self):
        merged = concat_columns([])
        assert merged.rows == [] and merged.length == 0


class TestEdges:
    def test_empty_block(self):
        block = ColumnBlock([])
        assert block.length == 0
        assert block.column(0) == []
        assert block.take([]).rows == []

    def test_zero_width_rows(self):
        block = ColumnBlock([(), ()])
        assert block.length == 2
        assert block.take([1]).rows == [()]
        assert concat_columns([block, block]).rows == [(), (), (), ()]
