"""Unit tests for :mod:`repro.storage.columns` — dual-backed blocks.

A :class:`ColumnBlock` is either row-backed (late materialization: the
scan's live-row list, no transpose) or column-backed (computed vectors).
Every reading method must agree between the two layouts, and laziness
must be real (nothing transposes until asked).
"""

from __future__ import annotations

from repro.storage.columns import ColumnBlock, concat_columns, rows_iter

ROWS = [(1, "a", None), (2, "b", 2.5), (3, None, 0.0)]


def _row_backed() -> ColumnBlock:
    return ColumnBlock.from_rows(list(ROWS), 3)


def _column_backed() -> ColumnBlock:
    return ColumnBlock([[1, 2, 3], ["a", "b", None], [None, 2.5, 0.0]], 3)


class TestDualBacking:
    def test_layouts_agree_on_every_reader(self):
        rb, cb = _row_backed(), _column_backed()
        assert rb.length == cb.length == 3
        assert rb.width == cb.width == 3
        assert rb.columns == cb.columns
        for position in range(3):
            assert rb.column(position) == cb.column(position)
        for i in range(3):
            assert rb.row(i) == cb.row(i) == ROWS[i]
        assert rb.to_rows() == cb.to_rows() == ROWS
        assert list(rows_iter(rb)) == list(rows_iter(cb)) == ROWS

    def test_from_rows_is_lazy(self):
        block = _row_backed()
        assert block._columns is None  # nothing transposed yet
        assert block.column(1) == ["a", "b", None]
        assert block._columns is None  # single column: still no transpose
        assert block.column(1) is block.column(1)  # cached vector
        assert block.columns == [[1, 2, 3], ["a", "b", None], [None, 2.5, 0.0]]
        assert block.columns is block.columns  # full set cached too

    def test_to_rows_returns_the_backing_list(self):
        rows = list(ROWS)
        block = ColumnBlock.from_rows(rows, 3)
        assert block.to_rows() is rows

    def test_take_preserves_backing_and_slots(self):
        rb = ColumnBlock.from_rows(list(ROWS), 3, slots=[10, 20, 30])
        taken = rb.take([2, 0])
        assert taken.rows == [ROWS[2], ROWS[0]]
        assert taken.slots == [30, 10]
        assert taken.length == 2 and taken.width == 3
        cb = _column_backed()
        assert cb.take([2, 0]).to_rows() == [ROWS[2], ROWS[0]]

    def test_concat_is_row_backed(self):
        merged = concat_columns([_row_backed(), _column_backed()], 3)
        assert merged.rows == ROWS + ROWS
        assert merged.length == 6

    def test_empty_blocks(self):
        rb = ColumnBlock.from_rows([], 3)
        assert rb.length == 0
        assert rb.columns == [[], [], []]
        assert rb.to_rows() == []
        cb = ColumnBlock([[], [], []], 0)
        assert cb.to_rows() == []
        assert list(rows_iter(cb)) == []

    def test_zero_width_rows(self):
        block = ColumnBlock([], 2)
        assert block.to_rows() == [(), ()]
