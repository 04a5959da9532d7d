"""Row blocks: what the SELECT pipeline's operators exchange.

A :class:`ColumnBlock` is one list of row tuples (``block.rows``).  Every
operator of the SELECT pipeline (:mod:`repro.storage.executor`) consumes
and produces these blocks, and the generated kernels of
:mod:`repro.storage.compile` run one listcomp over ``block.rows``.

Blocks are *late-materializing*: a scan block is the live-row list the
table handed out, and nothing is transposed up front.  A column vector
appears only when an operator asks for one (:meth:`ColumnBlock.column`
builds and caches a single column — window, group and sort keys, bare
column projections), so a query pays for exactly the vectors it reads,
never the full width.

Design rules the rest of the engine relies on:

* ``block.column(p)[i]`` is exactly ``block.rows[i][p]``, the i-th live
  row a row-at-a-time scan would have seen, in the same order; the
  parity suites compare the block pipeline bit-for-bit against the
  row-at-a-time reference in ``tests/select_reference.py``.
* Logical I/O is charged where blocks are produced (the Scan operator,
  over :meth:`Table.scan_batches`), so a block scan charges
  ``records_scanned`` / ``batches_scanned`` — the counters every
  benchmark gate is built on — exactly as any other scan of the table
  does.  A column vector charges nothing: it is a layout change, not I/O.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

Row = tuple[Any, ...]


class ColumnBlock:
    """One block of rows, with column vectors built on demand.

    ``source`` (optional) is the block a projected or aggregated block was
    computed from, row for row — ORDER BY may sort by a column the select
    list dropped; :func:`concat_columns` carries it, :meth:`take` does not.
    """

    __slots__ = ("rows", "length", "source", "_vectors")

    def __init__(self, rows: list[Row]):
        self.rows = rows
        self.length = len(rows)
        self.source = None
        self._vectors: dict[int, list] = {}

    def column(self, position: int) -> list:
        """One column vector, built on first use and cached."""
        vector = self._vectors.get(position)
        if vector is None:
            vector = self._vectors[position] = [row[position] for row in self.rows]
        return vector

    def take(self, selection: Sequence[int]) -> "ColumnBlock":
        """A new block holding only the selected positions, in order."""
        return ColumnBlock(list(map(self.rows.__getitem__, selection)))


def concat_columns(blocks: Iterable[ColumnBlock]) -> ColumnBlock:
    """Concatenate blocks into one (the pipeline's materialization point).

    A single block comes back as is; otherwise the rows are one list
    extend, and the sources, when the blocks carry them, concatenate too.
    """
    blocks = list(blocks)
    if len(blocks) == 1:
        return blocks[0]
    rows: list[Row] = []
    for block in blocks:
        rows.extend(block.rows)
    whole = ColumnBlock(rows)
    if blocks and blocks[0].source is not None:
        whole.source = concat_columns([block.source for block in blocks])
    return whole
