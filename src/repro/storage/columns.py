"""Column-vector blocks: what the compiled pipeline's operators exchange.

A :class:`ColumnBlock` exposes one Python list per column, plus an
optional heap-slot vector, so predicate, projection, key-extraction, and
aggregate kernels run as per-column listcomps (selection vectors) instead
of per-row tuple traffic.  Every operator of the SELECT pipeline
(:mod:`repro.storage.executor`) consumes and produces these blocks;
analytic operators (window functions, grouped top-k) are built directly
on their vectors.

Blocks are *late-materializing*: a scan block keeps the live-row list it
was built from (``block.rows``) and transposes nothing up front.  Column
vectors appear only when a kernel asks for one (:meth:`ColumnBlock.column`
materializes and caches a single column; the :attr:`ColumnBlock.columns`
property materializes the full set), so a query that filters on two
columns and projects three pays for exactly five vectors — never the full
width.  Kernels that can run on the row backing directly (the generated
dual-variant kernels in :mod:`repro.storage.compile`) skip even that.
Blocks built from computed vectors (a general projection's output) are
column-backed from birth.

Design rules the rest of the engine relies on:

* A block's vectors all have the same length; ``block.columns[p][i]`` is
  exactly ``row[p]`` of the i-th live row a row-at-a-time scan would
  have seen, in the same order.  Conversions between representations are
  therefore pure layout changes — the equivalence suites compare the
  block pipeline bit-for-bit against the interpreted reference.
* Logical I/O charging happens where blocks are produced
  (:meth:`Table.scan_column_blocks`), mirroring ``scan_batches`` exactly,
  so the block scan charges ``records_scanned`` / ``batches_scanned`` —
  the counters every benchmark gate is built on — exactly as the row
  scan does.  Lazy materialization charges nothing: it is a layout
  change, not I/O.
* numpy is an *optional* accelerator: when present, a few semantics-safe
  reductions (min/max over None-free int vectors) use it; when absent,
  every path runs on stdlib lists.  Nothing imports numpy at module load
  time on the hot path — the probe happens once, here.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

try:  # pragma: no cover - exercised implicitly by whichever env runs CI
    import numpy as _np

    HAVE_NUMPY = True
except Exception:  # pragma: no cover
    _np = None
    HAVE_NUMPY = False

Row = tuple[Any, ...]

#: Vectors shorter than this never bother with the numpy fast path: the
#: fromiter conversion would cost more than the reduction saves.
_NUMPY_MIN_ROWS = 256


class ColumnBlock:
    """One block of rows, readable in columnar or row layout.

    A block is either *row-backed* (``rows`` is the live-row list, columns
    materialize lazily) or *column-backed* (``rows`` is ``None``,
    ``columns`` was supplied up front).  ``slots`` (optional) holds the
    heap slot of each row, for DML-style consumers that need rid/slot
    vectors alongside the values.  ``source`` (optional) is the block a
    projected or aggregated block was computed from, row for row — ORDER
    BY may sort by a column the select list dropped; :func:`concat_columns`
    carries it, :meth:`take` does not.
    """

    __slots__ = ("_columns", "_single", "_width", "length", "slots", "rows", "source")

    def __init__(
        self, columns: list[list], length: int, slots: list[int] | None = None
    ):
        self._columns = columns
        self._single = None
        self._width = len(columns)
        self.length = length
        self.slots = slots
        self.rows = None
        self.source = None

    # ------------------------------------------------------------ building

    @classmethod
    def from_rows(
        cls, rows: list[Row], width: int, slots: list[int] | None = None
    ) -> "ColumnBlock":
        """Wrap a list of row tuples as a row-backed block — no transpose.

        Columns materialize on demand; consumers that stay on the row
        backing (the dual-variant kernels, :meth:`take`, :meth:`to_rows`)
        never pay for one.
        """
        block = cls.__new__(cls)
        block._columns = None
        block._single = None
        block._width = width
        block.length = len(rows)
        block.slots = slots
        block.rows = rows
        block.source = None
        return block

    # ------------------------------------------------------------- reading

    @property
    def width(self) -> int:
        return self._width

    @property
    def columns(self) -> list[list]:
        """The full column-vector set (materialized once, then cached)."""
        cols = self._columns
        if cols is None:
            rows = self.rows
            if rows:
                cols = [list(values) for values in zip(*rows)]
            else:
                cols = [[] for _ in range(self._width)]
            self._columns = cols
        return cols

    def column(self, position: int) -> list:
        """One column vector; row-backed blocks materialize just this one."""
        cols = self._columns
        if cols is not None:
            return cols[position]
        cache = self._single
        if cache is None:
            cache = self._single = {}
        vector = cache.get(position)
        if vector is None:
            vector = cache[position] = [row[position] for row in self.rows]
        return vector

    def row(self, i: int) -> Row:
        """The i-th row as a tuple (the replay / fallback path)."""
        rows = self.rows
        if rows is not None:
            return rows[i]
        return tuple(column[i] for column in self._columns)

    def to_rows(self) -> list[Row]:
        """All rows as tuples, in order (the row-pipeline bridge)."""
        rows = self.rows
        if rows is not None:
            return rows
        if not self._columns:
            return [()] * self.length
        return list(zip(*self._columns))

    def take(self, selection: Sequence[int]) -> "ColumnBlock":
        """A new block holding only the selected positions, in order."""
        slots = (
            [self.slots[i] for i in selection] if self.slots is not None else None
        )
        rows = self.rows
        if rows is not None:
            return ColumnBlock.from_rows(
                list(map(rows.__getitem__, selection)), self._width, slots
            )
        columns = [[column[i] for i in selection] for column in self._columns]
        return ColumnBlock(columns, len(selection), slots)


def concat_columns(blocks: Iterable[ColumnBlock], width: int) -> ColumnBlock:
    """Concatenate blocks into one (the pipeline's materialization point).

    A single block comes back as is.  Otherwise the result is row-backed:
    scan and filter blocks already are, so this is a plain list extend;
    any column-backed input pays one transpose.
    """
    blocks = list(blocks)
    if len(blocks) == 1:
        return blocks[0]
    rows: list[Row] = []
    for block in blocks:
        rows.extend(block.to_rows())
    whole = ColumnBlock.from_rows(rows, width)
    if blocks and blocks[0].source is not None:
        sources = [block.source for block in blocks]
        whole.source = concat_columns(sources, sources[0].width)
    return whole


def rows_iter(block: ColumnBlock) -> Iterator[Row]:
    """Row tuples of a block without materializing the whole list."""
    if block.rows is not None:
        return iter(block.rows)
    return iter(zip(*block.columns)) if block.columns else iter(())


# ------------------------------------------------------------- reductions
#
# Aggregate combiners over already-extracted value vectors.  ``values``
# excludes NULLs (the caller filters, exactly like the reference's
# ``_compute_aggregate``), so min/max/sum see the same operand lists and
# produce the same results — including the same TypeErrors on mixed
# garbage.  The numpy path is used only where it is bit-equivalent:
# min/max of an int-only vector returns one of the original Python ints.


def _int_only(values: list) -> bool:
    return all(type(v) is int for v in values)


def reduce_min(values: list) -> Any:
    if HAVE_NUMPY and len(values) >= _NUMPY_MIN_ROWS and _int_only(values):
        # argmin keeps the result an element of ``values`` (a Python int),
        # so the output is indistinguishable from min(values).
        try:
            return values[int(_np.argmin(_np.array(values, dtype=_np.int64)))]
        except OverflowError:  # ints beyond int64: stdlib handles them
            pass
    return min(values)


def reduce_max(values: list) -> Any:
    if HAVE_NUMPY and len(values) >= _NUMPY_MIN_ROWS and _int_only(values):
        try:
            return values[int(_np.argmax(_np.array(values, dtype=_np.int64)))]
        except OverflowError:
            pass
    return max(values)
