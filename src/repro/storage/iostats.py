"""Logical I/O accounting for the embedded engine.

The paper's cost model (Section 4.1 and Appendix D.1) reasons about checkout
cost in *records touched* rather than seconds; its appendix validates that
wall-clock time is linear in that count for hash joins.  Our engine keeps the
same books: every scan, index probe, row write, and array-cell rewrite is
counted on the database's :class:`IOStats`.  Benchmarks read these counters to
reproduce the estimated-cost figures (Fig. 20-23), and tests use them to
assert that plans touch the amount of data the paper says they should.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IOStats:
    """Mutable counters; cheap to snapshot and subtract."""

    records_scanned: int = 0
    index_probes: int = 0
    rows_written: int = 0
    rows_deleted: int = 0
    array_cells_written: int = 0
    hash_build_rows: int = 0
    sort_rows: int = 0
    #: Execution-engine counters: row blocks charged by the batch and
    #: block scans, and how many expressions each statement lowered to row
    #: closures (DML, join conditions, and the block pipeline's kernels
    #: that need a whole row) vs. left on the interpreter.  They describe
    #: *how* work ran, so they stay out of :attr:`total_touched`.
    batches_scanned: int = 0
    exprs_compiled: int = 0
    exprs_interpreted: int = 0
    #: Block-pipeline counters: column blocks handed out by
    #: :meth:`Table.scan_column_blocks` (each also charges one
    #: ``batches_scanned``), and expressions served by per-column vector
    #: kernels.  ``exprs_compiled + exprs_columnar + exprs_interpreted``
    #: is the full per-statement expression census.
    blocks_scanned: int = 0
    exprs_columnar: int = 0

    def snapshot(self) -> "IOStats":
        return IOStats(**vars(self))

    def since(self, earlier: "IOStats") -> "IOStats":
        """Counter deltas accumulated after ``earlier`` was snapshotted."""
        return IOStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in vars(self)
            }
        )

    def reset(self) -> None:
        for name in list(vars(self)):
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        """Plain-dict view for the observability registry.

        The obs integration is pull-only: a registered collector calls
        this at snapshot time, so no increment path changes and the gated
        benchmark counters stay byte-identical.
        """
        return dict(vars(self))

    @property
    def total_touched(self) -> int:
        """A single scalar summarizing work done, used in cost plots."""
        return (
            self.records_scanned
            + self.index_probes
            + self.rows_written
            + self.rows_deleted
        )


@dataclass
class StatsRegistry:
    """Holder shared by all tables of one database."""

    stats: IOStats = field(default_factory=IOStats)
