"""Approach 3: split-by-rlist — the model OrpheusDB adopts (Figure 1c.ii).

The versioning table is keyed by ``vid`` and stores each version's record
ids as one array.  Commit appends exactly one versioning-table row (no array
rewrites), and checkout probes that row by primary key, unnests the rlist,
and hash-joins it against the data table — the plan Section 3.2 analyses.
"""

from __future__ import annotations

from typing import ClassVar, Iterable, Iterator, Mapping, Sequence

from repro.core.datamodels.base import DataModel, Row
from repro.storage.expression import BinaryOp, ColumnRef, FuncCall, Literal
from repro.storage.parser import ast_nodes as ast
from repro.storage.ridset import RidSet
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType


class SplitByRlistModel(DataModel):
    model_name = "split_by_rlist"
    #: The set-returning function that expands one rlist cell into rids.
    unnest: ClassVar[str] = "unnest"

    @property
    def data_table(self) -> str:
        return f"{self.cvd_name}__data"

    @property
    def versioning_table(self) -> str:
        return f"{self.cvd_name}__versions"

    def create_storage(self) -> None:
        self.db.create_table(
            self.data_table,
            TableSchema(
                [Column("rid", DataType.INTEGER)]
                + list(self.data_schema.columns),
                ("rid",),
            ),
            clustered_on="rid",
        )
        self.db.create_table(
            self.versioning_table,
            TableSchema(
                [
                    Column("vid", DataType.INTEGER),
                    Column("rlist", DataType.INT_ARRAY),
                ],
                ("vid",),
            ),
        )

    def drop_storage(self) -> None:
        self.db.drop_table(self.data_table, if_exists=True)
        self.db.drop_table(self.versioning_table, if_exists=True)

    def add_version(
        self,
        vid: int,
        members: RidSet,
        new_records: Mapping[int, Row],
        parent_vids: Sequence[int],
        partition: int | None = None,
    ) -> None:
        self.db.table(self.data_table).insert_many(
            (rid,) + tuple(row) for rid, row in new_records.items()
        )
        # The whole commit is one INSERT (Table 1's third column).
        self.db.execute(
            f"INSERT INTO {self.versioning_table} VALUES (%s, %s)",
            self.rlist_row(vid, members),
        )

    def rlist_row(self, vid: int, members: RidSet) -> Row:
        """Version ``vid``'s versioning-table row: its rlist, ascending.

        Commit, bulk load and snapshot restore all build the row here."""
        return (vid, members.to_array())

    def bulk_load(self, versions, payloads) -> None:
        seen: set[int] = set()
        data_rows = []
        versioning_rows = []
        for vid, _parents, member_rids in versions:
            for rid in member_rids:
                if rid not in seen:
                    seen.add(rid)
                    data_rows.append((rid,) + tuple(payloads[rid]))
            versioning_rows.append(self.rlist_row(vid, RidSet(member_rids)))
        self.db.table(self.data_table).insert_many(data_rows)
        self.db.table(self.versioning_table).insert_many(versioning_rows)

    def derived_tables(self) -> dict[str, Iterable[Row]]:
        return {self.versioning_table: self._rlist_rows()}

    def _rlist_rows(self) -> Iterator[Row]:
        # Commits append in vid order, so ascending vid is the slot order.
        for vid in sorted(self.membership):
            yield self.rlist_row(vid, self.membership[vid])

    def fetch_rows(self, vid: int, rids: Iterable[int]) -> list[Row]:
        return self._fetch_rows_from_table(self.data_table, rids)

    def storage_bytes(self) -> int:
        return self.db.table(self.data_table).storage_bytes() + self.db.table(
            self.versioning_table
        ).storage_bytes()

    def version_plan(self, vid: int) -> ast.Select:
        return self._rid_join(
            self.data_table, rlist_scan(self.versioning_table, vid, self.unnest)
        )

    def all_versions_plan(self) -> ast.Select:
        return self._member_join(
            self.data_table, rlist_scan(self.versioning_table, unnest=self.unnest)
        )


def rlist_scan(
    versioning_table: str, vid: int | None = None, unnest: str = "unnest"
) -> ast.Select:
    """The versioning-table side of Table 1's split-by-rlist checkout.

    With ``vid``, that version's rids: ``SELECT unnest(rlist) AS rid_tmp
    FROM V WHERE vid = <vid>`` (a primary-key probe).  Without, every
    membership pair: ``SELECT vid, unnest(rlist) AS rid_tmp FROM V``.
    ``unnest`` names the set-returning function that expands an rlist.
    """
    rids = ast.SelectItem(FuncCall(unnest, (ColumnRef("rlist"),)), "rid_tmp")
    source = [ast.TableRef(versioning_table)]
    if vid is None:
        return ast.Select([ast.SelectItem(ColumnRef("vid")), rids], source)
    return ast.Select(
        [rids], source, where=BinaryOp("=", ColumnRef("vid"), Literal(vid))
    )
