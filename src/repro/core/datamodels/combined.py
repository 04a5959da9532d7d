"""Approach 1: the combined-table model (paper Figure 1b).

One relation holds the data attributes plus a ``vlist int[]`` versioning
attribute listing every version each record belongs to.  Commit must append
the new vid to the vlist of *every* record in the committed version — the
expensive array-rewrite behaviour Figure 3b quantifies.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.datamodels.base import DataModel, Row
from repro.storage.expression import (
    ArrayLiteral,
    BinaryOp,
    ColumnRef,
    FuncCall,
    Literal,
)
from repro.storage.parser import ast_nodes as ast
from repro.storage.ridset import RidSet
from repro.storage.schema import Column, TableSchema
from repro.storage.types import DataType


def vlist_holds(vid: int) -> BinaryOp:
    """``ARRAY[vid] <@ vlist``: the row's version list contains ``vid``."""
    return BinaryOp("<@", ArrayLiteral((Literal(vid),)), ColumnRef("vlist"))


class CombinedTableModel(DataModel):
    model_name = "combined"

    @property
    def table_name(self) -> str:
        return f"{self.cvd_name}__combined"

    def create_storage(self) -> None:
        columns = (
            [Column("rid", DataType.INTEGER)]
            + list(self.data_schema.columns)
            + [Column("vlist", DataType.INT_ARRAY)]
        )
        self.db.create_table(
            self.table_name, TableSchema(columns, ("rid",)), clustered_on="rid"
        )

    def drop_storage(self) -> None:
        self.db.drop_table(self.table_name, if_exists=True)

    def add_version(
        self,
        vid: int,
        members: RidSet,
        new_records: Mapping[int, Row],
        parent_vids: Sequence[int],
        partition: int | None = None,
    ) -> None:
        table = self.db.table(self.table_name)
        table.insert_many(
            (rid,) + tuple(row) + ((vid,),) for rid, row in new_records.items()
        )
        existing = members - RidSet(new_records)
        if existing:
            self._append_vid_to(existing, vid)

    def _append_vid_to(self, rids: Iterable[int], vid: int) -> None:
        """``UPDATE T SET vlist = vlist || vid WHERE rid IN (...)`` (Table 1).

        The rid set is staged in a temp table so the UPDATE is one set-based
        statement, as the paper's translation does with ``SELECT rid FROM T'``.
        """
        staging = f"{self.table_name}__commit_rids"
        self.db.drop_table(staging, if_exists=True)
        stage = self.db.create_table(
            staging, TableSchema([Column("rid", DataType.INTEGER)])
        )
        stage.insert_many((rid,) for rid in rids)
        self.db.execute(
            f"UPDATE {self.table_name} SET vlist = vlist || %s "
            f"WHERE rid IN (SELECT rid FROM {staging})",
            (vid,),
        )
        self.db.drop_table(staging)

    def bulk_load(self, versions, payloads) -> None:
        """Insert each record once with its full vlist (no array rewrites)."""
        vlists: dict[int, list[int]] = {}
        for vid, _parents, member_rids in versions:
            for rid in member_rids:
                vlists.setdefault(rid, []).append(vid)
        self.db.table(self.table_name).insert_many(
            (rid,) + tuple(payloads[rid]) + (tuple(vids),)
            for rid, vids in vlists.items()
        )

    def fetch_rows(self, vid: int, rids: Iterable[int]) -> list[Row]:
        # The rid is the combined table's primary key; probe it and trim
        # the trailing vlist column.
        return self._fetch_rows_from_table(
            self.table_name, rids, data_width=len(self.data_schema)
        )

    def storage_bytes(self) -> int:
        return self.db.table(self.table_name).storage_bytes()

    def version_plan(self, vid: int) -> ast.Select:
        """``SELECT rid, <attrs> FROM T WHERE ARRAY[vid] <@ vlist``."""
        return ast.Select(
            items=[ast.SelectItem(ColumnRef("rid")), *self._items()],
            from_items=[ast.TableRef(self.table_name)],
            where=vlist_holds(vid),
        )

    def all_versions_plan(self) -> ast.Select:
        """``SELECT unnest(vlist) AS vid, <attrs> FROM T``."""
        return ast.Select(
            items=[
                ast.SelectItem(FuncCall("unnest", (ColumnRef("vlist"),)), "vid"),
                *self._items(),
            ],
            from_items=[ast.TableRef(self.table_name)],
        )
